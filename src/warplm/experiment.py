"""Noise-robustness experiment matrix.

Settings name the (fine-tune data, test data) pairing:
    clean-clean   fine-tune on clean text, test on clean text
    clean-noisy   fine-tune on clean text, test on noisy text
    noisy-noisy   fine-tune on noisy text, test on noisy text

For each setting, both pretraining objectives (masked-only "mlm" vs the
full warp op set "wlm") are fine-tuned over several seeds; per-metric means
and standard deviations are reported with an exact two-sided permutation
test between the two objectives. Settings with the same fine-tune data
share their fine-tuned models: clean-clean and clean-noisy score one model
per (objective, seed) on the two test sets.

The matrix's independent cells (one pretrain per objective, then one
fine-tune and evaluation per training set, objective and seed) run in up to
one process per usable CPU: this process runs its share of them itself and
forked children run the rest, so at most one fine-tuned model per process
is alive at a time. Forking needs a POSIX system (Linux, where a child also
dies with its parent). Each cell keeps its own seed streams and the results
are consumed in matrix order, so the artifacts do not depend on the number
of processes.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .asrsim import NoiseConfig, make_noisy_slu_set, save_noisy_slu_set
from .nnet import EncoderModel, ModelConfig
from .nnet.blas import one_blas_thread
from .pretrain import pretrain, split_validation
from .seeding import derive_seed
from .slu import evaluate_slu, finetune, save_slu_file
from .synth import synth_corpus_text, synth_slu_splits, synth_vocab
from .textcore import corpus_from_text, save_vocab, write_json, write_jsonl
from .warp import OBJECTIVES as WARP_OBJECTIVES, WarpConfig

SETTINGS = ("clean-clean", "clean-noisy", "noisy-noisy")
OBJECTIVES = tuple(WARP_OBJECTIVES)
METRICS = ("intent_accuracy", "slot_f1", "joint_accuracy")


@dataclass(frozen=True)
class ExperimentMatrix:
    settings: tuple[str, ...] = SETTINGS
    objectives: tuple[str, ...] = OBJECTIVES
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        for s in self.settings:
            if s not in SETTINGS:
                raise ValueError(f"unknown setting {s!r} (choose from {SETTINGS})")
        for o in self.objectives:
            WarpConfig(o)
        for name in ("settings", "objectives", "seeds"):
            axis = getattr(self, name)
            if len(set(axis)) != len(axis) or not axis:
                raise ValueError(f"{name} must be non-empty and distinct, got {axis}")


MAX_EXACT_SPLITS = 20000


def permutation_test(xs, ys) -> float:
    """Two-sided permutation test on the difference of means.

    Exact when the number of splits C(n+m, n) is at most MAX_EXACT_SPLITS,
    otherwise Monte Carlo with 10000 resamples. The observed split counts
    toward the p-value, so p is never 0."""
    xs, ys = list(map(float, xs)), list(map(float, ys))
    pool = np.array(xs + ys)
    n = len(xs)
    obs = abs(np.mean(xs) - np.mean(ys))
    total = math.comb(len(pool), n)
    tol = 1e-12  # treat FP-equal statistics as ties
    if total <= MAX_EXACT_SPLITS:
        hits = 0
        for idx in itertools.combinations(range(len(pool)), n):
            sel = np.zeros(len(pool), bool)
            sel[list(idx)] = True
            stat = abs(pool[sel].mean() - pool[~sel].mean())
            hits += stat >= obs - tol
        return hits / total
    rng = np.random.default_rng(derive_seed(0, 0x9E))
    hits = 1  # the observed labeling
    draws = 10000
    for _ in range(draws):
        perm = rng.permutation(len(pool))
        stat = abs(pool[perm[:n]].mean() - pool[perm[n:]].mean())
        hits += stat >= obs - tol
    return hits / (draws + 1)


@dataclass
class RunRecord:
    objective: str
    setting: str
    seed: int
    intent_accuracy: float
    slot_f1: float
    joint_accuracy: float


@dataclass
class ExperimentReport:
    records: list[RunRecord]
    summary: dict  # setting -> objective -> metric -> {"mean","std"}
    p_values: dict  # setting -> metric -> p
    alpha: float = 0.05
    meta: dict = field(default_factory=dict)


def summarize(records: list[RunRecord], matrix: ExperimentMatrix) -> ExperimentReport:
    summary: dict = {}
    p_values: dict = {}
    by_key: dict = {}
    for r in records:
        by_key.setdefault((r.setting, r.objective), []).append(r)
    for setting in matrix.settings:
        summary[setting] = {}
        for obj in matrix.objectives:
            runs = sorted(by_key.get((setting, obj), []), key=lambda r: r.seed)
            summary[setting][obj] = {
                m: {
                    "mean": float(np.mean([getattr(r, m) for r in runs])),
                    "std": float(np.std([getattr(r, m) for r in runs], ddof=1))
                    if len(runs) > 1 else 0.0,
                }
                for m in METRICS
            }
        if set(matrix.objectives) >= {"wlm", "mlm"}:
            p_values[setting] = {}
            for m in METRICS:
                xs = [getattr(r, m) for r in by_key.get((setting, "wlm"), [])]
                ys = [getattr(r, m) for r in by_key.get((setting, "mlm"), [])]
                p_values[setting][m] = permutation_test(xs, ys)
    return ExperimentReport(records, summary, p_values)


def render_table(report: ExperimentReport, matrix: ExperimentMatrix) -> str:
    """Fixed-width summary; '*' marks a significant difference (p < alpha)
    on that metric, attached to the higher mean."""
    col_names = {"intent_accuracy": "intent", "slot_f1": "slot_f1",
                 "joint_accuracy": "joint"}
    lines = []
    head = f"{'':14s}"
    for setting in matrix.settings:
        head += f"{setting:^42s}"
    lines.append(head.rstrip())
    sub = f"{'objective':14s}"
    for _ in matrix.settings:
        for m in METRICS:
            sub += f"{col_names[m]:>14s}"
    lines.append(sub.rstrip())
    for obj in matrix.objectives:
        row = f"{obj:14s}"
        for setting in matrix.settings:
            for m in METRICS:
                cell = report.summary[setting][obj][m]
                mark = ""
                p = report.p_values.get(setting, {}).get(m)
                if p is not None and p < report.alpha:
                    other = "mlm" if obj == "wlm" else "wlm"
                    if cell["mean"] > report.summary[setting][other][m]["mean"]:
                        mark = "*"
                text = f"{cell['mean']:.3f}±{cell['std']:.3f}{mark}"
                row += f"{text:>14s}"
        lines.append(row.rstrip())
    plines = []
    for setting in matrix.settings:
        if setting in report.p_values:
            ps = report.p_values[setting]
            plines.append(
                f"p({setting}): "
                + "  ".join(f"{col_names[m]}={ps[m]:.4f}" for m in METRICS)
            )
    if plines:
        lines.append("")
        lines.extend(plines)
        lines.append(f"'*' = higher mean, two-sided permutation p < {report.alpha}")
    return "\n".join(lines) + "\n"


def _require_at_least(*checks):
    """Raise ValueError for the first (name, value, least) with value < least."""
    for name, value, least in checks:
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


# The cells of the running _run_cells call (one call at a time per process).
# Its children are forked after this is set, so they reach a cell by its
# index and only results cross the pipe; the cells may be closures.
_CELLS: list = []

PR_SET_PDEATHSIG = 1  # linux/prctl.h


def _run_cell(i: int):
    return _CELLS[i]()


def _die_with(parent: int) -> None:
    """Initializer of a cell process: have the kernel kill it when its parent
    dies (where libc has prctl), and exit if the parent is already gone."""
    import signal

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this OS
        return os.cpu_count() or 1


def _run_cells(cells: list) -> list:
    """Call each zero-argument function in `cells` and return their results
    in order. With n = min(usable CPUs, len(cells)), this process runs
    cells[0::n] itself and n-1 forked children run the rest; at n == 1
    nothing is forked. The cells run with numpy's OpenBLAS pinned to one
    thread (`nnet.blas.one_blas_thread()`), since the processes already use
    every CPU; the count is restored after. The children inherit the pin
    and numpy's errstate. The first failing cell in order re-raises its
    exception here, and cells not yet started are cancelled. A child that
    dies raises ChildProcessError."""
    # Imported here, not at the top: they add about 10 ms to importing the package.
    import multiprocessing
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    global _CELLS
    n = min(_usable_cpus(), len(cells))
    pool = None
    try:
        with one_blas_thread():
            _CELLS = cells
            futures = [None] * len(cells)
            if n > 1:
                pool = ProcessPoolExecutor(n - 1, mp_context=multiprocessing.get_context("fork"),
                                           initializer=_die_with, initargs=(os.getpid(),))
                for i in range(len(cells)):
                    if i % n:
                        futures[i] = pool.submit(_run_cell, i)
            for i in range(0, len(cells), n):
                if any(f.done() and f.exception() is not None for f in futures[:i]):
                    break  # an earlier cell failed, so the cells from here are not needed
                futures[i] = Future()
                try:
                    futures[i].set_result(cells[i]())
                except Exception as e:
                    futures[i].set_exception(e)
                    break
            return [f.result() for f in futures]
    except BrokenProcessPool as e:
        raise ChildProcessError(f"a process running matrix cells died: {e}") from e
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        _CELLS = []


def write_synthetic_data(out_dir, n_corpus: int, n_train: int, n_val: int, n_test: int,
                         seed: int):
    """Write the experiment's data for `seed` under out_dir: vocab.txt,
    corpus.txt and slu_{train,val,test}.tsv. -> (vocab, corpus text,
    (train, val, test)). Invalid sizes raise ValueError before anything
    is written."""
    _require_at_least(
        ("n_train", n_train, 1), ("n_val", n_val, 1), ("n_test", n_test, 1),
        ("n_corpus", n_corpus, 2),  # one validation and one training sentence
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = synth_vocab()
    save_vocab(vocab, out / "vocab.txt")
    corpus_text = synth_corpus_text(n_corpus, derive_seed(seed, 1))
    (out / "corpus.txt").write_text(corpus_text, encoding="utf-8")
    splits = synth_slu_splits(n_train, n_val, n_test, vocab, derive_seed(seed, 2))
    for name, utts in zip(("train", "val", "test"), splits):
        save_slu_file(out / f"slu_{name}.tsv", utts, vocab)
    return vocab, corpus_text, splits


def run_experiment(
    out_dir,
    matrix: ExperimentMatrix = ExperimentMatrix(),
    n_train: int = 400,
    n_val: int = 100,
    n_test: int = 200,
    n_corpus: int = 2000,
    pretrain_epochs: int = 8,
    finetune_epochs: int = 6,
    seed: int = 0,
    log=print,
) -> ExperimentReport:
    """Generate data, pretrain one desk encoder per objective, fine-tune
    over the matrix, evaluate, test significance, and write all artifacts
    under out_dir. Everything is a pure function of the arguments; invalid
    sizes raise ValueError before anything is written."""
    _require_at_least(("pretrain_epochs", pretrain_epochs, 0),
                      ("finetune_epochs", finetune_epochs, 1))
    out = Path(out_dir)
    vocab, corpus_text, (train, val, test) = write_synthetic_data(
        out, n_corpus, n_train, n_val, n_test, seed)
    model_cfg = ModelConfig.desk(len(vocab))
    train_sents, val_sents = split_validation(corpus_from_text(corpus_text, vocab).sentences, 0.1)

    noisy_sets = {}
    for name, utts, cfg_noise, tag in (
        ("train", train, NoiseConfig.train_val(), 3),
        ("val", val, NoiseConfig.train_val(), 4),
        ("test", test, NoiseConfig.test(), 5),
    ):
        noisy_set = make_noisy_slu_set(utts, cfg_noise, vocab, derive_seed(seed, tag))
        noisy_sets[name] = noisy_set[0]
        save_noisy_slu_set(out / f"slu_{name}_noisy.tsv",
                           out / f"slu_{name}_noisy.align.json", noisy_set, vocab)

    # The cells call `pretrain`, `finetune` and `evaluate_slu` through this
    # module's globals, looked up when a cell runs.
    def pretrain_cell(obj):
        return pretrain(train_sents, val_sents, vocab, model_cfg, WarpConfig(obj),
                        epochs=pretrain_epochs, seed=derive_seed(seed, 6))

    # One fine-tune per (training set, objective, seed), scored on the test
    # set of every setting that trains on that set.
    train_sets = {"clean": (train, val), "noisy": (noisy_sets["train"], noisy_sets["val"])}
    test_sets = {"clean": test, "noisy": noisy_sets["test"]}
    finetune_keys = [
        (kind, obj, s)
        for kind in train_sets if any(st.startswith(kind) for st in matrix.settings)
        for obj, s in itertools.product(matrix.objectives, matrix.seeds)
    ]

    def finetune_cell(kind, obj, s):
        ft_train, ft_val = train_sets[kind]
        model, _ = finetune(encoders[obj], ft_train, ft_val, epochs=finetune_epochs,
                            seed=derive_seed(seed, 7, s))
        return {setting: evaluate_slu(model, test_sets[setting.split("-")[1]])
                for setting in matrix.settings if setting.startswith(kind)}

    if log:
        for obj in matrix.objectives:
            log(f"pretraining objective={obj} ({pretrain_epochs} epochs)")
    encoders: dict[str, EncoderModel] = {}
    pretrained = _run_cells([partial(pretrain_cell, obj) for obj in matrix.objectives])
    for obj, (model, history) in zip(matrix.objectives, pretrained):
        encoders[obj] = model
        write_jsonl(out / f"pretrain_{obj}.jsonl", history)

    scores = {}  # (setting, objective, seed) -> SLUMetrics
    finetuned = _run_cells([partial(finetune_cell, *key) for key in finetune_keys])
    for (_, obj, s), by_setting in zip(finetune_keys, finetuned):
        for setting, metrics in by_setting.items():
            scores[setting, obj, s] = metrics

    records: list[RunRecord] = []
    for setting, obj, s in itertools.product(matrix.settings, matrix.objectives, matrix.seeds):
        m = scores[setting, obj, s]
        records.append(RunRecord(obj, setting, s, m.intent_accuracy, m.slot_f1,
                                 m.joint_accuracy))
        if log:
            log(f"{setting} {obj} seed={s} intent={m.intent_accuracy:.3f} "
                f"slot_f1={m.slot_f1:.3f} joint={m.joint_accuracy:.3f}")

    report = summarize(records, matrix)
    report.meta = {
        "n_train": n_train, "n_val": n_val, "n_test": n_test,
        "n_corpus": n_corpus, "pretrain_epochs": pretrain_epochs,
        "finetune_epochs": finetune_epochs, "seed": seed,
        "model": asdict(model_cfg),
    }
    write_jsonl(out / "results.jsonl",
                sorted(records, key=lambda r: (r.setting, r.objective, r.seed)))
    write_json(out / "report.json", asdict(report))
    table = render_table(report, matrix)
    (out / "report.txt").write_text(table, encoding="utf-8")
    if log:
        log(table)
    return report
