import itertools
import json
import math
import sys
import threading
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

import warplm.experiment
from warplm.experiment import (
    METRICS,
    ExperimentMatrix,
    RunRecord,
    permutation_test,
    render_table,
    run_experiment,
    summarize,
    write_synthetic_data,
)
from warplm.nnet import ModelConfig
from warplm.pretrain import pretrain, split_validation
from warplm.seeding import derive_seed
from warplm.slu import evaluate_slu, finetune
from warplm.textcore import corpus_from_text
from warplm.warp import WarpConfig


# -------------------------------------------------------------- perm test

def exact_p_by_enumeration(xs, ys):
    pool = xs + ys
    n = len(xs)
    obs = abs(sum(xs) / len(xs) - sum(ys) / len(ys))
    hits = total = 0
    for idx in itertools.combinations(range(len(pool)), n):
        a = [pool[i] for i in idx]
        b = [pool[i] for i in range(len(pool)) if i not in idx]
        stat = abs(sum(a) / len(a) - sum(b) / len(b))
        hits += stat >= obs - 1e-12
        total += 1
    return hits / total


def test_permutation_test_small_hand_case():
    # pooled {1,2,3,4}: only the observed split and its mirror reach |diff|=2
    p = permutation_test([1, 2], [3, 4])
    assert abs(p - 2 / 6) < 1e-12


def test_permutation_test_identical_samples_not_significant():
    assert permutation_test([1.0] * 5, [1.0] * 5) == 1.0


def test_permutation_test_symmetry():
    xs = [0.5, 0.6, 0.7, 0.65, 0.55]
    ys = [0.52, 0.61, 0.58, 0.66, 0.59]
    assert permutation_test(xs, ys) == permutation_test(ys, xs)


def test_permutation_test_extreme_separation_five_v_five():
    xs = [10, 11, 12, 13, 14]
    ys = [0, 1, 2, 3, 4]
    p = permutation_test(xs, ys)
    assert abs(p - 2 / math.comb(10, 5)) < 1e-12
    assert p < 0.05


def test_permutation_test_matches_enumeration_oracle():
    xs = [0.70, 0.71, 0.69, 0.72, 0.68]
    ys = [0.67, 0.70, 0.66, 0.69, 0.68]
    assert abs(permutation_test(xs, ys) - exact_p_by_enumeration(xs, ys)) < 1e-12


def test_permutation_test_monte_carlo_branch():
    xs = list(range(12))
    ys = [x + 0.5 for x in range(12)]
    p1 = permutation_test(xs, ys)  # C(24,12) >> exact cutoff
    p2 = permutation_test(xs, ys)
    assert p1 == p2
    assert 0.0 < p1 <= 1.0


# ---------------------------------------------------------------- summary

def fake_records():
    recs = []
    for setting, bias in (("clean-clean", 0.2), ("clean-noisy", 0.0)):
        for obj, lift in (("wlm", 0.05), ("mlm", 0.0)):
            for seed in range(5):
                base = 0.5 + bias + lift + 0.001 * seed
                recs.append(RunRecord(obj, setting, seed, base + 0.3, base + 0.1, base))
    return recs


def test_summarize_and_table():
    matrix = ExperimentMatrix(settings=("clean-clean", "clean-noisy"), seeds=(0, 1, 2, 3, 4))
    report = summarize(fake_records(), matrix)
    cc = report.summary["clean-clean"]
    assert abs(cc["wlm"]["joint_accuracy"]["mean"] - 0.752) < 1e-9
    assert cc["wlm"]["joint_accuracy"]["std"] > 0
    # wlm strictly above mlm on every seed -> minimal exact p, significant
    p = report.p_values["clean-clean"]["joint_accuracy"]
    assert p == 2 / math.comb(10, 5)
    table = render_table(report, matrix)
    assert "wlm" in table and "mlm" in table
    assert "*" in table
    assert "clean-noisy" in table
    json.dumps(asdict(report))


def test_matrix_validation():
    with pytest.raises(ValueError, match="unknown setting"):
        ExperimentMatrix(settings=("clean-dirty",))
    with pytest.raises(ValueError, match="seeds"):
        ExperimentMatrix(seeds=())
    with pytest.raises(ValueError, match="unknown objective"):
        ExperimentMatrix(objectives=("gpt",))


@pytest.mark.parametrize("axis, value", [
    ("settings", ("clean-clean", "clean-clean")), ("settings", ()),
    ("objectives", ("wlm", "wlm")), ("objectives", ()),
    ("seeds", (1, 1)), ("seeds", ()),
])
def test_matrix_axes_must_be_non_empty_and_distinct(axis, value):
    with pytest.raises(ValueError, match=f"{axis} must be non-empty and distinct"):
        ExperimentMatrix(**{axis: value})


# ------------------------------------------------------------- micro run

def test_run_experiment_micro(tmp_path):
    matrix = ExperimentMatrix(settings=("clean-noisy",), seeds=(0,))
    report = run_experiment(
        tmp_path / "exp", matrix,
        n_train=24, n_val=8, n_test=12, n_corpus=80,
        pretrain_epochs=1, finetune_epochs=1, seed=0, log=None,
    )
    assert len(report.records) == 2  # two objectives x one seed
    for name in ("vocab.txt", "corpus.txt", "slu_train.tsv", "slu_test_noisy.tsv",
                 "pretrain_wlm.jsonl", "pretrain_mlm.jsonl", "results.jsonl",
                 "report.json", "report.txt"):
        assert (tmp_path / "exp" / name).exists(), name
    lines = (tmp_path / "exp" / "results.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert set(row) == {"objective", "setting", "seed", "intent_accuracy",
                        "slot_f1", "joint_accuracy"}
    assert "clean-noisy" in report.p_values


MICRO = dict(n_train=24, n_val=8, n_test=12, n_corpus=80,
             pretrain_epochs=1, finetune_epochs=1, seed=0)


def wrap(monkeypatch, name, before):
    """Replace warplm.experiment.<name> by a wrapper that calls
    before(args, kwargs) and then the real function."""
    real = getattr(warplm.experiment, name)

    def wrapper(*args, **kwargs):
        before(args, kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(warplm.experiment, name, wrapper)


def count_finetunes(monkeypatch):
    calls = []
    wrap(monkeypatch, "finetune", lambda a, kw: calls.append(kw["seed"]))
    return calls


def test_run_experiment_fine_tunes_once_per_training_set(tmp_path, monkeypatch):
    calls = count_finetunes(monkeypatch)
    report = run_experiment(tmp_path / "exp", ExperimentMatrix(seeds=(0, 1)), **MICRO, log=None)
    assert len(report.records) == 12  # 3 settings x 2 objectives x 2 seeds
    assert len(calls) == 8  # (clean, noisy) training sets x 2 objectives x 2 seeds


def run_lines(log, settings):
    """The per-run lines of a run's log ("<setting> <objective> seed=...")."""
    return [line for line in log if line.split(" ")[0] in settings]


def per_setting_reference(out_dir, matrix):
    """Records and per-run log lines of one run per setting, concatenated in
    matrix order: every (setting, objective, seed) gets its own fine-tune."""
    records, lines = [], []
    for setting in matrix.settings:
        log = []
        report = run_experiment(out_dir / setting, replace(matrix, settings=(setting,)),
                                **MICRO, log=log.append)
        records += report.records
        lines += run_lines(log, (setting,))
    return records, lines


def test_shared_fine_tunes_keep_matrix_order_and_values(tmp_path, monkeypatch):
    matrix = ExperimentMatrix(settings=("noisy-noisy", "clean-noisy", "clean-clean"),
                              seeds=(1, 0))
    ref_records, ref_lines = per_setting_reference(tmp_path / "ref", matrix)
    calls = count_finetunes(monkeypatch)
    log = []
    report = run_experiment(tmp_path / "exp", matrix, **MICRO, log=log.append)
    assert len(calls) == 8
    assert report.records == ref_records
    assert [(r.setting, r.objective, r.seed) for r in report.records] == list(
        itertools.product(matrix.settings, matrix.objectives, matrix.seeds))
    assert len(ref_lines) == 12
    assert run_lines(log, matrix.settings) == ref_lines


# ------------------------------------------------------------ cell pool

@pytest.fixture
def three_workers(monkeypatch):
    """A pool of three workers whatever the host's CPU count."""
    monkeypatch.setattr(warplm.experiment, "_usable_cpus", lambda: 3)


def test_cells_run_under_the_callers_errstate(tmp_path, monkeypatch, three_workers):
    seen = []
    for name in ("pretrain", "finetune"):
        wrap(monkeypatch, name, lambda a, kw, name=name: seen.append(
            (name, threading.current_thread(), np.geterr())))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        run_experiment(tmp_path / "exp", ExperimentMatrix(seeds=(0, 1)), **MICRO, log=None)
    assert sorted(n for n, _, _ in seen) == ["finetune"] * 8 + ["pretrain"] * 2
    for name, thread, err in seen:
        assert thread is not threading.main_thread()
        assert (err["over"], err["invalid"], err["divide"]) == ("raise",) * 3, name


def test_cells_finishing_out_of_order_keep_matrix_order(tmp_path, monkeypatch, three_workers):
    matrix = ExperimentMatrix(settings=("noisy-noisy", "clean-noisy", "clean-clean"),
                              seeds=(1, 0))
    ref_log = []
    ref = run_experiment(tmp_path / "ref", matrix, **MICRO, log=ref_log.append)
    # The first pretrain cell (wlm) and the first fine-tune cell of each
    # (training set, objective) (seed 1) finish after the cells behind them.
    wrap(monkeypatch, "pretrain", lambda a, kw: time.sleep(0.3 * (a[4] == WLM)))
    wrap(monkeypatch, "finetune", lambda a, kw: time.sleep(0.3 * (kw["seed"] == SEED_1)))
    log = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to expose shared-state races
    try:
        report = run_experiment(tmp_path / "exp", matrix, **MICRO, log=log.append)
    finally:
        sys.setswitchinterval(interval)
    assert report.records == ref.records
    assert log == ref_log
    for name in ("results.jsonl", "report.json", "report.txt",
                 "pretrain_wlm.jsonl", "pretrain_mlm.jsonl"):
        assert (tmp_path / "exp" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


WLM = WarpConfig("wlm")
SEED_1 = derive_seed(MICRO["seed"], 7, 1)  # run_experiment's fine-tune seed for seed 1


def test_a_record_equals_its_cell_run_serially(tmp_path):
    report = run_experiment(tmp_path / "exp", ExperimentMatrix(seeds=(0, 1)), **MICRO, log=None)
    vocab, corpus_text, (train, val, test) = write_synthetic_data(
        tmp_path / "data", MICRO["n_corpus"], MICRO["n_train"], MICRO["n_val"],
        MICRO["n_test"], MICRO["seed"])
    train_sents, val_sents = split_validation(
        corpus_from_text(corpus_text, vocab).sentences, 0.1)
    encoder, _ = pretrain(train_sents, val_sents, vocab, ModelConfig.desk(len(vocab)),
                          WarpConfig("mlm"), epochs=MICRO["pretrain_epochs"],
                          batch_size=32, lr=1e-3, seed=derive_seed(MICRO["seed"], 6))
    model, _ = finetune(encoder, train, val, epochs=MICRO["finetune_epochs"],
                        batch_size=16, lr=5e-4, seed=SEED_1)
    m = evaluate_slu(model, test)
    [record] = [r for r in report.records
                if (r.setting, r.objective, r.seed) == ("clean-clean", "mlm", 1)]
    assert record == RunRecord("mlm", "clean-clean", 1, m.intent_accuracy, m.slot_f1,
                               m.joint_accuracy)


class CellFailure(Exception):
    pass


def test_the_first_failing_cell_in_matrix_order_raises_its_own_exception(
        tmp_path, monkeypatch, three_workers):
    first, later = CellFailure("seed 1"), CellFailure("seed 0")

    def fail(a, kw):
        if kw["seed"] == SEED_1:
            time.sleep(0.3)  # fails after the cell behind it
            raise first
        raise later

    wrap(monkeypatch, "finetune", fail)
    with pytest.raises(CellFailure) as caught:
        run_experiment(tmp_path / "exp", ExperimentMatrix(seeds=(1, 0)), **MICRO, log=None)
    assert caught.value is first


@pytest.fixture
def openblas():
    """numpy's OpenBLAS thread-count getter, set to 2 threads for the test
    and restored afterwards. Skips only where numpy is not built on
    OpenBLAS; where it is, a lookup that finds nothing fails."""
    if "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]:
        pytest.skip("numpy is not built on OpenBLAS")
    controls = warplm.experiment._openblas_thread_controls()
    assert controls, "numpy's OpenBLAS thread-count functions were not found"
    get, set_ = controls[0]
    old = get()
    set_(2)
    yield get
    set_(old)


def test_blas_threads_are_pinned_during_the_run_and_restored(tmp_path, monkeypatch, openblas):
    during = []
    wrap(monkeypatch, "finetune", lambda a, kw: during.append(openblas()))
    run_experiment(tmp_path / "ok", ExperimentMatrix(seeds=(0,)), **MICRO, log=None)
    assert during == [1] * 4
    assert openblas() == 2

    def fail(a, kw):
        raise CellFailure()

    wrap(monkeypatch, "finetune", fail)
    with pytest.raises(CellFailure):
        run_experiment(tmp_path / "failed", ExperimentMatrix(seeds=(0,)), **MICRO, log=None)
    assert openblas() == 2
