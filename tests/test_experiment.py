import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import warplm.experiment
from warplm.cli import main
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


def journal(monkeypatch, tmp_path, name, fields):
    """Wrap warplm.experiment.<name> so that each call, in whichever process
    runs it, appends fields(args, kwargs) to a file under tmp_path as one JSON
    line. Returns a function that reads the calls so far."""
    path = tmp_path / f"{name}.calls.jsonl"

    def append(args, kwargs):
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(fields(args, kwargs)) + "\n")

    wrap(monkeypatch, name, append)
    return lambda: ([json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
                    if path.exists() else [])


def count_finetunes(monkeypatch, tmp_path):
    return journal(monkeypatch, tmp_path, "finetune", lambda a, kw: kw["seed"])


def test_run_experiment_fine_tunes_once_per_training_set(tmp_path, monkeypatch):
    calls = count_finetunes(monkeypatch, tmp_path)
    report = run_experiment(tmp_path / "exp", ExperimentMatrix(seeds=(0, 1)), **MICRO, log=None)
    assert len(report.records) == 12  # 3 settings x 2 objectives x 2 seeds
    assert len(calls()) == 8  # (clean, noisy) training sets x 2 objectives x 2 seeds


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
    calls = count_finetunes(monkeypatch, tmp_path)
    log = []
    report = run_experiment(tmp_path / "exp", matrix, **MICRO, log=log.append)
    assert len(calls()) == 8
    assert report.records == ref_records
    assert [(r.setting, r.objective, r.seed) for r in report.records] == list(
        itertools.product(matrix.settings, matrix.objectives, matrix.seeds))
    assert len(ref_lines) == 12
    assert run_lines(log, matrix.settings) == ref_lines


# ------------------------------------------------------------ cell pool

@pytest.fixture
def three_workers(monkeypatch):
    """Three cell processes (this one and two forked children) whatever the
    host's CPU count."""
    monkeypatch.setattr(warplm.experiment, "_usable_cpus", lambda: 3)


def test_cells_run_under_the_callers_errstate(tmp_path, monkeypatch, three_workers):
    calls = {name: journal(monkeypatch, tmp_path, name,
                           lambda a, kw: (os.getpid(), np.geterr()))
             for name in ("pretrain", "finetune")}
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        run_experiment(tmp_path / "exp", ExperimentMatrix(seeds=(0, 1)), **MICRO, log=None)
    seen = [(name, pid, err) for name, read in calls.items() for pid, err in read()]
    assert sorted(n for n, _, _ in seen) == ["finetune"] * 8 + ["pretrain"] * 2
    for name in calls:  # each kind of cell ran in a forked child at least once
        assert any(n == name and pid != os.getpid() for n, pid, _ in seen), name
    for name, _, err in seen:
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
    report = run_experiment(tmp_path / "exp", matrix, **MICRO, log=log.append)
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
    controls = warplm.nnet.blas._openblas_thread_controls()
    assert controls, "numpy's OpenBLAS thread-count functions were not found"
    get, set_ = controls[0]
    old = get()
    set_(2)
    yield get
    set_(old)


def test_blas_threads_are_pinned_during_the_run_and_restored(tmp_path, monkeypatch, openblas):
    during = journal(monkeypatch, tmp_path, "finetune", lambda a, kw: openblas())
    run_experiment(tmp_path / "ok", ExperimentMatrix(seeds=(0,)), **MICRO, log=None)
    assert during() == [1] * 4
    assert openblas() == 2

    def fail(a, kw):
        raise CellFailure()

    wrap(monkeypatch, "finetune", fail)
    with pytest.raises(CellFailure):
        run_experiment(tmp_path / "failed", ExperimentMatrix(seeds=(0,)), **MICRO, log=None)
    assert openblas() == 2


def test_no_cell_process_outlives_the_run(tmp_path, monkeypatch, three_workers):
    run_experiment(tmp_path / "ok", ExperimentMatrix(seeds=(0,)), **MICRO, log=None)
    assert multiprocessing.active_children() == []

    def fail(a, kw):
        raise CellFailure()

    wrap(monkeypatch, "finetune", fail)
    with pytest.raises(CellFailure):
        run_experiment(tmp_path / "failed", ExperimentMatrix(seeds=(0,)), **MICRO, log=None)
    assert multiprocessing.active_children() == []


MICRO_FLAGS = [arg for k, v in MICRO.items() for arg in (f"--{k.replace('_', '-')}", str(v))]


def test_a_dead_cell_process_is_one_error_line_and_exit_code_2(
        tmp_path, monkeypatch, capsys, three_workers):
    caller = os.getpid()

    def die_in_a_child(a, kw):
        if os.getpid() != caller:
            os._exit(3)

    wrap(monkeypatch, "finetune", die_in_a_child)
    code = main(["experiment", "--out", str(tmp_path / "exp"), "--n-seeds", "2", *MICRO_FLAGS])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: a process running matrix cells died")
    assert err.count("\n") == 1
    assert multiprocessing.active_children() == []


def _gone(pid: int) -> bool:
    """True once `pid` has exited (a zombie counts as exited)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in "ZX"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_cell_processes_die_with_their_parent(tmp_path):
    # A run whose own first fine-tune cell records the pids of its cell
    # processes and then hangs until this test kills it.
    script = f"""
import multiprocessing, os, sys, time
import warplm.experiment as ex
real, caller = ex.finetune, os.getpid()
def finetune(*a, **kw):
    if os.getpid() == caller:
        pids = " ".join(str(p.pid) for p in multiprocessing.active_children())
        with open(sys.argv[1] + ".part", "w") as f:
            f.write(pids)
        os.replace(sys.argv[1] + ".part", sys.argv[1])
        time.sleep(600)
    return real(*a, **kw)
ex.finetune, ex._usable_cpus = finetune, lambda: 3
ex.run_experiment(sys.argv[2], ex.ExperimentMatrix(seeds=(0,)), **{MICRO!r}, log=None)
"""
    pid_file = tmp_path / "pids"
    env = {**os.environ, "PYTHONPATH": str(Path(warplm.experiment.__file__).parents[1])}
    run = subprocess.Popen([sys.executable, "-c", script, str(pid_file), str(tmp_path / "exp")],
                           env=env)
    pids = []
    try:
        deadline = time.monotonic() + 120
        while not pid_file.exists():
            assert run.poll() is None, "the run ended before its fine-tune cells"
            assert time.monotonic() < deadline, "the run never reached its fine-tune cells"
            time.sleep(0.05)
        pids = [int(p) for p in pid_file.read_text().split()]
        assert len(pids) == 2
        run.kill()
        run.wait()
        deadline = time.monotonic() + 5
        while not all(map(_gone, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(_gone, pids)), "a cell process outlived its killed parent"
    finally:
        run.kill()
        run.wait()
        for pid in pids:
            if not _gone(pid):
                os.kill(pid, signal.SIGKILL)


def test_one_cpu_runs_every_cell_here_and_writes_the_same_bytes(tmp_path, monkeypatch):
    matrix = ExperimentMatrix(seeds=(0, 1))
    monkeypatch.setattr(warplm.experiment, "_usable_cpus", lambda: 2)
    run_experiment(tmp_path / "two", matrix, **MICRO, log=None)
    monkeypatch.setattr(warplm.experiment, "_usable_cpus", lambda: 1)
    calls = {name: journal(monkeypatch, tmp_path, name, lambda a, kw: (
        os.getpid(), len(multiprocessing.active_children()))) for name in ("pretrain", "finetune")}
    run_experiment(tmp_path / "one", matrix, **MICRO, log=None)
    assert [len(read()) for read in calls.values()] == [2, 8]
    for read in calls.values():
        assert read() == [[os.getpid(), 0]] * len(read())
    files = sorted(p.relative_to(tmp_path / "two") for p in (tmp_path / "two").rglob("*"))
    assert files == sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*"))
    for f in files:
        assert (tmp_path / "one" / f).read_bytes() == (tmp_path / "two" / f).read_bytes(), f
