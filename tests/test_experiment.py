import itertools
import json
import math
from dataclasses import asdict, replace

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
)


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


def count_finetunes(monkeypatch):
    calls = []
    real_finetune = warplm.experiment.finetune

    def counting_finetune(*args, **kwargs):
        calls.append(kwargs["seed"])
        return real_finetune(*args, **kwargs)

    monkeypatch.setattr(warplm.experiment, "finetune", counting_finetune)
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
