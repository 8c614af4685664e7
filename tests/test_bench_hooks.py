"""The traced benchmark run wraps package functions by module and attribute
name and reads some of their arguments by position (`bench/spans.py`). A
refactor that renames, inlines or reorders one of them must fail here, not
only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import warplm.experiment

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


SPANS_MOD = load_spans()
PATCHES = SPANS_MOD.PATCHES


@pytest.mark.parametrize("modname,attr", sorted({(m, a) for m, a, _, _ in PATCHES}))
def test_trace_target_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("modname,attr,index,param", [
    ("warplm.pretrain", "lm_loss", 2, "predict_mask"),
    ("warplm.pretrain", "lm_loss_and_grads", 4, "predict_mask"),
    ("warplm.pretrain", "forward", 3, "dropout_rng"),
    ("warplm.nnet.encoder", "forward", 3, "dropout_rng"),
    ("warplm.slu", "forward", 3, "dropout_rng"),
])
def test_positionally_read_arguments(modname, attr, index, param):
    fn = getattr(importlib.import_module(modname), attr)
    assert list(inspect.signature(fn).parameters)[index] == param


def test_traced_experiment_records_every_span(tmp_path):
    # Called through the module attribute, as the benchmark does, so the
    # wrapped run_experiment is the one that runs.
    tracer = SPANS_MOD.Tracer()
    with tracer.active():
        warplm.experiment.run_experiment(
            tmp_path, warplm.experiment.ExperimentMatrix(seeds=(0,)),
            n_train=16, n_val=8, n_test=8, n_corpus=40,
            pretrain_epochs=1, finetune_epochs=1, log=None,
        )
    recorded = {s.name for s in tracer.spans}
    assert {name for _, _, name, _ in PATCHES} <= recorded
    # a reader that raised would have stopped the run; each one read something
    for _, _, name, reader in PATCHES:
        if reader is not None:
            assert any(s.attrs for s in tracer.spans if s.name == name), name
