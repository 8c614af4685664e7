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

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_patches():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod.PATCHES


PATCHES = load_patches()


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
