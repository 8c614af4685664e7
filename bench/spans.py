"""In-memory span recorder that wraps the package's module attributes.

A span is one call of a wrapped function: its name, start, end (seconds on
the `time.perf_counter` clock), the index of the span that was open when it
started (its parent, -1 at the root), the job it belongs to, and a few
attributes read from the call's arguments or result (shapes and counts,
never values that would need extra computation on the hot path).

Wrapping replaces a module attribute for the duration of a `Tracer.active()`
block and restores it afterwards. A function called through another module's
global (``warplm.pretrain.forward`` vs ``warplm.nnet.encoder.forward``) must be
patched in each calling module, which is why a layer's function can appear
more than once in `PATCHES`. An attribute that no longer exists raises
AttributeError, so a refactor that renames or inlines a traced function stops
the traced run instead of letting the metrics fed by it read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: int
    attrs: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _pred_rows(args, kwargs, index):
    mask = kwargs.get("predict_mask", args[index] if len(args) > index else None)
    return {"pred": int(mask.sum())} if mask is not None else {}


def _forward_attrs(args, kwargs, result):
    rng = kwargs.get("dropout_rng", args[3] if len(args) > 3 else None)
    return {"train": rng is not None, "itemsize": int(result[0].dtype.itemsize)}


def _logits_attrs(args, kwargs, result):
    return {"rows": int(result.size // result.shape[-1]), "bytes": int(result.nbytes)}


def _warp_attrs(args, kwargs, result):
    counts: dict = {}
    for op in result.plan.ops.values():
        counts[op.value.lower()] = counts.get(op.value.lower(), 0) + 1
    return counts


def _noise_attrs(args, kwargs, result):
    stats = result[2]
    return {"errors": stats.n_sub + stats.n_del + stats.n_ins, "n_ref": stats.n_ref}


# (module, attribute, span name, attribute reader or None)
PATCHES = (
    ("warplm.synth", "synth_vocab", "synth.synth_vocab", None),
    ("warplm.synth", "synth_corpus_text", "synth.synth_corpus_text", None),
    ("warplm.experiment", "synth_vocab", "synth.synth_vocab", None),
    ("warplm.experiment", "synth_corpus_text", "synth.synth_corpus_text", None),
    ("warplm.experiment", "synth_slu_splits", "synth.synth_slu_splits", None),
    ("warplm.textcore", "corpus_from_text", "textcore.corpus_from_text", None),
    ("warplm.experiment", "corpus_from_text", "textcore.corpus_from_text", None),
    ("warplm.pretrain", "pretrain", "pretrain.pretrain", None),
    ("warplm.experiment", "pretrain", "pretrain.pretrain", None),
    ("warplm.pretrain", "warp", "warp.warp", _warp_attrs),
    ("warplm.pretrain", "pad_batch", "pretrain.pad_batch", None),
    ("warplm.pretrain", "evaluate_lm", "pretrain.evaluate_lm", None),
    ("warplm.pretrain", "forward", "nnet.forward", _forward_attrs),
    ("warplm.nnet.encoder", "forward", "nnet.forward", _forward_attrs),
    ("warplm.slu", "forward", "nnet.forward", _forward_attrs),
    ("warplm.pretrain", "lm_logits", "nnet.lm_logits", _logits_attrs),
    ("warplm.nnet.encoder", "lm_logits", "nnet.lm_logits", _logits_attrs),
    ("warplm.pretrain", "lm_loss", "nnet.lm_loss",
     lambda a, k, r: _pred_rows(a, k, 2)),
    ("warplm.pretrain", "lm_loss_and_grads", "nnet.lm_loss_and_grads",
     lambda a, k, r: _pred_rows(a, k, 4)),
    ("warplm.nnet.encoder", "lm_backward", "nnet.lm_backward", None),
    ("warplm.nnet.encoder", "encoder_backward", "nnet.encoder_backward", None),
    ("warplm.slu", "encoder_backward", "nnet.encoder_backward", None),
    ("warplm.pretrain", "step", "nnet.step", None),
    ("warplm.slu", "step", "nnet.step", None),
    ("warplm.experiment", "make_noisy_slu_set", "asrsim.make_noisy_slu_set", _noise_attrs),
    ("warplm.asrsim", "align", "asrsim.align", None),
    ("warplm.experiment", "finetune", "slu.finetune", None),
    ("warplm.slu", "slu_loss_and_grads", "slu.slu_loss_and_grads", None),
    ("warplm.slu", "evaluate_slu", "slu.evaluate_slu", None),
    ("warplm.experiment", "evaluate_slu", "slu.evaluate_slu", None),
    ("warplm.experiment", "summarize", "experiment.summarize", None),
    ("warplm.experiment", "run_experiment", "experiment.run_experiment", None),
)


class Tracer:
    """Records spans while active; `job` tags the spans of one benchmark job."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._stack: list[int] = []

    def _wrap(self, fn, name, reader):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if reader is not None:
                span.attrs = reader(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span under the innermost open one."""
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def active(self):
        """Patch every target in PATCHES; restore them all on exit."""
        saved = []
        try:
            for modname, attr, name, reader in PATCHES:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name, reader))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans]}, fh)
