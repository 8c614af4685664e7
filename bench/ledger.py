"""Per-layer metrics computed from the spans of one traced job.

`_ms` values are totals over the job. A span's self time is its duration
minus that of its direct children (the program is single-threaded, so
children never overlap). A name's total counts only its outermost spans.
"""

from __future__ import annotations

import statistics

from spans import Span

WARP_OPS = ("mask", "keep", "rand", "insert", "drop")
PHASES = ("data", "noise", "pretrain", "finetune", "evaluate", "report")

# name -> unit, in the order the benchmark prints them
PER_LAYER = {
    "warp.warp.calls": "count",
    "warp.warp.total_ms": "ms",
    "warp.share": "ratio",
    **{f"warp.ops.{op}": "count" for op in WARP_OPS},
    "pretrain.pad_batch.total_ms": "ms",
    "pretrain.evaluate_lm.total_ms": "ms",
    "pretrain.pretrain.self_ms": "ms",
    "nnet.forward.train_ms": "ms",
    "nnet.forward.eval_ms": "ms",
    "nnet.encoder_backward.total_ms": "ms",
    "nnet.hidden_itemsize": "bytes",
    "nnet.lm_logits.total_ms": "ms",
    "nnet.lm_loss_and_grads.self_ms": "ms",
    "nnet.lm_backward.self_ms": "ms",
    "nnet.step.total_ms": "ms",
    "nnet.train_step_ms.p50": "ms",
    "nnet.train_step_ms.ptail": "ms",
    "nnet.train_step_ms.ptail_pct": "%",
    "nnet.train_step_ms.samples": "count",
    "nnet.logit_rows": "count",
    "nnet.pred_rows": "count",
    "nnet.useful_logit_ratio": "ratio",
    "nnet.logits_mb_per_step": "MB",
    "slu.finetune.calls": "count",
    "slu.finetune.self_ms": "ms",
    "slu.slu_loss_and_grads.self_ms": "ms",
    "slu.evaluate_slu.total_ms": "ms",
    "asrsim.make_noisy_slu_set.total_ms": "ms",
    "asrsim.align.calls": "count",
    "asrsim.realized_wer": "ratio",
    **{f"experiment.phase.{p}_ms": "ms" for p in PHASES},
    "experiment.summarize.total_ms": "ms",
    "textcore.corpus_from_text.total_ms": "ms",
    "synth.total_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

LOSS_SPANS = ("nnet.lm_loss_and_grads", "slu.slu_loss_and_grads")


def train_step_ms(spans: list[Span], jobs: set[int]) -> list[float]:
    """One value per optimizer step: the loss-and-gradients call plus the
    `nnet.step` call that follows it under the same parent."""
    out = []
    pending: dict[int, float] = {}  # parent -> loss span ms awaiting its step
    for s in spans:
        if s.job not in jobs:
            continue
        if s.name in LOSS_SPANS:
            pending[s.parent] = s.ms
        elif s.name == "nnet.step" and s.parent in pending:
            out.append(pending.pop(s.parent) + s.ms)
    return out


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile that leaves at least
    ten samples above it; the maximum (100) when there are ten or fewer."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def layer_metrics(spans: list[Span], jobs: set[int], job_wall_s: float) -> dict[str, float]:
    """The PER_LAYER metrics of one traced job, over the spans whose job is
    in `jobs` (the traced set-up and that job). `combine` adds the step-time
    distribution and the tracing overhead, which need every traced job."""
    idx = [i for i, s in enumerate(spans) if s.job in jobs]
    children: dict[int, list[int]] = {}
    by_name: dict[str, list[int]] = {}
    for i in idx:
        children.setdefault(spans[i].parent, []).append(i)
        by_name.setdefault(spans[i].name, []).append(i)

    def named(name):
        return by_name.get(name, [])

    def outermost(i):
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == spans[i].name:
                return False
            p = spans[p].parent
        return True

    def total(name):
        return sum(spans[i].ms for i in named(name) if outermost(i))

    def self_ms(name):
        return sum(spans[i].ms - sum(spans[c].ms for c in children.get(i, [])) for i in named(name))

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in named(name))

    m: dict[str, float] = {}
    m["warp.warp.calls"] = len(named("warp.warp"))
    m["warp.warp.total_ms"] = total("warp.warp")
    m["warp.share"] = m["warp.warp.total_ms"] / (job_wall_s * 1e3)
    for op in WARP_OPS:
        m[f"warp.ops.{op}"] = attr_sum("warp.warp", op)

    m["pretrain.pad_batch.total_ms"] = total("pretrain.pad_batch")
    m["pretrain.evaluate_lm.total_ms"] = total("pretrain.evaluate_lm")
    m["pretrain.pretrain.self_ms"] = self_ms("pretrain.pretrain")

    fwd = named("nnet.forward")
    m["nnet.forward.train_ms"] = sum(spans[i].ms for i in fwd if spans[i].attrs.get("train"))
    m["nnet.forward.eval_ms"] = sum(spans[i].ms for i in fwd if not spans[i].attrs.get("train"))
    m["nnet.encoder_backward.total_ms"] = total("nnet.encoder_backward")
    m["nnet.hidden_itemsize"] = max((spans[i].attrs.get("itemsize", 0) for i in fwd), default=0)

    m["nnet.lm_logits.total_ms"] = total("nnet.lm_logits")
    m["nnet.lm_loss_and_grads.self_ms"] = self_ms("nnet.lm_loss_and_grads")
    m["nnet.lm_backward.self_ms"] = self_ms("nnet.lm_backward")
    m["nnet.step.total_ms"] = total("nnet.step")
    m["nnet.logit_rows"] = attr_sum("nnet.lm_logits", "rows")
    m["nnet.pred_rows"] = attr_sum("nnet.lm_loss_and_grads", "pred") + attr_sum("nnet.lm_loss", "pred")
    m["nnet.useful_logit_ratio"] = (
        m["nnet.pred_rows"] / m["nnet.logit_rows"] if m["nnet.logit_rows"] else 0.0
    )
    train_logits = [
        spans[i].attrs.get("bytes", 0) for i in named("nnet.lm_logits")
        if spans[i].parent >= 0 and spans[spans[i].parent].name == "nnet.lm_loss_and_grads"
    ]
    m["nnet.logits_mb_per_step"] = statistics.fmean(train_logits) / 1e6 if train_logits else 0.0

    m["slu.finetune.calls"] = len(named("slu.finetune"))
    m["slu.finetune.self_ms"] = self_ms("slu.finetune")
    m["slu.slu_loss_and_grads.self_ms"] = self_ms("slu.slu_loss_and_grads")
    m["slu.evaluate_slu.total_ms"] = total("slu.evaluate_slu")

    m["asrsim.make_noisy_slu_set.total_ms"] = total("asrsim.make_noisy_slu_set")
    m["asrsim.align.calls"] = len(named("asrsim.align"))
    n_ref = attr_sum("asrsim.make_noisy_slu_set", "n_ref")
    m["asrsim.realized_wer"] = attr_sum("asrsim.make_noisy_slu_set", "errors") / n_ref if n_ref else 0.0

    m.update(_phases(spans, named("experiment.run_experiment"), children))
    m["experiment.summarize.total_ms"] = total("experiment.summarize")
    m["textcore.corpus_from_text.total_ms"] = total("textcore.corpus_from_text")
    m["synth.total_ms"] = sum(
        spans[i].ms for i in idx if spans[i].name.startswith("synth.") and outermost(i)
    )
    return m


def _phases(spans, experiments, children) -> dict[str, float]:
    """Split run_experiment's wall time at its direct children: data until
    the first noise call, noise until the first pretrain, pretrain until the
    first fine-tune, fine-tune and evaluate as their own spans, report from
    the last evaluation to the end."""
    out = {f"experiment.phase.{p}_ms": 0.0 for p in PHASES}
    for e in experiments:
        kids = [spans[c] for c in children.get(e, [])]
        first = {}
        for k in kids:
            first.setdefault(k.name, k)
        evals = [k for k in kids if k.name == "slu.evaluate_slu"]
        need = ("asrsim.make_noisy_slu_set", "pretrain.pretrain", "slu.finetune")
        if not all(n in first for n in need) or not evals:
            continue
        root = spans[e]

        def ms(a, b):
            return (b - a) * 1e3

        out["experiment.phase.data_ms"] += ms(root.start, first[need[0]].start)
        out["experiment.phase.noise_ms"] += ms(first[need[0]].start, first[need[1]].start)
        out["experiment.phase.pretrain_ms"] += ms(first[need[1]].start, first[need[2]].start)
        out["experiment.phase.finetune_ms"] += sum(k.ms for k in kids if k.name == "slu.finetune")
        out["experiment.phase.evaluate_ms"] += sum(k.ms for k in evals)
        out["experiment.phase.report_ms"] += ms(evals[-1].end, root.end)
    return out


def combine(per_job: list[dict[str, float]], steps: list[float], overhead: float) -> dict[str, float]:
    """Median of each metric over the traced jobs of one run, plus the
    step-time distribution pooled over all of them."""
    out = {k: statistics.median(d[k] for d in per_job) for k in per_job[0]}
    pct, value = tail(steps)
    out["nnet.train_step_ms.p50"] = statistics.median(steps) if steps else 0.0
    out["nnet.train_step_ms.ptail"] = value
    out["nnet.train_step_ms.ptail_pct"] = pct
    out["nnet.train_step_ms.samples"] = len(steps)
    out["trace.overhead_ratio"] = overhead
    return {k: out[k] for k in PER_LAYER}
