"""Print the memory and time of one LM training step plus its Adam step,
and the memory of validation.

    PYTHONPATH=src python scripts/step_memory.py V [STEPS]

The model is `ModelConfig.desk(V)` (float32, dropout on) and the batch is
fixed and shaped like a `pretrain-v30k` one (T 12-15, 306-334 real
positions, 43-65 predicted): 32 sentences of 5 to 15 ids drawn from the
non-special ids, padded to 15, with 15% of the real positions predicted.
Each step runs the ops of `lm_loss_and_grads` (forward, lm_logits, _ce,
lm_backward, encoder_backward, with the logits freed before the encoder's
backward pass) writing into Adam's gradient buffer, then `step`, as in
`pretrain`, and with numpy's OpenBLAS at one thread, as `pretrain` runs
it. After one warm-up step the script prints:

- `peak`: the `tracemalloc` peak of one step, in MB and as a multiple of
  the parameter bytes (tracemalloc counts numpy's array data);
- `val_peak`: the same for one `evaluate_lm` pass over VAL_BATCHES more
  such batches (batch size B, as `pretrain` validates), after a warm-up pass;
- `minor_faults`: minor page faults per step (`resource.getrusage`), over
  STEPS steps (default 50) run without tracemalloc;
- `step_ms`: the median wall time of those steps and of each op.
  lm_backward is the tied head alone.
"""

from __future__ import annotations

import resource
import sys
import time
import tracemalloc

import numpy as np

from warplm.nnet import (
    ModelConfig, encoder_backward, forward, init_adam, init_model, lm_backward, lm_logits, step,
)
from warplm.nnet.blas import one_blas_thread
from warplm.nnet.encoder import _ce
from warplm.pretrain import evaluate_lm
from warplm.textcore import INS_ID
from warplm.warp import WarpedExample, WarpPlan

B, T, P_PREDICT = 32, 15, 0.15
VAL_BATCHES = 3


def pretrain_batch(vocab_size: int, seed: int = 0):
    """-> (ids, pad_mask, label_ids, predict_mask), each [B, T]: B rows of
    5 to T random non-special ids, right-padded with PAD (id 0)."""
    rng = np.random.default_rng(seed)
    pad = np.arange(T) < rng.integers(5, T + 1, size=B)[:, None]
    pad[0] = True  # the longest row sets T
    ids = np.where(pad, rng.integers(INS_ID + 1, vocab_size, size=(B, T)), 0)
    labels = np.where(pad, rng.integers(INS_ID + 1, vocab_size, size=(B, T)), 0)
    pm = pad & (rng.random((B, T)) < P_PREDICT)
    pm[0, 0] = True
    return ids, pad, labels, pm


def validation_set(vocab_size: int) -> list[WarpedExample]:
    """The rows of VAL_BATCHES batches of `pretrain_batch` (seeds 1, 2, ...)
    as the warped examples `evaluate_lm` reads."""
    examples = []
    for seed in range(1, VAL_BATCHES + 1):
        ids, pad, labels, pm = pretrain_batch(vocab_size, seed)
        for b, n in enumerate(pad.sum(axis=1)):
            row = ids[b, :n].tolist()
            examples.append(WarpedExample(row, labels[b, :n].tolist(), pm[b, :n].tolist(),
                                          row, WarpPlan(int(n), {})))
    return examples


def make_step(vocab_size: int):
    """-> (one-step closure, model, parameter bytes) for a fresh desk model.
    The closure returns the wall time of each op, in seconds."""
    model = init_model(ModelConfig.desk(vocab_size), seed=0)
    adam = init_adam(model.params)
    ids, pad, labels, pm = pretrain_batch(vocab_size)
    drop_rng = np.random.default_rng(1)

    def one_step():
        t = [time.perf_counter()]
        hidden, cache = forward(model, ids, pad, drop_rng)
        t.append(time.perf_counter())
        logits = lm_logits(model, hidden[pm])
        t.append(time.perf_counter())
        _, _, d_logits = _ce(logits, labels[pm], out=logits)
        t.append(time.perf_counter())
        d_rows = lm_backward(model, cache, d_logits, pm, grads=adam.grads)
        t.append(time.perf_counter())
        del logits, d_logits
        encoder_backward(model, cache, d_rows, grads=adam.grads)
        t.append(time.perf_counter())
        step(adam)
        t.append(time.perf_counter())
        return np.diff(t)

    return one_step, model, adam.flat.nbytes


OPS = ("forward", "lm_logits", "_ce", "lm_backward", "encoder_backward", "step")


def timed_steps(one_step, steps: int) -> str:
    """The median ms of a whole step and of each op, over `steps` steps."""
    times = np.array([one_step() for _ in range(steps)]) * 1e3
    ops = " ".join(f"{op} {ms:.2f}" for op, ms in zip(OPS, np.median(times, axis=0)))
    return f"{np.median(times.sum(axis=1)):.2f} median ({ops})"


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: step_memory.py V [STEPS]", file=sys.stderr)
        return 2
    vocab_size = int(argv[0])
    steps = int(argv[1]) if len(argv) > 1 else 50
    one_step, model, param_bytes = make_step(vocab_size)
    val = validation_set(vocab_size)
    with one_blas_thread():
        one_step()  # warm-up: first-touch of Adam's buffers and numpy's caches

        tracemalloc.start()
        one_step()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        evaluate_lm(model, val, B)  # warm-up
        tracemalloc.start()
        evaluate_lm(model, val, B)
        _, val_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step_ms = timed_steps(one_step, steps)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    print(f"V={vocab_size} params={param_bytes / 1e6:.1f} MB steps={steps}")
    print(f"peak {peak / 1e6:.1f} MB = {peak / param_bytes:.2f}x the parameters")
    print(f"val_peak {val_peak / 1e6:.1f} MB = {val_peak / param_bytes:.2f}x the parameters "
          f"(evaluate_lm, {len(val)} sentences)")
    print(f"minor_faults {faults / steps:.0f} per step")
    print(f"step_ms {step_ms}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
