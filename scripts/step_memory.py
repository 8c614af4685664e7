"""Print the memory and time of one LM training step plus its Adam step.

    PYTHONPATH=src python scripts/step_memory.py V [STEPS]

The model is `ModelConfig.desk(V)` (float32, dropout on) and the batch is
fixed and shaped like a `pretrain-v30k` one (T 12-15, 306-334 real
positions, 43-65 predicted): 32 sentences of 5 to 15 ids drawn from the
non-special ids, padded to 15, with 15% of the real positions predicted.
Each step is `lm_loss_and_grads` writing into Adam's gradient buffer, then
`step`, as in `pretrain`. After one warm-up step the script prints three
lines:

- `peak`: the `tracemalloc` peak of one step, in MB and as a multiple of
  the parameter bytes (tracemalloc counts numpy's array data);
- `minor_faults`: minor page faults per step (`resource.getrusage`), over
  STEPS steps (default 50) run without tracemalloc;
- `step_ms`: the median wall time of those steps.

Set OPENBLAS_NUM_THREADS=1 to time it as the benchmark runs.
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

from warplm.nnet import ModelConfig, init_adam, init_model, lm_loss_and_grads, step
from warplm.textcore import INS_ID

B, T, P_PREDICT = 32, 15, 0.15


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


def make_step(vocab_size: int):
    """-> (one-step closure, parameter bytes) for a fresh desk model."""
    model = init_model(ModelConfig.desk(vocab_size), seed=0)
    adam = init_adam(model.params)
    ids, pad, labels, pm = pretrain_batch(vocab_size)
    drop_rng = np.random.default_rng(1)

    def one_step():
        _, _, _, grads = lm_loss_and_grads(model, ids, pad, labels, pm,
                                           dropout_rng=drop_rng, grads=adam.grads)
        step(model.params, grads, adam)

    return one_step, adam.flat.nbytes


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print("usage: step_memory.py V [STEPS]", file=sys.stderr)
        return 2
    vocab_size = int(argv[0])
    steps = int(argv[1]) if len(argv) > 1 else 50
    one_step, param_bytes = make_step(vocab_size)
    one_step()  # warm-up: first-touch of Adam's buffers and numpy's caches

    tracemalloc.start()
    one_step()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        t0 = time.perf_counter()
        one_step()
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    print(f"V={vocab_size} params={param_bytes / 1e6:.1f} MB steps={steps}")
    print(f"peak {peak / 1e6:.1f} MB = {peak / param_bytes:.2f}x the parameters")
    print(f"minor_faults {faults / steps:.0f} per step")
    print(f"step_ms {statistics.median(times) * 1e3:.2f} median")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
