"""Print how far two checkpoints' tensors are apart, one line per tensor.

    PYTHONPATH=src python scripts/ckpt_drift.py A.ckpt B.ckpt

Both files are read through `nnet.checkpoint.load_model_checkpoint` (kind
"encoder" or "slu"), so each is checked as the CLI checks it. For every
tensor the line gives the number of elements that differ, the max |A - B|
and the max relative difference |A - B| / max(|A|, |B|) over its elements
(0 where both are 0). A last line gives the worst of each over all tensors.
The tensor names and shapes of the two files must match; otherwise, or if a
file does not load, the script prints one `error:` line and exits 2.
"""

from __future__ import annotations

import sys

import numpy as np

from warplm.nnet.checkpoint import load_model_checkpoint


def drift(a: np.ndarray, b: np.ndarray) -> tuple[int, float, float]:
    """-> (elements that differ, max |a - b|, max |a - b| / max(|a|, |b|))."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    diff = np.abs(a - b)
    size = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, size, out=np.zeros_like(diff), where=size > 0)
    return int(np.count_nonzero(a != b)), float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def report(path_a: str, path_b: str) -> list[str]:
    _, _, pa = load_model_checkpoint(path_a, ("encoder", "slu"))
    _, _, pb = load_model_checkpoint(path_b, ("encoder", "slu"))
    if {k: v.shape for k, v in pa.items()} != {k: v.shape for k, v in pb.items()}:
        raise ValueError(f"{path_a} and {path_b} hold different tensor names or shapes")
    lines = [f"{'tensor':<28} {'differ':>13} {'max_abs':>10} {'max_rel':>10}"]
    worst_abs = worst_rel = 0.0
    for name in pa:
        n, d_abs, d_rel = drift(pa[name], pb[name])
        worst_abs, worst_rel = max(worst_abs, d_abs), max(worst_rel, d_rel)
        lines.append(f"{name:<28} {f'{n}/{pa[name].size}':>13} {d_abs:10.3g} {d_rel:10.3g}")
    lines.append(f"{'all':<28} {'':>13} {worst_abs:10.3g} {worst_rel:10.3g}")
    return lines


def cli(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: ckpt_drift.py A.ckpt B.ckpt", file=sys.stderr)
        return 2
    try:
        lines = report(*argv)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
