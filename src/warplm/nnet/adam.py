"""Adam with bias correction, over one flat buffer of named parameters.

`init_adam` packs a parameter dict into one contiguous buffer (the layout
ZeRO keeps its optimizer state in, Rajbhandari et al. 2020) and points the
dict's entries at views of it. The gradients share that layout: `grads`
views `AdamState.grad`, and a training step hands it to the backward pass,
which writes its gradients there; `step` reads them there and nowhere else,
so a step copies no gradient.

Three buffers of the parameter size sit beside the parameters: the moments
`m`, `v` and the gradient `grad`. A step streams them once, in blocks of
BLOCK elements (one block of each buffer fits in a 2 MiB L2 cache), with
two scratch blocks (`work`) for g^2, the denominator and the update. It
reads the gradient and never writes it, so the gradients a step used are
still there after it.

A step first checks, block by block, that the whole gradient is finite,
and only then updates any block, so a non-finite gradient changes nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import flat_views

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
BLOCK = 1 << 16


@dataclass
class AdamState:
    """`flat` holds every parameter back to back in the order of the dict
    given to `init_adam`, which views it. The moments `m` and `v` and the
    gradient buffer `grad` share that layout; `grads` views `grad` under
    the parameters' names. `work` is two blocks of scratch."""

    lr: float
    flat: np.ndarray = field(repr=False)
    t: int = 0
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)
    grads: dict[str, np.ndarray] = field(init=False, repr=False, default_factory=dict)
    work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.grad = np.zeros_like(self.flat)
        self.work = np.empty((2, min(BLOCK, self.flat.size)), self.flat.dtype)


def init_adam(params: dict[str, np.ndarray], lr: float = 1e-3) -> AdamState:
    """Pack `params` into one buffer, point each of its entries at a view
    of it, and return zero moments over it. Raises ValueError for a
    negative or non-finite learning rate, so no step runs with one, and
    for arrays of more than one dtype, which one buffer cannot keep."""
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    dtypes = sorted({p.dtype.name for p in params.values()})
    if len(dtypes) > 1:
        raise ValueError(f"parameters must share one dtype, got {' and '.join(dtypes)}")
    flat = np.concatenate(list(params.values()), axis=None)
    params.update(flat_views(flat, params))
    state = AdamState(lr, flat)
    state.grads = flat_views(state.grad, params)
    return state


def step(state: AdamState) -> None:
    """One in-place Adam update of the parameters `init_adam` packed, from
    the gradients the caller wrote into `state.grads`.

    A non-finite gradient raises FloatingPointError naming the first such
    parameter in dict order, before any parameter, moment or the step count
    changes. A parameter whose gradient is exactly zero (all moments zero)
    is left bit-identical: m_hat = 0 makes the update exactly 0.0.
    """
    g = state.grad
    t = state.t + 1
    if not all(np.logical_and.reduce(np.isfinite(g[a : a + BLOCK]))
               for a in range(0, g.size, BLOCK)):
        bad = next(name for name, gp in state.grads.items() if not np.isfinite(gp).all())
        raise FloatingPointError(f"divergence: non-finite gradient in {bad} at step {t}")
    state.t = t
    c1, c2, lr = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t, state.lr
    for a in range(0, g.size, BLOCK):
        gb, m, v, p = (x[a : a + BLOCK] for x in (g, state.m, state.v, state.flat))
        den, upd = state.work[:, : len(gb)]
        # m = b1 m + (1 - b1) g
        m *= BETA1
        m += np.multiply(gb, 1.0 - BETA1, out=upd)
        # v = b2 v + (1 - b2) g^2
        v *= BETA2
        np.multiply(gb, gb, out=den)
        den *= 1.0 - BETA2
        v += den
        # p -= lr (m / c1) / (sqrt(v / c2) + eps), c = 1 - beta^t
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += EPS
        np.divide(m, c1, out=upd)
        upd *= lr
        upd /= den
        p -= upd
