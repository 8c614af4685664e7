"""Adam with bias correction, over one flat buffer of named parameters.

`init_adam` packs a parameter dict into one contiguous buffer (the layout
ZeRO keeps its optimizer state in, Rajbhandari et al. 2020) and points the
dict's entries at views of it, so a step is a fixed handful of in-place
ops over the whole buffer however many parameters there are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import flat_views

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """`flat` holds every parameter back to back in the order of the dict
    given to `init_adam`, which views it. The moments `m` and `v`, the
    buffer `grad` each step copies the gradients into, and the step's
    working space `work` share that layout."""

    lr: float
    flat: np.ndarray = field(repr=False)
    t: int = 0
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)
    work: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.grad = np.empty_like(self.flat)
        self.work = np.empty_like(self.flat)


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
    return AdamState(lr, flat)


def step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One in-place Adam update of `params`, the dict `init_adam` packed.

    A non-finite gradient raises FloatingPointError naming the first such
    parameter in dict order, before any parameter, moment or the step count
    changes. A parameter whose gradient is exactly zero (all moments zero)
    is left bit-identical: m_hat = 0 makes the update exactly 0.0.
    """
    g, tmp, m, v = state.grad, state.work, state.m, state.v
    np.concatenate([grads[name] for name in params], axis=None, out=g)
    t = state.t + 1
    if not np.isfinite(g).all():
        bad = next(name for name in params if not np.isfinite(grads[name]).all())
        raise FloatingPointError(f"divergence: non-finite gradient in {bad} at step {t}")
    state.t = t
    # m = b1 m + (1 - b1) g
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=tmp)
    m += tmp
    # v = b2 v + (1 - b2) g^2
    v *= BETA2
    g *= g
    g *= 1.0 - BETA2
    v += g
    # flat -= lr (m / c1) / (sqrt(v / c2) + eps), c = 1 - beta^t
    np.divide(v, 1.0 - BETA2 ** t, out=g)
    np.sqrt(g, out=g)
    g += EPS
    np.divide(m, 1.0 - BETA1 ** t, out=tmp)
    tmp *= state.lr
    tmp /= g
    state.flat -= tmp
