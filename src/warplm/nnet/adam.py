"""Adam with bias correction, over named parameter dicts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    lr: float = 1e-3
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, repr=False)


def init_adam(params: dict[str, np.ndarray], lr: float = 1e-3) -> AdamState:
    """Zero moments for `params`. Raises ValueError for a negative or
    non-finite learning rate, so no step runs with one."""
    if not (math.isfinite(lr) and lr >= 0.0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")
    return AdamState(
        lr=lr, t=0,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One in-place Adam update of `params`.

    A parameter whose gradient is exactly zero (all moments zero) is left
    bit-identical: m_hat = 0 makes the update exactly 0.0.
    """
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"divergence: non-finite gradient in {name} at step {state.t}"
            )
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
