"""Adam with bias correction, over named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def _param_dict(model_or_params) -> dict[str, np.ndarray]:
    return getattr(model_or_params, "params", model_or_params)


@dataclass
class AdamState:
    lr: float = 1e-3
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, repr=False)


def init_adam(model_or_params, lr: float = 1e-3) -> AdamState:
    params = _param_dict(model_or_params)
    return AdamState(
        lr=lr, t=0,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def step(model_or_params, grads: dict[str, np.ndarray], state: AdamState):
    """One in-place Adam update. Returns the model/params it was given.

    A parameter whose gradient is exactly zero (all moments zero) is left
    bit-identical: m_hat = 0 makes the update exactly 0.0.
    """
    params = _param_dict(model_or_params)
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
    return model_or_params
