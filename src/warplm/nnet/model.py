"""Transformer encoder: configuration, parameter layout, initialization.

The model is a plain numpy parameter dictionary plus a config. Input and
output token embeddings are tied (one [V, d_model] matrix used for both),
with a separate output bias vector. Training points the dictionary's
entries at views of one flat buffer (`flat_views`, `adam.init_adam`).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ..seeding import derive_seed

INIT_STD = 0.02


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 64
    dropout: float = 0.1

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.dropout, bool) or not isinstance(self.dropout, numbers.Real):
            raise ValueError(f"dropout must be a real number, got {self.dropout!r}")
        if self.vocab_size < 6:
            raise ValueError("vocab_size must cover the special tokens")
        for name in ("d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout {self.dropout} outside [0, 1)")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @classmethod
    def desk(cls, vocab_size: int, **overrides) -> "ModelConfig":
        """Small preset that trains in seconds on a CPU: the field defaults."""
        return cls(vocab_size=vocab_size, **overrides)

    @classmethod
    def base(cls, vocab_size: int = 30000, **overrides) -> "ModelConfig":
        """Full-scale preset (~53.5M parameters at vocab 30k)."""
        kw = dict(d_model=512, n_layers=12, n_heads=16, d_ff=2048, max_len=512)
        kw.update(overrides)
        return cls(vocab_size=vocab_size, **kw)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every trainable tensor, in a stable order."""
    V, D, F = config.vocab_size, config.d_model, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (V, D),
        "pos_emb": (config.max_len, D),
    }
    for l in range(config.n_layers):
        p = f"layers.{l}."
        shapes[p + "ln1.g"] = (D,)
        shapes[p + "ln1.b"] = (D,)
        # no "bk": a key bias shifts each query's scores by one constant, which softmax ignores
        for nm in ("wq", "bq", "wk", "wv", "bv", "wo", "bo"):
            shapes[p + "attn." + nm] = (D, D) if nm[0] == "w" else (D,)
        shapes[p + "ln2.g"] = (D,)
        shapes[p + "ln2.b"] = (D,)
        shapes[p + "ffn.w1"] = (D, F)
        shapes[p + "ffn.b1"] = (F,)
        shapes[p + "ffn.w2"] = (F, D)
        shapes[p + "ffn.b2"] = (D,)
    shapes["final_ln.g"] = (D,)
    shapes["final_ln.b"] = (D,)
    shapes["out_bias"] = (V,)
    return shapes


def head_shapes(d_model: int, n_intents: int, n_tags: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of the SLU intent and slot heads (stored as "head.<name>")."""
    return {
        "intent_w": (d_model, n_intents),
        "intent_b": (n_intents,),
        "slot_w": (d_model, n_tags),
        "slot_b": (n_tags,),
    }


def flat_views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Name -> view of the 1-d `flat`, shaped as `like`'s arrays and laid
    back to back in its order."""
    views, lo = {}, 0
    for name, p in like.items():
        views[name] = flat[lo : lo + p.size].reshape(p.shape)
        lo += p.size
    return views


def param_count(config: ModelConfig) -> int:
    """Total trainable scalars (embeddings tied, counted once)."""
    return sum(int(np.prod(s)) for s in param_shapes(config).values())


@dataclass
class EncoderModel:
    config: ModelConfig
    params: dict[str, np.ndarray] = field(repr=False)

    def copy(self) -> "EncoderModel":
        return EncoderModel(self.config, {k: v.copy() for k, v in self.params.items()})

    def astype(self, dtype) -> "EncoderModel":
        return EncoderModel(
            self.config, {k: v.astype(dtype) for k, v in self.params.items()}
        )


def init_params(shapes: dict[str, tuple], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """float32 tensors for `shapes`, drawn in its order: matrices ~
    N(0, INIT_STD^2) from `rng`, layer-norm gains (".g") 1, other vectors 0."""
    return {
        name: rng.normal(0.0, INIT_STD, size=shape).astype(np.float32) if len(shape) == 2
        else np.full(shape, float(name.endswith(".g")), np.float32)
        for name, shape in shapes.items()
    }


def init_model(config: ModelConfig, seed: int = 0) -> EncoderModel:
    """The encoder's parameters by `init_params`, drawn from `seed`."""
    rng = np.random.default_rng(derive_seed(seed, 0xE0))
    return EncoderModel(config, init_params(param_shapes(config), rng))
