"""Sequence warping: corruption plans and their application.

A plan assigns at most one operation per original position:

    MASK    replace the token with the mask token, predict the original
    KEEP    leave the token, still predict it
    RAND    replace with a random token, predict the original
    INSERT  insert a random token before this position, labeled INS
    DROP    delete the token; the next token's label becomes the deleted token

INSERT and DROP change sequence length, so labels live on the *warped*
sequence. Two plan shapes are illegal because they would give one warped
position two labels: any operation at the position right after a DROP, and a
DROP at the final position (its label would have no carrier). `repair_plan`
removes both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .seeding import derive_seed
from .textcore import INS_ID, MASK_ID, N_SPECIALS, PAD_ID, UNK_ID, Vocab


class WarpOp(enum.Enum):
    MASK = "MASK"
    KEEP = "KEEP"
    RAND = "RAND"
    INSERT = "INSERT"
    DROP = "DROP"


# Fixed order for sampling buckets; changing it changes RNG streams.
OP_ORDER = (WarpOp.MASK, WarpOp.KEEP, WarpOp.RAND, WarpOp.INSERT, WarpOp.DROP)

IGNORE_LABEL = PAD_ID  # label filler at positions with predict_mask false


MLM_PROPORTIONS = {
    WarpOp.MASK: 0.8,
    WarpOp.KEEP: 0.1,
    WarpOp.RAND: 0.1,
    WarpOp.INSERT: 0.0,
    WarpOp.DROP: 0.0,
}

WLM_PROPORTIONS = {
    WarpOp.MASK: 0.6,
    WarpOp.KEEP: 0.1,
    WarpOp.RAND: 0.1,
    WarpOp.INSERT: 0.1,
    WarpOp.DROP: 0.1,
}

# The pretraining objectives, each its op split among selected positions,
# in the experiment matrix's order.
OBJECTIVES = {"wlm": WLM_PROPORTIONS, "mlm": MLM_PROPORTIONS}


@dataclass(frozen=True)
class WarpConfig:
    """A pretraining objective and the per-position selection probability."""

    objective: str = "wlm"
    p_select: float = 0.15

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r} "
                             f"(expected one of {', '.join(OBJECTIVES)})")
        if not 0.0 <= self.p_select <= 1.0:
            raise ValueError("p_select must be in [0, 1]")

    @property
    def proportions(self) -> dict[WarpOp, float]:
        """The op split among selected positions."""
        return OBJECTIVES[self.objective]

    @classmethod
    def mlm(cls) -> "WarpConfig":
        return cls("mlm")

    @classmethod
    def wlm(cls) -> "WarpConfig":
        return cls("wlm")


@dataclass
class WarpPlan:
    """Op assignment over original positions."""

    seq_len: int
    ops: dict[int, WarpOp]

    def __post_init__(self):
        if self.seq_len < 0:
            raise ValueError("seq_len must be >= 0")
        for i in self.ops:
            if not 0 <= i < self.seq_len:
                raise ValueError(f"op position {i} outside sequence of length {self.seq_len}")


@dataclass
class WarpedExample:
    """Warped input with labels and prediction flags aligned 1:1 to it."""

    input_ids: list[int]
    label_ids: list[int]
    predict_mask: list[bool]
    original_ids: list[int]
    plan: WarpPlan


def _repaired_ops(seq_len: int, ops: dict[int, WarpOp]) -> dict[int, WarpOp]:
    """The legality rule, as one deterministic left-to-right pass: the op
    after a DROP is removed (DROP wins over the later op), and a DROP at the
    final position becomes MASK since no successor could carry its label.
    Only DROP positions are visited: only a DROP still in place removes."""
    out = dict(ops)
    for i in sorted([i for i, op in ops.items() if op is WarpOp.DROP]):
        if i in out:
            out.pop(i + 1, None)
    if out.get(seq_len - 1) is WarpOp.DROP:
        out[seq_len - 1] = WarpOp.MASK
    return out


def is_legal(plan: WarpPlan) -> bool:
    """True iff repair leaves the plan unchanged."""
    return _repaired_ops(plan.seq_len, plan.ops) == plan.ops


def repair_plan(plan: WarpPlan) -> WarpPlan:
    """Make a plan legal (see `_repaired_ops`). Idempotent."""
    return WarpPlan(plan.seq_len, _repaired_ops(plan.seq_len, plan.ops))


def sample_raw_plan(seq_len: int, config: WarpConfig, seed: int) -> WarpPlan:
    """Plan as sampled, before legality repair.

    Each position is selected independently with p_select (Bernoulli, not an
    exact count); selected positions draw an op from the configured split.
    """
    if seq_len < 0:
        raise ValueError("seq_len must be >= 0")
    rng = np.random.default_rng(seed)
    ops: dict[int, WarpOp] = {}
    if seq_len == 0 or config.p_select == 0.0:
        return WarpPlan(seq_len, ops)
    selected = np.flatnonzero(rng.random(seq_len) < config.p_select)
    if selected.size:
        cum = np.cumsum([config.proportions[op] for op in OP_ORDER])
        draws = rng.random(selected.size)
        buckets = np.minimum(np.searchsorted(cum, draws, side="right"), len(OP_ORDER) - 1)
        ops = {int(i): OP_ORDER[int(b)] for i, b in zip(selected, buckets)}
    return WarpPlan(seq_len, ops)


def sample_plan(seq_len: int, config: WarpConfig, seed: int) -> WarpPlan:
    """Sample a plan and repair it; deterministic given the seed."""
    return repair_plan(sample_raw_plan(seq_len, config, seed))


def apply_plan(original_ids, plan: WarpPlan, vocab: Vocab, seed: int) -> WarpedExample:
    """Apply a legal plan by editing the original sequence at its op positions.

    Random replacement/insertion tokens are drawn uniformly over non-special
    ids, one per INSERT and RAND from left to right (a RAND draw may
    coincide with the original token). UNK is an ordinary token here, so
    out-of-vocabulary words can be warped and predicted; the other special
    ids are rejected.
    """
    original_ids = [int(x) for x in original_ids]
    if plan.seq_len != len(original_ids):
        raise ValueError(
            f"plan length {plan.seq_len} does not match sequence length {len(original_ids)}"
        )
    if not is_legal(plan):
        raise ValueError("illegal warp plan")
    if any(x < N_SPECIALS and x != UNK_ID for x in original_ids):
        raise ValueError("original_ids must not contain special ids other than UNK")
    ops = sorted(plan.ops.items())
    n_draws = sum(op in (WarpOp.INSERT, WarpOp.RAND) for _, op in ops)
    if n_draws and len(vocab) <= N_SPECIALS:
        raise ValueError("vocab has no non-special tokens to draw from")
    rng = np.random.default_rng(seed)
    draws = [int(rng.integers(N_SPECIALS, len(vocab))) for _ in range(n_draws)]

    input_ids = list(original_ids)
    label_ids = [IGNORE_LABEL] * len(input_ids)
    predict = [False] * len(input_ids)
    # Right to left, so an edit never shifts a position still to be edited.
    for i, op in reversed(ops):
        if op is WarpOp.INSERT:
            input_ids.insert(i, draws.pop())
            label_ids.insert(i, INS_ID)
            predict.insert(i, True)
            continue
        if op is WarpOp.DROP:
            # A legal plan leaves i+1 untouched, so the token that moves into
            # i is the unwarped, unlabelled successor; it takes the label.
            del input_ids[i], label_ids[i], predict[i]
        elif op is WarpOp.MASK:
            input_ids[i] = MASK_ID
        elif op is WarpOp.RAND:
            input_ids[i] = draws.pop()
        label_ids[i], predict[i] = original_ids[i], True
    return WarpedExample(input_ids, label_ids, predict, original_ids, plan)


def warp(original_ids, config: WarpConfig, vocab: Vocab, seed: int) -> WarpedExample:
    """Sample a plan for the sequence and apply it."""
    plan = sample_plan(len(original_ids), config, seed)
    return apply_plan(original_ids, plan, vocab, derive_seed(seed, 1))


def render_example(example: WarpedExample, vocab: Vocab) -> str:
    """Aligned text rendering (original / ops / input / label / predict)."""
    inputs = [vocab.id_to_token[t] for t in example.input_ids]
    labels = [
        vocab.id_to_token[l] if p else "."
        for l, p in zip(example.label_ids, example.predict_mask)
    ]
    flags = ["*" if p else "-" for p in example.predict_mask]
    widths = [max(len(a), len(b), 1) for a, b in zip(inputs, labels)]
    rows = [
        ("original", [vocab.id_to_token[t] for t in example.original_ids]),
        ("ops", [f"{i}:{op.value}" for i, op in sorted(example.plan.ops.items())] or ["(none)"]),
        ("input", [s.ljust(w) for s, w in zip(inputs, widths)]),
        ("label", [s.ljust(w) for s, w in zip(labels, widths)]),
        ("predict", [s.ljust(w) for s, w in zip(flags, widths)]),
    ]
    return "\n".join(f"{name:<9} {' '.join(cells).rstrip()}" for name, cells in rows)
