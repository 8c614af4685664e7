"""ASR-style noise: token corruption, Levenshtein alignment, WER, and
transferring IOB slot labels from clean reference text onto noisy output.

Corruption model, applied independently per utterance:
  - before each token (including position 0) an insertion fires with
    probability p_ins and emits a uniform random vocabulary word;
  - each reference token is then deleted with probability p_del, substituted
    with a uniform random word with probability p_sub, else kept.

Alignment uses unit costs. Traceback prefers diagonal (match/substitute)
over deletion over insertion when costs tie, so alignments are
deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

import numpy as np

from .seeding import derive_seed
from .slu import OUTSIDE, TaggedUtterance, iob_repair, save_slu_file
from .textcore import N_SPECIALS, UNK_ID, Vocab, write_json


@dataclass(frozen=True)
class NoiseConfig:
    p_sub: float = 0.0
    p_del: float = 0.0
    p_ins: float = 0.0

    def __post_init__(self):
        for name in ("p_sub", "p_del", "p_ins"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name}={v} outside [0, 1)")
        if self.p_sub + self.p_del >= 1.0:
            raise ValueError("p_sub + p_del must be < 1")

    @classmethod
    def train_val(cls) -> "NoiseConfig":
        """Rates measured on the noisy train/validation transcripts."""
        return cls(p_sub=0.129, p_del=0.024, p_ins=0.033)

    @classmethod
    def test(cls) -> "NoiseConfig":
        """Rates measured on the noisy test transcripts."""
        return cls(p_sub=0.115, p_del=0.015, p_ins=0.029)

    @classmethod
    def clean(cls) -> "NoiseConfig":
        return cls()


class AlignKind(str, enum.Enum):
    MATCH = "match"
    SUB = "sub"
    DEL = "del"
    INS = "ins"


@dataclass(frozen=True)
class AlignmentOp:
    kind: AlignKind
    ref: int | None
    hyp: int | None


def align(ref: list, hyp: list) -> list[AlignmentOp]:
    """Minimal-edit alignment between token sequences (unit costs).

    Returns ops in reference order covering every ref and hyp position
    exactly once. Ties in the traceback resolve MATCH/SUB, then DEL, then
    INS.
    """
    n, m = len(ref), len(hyp)
    # d[i][j]: distance between ref[:i] and hyp[:j]
    prev = list(range(m + 1))
    rows = [prev]
    for i in range(1, n + 1):
        cur = [i]
        ri = ref[i - 1]
        for j in range(1, m + 1):
            # cur[j] = min(sub, dele, ins), without min()'s call
            sub = prev[j - 1] + (ri != hyp[j - 1])
            dele = prev[j] + 1
            ins = cur[j - 1] + 1
            sub = sub if sub < dele else dele
            cur.append(sub if sub < ins else ins)
        rows.append(cur)
        prev = cur
    ops: list[AlignmentOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and rows[i][j] == rows[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            kind = AlignKind.MATCH if ref[i - 1] == hyp[j - 1] else AlignKind.SUB
            ops.append(AlignmentOp(kind, i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and rows[i][j] == rows[i - 1][j] + 1:
            ops.append(AlignmentOp(AlignKind.DEL, i - 1, None))
            i -= 1
        else:
            ops.append(AlignmentOp(AlignKind.INS, None, j - 1))
            j -= 1
    ops.reverse()
    return ops


def edit_distance(ops: list[AlignmentOp]) -> int:
    return sum(op.kind is not AlignKind.MATCH for op in ops)


@dataclass
class AlignmentStats:
    n_ref: int = 0
    n_match: int = 0
    n_sub: int = 0
    n_del: int = 0
    n_ins: int = 0

    def add(self, ops: list[AlignmentOp], n_ref: int) -> None:
        self.n_ref += n_ref
        for op in ops:
            if op.kind is AlignKind.MATCH:
                self.n_match += 1
            elif op.kind is AlignKind.SUB:
                self.n_sub += 1
            elif op.kind is AlignKind.DEL:
                self.n_del += 1
            else:
                self.n_ins += 1

    @property
    def wer(self) -> float:
        if self.n_ref == 0:
            raise ValueError("empty reference")
        return (self.n_sub + self.n_del + self.n_ins) / self.n_ref


def wer(ref: list, hyp: list) -> float:
    """(S + D + I) / len(ref); may exceed 1.0. Errors on an empty ref."""
    if not ref:
        raise ValueError("empty reference")
    return edit_distance(align(ref, hyp)) / len(ref)


def _random_word(rng: np.random.Generator, vocab_size: int) -> int:
    return int(rng.integers(N_SPECIALS, vocab_size))


def corrupt(tokens: list[int], config: NoiseConfig, vocab_size: int,
            rng: np.random.Generator) -> list[int]:
    """Apply the noise model to one utterance. May return an empty list."""
    out: list[int] = []
    for tok in tokens:
        if rng.random() < config.p_ins:
            out.append(_random_word(rng, vocab_size))
        u = rng.random()
        if u < config.p_del:
            continue
        if u < config.p_del + config.p_sub:
            out.append(_random_word(rng, vocab_size))
        else:
            out.append(tok)
    return out


def transfer_labels(
    ref: TaggedUtterance, hyp_tokens: list[int], ops: list[AlignmentOp]
) -> TaggedUtterance:
    """Project ref tags onto hyp through an alignment.

    MATCH/SUB copy the reference tag, inserted tokens get O, deleted
    reference tokens vanish; the result is IOB-repaired (an I- span whose
    B- was deleted becomes a fresh B- span)."""
    tags: list[str | None] = [None] * len(hyp_tokens)
    ri = hi = 0
    for op in ops:
        if op.kind in (AlignKind.MATCH, AlignKind.SUB):
            if op.ref != ri or op.hyp != hi:
                raise ValueError("alignment ops out of order")
            tags[hi] = ref.tags[ri]
            ri += 1
            hi += 1
        elif op.kind is AlignKind.DEL:
            if op.ref != ri:
                raise ValueError("alignment ops out of order")
            ri += 1
        else:
            if op.hyp != hi:
                raise ValueError("alignment ops out of order")
            tags[hi] = OUTSIDE
            hi += 1
    if ri != len(ref.token_ids) or hi != len(hyp_tokens):
        raise ValueError("alignment does not cover both sequences")
    return TaggedUtterance(list(hyp_tokens), iob_repair(tags), ref.intent)


def make_noisy_slu_set(
    utts: list[TaggedUtterance],
    config: NoiseConfig,
    vocab: Vocab,
    seed: int,
) -> tuple[list[TaggedUtterance], dict, AlignmentStats]:
    """Corrupt a tagged dataset; labels follow tokens through alignment.

    A fully-deleted utterance is kept as a single UNK token tagged O so
    dataset size and intent labels are preserved; these are counted in the
    sidecar. Returns (noisy utterances, the alignment sidecar
    {"meta", "utterances"} with one record per utterance, aggregate
    alignment stats)."""
    noisy: list[TaggedUtterance] = []
    records: list[dict] = []
    stats = AlignmentStats()
    for i, u in enumerate(utts):
        rng = np.random.default_rng(derive_seed(seed, 0xA5, i))
        hyp = corrupt(u.token_ids, config, len(vocab), rng)
        fully_deleted = not hyp
        hyp = hyp or [UNK_ID]
        ops = align(u.token_ids, hyp)
        # the UNK stand-in carries no reference tag
        out = (TaggedUtterance(hyp, [OUTSIDE], u.intent) if fully_deleted
               else transfer_labels(u, hyp, ops))
        stats.add(ops, len(u.token_ids))
        noisy.append(out)
        records.append(
            {
                "index": i,
                "fully_deleted": fully_deleted,
                "ops": [asdict(op) for op in ops],
                "ref_len": len(u.token_ids),
                "hyp_len": len(hyp),
            }
        )
    meta = {
        "n_utterances": len(utts),
        "n_fully_deleted": sum(r["fully_deleted"] for r in records),
        "rates": {"p_sub": config.p_sub, "p_del": config.p_del, "p_ins": config.p_ins},
    }
    return noisy, {"meta": meta, "utterances": records}, stats


def save_noisy_slu_set(tsv_path, align_path, noisy_set, vocab: Vocab) -> None:
    """Write a make_noisy_slu_set result: the noisy utterances as an SLU
    file, and the alignment sidecar as JSON {"meta", "wer", "utterances"}."""
    noisy, sidecar, stats = noisy_set
    save_slu_file(tsv_path, noisy, vocab)
    write_json(align_path, {**sidecar, "wer": stats.wer})
