"""Joint intent classification and IOB slot filling on top of the encoder.

A CLS token is prepended to every utterance; the intent head reads the
hidden state at position 0 and the slot head tags every real token. Loss is
intent cross-entropy plus token-mean slot cross-entropy, weighted 1:1.

Dataset file format (one token per line, utterances separated by a blank
line):

    #intent<TAB>LABEL
    token<TAB>TAG
    token<TAB>TAG
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nnet import EncoderModel, encoder_backward, forward, init_adam, step
from .nnet.blas import one_blas_thread
from .nnet.checkpoint import load_model_checkpoint, save_model
from .nnet.encoder import _ce, pad_rows, zero_grads
from .nnet.model import head_shapes, init_params
from .seeding import derive_seed
from .textcore import CLS_ID, PAD_ID, Vocab, naming

OUTSIDE = "O"

_SEED_HEAD_INIT = 21
_SEED_SHUFFLE = 22
_SEED_DROPOUT = 23
_PREDICT_BATCH = 64


@dataclass
class TaggedUtterance:
    token_ids: list[int]
    tags: list[str]
    intent: str

    def __post_init__(self):
        if len(self.token_ids) != len(self.tags):
            raise ValueError(
                f"{len(self.token_ids)} tokens vs {len(self.tags)} tags"
            )
        if not self.token_ids:
            raise ValueError("empty utterance")


# ---------------------------------------------------------------- IOB tags

def _is_iob_tag(tag: str) -> bool:
    """O, B-<type> or I-<type>, with a non-empty type."""
    return tag == OUTSIDE or (tag[:2] in ("B-", "I-") and len(tag) > 2)


def iob_repair(tags: list[str]) -> list[str]:
    """Promote orphan I-X (one that continues no B-X/I-X) to B-X, which
    makes a sequence of IOB tags valid IOB2."""
    out = []
    prev = OUTSIDE
    for t in tags:
        if t.startswith("I-") and prev not in ("B-" + t[2:], "I-" + t[2:]):
            t = "B-" + t[2:]
        out.append(t)
        prev = t
    return out


def iob_is_valid(tags: list[str]) -> bool:
    """Strict IOB2: every tag is an IOB tag and repair changes nothing."""
    return all(map(_is_iob_tag, tags)) and iob_repair(tags) == list(tags)


def iob_spans(tags: list[str]) -> set[tuple[str, int, int]]:
    """(type, start, end) with inclusive indices, read off the repaired
    sequence: an orphan I-X starts a span (conlleval behaviour)."""
    spans = set()
    start = None
    tags = iob_repair(tags) + [OUTSIDE]
    for i, t in enumerate(tags):
        if t.startswith("I-"):  # after repair, continues the open span
            continue
        if start is not None:
            spans.add((tags[start][2:], start, i - 1))
        start = i if t.startswith("B-") else None
    return spans


# ------------------------------------------------------------- dataset I/O

def save_slu_file(path, utts: list[TaggedUtterance], vocab: Vocab) -> None:
    lines = []
    for u in utts:
        lines.append(f"#intent\t{u.intent}")
        for tid, tag in zip(u.token_ids, u.tags):
            lines.append(f"{vocab.decode_one(tid)}\t{tag}")
        lines.append("")
    Path(path).write_text("\n".join(lines), encoding="utf-8")


def parse_slu_text(text: str, vocab: Vocab) -> list[TaggedUtterance]:
    """The utterances of SLU file text; an error names the line at fault,
    for a malformed utterance the line it starts on."""
    utts: list[TaggedUtterance] = []
    start, intent, toks, tags = None, None, [], []

    def flush():
        nonlocal start, intent, toks, tags
        if start is None:
            return
        if intent is None:
            raise ValueError(f"line {start}: utterance without #intent header")
        if not toks:
            raise ValueError(f"line {start}: utterance with no tokens")
        ids = vocab.encode_tokens([vocab.normalize(t) for t in toks])
        utts.append(TaggedUtterance(ids, list(tags), intent))
        start, intent, toks, tags = None, None, [], []

    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if start is None:
            start = lineno
        if line.startswith("#intent\t"):
            if intent is not None:
                raise ValueError(f"line {lineno}: duplicate #intent header")
            intent = line.split("\t", 1)[1].strip()
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'token<TAB>tag', got {line!r}")
        if not _is_iob_tag(parts[1]):
            raise ValueError(f"line {lineno}: bad IOB2 tag {parts[1]!r}")
        toks.append(parts[0])
        tags.append(parts[1])
    flush()
    return utts


def load_slu_file(path, vocab: Vocab) -> list[TaggedUtterance]:
    """The utterances of an SLU file; a decoding or parse error names the file."""
    with naming(path):
        return parse_slu_text(Path(path).read_text(encoding="utf-8"), vocab)


# ------------------------------------------------------------------ model

@dataclass
class SLUModel(EncoderModel):
    """An encoder whose `params` also hold the intent and slot heads, under
    the names `head_shapes` gives, and the labels those heads score."""

    intent_labels: list[str]
    tag_labels: list[str]

    def __post_init__(self):
        self.intent_to_id = {s: i for i, s in enumerate(self.intent_labels)}
        self.tag_to_id = {s: i for i, s in enumerate(self.tag_labels)}


def label_inventory(utts: list[TaggedUtterance]) -> tuple[list[str], list[str]]:
    intents = sorted({u.intent for u in utts})
    tags = sorted({t for u in utts for t in u.tags} | {OUTSIDE})
    return intents, tags


def init_slu_model(
    encoder: EncoderModel, intent_labels, tag_labels, seed: int = 0
) -> SLUModel:
    rng = np.random.default_rng(derive_seed(seed, _SEED_HEAD_INIT))
    shapes = head_shapes(encoder.config.d_model, len(intent_labels), len(tag_labels))
    return SLUModel(encoder.config, {**encoder.params, **init_params(shapes, rng)},
                    list(intent_labels), list(tag_labels))


def _input_rows(utts: list[TaggedUtterance]) -> list[list[int]]:
    return [[CLS_ID, *u.token_ids] for u in utts]


def count_truncated(utts: list[TaggedUtterance], max_len: int) -> int:
    """How many of `utts` `encode_slu_batch` cuts (CLS takes a position)."""
    rows = _input_rows(utts)
    _, kept = pad_rows(rows, max_len, PAD_ID)
    return int(np.sum(kept.sum(axis=1) < [len(r) for r in rows]))


def encode_slu_batch(model: SLUModel, utts: list[TaggedUtterance]):
    """-> (ids [B,L], pad_mask, intent_ids [B], tag_ids [B,L], tag_mask).

    Position 0 is CLS; tag ids are -1 at CLS and padding. Tags or intents
    absent from the model inventory get id -1 (excluded from the loss)."""
    max_len = model.config.max_len
    ids, pad_mask = pad_rows(_input_rows(utts), max_len, PAD_ID)
    tag_ids, _ = pad_rows([[-1] + [model.tag_to_id.get(t, -1) for t in u.tags]
                           for u in utts], max_len, -1)
    intent_ids = np.array([model.intent_to_id.get(u.intent, -1) for u in utts],
                          dtype=np.int64)
    return ids, pad_mask, intent_ids, tag_ids, tag_ids >= 0


def _heads(model: SLUModel, ids, pad_mask, rows, dropout_rng=None):
    """One encoder pass and both heads, each on the rows it scores: the
    intent head on the CLS position, the slot head where `rows` is true.

    -> (h_cls [B,D], h_rows [R,D], intent_logits [B,I], slot_logits [R,S],
    encoder cache)."""
    hidden, cache = forward(model, ids, pad_mask, dropout_rng)
    h_cls, h_rows = hidden[:, 0], hidden[rows]
    P = model.params
    intent_logits = h_cls @ P["head.intent_w"] + P["head.intent_b"]
    slot_logits = h_rows @ P["head.slot_w"] + P["head.slot_b"]
    return h_cls, h_rows, intent_logits, slot_logits, cache


def _trainable(model: SLUModel, freeze_encoder: bool) -> dict[str, np.ndarray]:
    """The parameters `finetune` trains: the heads alone, or all of them."""
    if freeze_encoder:
        return {k: v for k, v in model.params.items() if k.startswith("head.")}
    return model.params


def slu_loss_and_grads(model: SLUModel, utts, dropout_rng=None, freeze_encoder=False, *,
                       grads=None):
    """Joint loss and gradients over the trained params (the heads', and the
    encoder's unless it is frozen), written into `grads` (default: a fresh
    buffer) and returned with the loss.

    Each head scores only its rows: the intent head the CLS position, the
    slot head the positions whose tag is in the model's inventory."""
    ids, pad_mask, intent_ids, tag_ids, tag_mask = encode_slu_batch(model, utts)
    if (intent_ids < 0).any():
        bad = [u.intent for u in utts if u.intent not in model.intent_to_id]
        raise ValueError(f"intent label not in model inventory: {bad[0]!r}")
    h_cls, h_tag, intent_logits, slot_logits, cache = _heads(
        model, ids, pad_mask, tag_mask, dropout_rng
    )
    P = model.params
    i_loss, _, d_int = _ce(intent_logits, intent_ids, out=intent_logits)
    s_loss, _, d_slot = _ce(slot_logits, tag_ids[tag_mask], out=slot_logits)
    loss = i_loss + s_loss

    grads = zero_grads(_trainable(model, freeze_encoder), grads)
    np.matmul(h_cls.T, d_int, out=grads["head.intent_w"])
    np.add.reduce(d_int, axis=0, out=grads["head.intent_b"])
    np.matmul(h_tag.T, d_slot, out=grads["head.slot_w"])
    np.add.reduce(d_slot, axis=0, out=grads["head.slot_b"])
    if not freeze_encoder:
        d_rows = np.zeros((len(cache["rows"]), h_cls.shape[1]), h_cls.dtype)
        d_rows[tag_mask[pad_mask]] = d_slot @ P["head.slot_w"].T
        d_rows[cache["rows"] % ids.shape[1] == 0] += d_int @ P["head.intent_w"].T  # the CLS rows
        encoder_backward(model, cache, d_rows, freeze_ins=True, grads=grads)
    return float(loss), grads


def slu_predict(
    model: SLUModel, utts: list[TaggedUtterance]
) -> tuple[list[str], list[list[str]]]:
    """Argmax intents and per-token tag sequences (model's inventory)."""
    intents: list[str] = []
    tag_seqs: list[list[str]] = []
    for lo in range(0, len(utts), _PREDICT_BATCH):
        chunk = utts[lo : lo + _PREDICT_BATCH]
        ids, pad_mask, _, _, _ = encode_slu_batch(model, chunk)
        rows = pad_mask.copy()
        rows[:, 0] = False
        _, _, intent_logits, slot_logits, _ = _heads(model, ids, pad_mask, rows)
        best_tags = np.split(np.argmax(slot_logits, axis=-1), np.cumsum(rows.sum(axis=1))[:-1])
        for u, best_int, best_tag in zip(chunk, np.argmax(intent_logits, axis=-1), best_tags):
            intents.append(model.intent_labels[best_int])
            seq = [model.tag_labels[t] for t in best_tag]
            # tokens beyond max_len cannot be tagged; pad with O
            seq.extend([OUTSIDE] * (len(u.token_ids) - len(seq)))
            tag_seqs.append(seq)
    return intents, tag_seqs


# ---------------------------------------------------------------- metrics

def conll_f1(gold_seqs: list[list[str]], pred_seqs: list[list[str]]):
    """Span-level micro P/R/F1; a span counts only on exact
    (type, start, end) match. No gold and no predicted spans is a perfect
    score; otherwise an empty denominator scores 0."""
    if len(gold_seqs) != len(pred_seqs):
        raise ValueError(f"{len(gold_seqs)} gold vs {len(pred_seqs)} predicted")
    tp = n_pred = n_gold = 0
    for g, p in zip(gold_seqs, pred_seqs):
        if len(g) != len(p):
            raise ValueError(f"length mismatch {len(g)} vs {len(p)}")
        gs, ps = iob_spans(g), iob_spans(p)
        tp += len(gs & ps)
        n_pred += len(ps)
        n_gold += len(gs)
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    prec = tp / n_pred if n_pred else 0.0
    rec = tp / n_gold if n_gold else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def intent_accuracy(gold: list[str], pred: list[str]) -> float:
    if len(gold) != len(pred):
        raise ValueError(f"{len(gold)} gold vs {len(pred)} predicted")
    if not gold:
        raise ValueError("empty evaluation set")
    return sum(g == p for g, p in zip(gold, pred)) / len(gold)


def joint_accuracy(gold_intents, pred_intents, gold_tags, pred_tags) -> float:
    """Fraction of utterances with the intent and every token's tag correct
    (exact tag-sequence match, so joint <= both intent and tag accuracy)."""
    if not (len(gold_intents) == len(pred_intents) == len(gold_tags) == len(pred_tags)):
        raise ValueError("mismatched prediction lists")
    if not gold_intents:
        raise ValueError("empty evaluation set")
    ok = 0
    for gi, pi, gt, pt in zip(gold_intents, pred_intents, gold_tags, pred_tags):
        ok += gi == pi and list(gt) == list(pt)
    return ok / len(gold_intents)


@dataclass
class SLUMetrics:
    intent_accuracy: float
    slot_precision: float
    slot_recall: float
    slot_f1: float
    joint_accuracy: float


def evaluate_slu(model: SLUModel, utts: list[TaggedUtterance]) -> SLUMetrics:
    pred_intents, pred_tags = slu_predict(model, utts)
    gold_intents = [u.intent for u in utts]
    gold_tags = [u.tags for u in utts]
    p, r, f1 = conll_f1(gold_tags, pred_tags)
    return SLUMetrics(
        intent_accuracy=intent_accuracy(gold_intents, pred_intents),
        slot_precision=p,
        slot_recall=r,
        slot_f1=f1,
        joint_accuracy=joint_accuracy(gold_intents, pred_intents, gold_tags, pred_tags),
    )


# --------------------------------------------------------------- finetune

@dataclass
class FinetuneEpoch:
    epoch: int
    train_loss: float
    intent_accuracy: float
    slot_f1: float
    joint_accuracy: float


def kept_epoch(history: list[FinetuneEpoch]) -> FinetuneEpoch:
    """The epoch whose weights `finetune` keeps: best validation joint
    accuracy, latest epoch on ties (equal-joint snapshots prefer the
    most-trained weights)."""
    return max(reversed(history), key=lambda r: r.joint_accuracy)


def finetune(
    encoder: EncoderModel,
    train_utts: list[TaggedUtterance],
    val_utts: list[TaggedUtterance],
    epochs: int,
    batch_size: int = 16,
    lr: float = 5e-4,
    seed: int = 0,
    freeze_encoder: bool = False,
    log=None,
) -> tuple[SLUModel, list[FinetuneEpoch]]:
    """Fine-tune a pretrained encoder, which is never written, with fresh heads.

    Keeps the parameters from `kept_epoch(history)` in Adam's flat buffer,
    which the returned model views; a frozen fine-tune's model shares the
    encoder's arrays and only reads them. Runs at one OpenBLAS thread, as
    `pretrain` does, so the bytes do not depend on the BLAS thread count."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not train_utts:
        raise ValueError("empty training set")
    if not val_utts:
        raise ValueError("empty validation set")
    intents, tags = label_inventory(train_utts + val_utts)
    model = init_slu_model(encoder, intents, tags, seed)
    trainable = _trainable(model, freeze_encoder)
    adam = init_adam(trainable, lr=lr)
    model.params.update(trainable)  # the views, where `trainable` is the heads alone
    history: list[FinetuneEpoch] = []
    with one_blas_thread():
        for epoch in range(1, epochs + 1):
            order = np.random.default_rng(
                derive_seed(seed, _SEED_SHUFFLE, epoch)
            ).permutation(len(train_utts))
            drop_rng = np.random.default_rng(derive_seed(seed, _SEED_DROPOUT, epoch))
            loss_sum, n_batches = 0.0, 0
            for lo in range(0, len(order), batch_size):
                chunk = [train_utts[j] for j in order[lo : lo + batch_size]]
                loss, _ = slu_loss_and_grads(
                    model, chunk, dropout_rng=drop_rng, freeze_encoder=freeze_encoder,
                    grads=adam.grads,
                )
                if not math.isfinite(loss):
                    raise FloatingPointError(f"divergence: loss {loss} at epoch {epoch}")
                step(adam)
                loss_sum += loss
                n_batches += 1
            m = evaluate_slu(model, val_utts)
            row = FinetuneEpoch(
                epoch, loss_sum / max(1, n_batches), m.intent_accuracy, m.slot_f1,
                m.joint_accuracy,
            )
            history.append(row)
            if log is not None:
                log(row)
            if kept_epoch(history) is row:
                snap = adam.flat.copy()
    np.copyto(adam.flat, snap)
    return model, history


# ------------------------------------------------------ SLU checkpointing

def save_slu(path, model: SLUModel, vocab_hash: str) -> None:
    save_model(path, "slu", model.config, vocab_hash, model.params,
               intent_labels=model.intent_labels, tag_labels=model.tag_labels)


def load_slu(path, expect_vocab_hash: str | None = None) -> tuple[SLUModel, dict]:
    """-> (SLUModel, header). Each label list must be non-empty and
    distinct, of intent strings and of IOB2 tags."""
    header, config, params = load_model_checkpoint(path, ("slu",), expect_vocab_hash)
    with naming(path):
        for key, what, ok in (("intent_labels", "strings", lambda s: isinstance(s, str)),
                              ("tag_labels", "IOB2 tags",
                               lambda s: isinstance(s, str) and _is_iob_tag(s))):
            labels = header[key]
            if not labels or not all(map(ok, labels)) or len(set(labels)) < len(labels):
                raise ValueError(f"checkpoint {key} must be non-empty distinct {what}")
    return SLUModel(config, params, header["intent_labels"], header["tag_labels"]), header
