"""Pretraining loop: warp sentences, batch them, optimize the encoder.

Determinism contract: with a fixed seed the whole run is reproducible.
Training warps are re-drawn each epoch (seed derived from run seed, epoch,
sentence index); validation warps are drawn once from the run seed, before
the first step, and kept fixed so perplexity is comparable across epochs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nnet import (
    EncoderModel,
    ModelConfig,
    forward,
    init_adam,
    init_model,
    lm_logits,
    lm_loss,
    lm_loss_and_grads,
    pad_rows,
    step,
)
from .nnet.blas import one_blas_thread
from .seeding import derive_seed
from .textcore import PAD_ID, Vocab
from .warp import WarpConfig, WarpedExample, warp

# tags for seed derivation, so distinct purposes use distinct streams
_SEED_INIT = 11
_SEED_SHUFFLE = 12
_SEED_TRAIN_WARP = 13
_SEED_VAL_WARP = 14
_SEED_DROPOUT = 15

VAL_FRACTION = 0.1  # corpus share held out for validation: run_experiment's, and the CLI's default


def pad_batch(examples: list[WarpedExample], max_len: int):
    """Stack warped examples into (input_ids, pad_mask, label_ids,
    predict_mask), right-padded with PAD and truncated at max_len."""
    ids, pad_mask = pad_rows([ex.input_ids for ex in examples], max_len, PAD_ID)
    labels, _ = pad_rows([ex.label_ids for ex in examples], max_len, PAD_ID)
    pred_mask, _ = pad_rows([ex.predict_mask for ex in examples], max_len, False, bool)
    return ids, pad_mask, labels, pred_mask


def split_validation(sentences: list, val_fraction: float) -> tuple[list, list]:
    """-> (train, val): the first max(1, int(n * val_fraction)) sentences
    are held out for validation; val_fraction must lie in (0, 1)."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n_val = max(1, int(len(sentences) * val_fraction))
    return sentences[n_val:], sentences[:n_val]


def _warp_corpus(sentences, warp_cfg, vocab, base_seed, tag):
    return [
        warp(s, warp_cfg, vocab, derive_seed(base_seed, tag, i))
        for i, s in enumerate(sentences)
    ]


def validation_warps(
    sentences: list[list[int]],
    warp_cfg: WarpConfig,
    vocab: Vocab,
    seed: int,
    max_len: int,
) -> list[WarpedExample]:
    """The fixed warps `evaluate_lm` scores, drawn from `seed` alone.
    Raises ValueError if none of them predicts a position within max_len."""
    examples = _warp_corpus(sentences, warp_cfg, vocab, seed, _SEED_VAL_WARP)
    flags, _ = pad_rows([ex.predict_mask for ex in examples], max_len, False, bool)
    if not flags.any():
        raise ValueError("the validation warps predict no position "
                         "(the validation sentences are too few or too short)")
    return examples


def evaluate_lm(model: EncoderModel, examples: list[WarpedExample], batch_size: int = 64):
    """Corpus-level (perplexity, accuracy) over all predicted positions of
    the warped `examples`. A perplexity beyond the float range (mean NLL
    above about 709) raises FloatingPointError."""
    total_nll = 0.0
    total_correct = 0.0
    total_pred = 0
    for lo in range(0, len(examples), batch_size):
        chunk = examples[lo : lo + batch_size]
        ids, pad_mask, labels, pm = pad_batch(chunk, model.config.max_len)
        if not pm.any():
            continue
        hidden = forward(model, ids, pad_mask)[0]  # the cache is not kept into the next batch
        loss, acc, n_pred = lm_loss(lm_logits(model, hidden[pm]), labels, pm)
        total_nll += loss * n_pred
        total_correct += acc * n_pred
        total_pred += n_pred
    if total_pred == 0:
        raise ValueError("no predictions in batch")
    mean_nll = total_nll / total_pred
    try:
        perplexity = math.exp(mean_nll)
    except OverflowError:
        raise FloatingPointError(f"divergence: validation mean NLL {mean_nll:.1f} "
                                 "overflows the perplexity") from None
    return float(perplexity), float(total_correct / total_pred)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_perplexity: float
    val_accuracy: float


def pretrain(
    train_sentences: list[list[int]],
    val_sentences: list[list[int]],
    vocab: Vocab,
    model_cfg: ModelConfig,
    warp_cfg: WarpConfig,
    epochs: int,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
    log=None,
) -> tuple[EncoderModel, list[EpochStats]]:
    """Train from scratch; returns the final model and per-epoch stats.

    Batches that end up with zero predicted positions are skipped. The
    [INS] embedding row is frozen throughout (see nnet.encoder). With
    epochs=0 the model is returned as initialized. Otherwise validation
    warps that predict nothing raise ValueError before the first step.

    Training and evaluation run with numpy's OpenBLAS at one thread (the
    old count is restored on return), so the bytes do not depend on the
    BLAS thread count (nnet.blas).
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not train_sentences:
        raise ValueError("empty corpus")
    if not val_sentences:
        raise ValueError("empty validation corpus")
    val_examples = validation_warps(val_sentences, warp_cfg, vocab,
                                    derive_seed(seed, _SEED_VAL_WARP),
                                    model_cfg.max_len) if epochs else []
    model = init_model(model_cfg, derive_seed(seed, _SEED_INIT))
    adam = init_adam(model.params, lr=lr)
    history: list[EpochStats] = []
    with one_blas_thread():
        for epoch in range(1, epochs + 1):
            examples = _warp_corpus(
                train_sentences, warp_cfg, vocab, derive_seed(seed, _SEED_TRAIN_WARP, epoch), epoch
            )
            order = np.random.default_rng(
                derive_seed(seed, _SEED_SHUFFLE, epoch)
            ).permutation(len(examples))
            drop_rng = np.random.default_rng(derive_seed(seed, _SEED_DROPOUT, epoch))
            nll_sum, n_pred_sum = 0.0, 0
            for lo in range(0, len(order), batch_size):
                chunk = [examples[j] for j in order[lo : lo + batch_size]]
                ids, pad_mask, labels, pm = pad_batch(chunk, model_cfg.max_len)
                if not pm.any():
                    continue
                loss, _, n_pred, _ = lm_loss_and_grads(
                    model, ids, pad_mask, labels, pm, dropout_rng=drop_rng, grads=adam.grads
                )
                if not math.isfinite(loss):
                    raise FloatingPointError(f"divergence: loss {loss} at epoch {epoch}")
                step(adam)
                nll_sum += loss * n_pred
                n_pred_sum += n_pred
            val_ppl, val_acc = evaluate_lm(model, val_examples, batch_size)
            row = EpochStats(epoch, nll_sum / max(1, n_pred_sum), val_ppl, val_acc)
            history.append(row)
            if log is not None:
                log(row)
    return model, history
