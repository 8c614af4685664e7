"""The benchmark's workloads: inputs made from a seed, one job, its checks.

Every workload is a closed loop: one caller runs one job (a `pretrain()` or a
`run_experiment()` call) in this process and waits for it to finish before
the next starts. The package is only handed the generated text (through its
own `textcore` ingestion) or, for the experiment, the seed and sizes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import warplm.experiment
import warplm.pretrain
import warplm.synth
import warplm.textcore
from warplm.nnet import ModelConfig
from warplm.warp import WarpConfig

PRETRAIN_BATCH = 32
ZIPF_EXPONENT = 1.1  # filler-type frequency ~ 1 / rank**s
MAX_FILLERS = 3  # a large-vocabulary sentence gets 1..MAX_FILLERS filler tokens
FINETUNE_SEEDS = (0, 1)
# Quality guard for fine-tuning and evaluation: the mean intent accuracy over
# results.jsonl must reach this. Chance is 1/5 over the grammar's five
# intents, and always predicting the test set's most common intent scores
# about 0.3 on 32 utterances. At the experiment-mini sizes a correct program
# read 0.69 or more on seeds 1-20; joint accuracy stays near 0 at these
# fine-tune lengths.
MIN_INTENT_ACCURACY = 0.4


@dataclass(frozen=True)
class PretrainSpec:
    n_train: int  # training sentences
    n_val: int  # validation sentences, generated ahead of the training ones
    epochs: int
    # The vocabulary is the grammar words plus generated filler types up to
    # this size, and every sentence gets Zipf-drawn filler tokens.
    vocab_size: int


@dataclass(frozen=True)
class ExperimentSpec:
    n_corpus: int
    n_train: int
    n_val: int
    n_test: int
    pretrain_epochs: int
    finetune_epochs: int


@dataclass
class PretrainInputs:
    vocab: warplm.textcore.Vocab
    train: list[list[int]]
    val: list[list[int]]


@dataclass
class Outcome:
    """What one job produced, reduced to the numbers and checks the
    benchmark reports. `digest` identifies the outputs byte for byte."""

    final_val_ppl: float
    tokens: int  # training-split corpus tokens x epochs (x objectives)
    digest: str
    failures: list[str] = field(default_factory=list)
    joint_accuracy_mean: float | None = None
    intent_accuracy_mean: float | None = None


def _pseudo_words(n: int, rng: np.random.Generator, taken: set[str]) -> list[str]:
    words: list[str] = []
    seen = set(taken)
    while len(words) < n:
        m = n - len(words)
        letters = rng.integers(ord("a"), ord("z") + 1, size=(m, 8), dtype=np.uint8)
        lengths = rng.integers(5, 9, size=m)
        for row, length in zip(letters, lengths):
            word = row[:length].tobytes().decode("ascii")
            if word not in seen:
                seen.add(word)
                words.append(word)
    return words


def filler_corpus(spec: PretrainSpec, seed: int) -> tuple[list[str], str]:
    """(vocab token list, corpus text) for a large-vocabulary workload.

    The vocabulary is the specials, the grammar words and generated filler
    types, `spec.vocab_size` entries in all, so it covers the corpus and no
    sentence contains UNK."""
    rng = np.random.default_rng([seed, spec.vocab_size])
    lexicon = warplm.synth.grammar_lexicon()
    specials = list(warplm.textcore.SPECIAL_TOKENS)
    n_fill = spec.vocab_size - len(specials) - len(lexicon)
    if n_fill < 1:
        raise ValueError(f"vocab_size {spec.vocab_size} leaves no room for filler types")
    fillers = _pseudo_words(n_fill, rng, set(lexicon))
    by_rank = rng.permutation(n_fill)
    cdf = np.cumsum(1.0 / np.arange(1, n_fill + 1) ** ZIPF_EXPONENT)
    cdf /= cdf[-1]
    lines = warplm.synth.synth_corpus_text(spec.n_val + spec.n_train, seed).splitlines()
    counts = rng.integers(1, MAX_FILLERS + 1, size=len(lines))
    ranks = np.minimum(np.searchsorted(cdf, rng.random(int(counts.sum()))), n_fill - 1)
    draws = by_rank[ranks]
    out, k = [], 0
    for line, c in zip(lines, counts):
        toks = line.split()
        for t in draws[k : k + c]:
            toks.insert(int(rng.integers(0, len(toks) + 1)), fillers[t])
        k += c
        out.append(" ".join(toks))
    return specials + lexicon + fillers, "\n".join(out) + "\n"


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class PretrainWorkload:
    """WLM pretraining via `pretrain()` at `ModelConfig.desk`, batch 32, on a
    generated large-vocabulary corpus."""

    def __init__(self, spec: PretrainSpec):
        self.spec = spec
        self._ins_reference: bytes | None = None

    def setup(self, seed: int) -> PretrainInputs:
        tokens, text = filler_corpus(self.spec, seed)
        vocab = warplm.textcore.Vocab(tokens)
        sentences = warplm.textcore.corpus_from_text(text, vocab).sentences
        return PretrainInputs(vocab, sentences[self.spec.n_val :], sentences[: self.spec.n_val])

    def _model_config(self, inputs: PretrainInputs) -> ModelConfig:
        return ModelConfig.desk(len(inputs.vocab))

    def job(self, inputs: PretrainInputs, seed: int, out_dir: Path):
        return warplm.pretrain.pretrain(
            inputs.train, inputs.val, inputs.vocab, self._model_config(inputs),
            WarpConfig.wlm(), epochs=self.spec.epochs, batch_size=PRETRAIN_BATCH, seed=seed,
        )

    def _initial_ins_row(self, inputs: PretrainInputs, seed: int) -> bytes:
        # pretrain() with zero epochs returns the model exactly as initialized.
        if self._ins_reference is None:
            model, _ = warplm.pretrain.pretrain(
                inputs.train, inputs.val, inputs.vocab, self._model_config(inputs),
                WarpConfig.wlm(), epochs=0, seed=seed,
            )
            self._ins_reference = model.params["tok_emb"][warplm.textcore.INS_ID].tobytes()
        return self._ins_reference

    def outcome(self, inputs: PretrainInputs, result, seed: int, out_dir: Path) -> Outcome:
        model, history = result
        failures = []
        ppl = float(history[-1].val_perplexity)
        if not math.isfinite(ppl):
            failures.append(f"final_val_ppl is not finite: {ppl}")
        ins_row = model.params["tok_emb"][warplm.textcore.INS_ID].tobytes()
        if ins_row != self._initial_ins_row(inputs, seed):
            failures.append("[INS] row of tok_emb moved during pretraining")
        digest = _sha256(
            json.dumps([r.val_perplexity for r in history]).encode(),
            *(model.params[k].tobytes() for k in sorted(model.params)),
        )
        tokens = sum(map(len, inputs.train)) * self.spec.epochs
        return Outcome(ppl, tokens, digest, failures)


class ExperimentWorkload:
    """`run_experiment()` end to end over all settings and both objectives."""

    def __init__(self, spec: ExperimentSpec):
        self.spec = spec

    def setup(self, seed: int) -> None:
        # run_experiment generates its own data from the seed (its data phase).
        return None

    def job(self, inputs, seed: int, out_dir: Path):
        s = self.spec
        return warplm.experiment.run_experiment(
            out_dir, warplm.experiment.ExperimentMatrix(seeds=FINETUNE_SEEDS),
            n_train=s.n_train, n_val=s.n_val, n_test=s.n_test, n_corpus=s.n_corpus,
            pretrain_epochs=s.pretrain_epochs, finetune_epochs=s.finetune_epochs,
            seed=seed, log=None,
        )

    def outcome(self, inputs, result, seed: int, out_dir: Path) -> Outcome:
        s = self.spec
        failures = []
        results = (out_dir / "results.jsonl").read_bytes()
        records = [json.loads(line) for line in results.decode().splitlines()]
        expected = len(warplm.experiment.SETTINGS) * len(warplm.experiment.OBJECTIVES) * len(FINETUNE_SEEDS)
        if len(records) != expected:
            failures.append(f"results.jsonl has {len(records)} records, expected {expected}")
        for r in records:
            if not r["joint_accuracy"] <= r["intent_accuracy"]:
                failures.append(f"joint_accuracy > intent_accuracy in {r}")
        intent = float(np.mean([r["intent_accuracy"] for r in records])) if records else 0.0
        if not intent >= MIN_INTENT_ACCURACY:
            failures.append(f"mean intent_accuracy {intent:.3f} < {MIN_INTENT_ACCURACY}")
        histories = [(out_dir / f"pretrain_{obj}.jsonl").read_bytes()
                     for obj in warplm.experiment.OBJECTIVES]
        ppls = [float(json.loads(h.splitlines()[-1])["val_perplexity"]) for h in histories]
        ppl = float(np.mean(ppls))
        if not math.isfinite(ppl):
            failures.append(f"final_val_ppl is not finite: {ppls}")
        sentences = [l for l in (out_dir / "corpus.txt").read_text().splitlines() if l.strip()]
        train = sentences[max(1, len(sentences) // 10) :]  # run_experiment's hold-out rule
        tokens = sum(len(l.split()) for l in train) * s.pretrain_epochs * len(warplm.experiment.OBJECTIVES)
        joint = float(np.mean([r["joint_accuracy"] for r in records])) if records else math.nan
        return Outcome(ppl, tokens, _sha256(results, *histories), failures, joint, intent)


# Sizes chosen so that one job takes a few seconds on a 2-core x86 VM and
# a run holds several jobs (see README.md for timings and reasons). A v30k
# step costs about B x T x V for the batch's longest sentence T, so the job
# trains on 9 full batches and evaluates 4: with 4.5 and 2, the cost of one
# seed's corpus differed from another's by up to 7%. The experiment
# fine-tunes for 32 steps each time (128 utterances, B=16, 4 epochs): with 24
# steps one seed in twenty read 0.46 mean intent accuracy, and with 12 steps
# several were at chance. Its 1000-sentence corpus makes pretraining about a
# fifth of the job, so the small-vocabulary pretraining path (encoder body,
# warping) shows in its wall time, and validates on 100 sentences.
WORKLOADS = {
    "pretrain-v30k": PretrainSpec(n_train=288, n_val=128, epochs=1, vocab_size=30000),
    "experiment-mini": ExperimentSpec(
        n_corpus=1000, n_train=128, n_val=16, n_test=32, pretrain_epochs=1, finetune_epochs=4,
    ),
}

# Smoke-check sizes: every code path, well under a second per pretrain job. The
# experiment keeps its fine-tuning size, which MIN_INTENT_ACCURACY needs.
TINY = {
    "pretrain-v30k": PretrainSpec(n_train=32, n_val=8, epochs=1, vocab_size=2000),
    "experiment-mini": ExperimentSpec(
        n_corpus=60, n_train=128, n_val=16, n_test=32, pretrain_epochs=1, finetune_epochs=4,
    ),
}


def make(spec):
    return PretrainWorkload(spec) if isinstance(spec, PretrainSpec) else ExperimentWorkload(spec)
