"""Command-line entry points.

One tool, subcommands for each stage:

    warplm build-vocab     corpus.txt --out vocab.txt
    warplm pretrain        --corpus corpus.txt --vocab vocab.txt --out enc.ckpt
    warplm warp-preview    --vocab vocab.txt "book a flight to boston"
    warplm corrupt         --data slu.tsv --vocab vocab.txt --out noisy.tsv
    warplm finetune        --checkpoint enc.ckpt --train t.tsv --val v.tsv ...
    warplm evaluate        --checkpoint slu.ckpt --data test.tsv --vocab ...
    warplm experiment      --out runs/exp1
    warplm make-synthetic  --out data/

pretrain, finetune and warp-preview accept only the settings they read
(RUN_SETTINGS), as flags or as keys of a flat KEY=VALUE config file
(--config); flags override file values. Every command is deterministic
given --seed: running it twice writes byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import asrsim, experiment, pretrain as pretrain_mod, slu, textcore, warp
from .nnet import ModelConfig, load_encoder, save_encoder


@dataclass
class RunConfig:
    """Settings of pretrain, finetune and warp-preview; see --help for meanings."""

    objective: str = warp.WarpConfig.objective
    epochs: int = 10
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    d_model: int = ModelConfig.d_model
    n_layers: int = ModelConfig.n_layers
    n_heads: int = ModelConfig.n_heads
    d_ff: int = ModelConfig.d_ff
    max_len: int = ModelConfig.max_len
    dropout: float = ModelConfig.dropout
    p_select: float = warp.WarpConfig.p_select
    val_fraction: float = pretrain_mod.VAL_FRACTION
    freeze_encoder: bool = False


# The RunConfig fields each subcommand reads. Its flags, the config keys it
# accepts and the fields its .runconfig.json records all come from this list.
RUN_SETTINGS = {
    "pretrain": ("objective", "epochs", "batch_size", "lr", "seed", "d_model",
                 "n_layers", "n_heads", "d_ff", "max_len", "dropout", "p_select",
                 "val_fraction"),
    "finetune": ("epochs", "batch_size", "lr", "seed", "freeze_encoder"),
    "warp-preview": ("objective", "p_select", "seed"),
}
_DEFAULTS = dataclasses.asdict(RunConfig())
_BOOLS = {"true": True, "1": True, "false": False, "0": False}
# run_experiment's settings that `experiment` takes as flags; an omitted flag
# leaves the setting at run_experiment's default.
EXPERIMENT_SETTINGS = ("n_train", "n_val", "n_test", "n_corpus", "pretrain_epochs",
                       "finetune_epochs", "seed")


def parse_config_file(path) -> dict:
    """Flat KEY=VALUE lines; '#' starts a comment. Keys must be RunConfig
    fields; values are coerced to the type of the field's default."""
    out = {}
    with textcore.naming(path):
        text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        ftype = type(_DEFAULTS[key])
        try:
            out[key] = _BOOLS[value.lower()] if ftype is bool else ftype(value)
        except (KeyError, ValueError):
            raise ValueError(f"{path}:{lineno}: bad {ftype.__name__} for {key}: "
                             f"{value!r}") from None
    return out


def resolve_run_config(args, unread: dict[str, str] | None = None) -> RunConfig:
    """defaults < config file < explicit flags, for the settings that
    args.command reads; a config key it does not read is an error, and so
    is giving a setting of `unread` ({name: the option that makes it
    unread}) as a flag or a key."""
    names = RUN_SETTINGS[args.command]
    file_vals = parse_config_file(args.config) if args.config else {}
    unused = [k for k in file_vals if k not in names]
    if unused:
        raise ValueError(f"{args.config}: config key {unused[0]!r} is not used by "
                         f"{args.command}")
    flag_vals = {k: getattr(args, k) for k in names if getattr(args, k) is not None}
    for name, option in (unread or {}).items():
        if name in file_vals or name in flag_vals:
            raise ValueError(f"{name} is not read with {option}")
    rc = dataclasses.replace(RunConfig(), **{**file_vals, **flag_vals})
    warp.WarpConfig(rc.objective, rc.p_select)  # checks both
    return rc


def _add_run_flags(p: argparse.ArgumentParser, command: str):
    p.add_argument("--config", help="flat KEY=VALUE config file")
    for name in RUN_SETTINGS[command]:
        flag = "--" + name.replace("_", "-")
        if isinstance(_DEFAULTS[name], bool):
            p.add_argument(flag, dest=name, action="store_const", const=True)
        else:
            p.add_argument(flag, dest=name, type=type(_DEFAULTS[name]),
                           choices=tuple(warp.OBJECTIVES) if name == "objective" else None)


def _load_slu_set(path, vocab, what: str):
    """The utterances of an SLU file; an empty file is an error naming it."""
    utts = slu.load_slu_file(path, vocab)
    if not utts:
        raise ValueError(f"{path}: empty {what}")
    return utts


def _note_truncated(path, utts, what: str, max_len: int) -> None:
    """Say how many utterances the encoder cuts, if any."""
    n = slu.count_truncated(utts, max_len)
    if n:
        print(f"note: {path}: {n} of {len(utts)} utterances in the {what} are cut "
              f"to {max_len - 1} tokens (max_len {max_len} with [CLS])")


def _note_long_sentences(path, sentences, max_len: int) -> None:
    """Say how many sentences are longer than pretraining reads, if any."""
    n = sum(len(s) > max_len for s in sentences)
    if n:
        print(f"note: {path}: {n} of {len(sentences)} sentences are longer than "
              f"max_len {max_len}; pretraining reads at most {max_len} tokens of each warp")


# ------------------------------------------------------------ subcommands

def cmd_build_vocab(args) -> int:
    with textcore.naming(args.corpus):
        text = Path(args.corpus).read_text(encoding="utf-8")
    vocab = textcore.build_vocab(text, min_count=args.min_count, max_size=args.max_size)
    textcore.save_vocab(vocab, args.out)
    print(f"wrote {args.out}: {len(vocab)} tokens ({vocab.n_words} words) "
          f"hash={vocab.content_hash[:12]}")
    return 0


def cmd_pretrain(args) -> int:
    # --val-corpus replaces the held-out split of the corpus
    unread = {"val_fraction": "--val-corpus"} if args.val_corpus else {}
    rc = resolve_run_config(args, unread)
    if rc.epochs < 1:  # pretrain() accepts 0 and returns the initialized model
        raise ValueError(f"epochs must be >= 1, got {rc.epochs}")
    vocab = textcore.load_vocab(args.vocab)
    corpus = textcore.load_corpus(args.corpus, vocab)
    if args.val_corpus:
        val_sents = textcore.load_corpus(args.val_corpus, vocab).sentences
        train_sents = corpus.sentences
    else:
        train_sents, val_sents = pretrain_mod.split_validation(corpus.sentences,
                                                               rc.val_fraction)
    model_cfg = ModelConfig(
        vocab_size=len(vocab), d_model=rc.d_model, n_layers=rc.n_layers,
        n_heads=rc.n_heads, d_ff=rc.d_ff, max_len=rc.max_len, dropout=rc.dropout,
    )
    _note_long_sentences(args.corpus, corpus.sentences, rc.max_len)
    if args.val_corpus:
        _note_long_sentences(args.val_corpus, val_sents, rc.max_len)

    def log_row(row):
        print(f"epoch {row.epoch}: train_loss={row.train_loss:.4f} "
              f"val_ppl={row.val_perplexity:.3f} val_acc={row.val_accuracy:.3f}")

    model, history = pretrain_mod.pretrain(
        train_sents, val_sents, vocab, model_cfg,
        warp.WarpConfig(rc.objective, rc.p_select),
        epochs=rc.epochs, batch_size=rc.batch_size, lr=rc.lr, seed=rc.seed,
        log=log_row,
    )
    textcore.write_jsonl(args.log or (args.out + ".log.jsonl"), history)
    save_encoder(args.out, model, vocab.content_hash, objective=rc.objective)
    textcore.write_json(args.out + ".runconfig.json",
                        {k: getattr(rc, k) for k in RUN_SETTINGS[args.command]
                         if k not in unread})
    print(f"wrote {args.out} ({rc.objective}, {rc.epochs} epochs)")
    return 0


def cmd_warp_preview(args) -> int:
    rc = resolve_run_config(args)
    if rc.seed < 0:  # the seed goes to default_rng as it is, unhashed
        raise ValueError(f"seed must be >= 0, got {rc.seed}")
    vocab = textcore.load_vocab(args.vocab)
    text = args.sentence if args.sentence is not None else sys.stdin.read()
    ids = vocab.encode(text)
    if not ids:
        raise ValueError("empty sentence")
    ex = warp.warp(ids, warp.WarpConfig(rc.objective, rc.p_select), vocab, rc.seed)
    print(warp.render_example(ex, vocab))
    return 0


def cmd_corrupt(args) -> int:
    rates = {k: getattr(args, k) for k in ("p_sub", "p_del", "p_ins")}
    given = [k for k, v in rates.items() if v is not None]
    if args.rates and given:
        raise ValueError(f"--rates and --{given[0].replace('_', '-')} are exclusive: "
                         "give a preset or custom rates")
    vocab = textcore.load_vocab(args.vocab)
    utts = _load_slu_set(args.data, vocab, "dataset")
    if args.rates:
        noise = getattr(asrsim.NoiseConfig, args.rates)()
    else:
        noise = asrsim.NoiseConfig(**{k: 0.0 if v is None else v for k, v in rates.items()})
    noisy_set = asrsim.make_noisy_slu_set(utts, noise, vocab, args.seed)
    asrsim.save_noisy_slu_set(args.out, args.out + ".align.json", noisy_set, vocab)
    noisy, sidecar, stats = noisy_set
    print(f"wrote {args.out}: {len(noisy)} utterances wer={stats.wer:.4f} "
          f"fully_deleted={sidecar['meta']['n_fully_deleted']}")
    return 0


def cmd_finetune(args) -> int:
    rc = resolve_run_config(args)
    vocab = textcore.load_vocab(args.vocab)
    encoder, _ = load_encoder(args.checkpoint, expect_vocab_hash=vocab.content_hash)
    train = _load_slu_set(args.train, vocab, "training set")
    val = _load_slu_set(args.val, vocab, "validation set")
    _note_truncated(args.train, train, "training set", encoder.config.max_len)
    _note_truncated(args.val, val, "validation set", encoder.config.max_len)

    def log_row(row):
        print(f"epoch {row.epoch}: loss={row.train_loss:.4f} "
              f"intent={row.intent_accuracy:.3f} slot_f1={row.slot_f1:.3f} "
              f"joint={row.joint_accuracy:.3f}")

    model, history = slu.finetune(
        encoder, train, val, epochs=rc.epochs, batch_size=rc.batch_size,
        lr=rc.lr, seed=rc.seed, freeze_encoder=rc.freeze_encoder, log=log_row,
    )
    textcore.write_jsonl(args.log or (args.out + ".log.jsonl"), history)
    slu.save_slu(args.out, model, vocab.content_hash)
    textcore.write_json(args.out + ".runconfig.json",
                        {k: getattr(rc, k) for k in RUN_SETTINGS[args.command]})
    best = slu.kept_epoch(history)
    print(f"wrote {args.out} (best val joint={best.joint_accuracy:.3f} "
          f"at epoch {best.epoch})")
    return 0


def cmd_evaluate(args) -> int:
    vocab = textcore.load_vocab(args.vocab)
    model, _ = slu.load_slu(args.checkpoint, expect_vocab_hash=vocab.content_hash)
    utts = _load_slu_set(args.data, vocab, "evaluation set")
    _note_truncated(args.data, utts, "evaluation set", model.config.max_len)
    m = slu.evaluate_slu(model, utts)
    if args.out:
        textcore.write_json(args.out, dataclasses.asdict(m))
    print(f"intent_acc={m.intent_accuracy:.4f} slot_p={m.slot_precision:.4f} "
          f"slot_r={m.slot_recall:.4f} slot_f1={m.slot_f1:.4f} "
          f"joint_acc={m.joint_accuracy:.4f}")
    return 0


def cmd_experiment(args) -> int:
    matrix = experiment.ExperimentMatrix(
        settings=tuple(args.settings.split(",")),
        objectives=tuple(args.objectives.split(",")),
        seeds=tuple(range(args.n_seeds)),
    )
    given = {k: getattr(args, k) for k in EXPERIMENT_SETTINGS if getattr(args, k) is not None}
    experiment.run_experiment(args.out, matrix, **given)
    print(f"wrote {args.out}/report.txt")
    return 0


def cmd_make_synthetic(args) -> int:
    vocab, _, _ = experiment.write_synthetic_data(
        args.out, args.n_corpus, args.n_train, args.n_val, args.n_test, args.seed
    )
    print(f"wrote {Path(args.out)}: vocab={len(vocab)} corpus={args.n_corpus} "
          f"slu={args.n_train}/{args.n_val}/{args.n_test}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Prints a usage error as one `error: <message>` line on stderr and
    exits 2, as every other failure does; -h still prints the usage."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="warplm", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("build-vocab", help="build a vocab file from a corpus")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-size", type=int, default=50000)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("pretrain", help="pretrain an encoder with mlm or wlm warps")
    p.add_argument("--corpus", required=True)
    p.add_argument("--val-corpus", dest="val_corpus")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="epoch stats JSON-lines path")
    _add_run_flags(p, "pretrain")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("warp-preview", help="show the warped form of a sentence")
    p.add_argument("sentence", nargs="?", help="text; stdin when omitted")
    p.add_argument("--vocab", required=True)
    _add_run_flags(p, "warp-preview")
    p.set_defaults(func=cmd_warp_preview)

    p = sub.add_parser("corrupt", help="make a noisy copy of a tagged dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rates", choices=("train_val", "test", "clean"),
                   help="preset noise rates")
    for name in ("p_sub", "p_del", "p_ins"):
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=float,
                       help="custom rate, 0 when omitted; not with --rates")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("finetune", help="fine-tune a pretrained encoder on SLU data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    _add_run_flags(p, "finetune")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="evaluate an SLU checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", help="optional metrics JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run the full noise x objective matrix")
    p.add_argument("--out", required=True)
    p.add_argument("--settings", default=",".join(experiment.SETTINGS))
    p.add_argument("--objectives", default=",".join(experiment.OBJECTIVES))
    p.add_argument("--n-seeds", dest="n_seeds", type=int,
                   default=len(experiment.ExperimentMatrix.seeds))
    for name in EXPERIMENT_SETTINGS:
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=int)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("make-synthetic", help="write the experiment's synthetic data for a seed")
    p.add_argument("--out", required=True)
    p.add_argument("--n-corpus", dest="n_corpus", type=int, default=2000)
    p.add_argument("--n-train", dest="n_train", type=int, default=4478)
    p.add_argument("--n-val", dest="n_val", type=int, default=500)
    p.add_argument("--n-test", dest="n_test", type=int, default=893)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_make_synthetic)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Overflow or NaN (from a garbled weight, say) is an error, not a
        # warning followed by meaningless numbers.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (ValueError, FloatingPointError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
