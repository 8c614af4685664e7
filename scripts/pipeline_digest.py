"""Run a fixed-seed warplm CLI pipeline and print a digest of everything it wrote.

    PYTHONPATH=src python scripts/pipeline_digest.py [OUT_DIR]

The pipeline runs `experiment` at small sizes, then `build-vocab`, `pretrain`
(with flags and with --config), `finetune` (with and without
--freeze-encoder), `evaluate --out`, `corrupt` (preset and custom rates) and
`warp-preview` on the experiment's data, and separately `make-synthetic` at
the experiment's sizes and seed. Each command is called through
`warplm.cli.main` in this process and must exit 0.

Output: one `sha256  name` line per command's stdout (`NN-command:stdout`)
and per file written, paths relative to OUT_DIR (a temporary directory when
omitted). Diffing the output of two source trees shows which artifacts
differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from warplm.cli import main

SEED = "3"
SIZES = ["--n-train", "32", "--n-val", "8", "--n-test", "12", "--n-corpus", "60"]
PRETRAIN_CONFIG = ("objective = mlm\nepochs = 2\nd_model = 32\nd_ff = 64\n"
                   "p_select = 0.2\nval_fraction = 0.2\nseed = 5\n")


def pipeline() -> list[tuple[str, list[str]]]:
    """(command, argv) pairs, with paths relative to the output directory."""
    exp, vocab, corpus = "exp", "exp/vocab.txt", "exp/corpus.txt"
    data = {n: f"exp/slu_{n}.tsv" for n in ("train", "val", "test")}
    return [
        ("experiment", ["experiment", "--out", exp, "--n-seeds", "2",
                        "--pretrain-epochs", "1", "--finetune-epochs", "2",
                        "--seed", SEED, *SIZES]),
        ("build-vocab", ["build-vocab", corpus, "--out", "vocab_built.txt"]),
        ("pretrain", ["pretrain", "--corpus", corpus, "--vocab", vocab,
                      "--out", "enc.ckpt", "--epochs", "2", "--seed", "1"]),
        ("pretrain", ["pretrain", "--corpus", corpus, "--vocab", vocab,
                      "--out", "enc_cfg.ckpt", "--config", "pretrain.cfg"]),
        ("finetune", ["finetune", "--checkpoint", "enc.ckpt",
                      "--train", data["train"], "--val", data["val"], "--vocab", vocab,
                      "--out", "slu.ckpt", "--epochs", "3", "--seed", "2"]),
        ("finetune", ["finetune", "--checkpoint", "enc_cfg.ckpt",
                      "--train", data["train"], "--val", data["val"], "--vocab", vocab,
                      "--out", "slu_frozen.ckpt", "--epochs", "2",
                      "--freeze-encoder", "--lr", "0.003"]),
        ("evaluate", ["evaluate", "--checkpoint", "slu.ckpt",
                      "--data", data["test"], "--vocab", vocab,
                      "--out", "metrics.json"]),
        ("corrupt", ["corrupt", "--data", data["test"], "--vocab", vocab,
                     "--out", "noisy_preset.tsv", "--rates", "test",
                     "--seed", "4"]),
        ("corrupt", ["corrupt", "--data", data["train"], "--vocab", vocab,
                     "--out", "noisy_custom.tsv", "--p-sub", "0.2",
                     "--p-del", "0.1", "--p-ins", "0.1", "--seed", "5"]),
        ("warp-preview", ["warp-preview", "--vocab", vocab, "--seed", "6",
                          "--p-select", "0.5", "book a flight to boston tomorrow"]),
        ("make-synthetic", ["make-synthetic", "--out", "synth",
                            "--seed", SEED, *SIZES]),
    ]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(root: Path) -> list[str]:
    lines = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        Path("pretrain.cfg").write_text(PRETRAIN_CONFIG)
        for i, (name, argv) in enumerate(pipeline(), 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"{name} exited {code}: {argv}")
            lines.append(f"{sha256(out.getvalue().encode())}  {i:02d}-{name}:stdout")
    finally:
        os.chdir(cwd)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        lines.append(f"{sha256(path.read_bytes())}  {path.relative_to(root)}")
    return lines


def cli(argv: list[str]) -> int:
    if argv:
        root = Path(argv[0])
        root.mkdir(parents=True, exist_ok=False)
        print("\n".join(run(root)))
    else:
        with tempfile.TemporaryDirectory() as d:
            print("\n".join(run(Path(d))))
    return 0


if __name__ == "__main__":
    sys.exit(cli(sys.argv[1:]))
