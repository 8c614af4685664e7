import contextlib
import dataclasses
import importlib.util
import io
import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warplm.experiment
import warplm.pretrain
import warplm.slu

from warplm.cli import RunConfig, main, parse_config_file, resolve_run_config, build_parser
from warplm.experiment import ExperimentMatrix
from warplm.nnet import (
    ModelConfig, init_model, load_checkpoint, load_encoder, save_checkpoint, save_encoder,
)
from warplm.nnet.checkpoint import CHECKPOINT_MAGIC, HEADER_KEYS
from warplm.slu import init_slu_model, label_inventory, load_slu, load_slu_file, save_slu
from warplm.textcore import load_vocab

DIGEST_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pipeline_digest.py"
DRIFT_SCRIPT = DIGEST_SCRIPT.with_name("ckpt_drift.py")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data plus one tiny pretrained checkpoint, shared by tests."""
    ws = tmp_path_factory.mktemp("cli")
    assert main(["make-synthetic", "--out", str(ws / "data"), "--n-corpus", "200",
                 "--n-train", "40", "--n-val", "16", "--n-test", "24"]) == 0
    assert main(["pretrain", "--corpus", str(ws / "data" / "corpus.txt"),
                 "--vocab", str(ws / "data" / "vocab.txt"),
                 "--out", str(ws / "enc.ckpt"), "--epochs", "2",
                 "--objective", "wlm", "--seed", "1"]) == 0
    return ws


# ------------------------------------------------------------ config file

def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs = 3\nlr=0.01  # comment\n\n# full line comment\nobjective=mlm\n")
    cfg = parse_config_file(p)
    assert cfg == {"epochs": 3, "lr": 0.01, "objective": "mlm"}


def test_parse_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("optimizer=sgd\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_file(p)


@pytest.mark.parametrize("line, type_name", [
    ("epochs = abc", "int"), ("lr = fast", "float"), ("freeze_encoder = maybe", "bool"),
])
def test_parse_config_rejects_a_value_of_the_wrong_type(tmp_path, line, type_name):
    p = tmp_path / "run.cfg"
    p.write_text(f"# header\n{line}\n")
    key, value = (s.strip() for s in line.split("="))
    with pytest.raises(ValueError) as exc:
        parse_config_file(p)
    assert str(exc.value) == f"{p}:2: bad {type_name} for {key}: {value!r}"


def test_parse_config_rejects_bad_line(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs 3\n")
    with pytest.raises(ValueError, match="KEY=VALUE"):
        parse_config_file(p)


def test_flags_override_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("epochs=7\nlr=0.5\n")
    args = build_parser().parse_args(
        ["pretrain", "--corpus", "c", "--vocab", "v", "--out", "o",
         "--config", str(p), "--epochs", "2"]
    )
    rc = resolve_run_config(args)
    assert rc.epochs == 2  # flag wins
    assert rc.lr == 0.5  # file wins over default
    assert rc.batch_size == 32  # default


# ------------------------------------------------------------ subcommands

def test_build_vocab_cmd(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("a b a\nc a\n")
    code, out, _ = run(capsys, "build-vocab", str(tmp_path / "c.txt"),
                       "--out", str(tmp_path / "v.txt"))
    assert code == 0
    assert "8 tokens" in out
    assert (tmp_path / "v.txt").read_text().splitlines()[5] == "a"


def test_pretrain_writes_artifacts(workspace):
    assert (workspace / "enc.ckpt").exists()
    rc = json.loads((workspace / "enc.ckpt.runconfig.json").read_text())
    assert rc["objective"] == "wlm" and rc["epochs"] == 2 and rc["seed"] == 1
    log = (workspace / "enc.ckpt.log.jsonl").read_text().strip().split("\n")
    assert len(log) == 2
    assert set(json.loads(log[0])) == {"epoch", "train_loss", "val_perplexity",
                                       "val_accuracy"}


def test_pretrain_deterministic_checkpoints(workspace, tmp_path, capsys):
    common = ["pretrain", "--corpus", str(workspace / "data" / "corpus.txt"),
              "--vocab", str(workspace / "data" / "vocab.txt"),
              "--epochs", "1", "--seed", "5"]
    code, _, _ = run(capsys, *common, "--out", str(tmp_path / "a.ckpt"))
    assert code == 0
    code, _, _ = run(capsys, *common, "--out", str(tmp_path / "b.ckpt"))
    assert code == 0
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_warp_preview_cmd(workspace, capsys):
    code, out, _ = run(capsys, "warp-preview", "--vocab",
                       str(workspace / "data" / "vocab.txt"), "--seed", "7",
                       "book a flight from boston to denver on monday")
    assert code == 0
    assert "original" in out and "input" in out and "predict" in out


def test_corrupt_cmd(workspace, tmp_path, capsys):
    out_path = tmp_path / "noisy.tsv"
    code, out, _ = run(capsys, "corrupt", "--data",
                       str(workspace / "data" / "slu_test.tsv"),
                       "--vocab", str(workspace / "data" / "vocab.txt"),
                       "--out", str(out_path), "--rates", "train_val",
                       "--seed", "2")
    assert code == 0
    assert "wer=" in out
    assert out_path.exists()
    side = json.loads((tmp_path / "noisy.tsv.align.json").read_text())
    assert side["meta"]["n_utterances"] == 24
    assert len(side["utterances"]) == 24


def test_finetune_and_evaluate_cmds(workspace, tmp_path, capsys):
    code, out, _ = run(capsys, "finetune",
                       "--checkpoint", str(workspace / "enc.ckpt"),
                       "--train", str(workspace / "data" / "slu_train.tsv"),
                       "--val", str(workspace / "data" / "slu_val.tsv"),
                       "--vocab", str(workspace / "data" / "vocab.txt"),
                       "--out", str(tmp_path / "slu.ckpt"),
                       "--epochs", "2", "--seed", "0")
    assert code == 0
    assert (tmp_path / "slu.ckpt").exists()
    code, out, _ = run(capsys, "evaluate",
                       "--checkpoint", str(tmp_path / "slu.ckpt"),
                       "--data", str(workspace / "data" / "slu_test.tsv"),
                       "--vocab", str(workspace / "data" / "vocab.txt"),
                       "--out", str(tmp_path / "metrics.json"))
    assert code == 0
    assert "joint_acc=" in out
    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert set(metrics) == {"intent_accuracy", "slot_precision", "slot_recall",
                            "slot_f1", "joint_accuracy"}


def test_finetune_reports_the_kept_epoch_on_ties(workspace, tmp_path, capsys):
    # lr 0 leaves the weights unchanged, so every epoch ties on joint accuracy
    # and fine-tuning keeps the last one.
    code, out, err = run(capsys, "finetune",
                         "--checkpoint", str(workspace / "enc.ckpt"),
                         "--train", str(workspace / "data" / "slu_train.tsv"),
                         "--val", str(workspace / "data" / "slu_val.tsv"),
                         "--vocab", str(workspace / "data" / "vocab.txt"),
                         "--out", str(tmp_path / "slu.ckpt"),
                         "--epochs", "3", "--lr", "0")
    assert code == 0, err
    log = [json.loads(line) for line in
           (tmp_path / "slu.ckpt.log.jsonl").read_text().splitlines()]
    assert len({row["joint_accuracy"] for row in log}) == 1
    assert out.strip().splitlines()[-1].endswith("at epoch 3)")


def test_finetune_vocab_mismatch_is_single_line_error(workspace, tmp_path, capsys):
    other = tmp_path / "other_vocab.txt"
    other.write_text("\n".join(["[PAD]", "[UNK]", "[CLS]", "[MASK]", "[INS]",
                                "alpha", "beta"]) + "\n")
    code, out, err = run(capsys, "finetune",
                         "--checkpoint", str(workspace / "enc.ckpt"),
                         "--train", str(workspace / "data" / "slu_train.tsv"),
                         "--val", str(workspace / "data" / "slu_val.tsv"),
                         "--vocab", str(other),
                         "--out", str(tmp_path / "x.ckpt"))
    assert code == 2
    assert err.startswith("error:")
    assert "vocab hash mismatch" in err
    assert err.strip().count("\n") == 0


def test_missing_file_is_error_exit(capsys):
    code, _, err = run(capsys, "build-vocab", "/nonexistent/corpus.txt",
                       "--out", "/tmp/v.txt")
    assert code == 2
    assert err.startswith("error:")


def test_experiment_micro_cmd(tmp_path, capsys):
    code, out, _ = run(capsys, "experiment", "--out", str(tmp_path / "exp"),
                       "--settings", "clean-clean", "--n-seeds", "1",
                       "--n-train", "20", "--n-val", "8", "--n-test", "10",
                       "--n-corpus", "60", "--pretrain-epochs", "1",
                       "--finetune-epochs", "1")
    assert code == 0
    assert (tmp_path / "exp" / "report.txt").exists()
    assert "report.txt" in out


EXPERIMENT_SIZES = ["--n-train", "20", "--n-val", "8", "--n-test", "10", "--n-corpus", "60"]


def test_make_synthetic_writes_the_experiments_data(tmp_path, capsys):
    assert run(capsys, "make-synthetic", "--out", str(tmp_path / "syn"), "--seed", "4",
               *EXPERIMENT_SIZES)[0] == 0
    assert run(capsys, "experiment", "--out", str(tmp_path / "exp"), "--seed", "4",
               "--settings", "clean-clean", "--n-seeds", "1", "--pretrain-epochs", "0",
               "--finetune-epochs", "1", *EXPERIMENT_SIZES)[0] == 0
    names = ["vocab.txt", "corpus.txt", "slu_train.tsv", "slu_val.tsv", "slu_test.tsv"]
    assert sorted(p.name for p in (tmp_path / "syn").iterdir()) == sorted(names)
    for name in names:
        syn, exp = (tmp_path / d / name for d in ("syn", "exp"))
        assert syn.read_bytes() == exp.read_bytes(), name


@pytest.mark.parametrize("flag, value", [
    ("--finetune-epochs", "0"), ("--pretrain-epochs", "-1"), ("--n-train", "0"),
    ("--n-val", "0"), ("--n-test", "0"), ("--n-corpus", "1"),
])
def test_experiment_rejects_invalid_sizes_before_output(tmp_path, capsys, flag, value):
    out = tmp_path / "exp"
    code, stdout, err = run(capsys, "experiment", "--out", str(out), "--n-seeds", "1",
                            "--pretrain-epochs", "1", "--finetune-epochs", "1",
                            *EXPERIMENT_SIZES, flag, value)
    name = flag[2:].replace("-", "_")
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {name} must be >= ") and err.strip().count("\n") == 0, err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--n-train", "0"), ("--n-val", "-1"), ("--n-test", "0"), ("--n-corpus", "1"),
])
def test_make_synthetic_rejects_invalid_sizes_before_output(tmp_path, capsys, flag, value):
    out = tmp_path / "syn"
    code, stdout, err = run(capsys, "make-synthetic", "--out", str(out),
                            *EXPERIMENT_SIZES, flag, value)
    name = flag[2:].replace("-", "_")
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {name} must be >= ") and err.strip().count("\n") == 0, err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, axis", [
    ("--settings", "clean-clean,clean-clean", "settings"),
    ("--objectives", "wlm,wlm", "objectives"),
    ("--n-seeds", "0", "seeds"),
])
def test_experiment_rejects_duplicate_or_empty_axes(tmp_path, capsys, flag, value, axis):
    out = tmp_path / "exp"
    code, stdout, err = run(capsys, "experiment", "--out", str(out), "--n-seeds", "1",
                            *EXPERIMENT_SIZES, flag, value)
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {axis} must be non-empty and distinct")
    assert err.strip().count("\n") == 0, err
    assert not out.exists()


# -------------------------------------------------- OOV words and bad input

def test_warp_preview_accepts_oov_word(workspace, capsys):
    code, out, err = run(capsys, "warp-preview", "--vocab",
                         str(workspace / "data" / "vocab.txt"),
                         "book a flight to zanzibar")
    assert code == 0, err
    assert "original  book a flight to [UNK]" in out


def test_warp_preview_rejects_negative_seed(workspace, capsys):
    code, out, err = run(capsys, "warp-preview", "--vocab",
                         str(workspace / "data" / "vocab.txt"), "--seed", "-1",
                         "book a flight")
    assert code == 2 and out == ""
    assert err == "error: seed must be >= 0, got -1\n"


def test_pretrain_accepts_corpus_with_oov_line(workspace, tmp_path, capsys):
    lines = (workspace / "data" / "corpus.txt").read_text().splitlines()[:40]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(lines + ["book a flight to zanzibar"]) + "\n")
    code, _, err = run(capsys, "pretrain", "--corpus", str(corpus),
                       "--vocab", str(workspace / "data" / "vocab.txt"),
                       "--out", str(tmp_path / "enc.ckpt"), "--epochs", "1")
    assert code == 0, err
    assert (tmp_path / "enc.ckpt").exists()


def test_finetune_truncated_checkpoint_is_single_line_error(workspace, tmp_path, capsys):
    good = tmp_path / "tiny.ckpt"
    save_checkpoint(good, {"kind": "encoder"},
                    {"a": np.ones((2, 3), np.float32), "b": np.zeros(2, np.float32)})
    raw = good.read_bytes()
    bad = tmp_path / "cut.ckpt"
    for cut in range(len(raw)):
        bad.write_bytes(raw[:cut])
        code, _, err = run(capsys, "finetune", "--checkpoint", str(bad),
                           "--train", str(workspace / "data" / "slu_train.tsv"),
                           "--val", str(workspace / "data" / "slu_val.tsv"),
                           "--vocab", str(workspace / "data" / "vocab.txt"),
                           "--out", str(tmp_path / "x.ckpt"))
        assert code == 2, cut
        assert err.startswith("error:") and err.strip().count("\n") == 0, err
        assert "cut.ckpt" in err


def test_version_1_checkpoint_is_single_line_error(workspace, tmp_path, capsys):
    """A version-1 encoder checkpoint, whose layers still hold the key bias
    attn.bk, is refused by load_encoder and by finetune, which writes nothing."""
    data = workspace / "data"
    vocab = load_vocab(data / "vocab.txt")
    cfg = tiny_config(vocab)
    params = dict(init_model(cfg).params)
    params.update({f"layers.{l}.attn.bk": np.zeros(cfg.d_model, np.float32)
                   for l in range(cfg.n_layers)})
    old = tmp_path / "v1.ckpt"
    save_checkpoint(old, {"kind": "encoder", "config": dataclasses.asdict(cfg),
                          "vocab_hash": vocab.content_hash}, params)
    raw = bytearray(old.read_bytes())
    raw[4:8] = struct.pack("<I", 1)
    old.write_bytes(raw)
    with pytest.raises(ValueError, match=r"v1\.ckpt: unsupported checkpoint version 1$"):
        load_encoder(old)
    code, out, err = run(capsys, "finetune", "--checkpoint", str(old),
                         "--train", str(data / "slu_train.tsv"), "--val", str(data / "slu_val.tsv"),
                         "--vocab", str(data / "vocab.txt"), "--out", str(tmp_path / "slu.ckpt"))
    assert code == 2 and out == ""
    assert err == f"error: {old}: unsupported checkpoint version 1\n"
    assert list(tmp_path.iterdir()) == [old]


def tiny_config(vocab):
    return ModelConfig(len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=32)


@pytest.fixture(scope="module")
def tiny_checkpoints(workspace):
    """The bytes of a tiny encoder checkpoint (read by finetune) and a tiny
    SLU checkpoint (read by evaluate)."""
    data = workspace / "data"
    vocab = load_vocab(data / "vocab.txt")
    labels = label_inventory(load_slu_file(data / "slu_train.tsv", vocab))
    enc, slu_ckpt = workspace / "tiny_enc.ckpt", workspace / "tiny_slu.ckpt"
    save_encoder(enc, init_model(tiny_config(vocab)), vocab.content_hash)
    save_slu(slu_ckpt, init_slu_model(init_model(tiny_config(vocab)), *labels),
             vocab.content_hash)
    return {"finetune": enc.read_bytes(), "evaluate": slu_ckpt.read_bytes()}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["finetune", "evaluate"]),
       # half the offsets fall in the magic, version, lengths and JSON header
       offset=st.one_of(st.integers(0, 255), st.integers(0, 2**20)),
       bit=st.integers(0, 7))
def test_checkpoint_bit_flip_exits_0_or_single_line_error(
        workspace, tiny_checkpoints, command, offset, bit):
    raw = bytearray(tiny_checkpoints[command])
    raw[offset % len(raw)] ^= 1 << bit
    data = workspace / "data"
    with tempfile.TemporaryDirectory() as d:
        ckpt = Path(d) / "flipped.ckpt"
        ckpt.write_bytes(bytes(raw))
        if command == "finetune":
            argv = ["finetune", "--train", str(data / "slu_train.tsv"),
                    "--val", str(data / "slu_val.tsv"), "--out", str(Path(d) / "x.ckpt"),
                    "--epochs", "1"]
        else:
            argv = ["evaluate", "--data", str(data / "slu_test.tsv")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            # warnings reach stderr, as they do on the command line
            warnings.simplefilter("default")
            warnings.showwarning = lambda *w: err.write(warnings.formatwarning(*w[:4]))
            with contextlib.redirect_stderr(err):
                code = main(argv + ["--checkpoint", str(ckpt), "--vocab", str(data / "vocab.txt")])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert "Traceback" not in err.getvalue()


def _drop_heads(header, params):
    for k in [k for k in params if k.startswith("head.")]:
        del params[k]


def _unknown_config_key(header, params):
    header["config"]["n_experts"] = 4


def _wrong_ffn_shape(header, params):
    w1 = params["layers.0.ffn.w1"]
    params["layers.0.ffn.w1"] = np.zeros((w1.shape[0], w1.shape[1] + 1), np.float32)


def _no_intent_labels(header, params):
    header["intent_labels"] = []
    params["head.intent_w"] = params["head.intent_w"][:, :0]
    params["head.intent_b"] = params["head.intent_b"][:0]


@pytest.mark.parametrize("kind, mutate", [
    ("slu", _drop_heads),
    ("slu", lambda header, params: header.update(intent_labels=5)),
    ("encoder", lambda header, params: params.pop("tok_emb")),
    ("encoder", lambda header, params: header.pop("vocab_hash")),
    ("encoder", _unknown_config_key),
    ("encoder", _wrong_ffn_shape),
    ("encoder", lambda header, params: header["config"].update(d_model="x")),
    ("encoder", lambda header, params: header["config"].update(d_model=8.0)),
    ("slu", lambda header, params: header.update(tag_labels=[0, 1])),
    ("slu", lambda header, params: header.update(intent_labels=[None])),
    ("slu", lambda header, params: header.update(tag_labels=["O", "O"])),
    ("slu", lambda header, params: header.update(tag_labels=["O", "B_city"])),
    ("slu", _no_intent_labels),
], ids=["slu_without_heads", "slu_labels_not_a_list", "no_tok_emb", "no_vocab_hash", "unknown_config_key",
        "wrong_ffn_shape", "string_dimension", "float_dimension",
        "slu_tag_labels_not_strings", "slu_intent_labels_null", "slu_tag_labels_repeated",
        "slu_tag_label_not_iob2", "slu_no_intent_labels"])
def test_malformed_checkpoint_is_single_line_error(workspace, tmp_path, capsys, kind, mutate):
    data, vocab_path = workspace / "data", workspace / "data" / "vocab.txt"
    vocab = load_vocab(vocab_path)
    cfg = ModelConfig(len(vocab), d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=32)
    good = tmp_path / "good.ckpt"
    if kind == "slu":
        model = init_slu_model(init_model(cfg), ["atis_flight"], ["O", "B-city"])
        save_slu(good, model, vocab.content_hash)
    else:
        save_encoder(good, init_model(cfg), vocab.content_hash)
    header, params = load_checkpoint(good)
    mutate(header, params)
    bad = tmp_path / "malformed.ckpt"
    save_checkpoint(bad, header, params)

    with pytest.raises(ValueError, match="malformed.ckpt"):
        (load_slu if kind == "slu" else load_encoder)(bad)
    if kind == "slu":
        argv = ["evaluate", "--checkpoint", str(bad), "--data", str(data / "slu_test.tsv"),
                "--vocab", str(vocab_path)]
    else:
        argv = ["finetune", "--checkpoint", str(bad), "--train", str(data / "slu_train.tsv"),
                "--val", str(data / "slu_val.tsv"), "--vocab", str(vocab_path),
                "--out", str(tmp_path / "x.ckpt")]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and err.strip().count("\n") == 0, err
    assert "malformed.ckpt" in err


# ------------------------------------------- the settings each command reads

USED_SETTINGS = {
    "pretrain": {"objective", "epochs", "batch_size", "lr", "seed", "d_model", "n_layers",
                 "n_heads", "d_ff", "max_len", "dropout", "p_select", "val_fraction"},
    "finetune": {"epochs", "batch_size", "lr", "seed", "freeze_encoder"},
    "warp-preview": {"objective", "p_select", "seed"},
}
# the 21 (subcommand, setting) pairs whose setting the subcommand does not read
UNUSED_SETTINGS = [(command, f.name) for command, used in USED_SETTINGS.items()
                   for f in dataclasses.fields(RunConfig) if f.name not in used]


def command_argv(command, ws, out):
    data = ws / "data"
    if command == "pretrain":
        return ["pretrain", "--corpus", str(data / "corpus.txt"), "--vocab",
                str(data / "vocab.txt"), "--out", str(out), "--epochs", "1"]
    if command == "finetune":
        return ["finetune", "--checkpoint", str(ws / "enc.ckpt"),
                "--train", str(data / "slu_train.tsv"), "--val", str(data / "slu_val.tsv"),
                "--vocab", str(data / "vocab.txt"), "--out", str(out), "--epochs", "1"]
    return ["warp-preview", "--vocab", str(data / "vocab.txt"), "book a flight"]


@pytest.mark.parametrize("command, name", UNUSED_SETTINGS)
def test_unused_setting_is_rejected(workspace, tmp_path, capsys, command, name):
    argv = command_argv(command, workspace, tmp_path / "x.ckpt")
    default = getattr(RunConfig(), name)
    flag = ["--" + name.replace("_", "-")] + ([] if isinstance(default, bool) else [str(default)])
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    capsys.readouterr()

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name}={default}\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.strip().count("\n") == 0, err
    assert repr(name) in err and command in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


def test_build_vocab_has_no_case_option(tmp_path, capsys):
    (tmp_path / "c.txt").write_text("Book a flight to Boston\n")
    with pytest.raises(SystemExit) as exc:
        main(["build-vocab", str(tmp_path / "c.txt"), "--out", str(tmp_path / "v.txt"),
              "--no-lowercase"])
    assert exc.value.code == 2
    assert not (tmp_path / "v.txt").exists()


@pytest.mark.parametrize("argv", [
    ["pretrain", "--corpus", "x"],
    ["bogus"],
    ["corrupt", "--data", "d", "--vocab", "v", "--out", "o", "--rates", "noisy"],
], ids=["missing-flag", "unknown-subcommand", "bad-rates-choice"])
def test_usage_error_is_one_error_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["-h"], ["pretrain", "-h"]])
def test_help_still_prints_the_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: warplm")


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_runconfig_records_exactly_the_settings_read(workspace, tmp_path, capsys, command):
    out = tmp_path / "x.ckpt"
    code, _, err = run(capsys, *command_argv(command, workspace, out))
    assert code == 0, err
    record = json.loads((tmp_path / "x.ckpt.runconfig.json").read_text())
    assert set(record) == USED_SETTINGS[command]


@pytest.mark.parametrize("command, name", [
    ("pretrain", "epochs"), ("pretrain", "batch_size"),
    ("finetune", "epochs"), ("finetune", "batch_size"),
])
def test_zero_epochs_or_batch_size_is_rejected_before_output(
        workspace, tmp_path, capsys, command, name):
    argv = command_argv(command, workspace, tmp_path / "x.ckpt")
    code, out, err = run(capsys, *argv, "--" + name.replace("_", "-"), "0")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be >= 1") and err.strip().count("\n") == 0, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("val_fraction", ["-3", "0", "1"])
def test_pretrain_rejects_val_fraction_outside_unit_interval(
        workspace, tmp_path, capsys, val_fraction):
    argv = command_argv("pretrain", workspace, tmp_path / "x.ckpt")
    code, out, err = run(capsys, *argv, "--val-fraction", val_fraction)
    assert code == 2 and out == ""
    assert err.startswith("error: val_fraction must be in (0, 1)")
    assert err.strip().count("\n") == 0, err
    assert list(tmp_path.iterdir()) == []


def test_pretrain_rejects_empty_validation_corpus_before_training(
        workspace, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    argv = command_argv("pretrain", workspace, tmp_path / "x.ckpt")
    code, out, err = run(capsys, *argv, "--val-corpus", str(empty))
    assert code == 2 and out == ""
    assert err == "error: empty validation corpus\n"
    assert list(tmp_path.iterdir()) == [empty]


def test_finetune_rejects_empty_validation_set_before_training(
        workspace, tmp_path, capsys, monkeypatch):
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n")
    steps = []
    real_step = warplm.slu.slu_loss_and_grads
    monkeypatch.setattr(warplm.slu, "slu_loss_and_grads",
                        lambda *a, **k: steps.append(1) or real_step(*a, **k))
    argv = command_argv("finetune", workspace, tmp_path / "x.ckpt")
    argv[argv.index("--val") + 1] = str(empty)
    code, out, err = run(capsys, *argv, "--epochs", "3")
    assert code == 2 and out == ""
    assert err == f"error: {empty}: empty validation set\n"
    assert steps == []
    assert list(tmp_path.iterdir()) == [empty]


def test_finetune_rejects_empty_training_set_naming_the_file(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    argv = command_argv("finetune", workspace, tmp_path / "x.ckpt")
    argv[argv.index("--train") + 1] = str(empty)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {empty}: empty training set\n"
    assert list(tmp_path.iterdir()) == [empty]


def test_evaluate_rejects_empty_evaluation_set_naming_the_file(
        workspace, tiny_checkpoints, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code, out, err = run(capsys, "evaluate", "--checkpoint", str(workspace / "tiny_slu.ckpt"),
                         "--data", str(empty), "--vocab", str(workspace / "data" / "vocab.txt"),
                         "--out", str(tmp_path / "m.json"))
    assert code == 2 and out == ""
    assert err == f"error: {empty}: empty evaluation set\n"
    assert list(tmp_path.iterdir()) == [empty]


@pytest.mark.parametrize("command, lr, module, loss_fn", [
    ("pretrain", "-1", warplm.pretrain, "lm_loss_and_grads"),
    ("finetune", "nan", warplm.slu, "slu_loss_and_grads"),
], ids=["pretrain-lr=-1", "finetune-lr=nan"])
def test_bad_learning_rate_is_rejected_before_any_step(
        workspace, tmp_path, capsys, monkeypatch, command, lr, module, loss_fn):
    steps = []
    real_fn = getattr(module, loss_fn)
    monkeypatch.setattr(module, loss_fn,
                        lambda *a, **k: steps.append(1) or real_fn(*a, **k))
    argv = command_argv(command, workspace, tmp_path / "x.ckpt")
    code, out, err = run(capsys, *argv, "--lr", lr)
    assert code == 2 and out == ""
    assert err.startswith(f"error: lr must be finite and >= 0, got {float(lr)}")
    assert err.strip().count("\n") == 0, err
    assert steps == []
    assert list(tmp_path.iterdir()) == []


def test_pretrain_rejects_validation_warps_that_predict_nothing_before_training(
        workspace, tmp_path, capsys, monkeypatch):
    one_word = tmp_path / "v.txt"
    one_word.write_text("flight\n")
    steps = []
    real_step = warplm.pretrain.lm_loss_and_grads
    monkeypatch.setattr(warplm.pretrain, "lm_loss_and_grads",
                        lambda *a, **k: steps.append(1) or real_step(*a, **k))
    argv = command_argv("pretrain", workspace, tmp_path / "x.ckpt")
    code, out, err = run(capsys, *argv, "--val-corpus", str(one_word))
    assert code == 2 and out == ""
    assert err.startswith("error: the validation warps predict no position")
    assert err.strip().count("\n") == 0, err
    assert steps == []
    assert list(tmp_path.iterdir()) == [one_word]


@pytest.mark.parametrize("given_as", ["flag", "config key"])
def test_pretrain_rejects_val_fraction_with_val_corpus_before_reading_files(
        tmp_path, capsys, given_as):
    missing = tmp_path / "missing"
    argv = ["pretrain", "--corpus", str(missing / "c.txt"), "--vocab", str(missing / "v.txt"),
            "--val-corpus", str(missing / "val.txt"), "--out", str(tmp_path / "x.ckpt")]
    if given_as == "flag":
        argv += ["--val-fraction", "-3"]
    else:
        (tmp_path / "run.cfg").write_text("val_fraction = 0.2\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: val_fraction is not read with --val-corpus\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["run.cfg"] if given_as == "config key" else [])


def test_pretrain_with_val_corpus_records_no_val_fraction(workspace, tmp_path, capsys):
    data = workspace / "data"
    argv = command_argv("pretrain", workspace, tmp_path / "x.ckpt")
    assert run(capsys, *argv, "--val-corpus", str(data / "corpus.txt"))[0] == 0
    runconfig = json.loads((tmp_path / "x.ckpt.runconfig.json").read_text())
    assert set(runconfig) == USED_SETTINGS["pretrain"] - {"val_fraction"}


@pytest.mark.parametrize("preset, flag", [("clean", "--p-sub"), ("test", "--p-ins")])
def test_corrupt_rejects_preset_with_custom_rate(workspace, tmp_path, capsys, preset, flag):
    data = workspace / "data"
    code, out, err = run(capsys, "corrupt", "--data", str(data / "slu_test.tsv"),
                         "--vocab", str(data / "vocab.txt"), "--out", str(tmp_path / "n.tsv"),
                         "--rates", preset, flag, "0.5")
    assert code == 2 and out == ""
    assert err.startswith(f"error: --rates and {flag} are exclusive")
    assert err.strip().count("\n") == 0, err
    assert list(tmp_path.iterdir()) == []


def test_corrupt_rejects_empty_dataset_before_output(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    code, out, err = run(capsys, "corrupt", "--data", str(empty),
                         "--vocab", str(workspace / "data" / "vocab.txt"),
                         "--out", str(tmp_path / "noisy.tsv"), "--rates", "test")
    assert code == 2 and out == ""
    assert err == f"error: {empty}: empty dataset\n"
    assert list(tmp_path.iterdir()) == [empty]


def load_pipeline_digest():
    spec = importlib.util.spec_from_file_location("pipeline_digest", DIGEST_SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_subcommand_is_deterministic(tmp_path):
    """Two runs of the digest pipeline, which calls every subcommand, write
    byte-identical stdout and files."""
    digest = load_pipeline_digest()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert digest.run(tmp_path / "a") == digest.run(tmp_path / "b")


def test_ckpt_drift_reports_per_tensor_and_worst_difference(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("ckpt_drift", DRIFT_SCRIPT)
    drift = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(drift)
    model = init_model(ModelConfig(vocab_size=17, d_model=8, n_layers=1, n_heads=2, d_ff=12,
                                   max_len=10), seed=0)
    save_encoder(tmp_path / "a.ckpt", model, "h")
    model.params["layers.0.ffn.w1"][0, 0] *= 1.5
    save_encoder(tmp_path / "b.ckpt", model, "h")
    assert drift.cli([str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")]) == 0
    lines = {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}
    assert lines["layers.0.ffn.w1"][0] == "1/96"
    assert float(lines["layers.0.ffn.w1"][2]) == pytest.approx(1 / 3, rel=1e-3)
    assert lines["tok_emb"] == ["0/136", "0", "0"]
    assert lines["all"][1] == lines["layers.0.ffn.w1"][2]
    (tmp_path / "c.ckpt").write_bytes(b"garbage")
    assert drift.cli([str(tmp_path / "a.ckpt"), str(tmp_path / "c.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------- malformed input files

def test_malformed_tag_is_one_error_naming_the_file(workspace, tmp_path, capsys):
    data = workspace / "data"
    bad = tmp_path / "bad.tsv"
    bad.write_text((data / "slu_test.tsv").read_text().replace("B-", "B_"))
    code, out, err = run(capsys, "corrupt", "--data", str(bad),
                         "--vocab", str(data / "vocab.txt"),
                         "--out", str(tmp_path / "noisy.tsv"), "--rates", "test")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: line ") and "bad IOB2 tag 'B_" in err, err
    assert err.strip().count("\n") == 0, err
    assert list(tmp_path.iterdir()) == [bad]


def test_slu_parse_error_names_the_file(workspace, tiny_checkpoints, tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("#intent\tx\nbook\n\n")
    code, out, err = run(capsys, "evaluate", "--checkpoint", str(workspace / "tiny_slu.ckpt"),
                         "--data", str(bad), "--vocab", str(workspace / "data" / "vocab.txt"))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line 2: expected 'token<TAB>tag', got 'book'\n"


def test_vocab_error_names_the_file(workspace, tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text((workspace / "data" / "vocab.txt").read_text() + "flight\n")
    argv = command_argv("finetune", workspace, tmp_path / "x.ckpt")
    argv[argv.index("--vocab") + 1] = str(vocab)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {vocab}: duplicate token in vocab\n"


@pytest.mark.parametrize("line, message", [
    ("p_select = 1.5", "p_select must be in [0, 1]"),
    ("objective = gpt", "unknown objective 'gpt' (expected one of wlm, mlm)"),
], ids=["p_select", "objective"])
def test_config_file_warp_settings_are_checked_before_reading_files(
        tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    missing = tmp_path / "missing"
    code, out, err = run(capsys, "pretrain", "--corpus", str(missing), "--vocab", str(missing),
                         "--out", str(tmp_path / "x.ckpt"), "--config", str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_cut_utterances_are_noted_only_when_cut(workspace, tmp_path, capsys):
    data = workspace / "data"
    vocab = load_vocab(data / "vocab.txt")
    enc = tmp_path / "enc4.ckpt"
    save_encoder(enc, init_model(dataclasses.replace(tiny_config(vocab), max_len=4)),
                 vocab.content_hash)
    train, val = data / "slu_train.tsv", data / "slu_val.tsv"
    argv = ["finetune", "--checkpoint", str(enc), "--train", str(train), "--val", str(val),
            "--vocab", str(data / "vocab.txt"), "--out", str(tmp_path / "s.ckpt"),
            "--epochs", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    notes = [l for l in out.splitlines() if l.startswith("note:")]
    n_train = len(load_slu_file(train, vocab))
    assert len(notes) == 2 and notes[0].startswith(f"note: {train}: ")
    assert notes[1].startswith(f"note: {val}: ")
    assert f" of {n_train} utterances in the training set are cut to 3 tokens" in notes[0]
    code, out, err = run(capsys, "evaluate", "--checkpoint", str(tmp_path / "s.ckpt"),
                         "--data", str(data / "slu_test.tsv"),
                         "--vocab", str(data / "vocab.txt"))
    assert code == 0, err
    assert out.startswith(f"note: {data / 'slu_test.tsv'}: ")
    assert "evaluation set are cut to 3 tokens (max_len 4 with [CLS])" in out
    # the workspace encoder's default max_len cuts nothing: no note
    code, out, err = run(capsys, *command_argv("finetune", workspace, tmp_path / "d.ckpt"))
    assert code == 0, err
    assert "note:" not in out
    code, out, err = run(capsys, "evaluate", "--checkpoint", str(tmp_path / "d.ckpt"),
                         "--data", str(data / "slu_test.tsv"),
                         "--vocab", str(data / "vocab.txt"))
    assert code == 0, err
    assert "note:" not in out


def raw_checkpoint(header: bytes, name: bytes = b"w") -> bytes:
    """Checkpoint bytes with the given header bytes and one 0-d tensor `name`."""
    return (CHECKPOINT_MAGIC + struct.pack("<II", 1, len(header)) + header
            + struct.pack("<IH", 1, len(name)) + name + struct.pack("<B", 0) + bytes(4))


FINETUNE_CHECKPOINT = ("finetune --checkpoint {bad} --train {data}/slu_train.tsv "
                       "--val {data}/slu_val.tsv --vocab {data}/vocab.txt --out {out}")


@pytest.mark.parametrize("argv, content", [
    ("build-vocab {bad} --out {out}", b"book a flight\n\xff\n"),
    ("pretrain --corpus {bad} --vocab {data}/vocab.txt --out {out}", b"book a flight\n\xff\n"),
    ("pretrain --corpus {data}/corpus.txt --val-corpus {bad} --vocab {data}/vocab.txt "
     "--out {out}", b"book a flight\n\xff\n"),
    ("warp-preview --vocab {data}/vocab.txt --config {bad} book", b"seed = 1\n\xff\n"),
    ("finetune --checkpoint {ws}/enc.ckpt --train {data}/slu_train.tsv "
     "--val {data}/slu_val.tsv --vocab {bad} --out {out}", b"[PAD]\n\xff\n"),
    ("evaluate --checkpoint {ws}/tiny_slu.ckpt --data {bad} --vocab {data}/vocab.txt "
     "--out {out}", b"#intent\tx\nbook\t\xff\n"),
    (FINETUNE_CHECKPOINT, raw_checkpoint(b"not json")),
    (FINETUNE_CHECKPOINT, raw_checkpoint(b"\xff")),
    (FINETUNE_CHECKPOINT, raw_checkpoint(b"{}", name=b"\xff")),
], ids=["build_vocab_corpus", "pretrain_corpus", "pretrain_val_corpus", "config",
        "vocab", "slu_data", "checkpoint_header_not_json", "checkpoint_header_not_utf8",
        "checkpoint_tensor_name_not_utf8"])
def test_undecodable_input_is_one_error_naming_the_file(
        workspace, tiny_checkpoints, tmp_path, capsys, argv, content):
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_bytes(content)
    argv = argv.format(bad=bad, out=out, ws=workspace, data=workspace / "data").split()
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == [bad]


def test_validation_perplexity_overflow_is_a_divergence_error(workspace, tmp_path, capsys):
    data = workspace / "data"
    code, _, err = run(capsys, "pretrain", "--corpus", str(data / "corpus.txt"),
                       "--vocab", str(data / "vocab.txt"), "--out", str(tmp_path / "enc.ckpt"),
                       "--epochs", "3", "--lr", "10", "--d-model", "16", "--d-ff", "32")
    assert code == 2
    assert err.startswith("error: divergence: ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


# ------------------------------------------- what the callee owns, read once

def test_experiment_passes_run_experiment_only_the_settings_given(
        tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(warplm.experiment, "run_experiment",
                        lambda *args, **kwargs: calls.append((args, kwargs)))
    out = str(tmp_path / "exp")
    assert run(capsys, "experiment", "--out", out)[0] == 0
    assert run(capsys, "experiment", "--out", out, "--n-train", "7", "--seed", "3")[0] == 0
    (args, kwargs), (_, given) = calls
    assert args == (out, ExperimentMatrix())
    assert kwargs == {}
    assert given == {"n_train": 7, "seed": 3}


def test_pretrain_checkpoint_header_adds_only_the_objective(workspace):
    header, _ = load_checkpoint(workspace / "enc.ckpt")
    assert header.keys() == {"kind", "objective"} | HEADER_KEYS["encoder"].keys()
    assert header["kind"] == "encoder" and header["objective"] == "wlm"
