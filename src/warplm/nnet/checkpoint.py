"""Binary checkpoint format.

Layout (all integers little-endian):
    magic   4 bytes  b"WLM1"
    version u32      currently 2
    hlen    u32      length of canonical-JSON header (sorted keys, no spaces)
    header  hlen bytes, utf-8 JSON
    count   u32      number of tensors
    then per tensor, in ascending name order:
        nlen  u16, name utf-8
        ndim  u8, dims u32 each
        data  float32 little-endian, C order

The header carries the model config, the vocab content hash, and a "kind"
tag ("encoder" or "slu"; an SLU header also lists its intent and tag
labels). Writing the same state twice produces identical bytes, and a
save/load/save round trip is bit-exact, 0-d tensors included.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..textcore import naming
from .model import EncoderModel, ModelConfig, head_shapes, param_shapes

CHECKPOINT_MAGIC = b"WLM1"
CHECKPOINT_VERSION = 2

# header keys the loaders read and their JSON types, per checkpoint kind
HEADER_KEYS = {
    "encoder": {"config": dict, "vocab_hash": str},
    "slu": {"config": dict, "vocab_hash": str, "intent_labels": list, "tag_labels": list},
}


def _canon_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(path, header: dict, params: dict[str, np.ndarray]) -> None:
    hbytes = _canon_json(header)
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", len(hbytes)),
        hbytes,
        struct.pack("<I", len(params)),
    ]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype="<f4")
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)) + nb)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes(order="C"))
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """-> (header, params). Every read is bounds-checked and every decode
    checked, so a truncated or malformed file raises ValueError naming the
    path."""
    buf = Path(path).read_bytes()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(buf):
            raise ValueError(f"truncated checkpoint (needs {off + n} bytes, has {len(buf)})")
        off += n
        return buf[off - n : off]

    def unpack(fmt: str):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    with naming(path):
        if buf[:4] != CHECKPOINT_MAGIC:
            raise ValueError(f"bad checkpoint magic {buf[:4]!r}")
        take(4)
        (version,) = unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (hlen,) = unpack("<I")
        header = json.loads(take(hlen).decode("utf-8"))
        (count,) = unpack("<I")
        params: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = unpack("<H")
            name = take(nlen).decode("utf-8")
            (ndim,) = unpack("<B")
            shape = unpack(f"<{ndim}I")
            n = math.prod(shape)  # exact: a corrupt shape cannot wrap around
            arr = np.frombuffer(take(4 * n), dtype="<f4")
            params[name] = arr.reshape(shape).astype(np.float32, copy=True)
        if off != len(buf):
            raise ValueError(f"{len(buf) - off} trailing bytes in checkpoint")
    return header, params


def save_model(path, kind: str, config: ModelConfig, vocab_hash: str,
               params: dict[str, np.ndarray], **extra) -> None:
    """Write a checkpoint of `kind`: its header holds the keys HEADER_KEYS
    checks, the kind and `extra`."""
    header = {"kind": kind, "config": asdict(config), "vocab_hash": vocab_hash, **extra}
    save_checkpoint(path, header, params)


def save_encoder(path, model: EncoderModel, vocab_hash: str, **extra) -> None:
    save_model(path, "encoder", model.config, vocab_hash, model.params, **extra)


def load_model_checkpoint(path, kinds: tuple[str, ...], expect_vocab_hash: str | None = None):
    """-> (header, config, params) of a checkpoint whose kind is in `kinds`.

    Checks everything the loaders read: the header keys of its kind, the
    model config, the vocab hash when one is expected, and that the tensor
    names and shapes are exactly param_shapes(config), plus for "slu" the
    heads implied by the label counts. Raises ValueError naming the path."""
    header, params = load_checkpoint(path)
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind not in kinds:
        raise ValueError(f"{path}: checkpoint kind {kind!r}, expected {' or '.join(kinds)}")
    bad = [k for k, t in HEADER_KEYS[kind].items() if not isinstance(header.get(k), t)]
    if bad:
        raise ValueError(f"{path}: checkpoint header lacks a valid {', '.join(bad)}")
    if expect_vocab_hash is not None and header["vocab_hash"] != expect_vocab_hash:
        raise ValueError(
            f"{path}: vocab hash mismatch (checkpoint {header['vocab_hash'][:12]}..., "
            f"current vocab {expect_vocab_hash[:12]}...)"
        )
    try:
        config = ModelConfig(**header["config"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad model config: {e}") from None
    expected = param_shapes(config)
    if kind == "slu":
        heads = head_shapes(config.d_model, len(header["intent_labels"]),
                            len(header["tag_labels"]))
        expected.update({"head." + k: s for k, s in heads.items()})
    for name in sorted(expected.keys() | params.keys()):
        got, want = (params[name].shape if name in params else None), expected.get(name)
        if got != want:
            what = "is missing" if got is None else f"has shape {got}"
            raise ValueError(f"{path}: tensor {name} {what}, config needs "
                             f"{'no such tensor' if want is None else want}")
    return header, config, params


def load_encoder(path, expect_vocab_hash: str | None = None):
    """-> (EncoderModel, header). Optionally enforces the vocab hash."""
    header, config, params = load_model_checkpoint(path, ("encoder", "slu"), expect_vocab_hash)
    enc_params = {k: v for k, v in params.items() if not k.startswith("head.")}
    return EncoderModel(config, enc_params), header
