"""Word-level vocabulary, encoding/decoding, corpus ingestion, and the
JSON artifact writers.

Ids 0..4 are reserved for the special tokens PAD, UNK, CLS, MASK, INS;
corpus-derived tokens start at id 5. All text is lowercased, and the
special tokens are uppercase, so text never encodes to a special id other
than UNK. The vocab file format is one token per line (line number == id),
so identical corpora always serialize to byte-identical files. JSON
artifacts are written with sorted keys for the same reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
MASK_ID = 3
INS_ID = 4

SPECIAL_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[MASK]", "[INS]")
N_SPECIALS = len(SPECIAL_TOKENS)


@dataclass
class Vocab:
    """Bidirectional token<->id mapping with fixed special-token layout."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if list(self.id_to_token[:N_SPECIALS]) != list(SPECIAL_TOKENS):
            raise ValueError("vocab must start with the special tokens")
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate token in vocab")

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def n_words(self) -> int:
        """Number of non-special entries."""
        return len(self.id_to_token) - N_SPECIALS

    def normalize(self, sentence: str) -> str:
        """Canonical form used by the encode/decode round trip."""
        return " ".join(sentence.split()).lower()

    def encode(self, sentence: str) -> list[int]:
        """Whitespace-split tokens to ids; out-of-vocabulary words map to UNK."""
        return self.encode_tokens(self.normalize(sentence).split())

    def encode_tokens(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK_ID) for t in tokens]

    def decode_one(self, i) -> str:
        i = int(i)
        if i < 0 or i >= len(self.id_to_token):
            raise ValueError(f"unknown id {i}")
        return self.id_to_token[i]

    def decode(self, ids) -> str:
        """Space-joined tokens; special ids render as their bracketed literals."""
        return " ".join(self.decode_one(i) for i in ids)

    @property
    def content_hash(self) -> str:
        """sha256 of the serialized token list; pins checkpoints to a vocab."""
        payload = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_vocab(corpus_text: str, min_count: int = 1, max_size: int = 50000) -> Vocab:
    """Build a vocab from line-delimited text.

    Keeps up to (max_size - 5) most frequent lowercased whitespace tokens
    with frequency >= min_count; ties break lexicographically, so the result
    is deterministic for a given corpus.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if max_size < N_SPECIALS:
        raise ValueError(f"max_size must be >= {N_SPECIALS}")
    counts = Counter(corpus_text.lower().split())
    if not counts:
        raise ValueError("empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, c in ranked if c >= min_count][: max_size - N_SPECIALS]
    return Vocab(list(SPECIAL_TOKENS) + kept)


def save_vocab(vocab: Vocab, path: str | Path) -> None:
    Path(path).write_text("\n".join(vocab.id_to_token) + "\n", encoding="utf-8")


@contextlib.contextmanager
def naming(path):
    """Put `path: ` in front of the message of a ValueError (a decoding
    error included) raised inside the block."""
    try:
        yield
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def load_vocab(path: str | Path) -> Vocab:
    with naming(path):
        return Vocab(Path(path).read_text(encoding="utf-8").splitlines())


@dataclass
class Corpus:
    """Encoded sentences. Immutable after construction."""

    sentences: list[list[int]]

    def __len__(self) -> int:
        return len(self.sentences)


def corpus_from_text(text: str, vocab: Vocab) -> Corpus:
    """Encode line-delimited text, skipping blank lines."""
    sentences = []
    for line in text.splitlines():
        ids = vocab.encode(line)
        if not ids:
            continue
        sentences.append(ids)
    return Corpus(sentences)


def load_corpus(path: str | Path, vocab: Vocab) -> Corpus:
    """Read a one-sentence-per-line UTF-8 corpus file. Blank lines are skipped."""
    with naming(path):
        text = Path(path).read_text(encoding="utf-8")
    return corpus_from_text(text, vocab)


def write_json(path: str | Path, obj) -> None:
    """One JSON document: sorted keys, one-space indent, UTF-8."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1), encoding="utf-8")


def write_jsonl(path: str | Path, rows) -> None:
    """JSON lines: one sorted-keys object per dataclass row."""
    Path(path).write_text(
        "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in rows),
        encoding="utf-8",
    )
