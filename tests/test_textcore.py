import pytest
from hypothesis import given, strategies as st

from warplm.textcore import (
    CLS_ID,
    INS_ID,
    MASK_ID,
    N_SPECIALS,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocab,
    build_vocab,
    corpus_from_text,
    load_corpus,
    load_vocab,
    save_vocab,
)


def test_special_ids_are_fixed():
    assert (PAD_ID, UNK_ID, CLS_ID, MASK_ID, INS_ID) == (0, 1, 2, 3, 4)
    assert len(SPECIAL_TOKENS) == N_SPECIALS == 5


def test_build_vocab_frequency_then_lexicographic():
    v = build_vocab("b a a c c c\nb\n")
    # c:3, a:2, b:2 -> c first, then a before b on the tie
    assert v.id_to_token[N_SPECIALS:] == ["c", "a", "b"]
    assert v.encode("c a b") == [5, 6, 7]


def test_build_vocab_min_count_and_max_size():
    v = build_vocab("a a a b b c", min_count=2)
    assert v.id_to_token[N_SPECIALS:] == ["a", "b"]
    v = build_vocab("a a a b b c", max_size=N_SPECIALS + 1)
    assert v.id_to_token[N_SPECIALS:] == ["a"]


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab("   \n  \n")


def test_special_literals_not_double_added():
    v = build_vocab("[pad] hello [unk]")  # lowercased literals are ordinary words
    assert "hello" in v.token_to_id


def test_encode_unknown_maps_to_unk():
    v = build_vocab("a b c")
    assert v.encode("a z c") == [5, UNK_ID, 7]


def test_encode_lowercases_and_squeezes_whitespace():
    v = build_vocab("hello world")
    assert v.encode("  Hello   WORLD ") == v.encode("hello world")


def test_decode_round_trip_and_unknown_id():
    v = build_vocab("a b c")
    ids = v.encode("a c b b")
    assert v.decode(ids) == "a c b b"
    with pytest.raises(ValueError, match="unknown id"):
        v.decode([999])
    with pytest.raises(ValueError, match="unknown id"):
        v.decode_one(-1)


def test_decode_renders_special_literals():
    v = build_vocab("a")
    assert v.decode([MASK_ID, 5, INS_ID]) == "[MASK] a [INS]"


def test_vocab_must_start_with_specials():
    with pytest.raises(ValueError, match="special tokens"):
        Vocab(["a", "b", "c", "d", "e", "f"])


def test_duplicate_token_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Vocab(list(SPECIAL_TOKENS) + ["a", "a"])


@pytest.mark.parametrize("lines, message", [
    (["[PAD]", "[UNK]", "[CLS]", "[MASK]", "[INS]", "a", "a"], "duplicate token in vocab"),
    (["a", "b", "c", "d", "e", "f"], "vocab must start with the special tokens"),
    (["[PAD]", "[UNK]"], "vocab must start with the special tokens"),
], ids=["duplicate", "no-specials", "too-short"])
def test_load_vocab_names_the_file(tmp_path, lines, message):
    p = tmp_path / "vocab.txt"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as e:
        load_vocab(p)
    assert str(e.value) == f"{p}: {message}"


def test_content_hash_changes_with_content():
    v1 = build_vocab("a b")
    v2 = build_vocab("a c")
    assert v1.content_hash != v2.content_hash
    assert v1.content_hash == build_vocab("b a").content_hash


def test_vocab_file_round_trip(tmp_path):
    v = build_vocab("the quick brown fox the the quick")
    p = tmp_path / "vocab.txt"
    save_vocab(v, p)
    v2 = load_vocab(p)
    assert v2.id_to_token == v.id_to_token
    assert v2.content_hash == v.content_hash
    # byte-identical on re-save
    save_vocab(v2, tmp_path / "vocab2.txt")
    assert (tmp_path / "vocab.txt").read_bytes() == (tmp_path / "vocab2.txt").read_bytes()


def test_corpus_skips_blank_lines_and_remaps_specials(tmp_path):
    v = build_vocab("a b c [pad]")
    text = "a b\n\n  \nc [PAD] a\n"
    corpus = corpus_from_text(text, v)
    assert len(corpus) == 2
    # "[pad]" the word encodes to its word id; the bracketed literal would
    # collide with the special, so encode() maps it via lowercase to the word
    for sent in corpus.sentences:
        assert all(i == UNK_ID or i >= N_SPECIALS for i in sent)
    p = tmp_path / "c.txt"
    p.write_text(text)
    corpus2 = load_corpus(p, v)
    assert corpus2.sentences == corpus.sentences


@given(st.lists(st.sampled_from("abc defg hi jk lmn".split()), min_size=1, max_size=30))
def test_encode_decode_round_trip_property(words):
    v = build_vocab("abc defg hi jk lmn")
    sentence = " ".join(words)
    assert v.decode(v.encode(sentence)) == sentence


@given(st.text(alphabet="abcdef ghij\n", min_size=1, max_size=200))
def test_build_vocab_deterministic(text):
    try:
        v1 = build_vocab(text)
    except ValueError:
        return
    v2 = build_vocab(text)
    assert v1.id_to_token == v2.id_to_token
