import json
import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warplm.asrsim import (
    AlignKind,
    AlignmentOp,
    AlignmentStats,
    NoiseConfig,
    align,
    corrupt,
    edit_distance,
    make_noisy_slu_set,
    save_noisy_slu_set,
    transfer_labels,
    wer,
)
from warplm.slu import TaggedUtterance, iob_is_valid
from warplm.synth import synth_slu_utterances, synth_vocab
from warplm.textcore import UNK_ID

VOCAB = synth_vocab()


def kinds(ops):
    return [op.kind for op in ops]


# --------------------------------------------------------------- alignment

def test_align_identity():
    ops = align([1, 2, 3], [1, 2, 3])
    assert kinds(ops) == [AlignKind.MATCH] * 3
    assert [op.ref for op in ops] == [0, 1, 2]
    assert [op.hyp for op in ops] == [0, 1, 2]


def test_align_empty_cases():
    assert kinds(align([], [1, 2])) == [AlignKind.INS, AlignKind.INS]
    assert kinds(align([1, 2], [])) == [AlignKind.DEL, AlignKind.DEL]
    assert align([], []) == []


def test_align_prefers_match_over_indel_pair():
    # ref [a,b], hyp [b]: tie between SUB+DEL and DEL+MATCH resolves to the
    # traceback preference: diagonal first scanning right-to-left, so the
    # final b aligns as MATCH and a is deleted
    ops = align(["a", "b"], ["b"])
    assert kinds(ops) == [AlignKind.DEL, AlignKind.MATCH]
    assert ops[1].ref == 1 and ops[1].hyp == 0


def test_align_substitution():
    ops = align(["a", "b", "c"], ["a", "x", "c"])
    assert kinds(ops) == [AlignKind.MATCH, AlignKind.SUB, AlignKind.MATCH]


def test_align_deterministic():
    r = [1, 2, 3, 2, 1]
    h = [2, 3, 3, 1]
    assert align(r, h) == align(r, h)


@given(
    st.lists(st.integers(0, 2), max_size=10),
    st.lists(st.integers(0, 2), max_size=10),
)
def test_align_covers_both_sequences_in_order(ref, hyp):
    ops = align(ref, hyp)
    ref_idx = [op.ref for op in ops if op.ref is not None]
    hyp_idx = [op.hyp for op in ops if op.hyp is not None]
    assert ref_idx == list(range(len(ref)))
    assert hyp_idx == list(range(len(hyp)))
    # MATCH really matches; SUB really differs
    for op in ops:
        if op.kind is AlignKind.MATCH:
            assert ref[op.ref] == hyp[op.hyp]
        elif op.kind is AlignKind.SUB:
            assert ref[op.ref] != hyp[op.hyp]


def numpy_distance(ref, hyp):
    """Independent full-matrix DP used as the oracle."""
    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1,
                          d[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]))
    return int(d[n, m])


def brute_distance(ref, hyp):
    """Plain exponential recursion; the most literal definition."""
    if not ref:
        return len(hyp)
    if not hyp:
        return len(ref)
    return min(
        brute_distance(ref[1:], hyp[1:]) + (ref[0] != hyp[0]),
        brute_distance(ref[1:], hyp) + 1,
        brute_distance(ref, hyp[1:]) + 1,
    )


def test_align_distance_matches_oracles_random():
    rnd = random.Random(0)
    for _ in range(300):
        ref = [rnd.randrange(4) for _ in range(rnd.randrange(9))]
        hyp = [rnd.randrange(4) for _ in range(rnd.randrange(9))]
        dist = edit_distance(align(ref, hyp))
        assert dist == numpy_distance(ref, hyp)
        assert dist == brute_distance(tuple(ref), tuple(hyp))


def test_alignment_op_json():
    op = AlignmentOp(AlignKind.SUB, 3, 4)
    assert json.loads(json.dumps(asdict(op))) == {"kind": "sub", "ref": 3, "hyp": 4}


# --------------------------------------------------------------------- wer

def test_wer_hand_values():
    assert wer([1, 2, 3], [1, 2, 3]) == 0.0
    assert wer([1, 2], []) == 1.0
    assert wer([1], [2, 3]) == 2.0  # can exceed 1
    assert wer([1, 2, 3, 4], [1, 9, 4]) == 0.5  # one sub + one del


def test_wer_empty_reference_errors():
    with pytest.raises(ValueError, match="empty reference"):
        wer([], [1])
    stats = AlignmentStats()
    with pytest.raises(ValueError, match="empty reference"):
        stats.wer


def test_wer_matches_independent_recomputation():
    rnd = random.Random(1)
    for _ in range(1000):
        ref = [rnd.randrange(6) for _ in range(rnd.randrange(1, 12))]
        hyp = [rnd.randrange(6) for _ in range(rnd.randrange(12))]
        assert wer(ref, hyp) == numpy_distance(ref, hyp) / len(ref)


def test_alignment_stats_accumulate():
    stats = AlignmentStats()
    stats.add(align([1, 2, 3], [1, 9, 3]), 3)
    stats.add(align([4, 5], [4]), 2)
    assert stats.n_ref == 5
    assert stats.n_sub == 1 and stats.n_del == 1 and stats.n_match == 3
    assert stats.wer == 2 / 5


# ------------------------------------------------------------- corruption

def test_noise_presets():
    tv = NoiseConfig.train_val()
    assert (tv.p_sub, tv.p_del, tv.p_ins) == (0.129, 0.024, 0.033)
    te = NoiseConfig.test()
    assert (te.p_sub, te.p_del, te.p_ins) == (0.115, 0.015, 0.029)
    clean = NoiseConfig.clean()
    assert (clean.p_sub, clean.p_del, clean.p_ins) == (0.0, 0.0, 0.0)


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(p_sub=1.2)
    with pytest.raises(ValueError, match="p_sub . p_del"):
        NoiseConfig(p_sub=0.6, p_del=0.5)


def test_corrupt_clean_is_identity():
    rng = np.random.default_rng(0)
    toks = [5, 6, 7, 8]
    assert corrupt(toks, NoiseConfig.clean(), len(VOCAB), rng) == toks
    assert corrupt([], NoiseConfig.train_val(), len(VOCAB), rng) == []


def test_corrupt_deterministic_given_rng_seed():
    toks = list(range(5, 45))
    cfg = NoiseConfig.train_val()
    a = corrupt(toks, cfg, len(VOCAB), np.random.default_rng(7))
    b = corrupt(toks, cfg, len(VOCAB), np.random.default_rng(7))
    c = corrupt(toks, cfg, len(VOCAB), np.random.default_rng(8))
    assert a == b
    assert a != c


def test_corrupt_rates_measured_by_alignment():
    cfg = NoiseConfig.train_val()
    rng = np.random.default_rng(2)
    stats = AlignmentStats()
    utts = synth_slu_utterances(3000, VOCAB, seed=13)
    for u in utts:
        hyp = corrupt(u.token_ids, cfg, len(VOCAB), rng)
        stats.add(align(u.token_ids, hyp), len(u.token_ids))
    assert stats.n_ref > 20000
    assert abs(stats.n_sub / stats.n_ref - cfg.p_sub) < 0.01
    assert abs(stats.n_del / stats.n_ref - cfg.p_del) < 0.01
    assert abs(stats.n_ins / stats.n_ref - cfg.p_ins) < 0.01
    assert abs(stats.wer - 0.186) < 0.015


# ----------------------------------------------------------- label transfer

def U(tokens, tags, intent="find_flight"):
    return TaggedUtterance(tokens, tags, intent)


def test_transfer_copies_tags_through_matches_and_subs():
    ref = U([10, 11, 12], ["O", "B-x", "I-x"])
    hyp = [10, 99, 12]  # middle token substituted
    out = transfer_labels(ref, hyp, align(ref.token_ids, hyp))
    assert out.tags == ["O", "B-x", "I-x"]
    assert out.intent == ref.intent


def test_transfer_inserted_token_gets_outside():
    ref = U([10, 11], ["B-x", "I-x"])
    hyp = [10, 77, 11]
    ops = align(ref.token_ids, hyp)
    out = transfer_labels(ref, hyp, ops)
    # insertion splits the span; orphan I-x is promoted to B-x
    assert out.tags == ["B-x", "O", "B-x"]
    assert iob_is_valid(out.tags)


def test_transfer_deleted_b_promotes_following_i():
    ref = U([10, 11, 12], ["B-x", "I-x", "O"])
    hyp = [11, 12]  # first token deleted
    out = transfer_labels(ref, hyp, align(ref.token_ids, hyp))
    assert out.tags == ["B-x", "O"]


def test_transfer_rejects_inconsistent_ops():
    ref = U([10, 11], ["O", "O"])
    with pytest.raises(ValueError, match="alignment"):
        transfer_labels(ref, [10, 11], [AlignmentOp(AlignKind.MATCH, 0, 0)])


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_transfer_always_valid_iob(seed):
    rng = np.random.default_rng(seed)
    utts = synth_slu_utterances(1, VOCAB, seed=seed % 1000)
    u = utts[0]
    hyp = corrupt(u.token_ids, NoiseConfig(p_sub=0.2, p_del=0.15, p_ins=0.15),
                  len(VOCAB), rng)
    if not hyp:
        return
    out = transfer_labels(u, hyp, align(u.token_ids, hyp))
    assert iob_is_valid(out.tags)
    assert len(out.tags) == len(hyp)


# ------------------------------------------------------------ noisy sets

def test_make_noisy_slu_set_shape_and_determinism():
    utts = synth_slu_utterances(50, VOCAB, seed=14)
    noisy1, sidecar1, stats1 = make_noisy_slu_set(utts, NoiseConfig.test(), VOCAB, seed=5)
    noisy2, sidecar2, stats2 = make_noisy_slu_set(utts, NoiseConfig.test(), VOCAB, seed=5)
    assert len(noisy1) == 50
    assert [u.token_ids for u in noisy1] == [u.token_ids for u in noisy2]
    assert sidecar1 == sidecar2
    assert stats1.wer == stats2.wer
    assert sidecar1["meta"]["n_utterances"] == 50
    for u, ref in zip(noisy1, utts):
        assert u.intent == ref.intent
        assert iob_is_valid(u.tags)


def test_make_noisy_full_deletion_becomes_unk():
    # brutal rates force full deletions on short utterances
    utts = [U([10], ["O"], "a"), U([11, 12], ["B-x", "I-x"], "b")] * 40
    cfg = NoiseConfig(p_sub=0.0, p_del=0.9, p_ins=0.0)
    noisy, sidecar, _ = make_noisy_slu_set(utts, cfg, VOCAB, seed=6)
    assert sidecar["meta"]["n_fully_deleted"] > 0
    deleted = [u for u, rec in zip(noisy, sidecar["utterances"]) if rec["fully_deleted"]]
    assert deleted
    for u in deleted:
        assert u.token_ids == [UNK_ID]
        assert u.tags == ["O"]
    assert len(noisy) == len(utts)  # dataset size preserved


def test_saved_sidecar_layout_and_deletion_count(tmp_path):
    utts = [U([10], ["O"], "a"), U([11, 12], ["B-x", "I-x"], "b")] * 40
    noisy_set = make_noisy_slu_set(utts, NoiseConfig(p_sub=0.0, p_del=0.9, p_ins=0.0),
                                   VOCAB, seed=6)
    save_noisy_slu_set(tmp_path / "n.tsv", tmp_path / "n.align.json", noisy_set, VOCAB)
    sidecar = json.loads((tmp_path / "n.align.json").read_text())
    assert set(sidecar) == {"meta", "wer", "utterances"}
    assert sidecar["wer"] == noisy_set[2].wer
    n_deleted = sum(rec["fully_deleted"] for rec in sidecar["utterances"])
    assert sidecar["meta"]["n_fully_deleted"] == n_deleted > 0
    assert sidecar["meta"]["n_utterances"] == len(sidecar["utterances"]) == len(utts)
