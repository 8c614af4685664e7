import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import warplm.experiment
from warplm.seeding import derive_seed
from warplm.textcore import (
    CLS_ID, INS_ID, MASK_ID, N_SPECIALS, PAD_ID, SPECIAL_TOKENS, UNK_ID, Vocab,
)
from warplm.warp import (
    IGNORE_LABEL,
    MLM_PROPORTIONS,
    OBJECTIVES,
    OP_ORDER,
    WLM_PROPORTIONS,
    WarpConfig,
    WarpOp,
    WarpPlan,
    apply_plan,
    is_legal,
    render_example,
    repair_plan,
    sample_plan,
    sample_raw_plan,
    warp,
)

VOCAB = Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(40)])
A, B, C, D = 5, 6, 7, 8


def plan(seq_len, ops):
    return WarpPlan(seq_len, ops)


# ------------------------------------------------------------------ config

def test_op_splits_match_published_proportions():
    assert WLM_PROPORTIONS == {
        WarpOp.MASK: 0.6, WarpOp.KEEP: 0.1, WarpOp.RAND: 0.1,
        WarpOp.INSERT: 0.1, WarpOp.DROP: 0.1,
    }
    assert MLM_PROPORTIONS == {
        WarpOp.MASK: 0.8, WarpOp.KEEP: 0.1, WarpOp.RAND: 0.1,
        WarpOp.INSERT: 0.0, WarpOp.DROP: 0.0,
    }
    assert WarpConfig.wlm().p_select == 0.15
    assert WarpConfig("mlm").proportions == MLM_PROPORTIONS
    with pytest.raises(ValueError, match="objective"):
        WarpConfig("bert")


def test_objectives_come_from_the_one_table():
    assert tuple(OBJECTIVES) == ("wlm", "mlm")
    assert warplm.experiment.OBJECTIVES == tuple(OBJECTIVES)
    for objective, proportions in OBJECTIVES.items():
        assert WarpConfig(objective).proportions is proportions
        assert list(proportions) == list(OP_ORDER)


def test_config_validates_proportions():
    with pytest.raises(ValueError, match="p_select"):
        WarpConfig("wlm", 1.5)


# ---------------------------------------------------------------- legality

def test_illegal_op_after_drop():
    assert not is_legal(plan(4, {1: WarpOp.DROP, 2: WarpOp.MASK}))
    assert not is_legal(plan(4, {1: WarpOp.DROP, 2: WarpOp.DROP}))
    assert not is_legal(plan(4, {1: WarpOp.DROP, 2: WarpOp.INSERT}))
    assert is_legal(plan(4, {1: WarpOp.DROP, 3: WarpOp.MASK}))


def test_illegal_final_drop():
    assert not is_legal(plan(4, {3: WarpOp.DROP}))
    assert not is_legal(plan(1, {0: WarpOp.DROP}))
    assert is_legal(plan(4, {2: WarpOp.DROP}))


def test_repair_drop_wins_over_following_op():
    p = repair_plan(plan(5, {2: WarpOp.DROP, 3: WarpOp.MASK}))
    assert p.ops == {2: WarpOp.DROP}


def test_repair_final_drop_becomes_mask():
    p = repair_plan(plan(4, {3: WarpOp.DROP}))
    assert p.ops == {3: WarpOp.MASK}


def test_repair_consecutive_drops_left_to_right():
    # second DROP removed by the first; survivor at 0 is not final
    p = repair_plan(plan(2, {0: WarpOp.DROP, 1: WarpOp.DROP}))
    assert p.ops == {0: WarpOp.DROP}
    # chain of three: 0 removes 1, 2 survives but is final -> MASK
    p = repair_plan(plan(3, {0: WarpOp.DROP, 1: WarpOp.DROP, 2: WarpOp.DROP}))
    assert p.ops == {0: WarpOp.DROP, 2: WarpOp.MASK}


def test_repair_cascade_then_final_mask():
    # DROP at 2 removes op at 3; nothing else changes
    p = repair_plan(plan(6, {0: WarpOp.KEEP, 2: WarpOp.DROP, 3: WarpOp.RAND,
                             5: WarpOp.DROP}))
    assert p.ops == {0: WarpOp.KEEP, 2: WarpOp.DROP, 5: WarpOp.MASK}


# ------------------------------------------------------------ application

def test_apply_mask():
    ex = apply_plan([A, B, C, D], plan(4, {1: WarpOp.MASK}), VOCAB, seed=0)
    assert ex.input_ids == [A, MASK_ID, C, D]
    assert ex.label_ids == [IGNORE_LABEL, B, IGNORE_LABEL, IGNORE_LABEL]
    assert ex.predict_mask == [False, True, False, False]


def test_apply_keep_still_predicts():
    ex = apply_plan([A, B], plan(2, {0: WarpOp.KEEP}), VOCAB, seed=0)
    assert ex.input_ids == [A, B]
    assert ex.label_ids[0] == A
    assert ex.predict_mask == [True, False]


def test_apply_rand_replaces_and_predicts_original():
    ex = apply_plan([A, B], plan(2, {1: WarpOp.RAND}), VOCAB, seed=1)
    assert ex.input_ids[0] == A
    assert N_SPECIALS <= ex.input_ids[1] < len(VOCAB)
    assert ex.label_ids[1] == B
    assert ex.predict_mask == [False, True]


def test_apply_insert_before_position_with_ins_label():
    ex = apply_plan([A, B, C, D], plan(4, {2: WarpOp.INSERT}), VOCAB, seed=2)
    assert len(ex.input_ids) == 5
    assert ex.input_ids[:2] == [A, B]
    assert ex.input_ids[3:] == [C, D]  # original token at 2 follows the insertion
    assert N_SPECIALS <= ex.input_ids[2] < len(VOCAB)
    assert ex.label_ids[2] == INS_ID
    assert ex.predict_mask == [False, False, True, False, False]


def test_apply_drop_labels_next_token():
    ex = apply_plan([A, B, C], plan(3, {1: WarpOp.DROP}), VOCAB, seed=0)
    assert ex.input_ids == [A, C]
    assert ex.label_ids == [IGNORE_LABEL, B]
    assert ex.predict_mask == [False, True]


def test_apply_consecutive_drop_repair_example():
    p = repair_plan(plan(2, {0: WarpOp.DROP, 1: WarpOp.DROP}))
    ex = apply_plan([A, B], p, VOCAB, seed=0)
    assert ex.input_ids == [B]
    assert ex.label_ids == [A]
    assert ex.predict_mask == [True]


def test_apply_length_algebra():
    p = plan(4, {0: WarpOp.INSERT, 2: WarpOp.DROP})
    ex = apply_plan([A, B, C, D], p, VOCAB, seed=3)
    assert len(ex.input_ids) == 4 - 1 + 1
    assert len(ex.input_ids) == len(ex.label_ids) == len(ex.predict_mask)


def test_apply_rejects_illegal_plan():
    with pytest.raises(ValueError, match="illegal warp plan"):
        apply_plan([A, B], plan(2, {1: WarpOp.DROP}), VOCAB, seed=0)


def test_apply_rejects_length_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        apply_plan([A, B, C], plan(2, {}), VOCAB, seed=0)


def test_apply_rejects_special_ids_in_input():
    with pytest.raises(ValueError, match="special ids"):
        apply_plan([A, MASK_ID], plan(2, {}), VOCAB, seed=0)


def test_apply_treats_unk_as_ordinary_token():
    ex = apply_plan([A, UNK_ID, B], plan(3, {1: WarpOp.MASK}), VOCAB, seed=0)
    assert ex.input_ids == [A, MASK_ID, B]
    assert ex.label_ids[1] == UNK_ID and ex.predict_mask == [False, True, False]
    for bad in (PAD_ID, CLS_ID, MASK_ID, INS_ID):
        with pytest.raises(ValueError, match="special ids other than UNK"):
            apply_plan([A, bad], plan(2, {}), VOCAB, seed=0)


def test_apply_deterministic_given_seed():
    p = plan(4, {0: WarpOp.RAND, 2: WarpOp.INSERT})
    ex1 = apply_plan([A, B, C, D], p, VOCAB, seed=9)
    ex2 = apply_plan([A, B, C, D], p, VOCAB, seed=9)
    ex3 = apply_plan([A, B, C, D], p, VOCAB, seed=10)
    assert ex1.input_ids == ex2.input_ids
    assert ex1.input_ids != ex3.input_ids  # 1/(V-5)^2 chance of collision


def test_random_tokens_never_special():
    for seed in range(50):
        ex = apply_plan([A], plan(1, {0: WarpOp.RAND}), VOCAB, seed=seed)
        assert ex.input_ids[0] >= N_SPECIALS


def test_warp_end_to_end_deterministic():
    ids = [A, B, C, D] * 5
    e1 = warp(ids, WarpConfig.wlm(), VOCAB, seed=123)
    e2 = warp(ids, WarpConfig.wlm(), VOCAB, seed=123)
    assert e1.input_ids == e2.input_ids and e1.label_ids == e2.label_ids
    assert e1.original_ids == ids


def test_mlm_never_inserts_or_drops():
    ids = list(range(5, 45))
    for seed in range(200):
        p = sample_plan(len(ids), WarpConfig.mlm(), seed)
        assert not {WarpOp.INSERT, WarpOp.DROP} & set(p.ops.values())
        ex = apply_plan(ids, p, VOCAB, derive_seed(seed))
        assert len(ex.input_ids) == len(ids)


def test_render_example_shows_plan(capsys=None):
    ex = apply_plan([A, B, C], plan(3, {1: WarpOp.MASK}), VOCAB, seed=0)
    text = render_example(ex, VOCAB)
    assert "1:MASK" in text and "[MASK]" in text
    assert text.count("\n") == 4


# ------------------------------------------------------------- properties

ops_strategy = st.dictionaries(
    st.integers(min_value=0, max_value=19),
    st.sampled_from(list(OP_ORDER)),
    max_size=12,
)


@given(seq_len=st.integers(1, 20), ops=ops_strategy)
def test_repair_yields_legal_plan(seq_len, ops):
    ops = {i: op for i, op in ops.items() if i < seq_len}
    p = repair_plan(WarpPlan(seq_len, ops))
    assert is_legal(p)


@given(seq_len=st.integers(1, 20), ops=ops_strategy)
def test_repair_is_idempotent(seq_len, ops):
    ops = {i: op for i, op in ops.items() if i < seq_len}
    once = repair_plan(WarpPlan(seq_len, ops))
    twice = repair_plan(once)
    assert once.ops == twice.ops


@given(seq_len=st.integers(1, 20), ops=ops_strategy)
def test_repair_fixes_nothing_on_legal_plans(seq_len, ops):
    ops = {i: op for i, op in ops.items() if i < seq_len}
    p = WarpPlan(seq_len, ops)
    if is_legal(p):
        assert repair_plan(p).ops == ops


@settings(max_examples=300)
@given(seq_len=st.integers(0, 20), ops=ops_strategy)
def test_is_legal_matches_adjacency_scan_on_unrepaired_plans(seq_len, ops):
    """Oracle from the definition: a plan is illegal iff some op sits right
    after a DROP or the final position is a DROP."""
    ops = {i: op for i, op in ops.items() if i < seq_len}
    illegal = ops.get(seq_len - 1) is WarpOp.DROP
    for pos in ops:
        if ops.get(pos - 1) is WarpOp.DROP:
            illegal = True
    assert is_legal(WarpPlan(seq_len, ops)) == (not illegal)


@settings(max_examples=60)
@given(seq_len=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_sampled_plans_apply_with_exact_length_algebra(seq_len, seed):
    ids = [N_SPECIALS + (i % 30) for i in range(seq_len)]
    p = sample_plan(seq_len, WarpConfig.wlm(), seed)
    ex = apply_plan(ids, p, VOCAB, derive_seed(seed, 1))
    ops = list(p.ops.values())
    n_ins, n_drop = ops.count(WarpOp.INSERT), ops.count(WarpOp.DROP)
    assert len(ex.input_ids) == seq_len - n_drop + n_ins
    # labeled position count: every op contributes exactly one prediction
    assert sum(ex.predict_mask) == len(p.ops)
    # unlabeled positions carry the original token
    k = 0
    for i, x in enumerate(ids):
        op = p.ops.get(i)
        if op is WarpOp.INSERT:
            k += 1  # inserted token sits before position i's emission
        if op is WarpOp.DROP:
            continue
        if op is None:
            assert ex.input_ids[k] == x
        k += 1


@given(seq_len=st.integers(0, 64), seed=st.integers(0, 2**32 - 1))
def test_raw_plan_positions_in_range(seq_len, seed):
    p = sample_raw_plan(seq_len, WarpConfig.wlm(), seed)
    assert all(0 <= i < seq_len for i in p.ops)
    assert p.seq_len == seq_len


def emitting_apply_plan(original_ids, p, vocab, seed):
    """apply_plan as a left-to-right pass that emits each warped position in
    turn: the reference for the implementation that edits at op positions."""
    rng = np.random.default_rng(seed)
    input_ids, label_ids, predict = [], [], []

    def emit(tok, label, pred):
        input_ids.append(tok)
        label_ids.append(label)
        predict.append(pred)

    pending = None  # dropped token waiting to label the next emission
    for i, x in enumerate(original_ids):
        op = p.ops.get(i)
        if op is WarpOp.INSERT:
            emit(int(rng.integers(N_SPECIALS, len(vocab))), INS_ID, True)
            op = None  # the original token at i is emitted unmodified
        if op is WarpOp.DROP:
            pending = x
        elif op is WarpOp.MASK:
            emit(MASK_ID, x, True)
        elif op is WarpOp.KEEP:
            emit(x, x, True)
        elif op is WarpOp.RAND:
            emit(int(rng.integers(N_SPECIALS, len(vocab))), x, True)
        elif pending is not None:
            emit(x, pending, True)
            pending = None
        else:
            emit(x, IGNORE_LABEL, False)
    return input_ids, label_ids, predict


@settings(max_examples=300)
@given(ids=st.lists(st.sampled_from([UNK_ID, *range(N_SPECIALS, len(VOCAB))]),
                    min_size=1, max_size=20),
       ops=ops_strategy, seed=st.integers(0, 2**32 - 1))
def test_apply_plan_matches_emitting_reference(ids, ops, seed):
    p = repair_plan(WarpPlan(len(ids), {i: op for i, op in ops.items() if i < len(ids)}))
    ex = apply_plan(ids, p, VOCAB, seed)
    assert (ex.input_ids, ex.label_ids, ex.predict_mask) == emitting_apply_plan(
        ids, p, VOCAB, seed)
