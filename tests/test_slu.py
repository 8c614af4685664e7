import math
import random
import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from warplm.nnet import ModelConfig, encoder_backward, forward, init_model
from warplm.nnet import load_checkpoint, load_encoder, save_encoder
from warplm.nnet.checkpoint import HEADER_KEYS
from warplm.nnet.model import head_shapes
from warplm.slu import (
    OUTSIDE,
    SLUModel,
    TaggedUtterance,
    _trainable,
    conll_f1,
    count_truncated,
    encode_slu_batch,
    evaluate_slu,
    finetune,
    init_slu_model,
    intent_accuracy,
    kept_epoch,
    iob_is_valid,
    iob_repair,
    iob_spans,
    joint_accuracy,
    label_inventory,
    load_slu,
    load_slu_file,
    parse_slu_text,
    save_slu,
    save_slu_file,
    slu_loss_and_grads,
    slu_predict,
)
from warplm.synth import synth_slu_utterances, synth_vocab
from warplm.textcore import CLS_ID, PAD_ID

VOCAB = synth_vocab()
TAG_ALPHABET = [OUTSIDE, "B-a", "I-a", "B-b", "I-b"]


# -------------------------------------------------------------------- IOB

def test_iob_validity():
    assert iob_is_valid(["O", "B-x", "I-x", "O"])
    assert iob_is_valid(["B-x", "B-x"])
    assert not iob_is_valid(["I-x"])
    assert not iob_is_valid(["B-x", "I-y"])
    assert not iob_is_valid(["O", "I-x"])
    assert not iob_is_valid(["mid-token"])


def test_iob_repair_promotes_orphans():
    assert iob_repair(["I-x", "I-x", "O"]) == ["B-x", "I-x", "O"]
    assert iob_repair(["B-x", "I-y"]) == ["B-x", "B-y"]
    assert iob_repair(["O", "I-x", "I-x"]) == ["O", "B-x", "I-x"]


@given(st.lists(st.sampled_from(TAG_ALPHABET), max_size=12))
def test_iob_repair_always_valid_and_idempotent(tags):
    rep = iob_repair(tags)
    assert iob_is_valid(rep)
    assert iob_repair(rep) == rep
    if iob_is_valid(tags):
        assert rep == tags


@given(st.lists(st.sampled_from(TAG_ALPHABET), max_size=12))
def test_iob_repair_preserves_spans(tags):
    assert iob_spans(iob_repair(tags)) == iob_spans(tags)


def test_iob_spans_basic():
    tags = ["O", "B-x", "I-x", "O", "B-y", "B-x"]
    assert iob_spans(tags) == {("x", 1, 2), ("y", 4, 4), ("x", 5, 5)}
    assert iob_spans(["I-x", "I-x"]) == {("x", 0, 1)}  # orphan starts a span
    assert iob_spans([]) == set()


def strict_iob2(tags):
    """Strict IOB2 from the definition: every tag is O, B-<type> or
    I-<type> (type non-empty), and every I-X follows a B-X or an I-X."""
    for i, t in enumerate(tags):
        if t == "O":
            continue
        if len(t) < 3 or t[:2] not in ("B-", "I-"):
            return False
        if t[0] == "I" and (i == 0 or tags[i - 1] not in ("B" + t[1:], "I" + t[1:])):
            return False
    return True


NON_IOB_TAGS = ["B-", "I-", "B_a", "I_a", "o", "", "mid-token", "b-a", "X-a"]


@settings(max_examples=300)
@given(st.lists(st.sampled_from(TAG_ALPHABET + NON_IOB_TAGS), max_size=8))
def test_iob_is_valid_matches_strict_iob2_definition(tags):
    assert iob_is_valid(tags) == strict_iob2(tags)


def brute_spans(tags):
    """Quantified boundary-condition definition of spans, independent of the
    left-to-right scan in iob_spans."""
    n = len(tags)
    types = {t[2:] for t in tags if len(t) > 2 and t[1] == "-"}
    spans = set()
    for typ in types:
        for s in range(n):
            starts = tags[s] == "B-" + typ or (
                tags[s] == "I-" + typ
                and (s == 0 or tags[s - 1] not in ("B-" + typ, "I-" + typ))
            )
            if not starts:
                continue
            for e in range(s, n):
                middle = all(tags[k] == "I-" + typ for k in range(s + 1, e + 1))
                ends = e == n - 1 or tags[e + 1] != "I-" + typ
                if middle and ends:
                    spans.add((typ, s, e))
    return spans


@given(st.lists(st.sampled_from(TAG_ALPHABET), max_size=10))
def test_iob_spans_matches_brute_force(tags):
    assert iob_spans(tags) == brute_spans(tags)


# ----------------------------------------------------------------- metrics

def brute_f1(gold_seqs, pred_seqs):
    tp = np_ = ng = 0
    for g, p in zip(gold_seqs, pred_seqs):
        gs, ps = brute_spans(g), brute_spans(p)
        tp += len(gs & ps)
        np_ += len(ps)
        ng += len(gs)
    if np_ == 0 and ng == 0:
        return 1.0, 1.0, 1.0
    prec = tp / np_ if np_ else 0.0
    rec = tp / ng if ng else 0.0
    return prec, rec, (2 * prec * rec / (prec + rec) if prec + rec else 0.0)


def test_conll_f1_hand_case():
    gold = [["B-x", "I-x", "O", "O"]]
    pred = [["B-x", "I-x", "O", "B-y"]]
    p, r, f1 = conll_f1(gold, pred)
    assert (p, r) == (0.5, 1.0)
    assert abs(f1 - 2 / 3) < 1e-12


def test_conll_f1_boundary_miss_scores_zero():
    # off-by-one span end: no credit
    p, r, f1 = conll_f1([["B-x", "I-x", "O"]], [["B-x", "O", "O"]])
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def test_conll_f1_empty_conventions():
    assert conll_f1([["O", "O"]], [["O", "O"]]) == (1.0, 1.0, 1.0)
    assert conll_f1([["B-x"]], [["O"]]) == (0.0, 0.0, 0.0)
    assert conll_f1([["O"]], [["B-x"]]) == (0.0, 0.0, 0.0)


def test_conll_f1_matches_brute_force_random():
    rnd = random.Random(0)
    for _ in range(1000):
        n = rnd.randint(1, 10)
        gold = [[rnd.choice(TAG_ALPHABET) for _ in range(n)]]
        pred = [[rnd.choice(TAG_ALPHABET) for _ in range(n)]]
        assert conll_f1(gold, pred) == brute_f1(gold, pred)


def test_metrics_gold_vs_gold_all_ones():
    utts = synth_slu_utterances(20, VOCAB, seed=0)
    intents = [u.intent for u in utts]
    tags = [u.tags for u in utts]
    assert intent_accuracy(intents, intents) == 1.0
    assert conll_f1(tags, tags) == (1.0, 1.0, 1.0)
    assert joint_accuracy(intents, intents, tags, tags) == 1.0


def test_joint_bounded_by_intent_and_sequence_accuracy():
    rnd = random.Random(1)
    intents = ["a", "b", "a", "c", "b"]
    for _ in range(200):
        gi = [rnd.choice(intents) for _ in range(5)]
        pi = [rnd.choice(intents) for _ in range(5)]
        gt = [[rnd.choice(TAG_ALPHABET) for _ in range(4)] for _ in range(5)]
        pt = [[rnd.choice(TAG_ALPHABET) for _ in range(4)] for _ in range(5)]
        j = joint_accuracy(gi, pi, gt, pt)
        seq_acc = sum(a == b for a, b in zip(gt, pt)) / 5
        assert j <= min(intent_accuracy(gi, pi), seq_acc) + 1e-12


def test_metric_errors():
    with pytest.raises(ValueError, match="gold vs"):
        intent_accuracy(["a"], ["a", "b"])
    with pytest.raises(ValueError, match="empty evaluation set"):
        intent_accuracy([], [])
    with pytest.raises(ValueError, match="length mismatch"):
        conll_f1([["O", "O"]], [["O"]])


# ------------------------------------------------------------- dataset I/O

def test_slu_file_round_trip(tmp_path):
    utts = synth_slu_utterances(25, VOCAB, seed=3)
    p = tmp_path / "set.tsv"
    save_slu_file(p, utts, VOCAB)
    back = load_slu_file(p, VOCAB)
    assert [(u.token_ids, u.tags, u.intent) for u in back] == [
        (u.token_ids, u.tags, u.intent) for u in utts
    ]
    save_slu_file(tmp_path / "again.tsv", back, VOCAB)
    assert (tmp_path / "set.tsv").read_bytes() == (tmp_path / "again.tsv").read_bytes()


def test_slu_file_format_shape(tmp_path):
    u = TaggedUtterance(VOCAB.encode("play some jazz"), ["O", "O", "B-genre"],
                        "play_music")
    p = tmp_path / "one.tsv"
    save_slu_file(p, [u], VOCAB)
    lines = p.read_text().splitlines()
    assert lines[0] == "#intent\tplay_music"
    assert lines[1] == "play\tO"
    assert lines[3] == "jazz\tB-genre"


def test_parse_errors():
    with pytest.raises(ValueError, match="without #intent"):
        parse_slu_text("play\tO\n\n", VOCAB)
    with pytest.raises(ValueError, match="no tokens"):
        parse_slu_text("#intent\tx\n\n", VOCAB)
    with pytest.raises(ValueError, match="token<TAB>tag"):
        parse_slu_text("#intent\tx\nplay O no tabs\n\n", VOCAB)
    with pytest.raises(ValueError, match="duplicate #intent"):
        parse_slu_text("#intent\tx\n#intent\ty\nplay\tO\n\n", VOCAB)


@pytest.mark.parametrize("text,message", [
    ("a\tO\nb\tO\n\n", "line 1: utterance without #intent header"),
    ("x\tO\n", "line 1: utterance without #intent header"),
    ("#intent\tx\n\n", "line 1: utterance with no tokens"),
    ("#intent\tx\nplay\tO\n\n\n\nplay\tO\njazz\tO\n", "line 6: utterance without #intent header"),
])
def test_parse_errors_name_the_line_the_utterance_starts_on(text, message):
    with pytest.raises(ValueError) as e:
        parse_slu_text(text, VOCAB)
    assert str(e.value) == message


@pytest.mark.parametrize("tag", ["B_city", "b-city", "B-", "I-", "mid-token", "o", ""])
def test_parse_rejects_a_tag_that_is_not_iob2(tag):
    with pytest.raises(ValueError, match=re.escape(f"line 3: bad IOB2 tag {tag!r}")):
        parse_slu_text(f"#intent\tx\nplay\tO\njazz\t{tag}\n\n", VOCAB)


def test_parse_accepts_an_orphan_inside_tag():
    # conlleval reads an orphan I-X as the start of a span
    [u] = parse_slu_text("#intent\tx\nplay\tO\njazz\tI-genre\n\n", VOCAB)
    assert u.tags == ["O", "I-genre"]


def test_load_slu_file_names_the_file_in_parse_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("#intent\tx\nbook\n\n")
    with pytest.raises(ValueError) as e:
        load_slu_file(bad, VOCAB)
    assert str(e.value) == f"{bad}: line 2: expected 'token<TAB>tag', got 'book'"


def test_count_truncated_counts_what_encode_slu_batch_cuts():
    enc = init_model(ModelConfig(len(VOCAB), d_model=8, n_layers=1, n_heads=2, d_ff=16,
                                 max_len=4))
    utts = [TaggedUtterance(VOCAB.encode(s), ["O"] * len(s.split()), "x")
            for s in ("play jazz", "play some jazz", "play some jazz now")]
    model = init_slu_model(enc, ["x"], ["O"])
    _, pad_mask, _, _, _ = encode_slu_batch(model, utts)
    kept = pad_mask.sum(axis=1) - 1  # tokens kept after CLS
    assert kept.tolist() == [2, 3, 3]
    assert count_truncated(utts, 4) == 1
    assert count_truncated(utts, 5) == 0


def test_tagged_utterance_validation():
    with pytest.raises(ValueError):
        TaggedUtterance([5, 6], ["O"], "x")
    with pytest.raises(ValueError, match="empty"):
        TaggedUtterance([], [], "x")


# ------------------------------------------------------------------- model

HEADS = tuple(head_shapes(1, 1, 1))


def desk_encoder(seed=0):
    return init_model(ModelConfig.desk(len(VOCAB)), seed=seed)


def test_encode_slu_batch_layout():
    utts = synth_slu_utterances(4, VOCAB, seed=1)
    model = init_slu_model(desk_encoder(), *label_inventory(utts))
    ids, pad, intent_ids, tag_ids, tag_mask = encode_slu_batch(model, utts)
    assert np.all(ids[:, 0] == CLS_ID)
    assert np.all(tag_ids[:, 0] == -1)
    L = max(len(u.token_ids) for u in utts) + 1
    assert ids.shape == (4, L)
    for i, u in enumerate(utts):
        assert pad[i, : len(u.token_ids) + 1].all()
        assert not pad[i, len(u.token_ids) + 1 :].any()
        assert ids[i, len(u.token_ids) + 1 :].sum() == PAD_ID
        assert tag_mask[i].sum() == len(u.token_ids)


def test_slu_loss_uniform_logits_oracle():
    """With zeroed heads all logits are 0, so the joint loss must equal
    ln(n_intents) + ln(n_tags) exactly."""
    utts = synth_slu_utterances(6, VOCAB, seed=2)
    intents, tags = label_inventory(utts)
    model = init_slu_model(desk_encoder(), intents, tags)
    for k in HEADS:
        model.params[k][:] = 0.0
    loss, grads = slu_loss_and_grads(model, utts)
    assert abs(loss - (math.log(len(intents)) + math.log(len(tags)))) < 1e-5
    assert set(grads) >= {"head.intent_w", "head.slot_w"}


def test_slu_grads_match_finite_differences():
    utts = synth_slu_utterances(3, VOCAB, seed=4)
    intents, tags = label_inventory(utts)
    enc = init_model(
        ModelConfig(vocab_size=len(VOCAB), d_model=16, n_layers=1, n_heads=2,
                    d_ff=24, max_len=32, dropout=0.0),
        seed=1,
    ).astype(np.float64)
    model = init_slu_model(enc, intents, tags, seed=0).astype(np.float64)
    _, grads = slu_loss_and_grads(model, utts)

    def loss_at():
        return slu_loss_and_grads(model, utts)[0]

    eps = 1e-5
    rng = np.random.default_rng(0)
    for name in ("head.slot_w", "head.intent_b", "tok_emb", "layers.0.attn.wq"):
        flat = model.params[name].reshape(-1)
        for j in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss_at()
            flat[j] = orig - eps
            lm = loss_at()
            flat[j] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[name].reshape(-1)[j]
            assert abs(fd - an) / max(1e-4, abs(fd) + abs(an)) < 1e-3, name


def full_shape_slu_reference(model, utts, dropout_rng=None, freeze_encoder=False):
    """The SLU heads as written without gathering: [B,L,S] slot logits, a
    masked cross-entropy over them, and the backward from the full d_slot."""
    ids, pad, intent_ids, tag_ids, tag_mask = encode_slu_batch(model, utts)
    P = model.params
    hidden, cache = forward(model, ids, pad, dropout_rng)

    def masked_ce(logits, labels, mask):
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        n = int(mask.sum())
        at = np.nonzero(mask) + (labels[mask],)
        d = np.exp(logp)
        d[at] -= 1.0
        d *= mask[..., None] / n
        return -float(logp[at].sum() / n), d

    i_loss, d_int = masked_ce(hidden[:, 0] @ P["head.intent_w"] + P["head.intent_b"],
                              intent_ids, np.ones(len(utts), bool))
    s_loss, d_slot = masked_ce(hidden @ P["head.slot_w"] + P["head.slot_b"], tag_ids, tag_mask)
    d_hidden = d_slot @ P["head.slot_w"].T
    d_hidden[:, 0] += d_int @ P["head.intent_w"].T
    grads = {
        "head.intent_w": hidden[:, 0].T @ d_int,
        "head.intent_b": d_int.sum(axis=0),
        "head.slot_w": np.tensordot(hidden, d_slot, axes=([0, 1], [0, 1])),
        "head.slot_b": d_slot.sum(axis=(0, 1)),
    }
    if not freeze_encoder:  # the encoder's gradients; its zeros at the heads are replaced
        grads = {**encoder_backward(model, cache, d_hidden[pad], freeze_ins=True), **grads}
    return i_loss + s_loss, grads


@pytest.mark.parametrize("freeze_encoder", [False, True])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_gathered_slu_heads_match_full_shape_reference(freeze_encoder, dropout):
    utts = synth_slu_utterances(5, VOCAB, seed=12)
    intents, tags = label_inventory(utts)
    dropped = next(t for t in tags if t != OUTSIDE)  # a tag the model cannot score
    enc = init_model(
        ModelConfig(vocab_size=len(VOCAB), d_model=16, n_layers=1, n_heads=2,
                    d_ff=24, max_len=32, dropout=dropout),
        seed=2,
    ).astype(np.float64)
    model = init_slu_model(enc, intents, [t for t in tags if t != dropped],
                           seed=1).astype(np.float64)
    rng = (lambda: np.random.default_rng(9)) if dropout else (lambda: None)
    loss, grads = slu_loss_and_grads(model, utts, dropout_rng=rng(),
                                     freeze_encoder=freeze_encoder)
    r_loss, r_grads = full_shape_slu_reference(model, utts, dropout_rng=rng(),
                                               freeze_encoder=freeze_encoder)
    _, pad, _, _, tag_mask = encode_slu_batch(model, utts)
    assert (pad[:, 1:] & ~tag_mask[:, 1:]).any()  # an unscored token inside an utterance
    assert abs(loss - r_loss) < 1e-12
    assert set(grads) == set(r_grads)
    for name in grads:
        np.testing.assert_allclose(grads[name], r_grads[name], rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_slu_grads_keep_parameter_dtype(dtype):
    utts = synth_slu_utterances(4, VOCAB, seed=3)
    model = init_slu_model(desk_encoder(), *label_inventory(utts)).astype(dtype)
    _, grads = slu_loss_and_grads(model, utts, dropout_rng=np.random.default_rng(0))
    assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}


def test_slu_predict_shapes_and_inventory():
    utts = synth_slu_utterances(5, VOCAB, seed=5)
    model = init_slu_model(desk_encoder(), *label_inventory(utts))
    intents, tag_seqs = slu_predict(model, utts)
    assert len(intents) == len(tag_seqs) == 5
    for u, seq in zip(utts, tag_seqs):
        assert len(seq) == len(u.token_ids)
        assert all(t in model.tag_labels for t in seq)
    assert all(i in model.intent_labels for i in intents)


def test_slu_predict_matches_full_shape_logits():
    """Argmaxes of [B,L,S] slot logits at every position, read back per
    utterance; tokens past max_len get O."""
    utts = synth_slu_utterances(7, VOCAB, seed=5)
    utts.append(TaggedUtterance(utts[0].token_ids * 9, utts[0].tags * 9, utts[0].intent))
    model = init_slu_model(init_model(ModelConfig.desk(len(VOCAB), max_len=16), seed=3),
                           *label_inventory(utts), seed=1)
    ids, pad, *_ = encode_slu_batch(model, utts)
    hidden, _ = forward(model, ids, pad)
    P = model.params
    want_int = np.argmax(hidden[:, 0] @ P["head.intent_w"] + P["head.intent_b"], axis=-1)
    want_tag = np.argmax(hidden @ P["head.slot_w"] + P["head.slot_b"], axis=-1)
    intents, tag_seqs = slu_predict(model, utts)
    assert intents == [model.intent_labels[i] for i in want_int]
    for i, (u, seq) in enumerate(zip(utts, tag_seqs)):
        n = min(len(u.token_ids), ids.shape[1] - 1)
        assert seq == [model.tag_labels[t] for t in want_tag[i, 1 : n + 1]] + [OUTSIDE] * (
            len(u.token_ids) - n)
    assert len(tag_seqs[-1]) > ids.shape[1] - 1


def test_unknown_intent_in_train_batch_errors():
    utts = synth_slu_utterances(3, VOCAB, seed=6)
    model = init_slu_model(desk_encoder(), ["other"], label_inventory(utts)[1])
    with pytest.raises(ValueError, match="intent label not in model inventory"):
        slu_loss_and_grads(model, utts)


def test_finetune_overfits_small_set():
    """A desk-size encoder fine-tuned on 50 utterances must reach perfect
    train-set joint accuracy; this pins the whole training loop end to end."""
    utts = synth_slu_utterances(50, VOCAB, seed=7)
    model, hist = finetune(desk_encoder(), utts, utts, epochs=60, batch_size=16,
                           lr=1e-3, seed=0)
    best = max(h.joint_accuracy for h in hist)
    assert best == 1.0, f"best joint accuracy {best}"
    m = evaluate_slu(model, utts)
    assert m.joint_accuracy == 1.0
    assert m.intent_accuracy == 1.0
    assert m.slot_f1 == 1.0


def test_finetune_deterministic():
    utts = synth_slu_utterances(20, VOCAB, seed=8)
    m1, h1 = finetune(desk_encoder(), utts[:16], utts[16:], epochs=2, seed=3)
    m2, h2 = finetune(desk_encoder(), utts[:16], utts[16:], epochs=2, seed=3)
    assert m1.params.keys() == m2.params.keys()
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])
    assert [asdict(r) for r in h1] == [asdict(r) for r in h2]


def test_finetune_returns_the_weights_it_trained():
    """The returned model views the trained (kept-epoch) parameters: it
    scores the validation set as the kept epoch did, and neither its
    encoder nor its heads are still at their initial values."""
    utts = synth_slu_utterances(60, VOCAB, seed=0)
    enc = desk_encoder(seed=0)
    model, hist = finetune(enc, utts[:40], utts[40:], epochs=12, batch_size=8,
                           lr=2e-3, seed=0)
    kept = kept_epoch(hist)
    assert kept is not hist[-1]  # the kept weights had to be restored
    m = evaluate_slu(model, utts[40:])
    assert (m.intent_accuracy, m.slot_f1, m.joint_accuracy) == (
        kept.intent_accuracy, kept.slot_f1, kept.joint_accuracy)
    initial = init_slu_model(enc, model.intent_labels, model.tag_labels, seed=0)
    assert not all(np.array_equal(enc.params[k], model.params[k]) for k in enc.params)
    for k in HEADS:
        assert not np.array_equal(initial.params[k], model.params[k]), k


def test_finetune_does_not_mutate_input_encoder():
    enc = desk_encoder()
    before = {k: v.copy() for k, v in enc.params.items()}
    utts = synth_slu_utterances(12, VOCAB, seed=9)
    finetune(enc, utts[:8], utts[8:], epochs=1, seed=0)
    for k in before:
        assert np.array_equal(before[k], enc.params[k]), k


def test_finetune_freeze_encoder_leaves_encoder_untouched():
    utts = synth_slu_utterances(16, VOCAB, seed=10)
    enc = desk_encoder(seed=5)
    model, _ = finetune(enc, utts[:12], utts[12:], epochs=2, seed=1,
                        freeze_encoder=True)
    for k in enc.params:
        assert np.array_equal(enc.params[k], model.params[k]), k


def test_slu_checkpoint_round_trip(tmp_path):
    utts = synth_slu_utterances(10, VOCAB, seed=11)
    model = init_slu_model(desk_encoder(), *label_inventory(utts))
    p = tmp_path / "slu.ckpt"
    save_slu(p, model, VOCAB.content_hash)
    back, header = load_slu(p, expect_vocab_hash=VOCAB.content_hash)
    assert back.intent_labels == model.intent_labels
    assert back.tag_labels == model.tag_labels
    i1, t1 = slu_predict(model, utts)
    i2, t2 = slu_predict(back, utts)
    assert i1 == i2 and t1 == t2
    with pytest.raises(ValueError, match="vocab hash mismatch"):
        load_slu(p, expect_vocab_hash="0" * 64)


def labelled_model():
    utts = synth_slu_utterances(10, VOCAB, seed=11)
    return init_slu_model(desk_encoder(), *label_inventory(utts))


def test_checkpoint_headers_hold_exactly_the_keys_of_their_kind(tmp_path):
    model = labelled_model()
    save_encoder(tmp_path / "encoder.ckpt", desk_encoder(), VOCAB.content_hash)
    save_slu(tmp_path / "slu.ckpt", model, VOCAB.content_hash)
    for kind in ("encoder", "slu"):
        header, _ = load_checkpoint(tmp_path / f"{kind}.ckpt")
        assert header.keys() == {"kind"} | HEADER_KEYS[kind].keys()
        assert header["kind"] == kind


def test_load_encoder_reads_the_encoder_of_an_slu_checkpoint(tmp_path):
    model = labelled_model()
    save_slu(tmp_path / "slu.ckpt", model, VOCAB.content_hash)
    encoder, header = load_encoder(tmp_path / "slu.ckpt")
    assert header["kind"] == "slu"
    assert encoder.config == model.config
    assert encoder.params.keys() == model.params.keys() - set(HEADS)
    assert not any(k.startswith("head.") for k in encoder.params)
    for k, got in encoder.params.items():
        v = model.params[k]
        assert got.dtype == v.dtype and got.tobytes() == v.tobytes(), k


@pytest.mark.parametrize("freeze_encoder", [False, True])
def test_slu_grads_written_into_adams_buffer_match_a_fresh_buffer(freeze_encoder):
    """finetune hands Adam's gradient views over; whatever they held, they
    end up with the bits of a fresh call, frozen encoder included."""
    from warplm.nnet import init_adam
    utts = synth_slu_utterances(6, VOCAB, seed=8)
    model = init_slu_model(desk_encoder(), *label_inventory(utts), seed=2)
    rng = lambda: np.random.default_rng(4)
    want_loss, want = slu_loss_and_grads(model, utts, dropout_rng=rng(),
                                         freeze_encoder=freeze_encoder)
    adam = init_adam(_trainable(model, freeze_encoder))
    adam.grad[...] = np.nan
    loss, grads = slu_loss_and_grads(model, utts, dropout_rng=rng(),
                                     freeze_encoder=freeze_encoder, grads=adam.grads)
    assert grads is adam.grads and loss == want_loss
    assert set(grads) == set(want)
    for name in want:
        assert grads[name].tobytes() == want[name].tobytes(), name
