import math
import re
import subprocess
import sys
import textwrap
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf as scipy_erf

from warplm.nnet import (
    AdamState,
    EncoderModel,
    ModelConfig,
    encoder_backward,
    forward,
    init_adam,
    init_model,
    lm_backward,
    lm_logits,
    lm_loss,
    lm_loss_and_grads,
    load_checkpoint,
    load_encoder,
    param_count,
    param_shapes,
    save_checkpoint,
    save_encoder,
    softmax,
    step,
)
import warplm.nnet.encoder
from warplm.nnet.adam import BLOCK
from warplm.nnet.encoder import LN_EPS, _gelu, _gelu_grad, _layer_norm, _ce
from warplm.textcore import INS_ID

TINY = ModelConfig(vocab_size=17, d_model=8, n_layers=2, n_heads=2, d_ff=12,
                   max_len=10, dropout=0.0)


def tiny_model(seed=3, dtype=np.float64):
    return init_model(TINY, seed=seed).astype(dtype)


def tiny_batch(seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, TINY.vocab_size, size=(2, 7))
    pad = np.ones((2, 7), dtype=bool)
    pad[0, 5:] = False
    ids[0, 5:] = 0
    labels = rng.integers(5, TINY.vocab_size, size=(2, 7))
    pm = (rng.random((2, 7)) < 0.5) & pad
    pm[1, 0] = True  # guarantee at least one prediction
    return ids, pad, labels, pm


# ------------------------------------------------------------------ pieces

def gelu(x):
    return _gelu(x)[0]


def test_gelu_known_values():
    # gelu(0) = 0, gelu(x) - gelu(-x) = x, gelu(large) ~ identity
    assert gelu(np.float64(0.0)) == 0.0
    x = np.linspace(-3, 3, 13)
    np.testing.assert_allclose(gelu(x) - gelu(-x), x, atol=1e-12)
    assert abs(gelu(np.float64(10.0)) - 10.0) < 1e-12
    # gelu(1) = 0.5 * (1 + erf(1/sqrt2)) = 0.841344746...
    assert abs(gelu(np.float64(1.0)) - 0.8413447460685429) < 1e-12


def test_gelu_grad_matches_fd():
    x = np.linspace(-4, 4, 41)
    eps = 1e-6
    fd = (gelu(x + eps) - gelu(x - eps)) / (2 * eps)
    np.testing.assert_allclose(_gelu_grad(x, _gelu(x)[1]), fd, atol=1e-8)


def gelu_and_grad_two_erf(u, erf):
    """GELU and its derivative, each computing its own erf (the reference
    for the erf that `_gelu` hands to `_gelu_grad`)."""
    inv_sqrt2, inv_sqrt2pi = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0 * math.pi)
    a = 0.5 * u * (1.0 + erf(u * inv_sqrt2))
    g = 0.5 * (1.0 + erf(u * inv_sqrt2)) + u * np.exp(-0.5 * u * u) * inv_sqrt2pi
    return a, g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_grad_from_the_forward_erf_is_bit_identical(dtype):
    u = np.random.default_rng(0).normal(0.0, 2.0, size=(3, 5, 12)).astype(dtype)
    a, phi2 = _gelu(u)
    ref_a, ref_g = gelu_and_grad_two_erf(u, warplm.nnet.encoder.erf)
    g = _gelu_grad(u, phi2)
    assert a.dtype == phi2.dtype == g.dtype == dtype
    assert a.tobytes() == ref_a.tobytes()
    assert (0.5 * u * phi2).tobytes() == ref_a.tobytes()  # encoder_backward's recompute
    assert g.tobytes() == ref_g.tobytes()


def test_one_erf_call_per_layer_per_training_step(monkeypatch):
    calls = []
    real_erf = warplm.nnet.encoder.erf

    def counting_erf(x):
        calls.append(x.shape)
        return real_erf(x)

    monkeypatch.setattr(warplm.nnet.encoder, "erf", counting_erf)
    ids, pad, labels, pm = tiny_batch()
    lm_loss_and_grads(tiny_model(), ids, pad, labels, pm)
    assert len(calls) == TINY.n_layers


ERF32_EDGES = np.array([0.0, 4.0, -4.0, 1e30, -1e30, np.inf, -np.inf], np.float32)


def erf32_samples():
    normal = np.random.default_rng(0).normal(0.0, 2.0, size=200_000).astype(np.float32)
    return np.concatenate([normal, ERF32_EDGES])


def test_float32_erf_matches_float64_erf():
    x = erf32_samples()
    y = warplm.nnet.encoder.erf(x)
    assert y.dtype == np.float32
    assert np.max(np.abs(y.astype(np.float64) - scipy_erf(x.astype(np.float64)))) <= 5e-7
    np.testing.assert_array_equal(warplm.nnet.encoder.erf(ERF32_EDGES),
                                  [0.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])


def test_float64_erf_matches_scipy_erf():
    x = np.concatenate([np.random.default_rng(0).normal(0.0, 3.0, size=100_000),
                        ERF32_EDGES.astype(np.float64)])
    y = warplm.nnet.encoder.erf(x)
    assert y.dtype == np.float64
    np.testing.assert_allclose(y, scipy_erf(x), rtol=0, atol=1e-15)
    assert warplm.nnet.encoder.erf(np.float64(0.5)).shape == ()


def test_float32_erf_is_bounded_and_exactly_odd():
    x = erf32_samples()
    y = warplm.nnet.encoder.erf(x)
    assert np.all(np.abs(y) <= 1.0)
    assert warplm.nnet.encoder.erf(-x).tobytes() == (-y).tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_training_step_does_not_import_scipy(dtype):
    src = Path(warplm.nnet.encoder.__file__).resolve().parents[2]
    code = textwrap.dedent(f"""
        import sys
        sys.modules["scipy"] = None  # any scipy import raises ImportError
        sys.path.insert(0, {str(src)!r})
        import numpy as np
        import warplm.cli  # imports every module of the package
        from warplm.nnet import ModelConfig, init_model, lm_loss_and_grads
        cfg = ModelConfig(vocab_size=17, d_model=8, n_layers=2, n_heads=2, d_ff=12,
                          max_len=10, dropout=0.1)
        model = init_model(cfg, seed=0)
        assert model.params["tok_emb"].dtype == np.float32
        model = model.astype(np.{dtype})
        ids = np.arange(5, 12).reshape(1, 7)
        mask = np.ones((1, 7), bool)
        _, _, _, grads = lm_loss_and_grads(model, ids, mask, ids, mask,
                                           dropout_rng=np.random.default_rng(0))
        assert all(g.dtype == np.{dtype} for g in grads.values())
        print(sorted(m for m, mod in sys.modules.items()
                     if m.split(".")[0] == "scipy" and mod is not None))
    """)
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True).stdout
    assert out == "[]\n"


def test_layer_norm_statistics():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=(2, 5, 8))
    g = np.ones(8)
    b = np.zeros(8)
    y, _ = _layer_norm(x, g, b)
    np.testing.assert_allclose(y.mean(-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(-1), 1.0, atol=1e-4)  # off by eps only
    var = x.var(-1)
    np.testing.assert_allclose(y.var(-1), var / (var + LN_EPS), rtol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 9))
    p = softmax(x)
    np.testing.assert_allclose(p.sum(-1), 1.0, atol=1e-12)
    np.testing.assert_allclose(softmax(x + 100.0), p, atol=1e-12)


# -------------------------------------------------------------- param math

def test_param_count_matches_shape_sum_and_closed_form():
    shapes = param_shapes(TINY)
    assert param_count(TINY) == sum(int(np.prod(s)) for s in shapes.values())
    V, D, F, L, M = 17, 8, 12, 2, 10
    per_layer = 2 * D + (4 * D * D + 3 * D) + 2 * D + (D * F + F) + (F * D + D)
    expected = V * D + M * D + L * per_layer + 2 * D + V
    assert param_count(TINY) == expected


def test_param_count_published_config_in_window():
    cfg = ModelConfig.base(vocab_size=30000)
    assert cfg.d_model == 512 and cfg.n_layers == 12 and cfg.n_heads == 16
    assert cfg.d_ff == 2048 and cfg.max_len == 512
    assert 50_000_000 <= param_count(cfg) <= 62_000_000


def test_init_model_statistics():
    model = init_model(ModelConfig(vocab_size=500, d_model=64), seed=0)
    w = model.params["layers.0.attn.wq"]
    assert abs(float(w.std()) - 0.02) < 0.005
    assert np.all(model.params["layers.0.ln1.g"] == 1.0)
    assert np.all(model.params["layers.0.ln1.b"] == 0.0)
    assert np.all(model.params["out_bias"] == 0.0)
    assert all(p.dtype == np.float32 for p in model.params.values())


def test_config_validation():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(vocab_size=100, d_model=10, n_heads=4)
    with pytest.raises(ValueError, match="dropout"):
        ModelConfig(vocab_size=100, dropout=1.0)


# ----------------------------------------------------------------- forward

def test_forward_shapes_and_errors():
    model = tiny_model()
    ids, pad, _, _ = tiny_batch()
    hidden, cache = forward(model, ids, pad)
    assert hidden.shape == (2, 7, 8)
    assert lm_logits(model, hidden).shape == (2, 7, 17)
    with pytest.raises(ValueError, match="exceeds max_len"):
        forward(model, np.zeros((1, 11), int), np.ones((1, 11), bool))
    with pytest.raises(ValueError, match="vocabulary range"):
        forward(model, np.full((1, 3), 17), np.ones((1, 3), bool))


def test_pad_contents_cannot_affect_nonpad_outputs():
    # swap pad-token contents; non-pad hidden states must be identical
    model = tiny_model()
    ids, pad, _, _ = tiny_batch()
    h1, _ = forward(model, ids, pad)
    ids2 = ids.copy()
    ids2[0, 5:] = (ids2[0, 5:] + 9) % 17
    h2, _ = forward(model, ids2, pad)
    np.testing.assert_array_equal(h1[pad], h2[pad])


def test_dropout_off_is_deterministic_and_on_changes_activations():
    model = tiny_model(dtype=np.float32)
    ids, pad, _, _ = tiny_batch()
    h1, _ = forward(model, ids, pad)
    h2, _ = forward(model, ids, pad)
    np.testing.assert_array_equal(h1, h2)
    droppy = EncoderModel(
        ModelConfig(**{**asdict(TINY), "dropout": 0.5}), model.params
    )
    h3, _ = forward(droppy, ids, pad, dropout_rng=np.random.default_rng(0))
    assert not np.array_equal(h1, h3)


# -------------------------------------------------------------------- loss

def test_masked_ce_hand_value():
    # single position: logits [1,2,3], label 2
    # nll = ln(e + e^2 + e^3) - 3, derived independently here
    logits = np.array([[1.0, 2.0, 3.0]])
    labels = np.array([[2]])
    pm = np.array([[True]])
    loss, acc, n = lm_loss(logits, labels, pm)
    expected = math.log(math.exp(1) + math.exp(2) + math.exp(3)) - 3.0
    assert abs(loss - expected) < 1e-12
    assert acc == 1.0 and n == 1


def test_masked_ce_gradient_rows():
    logits = np.array([[1.0, 2.0, 3.0], [0.5, 0.5, 0.5]])
    labels = np.array([0, 1])
    loss, acc, d = _ce(logits, labels)
    # each row's gradient is (softmax - one-hot) / n_rows and sums to zero
    for i in range(2):
        assert abs(d[i].sum()) < 1e-12
        expected = (softmax(logits[i]) - np.eye(3)[labels[i]]) / 2
        np.testing.assert_allclose(d[i], expected, atol=1e-12)
    assert acc == 0.0


def test_masked_ce_empty_mask_errors():
    logits = np.zeros((0, 3))
    with pytest.raises(ValueError, match="no predictions in batch"):
        lm_loss(logits, np.zeros((1, 2), int), np.zeros((1, 2), bool))


def test_lm_loss_rejects_logits_that_are_not_one_row_per_prediction():
    labels, pm = np.zeros((1, 3), int), np.array([[True, False, True]])
    assert lm_loss(np.zeros((2, 4)), labels, pm)[2] == 2
    for shape in [(1, 4), (3, 4), (1, 3, 4)]:
        with pytest.raises(ValueError, match="2 predicted rows"):
            lm_loss(np.zeros(shape), labels, pm)


# -------------------------------------------------- full gradient checking

def rel_err(a, b):
    return abs(a - b) / max(1e-4, abs(a) + abs(b))


def test_every_parameter_gets_a_nonzero_gradient():
    """No tensor is dead weight: with random nonzero biases and gains, one
    LM batch moves every tensor's gradient well above rounding. (A key bias
    reads about 1e-20: it shifts each query's scores by a constant, which
    softmax ignores.)"""
    model = tiny_model()
    rng = np.random.default_rng(5)
    for p in model.params.values():
        if p.ndim == 1:
            p += rng.normal(0.0, 0.5, p.shape)
    ids, pad, labels, pm = tiny_batch()
    grads = lm_loss_and_grads(model, ids, pad, labels, pm, freeze_ins=False)[3]
    largest = {name: float(np.abs(g).max()) for name, g in grads.items()}
    assert {name: m for name, m in largest.items() if not m > 1e-12} == {}


def test_full_finite_difference_sample():
    """Spot FD check on a random subset of entries of every parameter
    (the exhaustive sweep lives in the acceptance suite)."""
    model = tiny_model()
    ids, pad, labels, pm = tiny_batch()
    _, _, _, grads = lm_loss_and_grads(model, ids, pad, labels, pm, freeze_ins=False)

    def loss_at():
        h, _ = forward(model, ids, pad)
        l, _, _ = lm_loss(lm_logits(model, h)[pm], labels, pm)
        return l

    eps = 1e-5
    rng = np.random.default_rng(11)
    worst = 0.0
    for name, p in model.params.items():
        flat = p.reshape(-1)
        for j in rng.choice(flat.size, size=min(5, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + eps
            lp = loss_at()
            flat[j] = orig - eps
            lm = loss_at()
            flat[j] = orig
            fd = (lp - lm) / (2 * eps)
            worst = max(worst, rel_err(fd, grads[name].reshape(-1)[j]))
    assert worst < 1e-3, f"worst relative error {worst}"


def test_freeze_ins_zeroes_both_paths():
    model = tiny_model()
    ids, pad, labels, pm = tiny_batch()
    ids[1, 2] = INS_ID
    labels[1, 3] = INS_ID
    _, _, _, g_free = lm_loss_and_grads(model, ids, pad, labels, pm, freeze_ins=False)
    _, _, _, g_frozen = lm_loss_and_grads(model, ids, pad, labels, pm, freeze_ins=True)
    assert np.abs(g_free["tok_emb"][INS_ID]).max() > 0  # tied head makes it nonzero
    assert np.all(g_frozen["tok_emb"][INS_ID] == 0.0)
    # all other rows agree exactly
    other = np.arange(17) != INS_ID
    np.testing.assert_array_equal(g_free["tok_emb"][other], g_frozen["tok_emb"][other])


# ---------------------------------- gather-first head vs full-logits reference

def full_logits_reference(model, ids, pad, labels, pm, dropout_rng=None, freeze_ins=True):
    """The head as it is written without gathering: [B,T,V] logits, masked CE
    over them, and the tied backward from the full d_logits."""
    P = model.params
    hidden, cache = forward(model, ids, pad, dropout_rng)
    logits = hidden @ P["tok_emb"].T + P["out_bias"]
    z = logits - logits.max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    n = int(pm.sum())
    b, t = np.nonzero(pm)
    loss = -float(logp[b, t, labels[b, t]].sum() / n)
    acc = float((np.argmax(logits[b, t], axis=-1) == labels[b, t]).sum() / n)
    d = np.exp(logp)
    d[b, t, labels[b, t]] -= 1.0
    d *= pm[..., None] / n
    grads = encoder_backward(model, cache, (d @ P["tok_emb"])[pad], freeze_ins=False)
    grads["out_bias"] += d.sum(axis=(0, 1))
    grads["tok_emb"] += np.tensordot(d, hidden, axes=([0, 1], [0, 1]))
    if freeze_ins:
        grads["tok_emb"][INS_ID] = 0.0
    return loss, acc, n, grads


@pytest.mark.parametrize("freeze_ins", [True, False])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_gather_first_head_matches_full_logits_reference(freeze_ins, dropout):
    model = EncoderModel(
        ModelConfig(**{**asdict(TINY), "dropout": dropout}), tiny_model().params
    )
    ids, pad, labels, pm = tiny_batch()
    ids[1, 2] = INS_ID
    labels[1, 3] = INS_ID
    pm[1, 3] = True
    rng = (lambda: np.random.default_rng(8)) if dropout else (lambda: None)
    loss, acc, n, grads = lm_loss_and_grads(
        model, ids, pad, labels, pm, dropout_rng=rng(), freeze_ins=freeze_ins
    )
    r_loss, r_acc, r_n, r_grads = full_logits_reference(
        model, ids, pad, labels, pm, dropout_rng=rng(), freeze_ins=freeze_ins
    )
    assert n == r_n == pm.sum()
    assert abs(loss - r_loss) < 1e-12 and abs(acc - r_acc) < 1e-12
    assert set(grads) == set(r_grads)
    for name in grads:
        np.testing.assert_allclose(grads[name], r_grads[name], rtol=0, atol=1e-12,
                                   err_msg=name)


def test_gather_first_rejects_empty_or_misshapen_mask():
    model = tiny_model()
    ids, pad, labels, pm = tiny_batch()
    with pytest.raises(ValueError, match="no predictions in batch"):
        lm_loss_and_grads(model, ids, pad, labels, np.zeros_like(pad))
    with pytest.raises(ValueError, match="predict_mask shape"):
        lm_loss_and_grads(model, ids, pad, labels, pm[:, :-1])


def test_predict_mask_at_padding_and_grid_shaped_row_gradient_raise():
    """A predicted position must be real: the head's row gradients are
    indexed by the packed rows. encoder_backward takes [N, D] rows only, so
    an old-style [B, T, D] gradient fails instead of broadcasting."""
    model = tiny_model()
    ids, pad, labels, pm = tiny_batch()
    assert not pad[0, -1]
    pm[0, -1] = True
    with pytest.raises(ValueError, match="predict_mask selects a padding position"):
        lm_loss_and_grads(model, ids, pad, labels, pm)
    hidden, cache = forward(model, ids, pad)
    shapes = f"{hidden.shape} != packed rows shape ({pad.sum()}, {TINY.d_model})"
    with pytest.raises(ValueError, match=re.escape(shapes)):
        encoder_backward(model, cache, np.zeros_like(hidden))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_and_lm_grads_keep_parameter_dtype(dtype):
    model = tiny_model(dtype=dtype)
    ids, pad, labels, pm = tiny_batch()
    hidden, _ = forward(model, ids, pad)
    assert hidden.dtype == dtype
    assert lm_logits(model, hidden).dtype == dtype
    _, _, _, grads = lm_loss_and_grads(model, ids, pad, labels, pm)
    assert {g.dtype for g in grads.values()} == {np.dtype(dtype)}


def test_encoder_backward_matches_fd_through_plain_head():
    """encoder_backward checked on its own through a fixed linear probe."""
    model = tiny_model()
    ids, pad, _, _ = tiny_batch()
    rng = np.random.default_rng(5)
    probe = rng.normal(size=(8,))

    def scalar():
        h, _ = forward(model, ids, pad)
        return float((h @ probe)[pad].sum())

    hidden, cache = forward(model, ids, pad)
    d_hidden = np.zeros_like(hidden)
    d_hidden[pad] = probe
    grads = encoder_backward(model, cache, d_hidden[pad], freeze_ins=False)
    eps = 1e-5
    name = "layers.1.ffn.w1"
    flat = model.params[name].reshape(-1)
    for j in rng.choice(flat.size, size=8, replace=False):
        orig = flat[j]
        flat[j] = orig + eps
        lp = scalar()
        flat[j] = orig - eps
        lm = scalar()
        flat[j] = orig
        fd = (lp - lm) / (2 * eps)
        assert rel_err(fd, grads[name].reshape(-1)[j]) < 1e-3


# ------------------------------------------ packed rows vs dense reference
# The encoder as it was written before it packed the real tokens: every
# per-token layer on the padded [B,T,D] grid. Kept here as the oracle of the
# packed path.

def dense_dropout_mask(rng, shape, rate, dtype):
    if rng is None or rate <= 0.0:
        return None
    keep = (rng.random(shape) >= rate).astype(dtype)
    keep /= dtype.type(1.0 - rate)
    return keep


def dense_split_heads(x, n_heads):
    B, T, D = x.shape
    return x.reshape(B, T, n_heads, D // n_heads).transpose(0, 2, 1, 3)


def dense_merge_heads(x):
    B, H, T, K = x.shape
    return x.transpose(0, 2, 1, 3).reshape(B, T, H * K)


def dense_forward(model, ids, mask, dropout_rng=None):
    from warplm.nnet.encoder import NEG_INF
    cfg, P = model.config, model.params
    B, T = ids.shape
    dtype = P["tok_emb"].dtype
    scale = dtype.type(1.0 / np.sqrt(cfg.d_head))
    att_bias = np.where(mask[:, None, None, :], dtype.type(0.0), dtype.type(NEG_INF))
    e = P["tok_emb"][ids] + P["pos_emb"][:T][None, :, :]
    emb_drop = dense_dropout_mask(dropout_rng, e.shape, cfg.dropout, dtype)
    h = e if emb_drop is None else e * emb_drop
    layers = []
    for l in range(cfg.n_layers):
        p = f"layers.{l}."
        x1, ln1c = _layer_norm(h, P[p + "ln1.g"], P[p + "ln1.b"])
        q = dense_split_heads(x1 @ P[p + "attn.wq"] + P[p + "attn.bq"], cfg.n_heads)
        k = dense_split_heads(x1 @ P[p + "attn.wk"], cfg.n_heads)
        v = dense_split_heads(x1 @ P[p + "attn.wv"] + P[p + "attn.bv"], cfg.n_heads)
        s = q @ k.transpose(0, 1, 3, 2)
        s *= scale
        s += att_bias
        probs = softmax(s, axis=-1)
        ctx = dense_merge_heads(probs @ v)
        attn = ctx @ P[p + "attn.wo"] + P[p + "attn.bo"]
        attn_drop = dense_dropout_mask(dropout_rng, attn.shape, cfg.dropout, dtype)
        if attn_drop is not None:
            attn = attn * attn_drop
        h = h + attn
        x2, ln2c = _layer_norm(h, P[p + "ln2.g"], P[p + "ln2.b"])
        u = x2 @ P[p + "ffn.w1"] + P[p + "ffn.b1"]
        a, phi2 = _gelu(u)
        f = a @ P[p + "ffn.w2"] + P[p + "ffn.b2"]
        ffn_drop = dense_dropout_mask(dropout_rng, f.shape, cfg.dropout, dtype)
        if ffn_drop is not None:
            f = f * ffn_drop
        h = h + f
        layers.append(dict(x1=x1, ln1c=ln1c, q=q, k=k, v=v, probs=probs, ctx=ctx,
                           attn_drop=attn_drop, x2=x2, ln2c=ln2c, u=u, phi2=phi2,
                           ffn_drop=ffn_drop))
    hidden, lnfc = _layer_norm(h, P["final_ln.g"], P["final_ln.b"])
    return hidden, dict(ids=ids, emb_drop=emb_drop, layers=layers, lnfc=lnfc, scale=scale)


def dense_encoder_backward(model, cache, d_hidden, freeze_ins=True, d_tok_emb=None):
    from warplm.nnet.encoder import _layer_norm_backward, _linear_backward
    cfg, P = model.config, model.params
    ids = cache["ids"]
    B, T = ids.shape
    D = cfg.d_model
    grads = {k: np.zeros_like(p) for k, p in P.items()}
    dh = _layer_norm_backward(grads, P, "final_ln", d_hidden, cache["lnfc"])
    for l in reversed(range(cfg.n_layers)):
        p = f"layers.{l}."
        c = cache["layers"][l]
        df = dh if c["ffn_drop"] is None else dh * c["ffn_drop"]
        a = 0.5 * c["u"] * c["phi2"]
        da = _linear_backward(grads, P, p + "ffn.w2", p + "ffn.b2", a, df)
        du = _gelu_grad(c["u"], c["phi2"])
        du *= da
        dx2 = _linear_backward(grads, P, p + "ffn.w1", p + "ffn.b1", c["x2"], du)
        dh += _layer_norm_backward(grads, P, p + "ln2", dx2, c["ln2c"])
        dattn = dh if c["attn_drop"] is None else dh * c["attn_drop"]
        dctx = _linear_backward(grads, P, p + "attn.wo", p + "attn.bo", c["ctx"], dattn)
        dctx = dense_split_heads(dctx, cfg.n_heads)
        dprobs = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["probs"].transpose(0, 1, 3, 2) @ dctx
        dprobs -= np.add.reduce(dprobs * c["probs"], axis=-1, keepdims=True)
        ds = np.multiply(dprobs, c["probs"], out=dprobs)
        dq = ds @ c["k"]
        dq *= cache["scale"]
        dk = ds.transpose(0, 1, 3, 2) @ c["q"]
        dk *= cache["scale"]
        dx1 = np.zeros((B, T, D), dtype=dh.dtype)
        for nm, dz in (("q", dq), ("k", dk), ("v", dv)):
            dx1 += _linear_backward(grads, P, p + f"attn.w{nm}", p + f"attn.b{nm}",
                                    c["x1"], dense_merge_heads(dz))
        dh += _layer_norm_backward(grads, P, p + "ln1", dx1, c["ln1c"])
    de = dh if cache["emb_drop"] is None else dh * cache["emb_drop"]
    grads["pos_emb"][:T] += np.add.reduce(de, axis=0)
    np.add.at(grads["tok_emb"], ids.reshape(-1), de.reshape(-1, D))
    if d_tok_emb is not None:
        grads["tok_emb"] += d_tok_emb
    if freeze_ins:
        grads["tok_emb"][INS_ID] = 0.0
    return grads


def rows_of_lengths(lengths, seed=0):
    """(ids, pad) with rows of the given lengths; pad positions hold random ids."""
    rng = np.random.default_rng(seed)
    T = max(lengths)
    ids = rng.integers(0, TINY.vocab_size, size=(len(lengths), T))
    pad = np.arange(T) < np.array(lengths)[:, None]
    return ids, pad


def assert_close_rel(got, want, tol=1e-12, name=""):
    """max |got - want| <= tol * max |want| (want all zero: got all zero)."""
    scale = np.abs(want).max(initial=0.0)
    err = np.abs(got - want).max(initial=0.0)
    assert err <= tol * scale, f"{name}: max |diff| {err:.3g}, max |ref| {scale:.3g}"


PACKED_BATCHES = {
    "B1-one-token": [1],
    "B1-max-len": [TINY.max_len],
    "B3-mixed": [1, TINY.max_len, 4],
    "B3-no-padding": [6, 6, 6],
    "B16-random": [1, 10, 3, 7, 2, 9, 5, 5, 8, 1, 6, 4, 10, 2, 3, 7],
}


@pytest.mark.parametrize("freeze_ins", [True, False])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
@pytest.mark.parametrize("lengths", list(PACKED_BATCHES.values()), ids=list(PACKED_BATCHES))
def test_packed_encoder_matches_the_dense_reference(lengths, dropout, freeze_ins):
    model = EncoderModel(ModelConfig(**{**asdict(TINY), "dropout": dropout}),
                         tiny_model(seed=len(lengths)).params)
    ids, pad = rows_of_lengths(lengths, seed=sum(lengths))
    ids[0, 0] = INS_ID
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    hidden, cache = forward(model, ids, pad, dropout_rng=rng if dropout else None)
    ref_hidden, ref_cache = dense_forward(model, ids, pad, ref_rng if dropout else None)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert hidden.shape == ref_hidden.shape
    assert_close_rel(hidden[pad], ref_hidden[pad], name="hidden")
    assert np.all(hidden[~pad] == 0.0)

    probe = np.random.default_rng(7)
    d_hidden = np.where(pad[..., None], probe.normal(size=hidden.shape), 0.0)
    d_tok_emb = probe.normal(size=model.params["tok_emb"].shape)
    grads = warplm.nnet.encoder.zero_grads(model.params)
    grads["tok_emb"][...] = d_tok_emb  # the tied head's gradient, as lm_backward writes it
    encoder_backward(model, cache, d_hidden[pad], freeze_ins, grads=grads)
    ref = dense_encoder_backward(model, ref_cache, d_hidden, freeze_ins, d_tok_emb=d_tok_emb)
    assert set(grads) == set(ref)
    for name in ref:
        assert grads[name].shape == ref[name].shape
        assert_close_rel(grads[name], ref[name], name=name)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_pad_ids_change_no_bit_of_hidden_or_any_gradient(dropout):
    """Padding never enters a per-token layer, so the ids at pad positions
    cannot reach the hidden state (0 there) or any gradient."""
    model = EncoderModel(ModelConfig(**{**asdict(TINY), "dropout": dropout}),
                         tiny_model().params)
    ids, pad = rows_of_lengths([3, TINY.max_len, 1, 6], seed=2)
    labels = np.random.default_rng(3).integers(5, TINY.vocab_size, size=ids.shape)
    pm = pad.copy()
    ids2 = np.where(pad, ids, (ids + 9) % TINY.vocab_size)
    assert not np.array_equal(ids, ids2)
    rng = (lambda: np.random.default_rng(8)) if dropout else (lambda: None)
    h1, _ = forward(model, ids, pad, rng())
    h2, _ = forward(model, ids2, pad, rng())
    assert h1.tobytes() == h2.tobytes()
    assert np.all(h1[~pad] == 0.0)
    out1 = lm_loss_and_grads(model, ids, pad, labels, pm, dropout_rng=rng())
    out2 = lm_loss_and_grads(model, ids2, pad, labels, pm, dropout_rng=rng())
    assert out1[:3] == out2[:3]
    for name in out1[3]:
        assert out1[3][name].tobytes() == out2[3][name].tobytes(), name


# -------------------------------------------------------------------- adam

def test_adam_single_step_hand_arithmetic():
    # th=1, g=0.1, lr=0.1: m_hat=0.1, v_hat=0.01
    # update = 0.1 * 0.1 / (0.1 + 1e-8); th' = 1 - 0.0099999990...
    params = {"w": np.array([1.0])}
    st = init_adam(params, lr=0.1)
    step(params, {"w": np.array([0.1])}, st)
    assert abs(params["w"][0] - 0.9000000100) < 1e-9
    assert st.t == 1
    # second step, same gradient: m=0.019, v=1.999e-5
    # m_hat = 0.019/0.19 = 0.1; v_hat = 1.999e-5/1.999e-3 = 0.01 -> same update
    step(params, {"w": np.array([0.1])}, st)
    assert abs(params["w"][0] - 0.8000000200) < 1e-9


def test_adam_zero_gradient_is_bit_identical():
    model = init_model(TINY, seed=0)
    st = init_adam(model.params)
    before = {k: v.copy() for k, v in model.params.items()}
    zeros = {k: np.zeros_like(v) for k, v in model.params.items()}
    for _ in range(3):
        step(model.params, zeros, st)
    for k in before:
        assert np.array_equal(
            before[k].view(np.uint32), model.params[k].view(np.uint32)
        ), k


def test_adam_rejects_nonfinite_gradient():
    params = {"w": np.array([1.0])}
    st = init_adam(params)
    with pytest.raises(FloatingPointError, match="divergence"):
        step(params, {"w": np.array([np.nan])}, st)
    with pytest.raises(FloatingPointError, match="divergence"):
        step(params, {"w": np.array([np.inf])}, init_adam(params))


def per_parameter_adam_step(params, grads, m, v, t, lr):
    """Adam as one loop over the parameters, each with its own moment
    arrays: the reference the flat-buffer `step` must match bit for bit."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * (g * g)
        p -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_matches_the_per_parameter_loop_bit_for_bit(dtype):
    model = init_model(TINY, seed=2).astype(dtype)
    ref = {k: p.copy() for k, p in model.params.items()}
    m = {k: np.zeros_like(p) for k, p in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    st = init_adam(model.params, lr=3e-3)
    ins_row = model.params["tok_emb"][INS_ID].copy()
    rng = np.random.default_rng(7)
    for t in range(1, 6):
        grads = {k: rng.normal(0.0, 0.1, p.shape).astype(dtype) for k, p in ref.items()}
        grads["tok_emb"][INS_ID] = 0.0
        step(model.params, grads, st)
        per_parameter_adam_step(ref, grads, m, v, t, 3e-3)
        assert st.t == t
        for k in ref:
            assert model.params[k].dtype == dtype
            assert model.params[k].tobytes() == ref[k].tobytes(), (t, k)
    for buf, per_param in ((st.m, m), (st.v, v)):
        assert buf.tobytes() == b"".join(a.tobytes() for a in per_param.values())
    assert model.params["tok_emb"][INS_ID].tobytes() == ins_row.tobytes()


def test_init_adam_views_one_buffer():
    model = init_model(TINY, seed=0)
    before = {k: p.copy() for k, p in model.params.items()}
    st = init_adam(model.params)
    assert st.flat.size == param_count(TINY) and st.flat.dtype == np.float32
    for k, p in model.params.items():
        assert np.shares_memory(p, st.flat), k
        assert p.shape == before[k].shape and p.tobytes() == before[k].tobytes()


def test_init_adam_rejects_parameters_of_two_dtypes():
    params = {"w": np.zeros(3, np.float32), "b": np.zeros(2, np.float64)}
    with pytest.raises(ValueError, match="one dtype, got float32 and float64"):
        init_adam(params)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
def test_nonfinite_gradient_changes_no_parameter_or_moment(bad_value):
    model = init_model(TINY, seed=1)
    st = init_adam(model.params)
    rng = np.random.default_rng(0)
    good = {k: rng.normal(0.0, 0.1, p.shape).astype(np.float32)
            for k, p in model.params.items()}
    step(model.params, good, st)  # moments away from zero
    names = list(model.params)
    first, later = names[5], names[-3]
    bad = {k: good[k].copy() for k in reversed(names)}  # not the params' order
    bad[first].reshape(-1)[1] = bad_value
    bad[later].reshape(-1)[0] = np.nan
    before = [st.flat.tobytes(), st.m.tobytes(), st.v.tobytes(), st.t]
    with pytest.raises(FloatingPointError) as e:
        step(model.params, bad, st)
    assert str(e.value) == f"divergence: non-finite gradient in {first} at step 2"
    assert [st.flat.tobytes(), st.m.tobytes(), st.v.tobytes(), st.t] == before
    step(model.params, good, st)  # the state is still usable
    assert st.t == 2


# --------------------------------------------------- kernel oracles
# The formulas the step kernels had before they were rewritten as in-place
# ufunc calls; every rewrite must give the same bits.

def ref_erf(x):
    from warplm.nnet.encoder import _ERF32_P, _ERF32_Q, _horner
    if x.dtype != np.float32:
        return np.asarray(np.frompyfunc(math.erf, 1, 1)(x), dtype=x.dtype)
    x = np.clip(x, -4.0, 4.0)
    x2 = x * x
    p = _horner(x2, _ERF32_P)
    p *= x
    p /= _horner(x2, _ERF32_Q)
    return np.clip(p, -1.0, 1.0, out=p)


def ref_gelu_grad(u, phi2):
    return 0.5 * phi2 + u * np.exp(-0.5 * u * u) * (1.0 / math.sqrt(2.0 * math.pi))


def ref_softmax(x, axis=-1):
    z = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def ref_layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def ref_layer_norm_backward(grads, P, name, dy, cache):
    xhat, inv = cache
    grads[name + ".g"] += np.sum(dy * xhat, axis=(0, 1))
    grads[name + ".b"] += np.sum(dy, axis=(0, 1))
    dxhat = dy * P[name + ".g"]
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2)


def ref_linear_backward(grads, P, w, b, x, dy):
    grads[b] += dy.sum(axis=(0, 1))
    grads[w] += np.tensordot(x, dy, axes=([0, 1], [0, 1]))
    return dy @ P[w].T


EDGES = [np.inf, -np.inf, np.nan, -0.0, 0.0, 4.0, -4.0, 1e30, -1e30]


def edge_sample(rng, shape, dtype, scale=2.0, edges=True):
    """Normal draws, with every edge value (and the floats next to the
    +-4 clip bounds) planted at random positions when `edges`."""
    x = rng.normal(0.0, scale, size=shape).astype(dtype)
    if edges:
        four = np.array(4.0, dtype)
        planted = EDGES + [np.nextafter(four, 0), np.nextafter(four, 8),
                           -np.nextafter(four, 0), -np.nextafter(four, 8)]
        flat = x.reshape(-1)
        flat[rng.choice(flat.size, len(planted), replace=False)] = planted
    return x


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


DTYPES = [np.float32, np.float64]


@pytest.mark.parametrize("dtype", DTYPES)
def test_elementwise_kernels_match_their_reference_bits(dtype):
    from warplm.nnet.encoder import erf
    rng = np.random.default_rng(11)
    with np.errstate(all="ignore"):
        for _ in range(5):
            u = edge_sample(rng, (4, 9, 24), dtype, scale=3.0)
            assert_same_bits(erf(u), ref_erf(u))
            _, phi2 = _gelu(u)
            assert_same_bits(phi2, 1.0 + ref_erf(u * (1.0 / math.sqrt(2.0))))
            assert_same_bits(_gelu_grad(u, phi2), ref_gelu_grad(u, phi2))
            for axis in (-1, 1):
                assert_same_bits(softmax(u, axis=axis), ref_softmax(u, axis=axis))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("edges", [False, True])
@pytest.mark.parametrize("B,T,D", [(2, 7, 8), (16, 11, 64), (32, 23, 64)])
def test_layer_norm_kernels_match_their_reference_bits(dtype, edges, B, T, D):
    rng = np.random.default_rng(B * T + D)
    x = edge_sample(rng, (B, T, D), dtype, edges=edges)
    dy = edge_sample(rng, (B, T, D), dtype, edges=edges)
    g, b = rng.normal(1.0, 0.1, D).astype(dtype), rng.normal(0.0, 0.1, D).astype(dtype)
    with np.errstate(all="ignore"):
        y, cache = _layer_norm(x, g, b)
        ref_y, ref_cache = ref_layer_norm(x, g, b)
        assert_same_bits(y, ref_y)
        for got, want in zip(cache, ref_cache):
            assert_same_bits(got, want)
        grads = {"ln.g": np.zeros(D, dtype), "ln.b": np.zeros(D, dtype)}
        ref_grads = {k: a.copy() for k, a in grads.items()}
        dx = warplm.nnet.encoder._layer_norm_backward(grads, {"ln.g": g}, "ln", dy, cache)
        ref_dx = ref_layer_norm_backward(ref_grads, {"ln.g": g}, "ln", dy, ref_cache)
    assert_same_bits(dx, ref_dx)
    for k in grads:
        assert_same_bits(grads[k], ref_grads[k])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("edges", [False, True])
@pytest.mark.parametrize("B,T,D_in,D_out", [
    (2, 7, 8, 12), (2, 7, 12, 8), (16, 11, 64, 64), (16, 11, 64, 256),
    (16, 11, 256, 64), (32, 23, 64, 256), (32, 23, 256, 64),
])
def test_linear_backward_matches_its_reference_bits(dtype, edges, B, T, D_in, D_out):
    rng = np.random.default_rng(B + T + D_in * D_out)
    x = edge_sample(rng, (B, T, D_in), dtype, edges=edges)
    dy = edge_sample(rng, (B, T, D_out), dtype, edges=edges)
    P = {"w": rng.normal(0.0, 0.02, (D_in, D_out)).astype(dtype)}
    grads = {"w": np.zeros((D_in, D_out), dtype), "b": np.zeros(D_out, dtype)}
    ref_grads = {k: a.copy() for k, a in grads.items()}
    with np.errstate(all="ignore"):
        dx = warplm.nnet.encoder._linear_backward(grads, P, "w", "b", x, dy)
        ref_dx = ref_linear_backward(ref_grads, P, "w", "b", x, dy)
    assert_same_bits(dx, ref_dx)
    for k in grads:
        assert_same_bits(grads[k], ref_grads[k])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("edges", [False, True])
@pytest.mark.parametrize("N,D", [(1, 16), (13, 8), (181, 64), (503, 64)])
def test_layer_norm_backward_on_packed_rows_matches_its_reference_bits(dtype, edges, N, D):
    """[N,D] rows give the bits the reference gives on the same rows as [1,N,D]."""
    rng = np.random.default_rng(N + D)
    x = edge_sample(rng, (N, D), dtype, edges=edges)
    dy = edge_sample(rng, (N, D), dtype, edges=edges)
    g = rng.normal(1.0, 0.1, D).astype(dtype)
    with np.errstate(all="ignore"):
        _, cache = _layer_norm(x, g, np.zeros(D, dtype))
        grads = {"ln.g": np.zeros(D, dtype), "ln.b": np.zeros(D, dtype)}
        ref_grads = {k: a.copy() for k, a in grads.items()}
        dx = warplm.nnet.encoder._layer_norm_backward(grads, {"ln.g": g}, "ln", dy, cache)
        ref_dx = ref_layer_norm_backward(ref_grads, {"ln.g": g}, "ln", dy[None],
                                         tuple(c[None] for c in cache))
    assert_same_bits(dx, ref_dx[0])
    for k in grads:
        assert_same_bits(grads[k], ref_grads[k])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("edges", [False, True])
@pytest.mark.parametrize("N,D_in,D_out", [
    (1, 16, 16), (13, 12, 8), (181, 64, 64), (181, 64, 256), (503, 256, 64),
])
def test_linear_backward_on_packed_rows_matches_its_reference_bits(dtype, edges, N, D_in, D_out):
    """[N,*] rows give the bits the reference gives on the same rows as [1,N,*]."""
    rng = np.random.default_rng(N + D_in * D_out)
    x = edge_sample(rng, (N, D_in), dtype, edges=edges)
    dy = edge_sample(rng, (N, D_out), dtype, edges=edges)
    P = {"w": rng.normal(0.0, 0.02, (D_in, D_out)).astype(dtype)}
    grads = {"w": np.zeros((D_in, D_out), dtype), "b": np.zeros(D_out, dtype)}
    ref_grads = {k: a.copy() for k, a in grads.items()}
    with np.errstate(all="ignore"):
        dx = warplm.nnet.encoder._linear_backward(grads, P, "w", "b", x, dy)
        ref_dx = ref_linear_backward(ref_grads, P, "w", "b", x[None], dy[None])
    assert_same_bits(dx, ref_dx[0])
    for k in grads:
        assert_same_bits(grads[k], ref_grads[k])


# ------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = init_model(TINY, seed=4)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_encoder(p1, model, "hash0123")
    m2, header = load_encoder(p1, expect_vocab_hash="hash0123")
    assert header["kind"] == "encoder"
    assert m2.config == model.config
    for k in model.params:
        assert np.array_equal(
            model.params[k].view(np.uint32), m2.params[k].view(np.uint32)
        )
    save_encoder(p2, m2, header["vocab_hash"])
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_magic_and_version(tmp_path):
    model = init_model(TINY, seed=4)
    p = tmp_path / "m.ckpt"
    save_encoder(p, model, "h")
    raw = p.read_bytes()
    assert raw[:4] == b"WLM1"
    assert raw[4:8] == (2).to_bytes(4, "little")
    (tmp_path / "junk.ckpt").write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(tmp_path / "junk.ckpt")


def test_checkpoint_vocab_hash_mismatch(tmp_path):
    model = init_model(TINY, seed=4)
    p = tmp_path / "m.ckpt"
    save_encoder(p, model, "aaaaaaaaaaaaaaaa")
    with pytest.raises(ValueError, match="vocab hash mismatch"):
        load_encoder(p, expect_vocab_hash="bbbbbbbbbbbbbbbb")


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"kind": "encoder"}, {"w": np.zeros(3, np.float32)})
    p.write_bytes(p.read_bytes() + b"x")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(p)


def test_checkpoint_truncated_anywhere_is_value_error(tmp_path):
    p = tmp_path / "m.ckpt"
    save_checkpoint(p, {"kind": "encoder"},
                    {"a": np.ones((2, 3), np.float32), "b": np.zeros(2, np.float32)})
    raw = p.read_bytes()
    for cut in range(len(raw)):
        p.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="m.ckpt"):
            load_checkpoint(p)


def test_checkpoint_tensor_values_exact(tmp_path):
    p = tmp_path / "t.ckpt"
    for arr in (np.array([0.1, -2.5, 3e-8, 1e9], dtype=np.float32),
                np.float32(2.5).reshape(())):  # 0-d keeps its shape
        save_checkpoint(p, {"kind": "encoder"}, {"w": arr})
        _, params = load_checkpoint(p)
        assert params["w"].shape == arr.shape
        assert np.array_equal(params["w"].view(np.uint32), arr.view(np.uint32))


# ------------------------------------ gradients in Adam's buffer, in blocks

def blocked_params(dtype):
    """Three parameters whose flat size spans three Adam blocks, the last
    one ragged."""
    from warplm.nnet.adam import BLOCK
    rng = np.random.default_rng(12)
    shapes = {"w": (2, BLOCK // 2 + 3), "b": (7,), "u": (BLOCK + 1000,)}
    params = {k: rng.normal(0.0, 0.5, s).astype(dtype) for k, s in shapes.items()}
    size = sum(p.size for p in params.values())
    assert 2 * BLOCK < size < 3 * BLOCK
    return params


@pytest.mark.parametrize("in_place", [True, False], ids=["adam-grads", "own-dict"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_blocked_adam_matches_the_per_parameter_loop_bit_for_bit(dtype, in_place):
    params = blocked_params(dtype)
    ref = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros_like(p) for k, p in ref.items()}
    v = {k: np.zeros_like(p) for k, p in ref.items()}
    st = init_adam(params, lr=2e-3)
    rng = np.random.default_rng(5)
    for t in range(1, 6):
        drawn = {k: rng.normal(0.0, 0.1, p.shape).astype(dtype) for k, p in ref.items()}
        if in_place:
            for k, g in drawn.items():
                st.grads[k][...] = g
            grads = st.grads
        else:
            grads = {k: g.copy() for k, g in drawn.items()}
        step(params, grads, st)
        per_parameter_adam_step(ref, drawn, m, v, t, 2e-3)
        assert st.t == t
        for k in ref:
            assert params[k].tobytes() == ref[k].tobytes(), (t, k)
            assert grads[k].tobytes() == drawn[k].tobytes(), (t, k)  # step reads, never writes
        assert st.grad.tobytes() == b"".join(drawn[k].tobytes() for k in params)
    for buf, per_param in ((st.m, m), (st.v, v)):
        assert buf.tobytes() == b"".join(a.tobytes() for a in per_param.values())


@pytest.mark.parametrize("dtype", DTYPES)
def test_nonfinite_gradient_in_the_last_block_changes_nothing(dtype):
    from warplm.nnet.adam import BLOCK
    params = blocked_params(dtype)
    st = init_adam(params)
    rng = np.random.default_rng(1)
    for name, g in st.grads.items():
        g[...] = rng.normal(0.0, 0.1, g.shape)
    step(params, st.grads, st)  # moments away from zero
    assert st.grad.size - st.grad.size % BLOCK > params["w"].size + params["b"].size
    st.grads["u"][-1] = np.inf  # the last element: in the ragged last block only
    before = [st.flat.tobytes(), st.m.tobytes(), st.v.tobytes(), st.t, st.grad.tobytes()]
    with pytest.raises(FloatingPointError) as e:
        step(params, st.grads, st)
    assert str(e.value) == "divergence: non-finite gradient in u at step 2"
    assert [st.flat.tobytes(), st.m.tobytes(), st.v.tobytes(), st.t,
            st.grad.tobytes()] == before


def test_adam_grads_view_its_gradient_buffer_in_the_parameter_layout():
    model = init_model(TINY, seed=0)
    st = init_adam(model.params)
    assert list(st.grads) == list(model.params)
    lo = 0
    for name, g in st.grads.items():
        assert g.shape == model.params[name].shape and g.dtype == st.grad.dtype
        assert np.shares_memory(g, st.grad[lo : lo + g.size])
        lo += g.size
    assert lo == st.grad.size
    assert st.work.shape == (2, min(st.flat.size, warplm.nnet.adam.BLOCK))


@pytest.mark.parametrize("freeze_ins", [True, False])
@pytest.mark.parametrize("dtype", DTYPES)
def test_lm_grads_written_into_adams_buffer_match_a_fresh_buffer(dtype, freeze_ins):
    """Whatever the buffer held before, the handed dict ends up with the
    bits of a fresh call, and a step leaves them readable."""
    model = tiny_model(dtype=dtype)
    ids, pad, labels, pm = tiny_batch()
    ids[1, 2] = ids[1, 4] = ids[0, 1]  # a repeated id
    want = lm_loss_and_grads(model, ids, pad, labels, pm, freeze_ins=freeze_ins)
    st = init_adam(model.params)
    st.grad[...] = np.nan  # stale contents must not leak into any gradient
    got = lm_loss_and_grads(model, ids, pad, labels, pm, freeze_ins=freeze_ins, grads=st.grads)
    assert got[:3] == want[:3]
    assert got[3] is st.grads
    for name in model.params:
        assert got[3][name].tobytes() == want[3][name].tobytes(), name
    step(model.params, got[3], st)
    for name in model.params:
        assert st.grads[name].tobytes() == want[3][name].tobytes(), name


@pytest.mark.parametrize("freeze_ins", [True, False])
@pytest.mark.parametrize("dtype", DTYPES)
def test_tied_tok_emb_gradient_matches_add_at_then_head(dtype, freeze_ins, monkeypatch):
    """The tok_emb gradient is the old formula's bits: the input-embedding
    rows scattered into zeros with np.add.at, then the tied head's [V, D]
    gradient added, then the [INS] row zeroed, with the head's gradient
    already in the handed buffer."""
    model = tiny_model(dtype=dtype)
    ids, pad = rows_of_lengths([7, 3, 6, 5], seed=9)
    ids[:, :3] = [INS_ID, 6, 6]  # every row repeats id 6 and holds [INS]
    hidden, cache = forward(model, ids, pad)
    probe = np.random.default_rng(3)
    d_hidden = np.where(pad[..., None], probe.normal(size=hidden.shape), 0.0).astype(dtype)
    d_tok_emb = probe.normal(size=model.params["tok_emb"].shape).astype(dtype)

    seen = []
    real_add_rows = warplm.nnet.encoder._add_rows
    monkeypatch.setattr(warplm.nnet.encoder, "_add_rows",
                        lambda g, index, dy: seen.append(dy.copy()) or real_add_rows(g, index, dy))
    handed = warplm.nnet.encoder.zero_grads(model.params)
    handed["tok_emb"][...] = d_tok_emb
    encoder_backward(model, cache, d_hidden[pad], freeze_ins, grads=handed)
    dh = seen[0]  # the embedding rows' gradient, as first scattered into pos_emb

    want = np.zeros_like(d_tok_emb)
    np.add.at(want, cache["tok_ids"], dh)
    want += d_tok_emb
    if freeze_ins:
        want[INS_ID] = 0.0
    assert len(np.unique(cache["tok_ids"])) < len(cache["tok_ids"])
    assert handed["tok_emb"].tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
def test_in_place_head_matches_the_copying_formulas(dtype):
    rng = np.random.default_rng(4)
    model = tiny_model(dtype=dtype)
    model.params["out_bias"][:] = rng.normal(size=TINY.vocab_size)
    hidden = rng.normal(size=(9, TINY.d_model)).astype(dtype)
    logits = lm_logits(model, hidden)
    ref = hidden @ model.params["tok_emb"].T + model.params["out_bias"]
    assert logits.tobytes() == ref.tobytes()

    logits[2, 5] = logits[2].max() + 1.0
    logits[2, :4] = logits[2, 5]  # a row whose max is tied
    labels = rng.integers(0, TINY.vocab_size, size=9)
    labels[:5] = np.argmax(logits[:5], axis=-1)  # rows 0-4 scored right
    before = logits.copy()
    copied = _ce(logits, labels)
    assert logits.tobytes() == before.tobytes()  # without out=, the input is untouched
    in_place = _ce(logits, labels, out=logits)
    assert in_place[2] is logits
    assert in_place[:2] == copied[:2]
    assert in_place[1] == np.mean(np.argmax(before, axis=-1) == labels) >= 5 / 9
    assert in_place[2].tobytes() == copied[2].tobytes()


@pytest.mark.parametrize("dense", [False, True], ids=["padded", "dense"])
def test_lm_step_allocates_under_twice_the_parameters_at_a_30k_vocab(dense):
    """One LM step plus its Adam step at V 30000 and desk dims allocates
    under 2x the parameter bytes, on a pretrain-v30k-shaped batch (B 32, T
    15, sentences of 5-15 ids, 15% of their positions predicted) and on a
    dense one (no padding, 62 of 480 positions predicted); the step itself
    allocates nothing larger than a block."""
    import tracemalloc
    from warplm.nnet.adam import BLOCK
    V, B, T = 30000, 32, 15
    model = init_model(ModelConfig.desk(V), seed=0)
    st = init_adam(model.params)
    rng = np.random.default_rng(0)
    pad = np.arange(T) < rng.integers(5, T + 1, size=B)[:, None]
    pad[0] = True
    ids = np.where(pad, rng.integers(INS_ID + 1, V, size=(B, T)), 0)
    labels = np.where(pad, rng.integers(INS_ID + 1, V, size=(B, T)), 0)
    pm = pad & (rng.random((B, T)) < 0.15)
    if dense:
        pad = np.ones((B, T), bool)
        ids, labels = rng.integers(INS_ID + 1, V, size=(2, B, T))
        pm = rng.permutation(B * T).reshape(B, T) < 62
    drop_rng = np.random.default_rng(1)

    def lm_step():
        return lm_loss_and_grads(model, ids, pad, labels, pm, dropout_rng=drop_rng,
                                 grads=st.grads)[3]

    step(model.params, lm_step(), st)  # warm-up
    tracemalloc.start()
    try:
        grads = lm_step()
        _, step_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        step(model.params, grads, st)
        current, adam_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(step_peak, adam_peak) < 2 * st.flat.nbytes
    assert adam_peak - before < BLOCK * st.flat.itemsize
    assert current - before < BLOCK * st.flat.itemsize


def test_lm_step_releases_the_logits_before_the_encoder_backward(monkeypatch):
    """The head's [N_pred, V] d_logits (the largest array of a 30k-vocabulary
    step) is freed before the encoder's backward pass starts."""
    import weakref
    real_head = warplm.nnet.encoder.lm_backward
    real_encoder = warplm.nnet.encoder.encoder_backward
    refs, alive = [], []

    def head(model, cache, d_logits, *args, **kwargs):
        refs.extend(weakref.ref(a) for a in (d_logits, d_logits.base) if a is not None)
        return real_head(model, cache, d_logits, *args, **kwargs)

    def encoder(*args, **kwargs):
        alive.append([r() is not None for r in refs])
        return real_encoder(*args, **kwargs)

    monkeypatch.setattr(warplm.nnet.encoder, "lm_backward", head)
    monkeypatch.setattr(warplm.nnet.encoder, "encoder_backward", encoder)
    ids, pad, labels, pm = tiny_batch()
    lm_loss_and_grads(tiny_model(), ids, pad, labels, pm)
    assert refs and alive == [[False] * len(refs)]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("T", [1, 2, 3, 7, 13, 14, 15, 33, 64])
def test_softmax_over_padded_keys_matches_its_reference_bits(T, dtype):
    """The key-axis max is folded in halves; max is exact, so attention
    probabilities keep the bits of the plain formula, -1e9 pad keys and
    odd lengths included."""
    from warplm.nnet.encoder import NEG_INF, _max_keepdims
    rng = np.random.default_rng(T)
    B, H = 4, 2
    s = rng.normal(0.0, 3.0, size=(B, H, T, T)).astype(dtype)
    lengths = rng.integers(1, T + 1, size=B)
    lengths[0] = T
    s += np.where(np.arange(T) < lengths[:, None], 0.0, NEG_INF).astype(dtype)[:, None, None, :]
    for axis in (-1, 2):
        assert_same_bits(_max_keepdims(s, axis), np.maximum.reduce(s, axis=axis, keepdims=True))
    assert_same_bits(softmax(s, axis=-1), ref_softmax(s, axis=-1))


# ------------------------- the LM head and blocked Adam against their formulas

# fewer columns than the 37-row batch; odd, and not a multiple of any BLAS
# tile; the benchmark's 30k
HEAD_VS = [7, 4001, 30000]
HEAD_CFG = ModelConfig(vocab_size=HEAD_VS[1], d_model=64, n_layers=1, n_heads=2, d_ff=32,
                       max_len=8, dropout=0.0)


def ref_lm_logits(model, hidden):
    logits = hidden @ model.params["tok_emb"].T
    logits += model.params["out_bias"]
    return logits


def ref_ce(logits, label_ids, *, out=None):
    n = len(logits)
    rows = np.arange(n)
    acc = float(np.add.reduce(logits.argmax(axis=-1) == label_ids) / n)
    z = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    z_label = z[rows, label_ids]
    d = np.exp(z, out=z)
    sum_e = np.add.reduce(d, axis=-1, keepdims=True)
    loss = -float(np.add.reduce(z_label - np.log(sum_e[:, 0])) / n)
    d /= sum_e
    d[rows, label_ids] -= 1.0
    d *= 1.0 / n
    return loss, acc, d


def ref_lm_backward(model, cache, d_logits, pm):
    """The tied head: (grads, zero but tok_emb and out_bias, and
    dLoss/d(hidden) at the real rows)."""
    P = model.params
    hidden = cache["hidden"]
    grads = warplm.nnet.encoder.zero_grads(P)
    d_hidden = np.zeros(hidden.shape, hidden.dtype)
    d_hidden[pm] = d_logits @ P["tok_emb"]
    np.matmul(d_logits.T, hidden[pm], out=grads["tok_emb"])
    grads["out_bias"] += np.add.reduce(d_logits, axis=0)
    return grads, d_hidden.reshape(-1, hidden.shape[-1])[cache["rows"]]


def ref_adam_step(state):
    """One step of blocked Adam on `state` (its own gradient buffer)."""
    from warplm.nnet.adam import BETA1, BETA2, EPS
    g = state.grad
    state.t += 1
    t = state.t
    c1, c2, lr = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t, state.lr
    for lo in range(0, g.size, BLOCK):
        gb, m, v, p = (a[lo : lo + BLOCK] for a in (g, state.m, state.v, state.flat))
        den, upd = state.work[:, : len(gb)]
        m *= BETA1
        m += np.multiply(gb, 1.0 - BETA1, out=upd)
        v *= BETA2
        np.multiply(gb, gb, out=den)
        den *= 1.0 - BETA2
        v += den
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += EPS
        np.divide(m, c1, out=upd)
        upd *= lr
        upd /= den
        p -= upd


def head_model(dtype, V):
    model = init_model(replace(HEAD_CFG, vocab_size=V), seed=2).astype(dtype)
    model.params["out_bias"][...] = np.random.default_rng(3).normal(0.0, 0.5, V)
    return model


def head_batch(n_pred, V):
    """(ids, pad, labels, pm): 3 ragged rows of ids across the vocabulary,
    n_pred of their real positions predicted."""
    rng = np.random.default_rng(n_pred)
    pad = np.arange(6) < np.array([6, 2, 4])[:, None]
    ids = np.where(pad, rng.integers(5, V, size=pad.shape), 0)
    labels = rng.integers(5, V, size=pad.shape)
    pm = np.zeros_like(pad)
    pm.reshape(-1)[rng.choice(np.flatnonzero(pad), n_pred, replace=False)] = True
    return ids, pad, labels, pm


def blocked_state(dtype, size):
    """Adam over `size` elements in three parameters, with drawn gradients
    and moments away from zero."""
    rng = np.random.default_rng(12)
    shapes = {"w": (2, size // 4), "b": (7,), "u": (size - 2 * (size // 4) - 7,)}
    params = {k: rng.normal(0.0, 0.5, s).astype(dtype) for k, s in shapes.items()}
    st = init_adam(params, lr=2e-3)
    assert st.flat.size == size
    st.grad[...] = rng.normal(0.0, 0.1, st.grad.size)
    ref_adam_step(st)
    return params, st


def state_bytes(st):
    return [st.flat.tobytes(), st.m.tobytes(), st.v.tobytes(), st.t]


@pytest.mark.parametrize("V", HEAD_VS)
@pytest.mark.parametrize("n_rows", [1, 2, 37])
@pytest.mark.parametrize("dtype", DTYPES)
def test_head_matches_the_plain_formulas_bit_for_bit(dtype, n_rows, V):
    model = head_model(dtype, V)
    rng = np.random.default_rng(n_rows)
    hidden = rng.normal(size=(n_rows, HEAD_CFG.d_model)).astype(dtype)
    logits = lm_logits(model, hidden)
    want = ref_lm_logits(model, hidden)
    assert logits.tobytes() == want.tobytes()
    assert lm_logits(model, hidden[None]).tobytes() == want.tobytes()  # [1, N, D] input

    labels = rng.integers(0, V, size=n_rows)
    labels[0] = np.argmax(want[0])  # one row scored right
    copied = _ce(logits, labels)
    assert logits.tobytes() == want.tobytes()
    in_place = _ce(logits, labels, out=logits)
    ref = ref_ce(want, labels, out=want)
    assert in_place[2] is logits
    for got in (copied, in_place):
        assert got[:2] == ref[:2]
        assert got[2].tobytes() == ref[2].tobytes()


@pytest.mark.parametrize("V", HEAD_VS)
@pytest.mark.parametrize("n_pred", [1, 2, 9])
@pytest.mark.parametrize("dtype", DTYPES)
def test_lm_backward_matches_the_plain_head_bit_for_bit(dtype, n_pred, V):
    model = head_model(dtype, V)
    ids, pad, labels, pm = head_batch(n_pred, V)
    hidden, cache = forward(model, ids, pad)
    _, _, d_logits = ref_ce(ref_lm_logits(model, hidden[pm]), labels[pm])
    want, want_rows = ref_lm_backward(model, cache, d_logits, pm)
    handed = warplm.nnet.encoder.zero_grads(model.params)
    for g in handed.values():
        g[...] = np.nan  # stale contents must not leak into any gradient
    d_rows = lm_backward(model, cache, d_logits, pm, grads=handed)
    assert d_rows.tobytes() == want_rows.tobytes()
    for name in model.params:
        assert handed[name].tobytes() == want[name].tobytes(), name


# part of one block, one whole block, one element past it, two whole blocks,
# and four blocks with the last one ragged
@pytest.mark.parametrize("size", [1000, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK + 1013])
@pytest.mark.parametrize("dtype", DTYPES)
def test_adam_matches_the_blocked_formula_bit_for_bit(dtype, size):
    params, st = blocked_state(dtype, size)
    _, ref = blocked_state(dtype, size)
    rng = np.random.default_rng(5)
    for _ in range(4):
        st.grad[...] = ref.grad[...] = rng.normal(0.0, 0.1, st.grad.size)
        step(params, st.grads, st)
        ref_adam_step(ref)
        assert state_bytes(st) == state_bytes(ref)
        assert st.grad.tobytes() == ref.grad.tobytes()
    assert st.work.shape == (2, min(BLOCK, size))
