"""Forward and exact backward pass for the tied-embedding encoder.

Shapes: B batch, T sequence, D d_model, H heads, K d_head, F d_ff, V vocab,
N the real (non-pad) positions of a batch. All gradients are derived by
hand and checked against finite differences in the test suite; keep
forward and backward in lockstep when editing.

Packed layout: `forward` gathers the N real positions of the [B, T] grid
once, in row-major order (`pad_mask` is the index), and every per-token
layer (embedding sum, layer norm, the q/k/v/o and FFN projections, GELU,
dropout, residual) runs on [N, D] / [N, F] rows. q, k and v are scattered
into a zeroed [B, T, D] only for the attention scores and `probs @ v`, and
the context is gathered straight back. `hidden` is returned as [B, T, D]
through one scatter and is exactly 0 at padding, so pad contents cannot
reach any output or gradient. `encoder_backward` takes dLoss/d(hidden) at
the N real rows, [N, D]. Dropout masks are drawn at the padded [B, T, D]
shape and then gathered, so the generator's stream is that of a dense
pass. The tests keep the dense [B, T, D] encoder as an oracle.

Activations, logits and gradients keep the parameter dtype: float32 models
compute in float32 and float64 models (the gradient checks) in float64.

The kernels call ufuncs and their `reduce` directly rather than numpy's
Python-level wrappers (`mean`, `sum`, `clip`, `tensordot`) and work in
place. Each rewrite gives the same bits as the plain formula, which the
tests keep as an oracle.

Every head computes logits only at the rows it scores: the LM head gathers
the predicted rows of the hidden state *before* the tied output projection,
so a step costs `[N_pred, V]` logits rather than `[B, T, V]`, and most
positions predict nothing. `_ce` is the one cross-entropy kernel, over rows.

The backward functions write into a gradient dict the caller hands over
(`grads=`, in training Adam's flat gradient buffer, `AdamState.grads`) and
allocate no parameter-sized array; without one they fill a fresh buffer.
The head works in place: `lm_logits` adds the bias into the matmul's
output, `_ce` turns logits it is handed with `out=` into dLoss/dlogits, and
the tied head writes its [V, D] gradient straight into the `tok_emb` entry.
A step holds one [N_pred, V] array, freed before the encoder's backward
pass: `lm_backward` is the head alone and returns the row gradients.

`freeze_ins` zeroes the gradient row of the [INS] embedding after the
input-embedding path and the tied output projection are summed (in
`encoder_backward`), so that row never moves during training (Adam with an
exactly-zero gradient leaves the weight bit-identical).
"""

from __future__ import annotations

import math

import numpy as np

from ..textcore import INS_ID
from .model import EncoderModel, flat_views

LN_EPS = 1e-5
NEG_INF = -1e9  # additive score for PAD keys; exp() underflows to exactly 0
# Python floats, not np.float64: NumPy promotes an array with a Python float
# to the array's dtype, so GELU of a float32 array stays float32.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Eigen's and XLA's float32 erf (generic_fast_erf_float): on x clamped to
# [-4, 4], erf(x) ~ x * P(x^2) / Q(x^2); float32 erf rounds to +-1 beyond.
# Highest power first, for Horner's rule.
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)


def _horner(x2: np.ndarray, coeffs) -> np.ndarray:
    out = x2 * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= x2
        out += c
    return out


_libm_erf = np.frompyfunc(math.erf, 1, 1)


def erf(x: np.ndarray) -> np.ndarray:
    """erf, keeping the dtype. float32 uses the rational approximation
    above (max abs error about 5e-7, exactly odd, clipped to [-1, 1]) in
    numpy ops; any other dtype uses the C library's erf, element by element."""
    if x.dtype != np.float32:
        return np.asarray(_libm_erf(x), dtype=x.dtype)
    x = np.maximum(x, -4.0)
    np.minimum(x, 4.0, out=x)
    x2 = x * x
    p = _horner(x2, _ERF32_P)
    p *= x
    p /= _horner(x2, _ERF32_Q)
    np.maximum(p, -1.0, out=p)
    return np.minimum(p, 1.0, out=p)


def _gelu(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gelu(u), phi2) with phi2 = 1 + erf(u/sqrt2), which the backward
    pass reuses: erf is the costliest op of the layer."""
    phi2 = erf(u * _INV_SQRT2)
    phi2 += 1.0
    return 0.5 * u * phi2, phi2


def _gelu_grad(u: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """0.5 phi2 + u exp(-u^2 / 2) / sqrt(2 pi), in one buffer."""
    g = u * -0.5
    g *= u
    np.exp(g, out=g)
    g *= u
    g *= _INV_SQRT2PI
    g += 0.5 * phi2
    return g


def _mean_last(x):
    """x.mean(axis=-1, keepdims=True) without numpy's Python wrapper."""
    m = np.add.reduce(x, axis=-1, keepdims=True)
    m /= x.shape[-1]
    return m


def _layer_norm(x, g, b):
    xc = x - _mean_last(x)
    var = _mean_last(xc * xc)
    var += LN_EPS
    inv = np.sqrt(var, out=var)
    np.divide(1.0, inv, out=inv)
    xhat = np.multiply(xc, inv, out=xc)
    y = g * xhat
    y += b
    return y, (xhat, inv)


def _layer_norm_backward(grads, P, name, dy, cache):
    """Add the gradients of layer norm `name` ({name}.g, {name}.b) to
    `grads`, summed over every leading axis of dy ([N,D] or [B,T,D]);
    returns dLoss/dx."""
    xhat, inv = cache
    lead = tuple(range(dy.ndim - 1))
    t = dy * xhat
    grads[name + ".g"] += np.add.reduce(t, axis=lead)
    grads[name + ".b"] += np.add.reduce(dy, axis=lead)
    dx = dy * P[name + ".g"]  # dLoss/dxhat, then dLoss/dx in place
    m1 = _mean_last(dx)
    m2 = _mean_last(np.multiply(dx, xhat, out=t))
    # inv * (dxhat - m1 - xhat * m2)
    dx -= m1
    dx -= np.multiply(xhat, m2, out=t)
    np.multiply(inv, dx, out=dx)  # inv first: of two NaNs, x86 keeps the first one's sign
    return dx


def _linear_backward(grads, P, w, b, x, dy):
    """Add the gradients of y = x @ P[w] + P[b] to `grads`, summed over
    every leading axis of x and dy ([N,*] or [B,T,*]), b's only if `grads`
    holds b (a projection without a bias has none); returns dLoss/dx."""
    if b in grads:
        grads[b] += np.add.reduce(dy, axis=tuple(range(dy.ndim - 1)))
    grads[w] += x.reshape(-1, x.shape[-1]).T @ dy.reshape(-1, dy.shape[-1])
    return dy @ P[w].T


def _max_keepdims(x, axis):
    """np.maximum.reduce(x, axis, keepdims=True) by folding the axis in
    halves with np.maximum. Max is exact, so the bits match; on a short
    axis (the attention keys) each fold costs less than the reduction's
    overhead per row."""
    x = np.swapaxes(x, axis, -1)
    n = x.shape[-1]
    while n > 1:
        h = n // 2
        m = np.maximum(x[..., :h], x[..., h : 2 * h])
        if n % 2:
            np.maximum(m[..., :1], x[..., 2 * h :], out=m[..., :1])
        x, n = m, h
    return np.swapaxes(x, axis, -1)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = x - _max_keepdims(x, axis)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=axis, keepdims=True)
    return e


def _dropout_mask(rng, shape, rate, dtype, rows):
    """Inverted-dropout scale for the packed rows: drawn at the padded
    `shape` [B,T,D], so the generator's stream does not depend on where the
    padding is, then gathered at `rows` -> [N,D]. None means identity."""
    if rng is None or rate <= 0.0:
        return None
    keep = np.take((rng.random(shape) >= rate).reshape(-1, shape[-1]), rows, axis=0)
    keep = keep.astype(dtype)
    keep /= dtype.type(1.0 - rate)
    return keep


def _split_heads(x, n_heads):
    B, T, D = x.shape
    return x.reshape(B, T, n_heads, D // n_heads).transpose(0, 2, 1, 3)


def _packed_heads(x, rows):
    """[B,H,T,K] -> the rows of its merged [B*T, H*K] view at `rows`, [N,H*K]."""
    B, H, T, K = x.shape
    return np.take(x.transpose(0, 2, 1, 3).reshape(B * T, H * K), rows, axis=0)


def _add_rows(g, index, dy):
    """g[index[i]] += dy[i] for every row i in order (np.add.at), through
    g's flat view: numpy's add.at is fast only on 1-d operands."""
    D = g.shape[-1]
    np.add.at(g.reshape(-1), (index[:, None] * D + np.arange(D)).reshape(-1), dy.reshape(-1))


def zero_grads(like: dict[str, np.ndarray], grads=None, keep=None):
    """A gradient dict with every entry 0 but `keep`'s, for a backward pass
    to add into: `grads` zeroed in place, or without it a fresh dict shaped
    as `like`, viewing one zeroed buffer."""
    if grads is None:
        size = sum([p.size for p in like.values()])
        return flat_views(np.zeros(size, next(iter(like.values())).dtype), like)
    for name, g in grads.items():
        if name != keep:
            g.fill(0.0)
    return grads


def pad_rows(rows, max_len: int, fill, dtype=np.int64):
    """-> (array [B,T], mask [B,T]): `rows` right-padded with `fill` and
    cut at max_len, T the longest row's length or max_len if that is less;
    the mask is True at the kept row positions. Every batch the encoder
    reads is truncated here and nowhere else."""
    if not rows:
        raise ValueError("empty batch")
    T = min(max(map(len, rows)), max_len)
    mask = np.arange(T) < np.array([len(row) for row in rows])[:, None]
    out = np.full(mask.shape, fill, dtype=dtype)
    out[mask] = [x for row in rows for x in row[:T]]
    return out, mask


def forward(
    model: EncoderModel,
    input_ids: np.ndarray,
    pad_mask: np.ndarray,
    dropout_rng: np.random.Generator | None = None,
):
    """Run the encoder. Returns (hidden [B,T,D], cache for backward).

    pad_mask is True at real positions. Only those N positions are computed:
    every per-token layer runs on packed [N,D] rows, and q, k and v are
    scattered into [B,T,D] (zero at padding) only for the attention scores,
    where PAD keys receive an additive -1e9. `hidden` is exactly 0 at
    padding, so pad contents cannot influence any output.
    """
    cfg, P = model.config, model.params
    ids = np.asarray(input_ids)
    mask = np.asarray(pad_mask, dtype=bool)
    if ids.ndim != 2:
        raise ValueError(f"input_ids must be 2-d, got shape {ids.shape}")
    if mask.shape != ids.shape:
        raise ValueError(f"pad_mask shape {mask.shape} != input_ids shape {ids.shape}")
    B, T = ids.shape
    if T > cfg.max_len:
        raise ValueError(f"sequence length {T} exceeds max_len {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError("input id outside vocabulary range")

    dtype = P["tok_emb"].dtype
    D, H = cfg.d_model, cfg.n_heads
    scale = dtype.type(1.0 / np.sqrt(cfg.d_head))
    # [B,1,1,T] additive bias over key positions
    att_bias = np.where(mask[:, None, None, :], dtype.type(0.0), dtype.type(NEG_INF))
    rows = np.flatnonzero(mask)  # the real positions of the [B*T] grid, row-major
    tok_ids = ids.reshape(-1)[rows]
    grid = (B, T, D)

    h = np.take(P["tok_emb"], tok_ids, axis=0)
    h += np.take(P["pos_emb"], rows % T, axis=0)
    emb_drop = _dropout_mask(dropout_rng, grid, cfg.dropout, dtype, rows)
    if emb_drop is not None:
        h *= emb_drop

    layers = []
    for l in range(cfg.n_layers):
        p = f"layers.{l}."
        x1, ln1c = _layer_norm(h, P[p + "ln1.g"], P[p + "ln1.b"])
        qkv = np.zeros((3, B * T, D), dtype)
        for j, nm in enumerate("qkv"):
            z = x1 @ P[p + f"attn.w{nm}"]
            if p + f"attn.b{nm}" in P:  # a bias only where model.param_shapes lists one
                z += P[p + f"attn.b{nm}"]
            qkv[j, rows] = z
        q, k, v = (_split_heads(x.reshape(grid), H) for x in qkv)
        s = q @ k.transpose(0, 1, 3, 2)
        s *= scale
        s += att_bias
        probs = softmax(s, axis=-1)
        ctx = _packed_heads(probs @ v, rows)
        attn = ctx @ P[p + "attn.wo"]
        attn += P[p + "attn.bo"]
        attn_drop = _dropout_mask(dropout_rng, grid, cfg.dropout, dtype, rows)
        if attn_drop is not None:
            attn *= attn_drop
        h += attn

        x2, ln2c = _layer_norm(h, P[p + "ln2.g"], P[p + "ln2.b"])
        u = x2 @ P[p + "ffn.w1"]
        u += P[p + "ffn.b1"]
        a, phi2 = _gelu(u)
        f = a @ P[p + "ffn.w2"]
        f += P[p + "ffn.b2"]
        ffn_drop = _dropout_mask(dropout_rng, grid, cfg.dropout, dtype, rows)
        if ffn_drop is not None:
            f *= ffn_drop
        h += f

        layers.append(
            dict(
                x1=x1, ln1c=ln1c, q=q, k=k, v=v, probs=probs, ctx=ctx,
                attn_drop=attn_drop, x2=x2, ln2c=ln2c, u=u, a=a, phi2=phi2,
                ffn_drop=ffn_drop,
            )
        )

    h, lnfc = _layer_norm(h, P["final_ln.g"], P["final_ln.b"])
    hidden = np.zeros((B * T, D), dtype)
    hidden[rows] = h
    hidden = hidden.reshape(grid)
    cache = dict(
        rows=rows, tok_ids=tok_ids, emb_drop=emb_drop, layers=layers, lnfc=lnfc,
        hidden=hidden, scale=scale,
    )
    return hidden, cache


def encoder_backward(
    model: EncoderModel,
    cache: dict,
    d_rows: np.ndarray,
    freeze_ins: bool = True,
    *,
    grads: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss w.r.t. every encoder parameter, added into
    `grads` (default: a fresh zeroed buffer), which is returned.

    d_rows [N,D] is dLoss/d(hidden) at the real rows, in the order of
    hidden[pad_mask] (`cache["rows"]`), from whatever head sits on top. The
    tied head's gradient for tok_emb may be in grads["tok_emb"] already
    (lm_backward writes it there); the input-embedding rows are summed apart
    and added to it. out_bias is left to the head.
    """
    cfg, P = model.config, model.params
    rows = cache["rows"]
    B, T, D = cache["hidden"].shape
    if np.shape(d_rows) != (len(rows), D):
        raise ValueError(f"d_rows shape {np.shape(d_rows)} != packed rows shape {(len(rows), D)}")
    if grads is None:
        grads = zero_grads(P)

    dh = _layer_norm_backward(grads, P, "final_ln", d_rows, cache["lnfc"])

    for l in reversed(range(cfg.n_layers)):
        p = f"layers.{l}."
        c = cache["layers"][l]

        # h_out = h_mid + drop(ffn(LN2(h_mid)))
        df = dh if c["ffn_drop"] is None else dh * c["ffn_drop"]
        da = _linear_backward(grads, P, p + "ffn.w2", p + "ffn.b2", c["a"], df)
        du = _gelu_grad(c["u"], c["phi2"])
        du *= da
        dx2 = _linear_backward(grads, P, p + "ffn.w1", p + "ffn.b1", c["x2"], du)
        dh += _layer_norm_backward(grads, P, p + "ln2", dx2, c["ln2c"])

        # h_mid = h_in + drop(attn(LN1(h_in)))
        dattn = dh if c["attn_drop"] is None else dh * c["attn_drop"]
        dctx = np.zeros((B * T, D), dh.dtype)
        dctx[rows] = _linear_backward(grads, P, p + "attn.wo", p + "attn.bo", c["ctx"], dattn)
        dctx = _split_heads(dctx.reshape(B, T, D), cfg.n_heads)
        dprobs = dctx @ c["v"].transpose(0, 1, 3, 2)
        dv = c["probs"].transpose(0, 1, 3, 2) @ dctx
        # ds = probs * (dprobs - sum(dprobs * probs)), in dprobs's buffer
        dprobs -= np.add.reduce(dprobs * c["probs"], axis=-1, keepdims=True)
        ds = np.multiply(dprobs, c["probs"], out=dprobs)
        dq = ds @ c["k"]
        dq *= cache["scale"]
        dk = ds.transpose(0, 1, 3, 2) @ c["q"]
        dk *= cache["scale"]
        dx1 = np.zeros_like(dh)
        for nm, dz in (("q", dq), ("k", dk), ("v", dv)):
            dx1 += _linear_backward(grads, P, p + f"attn.w{nm}", p + f"attn.b{nm}",
                                    c["x1"], _packed_heads(dz, rows))
        dh += _layer_norm_backward(grads, P, p + "ln1", dx1, c["ln1c"])

    if cache["emb_drop"] is not None:
        dh *= cache["emb_drop"]
    _add_rows(grads["pos_emb"], rows % T, dh)
    ids, at = np.unique(cache["tok_ids"], return_inverse=True)
    d_ids = np.zeros((len(ids), D), dh.dtype)
    _add_rows(d_ids, at, dh)
    grads["tok_emb"][ids] += d_ids
    if freeze_ins:
        grads["tok_emb"][INS_ID] = 0.0
    return grads


def lm_logits(model: EncoderModel, hidden: np.ndarray) -> np.ndarray:
    """Tied output head: hidden @ tok_emb.T + out_bias -> [..., V]."""
    tok_emb = model.params["tok_emb"]
    logits = hidden.reshape(-1, hidden.shape[-1]) @ tok_emb.T
    logits += model.params["out_bias"]
    return logits.reshape(*hidden.shape[:-1], len(tok_emb))


def _ce(logits, label_ids, *, out=None):
    """Mean cross-entropy and accuracy over the rows of `logits` [N, C]
    against `label_ids` [N], plus dLoss/dlogits. Returns (loss, accuracy,
    d_logits); raises if there are no rows. d_logits is computed in `out`
    (which may be `logits` itself) or, without it, in a fresh array."""
    n = len(logits)
    if n == 0:
        raise ValueError("no predictions in batch")
    label_ids = np.asarray(label_ids)
    rows = np.arange(n)
    # the argmax first: `out` may be `logits`, and the max shift can create ties
    acc = float(np.add.reduce(logits.argmax(axis=-1) == label_ids) / n)
    z = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True), out=out)
    z_label = z[rows, label_ids]
    np.exp(z, out=z)
    sum_e = np.add.reduce(z, axis=-1, keepdims=True)
    loss = -float(np.add.reduce(z_label - np.log(sum_e[:, 0])) / n)
    z /= sum_e
    z[rows, label_ids] -= 1.0
    z *= 1.0 / n
    return loss, acc, z


def lm_loss(logits, label_ids, predict_mask):
    """(mean NLL, accuracy, n_predicted) of logits [N_pred, V], one row per
    True of predict_mask [B,T] in row-major order (as lm_backward's
    d_logits), against label_ids [B,T]. Overwrites logits with dLoss/dlogits."""
    pm = np.asarray(predict_mask, dtype=bool)
    n = int(pm.sum())
    if np.ndim(logits) != 2 or len(logits) != n:
        raise ValueError(f"logits shape {np.shape(logits)} != ({n}, V): {n} predicted rows")
    loss, acc, _ = _ce(logits, np.asarray(label_ids)[pm], out=logits)
    return loss, acc, n


def lm_backward(
    model: EncoderModel,
    cache: dict,
    d_logits: np.ndarray,
    predict_mask: np.ndarray,
    *,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Backward through the tied head alone. Writes the tok_emb and out_bias
    gradients into `grads`, zeroing every other entry, and returns d_rows
    [N,D] for encoder_backward: d_logits @ tok_emb at the predicted rows,
    zero at the others. d_logits [N_pred, V] has one row per True of
    predict_mask [B,T] in row-major order (that of hidden[predict_mask]).
    """
    tok_emb = model.params["tok_emb"]
    pm = np.asarray(predict_mask, dtype=bool)
    hidden = cache["hidden"]
    zero_grads(model.params, grads, keep="tok_emb")
    np.matmul(d_logits.T, hidden[pm], out=grads["tok_emb"])
    grads["out_bias"] += np.add.reduce(d_logits, axis=0)
    d_rows = np.zeros((len(cache["rows"]), hidden.shape[-1]), hidden.dtype)
    d_rows[pm.reshape(-1)[cache["rows"]]] = d_logits @ tok_emb
    return d_rows


def lm_loss_and_grads(
    model: EncoderModel,
    input_ids: np.ndarray,
    pad_mask: np.ndarray,
    label_ids: np.ndarray,
    predict_mask: np.ndarray,
    dropout_rng: np.random.Generator | None = None,
    freeze_ins: bool = True,
    *,
    grads: dict[str, np.ndarray] | None = None,
):
    """One full LM training step's math: (loss, accuracy, n_pred, grads),
    the gradients written into `grads` (default: a fresh buffer).

    Logits are computed only at the predicted positions."""
    pm = np.asarray(predict_mask, dtype=bool)
    if pm.shape != np.shape(input_ids):
        raise ValueError(f"predict_mask shape {pm.shape} != input_ids shape {np.shape(input_ids)}")
    if (pm & ~np.asarray(pad_mask, dtype=bool)).any():
        raise ValueError("predict_mask selects a padding position")
    hidden, cache = forward(model, input_ids, pad_mask, dropout_rng)
    logits = lm_logits(model, hidden[pm])
    loss, acc, d_logits = _ce(logits, np.asarray(label_ids)[pm], out=logits)
    n_pred = len(logits)
    grads = zero_grads(model.params) if grads is None else grads
    d_rows = lm_backward(model, cache, d_logits, pm, grads=grads)
    del logits, d_logits
    encoder_backward(model, cache, d_rows, freeze_ins, grads=grads)
    return loss, acc, n_pred, grads
