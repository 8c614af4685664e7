"""The worker pool that splits the vocabulary-sized ops (nnet.parallel):
the same bits at any worker count and BLAS thread count, errstate in the
workers, a forked child, and nothing started at import."""

import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import warplm.experiment
from warplm.nnet import ModelConfig, forward, init_adam, init_model, lm_backward, lm_logits, step
from warplm.nnet import parallel
from warplm.nnet.adam import BETA1, BETA2, BLOCK, EPS
from warplm.nnet.encoder import VOCAB_UNIT, _ce, zero_grads
from warplm.pretrain import pretrain
from warplm.textcore import SPECIAL_TOKENS, Vocab
from warplm.warp import WarpConfig

DTYPES = [np.float32, np.float64]
V = 4001  # odd, and its last vocabulary range is not a whole VOCAB_UNIT
CFG = ModelConfig(vocab_size=V, d_model=64, n_layers=1, n_heads=2, d_ff=32, max_len=8,
                  dropout=0.0)


# ------------------------------------------------------- the unsplit oracles

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
    """The unsplit tied head: (grads, zero but tok_emb and out_bias, and
    dLoss/d(hidden) at the real rows)."""
    P = model.params
    hidden = cache["hidden"]
    grads = zero_grads(P)
    d_hidden = np.zeros(hidden.shape, hidden.dtype)
    d_hidden[pm] = d_logits @ P["tok_emb"]
    np.matmul(d_logits.T, hidden[pm], out=grads["tok_emb"])
    grads["out_bias"] += np.add.reduce(d_logits, axis=0)
    return grads, d_hidden.reshape(-1, hidden.shape[-1])[cache["rows"]]


def ref_adam_step(state):
    """One step of the unsplit blocked Adam on `state` (its own gradient buffer)."""
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


# ------------------------------------------------------------------ helpers

@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}-workers")
def n_workers(request, monkeypatch):
    """Every op with at least one element per range splits over n workers."""
    monkeypatch.setattr(parallel, "workers", lambda: request.param)
    monkeypatch.setattr(parallel, "MIN_WORK", 1)
    return request.param


def head_model(dtype):
    model = init_model(CFG, seed=2).astype(dtype)
    model.params["out_bias"][...] = np.random.default_rng(3).normal(0.0, 0.5, V)
    return model


def lm_batch(n_pred):
    """(ids, pad, labels, pm): 3 ragged rows of ids across the vocabulary,
    n_pred of their real positions predicted."""
    rng = np.random.default_rng(n_pred)
    pad = np.arange(6) < np.array([6, 2, 4])[:, None]
    ids = np.where(pad, rng.integers(5, V, size=pad.shape), 0)
    labels = rng.integers(5, V, size=pad.shape)
    pm = np.zeros_like(pad)
    pm.reshape(-1)[rng.choice(np.flatnonzero(pad), n_pred, replace=False)] = True
    return ids, pad, labels, pm


def blocked_state(dtype):
    """Adam over four blocks, the last one ragged, with drawn gradients
    and moments away from zero."""
    rng = np.random.default_rng(12)
    shapes = {"w": (2, BLOCK // 2 + 3), "b": (7,), "u": (2 * BLOCK + 1000,)}
    params = {k: rng.normal(0.0, 0.5, s).astype(dtype) for k, s in shapes.items()}
    st = init_adam(params, lr=2e-3)
    assert 3 * BLOCK < st.flat.size < 4 * BLOCK
    st.grad[...] = rng.normal(0.0, 0.1, st.grad.size)
    ref_adam_step(st)
    return params, st


def state_bytes(st):
    return [st.flat.tobytes(), st.m.tobytes(), st.v.tobytes(), st.t]


# ------------------------------------------------------------- bit oracles

def test_split_covers_the_range_in_unit_aligned_ranges(monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 3)
    assert parallel.split(V, V, VOCAB_UNIT) == [(0, V)]  # below 2 * MIN_WORK
    assert parallel.split(1, 10 * parallel.MIN_WORK) == [(0, 1)]
    assert parallel.split(2, 10 * parallel.MIN_WORK) == [(0, 1), (1, 2)]
    assert parallel.split(V, 10 * parallel.MIN_WORK, VOCAB_UNIT) == [
        (0, 1024), (1024, 2048), (2048, V)]
    assert parallel.split(VOCAB_UNIT + 100, 10 * parallel.MIN_WORK, VOCAB_UNIT) == [
        (0, VOCAB_UNIT + 100)]
    size = 2 * BLOCK + 5
    assert parallel.split(size, size) == [(0, size)]
    assert parallel.split(size, 3 * parallel.MIN_WORK, BLOCK) == [(0, BLOCK), (BLOCK, size)]


@pytest.mark.parametrize("n_rows", [1, 2, 37])
@pytest.mark.parametrize("dtype", DTYPES)
def test_split_head_matches_the_unsplit_formulas_bit_for_bit(dtype, n_rows, n_workers):
    model = head_model(dtype)
    rng = np.random.default_rng(n_rows)
    hidden = rng.normal(size=(n_rows, CFG.d_model)).astype(dtype)
    assert len(parallel.split(V, n_rows * V, VOCAB_UNIT)) == n_workers
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


@pytest.mark.parametrize("n_pred", [1, 2, 9])
@pytest.mark.parametrize("dtype", DTYPES)
def test_split_lm_backward_matches_the_unsplit_head_bit_for_bit(dtype, n_pred, n_workers):
    model = head_model(dtype)
    ids, pad, labels, pm = lm_batch(n_pred)
    hidden, cache = forward(model, ids, pad)
    _, _, d_logits = ref_ce(ref_lm_logits(model, hidden[pm]), labels[pm])
    want, want_rows = ref_lm_backward(model, cache, d_logits, pm)
    handed = zero_grads(model.params)
    for g in handed.values():
        g[...] = np.nan  # stale contents must not leak into any gradient
    d_rows = lm_backward(model, cache, d_logits, pm, grads=handed)
    assert d_rows.tobytes() == want_rows.tobytes()
    for name in model.params:
        assert handed[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("dtype", DTYPES)
def test_split_adam_matches_the_unsplit_step_bit_for_bit(dtype, n_workers):
    params, st = blocked_state(dtype)
    _, ref = blocked_state(dtype)
    assert len(parallel.split(st.flat.size, st.flat.size, BLOCK)) == n_workers
    rng = np.random.default_rng(5)
    for _ in range(4):
        st.grad[...] = ref.grad[...] = rng.normal(0.0, 0.1, st.grad.size)
        step(params, st.grads, st)
        ref_adam_step(ref)
        assert state_bytes(st) == state_bytes(ref)
        assert st.grad.tobytes() == ref.grad.tobytes()
    assert st.work.shape == (2, BLOCK)  # the caller's scratch is unchanged


@pytest.mark.parametrize("dtype", DTYPES)
def test_nonfinite_gradient_in_the_last_workers_range_changes_nothing(dtype, monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 3)
    monkeypatch.setattr(parallel, "MIN_WORK", 1)
    params, st = blocked_state(dtype)
    ranges = parallel.split(st.flat.size, st.flat.size, BLOCK)
    assert len(ranges) == 3 and ranges[-1][0] > params["w"].size + params["b"].size
    st.grads["u"][-1] = np.nan  # the last element: in the last range only
    before = state_bytes(st)
    with pytest.raises(FloatingPointError) as e:
        step(params, st.grads, st)
    assert str(e.value) == "divergence: non-finite gradient in u at step 2"
    assert state_bytes(st) == before


def filler_vocab(size):
    return Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(size - len(SPECIAL_TOKENS))])


def test_a_30k_vocabulary_pretrain_writes_the_same_bytes_at_any_blas_thread_count():
    controls = parallel._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy's OpenBLAS thread-count functions were not found")
    get, set_ = controls[0]
    vocab = filler_vocab(30000)
    rng = np.random.default_rng(0)
    sents = [[int(i) for i in rng.integers(5, len(vocab), size=rng.integers(5, 15))]
             for _ in range(40)]
    old = get()
    runs = []
    try:
        for threads in (1, 2):
            set_(threads)
            model, history = pretrain(sents[8:], sents[:8], vocab, ModelConfig.desk(len(vocab)),
                                      WarpConfig("wlm"), epochs=1, seed=3)
            assert get() == threads
            runs.append(([p.tobytes() for p in model.params.values()],
                         [asdict(row) for row in history]))
    finally:
        set_(old)
    assert runs[0] == runs[1]


# ----------------------------------------------- errstate, fork and import

def test_pool_threads_run_under_the_callers_errstate():
    seen = {}

    def fn(lo, hi):
        seen[lo] = (threading.get_ident(), np.geterr())
        if lo == 1:
            np.array([3e38], np.float32) * np.float32(10.0)  # overflows

    with np.errstate(over="raise", invalid="ignore", divide="warn", under="ignore"):
        want = np.geterr()
        with pytest.raises(FloatingPointError):
            parallel.run(fn, [(0, 1), (1, 2)])
    assert seen[0][0] == threading.get_ident() != seen[1][0]
    assert seen[0][1] == seen[1][1] == want


def test_the_first_failing_range_in_order_raises_after_every_range_ends():
    done = []

    def fn(lo, hi):
        if lo == 2:
            raise KeyError(lo)
        threading.Event().wait(0.2 * (lo == 1))
        done.append(lo)
        if lo == 1:
            raise ValueError(lo)

    with pytest.raises(ValueError):
        parallel.run(fn, [(0, 1), (1, 2), (2, 3)])
    assert sorted(done) == [0, 1]


def _split_in_child():
    assert parallel.run(lambda lo, hi: hi - lo, parallel.cut(4, 2)) == [2, 2]


def test_a_forked_child_builds_its_own_pool(monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    ranges = parallel.cut(4, 2)
    assert len(set(parallel.run(lambda lo, hi: threading.get_ident(), ranges))) == 2
    child = multiprocessing.get_context("fork").Process(target=_split_in_child)
    child.start()
    child.join(timeout=60)
    hung = child.is_alive()
    if hung:
        child.kill()
        child.join()
    assert not hung, "a split in a forked child never finished"
    assert child.exitcode == 0
    assert parallel.run(lambda lo, hi: hi - lo, ranges) == [2, 2]


def test_importing_the_cli_and_a_desk_pretrain_start_no_thread(tmp_path):
    script = """
import sys, threading
import warplm.cli
assert "concurrent.futures" not in sys.modules, "imported at package import"
assert threading.active_count() == 1
from warplm.nnet import ModelConfig
from warplm.pretrain import pretrain
from warplm.synth import synth_corpus_text, synth_vocab
from warplm.textcore import corpus_from_text
from warplm.warp import WarpConfig
vocab = synth_vocab()
sents = corpus_from_text(synth_corpus_text(80, seed=1), vocab).sentences
pretrain(sents[8:], sents[:8], vocab, ModelConfig.desk(len(vocab)), WarpConfig("wlm"), epochs=1)
assert threading.active_count() == 1, threading.enumerate()
assert "concurrent.futures" not in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": str(Path(warplm.experiment.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
