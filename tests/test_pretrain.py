import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import warplm.experiment
from warplm.nnet import ModelConfig, init_model
from warplm.nnet.blas import _openblas_thread_controls
from warplm.pretrain import EpochStats, evaluate_lm, pad_batch, pretrain, validation_warps
from warplm.slu import finetune
from warplm.synth import synth_corpus_text, synth_slu_utterances, synth_vocab
from warplm.textcore import INS_ID, PAD_ID, SPECIAL_TOKENS, Vocab, corpus_from_text
from warplm.warp import WarpConfig, WarpedExample, WarpPlan

VOCAB = synth_vocab()


def make_examples():
    return [
        WarpedExample([5, 6, 7], [0, 6, 0], [False, True, False], [5, 6, 7],
                      WarpPlan(3, {})),
        WarpedExample([8, 9], [8, 0], [True, False], [8, 9], WarpPlan(2, {})),
    ]


def test_pad_batch_shapes_and_padding():
    ids, pad, labels, pm = pad_batch(make_examples(), max_len=16)
    assert ids.shape == (2, 3)
    assert ids[1, 2] == PAD_ID
    assert not pad[1, 2] and pad[1, 1]
    assert pm.tolist() == [[False, True, False], [True, False, False]]
    assert labels[0, 1] == 6


def test_pad_batch_truncates_at_max_len():
    ex = WarpedExample(list(range(5, 15)), [0] * 10, [True] * 10,
                       list(range(5, 15)), WarpPlan(10, {}))
    ids, pad, labels, pm = pad_batch([ex], max_len=4)
    assert ids.shape == (1, 4)
    assert pm.sum() == 4


def test_pad_batch_empty_errors():
    with pytest.raises(ValueError, match="empty batch"):
        pad_batch([], max_len=8)


def small_corpus(n=120):
    text = synth_corpus_text(n, seed=5)
    return corpus_from_text(text, VOCAB).sentences


def test_pretrain_is_deterministic():
    sents = small_corpus()
    cfg = ModelConfig.desk(len(VOCAB), n_layers=1, d_model=32, d_ff=64)
    kw = dict(epochs=2, batch_size=16, lr=1e-3, seed=7)
    m1, h1 = pretrain(sents[10:], sents[:10], VOCAB, cfg, WarpConfig.wlm(), **kw)
    m2, h2 = pretrain(sents[10:], sents[:10], VOCAB, cfg, WarpConfig.wlm(), **kw)
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k]), k
    assert [asdict(r) for r in h1] == [asdict(r) for r in h2]


def test_pretrain_seed_changes_run():
    sents = small_corpus()
    cfg = ModelConfig.desk(len(VOCAB), n_layers=1, d_model=32, d_ff=64)
    _, h1 = pretrain(sents[10:], sents[:10], VOCAB, cfg, WarpConfig.wlm(),
                     epochs=1, batch_size=16, seed=1)
    _, h2 = pretrain(sents[10:], sents[:10], VOCAB, cfg, WarpConfig.wlm(),
                     epochs=1, batch_size=16, seed=2)
    assert h1[0].train_loss != h2[0].train_loss


def test_pretrain_loss_decreases():
    sents = small_corpus(200)
    cfg = ModelConfig.desk(len(VOCAB))
    _, hist = pretrain(sents[20:], sents[:20], VOCAB, cfg, WarpConfig.wlm(),
                       epochs=3, batch_size=32, seed=0)
    assert hist[-1].train_loss < hist[0].train_loss
    assert hist[-1].val_perplexity < len(VOCAB)  # far below uniform baseline


def test_pretrain_empty_corpus_errors():
    cfg = ModelConfig.desk(len(VOCAB))
    with pytest.raises(ValueError, match="empty corpus"):
        pretrain([], [[5, 6]], VOCAB, cfg, WarpConfig.wlm(), epochs=1)


def test_evaluate_lm_fixed_warps():
    sents = small_corpus(40)
    cfg = ModelConfig.desk(len(VOCAB), n_layers=1, d_model=32, d_ff=64)
    model, _ = pretrain(sents[5:], sents[:5], VOCAB, cfg, WarpConfig.mlm(),
                        epochs=1, batch_size=16, seed=0)
    a, b, c = (evaluate_lm(model, validation_warps(sents[:5], WarpConfig.mlm(), VOCAB,
                                                   seed, cfg.max_len))
               for seed in (3, 3, 4))
    assert a == b
    assert a != c  # different warps, different measurement


def test_evaluate_lm_allocates_under_twice_the_parameters_at_a_30k_vocab():
    """Validation at V 30000 and desk dims, over three pretraining-shaped
    batches of 32 (sentences of 12 to 15 ids, 15% of the positions
    predicted), stays within a training step's budget of 2x the parameter
    bytes: one batch's [N_pred, V] logits are alive at a time, scored in
    place."""
    import tracemalloc
    V = 30000
    model = init_model(ModelConfig.desk(V), seed=0)
    rng = np.random.default_rng(0)
    examples = []
    for n in rng.integers(12, 16, size=96):
        ids = rng.integers(INS_ID + 1, V, size=n).tolist()
        pm = (rng.random(n) < 0.15).tolist()
        examples.append(WarpedExample(ids, ids, pm, ids, WarpPlan(int(n), {})))
    evaluate_lm(model, examples, batch_size=32)  # warm-up: numpy's caches
    tracemalloc.start()
    try:
        evaluate_lm(model, examples, batch_size=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(p.nbytes for p in model.params.values())


def test_epoch_stats_json_shape():
    row = EpochStats(3, 1.5, 12.0, 0.5)
    js = asdict(row)
    assert set(js) == {"epoch", "train_loss", "val_perplexity", "val_accuracy"}
    json.dumps(js)


def filler_vocab(size):
    return Vocab(list(SPECIAL_TOKENS) + [f"w{i}" for i in range(size - len(SPECIAL_TOKENS))])


def test_a_30k_vocabulary_pretrain_writes_the_same_bytes_at_any_blas_thread_count():
    controls = _openblas_thread_controls()
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


def test_a_batch_64_finetune_writes_the_same_bytes_at_any_blas_thread_count():
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("numpy's OpenBLAS thread-count functions were not found")
    get, set_ = controls[0]
    utts = synth_slu_utterances(64, VOCAB, seed=1)
    encoder = init_model(ModelConfig.desk(len(VOCAB)), seed=0)
    old = get()
    runs = []
    try:
        for threads in (1, 2):
            set_(threads)
            model, history = finetune(encoder, utts, utts[:8], epochs=1, batch_size=64, seed=3)
            assert get() == threads
            runs.append(([p.tobytes() for p in model.params.values()],
                         [asdict(row) for row in history]))
    finally:
        set_(old)
    assert runs[0] == runs[1]


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
