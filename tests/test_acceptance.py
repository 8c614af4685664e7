"""End-to-end acceptance checks, one test per numbered criterion.

Every test prints a single PASS/FAIL line with the measured numbers
(run with `pytest tests/test_acceptance.py -v -s` to see them live).
Oracles here are written from scratch against definitions, never by
calling the code under test.
"""

import itertools
import json
import time
from collections import Counter

import numpy as np

from warplm import asrsim, slu, synth, textcore, warp
from warplm.asrsim import AlignmentStats, NoiseConfig, align
from warplm.cli import main as cli_main
from warplm.nnet import (
    ModelConfig,
    forward,
    init_adam,
    init_model,
    lm_logits,
    lm_loss,
    lm_loss_and_grads,
    param_count,
    step,
)
from warplm.pretrain import pad_batch, pretrain
from warplm.seeding import derive_seed
from warplm.textcore import INS_ID, MASK_ID, N_SPECIALS, PAD_ID


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ------------------------------------------------------------ 1: legality

def test_01_warp_legality_stress():
    cfg = warp.WarpConfig.wlm()
    vocab = synth.synth_vocab()
    ids_by_len = {n: [N_SPECIALS + (j % (len(vocab) - N_SPECIALS)) for j in range(n)]
                  for n in range(1, 129)}
    n_plans = 100_000
    n_illegal = n_algebra_bad = 0
    t0 = time.perf_counter()
    for i in range(n_plans):
        n = 1 + (i % 128)
        plan = warp.sample_plan(n, cfg, derive_seed(9001, i))
        ops = plan.ops
        # adjacency scan spelled out from the definition, not via is_legal
        for pos, op in ops.items():
            if ops.get(pos - 1) is warp.WarpOp.DROP:
                n_illegal += 1
        if ops.get(n - 1) is warp.WarpOp.DROP:
            n_illegal += 1
        ex = warp.apply_plan(ids_by_len[n], plan, vocab, derive_seed(9002, i))
        kinds = list(ops.values())
        want = n - kinds.count(warp.WarpOp.DROP) + kinds.count(warp.WarpOp.INSERT)
        if len(ex.input_ids) != want or len(ex.label_ids) != want:
            n_algebra_bad += 1
    dt = time.perf_counter() - t0
    ok = n_illegal == 0 and n_algebra_bad == 0 and dt < 30.0
    _report(1, ok, f"{n_plans} wlm plans len 1..128: {n_illegal} illegal "
                   f"adjacencies, {n_algebra_bad} length-algebra violations, "
                   f"{dt:.1f}s (<30s)")


# ------------------------------------------------------------ 2: op rates

def test_02_operation_rate_fidelity():
    cfg = warp.WarpConfig.wlm()
    want = {op: cfg.proportions[op] for op in warp.OP_ORDER}
    total = selected = post_selected = 0
    counts: Counter = Counter()
    post: Counter = Counter()
    i = 0
    while total < 1_000_000:
        n = 1 + (i % 128)
        raw = warp.sample_raw_plan(n, cfg, derive_seed(888, i))
        total += n
        selected += len(raw.ops)
        counts.update(raw.ops.values())
        rep = warp.repair_plan(raw)
        post_selected += len(rep.ops)
        post.update(rep.ops.values())
        i += 1
    sel_rate = selected / total
    props = {op: counts[op] / selected for op in warp.OP_ORDER}
    post_props = {op: post[op] / post_selected for op in warp.OP_ORDER}
    worst = max(abs(props[op] - want[op]) for op in warp.OP_ORDER)
    ok = abs(sel_rate - 0.15) <= 0.01 and worst <= 0.02
    pre = " ".join(f"{op.value}={props[op]:.3f}" for op in warp.OP_ORDER)
    after = " ".join(f"{op.value}={post_props[op]:.3f}" for op in warp.OP_ORDER)
    _report(2, ok, f"{total} positions: select={sel_rate:.4f} (0.15±0.01), "
                   f"pre-repair {pre} (±0.02); post-repair {after} "
                   f"select={post_selected / total:.4f} [informational]")


# ------------------------------------------------------------ 3: gradients

def test_03_gradient_correctness_every_parameter():
    cfg = ModelConfig(vocab_size=50, d_model=16, n_layers=2, n_heads=4,
                      d_ff=32, max_len=8, dropout=0.0)
    model = init_model(cfg, seed=3).astype(np.float64)
    rng = np.random.default_rng(30)
    B, T = 2, 7
    ids = rng.integers(N_SPECIALS, cfg.vocab_size, size=(B, T))
    ids[0, 2] = MASK_ID
    ids[0, 5] = MASK_ID
    ids[1, 3] = INS_ID
    pad = np.ones((B, T), dtype=bool)
    pad[1, 5:] = False
    ids[1, 5:] = PAD_ID
    labels = rng.integers(N_SPECIALS, cfg.vocab_size, size=(B, T))
    labels[1, 3] = INS_ID
    pred = np.zeros((B, T), dtype=bool)
    pred[0, [2, 5]] = True
    pred[1, [1, 3]] = True

    def loss_fn() -> float:
        hidden, _ = forward(model, ids, pad, None)
        loss, _, _ = lm_loss(lm_logits(model, hidden)[pred], labels, pred)
        return loss

    # freeze off: the check is that the analytic derivative of the loss is
    # right for every scalar, including the tied [INS] row
    _, _, _, grads = lm_loss_and_grads(model, ids, pad, labels, pred,
                                       None, freeze_ins=False)
    eps = 1e-5
    worst = 0.0
    worst_name = ""
    n_checked = 0
    t0 = time.perf_counter()
    for name, p in model.params.items():
        flat = p.reshape(-1)
        g = grads[name].reshape(-1)
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + eps
            up = loss_fn()
            flat[k] = keep - eps
            dn = loss_fn()
            flat[k] = keep
            fd = (up - dn) / (2 * eps)
            rel = abs(fd - g[k]) / max(1e-4, abs(fd) + abs(g[k]))
            if rel > worst:
                worst, worst_name = rel, f"{name}[{k}]"
            n_checked += 1
    dt = time.perf_counter() - t0
    ok = worst < 1e-3 and dt < 300.0
    _report(3, ok, f"central differences on all {n_checked} parameters "
                   f"(2 layers, d_model=16, vocab=50, dropout off): worst "
                   f"rel err {worst:.2e} at {worst_name} (<1e-3), {dt:.1f}s (<5min)")


# ------------------------------------------------------------ 4: INS freeze

def test_04_frozen_ins_embedding_after_500_steps():
    vocab = synth.synth_vocab()
    sents = textcore.corpus_from_text(synth.synth_corpus_text(800, 4), vocab).sentences
    cfg = ModelConfig.desk(len(vocab))
    model = init_model(cfg, seed=44)
    ins_init = model.params["tok_emb"][INS_ID].copy()
    adam = init_adam(model.params, lr=1e-3)
    wcfg = warp.WarpConfig.wlm()
    rng = np.random.default_rng(derive_seed(4, 2))
    first_loss = last_loss = None
    for step_i in range(500):
        idx = rng.integers(0, len(sents), size=16)
        exs = [warp.warp(sents[j], wcfg, vocab, derive_seed(4, 3, step_i, k))
               for k, j in enumerate(idx)]
        ids, pad, labels, pred = pad_batch(exs, cfg.max_len)
        if not pred.any():
            continue
        loss, _, _, grads = lm_loss_and_grads(model, ids, pad, labels, pred)
        step(model.params, grads, adam)
        if first_loss is None:
            first_loss = loss
        last_loss = loss
    row = model.params["tok_emb"][INS_ID]
    identical = bool(np.array_equal(row.view(np.uint32), ins_init.view(np.uint32)))
    moved = not np.array_equal(model.params["tok_emb"][MASK_ID],
                               init_model(cfg, seed=44).params["tok_emb"][MASK_ID])
    ok = identical and moved and last_loss < first_loss
    _report(4, ok, f"500 wlm steps: [INS] embedding row bit-identical={identical}, "
                   f"other rows trained={moved}, loss {first_loss:.3f}->{last_loss:.3f}")


# ------------------------------------------------------------ 5: convergence

def test_05_convergence_halves_baseline_perplexity():
    vocab = synth.synth_vocab()
    sents = textcore.corpus_from_text(synth.synth_corpus_text(1600, 5), vocab).sentences
    train, val = sents[160:], sents[:160]
    baseline = float(len(vocab))  # exp(ln V): untrained uniform predictor
    target = 0.5 * baseline
    cfg = ModelConfig.desk(len(vocab))
    results = {}
    ok = True
    for objective in ("mlm", "wlm"):
        _, history = pretrain(train, val, vocab, cfg,
                              warp.WarpConfig(objective),
                              epochs=4, seed=55)
        hit = next((h.epoch for h in history if h.val_perplexity <= target), None)
        best = min(h.val_perplexity for h in history)
        results[objective] = (hit, best)
        ok = ok and hit is not None and hit <= 20
    detail = ", ".join(
        f"{obj}: ppl {best:.2f} <= {target:.0f} at epoch {hit}"
        for obj, (hit, best) in results.items()
    )
    _report(5, ok, f"baseline V={baseline:.0f}: {detail} (within 20 epochs)")


# ------------------------------------------------------------ 6: aligner

def _oracle_distances(R: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Edit distances for every (ref row, hyp row) pair at once, by running
    the DP over the whole pair grid with numpy."""
    A, n = R.shape
    B, m = H.shape
    prev = np.tile(np.arange(m + 1, dtype=np.int16)[:, None, None], (1, A, B))
    for i in range(1, n + 1):
        cur = np.empty_like(prev)
        cur[0] = i
        for j in range(1, m + 1):
            subcost = (R[:, i - 1][:, None] != H[:, j - 1][None, :]).astype(np.int16)
            cur[j] = np.minimum(
                np.minimum(prev[j] + 1, cur[j - 1] + 1), prev[j - 1] + subcost
            )
        prev = cur
    return prev[m]


def _recursive_distance(r: tuple, h: tuple) -> int:
    if not r:
        return len(h)
    if not h:
        return len(r)
    return min(
        _recursive_distance(r[1:], h) + 1,
        _recursive_distance(r, h[1:]) + 1,
        _recursive_distance(r[1:], h[1:]) + (r[0] != h[0]),
    )


def test_06_aligner_matches_exhaustive_brute_force():
    t0 = time.perf_counter()
    seqs = {
        n: np.array(list(itertools.product(range(3), repeat=n)), dtype=np.int64)
        .reshape(3 ** n, n)
        for n in range(7)
    }
    n_pairs = mismatches = 0
    for n in range(7):
        for m in range(7):
            R, H = seqs[n], seqs[m]
            want = _oracle_distances(R, H)
            refs, hyps = R.tolist(), H.tolist()
            for a, r in enumerate(refs):
                for b, h in enumerate(hyps):
                    if asrsim.edit_distance(align(r, h)) != int(want[a, b]):
                        mismatches += 1
                    n_pairs += 1
    # validate the vectorized oracle itself against the plain recursive
    # definition on a sample (kept small: the recursion is exponential)
    rng = np.random.default_rng(6)
    oracle_bad = 0
    for _ in range(300):
        n = int(rng.integers(0, 5))
        m = int(rng.integers(0, min(9 - n, 7)))
        r = tuple(rng.integers(0, 3, n).tolist())
        h = tuple(rng.integers(0, 3, m).tolist())
        got = int(_oracle_distances(np.array([r], dtype=np.int64).reshape(1, n),
                                    np.array([h], dtype=np.int64).reshape(1, m))[0, 0])
        if got != _recursive_distance(r, h):
            oracle_bad += 1
    # label transfer validity on randomly corrupted tagged utterances
    vocab = synth.synth_vocab()
    utts = synth.synth_slu_utterances(10_000, vocab, seed=66)
    noisy, _, _ = asrsim.make_noisy_slu_set(utts, NoiseConfig.train_val(), vocab, 67)
    n_invalid = sum(1 for u in noisy if not slu.iob_is_valid(u.tags))
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and oracle_bad == 0 and n_invalid == 0
    _report(6, ok, f"align == brute force on all {n_pairs} pairs (len<=6, "
                   f"3 symbols): {mismatches} mismatches (oracle cross-check "
                   f"{oracle_bad} bad); {len(noisy)} corrupted transfers, "
                   f"{n_invalid} IOB-invalid; {dt:.1f}s")


# ------------------------------------------------------------ 7: wer

def _dp_distance(r: list, h: list) -> int:
    n, m = len(r), len(h)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1,
                          d[i - 1, j - 1] + (r[i - 1] != h[j - 1]))
    return int(d[n, m])


def test_07_wer_oracle_and_simulator_rate():
    rng = np.random.default_rng(70)
    n_bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(0, 13))
        r = rng.integers(0, 8, n).tolist()
        h = rng.integers(0, 8, m).tolist()
        if asrsim.wer(r, h) != _dp_distance(r, h) / n:
            n_bad += 1
    noise = NoiseConfig.train_val()
    stats = AlignmentStats()
    sim_rng = np.random.default_rng(71)
    total = 0
    while total < 100_000:
        n = int(sim_rng.integers(20, 60))
        ref = sim_rng.integers(N_SPECIALS, 200, n).tolist()
        hyp = asrsim.corrupt(ref, noise, 200, sim_rng)
        stats.add(align(ref, hyp), n)
        total += n
    measured = stats.wer
    ok = n_bad == 0 and abs(measured - 0.186) <= 0.015
    _report(7, ok, f"wer == independent recomputation on 1000 pairs "
                   f"({n_bad} bad); simulated wer {measured:.4f} over "
                   f"{total} tokens (0.186±0.015)")


# ------------------------------------------------------------ 8: metrics

def _brute_spans(tags: list) -> set:
    """(type, start, end) spans straight from the boundary definition:
    starts at B- (or an I- with no same-type continuation before it), all
    interior tags are I- of the type, and the next tag does not continue."""
    spans = set()
    n = len(tags)
    for s in range(n):
        tag = tags[s]
        if tag == "O":
            continue
        t = tag[2:]
        if tag.startswith("B-"):
            begins = True
        else:  # I-t begins a span only without a same-type tag directly before
            begins = s == 0 or tags[s - 1] not in ("B-" + t, "I-" + t)
        if not begins:
            continue
        e = s
        while e + 1 < n and tags[e + 1] == "I-" + t:
            e += 1
        spans.add((t, s, e))
    return spans


def _brute_f1(golds: list, preds: list):
    tp = n_pred = n_gold = 0
    for g, p in zip(golds, preds):
        gs, ps = _brute_spans(g), _brute_spans(p)
        tp += len(gs & ps)
        n_pred += len(ps)
        n_gold += len(gs)
    if n_pred == 0 and n_gold == 0:
        return 1.0, 1.0, 1.0
    prec = tp / n_pred if n_pred else 0.0
    rec = tp / n_gold if n_gold else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    return prec, rec, f1


def test_08_metric_oracles():
    rng = np.random.default_rng(80)
    tagset = ["O", "B-x", "I-x", "B-y", "I-y"]

    def random_tags(n):
        return [tagset[int(k)] for k in rng.integers(0, len(tagset), n)]

    golds, preds = [], []
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        golds.append(random_tags(n))
        preds.append(random_tags(n))
    got = slu.conll_f1(golds, preds)
    want = _brute_f1(golds, preds)
    f1_ok = max(abs(a - b) for a, b in zip(got, want)) <= 1e-12

    intents = ["a", "b", "c"]
    bound_ok = True
    worst_gap = 1.0
    for trial in range(20):
        k = 50
        gi = [intents[int(v)] for v in rng.integers(0, 3, k)]
        pi = [intents[int(v)] for v in rng.integers(0, 3, k)]
        gt = [random_tags(int(rng.integers(1, 10))) for _ in range(k)]
        pt = [random_tags(len(t)) if rng.random() < 0.7 else list(t) for t in gt]
        joint = slu.joint_accuracy(gi, pi, gt, pt)
        cap = min(slu.intent_accuracy(gi, pi),
                  sum(a == b for a, b in zip(gt, pt)) / k)
        bound_ok = bound_ok and joint <= cap + 1e-12
        worst_gap = min(worst_gap, cap - joint)

    vocab = synth.synth_vocab()
    utts = synth.synth_slu_utterances(200, vocab, seed=88)
    g_tags = [list(u.tags) for u in utts]
    g_int = [u.intent for u in utts]
    gold_ok = (slu.conll_f1(g_tags, g_tags) == (1.0, 1.0, 1.0)
               and slu.intent_accuracy(g_int, g_int) == 1.0
               and slu.joint_accuracy(g_int, g_int, g_tags, g_tags) == 1.0)

    ok = f1_ok and bound_ok and gold_ok
    _report(8, ok, f"conll_f1 == brute force on 1000 pairs ({got[2]:.4f}); "
                   f"joint<=min(intent,seq) on 20 random evals (min slack "
                   f"{worst_gap:.4f}); gold-vs-gold all 1.0={gold_ok}")


# ------------------------------------------------------------ 9: matrix

def test_09_experiment_matrix(tmp_path):
    out = tmp_path / "exp"
    t0 = time.perf_counter()
    code = cli_main(["experiment", "--out", str(out)])
    dt = time.perf_counter() - t0
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    records = report["records"]
    shape_ok = (
        len(records) == 30
        and {(r["setting"], r["objective"]) for r in records}
        == {(s, o) for s in ("clean-clean", "clean-noisy", "noisy-noisy")
            for o in ("wlm", "mlm")}
    )
    table = (out / "report.txt").read_text()
    table_ok = all(s in table for s in ("clean-clean", "clean-noisy", "noisy-noisy",
                                        "wlm", "mlm", "joint", "p(clean-noisy)"))
    summary = report["summary"]
    noise_hurts = all(
        summary["clean-clean"][obj][m]["mean"] >= summary["clean-noisy"][obj][m]["mean"]
        for obj in ("wlm", "mlm")
        for m in ("intent_accuracy", "slot_f1", "joint_accuracy")
    )
    gaps = {
        s: (summary[s]["wlm"]["joint_accuracy"]["mean"]
            - summary[s]["mlm"]["joint_accuracy"]["mean"],
            report["p_values"][s]["joint_accuracy"])
        for s in ("clean-noisy", "noisy-noisy")
    }
    gap_txt = " ".join(f"{s}: wlm-mlm={d:+.3f} (p={p:.3f})"
                       for s, (d, p) in gaps.items())
    ok = shape_ok and table_ok and noise_hurts and dt < 7200
    _report(9, ok, f"2 objectives x 3 settings x 5 seeds in {dt:.0f}s (<2h); "
                   f"report shaped={table_ok}; clean-clean >= clean-noisy for "
                   f"both objectives={noise_hurts}; noisy joint gap "
                   f"[reported, not gated] {gap_txt}")


# ------------------------------------------------------------ 10: size

def test_10_param_count_window():
    n = param_count(ModelConfig.base(30000))
    ok = 50_000_000 <= n <= 62_000_000
    _report(10, ok, f"base config with 30k vocab: {n:,} parameters in [50M, 62M]")
