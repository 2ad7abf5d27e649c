"""End-to-end acceptance checks.

Each test prints one `[criterion N] PASS/FAIL - description` line before
asserting, so a plain pytest run doubles as a checklist report
(`pytest tests/test_acceptance.py -v -s`).
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

import spangraph.tensor as T
from _gradcheck import check_op
from _helpers import random_graph, tiny_model
from spangraph.cli import main
from spangraph.data import load_dataset, make_synthetic
from spangraph.decode import DecodeConfig, generate, nucleus_select, predict
from spangraph.graph import Document, EntitySpan, IEGraph, Relation, Schema
from spangraph.grammar import enumerate_valid_sequences, replay
from spangraph.linearize import Ordering, delinearize, linearize
from spangraph.metrics import Counts, evaluate_pairs, score_entities, score_relations
from spangraph.model import Model, ModelConfig, WordVocab
from spangraph.train import AdamW, TrainConfig, encode_example, example_loss, train_loop
from spangraph.vocab import build_layout


def _report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    """50/25/25 synthetic corpus (2 entity types, 2 relation types), iid split."""
    out = tmp_path_factory.mktemp("toycorpus")
    paths = make_synthetic(str(out), seed=0, n_train=50, n_dev=25, n_test=25,
                           split_mode="iid")
    train = load_dataset(paths["train"])
    dev = load_dataset(paths["dev"])
    test = load_dataset(paths["test"])
    vocab = WordVocab.build(train.documents())
    return train, dev, test, vocab


def _toy_model(train, vocab, seed, dropout, use_positions=True, use_structure=True):
    cfg = ModelConfig(d_model=64, enc_layers=2, dec_layers=2, heads=4,
                      max_span_width=train.max_span_width, dtype="float32",
                      dropout=dropout, use_positions=use_positions,
                      use_structure=use_structure)
    return Model(cfg, train.schema, vocab, rng=np.random.default_rng(seed))


def _toy_train_config(seed, steps, **kw):
    return TrainConfig(max_steps=steps, batch_size=8, max_sentences=2, seed=seed,
                       lr_encoder=3e-4, lr_decoder=7e-4, lr_other=1e-3, **kw)


def _dev_rel_strict_f1(model, dataset, dcfg):
    preds = predict(model, dataset.documents(), dcfg)
    pairs = [(p, gold) for p, (_, gold) in zip(preds, dataset)]
    return evaluate_pairs(pairs).rel_strict_prf[2]


def test_criterion_01_vocabulary_size_formula(capsys):
    schema = Schema(tuple(f"e{c}" for c in range(4)), tuple(f"r{r}" for r in range(5)))
    layout = build_layout(114, schema, 12)
    rc = main(["vocab-info", "--L", "114", "--K", "12", "--C", "4", "--R", "5"])
    out = capsys.readouterr().out
    ok = layout.V == 5480 and rc == 0 and "V = 5480" in out
    _report(1, "L=114 K=12 C=4 R=5 gives V = 5480 exactly", ok,
            f"V={layout.V}")
    assert ok


def test_criterion_02_generation_is_always_grammar_valid():
    t0 = time.time()
    words = ("<unk>", "alpha", "beta", "gamma", "delta")
    vocab = WordVocab(words)
    failures = 0
    for i in range(100):
        C, R, K = 1 + i % 3, 1 + i % 2, 1 + i % 3
        schema = Schema(tuple(f"e{c}" for c in range(C)),
                        tuple(f"r{r}" for r in range(R)))
        cfg = ModelConfig(d_model=16, enc_layers=1, dec_layers=1, heads=2,
                          max_span_width=K, dtype="float32", max_positions=64)
        model = Model(cfg, schema, vocab, rng=np.random.default_rng(1000 + i))
        rng = np.random.default_rng(i)
        for j in range(10):
            L = 2 + (i * 10 + j) % 7
            doc = Document(tuple(rng.choice(words[1:], size=L).tolist()), f"d{i}.{j}")
            res = generate(model, doc, DecodeConfig())
            try:
                delinearize(res.sequence)
            except Exception:
                failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60.0
    _report(2, "100 random-weight models x 10 inputs all delinearize", ok,
            f"failures={failures}, {elapsed:.1f}s")
    assert ok


def test_criterion_03_exhaustive_enumeration_round_trips():
    schema = Schema(("e0",), ("r0",))
    layout = build_layout(3, schema, 2)
    seqs = enumerate_valid_sequences(layout, schema, max_len=12)
    delinearize_failures = 0
    replay_failures = 0
    for seq in seqs:
        try:
            g = delinearize(seq, strict=True)
        except Exception:
            delinearize_failures += 1
            continue
        try:
            states, final = replay(linearize(g, Ordering.SORTED))
            if not final.finished:
                replay_failures += 1
        except Exception:
            replay_failures += 1
    ok = (len(seqs) == 6806 and delinearize_failures == 0 and replay_failures == 0)
    _report(3, "all sequences up to length 12 delinearize and replay", ok,
            f"count={len(seqs)}, delinearize_failures={delinearize_failures}, "
            f"replay_failures={replay_failures}")
    assert ok


def _graph_as_sets(g: IEGraph):
    ents = set(g.entities)
    rels = {(g.entities[r.head], g.entities[r.tail], r.rel_type_id)
            for r in g.relations}
    return ents, rels


def test_criterion_04_linearize_delinearize_round_trip():
    rng = np.random.default_rng(0)
    failures = 0
    for _ in range(1000):
        g = random_graph(rng, L=12, K=4, C=3, R=3)
        for ordering in (Ordering.SORTED, Ordering.RANDOM):
            back = delinearize(linearize(g, ordering, rng=rng))
            if _graph_as_sets(back) != _graph_as_sets(g):
                failures += 1
    ok = failures == 0
    _report(4, "1000 random graphs round trip under both orderings", ok,
            f"failures={failures}")
    assert ok


def test_criterion_05_gradients_match_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(42)
    kw = {"rtol": 1e-4, "atol": 1e-8}
    check_op(T.add, [rng.standard_normal((3, 4)), rng.standard_normal((4,))], rng, **kw)
    check_op(T.mul, [rng.standard_normal((3, 4)), rng.standard_normal((1, 4))], rng, **kw)
    check_op(T.matmul, [rng.standard_normal((5, 3)), rng.standard_normal((3, 4))], rng, **kw)
    check_op(T.linear, [rng.standard_normal((5, 3)), rng.standard_normal((3, 4)),
                        rng.standard_normal(4)], rng, **kw)
    check_op(T.transpose, [rng.standard_normal((3, 5))], rng, **kw)
    check_op(lambda *parts: T.concat(parts, -1),
             [rng.standard_normal((4, 3)), rng.standard_normal((4, 2)),
              rng.standard_normal((4, 5))], rng, **kw)
    check_op(lambda *parts: T.concat(parts, 0),
             [rng.standard_normal((2, 4)), rng.standard_normal((3, 4)),
              rng.standard_normal((1, 4))], rng, **kw)
    check_op(lambda x: T.reshape(x, (-1, 4)), [rng.standard_normal((3, 8))], rng, **kw)
    check_op(T.layer_norm,
             [rng.standard_normal((4, 8)), rng.standard_normal(8), rng.standard_normal(8)],
             rng, **kw)
    check_op(T.gelu, [rng.standard_normal((3, 7))], rng, **kw)
    check_op(lambda x: T.dropout(x, 0.25, np.random.default_rng(7), train=True),
             [rng.standard_normal((6, 5))], rng, **kw)
    ids = np.array([0, 2, 2, 3, 1])
    check_op(lambda t: T.embedding_lookup(t, ids), [rng.standard_normal((4, 5))], rng, **kw)
    targets = np.array([1, 0, 3])
    ce_mask = np.ones((3, 4), dtype=bool)
    ce_mask[0, 2] = False
    check_op(lambda x: T.cross_entropy(x, targets, ce_mask),
             [rng.standard_normal((3, 4))], rng, **kw)
    causal = np.tril(np.ones((4, 4), dtype=bool))
    check_op(lambda q, k, v: T.attention(q, k, v, 2, causal),
             [rng.standard_normal((4, 6)) for _ in range(3)], rng, **kw)
    packed = np.repeat([0, 1], [2, 3])
    block_causal = (packed[:, None] == packed[None, :]) & np.tril(np.ones((5, 5), dtype=bool))
    check_op(lambda q, k, v: T.attention(q, k, v, 2, block_causal),
             [rng.standard_normal((5, 6)) for _ in range(3)], rng, **kw)

    schema = Schema(("e0", "e1"), ("r0", "r1"))
    model = tiny_model(schema, words=("alpha", "beta", "gamma"), d_model=16,
                       enc_layers=1, dec_layers=1, heads=2, max_span_width=3,
                       dtype="float64")
    doc = Document(("alpha", "beta", "gamma", "alpha", "beta", "gamma"), "g0")
    graph = IEGraph(entities=(EntitySpan(0, 1, 0), EntitySpan(3, 4, 1)),
                    relations=(Relation(0, 1, 0),))
    tok, ids, labels, masks = encode_example(model, doc, graph)

    def full_loss() -> float:
        return float(example_loss(model, tok, ids, labels, masks).data)

    loss = example_loss(model, tok, ids, labels, masks)
    T.backward(loss)
    grads = {n: p.grad.copy() for n, p in model.params.items()
             if p.grad is not None and np.abs(p.grad).max() > 1e-12}
    names = sorted(grads)
    pick = np.random.default_rng(7)
    sampled = [names[k] for k in pick.choice(len(names), size=12, replace=False)]
    worst = 0.0
    for name in sampled:
        g = grads[name]
        idx = int(np.abs(g).argmax())
        p = model.params[name]
        x = p.data.flat[idx]
        h = 1e-6 * (1.0 + abs(x))
        p.data.flat[idx] = x + h
        up = full_loss()
        p.data.flat[idx] = x - h
        down = full_loss()
        p.data.flat[idx] = x
        num = (up - down) / (2.0 * h)
        ana = g.flat[idx]
        err = abs(ana - num)
        tol = 1e-8 + 1e-4 * max(abs(ana), abs(num))
        worst = max(worst, err / tol)
        assert err <= tol, f"{name}[{idx}]: analytic {ana} vs numeric {num}"
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    _report(5, "every primitive and the end-to-end loss match finite differences", ok,
            f"{len(sampled)} loss params, worst err/tol {worst:.3f}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_masked_softmax_zeroes_and_normalizes():
    rng = np.random.default_rng(99)
    bad_zero = 0
    bad_sum = 0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        logits = rng.standard_normal(n)
        mask = rng.random(n) < 0.5
        mask[int(rng.integers(n))] = True
        p = T.masked_softmax_np(logits, mask)
        if not (p[~mask] == 0.0).all():
            bad_zero += 1
        if abs(p.sum() - 1.0) > 1e-6:
            bad_sum += 1
    ok = bad_zero == 0 and bad_sum == 0
    _report(6, "masked ids get exactly 0; kept mass sums to 1 within 1e-6", ok,
            f"zero_violations={bad_zero}, sum_violations={bad_sum}")
    assert ok


@pytest.mark.slow
def test_criterion_07_toy_corpus_overfit_and_heldout(toy_corpus, tmp_path):
    t0 = time.time()
    train, dev, test, vocab = toy_corpus
    model = _toy_model(train, vocab, seed=0, dropout=0.0)
    tcfg = _toy_train_config(seed=0, steps=1200, eval_every=200)
    res = train_loop(model, tcfg, list(train), dev_examples=list(train),
                     out_dir=str(tmp_path))
    hit_step = None
    with open(res.metrics_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if (rec.get("dev_ent_f1") == 1.0 and rec.get("dev_rel_strict_f1") == 1.0
                    and hit_step is None):
                hit_step = rec["step"]
    preds = predict(model, test.documents(), DecodeConfig())
    report = evaluate_pairs([(p, gold) for p, (_, gold) in zip(preds, test)])
    test_f1 = (report.ent_prf[2], report.rel_prf[2], report.rel_strict_prf[2])
    elapsed = time.time() - t0
    ok = (hit_step is not None and hit_step <= 2000
          and all(f >= 0.90 for f in test_f1) and elapsed < 600.0)
    _report(7, "train ENT and REL+ reach 100% within 2000 steps; test F1 >= 90%", ok,
            f"hit_step={hit_step}, test ENT/REL/REL+ = "
            f"{test_f1[0]:.4f}/{test_f1[1]:.4f}/{test_f1[2]:.4f}, {elapsed:.0f}s")
    assert ok


@pytest.mark.slow
def test_criterion_08_ablation_directions(toy_corpus):
    train, dev, _, vocab = toy_corpus
    steps, dropout = 1200, 0.1
    full_greedy, full_nucleus, off_greedy = [], [], []
    for seed in (0, 1, 2):
        mf = _toy_model(train, vocab, seed=seed, dropout=dropout)
        train_loop(mf, _toy_train_config(seed=seed, steps=steps), list(train))
        full_greedy.append(_dev_rel_strict_f1(mf, dev, DecodeConfig()))
        full_nucleus.append(_dev_rel_strict_f1(
            mf, dev, DecodeConfig(mode="nucleus", top_p=0.9, seed=seed)))
        mo = _toy_model(train, vocab, seed=seed, dropout=dropout,
                        use_positions=False, use_structure=False)
        train_loop(mo, _toy_train_config(seed=seed, steps=steps), list(train))
        off_greedy.append(_dev_rel_strict_f1(mo, dev, DecodeConfig()))
    mean_full = float(np.mean(full_greedy))
    mean_off = float(np.mean(off_greedy))
    mean_nucleus = float(np.mean(full_nucleus))
    ok_ablation = mean_full >= mean_off
    ok_sampling = mean_full >= mean_nucleus - 0.02
    ok = ok_ablation and ok_sampling
    _report(8, "removing position+structure embeddings does not beat the full model; "
               "greedy >= nucleus(0.9) - 2 points", ok,
            f"dev REL+ means: full={mean_full:.4f} off={mean_off:.4f} "
            f"nucleus={mean_nucleus:.4f}")
    assert ok


def test_criterion_09_nucleus_sampling_frequencies():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal(12)
    mask = np.ones(12, dtype=bool)
    mask[[2, 7, 11]] = False
    n_draws = 10_000

    def expected_probs(top_p: float) -> np.ndarray:
        p = T.masked_softmax_np(logits, mask)
        order = np.argsort(-p, kind="stable")
        csum = np.cumsum(p[order])
        keep = order[: int(np.searchsorted(csum, min(top_p, csum[-1]), "left")) + 1]
        out = np.zeros_like(p)
        out[keep] = p[keep]
        return out / out.sum()

    ok = True
    detail = []
    for top_p, seed in ((0.9, 1234), (1.0, 99)):
        exp = expected_probs(top_p)
        draw_rng = np.random.default_rng(seed)
        counts = np.zeros(12, dtype=int)
        for _ in range(n_draws):
            counts[nucleus_select(logits, mask, top_p, draw_rng)] += 1
        sigma = np.sqrt(exp * (1.0 - exp) * n_draws)
        dev_ok = np.abs(counts - n_draws * exp) <= 3.0 * sigma + 1e-9
        ok = ok and bool(dev_ok.all())
        worst = float(np.max(np.abs(counts - n_draws * exp)
                             / np.maximum(sigma, 1e-12)))
        detail.append(f"top_p={top_p}: worst |z|={worst:.2f}")
    _report(9, "10k-draw frequencies match the truncated distribution within 3 sigma",
            ok, "; ".join(detail))
    assert ok


def test_criterion_10_metric_counts_match_brute_force(toy_corpus):
    rng = np.random.default_rng(17)
    totals = {"ent": Counts(), "rel": Counts(), "rel_strict": Counts()}
    brute = {"ent": [0, 0, 0], "rel": [0, 0, 0], "rel_strict": [0, 0, 0]}
    mismatches = 0

    def ent_keys(g):
        return {(e.start, e.end, e.type_id) for e in g.entities}

    def rel_keys(g, strict):
        out = set()
        for r in g.relations:
            h, t = g.entities[r.head], g.entities[r.tail]
            key = (h.start, h.end, t.start, t.end, r.rel_type_id)
            if strict:
                key += (h.type_id, t.type_id)
            out.add(key)
        return out

    for _ in range(1000):
        pred = random_graph(rng, L=10, K=3, C=4, R=5)
        gold = random_graph(rng, L=10, K=3, C=4, R=5)
        got = {
            "ent": score_entities(pred, gold),
            "rel": score_relations(pred, gold, strict=False),
            "rel_strict": score_relations(pred, gold, strict=True),
        }
        expect = {
            "ent": (ent_keys(pred), ent_keys(gold)),
            "rel": (rel_keys(pred, False), rel_keys(gold, False)),
            "rel_strict": (rel_keys(pred, True), rel_keys(gold, True)),
        }
        for k, (pk, gk) in expect.items():
            want = (len(pk & gk), len(pk), len(gk))
            if (got[k].tp, got[k].n_pred, got[k].n_gold) != want:
                mismatches += 1
            totals[k] = totals[k] + got[k]
            for slot in range(3):
                brute[k][slot] += want[slot]
    pooled_ok = all(
        (totals[k].tp, totals[k].n_pred, totals[k].n_gold) == tuple(brute[k])
        for k in totals
    )

    doc_a_pred = IEGraph(entities=(EntitySpan(0, 1, 0), EntitySpan(3, 3, 1)),
                         relations=())
    doc_a_gold = IEGraph(entities=(EntitySpan(0, 1, 0),), relations=())
    doc_b_pred = IEGraph(entities=(EntitySpan(2, 2, 0),), relations=())
    doc_b_gold = IEGraph(entities=(EntitySpan(2, 2, 0), EntitySpan(4, 5, 1)),
                         relations=())
    rep = evaluate_pairs([(doc_a_pred, doc_a_gold), (doc_b_pred, doc_b_gold)])
    micro_ok = all(abs(v - 2.0 / 3.0) < 1e-12 for v in rep.ent_prf)

    ok = mismatches == 0 and pooled_ok and micro_ok
    _report(10, "ENT/REL/REL+ counts equal brute-force recomputation; micro P=R=F1=2/3",
            ok, f"mismatches={mismatches}, pooled_ok={pooled_ok}, micro_ok={micro_ok}")
    assert ok


def test_criterion_11_determinism_and_persistence(toy_corpus, tmp_path):
    train, _, _, vocab = toy_corpus
    examples = list(train)[:5]

    def fresh_model():
        cfg = ModelConfig(d_model=16, enc_layers=1, dec_layers=1, heads=2,
                          max_span_width=train.max_span_width, dtype="float64")
        return Model(cfg, train.schema, vocab, rng=np.random.default_rng(0))

    tcfg10 = TrainConfig(max_steps=10, batch_size=2, max_sentences=2, seed=0)
    losses_a = train_loop(fresh_model(), tcfg10, examples).losses
    losses_b = train_loop(fresh_model(), tcfg10, examples).losses
    rerun_ok = losses_a == losses_b

    model = fresh_model()
    opt = AdamW(model.params, tcfg10.betas, tcfg10.eps, tcfg10.weight_decay)
    res = train_loop(model, tcfg10, examples, out_dir=str(tmp_path), optimizer=opt)
    tcfg11 = TrainConfig(max_steps=11, batch_size=2, max_sentences=2, seed=0)
    loss_mem = train_loop(model, tcfg11, examples, optimizer=opt,
                          start_step=11).losses[0]
    model2, rest, meta = Model.load(res.last_path)
    opt2 = AdamW(model2.params, tcfg11.betas, tcfg11.eps, tcfg11.weight_decay)
    opt2.load_state(rest, meta["opt_t"])
    loss_disk = train_loop(model2, tcfg11, examples, optimizer=opt2,
                           start_step=11).losses[0]
    resume_ok = loss_mem == loss_disk

    doc = examples[0][0]
    fast = generate(model, doc, DecodeConfig(), fast=True)
    slow = generate(model, doc, DecodeConfig(), fast=False)
    decode_ok = (np.array_equal(fast.ids, slow.ids)
                 and np.array_equal(fast.step_logits, slow.step_logits))

    ok = rerun_ok and resume_ok and decode_ok
    _report(11, "fixed-seed rerun, checkpoint resume, and fast/slow decode all "
                "bit-identical", ok,
            f"rerun_ok={rerun_ok}, resume loss mem={loss_mem!r} disk={loss_disk!r}, "
            f"decode_ok={decode_ok}")
    assert ok
