import json
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangraph import tensor as T
from spangraph.data import load_dataset, make_synthetic
from spangraph.graph import Document, EntitySpan, IEGraph, Relation, Schema, validate_graph
from spangraph.grammar import structural_labels
from spangraph.linearize import Ordering, linearize
from spangraph.model import Model, ModelConfig, WordVocab
from spangraph.train import (
    AdamW,
    GoldIllegalUnderMask,
    NonFiniteGradNorm,
    NonFiniteLoss,
    TrainConfig,
    augment,
    batch_loss,
    clip_gradients,
    encode_example,
    example_loss,
    grad_norm,
    lr_at,
    train_loop,
)
from _helpers import make_doc, make_schema, random_graph, schemas, tiny_model


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    paths = make_synthetic(str(out), seed=3, n_train=11, n_dev=4, n_test=4)
    return load_dataset(paths["train"])


def _corpus_model(ds, seed=0, d=32):
    vocab = WordVocab.build([doc for doc, _ in ds.examples])
    cfg = ModelConfig(d_model=d, enc_layers=1, dec_layers=1, heads=2,
                      max_span_width=ds.max_span_width, dtype="float64")
    return Model(cfg, ds.schema, vocab, rng=np.random.default_rng(seed))


class TestLrSchedule:
    CFG = TrainConfig(max_steps=1000, warmup_frac=0.1)

    def test_step_zero_is_zero(self):
        assert lr_at(0, self.CFG) == {"encoder": 0.0, "decoder": 0.0, "other": 0.0}

    def test_warmup_peak_is_exact(self):
        assert lr_at(100, self.CFG) == {"encoder": 3e-5, "decoder": 7e-5, "other": 1e-4}

    def test_final_step_is_zero(self):
        assert lr_at(1000, self.CFG) == {"encoder": 0.0, "decoder": 0.0, "other": 0.0}

    def test_mid_warmup_is_linear(self):
        lrs = lr_at(50, self.CFG)
        assert lrs["encoder"] == pytest.approx(1.5e-5)
        assert lrs["other"] == pytest.approx(5e-5)

    def test_mid_decay_is_linear(self):
        lrs = lr_at(550, self.CFG)
        assert lrs["encoder"] == pytest.approx(3e-5 * 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, self.CFG)
        with pytest.raises(ValueError):
            lr_at(1001, self.CFG)

    def test_warmup_never_shorter_than_one_step(self):
        cfg = TrainConfig(max_steps=3, warmup_frac=0.01)
        assert lr_at(1, cfg)["other"] == pytest.approx(1e-4)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(max_steps=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_frac=0.0)
        with pytest.raises(ValueError):
            TrainConfig(warmup_frac=1.0)
        for clip_norm in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="clip_norm"):
                TrainConfig(clip_norm=clip_norm)
        for name in ("lr_encoder", "lr_decoder", "lr_other", "weight_decay"):
            for value in (-1e-4, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    TrainConfig(**{name: value})
            TrainConfig(**{name: 0.0})
        for eps in (0.0, -1e-8, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps"):
                TrainConfig(eps=eps)
        for betas in ((1.0, 0.999), (0.9, 1.0), (-0.1, 0.999), (0.9, 1.5), (float("nan"), 0.9),
                      (0.9,)):
            with pytest.raises(ValueError, match="betas"):
                TrainConfig(betas=betas)
        TrainConfig(betas=(0.0, 0.0))
        for name in ("max_steps", "batch_size", "max_sentences", "eval_every", "seed"):
            for value in (2.5, 1.0, True, "1", None):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    TrainConfig(**{name: value})
            cfg = TrainConfig(**{name: np.int64(2)})
            assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 2
            json.dumps(cfg.to_meta())
        for name in ("eval_every", "seed"):
            for value in (-1, -5, np.int64(-2)):
                with pytest.raises(ValueError, match=f"{name} must be non-negative"):
                    TrainConfig(**{name: value})
            assert getattr(TrainConfig(**{name: 0}), name) == 0

    def test_meta_round_trip(self):
        cfg = TrainConfig(max_steps=77, batch_size=3, max_sentences=2,
                          ordering=Ordering.RANDOM, seed=9, lr_encoder=1e-5,
                          lr_decoder=2e-5, lr_other=3e-5, warmup_frac=0.2,
                          weight_decay=0.05, betas=(0.8, 0.99), eps=1e-6,
                          clip_norm=1.5, eval_every=10)
        assert all(getattr(cfg, f.name) != f.default for f in fields(TrainConfig))
        again = TrainConfig.from_meta(json.loads(json.dumps(cfg.to_meta())))
        assert again == cfg


class _FakeRng:
    """Queue-backed stand-in for the two integers() calls augment makes."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])


class TestAugment:
    EXAMPLES = [
        (Document(("a", "b", "c", "d"), id="s0"),
         IEGraph((EntitySpan(0, 1, 0),), ())),
        (Document(("e", "f", "g", "h", "i", "j"), id="s1"),
         IEGraph((EntitySpan(1, 2, 1), EntitySpan(4, 4, 0)), (Relation(0, 1, 0),))),
    ]

    def test_offsets_worked_example(self):
        doc, graph = augment(self.EXAMPLES, _FakeRng([2, 0, 1]), max_sentences=2)
        assert doc.tokens == ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")
        assert doc.id == "s0+s1"
        # second sentence's (1,2,*) span lands at (5,6,*)
        assert graph.entities == (EntitySpan(0, 1, 0), EntitySpan(5, 6, 1), EntitySpan(8, 8, 0))
        # relation argument indices shift by the entity offset of 1
        assert graph.relations == (Relation(1, 2, 0),)

    def test_single_sentence_unmodified(self):
        doc, graph = augment(self.EXAMPLES, _FakeRng([1, 1]), max_sentences=3)
        assert doc.tokens == self.EXAMPLES[1][0].tokens
        assert graph == self.EXAMPLES[1][1]

    def test_property_500_draws(self, rng):
        from spangraph.graph import validate_graph
        for _ in range(500):
            doc, graph = augment(self.EXAMPLES, rng, max_sentences=4)
            validate_graph(graph, doc, max_width=3)
            assert len(doc.tokens) % 2 == 0  # parts have lengths 4 and 6
            assert len(doc.tokens) <= 24


class TestEncodeExample:
    def _model(self):
        schema = make_schema(2, 1)
        return tiny_model(schema, words=("a", "b", "c", "d"), max_span_width=2)

    def test_shapes_and_labels(self):
        m = self._model()
        doc = Document(("a", "b", "c"), id="x")
        graph = IEGraph((EntitySpan(0, 0, 0), EntitySpan(2, 2, 1)), (Relation(0, 1, 0),))
        tok, ids, labels, masks = encode_example(m, doc, graph)
        seq = linearize(graph)
        assert len(ids) == len(seq.symbols) == 8
        assert masks.shape == (7, 3 * 2 * 2 + 3 + 1)
        want = [int(p) for p in structural_labels(seq.symbols)]
        np.testing.assert_array_equal(labels, want)
        assert tok.dtype == np.int64
        # every gold target is legal under its mask
        for i, target in enumerate(ids[1:]):
            assert masks[i][target]

    def test_gold_illegal_trap(self):
        # pair table forbids every relation, so the gold triple trips the trap
        schema = make_schema(2, 1, allowed_pairs={(0, 0): frozenset()})
        m = tiny_model(schema, words=("a", "b", "c"), max_span_width=2)
        doc = Document(("a", "b", "c"), id="x")
        graph = IEGraph((EntitySpan(0, 0, 0), EntitySpan(2, 2, 1)), (Relation(0, 1, 0),))
        with pytest.raises(GoldIllegalUnderMask):
            encode_example(m, doc, graph)

    @settings(max_examples=60, deadline=None)
    @given(schema=schemas(), n_tokens=st.integers(1, 8), width=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_masks_admit_every_graph_the_loader_accepts(self, schema, n_tokens, width, seed):
        # the grammar and the data validator speak one language: a graph that
        # passes validate_graph and the loader's allowed-pairs check
        # linearizes, in either ordering, to gold symbols the masks admit
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n_tokens, width, schema.n_entity_types,
                             schema.n_relation_types, max_entities=6, max_relations=8)
        graph = IEGraph(graph.entities, tuple(
            r for r in graph.relations if r.rel_type_id in schema.allowed_relations(
                graph.entities[r.head].type_id, graph.entities[r.tail].type_id)))
        doc = make_doc(n_tokens)
        validate_graph(graph, doc, max_width=width)
        m = tiny_model(schema, max_span_width=width)
        for ordering in Ordering:
            _, ids, _, masks = encode_example(m, doc, graph, ordering, rng)
            assert masks[np.arange(len(ids) - 1), ids[1:]].all()


class TestExampleLoss:
    def test_zero_params_give_masked_uniform_loss(self):
        schema = make_schema(2, 1)
        m = tiny_model(schema, words=("a", "b", "c"), max_span_width=2)
        for p in m.params.values():
            p.data[...] = 0.0
        doc = Document(("a", "b", "c"), id="x")
        graph = IEGraph((EntitySpan(0, 0, 0), EntitySpan(2, 2, 1)), (Relation(0, 1, 0),))
        tok, ids, labels, masks = encode_example(m, doc, graph)
        loss = example_loss(m, tok, ids, labels, masks)
        want = float(np.log(masks.sum(axis=1)).mean())
        assert loss.item() == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("batch_size, equal_lengths",
                             [(1, False), (2, False), (8, False), (3, True)],
                             ids=["1", "2", "8", "equal_lengths"])
    def test_packed_batch_matches_per_example_losses(self, toy_corpus, batch_size,
                                                      equal_lengths):
        # oracle: one graph per example, their mean NLLs averaged on the tape
        model = _corpus_model(toy_corpus)
        if equal_lengths:
            # one token count and one symbol count: attention runs grouped, unmasked
            batch = [encode_example(model, *toy_corpus.examples[i]) for i in (1, 2, 6)]
            assert len({(len(ex[0]), len(ex[1])) for ex in batch}) == 1
            assert len({tuple(ex[0]) for ex in batch}) == batch_size
        else:
            data_rng = np.random.default_rng(batch_size)
            batch = [encode_example(model, *augment(list(toy_corpus.examples), data_rng, 3))
                     for _ in range(batch_size)]
        loss = batch_loss(model, batch)
        T.backward(loss)
        packed = {n: p.grad.copy() for n, p in model.params.items()}
        for p in model.params.values():
            p.grad = None
        total = example_loss(model, *batch[0])
        for ex in batch[1:]:
            total = T.add(total, example_loss(model, *ex))
        mean = T.mul(total, 1.0 / batch_size)
        T.backward(mean)
        assert loss.item() == pytest.approx(mean.item(), rel=1e-12)
        scale = max(np.abs(g).max() for g in packed.values())
        for n, p in model.params.items():
            np.testing.assert_allclose(packed[n], p.grad, rtol=0, atol=1e-10 * scale,
                                       err_msg=n)


class TestAdamW:
    def _params(self, rng):
        names = ["enc.0.attn.wq", "enc.0.ln1.g", "dec.rel", "span.w0", "dec.0.self.bq"]
        params = {}
        for n in names:
            t = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            params[n] = t
        return params

    def test_matches_reference_two_steps(self, rng):
        from spangraph.model import decay_excluded, param_group
        params = self._params(rng)
        ref = {n: p.data.copy() for n, p in params.items()}
        m = {n: np.zeros_like(p.data) for n, p in params.items()}
        v = {n: np.zeros_like(p.data) for n, p in params.items()}
        opt = AdamW(params, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
        lrs = {"encoder": 1e-3, "decoder": 2e-3, "other": 3e-3}
        for t in (1, 2):
            grads = {n: rng.standard_normal(p.shape) for n, p in params.items()}
            grads["dec.rel"] = None  # simulates a parameter untouched by the batch
            for n, p in params.items():
                p.grad = grads[n].copy() if grads[n] is not None else None
            opt.step(lrs)
            for n in params:
                g = grads[n] if grads[n] is not None else np.zeros_like(ref[n])
                m[n] = 0.9 * m[n] + 0.1 * g
                v[n] = 0.999 * v[n] + 0.001 * g * g
                mhat = m[n] / (1 - 0.9 ** t)
                vhat = v[n] / (1 - 0.999 ** t)
                update = mhat / (np.sqrt(vhat) + 1e-8)
                if not decay_excluded(n):
                    update = update + 0.01 * ref[n]
                ref[n] = ref[n] - lrs[param_group(n)] * update
                np.testing.assert_allclose(params[n].data, ref[n], rtol=1e-12, atol=1e-15)

    def test_in_place_step_bit_equal_to_allocating_reference(self, rng):
        from spangraph.model import decay_excluded, param_group

        def reference_step(opt, lrs):
            # the allocating update this optimizer's in-place step replaced
            opt.t += 1
            b1, b2 = opt.betas
            c1 = 1.0 - b1 ** opt.t
            c2 = 1.0 - b2 ** opt.t
            for name, p in opt.params.items():
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                m, v = opt.m[name], opt.v[name]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                update = (m / c1) / (np.sqrt(v / c2) + opt.eps)
                if not decay_excluded(name):
                    update = update + opt.weight_decay * p.data
                p.data -= lrs[param_group(name)] * update

        for dtype in (np.float32, np.float64):
            params = self._params(rng)
            for p in params.values():
                p.data = p.data.astype(dtype)
            twins = {n: T.Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}
            opt, ref = AdamW(params), AdamW(twins)
            lrs = {"encoder": 1e-3, "decoder": 2e-3, "other": 3e-3}
            for _ in range(5):
                for n in params:
                    g = rng.standard_normal(params[n].shape).astype(dtype)
                    params[n].grad, twins[n].grad = g, g.copy()
                opt.step(lrs)
                reference_step(ref, lrs)
            for n in params:
                assert params[n].data.dtype == dtype
                np.testing.assert_array_equal(params[n].data, twins[n].data)
                np.testing.assert_array_equal(opt.m[n], ref.m[n])
                np.testing.assert_array_equal(opt.v[n], ref.v[n])

    def test_missing_grad_means_zero_not_skip(self, rng):
        # after real steps, a parameter with no grad still moves (momentum + decay)
        params = {"span.w0": T.Tensor(rng.standard_normal((2, 2)), requires_grad=True)}
        opt = AdamW(params)
        params["span.w0"].grad = np.ones((2, 2))
        opt.step({"other": 1e-2})
        before = params["span.w0"].data.copy()
        params["span.w0"].grad = None
        opt.step({"other": 1e-2})
        assert not np.allclose(params["span.w0"].data, before)

    def test_state_round_trip(self, rng):
        params = self._params(rng)
        opt = AdamW(params)
        for p in params.values():
            p.grad = rng.standard_normal(p.shape)
        opt.step({"encoder": 1e-3, "decoder": 1e-3, "other": 1e-3})
        arrays = {k: a.copy() for k, a in opt.state_arrays().items()}
        opt2 = AdamW(params)
        opt2.load_state(arrays, t=opt.t)
        assert opt2.t == 1
        for n in params:
            np.testing.assert_array_equal(opt2.m[n], opt.m[n])
            np.testing.assert_array_equal(opt2.v[n], opt.v[n])


class TestClipGradients:
    def test_returns_preclip_norm_and_scales(self):
        params = {
            "a": T.Tensor(np.zeros(3), requires_grad=True),
            "b": T.Tensor(np.zeros(4), requires_grad=True),
        }
        params["a"].grad = np.array([3.0, 0.0, 0.0])
        params["b"].grad = np.array([0.0, 4.0, 0.0, 0.0])
        norm = clip_gradients(params, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        total = sum(float((p.grad ** 2).sum()) for p in params.values())
        assert np.sqrt(total) == pytest.approx(1.0)

    def test_below_threshold_untouched(self):
        params = {"a": T.Tensor(np.zeros(2), requires_grad=True)}
        params["a"].grad = np.array([0.3, 0.4])
        norm = clip_gradients(params, max_norm=10.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(params["a"].grad, [0.3, 0.4])




class TestGradNorm:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_float64_reference(self, rng, dtype):
        params = {n: T.Tensor(np.zeros(s, dtype), requires_grad=True)
                  for n, s in (("a", (3, 5)), ("b", (7,)), ("c", (2, 2)))}
        for n in ("a", "b"):
            params[n].grad = rng.standard_normal(params[n].shape).astype(dtype)
        want = np.sqrt(sum((p.grad.astype(np.float64) ** 2).sum()
                           for p in params.values() if p.grad is not None))
        assert grad_norm(params) == pytest.approx(want, rel=1e-6)

    def test_overflow_in_parameter_dtype_is_infinite(self):
        params = {"a": T.Tensor(np.zeros(2, np.float32), requires_grad=True)}
        params["a"].grad = np.array([1e20, 0.0], np.float32)
        assert grad_norm(params) == np.inf


class TestTrainingDynamics:
    def test_loss_decreases_monotonically_over_first_50_steps(self, toy_corpus):
        # fixed 5-sentence set, full-set objective after every update
        examples = list(toy_corpus.examples)[:5]
        model = _corpus_model(toy_corpus)
        cfg = TrainConfig(max_steps=200, batch_size=1, seed=0,
                          lr_encoder=3e-4, lr_decoder=7e-4, lr_other=1e-3)
        enc = [encode_example(model, d, g) for d, g in examples]
        opt = AdamW(model.params, cfg.betas, cfg.eps, cfg.weight_decay)

        def full_loss():
            losses = [example_loss(model, *args) for args in enc]
            total = losses[0]
            for extra in losses[1:]:
                total = T.add(total, extra)
            return T.mul(total, 1.0 / len(losses))

        history = [float(full_loss().data)]
        for step in range(1, 51):
            opt.zero_grad()
            T.backward(full_loss())
            opt.step(lr_at(step, cfg))
            with T.no_grad():
                history.append(float(full_loss().data))
        diffs = np.diff(history)
        assert (diffs < 0).all(), f"non-monotone at steps {np.flatnonzero(diffs >= 0) + 1}"
        assert history[-1] < history[0]

    def test_ten_step_run_bit_identical(self, toy_corpus):
        examples = list(toy_corpus.examples)[:5]
        cfg = TrainConfig(max_steps=10, batch_size=2, max_sentences=2, seed=4)
        r1 = train_loop(_corpus_model(toy_corpus, seed=1), cfg, examples)
        r2 = train_loop(_corpus_model(toy_corpus, seed=1), cfg, examples)
        assert r1.losses == r2.losses  # bitwise, not approx

    def test_metrics_log_and_checkpoints(self, toy_corpus, tmp_path):
        examples = list(toy_corpus.examples)[:5]
        model = _corpus_model(toy_corpus)
        cfg = TrainConfig(max_steps=4, batch_size=1, seed=0, eval_every=2)
        res = train_loop(model, cfg, examples, dev_examples=examples[:2],
                         out_dir=str(tmp_path))
        assert os.path.exists(res.metrics_path)
        assert os.path.exists(res.best_path)
        assert os.path.exists(res.last_path)
        lines = [json.loads(l) for l in open(res.metrics_path)]
        assert [r["step"] for r in lines] == [1, 2, 3, 4]
        for r in lines:
            assert {"loss", "lr_encoder", "lr_decoder", "lr_other",
                    "tokens", "target_symbols"} <= set(r)
            assert r["tokens"] > 0 and r["target_symbols"] > 0
        assert "dev_rel_strict_f1" in lines[1] and "dev_rel_strict_f1" in lines[3]
        assert "dev_rel_strict_f1" not in lines[0]
        assert res.best_dev_f1 is not None

    def test_without_dev_evaluation_best_is_a_copy_of_last(self, toy_corpus, tmp_path):
        examples = list(toy_corpus.examples)[:5]
        model = _corpus_model(toy_corpus)
        cfg = TrainConfig(max_steps=3, batch_size=2, max_sentences=2, seed=0)
        opt = AdamW(model.params, cfg.betas, cfg.eps, cfg.weight_decay)
        res = train_loop(model, cfg, examples, out_dir=str(tmp_path), optimizer=opt)
        assert res.best_dev_f1 is None
        with open(res.best_path, "rb") as best, open(res.last_path, "rb") as last:
            assert best.read() == last.read()
        loaded, rest, meta = Model.load(res.best_path)
        assert meta["step"] == 3 and meta["opt_t"] == opt.t
        for n, p in model.params.items():
            np.testing.assert_array_equal(loaded.params[n].data, p.data)
        state = opt.state_arrays()
        assert set(rest) == set(state)
        for n, a in state.items():
            np.testing.assert_array_equal(rest[n], a)
        # resuming from best.npz continues the run exactly as in memory
        cfg5 = TrainConfig(max_steps=5, batch_size=2, max_sentences=2, seed=0)
        in_memory = train_loop(model, cfg5, examples, optimizer=opt, start_step=4).losses
        opt2 = AdamW(loaded.params, cfg5.betas, cfg5.eps, cfg5.weight_decay)
        opt2.load_state(rest, meta["opt_t"])
        from_best = train_loop(loaded, cfg5, examples, optimizer=opt2, start_step=4).losses
        assert from_best == in_memory

    def test_resume_from_last_is_bit_identical_under_clipping(self, toy_corpus, tmp_path):
        # clipping scales every gradient by clip_norm / grad_norm, and grad_norm
        # sums in the order of model.params: a loaded model must hold its
        # parameters in a fresh model's order for the norms to keep their bits
        examples = list(toy_corpus.examples)[:5]
        kw = dict(batch_size=4, max_sentences=2, seed=0, clip_norm=1e-3)
        model = _corpus_model(toy_corpus)
        opt = AdamW(model.params)
        first = train_loop(model, TrainConfig(max_steps=3, **kw), examples,
                           out_dir=str(tmp_path / "first"), optimizer=opt)
        loaded, rest, meta = Model.load(first.last_path)
        opt2 = AdamW(loaded.params)
        opt2.load_state(rest, meta["opt_t"])
        cfg = TrainConfig(max_steps=16, **kw)
        runs = [train_loop(m, cfg, examples, out_dir=str(tmp_path / name), optimizer=o,
                           start_step=4)
                for name, m, o in (("memory", model, opt), ("disk", loaded, opt2))]
        norms = []
        for run in runs:
            with open(run.metrics_path, encoding="utf-8") as fh:
                norms.append([json.loads(line)["grad_norm"] for line in fh])
        assert len(norms[0]) == 13 and norms[1] == norms[0]
        assert runs[1].losses == runs[0].losses
        assert list(loaded.params) == list(model.params)

    def test_non_finite_loss_stops_before_any_update_or_write(self, toy_corpus, tmp_path):
        examples = list(toy_corpus.examples)[:5]
        model = _corpus_model(toy_corpus)
        model.params["dec.0.ffn.w1"].data[0, 0] = np.nan
        before = {n: p.data.copy() for n, p in model.params.items()}
        cfg = TrainConfig(max_steps=3, batch_size=2, seed=0, eval_every=1)
        with pytest.raises(NonFiniteLoss) as err:
            train_loop(model, cfg, examples, dev_examples=examples[:2], out_dir=str(tmp_path))
        assert err.value.step == 1
        assert isinstance(err.value, FloatingPointError)
        assert not (tmp_path / "best.npz").exists()
        assert not (tmp_path / "last.npz").exists()
        assert (tmp_path / "metrics.jsonl").read_text() == ""
        assert all(p.grad is None for p in model.params.values())
        for n, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[n])

    @pytest.mark.parametrize("clip_norm", [None, 1.0])
    def test_non_finite_grad_norm_stops_before_any_update_or_write(self, toy_corpus, tmp_path,
                                                                   monkeypatch, clip_norm):
        examples = list(toy_corpus.examples)[:5]
        model = _corpus_model(toy_corpus)
        before = {n: p.data.copy() for n, p in model.params.items()}
        backward = T.backward

        def overflowing_backward(loss):
            backward(loss)
            model.params["dec.0.ffn.w1"].grad[0, 0] = np.inf

        monkeypatch.setattr(T, "backward", overflowing_backward)
        cfg = TrainConfig(max_steps=3, batch_size=2, seed=0, eval_every=1, clip_norm=clip_norm)
        with pytest.raises(NonFiniteGradNorm) as err:
            train_loop(model, cfg, examples, dev_examples=examples[:2], out_dir=str(tmp_path))
        assert err.value.step == 1 and not np.isfinite(err.value.norm)
        assert isinstance(err.value, FloatingPointError)
        assert not (tmp_path / "best.npz").exists()
        assert not (tmp_path / "last.npz").exists()
        assert (tmp_path / "metrics.jsonl").read_text() == ""
        for n, p in model.params.items():
            np.testing.assert_array_equal(p.data, before[n])

    def test_step_records_carry_the_grad_norm(self, toy_corpus, tmp_path, monkeypatch):
        examples = list(toy_corpus.examples)[:5]
        model = _corpus_model(toy_corpus)
        seen = []
        backward = T.backward

        def recording_backward(loss):
            backward(loss)
            seen.append(np.sqrt(sum((p.grad ** 2).sum() for p in model.params.values()
                                    if p.grad is not None)))

        monkeypatch.setattr(T, "backward", recording_backward)
        res = train_loop(model, TrainConfig(max_steps=3, batch_size=2, seed=0), examples,
                         out_dir=str(tmp_path))
        records = [json.loads(l) for l in open(res.metrics_path)]
        assert [r["grad_norm"] for r in records] == pytest.approx(seen, rel=1e-9)

    def test_empty_train_set_rejected(self, toy_corpus):
        with pytest.raises(ValueError):
            train_loop(_corpus_model(toy_corpus), TrainConfig(max_steps=1), [])
