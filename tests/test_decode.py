import dataclasses
import os

import numpy as np
import pytest

from spangraph import decode
from spangraph.data import load_dataset, make_synthetic
from spangraph.decode import DecodeConfig, generate, generate_batch, nucleus_select, predict
from spangraph.grammar import Phase, advance, initial_state, legal_mask, replay
from spangraph.graph import Document, validate_graph
from spangraph.linearize import END, SEP, START, RelSym, SpanSym
from spangraph.model import Model, TooLong
from spangraph.tensor import Tensor, no_grad, rowwise_kernels
from spangraph.vocab import build_layout, id_to_symbol, symbol_to_id
from _helpers import make_doc, make_schema, reference_close_sequence, tiny_model


class TestDecodeConfig:
    def test_defaults(self):
        cfg = DecodeConfig()
        assert cfg.mode == "greedy" and cfg.top_p == 0.9 and cfg.max_len is None

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            DecodeConfig(mode="beam")

    def test_top_p_range(self):
        with pytest.raises(ValueError):
            DecodeConfig(top_p=0.0)
        with pytest.raises(ValueError):
            DecodeConfig(top_p=1.5)
        DecodeConfig(top_p=1.0)

    def test_max_len_floor(self):
        with pytest.raises(ValueError):
            DecodeConfig(max_len=2)

    @pytest.mark.parametrize("max_len", [10.5, 10.0, True, "10"])
    def test_max_len_must_be_an_integer(self, max_len):
        with pytest.raises(ValueError, match="max_len must be an integer"):
            DecodeConfig(max_len=max_len)

    def test_max_len_numpy_integer_accepted(self):
        assert DecodeConfig(max_len=np.int64(10)).max_len == 10

    @pytest.mark.parametrize("seed", [-1, 1.5, 1.0, True, "1", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            DecodeConfig(seed=seed)

    def test_seed_numpy_integer_accepted(self, two_type_schema):
        cfg = DecodeConfig(mode="nucleus", seed=np.uint32(5))
        m = tiny_model(two_type_schema, words=("a", "b", "c"))
        doc = Document(("a", "b", "c"), id="x")
        assert generate(m, doc, cfg).ids == generate(m, doc, DecodeConfig(mode="nucleus", seed=5)).ids


class TestNucleusSelect:
    def test_dominant_mass_always_first(self):
        logits = np.log(np.array([0.7, 0.2, 0.1]))
        mask = np.ones(3, dtype=bool)
        picks = {nucleus_select(logits, mask, 0.6, np.random.default_rng(s))
                 for s in range(200)}
        assert picks == {0}

    def test_top_p_one_keeps_everything_reachable(self):
        logits = np.log(np.array([0.5, 0.3, 0.2]))
        mask = np.ones(3, dtype=bool)
        picks = {nucleus_select(logits, mask, 1.0, np.random.default_rng(s))
                 for s in range(300)}
        assert picks == {0, 1, 2}

    def test_masked_ids_never_sampled(self):
        logits = np.zeros(4)
        mask = np.array([True, False, True, False])
        picks = {nucleus_select(logits, mask, 1.0, np.random.default_rng(s))
                 for s in range(200)}
        assert picks == {0, 2}

    def test_tiny_top_p_is_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.standard_normal(8)
            mask = rng.random(8) > 0.3
            mask[int(np.argmax(logits))] = True
            pick = nucleus_select(logits, mask, 1e-9, np.random.default_rng(1))
            masked = np.where(mask, logits, -np.inf)
            assert pick == int(np.argmax(masked))


class TestGreedy:
    def _zeroed(self):
        schema = make_schema(1, 1)
        m = tiny_model(schema, words=("a", "b"), max_span_width=1)
        for p in m.params.values():
            p.data[...] = 0.0
        return m

    def test_zero_model_ties_break_to_lowest_id_and_truncates(self):
        # all-zero logits: greedy walks the lowest legal ids into a duplicate
        # triple loop, hits the length budget, and the closer pops the
        # half-built triple before appending END
        m = self._zeroed()
        doc = Document(("a", "b"), id="d")
        res = generate(m, doc)
        layout = build_layout(2, m.schema, 1)
        assert res.truncated
        assert res.sequence.symbols == (
            START, SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP,
            SpanSym(0, 0, 0), SpanSym(1, 1, 0), RelSym(0),
            SpanSym(0, 0, 0), SpanSym(1, 1, 0), RelSym(0),
            END,
        )
        assert res.ids == [symbol_to_id(layout, s) for s in res.sequence.symbols]
        assert len(res.graph.entities) == 2
        assert len(res.graph.relations) == 1  # duplicates collapse

    def test_deterministic(self, two_type_schema):
        m = tiny_model(two_type_schema, words=("a", "b", "c"))
        doc = Document(("a", "b", "c"), id="d")
        a = generate(m, doc)
        b = generate(m, doc)
        assert a.ids == b.ids
        for x, y in zip(a.step_logits, b.step_logits):
            np.testing.assert_array_equal(x, y)

    def test_sequences_always_valid_random_models(self, rng):
        schema = make_schema(2, 2, allowed_pairs={(0, 1): frozenset({0}), (1, 0): frozenset({1})})
        for seed in range(5):
            m = tiny_model(schema, words=("a", "b", "c", "d"), seed=seed)
            for n in (2, 4, 6):
                doc = make_doc(n)
                res = generate(m, doc)
                validate_graph(res.graph, doc, max_width=3)
                for e in res.graph.entities:
                    assert 0 <= e.start <= e.end < n

    def test_nucleus_tiny_top_p_matches_greedy(self, two_type_schema):
        m = tiny_model(two_type_schema, words=("a", "b", "c"))
        doc = Document(("a", "b", "c"), id="d")
        greedy = generate(m, doc)
        nearly = generate(m, doc, DecodeConfig(mode="nucleus", top_p=1e-12))
        assert greedy.ids == nearly.ids


class TestFastSlowEquivalence:
    @pytest.mark.parametrize("mode,top_p", [("greedy", 0.9), ("nucleus", 0.8)])
    def test_bitwise_identical_paths(self, two_type_schema, mode, top_p):
        m = tiny_model(two_type_schema, words=("a", "b", "c"), dec_layers=2)
        doc = Document(("a", "c", "b", "a"), id="d")
        cfg = DecodeConfig(mode=mode, top_p=top_p, seed=11)
        fast = generate(m, doc, cfg, fast=True)
        slow = generate(m, doc, cfg, fast=False)
        assert fast.ids == slow.ids
        assert len(fast.step_logits) == len(slow.step_logits)
        for a, b in zip(fast.step_logits, slow.step_logits):
            np.testing.assert_array_equal(a, b)

    def test_nucleus_seed_controls_draws(self, two_type_schema):
        m = tiny_model(two_type_schema, words=("a", "b", "c"))
        doc = Document(("a", "b", "c", "a", "b"), id="d")
        base = generate(m, doc, DecodeConfig(mode="nucleus", top_p=0.95, seed=0))
        same = generate(m, doc, DecodeConfig(mode="nucleus", top_p=0.95, seed=0))
        assert base.ids == same.ids
        others = [generate(m, doc, DecodeConfig(mode="nucleus", top_p=0.95, seed=s)).ids
                  for s in range(1, 6)]
        assert any(ids != base.ids for ids in others)


class TestBudgets:
    def test_max_len_clamped_by_positions(self):
        schema = make_schema(1, 1)
        m = tiny_model(schema, words=("a", "b"), max_span_width=1, max_positions=8)
        for p in m.params.values():
            p.data[...] = 0.0
        res = generate(m, Document(("a", "b"), id="d"))
        # budget is max_positions - 2 = 6 raw symbols before closing
        assert res.truncated
        assert len(res.sequence.symbols) <= 8

    def test_no_room_for_a_symbol_closes_at_once(self):
        schema = make_schema(1, 1)
        for max_positions in (1, 2, 3):
            m = tiny_model(schema, words=("a", "b"), max_span_width=1,
                           max_positions=max_positions)
            tokens = ("a", "b")[:max_positions]
            for n in (1, 3):
                docs = [Document(tokens, id=str(i)) for i in range(n)]
                assert predict(m, docs) == [generate(m, docs[0]).graph] * n
                assert [r.graph for r in generate_batch(m, docs)] == predict(m, docs)
            res = generate(m, Document(tokens, id="d"))
            assert res.truncated and res.sequence.symbols == (START, SEP, END)
            assert res.step_logits == []

    def test_explicit_max_len(self, two_type_schema):
        m = tiny_model(two_type_schema, words=("a", "b", "c"))
        res = generate(m, Document(("a", "b", "c"), id="d"), DecodeConfig(max_len=3))
        assert len(res.sequence.symbols) <= 5


class TestCloseSequence:
    def test_matches_replaying_oracle_on_every_prefix(self, rng):
        schema = make_schema(2, 2, allowed_pairs={(0, 1): frozenset({0, 1}),
                                                  (1, 0): frozenset({1})})
        layout = build_layout(5, schema, 3)
        cuts = set()
        for _ in range(40):
            state, seq = initial_state(), [START]
            while not state.finished:
                legal = np.flatnonzero(legal_mask(state, layout, schema))
                sym = id_to_symbol(layout, int(legal[rng.integers(0, legal.size)]))
                seq.append(sym)
                state = advance(state, sym)
            states, _ = replay(seq)
            # states[k] is the state after the prefix seq[:k]
            for k in range(1, len(seq)):
                cuts.add(states[k].phase)
                assert (decode._close_sequence(seq[:k], states[k].phase)
                        == reference_close_sequence(seq[:k]))
        assert cuts == set(Phase)


class TestCapture:
    def test_attention_trace_shapes(self, two_type_schema):
        m = tiny_model(two_type_schema, words=("a", "b", "c"), dec_layers=2, heads=2)
        doc = Document(("a", "b", "c"), id="d")
        res = generate(m, doc, capture_attention=True)
        assert res.trace is not None
        M = len(res.sequence.symbols) - 1
        assert len(res.trace.self_attn) == 2
        for a in res.trace.self_attn:
            assert a.shape == (2, M, M)
        for a in res.trace.cross_attn:
            assert a.shape == (2, M, 3)

    def test_no_capture_by_default(self, two_type_schema):
        m = tiny_model(two_type_schema, words=("a", "b", "c"))
        res = generate(m, Document(("a", "b"), id="d"))
        assert res.trace is None


class TestPredict:
    def test_batches_documents(self, two_type_schema):
        m = tiny_model(two_type_schema, words=("a", "b", "c"))
        docs = [Document(("a", "b"), id="1"), Document(("c", "a", "b"), id="2")]
        graphs = predict(m, docs)
        assert len(graphs) == 2
        for doc, g in zip(docs, graphs):
            validate_graph(g, doc, max_width=3)


class TestLockstep:
    """Sentences decoded together give what each gives alone, bit for bit."""

    WORDS = ("a", "b", "c", "d")
    SCHEMA = make_schema(2, 2, allowed_pairs={(0, 1): frozenset({0}), (1, 0): frozenset({1})})

    def _model(self, dtype="float64"):
        return tiny_model(self.SCHEMA, words=self.WORDS, seed=0, dec_layers=2, dtype=dtype)

    def _docs(self, lengths):
        rng = np.random.default_rng(0)
        return [Document(tuple(rng.choice(self.WORDS, size=n).tolist()), id=f"d{i}")
                for i, n in enumerate(lengths)]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("cfg", [DecodeConfig(), DecodeConfig(max_len=7),
                                     DecodeConfig(mode="nucleus", top_p=0.8, seed=5)],
                             ids=["greedy", "max_len", "nucleus"])
    def test_batch_matches_generate_bitwise(self, cfg, fast, dtype):
        m = self._model(dtype)
        docs = self._docs([3] * 8)
        batch = decode._decode_lockstep(m, docs, cfg, fast, keep_logits=True)
        alone = [generate(m, doc, cfg) for doc in docs]
        # rows leave the batch at different steps
        assert len({len(res.ids) for res in alone}) > 1
        if cfg.max_len is not None:
            assert any(res.truncated for res in alone)
        for b, a in zip(batch, alone):
            assert (b.ids, b.truncated, b.sequence) == (a.ids, a.truncated, a.sequence)
            assert len(b.step_logits) == len(a.step_logits)
            for x, y in zip(b.step_logits, a.step_logits):
                assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_mixed_lengths_split_at_the_cap_keep_input_order(self, monkeypatch):
        m = self._model("float32")
        lengths = [3, 5, 4, 3, 5, 3, 4, 3, 3, 5, 3]
        docs = self._docs(lengths)
        alone = [generate(m, doc) for doc in docs]
        # length budgets are 15, 19 and 23 symbols, so a sentence holds 6,080,
        # 7,744 and 9,408 bytes: two L=3 sentences per batch
        monkeypatch.setattr(decode, "BATCH_BYTES", 14_000)
        batches = []
        run = decode._decode_lockstep

        def spy(model, batch_docs, *args, **kwargs):
            batches.append([len(d) for d in batch_docs])
            return run(model, batch_docs, *args, **kwargs)

        monkeypatch.setattr(decode, "_decode_lockstep", spy)
        results = generate_batch(m, docs)
        assert sorted(batches) == [[3, 3]] * 3 + [[4]] * 2 + [[5]] * 3
        assert [r.ids for r in results] == [a.ids for a in alone]
        assert all(r.step_logits == [] for r in results)
        assert predict(m, docs) == [a.graph for a in alone]

    def test_caches_sized_to_the_length_budget(self, monkeypatch):
        m = self._model()
        sizes = []
        init = decode.DecodeRuntime.__init__

        def spy(runtime, *args):
            init(runtime, *args)
            keys = runtime.keys[0]  # (sentences, heads, dk, rows)
            sizes.append((keys.shape[0], keys.shape[-1]))

        monkeypatch.setattr(decode.DecodeRuntime, "__init__", spy)
        predict(m, self._docs([3, 3, 4]))
        assert sorted(sizes) == [(1, 19), (2, 15)]


class TestBatchBytes:
    """The byte cap counts exactly what a runtime allocates."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("dec_layers", [1, 3])
    @pytest.mark.parametrize("n_tokens,rows", [(1, 1), (3, 15), (7, 4), (12, 51)])
    def test_runtime_nbytes_are_the_per_sentence_figure(self, dtype, dec_layers, n_tokens, rows):
        m = tiny_model(make_schema(3, 2), words=("a", "b"), dec_layers=dec_layers, dtype=dtype)
        n_seq = 3
        runtime = decode.DecodeRuntime(m, np.ones((n_seq, n_tokens), dtype=np.int64), rows)
        held = (runtime.E.nbytes + sum(k.nbytes + v.nbytes for k, v in runtime.cross)
                + sum(a.nbytes for a in runtime.keys + runtime.values))
        assert held == n_seq * decode.DecodeRuntime.sentence_nbytes(m, n_tokens, rows)

    def test_long_inputs_share_a_batch_at_the_benchmark_config(self, monkeypatch):
        m = tiny_model(make_schema(2, 2), words=("a", "b"), d_model=64, enc_layers=2,
                       dec_layers=2, heads=4, dtype="float32", max_positions=512)
        sizes = []

        def spy(model, batch_docs, *args, **kwargs):
            sizes.append(len(batch_docs))
            return [None] * len(batch_docs)

        monkeypatch.setattr(decode, "_decode_lockstep", spy)
        docs = [make_doc(100, f"d{i}") for i in range(8)]
        assert len(list(decode._decode_batches(m, docs, DecodeConfig()))) == 8
        assert min(sizes) >= 2 and sum(sizes) == 8


class TestTooLong:
    def _model(self, two_type_schema):
        return tiny_model(two_type_schema, words=("a", "b", "c"), max_positions=8)

    def test_predict_names_the_document_before_decoding(self, two_type_schema, monkeypatch):
        m = self._model(two_type_schema)
        monkeypatch.setattr(decode, "_decode_lockstep", None)  # nothing may be decoded
        with pytest.raises(TooLong, match="'far-too-long'"):
            predict(m, [make_doc(3, "fine"), make_doc(9, "far-too-long")])

    def test_generate_names_the_document(self, two_type_schema):
        with pytest.raises(TooLong, match="'x'.*9 tokens exceed max_positions 8"):
            generate(self._model(two_type_schema), make_doc(9, "x"))

    def test_generate_batch_fails_only_that_sentence(self, two_type_schema, monkeypatch):
        m = self._model(two_type_schema)
        docs = [make_doc(3, "a"), make_doc(9, "long"), make_doc(8, "b"), make_doc(3, "c")]
        decoded = []
        run = decode._decode_lockstep

        def spy(model, batch_docs, *args, **kwargs):
            decoded.extend(d.id for d in batch_docs)
            return run(model, batch_docs, *args, **kwargs)

        monkeypatch.setattr(decode, "_decode_lockstep", spy)
        results = generate_batch(m, docs)
        assert sorted(decoded) == ["a", "b", "c"]
        assert isinstance(results[1], TooLong) and "'long'" in str(results[1])
        for i in (0, 2, 3):
            assert results[i].ids == generate(m, docs[i]).ids


BENCH_CHECKPOINT = os.path.join(os.path.dirname(__file__), "..", "perfbench", "decode_ckpt.npz")


@pytest.fixture(scope="module")
def bench_sentences(tmp_path_factory):
    """The benchmark's trained checkpoint and 40 short synthetic sentences."""
    model, _, _ = Model.load(BENCH_CHECKPOINT)
    paths = make_synthetic(str(tmp_path_factory.mktemp("oracle")), seed=0, n_train=50,
                           n_dev=1, n_test=40)
    return model, load_dataset(paths["test"]).documents()


class TestTeacherForcedOracle:
    """Every cached decode step's logits against the teacher-forced forward.

    ``generate(fast=False)`` replays each prefix through the same
    ``step_logits``, so the bitwise cached-versus-recompute checks cannot see
    a bug shared by every step.  ``Model.sequence_logits`` scores a whole
    prefix at once under a causal mask: the same layers, but not bit-equal,
    since its rows also reduce over masked keys.  Each step is compared
    relative to its largest logit; over these 40 sentences (339 steps) the
    worst ratio measured 2.2e-7 in float32 and 5.3e-16 in float64.
    """

    TOLERANCE = {"float32": 1e-5, "float64": 1e-12}

    @staticmethod
    def _model(model, dtype):
        if model.config.dtype == dtype:
            return model
        params = {n: Tensor(p.data.astype(dtype)) for n, p in model.params.items()}
        return Model(dataclasses.replace(model.config, dtype=dtype), model.schema,
                     model.word_vocab, params=params)

    @staticmethod
    def _fed_back(model, doc, res) -> tuple[list[int], list[int]]:
        """The ids and phase labels greedy decoding fed in, replayed from its logits.

        A cut-off sequence is closed with ids that were never fed, so the
        fed prefix is rebuilt from the steps' own picks.
        """
        layout = build_layout(len(doc), model.schema, model.config.max_span_width)
        state, ids, labels = initial_state(), [layout.start_id], [int(Phase.NODE)]
        for logits in res.step_logits[:-1]:
            mask = legal_mask(state, layout, model.schema)
            pick = int(np.argmax(np.where(mask, logits, -np.inf)))
            labels.append(int(state.phase))
            state = advance(state, id_to_symbol(layout, pick))
            ids.append(pick)
        if not res.truncated:
            assert ids == res.ids[:-1]
        return ids, labels

    def _check(self, model, doc, res) -> None:
        ids, labels = self._fed_back(model, doc, res)
        with no_grad(), rowwise_kernels():
            full = model.sequence_logits(model.word_vocab.encode(doc.tokens), np.array(ids),
                                         np.array(labels)).data
        steps = np.stack(res.step_logits)
        assert steps.shape == full.shape and steps.dtype == full.dtype
        ratio = np.abs(steps - full).max(axis=1) / np.abs(full).max(axis=1)
        assert ratio.max() <= self.TOLERANCE[model.config.dtype], (doc.id, ratio.argmax())

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_generate(self, bench_sentences, dtype):
        model, docs = bench_sentences
        model = self._model(model, dtype)
        results = [generate(model, doc) for doc in docs]
        assert 0 < sum(res.truncated for res in results) < len(results)
        for doc, res in zip(docs, results):
            self._check(model, doc, res)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_lockstep_batch_across_keep(self, bench_sentences, dtype):
        model, docs = bench_sentences
        model = self._model(model, dtype)
        by_length: dict[int, list[Document]] = {}
        for doc in docs:
            by_length.setdefault(len(doc), []).append(doc)
        crossed = 0
        for group in by_length.values():
            results = decode._decode_lockstep(model, group, DecodeConfig(), fast=True,
                                              keep_logits=True)
            first_done = min(len(res.step_logits) for res in results)
            for doc, res in zip(group, results):
                self._check(model, doc, res)
                crossed += len(res.step_logits) > first_done
        # sentences that went on decoding after another left the batch
        assert crossed >= 3
