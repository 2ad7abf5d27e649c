import dataclasses
import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangraph import decode
from spangraph.data import Dataset, load_dataset, make_synthetic, save_dataset
from spangraph.decode import DecodeConfig, generate, generate_batch, nucleus_select, predict
from spangraph.grammar import Phase, advance, initial_state, legal_mask, replay
from spangraph.graph import Document, validate_graph
from spangraph.linearize import END, SEP, START, RelSym, SpanSym
from spangraph.model import DecodeRuntime, Model, TooLong
from spangraph.tensor import Tensor, no_grad, rowwise_kernels
from spangraph.vocab import build_layout, id_to_symbol, symbol_to_id
from _helpers import make_doc, make_schema, reference_close_sequence, schemas, tiny_model


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
        assert len(decode.generate_batch(m, docs, DecodeConfig())) == 8
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
    """Every cached decode step's logits against the teacher-forced forward, bit for bit.

    ``Model.sequence_logits`` scores a whole prefix at once under a causal
    mask; under ``rowwise_kernels`` each of its rows attends to exactly its
    own key prefix, as a cached step does, so the logits are byte-equal.
    """

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
        assert steps.tobytes() == full.tobytes(), doc.id

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

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_chunked_cache_steps(self, bench_sentences, dtype):
        # a two-chunk cached forward equals the whole teacher-forced prefix:
        # a multi-row step is bit-equal to one-row steps
        model, docs = bench_sentences
        model = self._model(model, dtype)
        checked = 0
        for doc in docs:
            res = generate(model, doc)
            if res.truncated:
                continue
            ids, labels = self._fed_back(model, doc, res)
            tokens = model.word_vocab.encode(doc.tokens)
            cache = DecodeRuntime(model, tokens[None], len(ids) + 1)
            half = len(ids) // 2
            with no_grad(), rowwise_kernels():
                H = model.encode(tokens)
                E = model.build_E(model.span_embeddings(H))
                whole = model.decode_hidden(model.decoder_inputs(E, ids, labels), H).data
                # cached chunks run on the array op set, the cache's own
                chunks = [model.decode_hidden(model.decoder_inputs(E.data, ids[a:b], labels[a:b],
                                                                   start=a, bound=cache.bound),
                                              None, cache=cache)
                          for a, b in ((0, half), (half, len(ids)))]
            assert np.concatenate(chunks).tobytes() == whole.tobytes(), doc.id
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_cache_capacity_does_not_move_logits(self, bench_sentences, dtype):
        model, docs = bench_sentences
        model = self._model(model, dtype)
        doc, res = max(((doc, generate(model, doc)) for doc in docs),
                       key=lambda pair: len(pair[1].step_logits))
        ids, labels = self._fed_back(model, doc, res)
        assert len(ids) > 10
        budget = decode._length_budget(model, DecodeConfig(), len(doc))
        runs = []
        for rows in (budget, 2 * budget):
            runtime = DecodeRuntime(model, model.word_vocab.encode(doc.tokens)[None], rows)
            runs.append(np.stack([runtime.step_logits(np.array([[i]]), np.array([[label]]))[:, 0]
                                  for i, label in zip(ids, labels)]))
        assert runs[0].tobytes() == runs[1].tobytes()


class TestDraft:
    """The draft source and the grammar walk that trims it."""

    def test_copies_what_followed_the_last_earlier_occurrence_cyclically(self):
        ids = [9, 4, 1, 2, 3, 1]
        assert list(itertools.islice(decode._draft(ids), 7)) == [2, 3, 1, 2, 3, 1, 2]
        # the last earlier occurrence, not the first
        assert list(itertools.islice(decode._draft([9, 1, 5, 1, 2, 1]), 3)) == [2, 1, 2]

    @pytest.mark.parametrize("ids", [[9], [9, 4], [9, 4, 1, 2]])
    def test_no_earlier_occurrence_drafts_nothing(self, ids):
        assert list(decode._draft(ids)) == []

    def test_walk_stops_at_an_illegal_symbol_end_or_an_id_outside_the_layout(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 1)
        a, b = (symbol_to_id(layout, SpanSym(i, i, 0)) for i in (0, 1))
        rel = layout.rel_id(0)
        node = advance(advance(initial_state(), SpanSym(0, 0, 0)), SpanSym(1, 1, 0))
        head = advance(node, SEP)
        # a triple walks whole; a second SEP is illegal in HEAD
        kept, syms, states = decode._walk_draft(head, [a, b, rel, layout.sep_id, a], layout)
        assert kept == [a, b, rel]
        assert syms == [SpanSym(0, 0, 0), SpanSym(1, 1, 0), RelSym(0)]
        # the states before each kept id and after the last, as advance makes them
        assert states[0] is head
        assert [s.phase for s in states] == [Phase.HEAD, Phase.TAIL, Phase.REL, Phase.HEAD]
        assert states[2].pending_head == SpanSym(0, 0, 0)
        assert states[3].pending_head is None and not states[3].finished
        assert decode._walk_draft(head, [a, b, rel, layout.end_id, a], layout)[0] == [a, b, rel]
        assert decode._walk_draft(head, [a, layout.V, b], layout)[0] == [a]
        assert decode._walk_draft(head, [-1, a], layout) == ([], [], [head])
        assert decode._walk_draft(node, [layout.start_id], layout)[0] == []


def _step_spy(monkeypatch):
    """Record (first row, rows fed, cache rows) of every cached decoder call."""
    steps = []
    step = DecodeRuntime.step_logits

    def spy(runtime, sym_ids, labels):
        steps.append((runtime.length, sym_ids.shape[1], runtime.keys[0].shape[-1]))
        return step(runtime, sym_ids, labels)

    monkeypatch.setattr(DecodeRuntime, "step_logits", spy)
    return steps


def _same_results(got, want) -> bool:
    return all(
        (a.ids, a.truncated, a.sequence) == (b.ids, b.truncated, b.sequence)
        and len(a.step_logits) == len(b.step_logits)
        and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                for x, y in zip(a.step_logits, b.step_logits))
        for a, b in zip(got, want, strict=True))


class TestDraftAndVerify:
    """Drafts decide how many rows a cached step feeds, never what is decoded."""

    SCHEMA = TestLockstep.SCHEMA
    WORDS = TestLockstep.WORDS
    CONFIGS = [DecodeConfig(), DecodeConfig(max_len=9),
               DecodeConfig(mode="nucleus", top_p=0.8, seed=5)]

    def _model(self, dtype="float64"):
        return tiny_model(self.SCHEMA, words=self.WORDS, seed=2, dec_layers=2, dtype=dtype)

    def _docs(self):
        rng = np.random.default_rng(3)
        return [Document(tuple(rng.choice(self.WORDS, size=n).tolist()), id=f"d{i}")
                for i, n in enumerate([4, 4, 4, 6, 6, 3])]

    def _decode(self, m, docs, cfg):
        return [generate(m, doc, cfg) for doc in docs], generate_batch(m, docs, cfg)

    @staticmethod
    def _truth(want, ids) -> list[int]:
        """What some reference decode of the prefix ``ids`` went on with."""
        return next((r.ids[len(ids):] for r in want if r.ids[:len(ids)] == ids), [])

    def _legal_but_wrong(self, docs, ids, truth) -> list[int]:
        """An id the grammar admits after ``ids`` other than ``truth[0]`` and END, if any."""
        if not truth:
            return []
        layouts = [build_layout(n, self.SCHEMA, 3) for n in sorted({len(doc) for doc in docs})]
        layout = next(lay for lay in layouts if max(ids) < lay.V)
        state = initial_state()
        for i in ids[1:]:
            state = advance(state, id_to_symbol(layout, i))
        legal = np.flatnonzero(legal_mask(state, layout, self.SCHEMA)).tolist()
        return [i for i in legal if i not in (truth[0], layout.end_id)][:1]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["greedy", "max_len", "nucleus"])
    def test_garbage_drafts_change_no_output(self, monkeypatch, cfg, dtype):
        m, docs = self._model(dtype), self._docs()
        want, want_batch = self._decode(m, docs, cfg)
        rng = np.random.default_rng(0)
        n_vocab = max(build_layout(len(doc), self.SCHEMA, 3).V for doc in docs)

        def garbage(ids):
            # often right, so that drafts are fed, and otherwise wrong after a while
            truth = self._truth(want, ids)
            at = int(rng.integers(len(truth) + 1))
            right = truth[:at]
            kind = rng.integers(8)
            if kind == 0:  # random ids, some outside the layout
                return right + rng.integers(-2, n_vocab + 2, size=16).tolist()
            if kind == 1:  # START, never legal
                return right + [ids[0]] * 4
            if kind == 2:  # an early END, whose id follows START's
                return right + [ids[0] + 1] + truth
            if kind == 3:  # one wrong id that the grammar admits
                return right + self._legal_but_wrong(docs, ids + right, truth[at:]) + truth[at + 1:]
            return truth

        monkeypatch.setattr(decode, "_draft", garbage)
        steps = _step_spy(monkeypatch)
        got, got_batch = self._decode(m, docs, cfg)
        assert _same_results(got, want)
        assert [r.ids for r in got_batch] == [r.ids for r in want_batch]
        # multi-row steps ran, and some of their rows were rejected
        fed = sum(k for _, k, _ in steps[:sum(r.decoder_calls for r in got)])
        assert max(k for _, k, _ in steps) > 1
        assert fed > sum(len(r.step_logits) for r in got)
        # the kept logits hold no rejected row: each row's memory is reported
        for res in got:
            bases = {id(x.base): x.base for x in res.step_logits}
            assert sum(x.nbytes for x in bases.values()) == sum(x.nbytes for x in res.step_logits)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["greedy", "max_len", "nucleus"])
    def test_drafts_that_are_never_right_feed_no_rows(self, monkeypatch, cfg):
        """A legal draft whose first id is always wrong leaves every step one row."""
        m, docs = self._model(), self._docs()
        want, want_batch = self._decode(m, docs, cfg)

        def wrong(ids):
            truth = self._truth(want, ids)
            return self._legal_but_wrong(docs, ids, truth) + truth[1:]

        monkeypatch.setattr(decode, "_draft", wrong)
        steps = _step_spy(monkeypatch)
        got, got_batch = self._decode(m, docs, cfg)
        assert _same_results(got, want)
        assert [r.ids for r in got_batch] == [r.ids for r in want_batch]
        assert {k for _, k, _ in steps} == {1}

    def test_decoder_calls_count_the_steps_a_sentence_was_live_for(self, monkeypatch):
        m, docs = self._model(), self._docs()
        for doc in docs:
            assert generate(m, doc, fast=False).decoder_calls == len(generate(m, doc).step_logits)
            steps = _step_spy(monkeypatch)
            assert generate(m, doc).decoder_calls == len(steps)
            monkeypatch.undo()


_WORDS = ("a", "b", "c", "d")


class TestDecodingProperties:
    """Random tiny models and schemas: cached drafts equal the recompute, outputs load."""

    @settings(max_examples=30, deadline=None)
    @given(schema=schemas(), lengths=st.lists(st.integers(1, 8), min_size=1, max_size=4),
           width=st.integers(1, 3), dtype=st.sampled_from(["float32", "float64"]),
           nucleus=st.booleans(), max_len=st.one_of(st.none(), st.integers(3, 40)),
           seed=st.integers(0, 2**16))
    def test_cached_equals_recompute_and_outputs_pass_the_loader(
            self, schema, lengths, width, dtype, nucleus, max_len, seed):
        m = tiny_model(schema, words=_WORDS, max_span_width=width, dtype=dtype, seed=seed,
                       dec_layers=2)
        rng = np.random.default_rng(seed)
        docs = [Document(tuple(rng.choice(_WORDS, size=n).tolist()), id=f"d{i}")
                for i, n in enumerate(lengths)]
        cfg = DecodeConfig(mode="nucleus" if nucleus else "greedy", top_p=0.8,
                           max_len=max_len, seed=seed)
        batch = generate_batch(m, docs, cfg)
        for doc, res in zip(docs, batch):
            fast, slow = generate(m, doc, cfg), generate(m, doc, cfg, fast=False)
            assert fast.ids == slow.ids == res.ids
            assert _same_results([fast], [slow])
            for out in (fast, res):
                validate_graph(out.graph, doc, max_width=width)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.jsonl")
            save_dataset(path, Dataset(schema, width, tuple(
                (doc, res.graph) for doc, res in zip(docs, batch))))
            # the loader checks every graph and the schema's allowed pairs
            assert load_dataset(path).examples == tuple(
                (doc, res.graph) for doc, res in zip(docs, batch))


@pytest.fixture(scope="module")
def long_input(bench_sentences):
    """The benchmark checkpoint and one 100-token input of joined synthetic sentences."""
    model, docs = bench_sentences
    tokens = [t for doc in docs for t in doc.tokens][:100]
    assert len(tokens) == 100
    return model, Document(tuple(tokens), id="long")


class TestDraftsOnTheBenchmarkModel:
    """The trained checkpoint repeats triples, so its drafts run to the caps."""

    CONFIGS = [DecodeConfig(), DecodeConfig(max_len=12),
               DecodeConfig(mode="nucleus", top_p=0.8, seed=5)]

    @staticmethod
    def _decode(model, docs, cfg):
        return [generate(model, doc, cfg) for doc in docs], generate_batch(model, docs, cfg)

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["greedy", "max_len", "nucleus"])
    def test_draft_cap_bounds_the_rows_of_a_step(self, monkeypatch, bench_sentences, cfg):
        model, docs = bench_sentences
        want, want_batch = self._decode(model, docs, cfg)
        monkeypatch.setattr(decode, "DRAFT", 2)
        steps = _step_spy(monkeypatch)
        got, got_batch = self._decode(model, docs, cfg)
        assert _same_results(got, want)
        assert [r.ids for r in got_batch] == [r.ids for r in want_batch]
        assert max(k for _, k, _ in steps) <= 3
        if cfg.max_len is None:  # the short budget ends decoding before drafts ramp up
            assert max(k for _, k, _ in steps) == 3

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["greedy", "max_len", "nucleus"])
    def test_budget_caps_the_rows_below_the_last_cache_row(self, monkeypatch, bench_sentences,
                                                           cfg):
        model, docs = bench_sentences
        want, want_batch = self._decode(model, docs, cfg)
        monkeypatch.setattr(decode, "DRAFT", 1000)
        steps = _step_spy(monkeypatch)
        got, got_batch = self._decode(model, docs, cfg)
        assert _same_results(got, want)
        assert [r.ids for r in got_batch] == [r.ids for r in want_batch]
        assert all(start + k < rows for start, k, rows in steps)
        # drafts ran up to the budget: a multi-row step ended one row short of the end
        if cfg.max_len is None:
            assert any(start + k == rows - 1 and k > 2 for start, k, rows in steps)

    # a nucleus of one id repeats the triple as greedy does, so drafts reach DRAFT rows
    @pytest.mark.parametrize("cfg", [DecodeConfig(), DecodeConfig(mode="nucleus", top_p=0.01)],
                             ids=["greedy", "nucleus"])
    def test_rows_fed_past_a_masked_draft_symbol_change_no_output(self, monkeypatch, long_input,
                                                                   cfg):
        """A drafted tail that ``advance`` takes but the mask rules out is rejected.

        The checkpoint relates type-0 heads to type-1 tails only, so after a
        type-0 tail under a type-0 head the REL state admits no symbol.  The
        rows fed after that tail must not be picked from.
        """
        model, doc = long_input
        want = generate(model, doc, cfg)
        layout = build_layout(len(doc), model.schema, model.config.max_span_width)
        sep = want.ids.index(layout.sep_id)
        head, tail, _ = want.ids[sep + 1:sep + 4]
        wrong = next(i for i in want.ids[1:sep] if i % layout.C == head % layout.C and i != head)
        assert not model.schema.relation_table[head % layout.C, wrong % layout.C].any()
        draft, swapped = decode._draft, []

        def once(ids):
            # deep in the triple loop, where drafts run to DRAFT rows, swap one tail
            out = list(itertools.islice(draft(ids), 2 * decode.DRAFT + 2))
            if len(ids) > 200 and not swapped and tail in out[:2]:
                swapped.append((len(ids), out.index(tail)))
                out[out.index(tail)] = wrong
            return out

        monkeypatch.setattr(decode, "_draft", once)
        steps = _step_spy(monkeypatch)
        assert _same_results([generate(model, doc, cfg)], [want])
        # the step that fed the wrong tail (row at + 1) fed a row after it too
        (n_ids, at), = swapped
        assert any(start == n_ids - 1 and k > at + 2 for start, k, _ in steps)

    def test_a_result_holds_one_object_per_distinct_symbol(self, long_input):
        # the repeated triple's symbols are shared, not fresh instances per step
        model, doc = long_input
        symbols = generate(model, doc).sequence.symbols
        assert len({id(s) for s in symbols}) == len(set(symbols)) < len(symbols) // 2

    def test_no_step_reaches_the_last_cache_row(self, monkeypatch, bench_sentences, long_input):
        model, docs = bench_sentences
        steps = _step_spy(monkeypatch)
        for doc in list(docs) + [long_input[1]]:
            generate(model, doc)
        predict(model, docs)
        assert all(start + k < rows for start, k, rows in steps)
        assert max(k for _, k, _ in steps) == decode.DRAFT + 1

    def test_a_repeating_long_input_makes_a_third_of_the_calls(self, monkeypatch, long_input):
        model, doc = long_input
        steps = _step_spy(monkeypatch)
        res = generate(model, doc)
        # the input runs to its budget, one triple repeated
        assert res.truncated
        assert len(res.step_logits) == decode._length_budget(model, DecodeConfig(), 100) - 1
        # fewer than a fifth: 70 calls for its 402 symbols at DRAFT = 31
        assert 5 * res.decoder_calls <= len(res.step_logits)
        # drafts grow with the picks they predicted: rows double, 2, 4, 8, ...,
        # up to DRAFT + 1
        rows = [k for _, k, _ in steps]
        first = rows.index(2)
        assert set(rows[:first]) == {1}
        ramp = [2]
        while ramp[-1] < decode.DRAFT + 1:
            ramp.append(min(2 * ramp[-1], decode.DRAFT + 1))
        assert rows[first:first + len(ramp)] == ramp
