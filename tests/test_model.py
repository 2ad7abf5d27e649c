import dataclasses
import json
import os
import re
import tracemalloc

import numpy as np
import pytest

from spangraph import tensor as T
from spangraph.data import SYNTH_SCHEMA
from spangraph.graph import Document, Schema
from spangraph.linearize import END, SEP, START, RelSym, SpanSym
from spangraph.model import (
    N_STRUCT_LABELS,
    AttnTrace,
    DecodeRuntime,
    Model,
    ModelConfig,
    PrefixTooLong,
    TooLong,
    WordVocab,
    decay_excluded,
    param_group,
    param_shapes,
)
from spangraph.vocab import build_layout, symbol_to_id
from _helpers import make_schema, tiny_model
from test_data import header_line


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.d_model == 64 and cfg.heads == 4
        assert cfg.np_dtype == np.float32

    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, heads=4)

    def test_heads_must_be_positive(self):
        for heads in (0, -4):
            with pytest.raises(ValueError, match="heads"):
                ModelConfig(heads=heads)

    def test_max_positions_must_be_positive(self):
        for max_positions in (0, -1):
            with pytest.raises(ValueError, match="max_positions"):
                ModelConfig(max_positions=max_positions)
        assert ModelConfig(max_positions=1).max_positions == 1

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            ModelConfig(dropout=1.5)

    def test_dtype_whitelist(self):
        with pytest.raises(ValueError):
            ModelConfig(dtype="float16")

    def test_size_fields_must_be_integers(self):
        for name in ("d_model", "enc_layers", "dec_layers", "heads", "max_span_width",
                     "max_positions"):
            default = getattr(ModelConfig(), name)
            for value in (float(default), True, str(default), None):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    ModelConfig(**{name: value})
            cfg = ModelConfig(**{name: np.int64(default)})
            assert type(getattr(cfg, name)) is int and getattr(cfg, name) == default
        json.dumps(dataclasses.asdict(ModelConfig(d_model=np.int32(32))))

    def test_ablation_flags_default_on(self):
        cfg = ModelConfig()
        assert cfg.use_positions and cfg.use_structure


class TestWordVocab:
    def test_unk_first_required(self):
        with pytest.raises(ValueError):
            WordVocab(("a", "<unk>"))

    def test_unique_required(self):
        with pytest.raises(ValueError):
            WordVocab(("<unk>", "a", "a"))

    def test_build_sorted_unique(self):
        docs = [Document(tokens=("b", "a")), Document(tokens=("a", "c"))]
        v = WordVocab.build(docs)
        assert v.words == ("<unk>", "a", "b", "c")

    def test_unknown_maps_to_zero(self):
        v = WordVocab(("<unk>", "a"))
        assert v.id("zzz") == 0
        assert v.id("a") == 1

    def test_encode_dtype(self):
        v = WordVocab(("<unk>", "a", "b"))
        ids = v.encode(("a", "zzz", "b"))
        assert ids.dtype == np.int64
        np.testing.assert_array_equal(ids, [1, 0, 2])


class TestParamTaxonomy:
    def test_groups(self):
        assert param_group("enc.0.attn.wq") == "encoder"
        assert param_group("dec.rel") == "decoder"
        assert param_group("span.w0") == "other"

    def test_decay_exclusions(self):
        assert decay_excluded("enc.0.ln1.g")
        assert decay_excluded("dec.0.self.bq")
        assert decay_excluded("enc.word_emb")
        assert decay_excluded("dec.struct")
        assert not decay_excluded("enc.0.attn.wq")
        assert not decay_excluded("span.w1")

    def test_init_deterministic(self, two_type_schema):
        a = tiny_model(two_type_schema, seed=9)
        b = tiny_model(two_type_schema, seed=9)
        assert set(a.params) == set(b.params)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k].data, b.params[k].data)

    def test_layout_is_pinned(self, two_type_schema):
        # initialization order fixes the rng draws, grad_norm's summation
        # order and the order of a checkpoint's members
        m = tiny_model(two_type_schema)
        shapes = param_shapes(m.config, m.schema, len(m.word_vocab))
        assert list(shapes) == [
            "enc.word_emb", "enc.pos", "enc.0.ln1.g", "enc.0.ln1.b", "enc.0.attn.wq",
            "enc.0.attn.wk", "enc.0.attn.wv", "enc.0.attn.wo", "enc.0.attn.bq", "enc.0.attn.bk",
            "enc.0.attn.bv", "enc.0.attn.bo", "enc.0.ln2.g", "enc.0.ln2.b", "enc.0.ffn.w1",
            "enc.0.ffn.b1", "enc.0.ffn.w2", "enc.0.ffn.b2", "dec.pos", "dec.struct",
            "dec.special", "dec.rel", "dec.0.ln1.g", "dec.0.ln1.b", "dec.0.self.wq",
            "dec.0.self.wk", "dec.0.self.wv", "dec.0.self.wo", "dec.0.self.bq", "dec.0.self.bk",
            "dec.0.self.bv", "dec.0.self.bo", "dec.0.ln2.g", "dec.0.ln2.b", "dec.0.cross.wq",
            "dec.0.cross.wk", "dec.0.cross.wv", "dec.0.cross.wo", "dec.0.cross.bq",
            "dec.0.cross.bk", "dec.0.cross.bv", "dec.0.cross.bo", "dec.0.ln3.g", "dec.0.ln3.b",
            "dec.0.ffn.w1", "dec.0.ffn.b1", "dec.0.ffn.w2", "dec.0.ffn.b2", "span.w0", "span.w1"]
        sq, vec = (16, 16), (16,)
        ln, attn, ffn = [vec] * 2, [sq] * 4 + [vec] * 4, [(16, 64), (64,), (64, 16), vec]
        assert list(shapes.values()) == [
            (4, 16), (128, 16), *ln, *attn, *ln, *ffn, (128, 16), (4, 16), (3, 16), (2, 16),
            *ln, *attn, *ln, *attn, *ln, *ffn, (32, 16), (32, 16)]
        assert list(m.params) == list(shapes)

    @pytest.mark.parametrize("ops", [T, T.ArrayOps], ids=["tape", "array"])
    def test_bind_binds_every_parameter_once(self, two_type_schema, ops):
        m = tiny_model(two_type_schema, enc_layers=2, dec_layers=3)

        def leaves(tree):
            return [x for c in tree for x in leaves(c)] if isinstance(tree, tuple) else [tree]

        bound = m.bind(ops)
        got = leaves(tuple(bound[1:]))
        want = [ops.param(p) for p in m.params.values()]
        assert len(got) == len(want) and {id(x) for x in got} == {id(x) for x in want}
        # each block in its parts' order: the attention block as _kv and _mha read it
        for i, layer in enumerate(bound.dec):
            for at, block in ((1, "self"), (3, "cross")):
                assert [id(x) for x in layer[at]] == [
                    id(ops.param(m.params[f"dec.{i}.{block}.{part}"]))
                    for part in ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")]

    def test_struct_table_rows(self, two_type_schema):
        m = tiny_model(two_type_schema)
        assert m.params["dec.struct"].shape == (N_STRUCT_LABELS, 16)
        assert m.params["dec.special"].shape == (3, 16)
        assert m.params["dec.rel"].shape == (2, 16)
        assert m.params["span.w0"].shape == (32, 16)


class TestEncode:
    def test_shape_and_dtype(self, two_type_schema):
        m = tiny_model(two_type_schema)
        H = m.encode(np.array([1, 2, 3, 1]))
        assert H.shape == (4, 16)
        assert H.dtype == np.float64

    def test_too_long(self, two_type_schema):
        m = tiny_model(two_type_schema, max_positions=8)
        with pytest.raises(TooLong):
            m.encode(np.zeros(9, dtype=np.int64))

    def test_zero_layer_encoder_is_embeddings_plus_positions(self, two_type_schema):
        m = tiny_model(two_type_schema, enc_layers=0)
        ids = np.array([2, 1, 3])
        H = m.encode(ids)
        want = m.params["enc.word_emb"].data[ids] + m.params["enc.pos"].data[:3]
        np.testing.assert_array_equal(H.data, want)

    def test_order_sensitivity(self, two_type_schema):
        m = tiny_model(two_type_schema)
        a = m.encode(np.array([1, 2, 3]))
        b = m.encode(np.array([3, 2, 1]))
        assert not np.allclose(a.data, b.data)


class TestSpanEmbeddings:
    def test_rows_match_manual_projection(self, two_type_schema):
        m = tiny_model(two_type_schema, max_span_width=3)
        L, K, D = 5, 3, 16
        H = m.encode(np.array([1, 2, 3, 1, 2]))
        S = m.span_embeddings(H)
        assert S.shape == (L * K * 2, D)
        starts = np.repeat(np.arange(L), K)
        ends = starts + np.tile(np.arange(K), L)
        valid = (ends < L).astype(np.float64)
        h_end = H.data[np.minimum(ends, L - 1)] * valid[:, None]
        cat = np.concatenate([H.data[starts], h_end], axis=1)
        for c in range(2):
            want = cat @ m.params[f"span.w{c}"].data
            got = S.data[c::2]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_overhanging_span_uses_zero_end_vector(self, two_type_schema):
        m = tiny_model(two_type_schema, max_span_width=3)
        H = m.encode(np.array([1, 2, 3]))
        S = m.span_embeddings(H)
        layout = build_layout(3, two_type_schema, 3)
        idx = symbol_to_id(layout, SpanSym(2, 4, 0))
        W = m.params["span.w0"].data
        want = np.concatenate([H.data[2], np.zeros(16)]) @ W
        np.testing.assert_allclose(S.data[idx], want, rtol=1e-12, atol=1e-14)
        # start half still contributes, so the row is not all zeros
        assert np.abs(S.data[idx]).max() > 0

    def test_types_get_distinct_rows(self, two_type_schema):
        m = tiny_model(two_type_schema)
        H = m.encode(np.array([1, 2]))
        S = m.span_embeddings(H)
        layout = build_layout(2, two_type_schema, 3)
        a = S.data[symbol_to_id(layout, SpanSym(0, 1, 0))]
        b = S.data[symbol_to_id(layout, SpanSym(0, 1, 1))]
        assert not np.allclose(a, b)


class TestDynamicVocabulary:
    def test_row_order_matches_id_layout(self, two_type_schema, rng):
        m = tiny_model(two_type_schema, max_span_width=3)
        L = 4
        H = m.encode(np.array([1, 2, 3, 1]))
        S = m.span_embeddings(H)
        E = m.build_E(S)
        layout = build_layout(L, two_type_schema, 3)
        assert E.shape == (layout.V, 16)
        np.testing.assert_array_equal(E.data[layout.start_id], m.params["dec.special"].data[0])
        np.testing.assert_array_equal(E.data[layout.end_id], m.params["dec.special"].data[1])
        np.testing.assert_array_equal(E.data[layout.sep_id], m.params["dec.special"].data[2])
        for r in range(2):
            np.testing.assert_array_equal(E.data[layout.rel_id(r)], m.params["dec.rel"].data[r])
        for _ in range(20):
            s = int(rng.integers(0, L))
            w = int(rng.integers(0, 3))
            c = int(rng.integers(0, 2))
            sym = SpanSym(s, s + w, c)
            np.testing.assert_array_equal(
                E.data[symbol_to_id(layout, sym)], S.data[(s * 3 + w) * 2 + c])

    def test_logits_are_tied_to_vocabulary_rows(self, two_type_schema):
        m = tiny_model(two_type_schema)
        H = m.encode(np.array([1, 2, 3]))
        E = m.build_E(m.span_embeddings(H))
        Z = T.Tensor(np.random.default_rng(0).standard_normal((4, 16)))
        logits = m.next_token_logits(Z, E)
        np.testing.assert_allclose(logits.data, Z.data @ E.data.T, rtol=1e-12)


class TestDecoderInputs:
    def _setup(self, schema, **kw):
        m = tiny_model(schema, **kw)
        H = m.encode(np.array([1, 2, 3]))
        E = m.build_E(m.span_embeddings(H))
        return m, E

    def test_additive_composition(self, two_type_schema):
        m, E = self._setup(two_type_schema)
        ids = np.array([5, 2, 7])
        labels = np.array([0, 0, 1])
        x = m.decoder_inputs(E, ids, labels)
        want = (E.data[ids] + m.params["dec.pos"].data[:3]
                + m.params["dec.struct"].data[labels])
        np.testing.assert_array_equal(x.data, want)

    def test_position_ablation(self, two_type_schema):
        m, E = self._setup(two_type_schema, use_positions=False)
        ids = np.array([5, 2])
        labels = np.array([0, 0])
        x = m.decoder_inputs(E, ids, labels)
        want = E.data[ids] + m.params["dec.struct"].data[labels]
        np.testing.assert_array_equal(x.data, want)

    def test_structure_ablation(self, two_type_schema):
        m, E = self._setup(two_type_schema, use_structure=False)
        ids = np.array([5, 2])
        x = m.decoder_inputs(E, ids, np.array([0, 3]))
        want = E.data[ids] + m.params["dec.pos"].data[:2]
        np.testing.assert_array_equal(x.data, want)

    def test_both_ablated(self, two_type_schema):
        m, E = self._setup(two_type_schema, use_positions=False, use_structure=False)
        ids = np.array([5, 2])
        x = m.decoder_inputs(E, ids, np.array([0, 3]))
        np.testing.assert_array_equal(x.data, E.data[ids])

    def test_prefix_too_long(self, two_type_schema):
        m, E = self._setup(two_type_schema, max_positions=4)
        with pytest.raises(PrefixTooLong):
            m.decoder_inputs(E, np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64))


class TestDecodeHidden:
    def test_causality(self, two_type_schema):
        m = tiny_model(two_type_schema)
        H = m.encode(np.array([1, 2, 3]))
        E = m.build_E(m.span_embeddings(H))
        ids_a = np.array([20, 5, 9, 13])
        ids_b = ids_a.copy()
        ids_b[3] = 2  # change only the last input symbol
        labels = np.array([0, 0, 0, 1])
        with T.rowwise_kernels():
            za = m.decode_hidden(m.decoder_inputs(E, ids_a, labels), H)
            zb = m.decode_hidden(m.decoder_inputs(E, ids_b, labels), H)
        np.testing.assert_array_equal(za.data[:3], zb.data[:3])
        assert not np.allclose(za.data[3], zb.data[3])

    def test_packed_examples_do_not_see_each_other(self, two_type_schema):
        # K=3, C=2: example 1 (3 tokens) owns span columns 0..17, example 2
        # (4 tokens) 18..41; START/END/SEP and the 2 relations share 42..46
        m = tiny_model(two_type_schema, enc_layers=2, dec_layers=2)
        ids = np.array([42, 5, 9, 13, 42, 23, 44])
        labels = np.array([0, 0, 0, 1, 0, 0, 0])
        own = np.r_[0:18, 42:47]

        def logits(second):
            tokens = np.array([1, 2, 3, *second])
            return m.sequence_logits(tokens, ids, labels, tok_lens=[3, 4],
                                     sym_lens=[4, 3]).data

        a = logits([1, 1, 2, 3])
        b = logits([3, 3, 1, 2])
        assert a.shape == (7, 47)
        np.testing.assert_array_equal(a[:4, own], b[:4, own])
        assert not np.allclose(a[4:], b[4:])

    def test_attention_trace_shapes_and_sums(self, two_type_schema):
        m = tiny_model(two_type_schema, dec_layers=2, heads=2)
        token_ids = np.array([1, 2, 3])
        ids = np.array([20, 5, 9, 13])
        labels = np.array([0, 0, 0, 1])
        trace = AttnTrace()
        m.sequence_logits(token_ids, ids, labels, trace=trace)
        assert len(trace.self_attn) == 2 and len(trace.cross_attn) == 2
        for a in trace.self_attn:
            assert a.shape == (2, 4, 4)
            np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-6)
            for h in range(2):
                assert np.array_equal(np.triu(a[h], k=1), np.zeros((4, 4)))
        for a in trace.cross_attn:
            assert a.shape == (2, 4, 3)
            np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-6)

    def test_chunked_cache_matches_whole_prefix(self, two_type_schema):
        m = tiny_model(two_type_schema, dec_layers=2)
        token_ids = np.array([1, 2, 3])
        ids = np.array([20, 5, 9, 13, 2])
        labels = np.array([0, 0, 0, 1, 1])
        # one row to spare: a step that fills a cache's last row reads its keys
        # as one contiguous array, a product whose bits may differ
        cache = DecodeRuntime(m, token_ids[None], len(ids) + 1)
        with T.no_grad(), T.rowwise_kernels():
            H = m.encode(token_ids)
            E = m.build_E(m.span_embeddings(H))
            whole = m.decode_hidden(m.decoder_inputs(E, ids, labels), H)
            # a cached forward runs on the array op set, the cache's own
            a = m.decode_hidden(m.decoder_inputs(E.data, ids[:2], labels[:2], bound=cache.bound),
                                None, cache=cache)
            b = m.decode_hidden(m.decoder_inputs(E.data, ids[2:], labels[2:], start=2,
                                                 bound=cache.bound), None, cache=cache)
        assert cache.length == 5
        np.testing.assert_array_equal(np.concatenate([a, b]), whole.data)


class TestIncrementalDecoding:
    def test_prefix_logits_match_teacher_forced_last_row(self, two_type_schema):
        # the recompute generate(fast=False) runs: sequence_logits over a
        # prefix, last row, equals that row of the whole teacher-forced pass
        m = tiny_model(two_type_schema, dec_layers=2)
        token_ids = np.array([1, 2, 3])
        layout = build_layout(3, two_type_schema, 3)
        ids = np.array([layout.start_id, 0, 2, layout.sep_id])
        labels = np.array([0, 0, 0, 1])
        with T.no_grad(), T.rowwise_kernels():
            full = m.sequence_logits(token_ids, ids, labels).data
            for t in range(1, len(ids) + 1):
                slow = m.sequence_logits(token_ids, ids[:t], labels[:t]).data[-1]
                assert slow.tobytes() == full[t - 1].tobytes()

    def test_incremental_matches_prefix_bitwise(self, two_type_schema):
        # each cached step against a from-scratch recompute of its own prefix
        m = tiny_model(two_type_schema, dec_layers=2)
        token_ids = np.array([1, 2, 3])
        layout = build_layout(3, two_type_schema, 3)
        ids = np.array([layout.start_id, 0, 5, layout.sep_id])
        labels = np.zeros_like(ids)
        rt = DecodeRuntime(m, token_ids[None], len(ids) + 1)
        for i in range(len(ids)):
            inc = rt.step_logits(ids[None, i:i + 1], labels[None, i:i + 1])[0, 0]
            with T.no_grad(), T.rowwise_kernels():
                slow = m.sequence_logits(token_ids, ids[:i + 1], labels[:i + 1]).data[-1]
            np.testing.assert_array_equal(inc, slow)

    def test_incremental_matches_teacher_forced_bitwise(self, two_type_schema):
        m = tiny_model(two_type_schema, dec_layers=2)
        token_ids = np.array([1, 2, 3])
        layout = build_layout(3, two_type_schema, 3)
        ids = np.array([layout.start_id, 0, 5, layout.sep_id])
        labels = np.array([0, 0, 0, 1])
        rt = DecodeRuntime(m, token_ids[None], len(ids) + 1)
        steps = [rt.step_logits(ids[None, i:i + 1], labels[None, i:i + 1])[0, 0]
                 for i in range(len(ids))]
        with T.no_grad(), T.rowwise_kernels():
            full = m.sequence_logits(token_ids, ids, labels).data
        assert full.tobytes() == np.stack(steps).tobytes()

    def test_keep_matches_a_runtime_of_the_kept_sentences(self, two_type_schema):
        m = tiny_model(two_type_schema, dec_layers=2)
        layout = build_layout(3, two_type_schema, 3)
        token_ids = np.array([[1, 2, 3], [3, 1, 1], [2, 2, 3], [1, 3, 2]])
        ids = np.array([[layout.start_id] * 4, [0, 5, 2, 7], [layout.sep_id, 1, 5, 0]])
        labels = np.zeros_like(ids)
        kept = [1, 3]
        rt = DecodeRuntime(m, token_ids, 5)
        for i in range(2):
            rt.step_logits(ids[i, :, None], labels[i, :, None])
        rt.keep(kept)
        ref = DecodeRuntime(m, token_ids[kept], 5)
        for i in range(2):
            ref.step_logits(ids[i, kept, None], labels[i, kept, None])
        np.testing.assert_array_equal(rt.E, ref.E)
        for kv, ref_kv in zip(rt.cross, ref.cross):
            for t, ref_t in zip(kv, ref_kv):
                np.testing.assert_array_equal(t.data, ref_t.data)
        assert rt.length == ref.length == 2
        np.testing.assert_array_equal(rt.step_logits(ids[2, kept, None], labels[2, kept, None]),
                                      ref.step_logits(ids[2, kept, None], labels[2, kept, None]))

    def test_step_past_the_last_cache_row_is_rejected(self, two_type_schema):
        m = tiny_model(two_type_schema, dec_layers=2)
        layout = build_layout(3, two_type_schema, 3)
        rt = DecodeRuntime(m, np.array([[1, 2, 3]]), 2)
        for sym_id in (layout.start_id, 0):
            rt.step_logits(np.array([[sym_id]]), np.array([[0]]))
        keys = [k.copy() for k in rt.keys]
        values = [v.copy() for v in rt.values]
        with pytest.raises(ValueError, match="row 3 overflows a cache of 2 rows"):
            rt.step_logits(np.array([[layout.sep_id]]), np.array([[0]]))
        assert rt.length == 2
        for a, b in zip(rt.keys + rt.values, keys + values):
            np.testing.assert_array_equal(a, b)


    @pytest.mark.parametrize("bad", ["id V in sentence 0", "id -1 in sentence 1",
                                     "label -1", f"label {N_STRUCT_LABELS}"])
    def test_step_reads_only_its_own_sentences_vocabulary(self, two_type_schema, bad):
        # with B = 2 the flat row b*V + id of id V in sentence 0 is row 0 of
        # sentence 1, and id -1 in sentence 1 is the last row of sentence 0
        m = tiny_model(two_type_schema, dec_layers=2)
        layout = build_layout(3, two_type_schema, 3)
        rt = DecodeRuntime(m, np.array([[1, 2, 3], [3, 2, 1]]), 4)
        rt.step_logits(np.full((2, 1), layout.start_id), np.zeros((2, 1), np.int64))
        ids, labels = np.array([[0], [1]]), np.zeros((2, 1), np.int64)
        if bad == "id V in sentence 0":
            ids[0, 0] = layout.V
        elif bad == "id -1 in sentence 1":
            ids[1, 0] = -1
        else:
            labels[1, 0] = int(bad.split()[1])
        cache = [a.copy() for a in rt.keys + rt.values]
        with pytest.raises(T.ShapeMismatch, match="outside"):
            rt.step_logits(ids, labels)
        assert rt.length == 1
        for a, b in zip(rt.keys + rt.values, cache):
            assert a.tobytes() == b.tobytes()

    def test_step_shapes_are_checked(self, two_type_schema):
        m = tiny_model(two_type_schema, dec_layers=2)
        rt = DecodeRuntime(m, np.array([[1, 2, 3], [3, 2, 1]]), 4)
        for ids, labels in ((np.zeros((1, 1), np.int64), np.zeros((1, 1), np.int64)),
                            (np.zeros((2, 2), np.int64), np.zeros((2, 1), np.int64)),
                            (np.zeros((2, 0), np.int64), np.zeros((2, 0), np.int64)),
                            (np.zeros(2, np.int64), np.zeros(2, np.int64))):
            with pytest.raises(T.ShapeMismatch):
                rt.step_logits(ids, labels)
        assert rt.length == 0

    @pytest.mark.parametrize("token", [-1, 4])
    def test_token_ids_outside_the_word_table_are_rejected(self, two_type_schema, token):
        m = tiny_model(two_type_schema)
        with pytest.raises(T.ShapeMismatch, match="word table"):
            DecodeRuntime(m, np.array([[1, token, 3]]), 4)


class TestOpSets:
    """The layer code on the array op set computes the tape ops' bits."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("rowwise, tok_lens, sym_lens", [
        (False, [3], [4]), (True, [3], [4]),
        (False, [3, 3], [4, 4]), (True, [3, 3], [4, 4]),
        (False, [3, 2], [4, 2]),  # packed examples of mixed lengths: one masked group
    ])
    def test_forward_bit_equal_on_both_op_sets(self, two_type_schema, dtype, rowwise,
                                               tok_lens, sym_lens):
        m = tiny_model(two_type_schema, dec_layers=2, dtype=dtype, dropout=0.2)
        tokens = np.array([1, 2, 3, 3, 1, 2])[:sum(tok_lens)]
        ids = np.array([20, 5, 9, 13, 2, 7, 1, 0])[:sum(sym_lens)]
        labels = np.array([0, 0, 0, 1, 1, 2, 3, 0])[:sum(sym_lens)]
        outs = []
        for ops in (T, T.ArrayOps):
            bound, trace = m.bind(ops), AttnTrace()
            rng = np.random.default_rng(3)
            with T.rowwise_kernels() if rowwise else T.no_grad():
                H = m.encode(tokens, True, rng, tok_lens, bound)
                E = m.build_E(m.span_embeddings(H, tok_lens, bound), bound)
                x = m.decoder_inputs(E, ids, labels, True, rng, sym_lens=sym_lens, bound=bound)
                z = m.decode_hidden(x, H, True, rng, trace, sym_lens=sym_lens,
                                    tok_lens=tok_lens, bound=bound)
            outs.append([a.data if ops is T else a for a in (H, E, z)]
                        + trace.self_attn + trace.cross_attn)
        for got, want in zip(outs[1], outs[0], strict=True):
            assert type(got) is np.ndarray
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_seq", [1, 3])
    @pytest.mark.parametrize("k", [1, 4])
    def test_runtime_builds_no_tensor(self, two_type_schema, monkeypatch, n_seq, k):
        m = tiny_model(two_type_schema, dec_layers=2)
        layout = build_layout(3, two_type_schema, 3)
        built = []
        init = T.Tensor.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(T.Tensor, "__init__", counted)
        rng = np.random.default_rng(0)
        rt = DecodeRuntime(m, np.array([[1, 2, 3], [3, 1, 1], [2, 2, 3]])[:n_seq], 2 * k + 1)
        for _ in range(2):
            rt.step_logits(rng.integers(0, layout.V, (n_seq, k)),
                           rng.integers(0, N_STRUCT_LABELS, (n_seq, k)))
        rt.keep([0])
        rt.step_logits(np.array([[layout.sep_id]]), np.array([[1]]))
        assert built == []
        m.encode(np.array([1, 2, 3]))  # the tape ops do build them
        assert built


class TestDecodeStepMemory:
    def test_cached_step_copies_no_cached_rows(self, two_type_schema):
        # a step reads the cache in place: its peak allocation stays below one
        # layer's cached keys, which a per-step copy of the keys would reach
        rows = 2000
        m = tiny_model(two_type_schema, d_model=32, heads=2, max_positions=rows)
        layout = build_layout(3, two_type_schema, 3)
        rt = DecodeRuntime(m, np.array([[1, 2, 3]]), rows)
        for a in rt.keys + rt.values:
            a.fill(0.25)
        rt.length = rows - 1
        tracemalloc.start()
        try:
            rt.step_logits(np.array([[layout.sep_id]]), np.array([[0]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rt.length == rows
        assert peak < rt.keys[0].nbytes


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        schema = make_schema(2, 2, allowed_pairs={(0, 1): frozenset({0}), (1, 0): frozenset({0, 1})})
        m = tiny_model(schema, use_structure=False, dtype="float32")
        path = str(tmp_path / "ck.npz")
        m.save(path, extra_arrays={"opt.m.x": np.ones(3)}, extra_meta={"step": 7})
        m2, rest, extra = Model.load(path)
        assert m2.config == m.config
        assert m2.schema == m.schema
        assert m2.word_vocab.words == m.word_vocab.words
        assert set(m2.params) == set(m.params)
        for k in m.params:
            np.testing.assert_array_equal(m2.params[k].data, m.params[k].data)
        np.testing.assert_array_equal(rest["opt.m.x"], np.ones(3))
        assert extra["step"] == 7

    def test_collision_rejected(self, tmp_path, two_type_schema):
        m = tiny_model(two_type_schema)
        with pytest.raises(ValueError):
            m.save(str(tmp_path / "x.npz"), extra_arrays={"enc.pos": np.ones(2)})

    def test_bad_format_rejected(self, tmp_path, two_type_schema):
        path = str(tmp_path / "bad.npz")
        T.save_arrays(path, {"a": np.zeros(2)}, {"format": "something-else"})
        with pytest.raises(ValueError):
            Model.load(path)

    def _tampered(self, tmp_path, schema, edit):
        path = str(tmp_path / "ck.npz")
        tiny_model(schema, dec_layers=1).save(path)
        arrays, meta = T.load_arrays(path)
        edit(arrays, meta)
        T.save_arrays(path, arrays, meta)
        return path

    def test_wrong_shape_rejected(self, tmp_path, two_type_schema):
        def edit(arrays, meta):
            arrays["dec.0.ffn.w1"] = arrays["dec.0.ffn.w1"][:, :8]
        with pytest.raises(ValueError, match="dec.0.ffn.w1"):
            Model.load(self._tampered(tmp_path, two_type_schema, edit))

    @pytest.mark.parametrize("edit, match", [
        (lambda arrays, meta: meta["config"].update(dtype="float32"),
         "parameter enc.word_emb is float64, its config says float32"),
        (lambda arrays, meta: arrays.update({"dec.0.self.bq": arrays["dec.0.self.bq"]
                                             .astype(np.float32)}),
         "parameter dec.0.self.bq is float32, its config says float64"),
    ], ids=["config-dtype", "one-array"])
    def test_dtype_unlike_config_rejected(self, tmp_path, two_type_schema, edit, match):
        path = self._tampered(tmp_path, two_type_schema, edit)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: {match}$"):
            Model.load(path)

    def test_config_without_its_layer_rejected(self, tmp_path, two_type_schema):
        def edit(arrays, meta):
            meta["config"]["dec_layers"] = 2
        with pytest.raises(ValueError, match=r"missing \[.dec\.1\."):
            Model.load(self._tampered(tmp_path, two_type_schema, edit))

    @pytest.mark.parametrize("edit, match", [
        (lambda meta: meta.pop("schema"), "checkpoint metadata lacks 'schema'"),
        (lambda meta: meta.pop("words"), "checkpoint metadata lacks 'words'"),
        (lambda meta: meta["config"].update(width=3), "malformed.*width"),
        (lambda meta: meta["schema"].update(entity_types="person"), "malformed.*entity_types"),
        (lambda meta: meta["schema"].update(allowed_pairs=[[0, 1]]), "malformed.*allowed_pairs"),
    ], ids=["no-schema", "no-words", "unknown-config-key", "type-names-not-a-list",
            "two-item-pair"])
    def test_malformed_metadata_rejected(self, tmp_path, two_type_schema, edit, match):
        path = self._tampered(tmp_path, two_type_schema, lambda arrays, meta: edit(meta))
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: {match}"):
            Model.load(path)

    def test_schema_stored_in_dataset_header_form(self, tmp_path):
        schema = make_schema(3, 2, allowed_pairs={(2, 0): frozenset({1, 0}),
                                                  (0, 1): frozenset({1})})
        path = str(tmp_path / "ck.npz")
        tiny_model(schema).save(path)
        _, meta = T.load_arrays(path)
        assert meta["schema"] == json.loads(header_line(schema))["schema"]

    def test_id_form_schema_still_loads(self, tmp_path):
        schema = make_schema(2, 2, allowed_pairs={(0, 1): frozenset({0, 1}),
                                                  (1, 0): frozenset({1})})

        def to_id_form(arrays, meta):
            meta["schema"]["allowed_pairs"] = [
                [h, t, sorted(rs)] for (h, t), rs in sorted(schema.allowed_pairs.items())]

        m2, _, _ = Model.load(self._tampered(tmp_path, schema, to_id_form))
        assert m2.schema == schema
        m = tiny_model(schema, dec_layers=1)
        tok = np.array([1, 2, 3])
        layout = build_layout(3, schema, 3)
        ids, labels = np.array([layout.start_id, 0]), np.array([0, 0])
        np.testing.assert_array_equal(m.sequence_logits(tok, ids, labels).data,
                                      m2.sequence_logits(tok, ids, labels).data)

    def test_benchmark_checkpoint_loads_read_only(self):
        path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "decode_ckpt.npz")
        before = open(path, "rb").read()
        _, meta = T.load_arrays(path)
        assert meta["schema"]["allowed_pairs"] == [[0, 1, [0, 1]]]  # the id form
        model, _, _ = Model.load(path)
        assert model.schema == SYNTH_SCHEMA
        assert open(path, "rb").read() == before

    def test_behaviour_identical_after_reload(self, tmp_path, two_type_schema):
        m = tiny_model(two_type_schema)
        path = str(tmp_path / "ck.npz")
        m.save(path)
        m2, _, _ = Model.load(path)
        tok = np.array([1, 2, 3])
        layout = build_layout(3, two_type_schema, 3)
        ids = np.array([layout.start_id, 0])
        labels = np.array([0, 0])
        a = m.sequence_logits(tok, ids, labels)
        b = m2.sequence_logits(tok, ids, labels)
        np.testing.assert_array_equal(a.data, b.data)
