import numpy as np
import pytest

from spangraph.linearize import END, SEP, START, RelSym, SpanSym
from spangraph.vocab import (
    N_SPECIALS,
    IdOutOfRange,
    SymbolOutOfLayout,
    VocabLayout,
    build_layout,
    id_to_symbol,
    symbol_to_id,
)
from _helpers import make_schema


def layout(L, K, C, R):
    return build_layout(L, make_schema(C, R), K)


class TestLayoutSizes:
    def test_conll_sized_layout(self):
        lay = layout(114, 12, 4, 5)
        assert lay.n_span_ids == 114 * 12 * 4
        assert lay.T == 3
        assert lay.V == 5480
        assert lay.n_realizable_spans == 5208

    def test_degenerate_layout(self):
        lay = layout(1, 1, 1, 0)
        assert lay.V == 4

    def test_realizable_count(self):
        lay = layout(3, 5, 2, 0)
        assert lay.n_realizable_spans == 12

    def test_realizable_mask_matches_brute_force(self):
        lay = layout(7, 4, 3, 2)
        for s in range(7):
            for w in range(4):
                for c in range(3):
                    idx = (s * 4 + w) * 3 + c
                    assert bool(lay.realizable[idx]) == (s + w < 7)
        # special and relation slots are always live
        assert lay.realizable[lay.n_span_ids:].all()

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            layout(0, 1, 1, 0)
        with pytest.raises(ValueError):
            layout(1, 0, 1, 0)


class TestIdMapping:
    def test_first_span_id(self):
        lay = layout(4, 3, 2, 2)
        assert symbol_to_id(lay, SpanSym(0, 0, 0)) == 0

    def test_start_follows_spans(self):
        lay = layout(1, 1, 1, 0)
        assert symbol_to_id(lay, START) == 1
        assert lay.start_id == 1
        assert lay.end_id == 2
        assert lay.sep_id == 3

    def test_special_ordering(self):
        lay = layout(4, 3, 2, 2)
        n = lay.n_span_ids
        assert symbol_to_id(lay, START) == n
        assert symbol_to_id(lay, END) == n + 1
        assert symbol_to_id(lay, SEP) == n + 2
        assert N_SPECIALS == 3

    def test_last_id_is_last_relation(self):
        lay = layout(4, 3, 2, 2)
        assert id_to_symbol(lay, lay.V - 1) == RelSym(1)
        assert lay.rel_id(1) == lay.V - 1

    def test_width_encoding(self):
        lay = layout(10, 4, 2, 1)
        # id(start, w, c) = (start*K + w)*C + c with w = end - start
        assert symbol_to_id(lay, SpanSym(3, 5, 1)) == (3 * 4 + 2) * 2 + 1

    def test_exhaustive_bijection(self):
        lay = layout(4, 3, 2, 2)
        seen = set()
        for idx in range(lay.V):
            sym = id_to_symbol(lay, idx)
            assert symbol_to_id(lay, sym) == idx
            assert sym not in seen
            seen.add(sym)
        assert len(seen) == lay.V

    def test_overhanging_span_has_an_id(self):
        lay = layout(4, 3, 2, 2)
        # start 3 width 3 runs past the document but still owns a grid slot
        idx = symbol_to_id(lay, SpanSym(3, 5, 0))
        assert not lay.realizable[idx]

    def test_symbol_out_of_layout(self):
        lay = layout(4, 3, 2, 2)
        with pytest.raises(SymbolOutOfLayout):
            symbol_to_id(lay, SpanSym(4, 4, 0))      # start beyond L
        with pytest.raises(SymbolOutOfLayout):
            symbol_to_id(lay, SpanSym(0, 3, 0))      # width beyond K
        with pytest.raises(SymbolOutOfLayout):
            symbol_to_id(lay, SpanSym(0, 0, 2))      # type beyond C
        with pytest.raises(SymbolOutOfLayout):
            symbol_to_id(lay, RelSym(2))             # relation beyond R

    def test_id_out_of_range(self):
        lay = layout(4, 3, 2, 2)
        with pytest.raises(IdOutOfRange):
            id_to_symbol(lay, lay.V)
        with pytest.raises(IdOutOfRange):
            id_to_symbol(lay, -1)

    def test_one_object_per_symbol_in_every_layout(self):
        # results that keep many symbols hold references to one object each
        small, large = layout(3, 2, 2, 2), layout(9, 2, 2, 2)
        for idx in range(small.n_span_ids):
            assert id_to_symbol(small, idx) is id_to_symbol(large, idx)
        for r in range(2):
            assert id_to_symbol(small, small.rel_id(r)) is id_to_symbol(large, large.rel_id(r))

    def test_numpy_ids_give_symbols_of_python_ints(self):
        # a shared symbol made from a numpy id would hand numpy fields to every
        # later caller; the last span and relation here are made by no other test
        lay = layout(61, 7, 5, 41)
        for idx in (np.int64(lay.n_span_ids - 1), np.int32(lay.V - 1)):
            sym = id_to_symbol(lay, idx)
            assert sym is id_to_symbol(lay, int(idx))
            assert all(type(v) is int for v in vars(sym).values())
        with pytest.raises(TypeError):
            id_to_symbol(lay, 3.0)
