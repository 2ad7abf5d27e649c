"""Per-input dynamic vocabulary: contiguous ids for spans, specials, and relation types.

The id space enumerates every (start, width, entity type) slot, even spans that
would overhang the end of the sentence; those slots keep their ids (the closed
form V = L*K*C + R + T stays exact) but are flagged non-realizable and never
become legal under the grammar mask.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

import numpy as np

from .graph import Schema
from .linearize import END, SEP, START, RelSym, SpanSym, SpecialToken, Symbol

SPECIAL_ORDER: tuple[SpecialToken, ...] = (START, END, SEP)
N_SPECIALS = len(SPECIAL_ORDER)


class SymbolOutOfLayout(ValueError):
    pass


class IdOutOfRange(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class VocabLayout:
    """Bijection between symbols and ids in [0, V).

    Span ids come first, ordered start-major then width then entity type:
    id(start, w, c) = (start*K + w)*C + c with w = end - start.  The three
    special tokens follow, then the relation types.
    """

    L: int
    K: int
    C: int
    R: int
    realizable: np.ndarray = field(repr=False)  # bool (V,); False only for overhanging spans

    @property
    def T(self) -> int:
        return N_SPECIALS

    @property
    def n_span_ids(self) -> int:
        return self.L * self.K * self.C

    @property
    def V(self) -> int:
        return self.n_span_ids + self.R + self.T

    @property
    def n_realizable_spans(self) -> int:
        return int(self.realizable[: self.n_span_ids].sum())

    @property
    def start_id(self) -> int:
        return self.n_span_ids + SPECIAL_ORDER.index(START)

    @property
    def end_id(self) -> int:
        return self.n_span_ids + SPECIAL_ORDER.index(END)

    @property
    def sep_id(self) -> int:
        return self.n_span_ids + SPECIAL_ORDER.index(SEP)

    def rel_id(self, rel_type_id: int) -> int:
        if not (0 <= rel_type_id < self.R):
            raise SymbolOutOfLayout(f"relation type {rel_type_id} not in [0, {self.R})")
        return self.n_span_ids + self.T + rel_type_id


def build_layout(L: int, schema: Schema, K: int) -> VocabLayout:
    if L < 1 or K < 1:
        raise ValueError("L and K must be at least 1")
    C = schema.n_entity_types
    R = schema.n_relation_types
    n_spans = L * K * C
    realizable = np.ones(n_spans + R + N_SPECIALS, dtype=bool)
    starts = np.repeat(np.arange(L), K * C)
    widths = np.tile(np.repeat(np.arange(K), C), L)
    realizable[:n_spans] = starts + widths < L
    return VocabLayout(L=L, K=K, C=C, R=R, realizable=realizable)


def symbol_to_id(layout: VocabLayout, sym: Symbol) -> int:
    if isinstance(sym, SpanSym):
        w = sym.end - sym.start
        if not (0 <= sym.start < layout.L):
            raise SymbolOutOfLayout(f"span start {sym.start} not in [0, {layout.L})")
        if not (0 <= w < layout.K):
            raise SymbolOutOfLayout(f"span width {w + 1} not in [1, {layout.K}]")
        if not (0 <= sym.type_id < layout.C):
            raise SymbolOutOfLayout(f"entity type {sym.type_id} not in [0, {layout.C})")
        return (sym.start * layout.K + w) * layout.C + sym.type_id
    if isinstance(sym, SpecialToken):
        return layout.n_span_ids + SPECIAL_ORDER.index(sym)
    if isinstance(sym, RelSym):
        return layout.rel_id(sym.rel_type_id)
    raise SymbolOutOfLayout(f"not a vocabulary symbol: {sym!r}")


# One object per span and per relation type: a decoded sequence, and every
# result that keeps one, holds references instead of fresh instances.  The
# cache holds at most L * K * C spans for the longest L a layout was built for.
_span_sym = functools.cache(SpanSym)
_rel_sym = functools.cache(RelSym)


def id_to_symbol(layout: VocabLayout, idx: int) -> Symbol:
    """The symbol of ``idx``: one shared object per span and per relation type.

    ``idx`` is taken as a Python int (``operator.index``), so a shared symbol
    never carries a numpy integer from one caller to the next.
    """
    idx = operator.index(idx)
    if not (0 <= idx < layout.V):
        raise IdOutOfRange(f"id {idx} not in [0, {layout.V})")
    if idx < layout.n_span_ids:
        start_width, type_id = divmod(idx, layout.C)
        start, w = divmod(start_width, layout.K)
        return _span_sym(start, start + w, type_id)
    idx -= layout.n_span_ids
    if idx < layout.T:
        return SPECIAL_ORDER[idx]
    return _rel_sym(idx - layout.T)
