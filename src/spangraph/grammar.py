"""Finite-state control of decoding: legal-symbol masks and state transitions.

The decode alternates through four phases.  NODE emits entity spans until SEP;
after that, each relation triple is built by a HEAD span, a TAIL span, and a
relation type, returning to HEAD.  END is only legal in HEAD.  Spans never
repeat inside the entity section, relation arguments must be previously
declared entities, and the tail must differ from the head.
"""

from __future__ import annotations

import enum

import numpy as np

from .graph import Schema
from .linearize import (
    END,
    SEP,
    START,
    GraphSequence,
    Ordering,
    RelSym,
    SpanSym,
    SpecialToken,
    Symbol,
)
from .vocab import VocabLayout, id_to_symbol, symbol_to_id


class FinishedState(RuntimeError):
    pass


class IllegalTransition(ValueError):
    pass


class EnumerationBudgetExceeded(RuntimeError):
    pass


class Phase(enum.IntEnum):
    NODE = 0
    HEAD = 1
    TAIL = 2
    REL = 3


class _Declared:
    """The entity spans a decoding path declared, in order, shared by its states.

    A state sees the first ``n`` entries, and an entry never changes, so
    states of different lengths can share one record.  ``index`` maps each
    span to its position, for membership; ``ids`` holds each span's
    vocabulary id under the last layout asked for, computed once per span;
    ``head_memo`` keeps the last HEAD-phase mask built from the record.
    ``extended`` appends in place when the state sees every entry, so a
    decoding path pays O(1) amortized per entity; it copies the first ``n``
    entries first when a sibling state has already appended past them.
    """

    __slots__ = ("spans", "index", "head_memo", "_layout", "_ids", "_n_ids")

    def __init__(self, spans=()):
        self.spans: list[SpanSym] = []
        self.index: dict[SpanSym, int] = {}
        self.head_memo: tuple | None = None  # (layout, schema, n, mask)
        self._layout: VocabLayout | None = None
        self._ids = np.empty(8, dtype=np.int64)
        self._n_ids = 0
        for span in spans:
            self._append(span)

    def _append(self, span: SpanSym) -> None:
        self.index[span] = len(self.spans)
        self.spans.append(span)

    def holds(self, span: SpanSym, n: int) -> bool:
        """Whether ``span`` is among the first ``n`` entries."""
        i = self.index.get(span)
        return i is not None and i < n

    def extended(self, n: int, span: SpanSym) -> _Declared:
        """A record of the first ``n`` entries plus ``span``."""
        rec = self if len(self.spans) == n else _Declared(self.spans[:n])
        rec._append(span)
        return rec

    def ids(self, layout: VocabLayout, n: int) -> np.ndarray:
        """Vocabulary ids of the first ``n`` entries under ``layout``.

        Ids are kept for one layout at a time; ``symbol_to_id`` computes each
        one, and raises ``SymbolOutOfLayout`` for a span outside the layout.
        """
        if self._layout is not layout:
            self._layout, self._n_ids = layout, 0
        if self._n_ids < n:
            if len(self._ids) < n:
                grown = np.empty(max(n, 2 * len(self._ids)), dtype=np.int64)
                grown[: self._n_ids] = self._ids[: self._n_ids]
                self._ids = grown
            self._ids[self._n_ids:n] = [symbol_to_id(layout, s) for s in self.spans[self._n_ids:n]]
            self._n_ids = n
        return self._ids[:n]


class DecodeState:
    """What the grammar knows after a prefix: phase, declared entities, pending triple.

    States are values: ``advance`` returns a new state and leaves its
    argument as it was, and no attribute can be set.  States along one
    decoding path share their record of declared entities, so making one
    costs O(1) however many entities there are.
    """

    __slots__ = ("phase", "pending_head", "pending_tail", "finished", "_declared", "_n")

    def __init__(self, phase: Phase = Phase.NODE, generated: tuple[SpanSym, ...] = (),
                 pending_head: SpanSym | None = None, pending_tail: SpanSym | None = None,
                 finished: bool = False):
        _fill(self, phase, _Declared(generated), len(generated), pending_head, pending_tail,
              finished)

    @property
    def generated(self) -> tuple[SpanSym, ...]:
        """The declared entity spans, in the order they were emitted."""
        return tuple(self._declared.spans[: self._n])

    def __setattr__(self, name, value):
        raise AttributeError(f"DecodeState is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return (f"DecodeState(phase={self.phase!r}, generated={self.generated!r}, "
                f"pending_head={self.pending_head!r}, pending_tail={self.pending_tail!r}, "
                f"finished={self.finished!r})")


_setattr = object.__setattr__


def _fill(state: DecodeState, phase: Phase, declared: _Declared, n: int,
          head: SpanSym | None, tail: SpanSym | None, finished: bool) -> DecodeState:
    _setattr(state, "phase", phase)
    _setattr(state, "pending_head", head)
    _setattr(state, "pending_tail", tail)
    _setattr(state, "finished", finished)
    _setattr(state, "_declared", declared)
    _setattr(state, "_n", n)
    return state


def _state(phase: Phase, declared: _Declared, n: int, head: SpanSym | None = None,
           tail: SpanSym | None = None, finished: bool = False) -> DecodeState:
    return _fill(object.__new__(DecodeState), phase, declared, n, head, tail, finished)


def initial_state() -> DecodeState:
    return DecodeState()


def legal_mask(state: DecodeState, layout: VocabLayout, schema: Schema) -> np.ndarray:
    """Boolean legality vector over the vocabulary for the next symbol.

    Non-realizable span ids and START are never legal.  When the schema carries
    an allowed-pairs table, head and tail candidates are filtered so a triple
    can always be completed: the mask is never all-false in a reachable state.
    Each phase takes a few whole-array operations on the declared spans' ids
    and ``schema.relation_table``, with no loop over the entities; the HEAD
    mask is built once per sequence and copied after that.
    """
    if state.finished:
        raise FinishedState("decoding already emitted END")
    if state.phase is Phase.REL:
        mask = np.zeros(layout.V, dtype=bool)
        rels = schema.relation_table[state.pending_head.type_id, state.pending_tail.type_id]
        mask[layout.n_span_ids + layout.T:] = rels
        return mask
    declared, n = state._declared, state._n
    if state.phase is Phase.HEAD:
        # SEP fixes the entities, so every HEAD step of a sequence has one mask
        memo = declared.head_memo
        if memo is None or memo[0] is not layout or memo[1] is not schema or memo[2] != n:
            memo = declared.head_memo = (layout, schema, n, _head_mask(declared, n, layout, schema))
        return memo[3].copy()
    ids = declared.ids(layout, n)
    mask = np.zeros(layout.V, dtype=bool)
    if state.phase is Phase.NODE:
        mask[: layout.n_span_ids] = layout.realizable[: layout.n_span_ids]
        mask[ids] = False
        mask[layout.sep_id] = True
    else:  # TAIL
        head = state.pending_head
        pairs = schema.relation_table.any(axis=2)
        mask[ids[pairs[head.type_id][ids % layout.C]]] = True
        mask[symbol_to_id(layout, head)] = False
    return mask


def _head_mask(declared: _Declared, n: int, layout: VocabLayout, schema: Schema) -> np.ndarray:
    """END plus every declared entity that some other declared entity can follow as tail.

    A head of type a is viable when the entities of the types b that a
    relation allows after a (``pairs[a, b]``), less the head itself when
    b == a, number at least one.
    """
    ids = declared.ids(layout, n)
    types = ids % layout.C
    pairs = schema.relation_table.any(axis=2)  # (C, C): some relation goes from type a to b
    viable = pairs @ np.bincount(types, minlength=layout.C) > pairs.diagonal()
    mask = np.zeros(layout.V, dtype=bool)
    mask[ids[viable[types]]] = True
    mask[layout.end_id] = True
    return mask


def advance(state: DecodeState, sym: Symbol) -> DecodeState:
    """Consume one symbol and return the successor state.

    Enforces the structural constraints expressible from the state alone (the
    phase/symbol pairing, span repetition, argument membership, tail != head);
    realizability and allowed-pairs filtering live in ``legal_mask``.
    """
    if state.finished:
        raise FinishedState("decoding already emitted END")
    if sym is START:
        raise IllegalTransition("START is input-only")
    declared, n = state._declared, state._n
    if state.phase is Phase.NODE:
        if sym is SEP:
            return _state(Phase.HEAD, declared, n)
        if isinstance(sym, SpanSym):
            if declared.holds(sym, n):
                raise IllegalTransition(f"span {sym} already generated")
            return _state(Phase.NODE, declared.extended(n, sym), n + 1)
        raise IllegalTransition(f"{sym} not legal in NODE")
    if state.phase is Phase.HEAD:
        if sym is END:
            return _state(Phase.HEAD, declared, n, finished=True)
        if isinstance(sym, SpanSym):
            if not declared.holds(sym, n):
                raise IllegalTransition(f"head {sym} was not declared as an entity")
            if n < 2:
                raise IllegalTransition("a relation needs at least two entities")
            return _state(Phase.TAIL, declared, n, head=sym)
        raise IllegalTransition(f"{sym} not legal in HEAD")
    if state.phase is Phase.TAIL:
        if isinstance(sym, SpanSym):
            if not declared.holds(sym, n):
                raise IllegalTransition(f"tail {sym} was not declared as an entity")
            if sym == state.pending_head:
                raise IllegalTransition("tail must differ from head")
            return _state(Phase.REL, declared, n, state.pending_head, sym)
        raise IllegalTransition(f"{sym} not legal in TAIL")
    # REL
    if isinstance(sym, RelSym):
        return _state(Phase.HEAD, declared, n)
    raise IllegalTransition(f"{sym} not legal in REL")


def replay(symbols: tuple[Symbol, ...] | GraphSequence) -> tuple[list[DecodeState], DecodeState]:
    """Run the FSM over a full sequence starting with START.

    Returns the state *before* each symbol (aligned with the sequence; START is
    paired with the initial state) plus the final state.  Raises
    IllegalTransition if the sequence is not FSM-replayable.
    """
    syms = symbols.symbols if isinstance(symbols, GraphSequence) else tuple(symbols)
    if not syms or syms[0] is not START:
        raise IllegalTransition("replay expects a sequence starting with START")
    states = [initial_state()]
    state = states[0]
    for sym in syms[1:]:
        states.append(state)
        state = advance(state, sym)
    return states, state


def structural_labels(symbols: tuple[Symbol, ...] | GraphSequence) -> list[Phase]:
    """Phase each symbol was selected in; START carries the initial NODE phase."""
    states, _ = replay(symbols)
    return [s.phase for s in states]


def enumerate_valid_sequences(
    layout: VocabLayout,
    schema: Schema,
    max_len: int,
    budget: int = 1_000_000,
) -> list[GraphSequence]:
    """Exhaustive DFS over legal transitions; every result is grammar-valid.

    ``max_len`` bounds the total sequence length including START and END.
    Intended as a test oracle on small layouts; raises once ``budget`` states
    have been expanded.
    """
    results: list[GraphSequence] = []
    expanded = 0

    def dfs(state: DecodeState, prefix: list[Symbol]) -> None:
        nonlocal expanded
        if len(prefix) >= max_len:
            return
        expanded += 1
        if expanded > budget:
            raise EnumerationBudgetExceeded(f"expanded more than {budget} states")
        mask = legal_mask(state, layout, schema)
        for idx in np.flatnonzero(mask):
            sym = id_to_symbol(layout, int(idx))
            nxt = advance(state, sym)
            prefix.append(sym)
            if nxt.finished:
                results.append(GraphSequence(tuple(prefix), Ordering.SORTED))
            else:
                dfs(nxt, prefix)
            prefix.pop()

    dfs(initial_state(), [START])
    return results
