"""Finite-state control of decoding: legal-symbol masks and state transitions.

The decode alternates through four phases.  NODE emits entity spans until SEP;
after that, each relation triple is built by a HEAD span, a TAIL span, and a
relation type, returning to HEAD.  END is only legal in HEAD.  Spans never
repeat inside the entity section, relation arguments must be previously
declared entities, and the tail must differ from the head.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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


@dataclass(slots=True, eq=False)
class _Declared:
    """The entity spans one state declared, in order, with caches built from them.

    The spans never change: declaring one more builds a new record.  ``index``
    holds the spans for membership; ``ids`` gives their vocabulary ids under
    the last layout asked for; ``head_memo`` keeps the last HEAD-phase mask.
    """

    spans: tuple[SpanSym, ...] = ()
    index: frozenset[SpanSym] = frozenset()
    _layout: VocabLayout | None = None
    _ids: np.ndarray | None = None
    head_memo: tuple | None = None  # (layout, schema, mask)

    def extended(self, span: SpanSym) -> _Declared:
        """This record plus ``span``, keeping the ids already computed."""
        return _Declared(self.spans + (span,), self.index | {span}, self._layout, self._ids)

    def ids(self, layout: VocabLayout) -> np.ndarray:
        """Vocabulary ids of the spans under ``layout``.

        Ids are kept for one layout at a time; ``symbol_to_id`` computes each
        one, and raises ``SymbolOutOfLayout`` for a span outside the layout.
        """
        if self._layout is not layout:
            self._layout, self._ids = layout, np.empty(0, dtype=np.int64)
        n = len(self._ids)
        if n < len(self.spans):
            new = [symbol_to_id(layout, s) for s in self.spans[n:]]
            self._ids = np.concatenate((self._ids, new))
        return self._ids


# not slots=True: on Python 3.11 a frozen slotted dataclass raises TypeError,
# not AttributeError, when a name that is not a field (``generated``) is set
@dataclass(frozen=True, eq=False, repr=False)
class DecodeState:
    """What the grammar knows after a prefix: phase, declared entities, pending triple.

    States are values: ``advance`` returns a new state and leaves its
    argument as it was, and no attribute can be set.
    """

    phase: Phase = Phase.NODE
    _declared: _Declared = field(default_factory=_Declared)
    pending_head: SpanSym | None = None
    pending_tail: SpanSym | None = None
    finished: bool = False

    @property
    def generated(self) -> tuple[SpanSym, ...]:
        """The declared entity spans, in the order they were emitted."""
        return self._declared.spans

    def __repr__(self) -> str:
        return (f"DecodeState(phase={self.phase!r}, generated={self.generated!r}, "
                f"pending_head={self.pending_head!r}, pending_tail={self.pending_tail!r}, "
                f"finished={self.finished!r})")


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
    declared = state._declared
    if state.phase is Phase.HEAD:
        # SEP fixes the entities, so every HEAD step of a sequence has one mask
        memo = declared.head_memo
        if memo is None or memo[0] is not layout or memo[1] is not schema:
            memo = declared.head_memo = (layout, schema, _head_mask(declared, layout, schema))
        return memo[2].copy()
    ids = declared.ids(layout)
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


def _head_mask(declared: _Declared, layout: VocabLayout, schema: Schema) -> np.ndarray:
    """END plus every declared entity that some other declared entity can follow as tail.

    A head of type a is viable when the entities of the types b that a
    relation allows after a (``pairs[a, b]``), less the head itself when
    b == a, number at least one.
    """
    ids = declared.ids(layout)
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
    declared = state._declared
    if state.phase is Phase.NODE:
        if sym is SEP:
            return DecodeState(Phase.HEAD, declared)
        if isinstance(sym, SpanSym):
            if sym in declared.index:
                raise IllegalTransition(f"span {sym} already generated")
            return DecodeState(Phase.NODE, declared.extended(sym))
        raise IllegalTransition(f"{sym} not legal in NODE")
    if state.phase is Phase.HEAD:
        if sym is END:
            return DecodeState(Phase.HEAD, declared, finished=True)
        if isinstance(sym, SpanSym):
            if sym not in declared.index:
                raise IllegalTransition(f"head {sym} was not declared as an entity")
            if len(declared.spans) < 2:
                raise IllegalTransition("a relation needs at least two entities")
            return DecodeState(Phase.TAIL, declared, sym)
        raise IllegalTransition(f"{sym} not legal in HEAD")
    if state.phase is Phase.TAIL:
        if isinstance(sym, SpanSym):
            if sym not in declared.index:
                raise IllegalTransition(f"tail {sym} was not declared as an entity")
            if sym == state.pending_head:
                raise IllegalTransition("tail must differ from head")
            return DecodeState(Phase.REL, declared, state.pending_head, sym)
        raise IllegalTransition(f"{sym} not legal in TAIL")
    # REL
    if isinstance(sym, RelSym):
        return DecodeState(Phase.HEAD, declared)
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
