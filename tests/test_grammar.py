import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangraph import grammar
from spangraph.grammar import (
    DecodeState,
    EnumerationBudgetExceeded,
    FinishedState,
    IllegalTransition,
    Phase,
    advance,
    enumerate_valid_sequences,
    initial_state,
    legal_mask,
    replay,
    structural_labels,
)
from spangraph.graph import Schema
from spangraph.linearize import END, SEP, START, RelSym, SpanSym, delinearize, linearize
from spangraph.vocab import build_layout, id_to_symbol, symbol_to_id
from _helpers import make_schema, reference_legal_mask

WORKED_SEQ = (
    START,
    SpanSym(0, 1, 0), SpanSym(4, 5, 1), SpanSym(7, 7, 2),
    SEP,
    SpanSym(0, 1, 0), SpanSym(4, 5, 1), RelSym(0),
    SpanSym(4, 5, 1), SpanSym(7, 7, 2), RelSym(1),
    END,
)


def legal_symbols(state, layout, schema):
    mask = legal_mask(state, layout, schema)
    return {id_to_symbol(layout, int(i)) for i in np.flatnonzero(mask)}


class TestMasks:
    def test_initial_mask(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 2)
        syms = legal_symbols(initial_state(), layout, schema)
        assert SEP in syms
        assert END not in syms
        assert START not in syms
        assert RelSym(0) not in syms
        spans = {s for s in syms if isinstance(s, SpanSym)}
        assert spans == {SpanSym(s, e, 0) for s in range(3) for e in (s, s + 1) if e < 3}

    def test_mask_dtype_and_shape(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 2)
        mask = legal_mask(initial_state(), layout, schema)
        assert mask.dtype == np.bool_
        assert mask.shape == (layout.V,)

    def test_overhanging_span_masked(self):
        schema = make_schema(1, 0)
        layout = build_layout(2, schema, 2)
        mask = legal_mask(initial_state(), layout, schema)
        idx = symbol_to_id(layout, SpanSym(1, 2, 0))
        assert not mask[idx]

    def test_no_span_repetition_in_node_phase(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 2)
        state = advance(initial_state(), SpanSym(0, 0, 0))
        syms = legal_symbols(state, layout, schema)
        assert SpanSym(0, 0, 0) not in syms
        assert SpanSym(1, 1, 0) in syms
        assert SEP in syms

    def test_single_entity_head_phase_offers_only_end(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 2)
        state = advance(advance(initial_state(), SpanSym(0, 0, 0)), SEP)
        assert state.phase is Phase.HEAD
        assert legal_symbols(state, layout, schema) == {END}

    def test_two_entities_allow_triples(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 2)
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP):
            s = advance(s, sym)
        syms = legal_symbols(s, layout, schema)
        assert syms == {END, SpanSym(0, 0, 0), SpanSym(1, 1, 0)}

    def test_tail_excludes_head(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 2)
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP, SpanSym(0, 0, 0)):
            s = advance(s, sym)
        assert s.phase is Phase.TAIL
        assert legal_symbols(s, layout, schema) == {SpanSym(1, 1, 0)}

    def test_rel_phase_offers_relations_only(self):
        schema = make_schema(1, 2)
        layout = build_layout(3, schema, 2)
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP,
                    SpanSym(0, 0, 0), SpanSym(1, 1, 0)):
            s = advance(s, sym)
        assert s.phase is Phase.REL
        assert legal_symbols(s, layout, schema) == {RelSym(0), RelSym(1)}

    def test_allowed_pairs_filters_relations(self):
        schema = make_schema(2, 2, allowed_pairs={(0, 1): frozenset({1})})
        layout = build_layout(3, schema, 2)
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 1), SEP,
                    SpanSym(0, 0, 0), SpanSym(1, 1, 1)):
            s = advance(s, sym)
        assert legal_symbols(s, layout, schema) == {RelSym(1)}

    def test_allowed_pairs_propagate_to_head_and_tail(self):
        # identical types never compatible, so no head is viable
        schema = make_schema(2, 1, allowed_pairs={(0, 1): frozenset({0})})
        layout = build_layout(4, schema, 1)
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP):
            s = advance(s, sym)
        assert legal_symbols(s, layout, schema) == {END}
        # a type 0 + type 1 pair makes type-0 spans viable heads, type-1 viable tails
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 1), SEP):
            s = advance(s, sym)
        assert legal_symbols(s, layout, schema) == {END, SpanSym(0, 0, 0)}
        s = advance(s, SpanSym(0, 0, 0))
        assert legal_symbols(s, layout, schema) == {SpanSym(1, 1, 1)}

    def test_zero_relation_types_head_offers_only_end(self):
        schema = make_schema(1, 0)
        layout = build_layout(3, schema, 2)
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP):
            s = advance(s, sym)
        assert legal_symbols(s, layout, schema) == {END}

    def test_duplicate_triples_not_forbidden(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 2)
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP,
                    SpanSym(0, 0, 0), SpanSym(1, 1, 0), RelSym(0)):
            s = advance(s, sym)
        assert SpanSym(0, 0, 0) in legal_symbols(s, layout, schema)
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), RelSym(0)):
            s = advance(s, sym)
        assert not s.finished

    def test_finished_state_raises(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 2)
        s = advance(advance(initial_state(), SEP), END)
        assert s.finished
        with pytest.raises(FinishedState):
            legal_mask(s, layout, schema)


class TestAdvance:
    def test_start_is_input_only(self):
        with pytest.raises(IllegalTransition):
            advance(initial_state(), START)

    def test_repeat_span_rejected(self):
        s = advance(initial_state(), SpanSym(0, 0, 0))
        with pytest.raises(IllegalTransition):
            advance(s, SpanSym(0, 0, 0))

    def test_undeclared_head_rejected(self):
        s = advance(advance(initial_state(), SpanSym(0, 0, 0)), SEP)
        with pytest.raises(IllegalTransition):
            advance(s, SpanSym(1, 1, 0))

    def test_head_with_single_entity_rejected(self):
        s = advance(advance(initial_state(), SpanSym(0, 0, 0)), SEP)
        with pytest.raises(IllegalTransition):
            advance(s, SpanSym(0, 0, 0))

    def test_tail_equal_to_head_rejected(self):
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP, SpanSym(0, 0, 0)):
            s = advance(s, sym)
        with pytest.raises(IllegalTransition):
            advance(s, SpanSym(0, 0, 0))

    def test_relation_in_node_phase_rejected(self):
        with pytest.raises(IllegalTransition):
            advance(initial_state(), RelSym(0))

    def test_end_outside_head_phase_rejected(self):
        with pytest.raises(IllegalTransition):
            advance(initial_state(), END)
        s = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP, SpanSym(0, 0, 0)):
            s = advance(s, sym)
        with pytest.raises(IllegalTransition):
            advance(s, END)

    def test_advance_after_finish_rejected(self):
        s = advance(advance(initial_state(), SEP), END)
        with pytest.raises(FinishedState):
            advance(s, SEP)


class TestStateRecord:
    def test_each_entity_id_is_computed_once_along_a_node_walk(self, monkeypatch):
        schema = make_schema(2, 2)
        layout = build_layout(100, schema, 3)
        calls = []

        def counting(layout, sym):
            calls.append(sym)
            return symbol_to_id(layout, sym)

        monkeypatch.setattr(grammar, "symbol_to_id", counting)
        state = initial_state()
        spans = [SpanSym(i, i, i % 2) for i in range(54)]
        for span in spans:
            mask = legal_mask(state, layout, schema)
            assert mask[symbol_to_id(layout, span)]
            state = advance(state, span)
        mask = legal_mask(state, layout, schema)
        assert not mask[[symbol_to_id(layout, s) for s in spans]].any()
        assert calls == spans

    def test_no_attribute_can_be_set(self):
        state = initial_state()
        for sym in (SpanSym(0, 0, 0), SpanSym(1, 1, 0), SEP, SpanSym(0, 0, 0)):
            state = advance(state, sym)
        for name in ("phase", "generated", "pending_head", "pending_tail", "finished",
                     "_declared", "unknown"):
            with pytest.raises(AttributeError):
                setattr(state, name, None)
        assert state.phase is Phase.TAIL
        assert state.generated == (SpanSym(0, 0, 0), SpanSym(1, 1, 0))
        assert state.pending_head == SpanSym(0, 0, 0)
        assert repr(state).startswith(
            "DecodeState(phase=<Phase.TAIL: 2>, generated=(SpanSym(")
        assert DecodeState().phase is Phase.NODE and DecodeState().generated == ()


class TestReplay:
    def test_worked_sequence(self):
        states, final = replay(WORKED_SEQ)
        assert len(states) == len(WORKED_SEQ)
        assert final.finished
        assert len(final.generated) == 3

    def test_structural_labels_worked(self):
        labels = structural_labels(WORKED_SEQ)
        assert [int(p) for p in labels] == [0, 0, 0, 0, 0, 1, 2, 3, 1, 2, 3, 1]

    def test_minimal_sequence_labels(self):
        assert [int(p) for p in structural_labels((START, SEP, END))] == [0, 0, 1]

    def test_replay_rejects_illegal(self):
        with pytest.raises(IllegalTransition):
            replay((START, RelSym(0), SEP, END))


class TestEnumerate:
    def test_tiny_grammar_exact_sequences(self):
        schema = make_schema(1, 1)
        layout = build_layout(2, schema, 1)
        seqs = enumerate_valid_sequences(layout, schema, max_len=4)
        got = {s.symbols for s in seqs}
        assert got == {
            (START, SEP, END),
            (START, SpanSym(0, 0, 0), SEP, END),
            (START, SpanSym(1, 1, 0), SEP, END),
        }

    def test_max_len_two_is_empty(self):
        schema = make_schema(1, 1)
        layout = build_layout(2, schema, 1)
        assert enumerate_valid_sequences(layout, schema, max_len=2) == []

    def test_enumerated_sequences_all_delinearize(self):
        schema = make_schema(1, 1)
        layout = build_layout(3, schema, 2)
        seqs = enumerate_valid_sequences(layout, schema, max_len=9)
        assert len(seqs) > 3
        for s in seqs:
            g = delinearize(s, strict=True)
            assert linearize(g) is not None

    def test_budget(self):
        schema = make_schema(2, 2)
        layout = build_layout(6, schema, 3)
        with pytest.raises(EnumerationBudgetExceeded):
            enumerate_valid_sequences(layout, schema, max_len=40, budget=100)


class TestRandomRollouts:
    def test_masked_walk_always_terminates_and_delinearizes(self, rng):
        schema = make_schema(2, 2, allowed_pairs={(0, 1): frozenset({0, 1}), (1, 0): frozenset({1})})
        layout = build_layout(5, schema, 3)
        for _ in range(50):
            state = initial_state()
            symbols = []
            for _step in range(600):
                mask = legal_mask(state, layout, schema)
                legal = np.flatnonzero(mask)
                assert legal.size > 0
                pick = int(legal[rng.integers(0, legal.size)])
                sym = id_to_symbol(layout, pick)
                symbols.append(sym)
                state = advance(state, sym)
                if state.finished:
                    break
            else:
                pytest.fail("rollout did not finish in 600 steps")
            g = delinearize((START, *symbols), strict=True)
            # every relation respects the pair table
            for r in g.relations:
                ht = g.entities[r.head].type_id
                tt = g.entities[r.tail].type_id
                assert r.rel_type_id in schema.allowed_relations(ht, tt)


# allowed-pairs settings the masks are checked under against the scan oracle:
# no table, a table that rules pairs out, and one that allows same-type pairs
# (a head then needs a second entity of its own type)
ORACLE_SCHEMAS = {
    "unrestricted": make_schema(2, 2),
    "restricting": make_schema(2, 2, allowed_pairs={(0, 1): frozenset({0, 1}),
                                                    (1, 0): frozenset({1})}),
    "same_type": make_schema(2, 2, allowed_pairs={(0, 0): frozenset({0}),
                                                  (1, 0): frozenset({1})}),
}


class TestMaskOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEMAS))
    def test_equals_scan_on_every_enumerated_state(self, name, monkeypatch):
        schema = ORACLE_SCHEMAS[name]
        layout = build_layout(2, schema, 2)
        masks, steps = [], []

        def recording_mask(state, layout, schema):
            mask = legal_mask(state, layout, schema)
            masks.append((state, mask))
            return mask

        def recording_advance(state, sym):
            nxt = advance(state, sym)
            steps.append((state, sym, nxt))
            return nxt

        monkeypatch.setattr(grammar, "legal_mask", recording_mask)
        monkeypatch.setattr(grammar, "advance", recording_advance)
        assert enumerate_valid_sequences(layout, schema, max_len=9)
        assert {s.phase for s, _ in masks} == set(Phase)
        # checked once the search has branched past every state: sibling
        # states share declared-entity records, and none may see another's
        assert masks[0][0].generated == ()
        for before, sym, after in steps:
            grown = (sym,) if before.phase is Phase.NODE and isinstance(sym, SpanSym) else ()
            assert after.generated == before.generated + grown
        for state, mask in masks:
            np.testing.assert_array_equal(mask, reference_legal_mask(state, layout, schema))
            np.testing.assert_array_equal(legal_mask(state, layout, schema), mask)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(sorted(ORACLE_SCHEMAS)),
           n_entities=st.integers(47, 60))
    def test_equals_scan_on_long_random_walks(self, seed, name, n_entities):
        schema = ORACLE_SCHEMAS[name]
        layout = build_layout(100, schema, 3)
        rng = np.random.default_rng(seed)
        state = initial_state()
        seen = set()
        for _ in range(n_entities + 1 + 3 * 30):
            seen.add(state.phase)
            mask = legal_mask(state, layout, schema)
            np.testing.assert_array_equal(mask, reference_legal_mask(state, layout, schema))
            legal = np.flatnonzero(mask)
            if state.phase is Phase.NODE and len(state.generated) == n_entities:
                pick = layout.sep_id
            elif state.phase is Phase.NODE or state.phase is Phase.HEAD:
                spans = legal[legal < layout.n_span_ids]  # not SEP or END yet
                if spans.size == 0:
                    break
                pick = int(rng.choice(spans))
            else:
                pick = int(rng.choice(legal))
            state = advance(state, id_to_symbol(layout, pick))
        assert len(state.generated) == n_entities
        assert seen == set(Phase)

    def test_head_mask_asks_the_schema_at_most_once_per_type_pair(self, monkeypatch):
        schema = make_schema(3, 2, allowed_pairs={(0, 1): frozenset({0}),
                                                  (2, 2): frozenset({1})})
        layout = build_layout(100, schema, 3)
        state = initial_state()
        for i in range(47):
            state = advance(state, SpanSym(i, i, i % 3))
        state = advance(state, SEP)
        calls = []
        allowed_relations = Schema.allowed_relations

        def counting(self, head_type, tail_type):
            calls.append((head_type, tail_type))
            return allowed_relations(self, head_type, tail_type)

        monkeypatch.setattr(Schema, "allowed_relations", counting)
        mask = legal_mask(state, layout, schema)
        assert len(calls) <= 3 ** 2
        np.testing.assert_array_equal(mask, reference_legal_mask(state, layout, schema))
