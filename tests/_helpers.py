"""Shared builders for tests: random graphs, documents, and small models."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from spangraph.grammar import FinishedState, Phase, replay
from spangraph.graph import Document, EntitySpan, IEGraph, Relation, Schema
from spangraph.linearize import END, SEP
from spangraph.model import Model, ModelConfig, WordVocab
from spangraph.vocab import symbol_to_id

_WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
          "iota", "kappa", "lam", "mu", "nu", "xi", "omicron", "pi")


def make_doc(n_tokens: int, doc_id: str = "d0") -> Document:
    toks = tuple(_WORDS[i % len(_WORDS)] for i in range(n_tokens))
    return Document(tokens=toks, id=doc_id)


def make_schema(n_ent: int, n_rel: int, allowed_pairs=None) -> Schema:
    return Schema(
        entity_types=tuple(f"ent{i}" for i in range(n_ent)),
        relation_types=tuple(f"rel{i}" for i in range(n_rel)),
        allowed_pairs=allowed_pairs,
    )


@st.composite
def schemas(draw) -> Schema:
    """Hypothesis schemas: 1-3 entity and relation types, allowed pairs drawn or absent."""
    n_ent, n_rel = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = None
    if draw(st.booleans()):
        rels = st.frozensets(st.integers(0, n_rel - 1), min_size=1)
        pairs = draw(st.dictionaries(st.tuples(st.integers(0, n_ent - 1),
                                               st.integers(0, n_ent - 1)), rels))
    return make_schema(n_ent, n_rel, allowed_pairs=pairs)


def random_graph(rng: np.random.Generator, L: int, K: int, C: int, R: int,
                 max_entities: int = 5, max_relations: int = 4) -> IEGraph:
    """Draw a structurally valid graph: distinct spans, in-range widths, no self loops."""
    all_spans = [(s, e) for s in range(L) for e in range(s, min(s + K, L))]
    n_ent = int(rng.integers(0, max_entities + 1))
    n_ent = min(n_ent, len(all_spans))
    picks = rng.choice(len(all_spans), size=n_ent, replace=False)
    entities = tuple(
        EntitySpan(all_spans[int(i)][0], all_spans[int(i)][1], int(rng.integers(0, C)))
        for i in picks
    )
    relations: list[Relation] = []
    if R > 0 and n_ent >= 2:
        n_rel = int(rng.integers(0, max_relations + 1))
        seen = set()
        for _ in range(n_rel):
            h = int(rng.integers(0, n_ent))
            t = int(rng.integers(0, n_ent))
            if h == t:
                continue
            r = int(rng.integers(0, R))
            if (h, t, r) in seen:
                continue
            seen.add((h, t, r))
            relations.append(Relation(h, t, r))
    return IEGraph(entities=entities, relations=tuple(relations))


def tiny_model(schema: Schema, words=("a", "b", "c"), d_model: int = 16,
               enc_layers: int = 1, dec_layers: int = 1, heads: int = 2,
               max_span_width: int = 3, seed: int = 0, dtype: str = "float64",
               **kw) -> Model:
    vocab = WordVocab(("<unk>",) + tuple(words))
    config = ModelConfig(
        d_model=d_model, enc_layers=enc_layers, dec_layers=dec_layers,
        heads=heads, max_span_width=max_span_width, dtype=dtype,
        max_positions=kw.pop("max_positions", 128), **kw,
    )
    return Model(config, schema, vocab, rng=np.random.default_rng(seed))


def reference_legal_mask(state, layout, schema) -> np.ndarray:
    """``grammar.legal_mask`` as a scan over the declared entities: the oracle.

    A head is viable when some other declared entity can be its tail, found
    by trying every pair; tails are the declared entities an allowed
    relation reaches from the head.
    """
    if state.finished:
        raise FinishedState("decoding already emitted END")

    def related(head, tail):
        return tail != head and schema.allowed_relations(head.type_id, tail.type_id)

    mask = np.zeros(layout.V, dtype=bool)
    if state.phase is Phase.NODE:
        mask[: layout.n_span_ids] = layout.realizable[: layout.n_span_ids]
        for sym in state.generated:
            mask[symbol_to_id(layout, sym)] = False
        mask[layout.sep_id] = True
    elif state.phase is Phase.HEAD:
        for head in state.generated:
            if any(related(head, tail) for tail in state.generated):
                mask[symbol_to_id(layout, head)] = True
        mask[layout.end_id] = True
    elif state.phase is Phase.TAIL:
        for tail in state.generated:
            if related(state.pending_head, tail):
                mask[symbol_to_id(layout, tail)] = True
    else:  # REL
        for r in schema.allowed_relations(state.pending_head.type_id,
                                          state.pending_tail.type_id):
            mask[layout.rel_id(r)] = True
    return mask


def reference_close_sequence(symbols):
    """Trim a cut-off generation by replaying it after every pop: the oracle.

    Pops symbols until the grammar is back in NODE or HEAD, then appends SEP
    (if entities were still being listed) and END.
    """
    out = list(symbols)
    while True:
        _, final = replay(out)
        if final.phase in (Phase.NODE, Phase.HEAD):
            break
        out.pop()
    if final.phase is Phase.NODE:
        out.append(SEP)
    out.append(END)
    return out


def reference_mean_last(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=-1, keepdims=True)`` as numpy computes it: the oracle.

    The sum is divided by the count as an intp, so the quotient is taken in
    float64 and rounded back to the array's dtype.
    """
    total = np.add.reduce(a, axis=-1, keepdims=True)
    return np.true_divide(total, np.intp(a.shape[-1]), out=total, casting="unsafe")
