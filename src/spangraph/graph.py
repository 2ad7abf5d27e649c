"""Documents, typed entity spans, directed relations, and IE graphs."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GraphError(ValueError):
    """A graph or document violates a structural invariant."""


class OutOfRangeSpan(GraphError):
    pass


class SpanTooWide(GraphError):
    pass


class DuplicateEntity(GraphError):
    pass


class DuplicateRelation(GraphError):
    pass


class DanglingRelationIndex(GraphError):
    pass


class SelfRelation(GraphError):
    pass


@dataclass(frozen=True)
class Document:
    """A whitespace-tokenized input text."""

    tokens: tuple[str, ...]
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(self.tokens) == 0:
            raise GraphError("document must contain at least one token")
        if any(not isinstance(t, str) or not t for t in self.tokens):
            raise GraphError("document tokens must be non-empty strings")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True, order=True)
class EntitySpan:
    """Typed span with inclusive word indices: (start, end) both point at words."""

    start: int
    end: int
    type_id: int

    @property
    def width(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True, order=True)
class Relation:
    """Directed edge between entities, by index into the owning graph's entity list."""

    head: int
    tail: int
    rel_type_id: int


@dataclass(frozen=True)
class IEGraph:
    """A set of typed entity spans plus a set of typed directed relations."""

    entities: tuple[EntitySpan, ...] = ()
    relations: tuple[Relation, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entities", tuple(self.entities))
        object.__setattr__(self, "relations", tuple(self.relations))


@dataclass(frozen=True)
class Schema:
    """Entity/relation type inventories, plus an optional relation-pair constraint table.

    ``allowed_pairs`` maps (head_type_id, tail_type_id) to the set of relation
    type ids permitted between entities of those types.  When the table is
    present it is total: a pair missing from it admits no relation at all.
    ``None`` disables the constraint entirely.
    """

    entity_types: tuple[str, ...]
    relation_types: tuple[str, ...] = ()
    allowed_pairs: dict[tuple[int, int], frozenset[int]] | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "entity_types", tuple(self.entity_types))
        object.__setattr__(self, "relation_types", tuple(self.relation_types))
        if len(self.entity_types) < 1:
            raise GraphError("schema needs at least one entity type")
        if len(set(self.entity_types)) != len(self.entity_types):
            raise GraphError("duplicate entity type names")
        if len(set(self.relation_types)) != len(self.relation_types):
            raise GraphError("duplicate relation type names")
        if self.allowed_pairs is not None:
            pairs = {}
            for (h, t), rels in self.allowed_pairs.items():
                if not (0 <= h < self.n_entity_types and 0 <= t < self.n_entity_types):
                    raise GraphError(f"allowed_pairs key ({h}, {t}) out of range")
                rels = frozenset(rels)
                if any(not (0 <= r < self.n_relation_types) for r in rels):
                    raise GraphError(f"allowed_pairs value for ({h}, {t}) out of range")
                pairs[(h, t)] = rels
            object.__setattr__(self, "allowed_pairs", pairs)

    @property
    def n_entity_types(self) -> int:
        return len(self.entity_types)

    @property
    def n_relation_types(self) -> int:
        return len(self.relation_types)

    def entity_type_id(self, name: str) -> int:
        return self.entity_types.index(name)

    def relation_type_id(self, name: str) -> int:
        return self.relation_types.index(name)

    def allowed_relations(self, head_type: int, tail_type: int) -> frozenset[int]:
        """Relation type ids permitted from ``head_type`` to ``tail_type``."""
        if self.allowed_pairs is None:
            return frozenset(range(self.n_relation_types))
        return self.allowed_pairs.get((head_type, tail_type), frozenset())

    @cached_property
    def relation_table(self) -> np.ndarray:
        """Read-only bool (C, C, R): ``[h, t, r]`` says ``r in allowed_relations(h, t)``.

        Built on first use and kept, so the grammar reads allowed pairs by
        array indexing instead of a call per pair; like the rest of the
        schema, ``allowed_pairs`` must not change after construction.
        """
        C, R = self.n_entity_types, self.n_relation_types
        table = np.zeros((C, C, R), dtype=bool)
        for h in range(C):
            for t in range(C):
                table[h, t, sorted(self.allowed_relations(h, t))] = True
        table.setflags(write=False)
        return table

    def to_json(self) -> dict:
        """The schema's one JSON form, as datasets and checkpoints store it.

        Every type is named; ``allowed_pairs`` entries are
        ``[head, tail, [relation, ...]]`` in (head id, tail id) order, with
        the relation names sorted.
        """
        pairs = None
        if self.allowed_pairs is not None:
            pairs = [
                [self.entity_types[h], self.entity_types[t],
                 sorted(self.relation_types[r] for r in rels)]
                for (h, t), rels in sorted(self.allowed_pairs.items())
            ]
        return {
            "entity_types": list(self.entity_types),
            "relation_types": list(self.relation_types),
            "allowed_pairs": pairs,
        }

    @classmethod
    def from_json(cls, obj) -> "Schema":
        """Read ``to_json``'s form, or the id form ``[h, t, [r, ...]]`` of pair entries.

        Older checkpoints store pairs by id; JSON strings versus integers tell
        the two forms apart.  A value of the wrong shape raises ``TypeError``;
        an unknown type name, or an inventory the constructor rejects,
        ``GraphError``.
        """
        if not isinstance(obj, dict):
            raise TypeError(f"schema must be an object, got {obj!r}")
        ents, rels = (obj.get(key) or [] for key in ("entity_types", "relation_types"))
        if not all(isinstance(names, list) and all(isinstance(n, str) for n in names)
                   for names in (ents, rels)):
            raise TypeError("entity_types and relation_types must be lists of names")
        pairs, table = obj.get("allowed_pairs"), None
        if pairs is not None:
            if not isinstance(pairs, list):
                raise TypeError(f"allowed_pairs must be a list or null, got {pairs!r}")
            ent_id, rel_id = ({n: i for i, n in enumerate(names)} for names in (ents, rels))
            table = {}
            for entry in pairs:
                if not (isinstance(entry, list) and len(entry) == 3
                        and isinstance(entry[2], list)):
                    raise TypeError(f"allowed_pairs entry {entry!r} is not [head, tail, [...]]")
                h, t, rs = entry
                if all(isinstance(x, str) for x in (h, t, *rs)):
                    if not ({h, t} <= ent_id.keys() and set(rs) <= rel_id.keys()):
                        raise GraphError(f"allowed_pairs entry {entry!r} names an unknown type")
                    h, t, rs = ent_id[h], ent_id[t], [rel_id[r] for r in rs]
                elif not all(type(x) is int for x in (h, t, *rs)):
                    raise TypeError(f"allowed_pairs entry {entry!r} is not all names or all ids")
                table[(h, t)] = rs
        return cls(ents, rels, table)


def validate_graph(graph: IEGraph, doc: Document, max_width: int) -> IEGraph:
    """Check every structural invariant; return the graph unchanged if all hold.

    Spans must lie inside the document and be at most ``max_width`` words wide;
    entity and relation lists must be duplicate-free; relation endpoints must be
    in-range indices referring to distinct entities.
    """
    length = len(doc)
    seen_spans: set[EntitySpan] = set()
    for ent in graph.entities:
        if not (0 <= ent.start <= ent.end < length):
            raise OutOfRangeSpan(
                f"span ({ent.start}, {ent.end}) out of range for document of length {length}"
            )
        if ent.width > max_width:
            raise SpanTooWide(
                f"span ({ent.start}, {ent.end}) has width {ent.width} > max {max_width}"
            )
        if ent in seen_spans:
            raise DuplicateEntity(f"duplicate entity {ent}")
        seen_spans.add(ent)
    seen_rels: set[Relation] = set()
    n = len(graph.entities)
    for rel in graph.relations:
        if not (0 <= rel.head < n and 0 <= rel.tail < n):
            raise DanglingRelationIndex(
                f"relation {rel} refers outside the entity list of length {n}"
            )
        if rel.head == rel.tail:
            raise SelfRelation(f"relation {rel} has identical head and tail")
        if rel in seen_rels:
            raise DuplicateRelation(f"duplicate relation {rel}")
        seen_rels.add(rel)
    return graph
