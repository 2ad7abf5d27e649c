"""JSONL datasets and a small synthetic corpus generator.

A dataset file starts with a header record naming the schema and the maximum
span width, followed by one record per sentence.  Files are written in
canonical form (sorted keys, no whitespace), so loading and re-saving a
dataset reproduces it byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write
from .graph import Document, EntitySpan, GraphError, IEGraph, Relation, Schema, validate_graph

DATASET_FORMAT = "spangraph-dataset-v1"


class ParseError(ValueError):
    pass


class SchemaMismatch(ValueError):
    pass


class ValidationError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    schema: Schema
    max_span_width: int
    examples: tuple[tuple[Document, IEGraph], ...]

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def documents(self) -> list[Document]:
        return [doc for doc, _ in self.examples]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _index(value) -> int:
    """A JSON integer, as is: ``int()`` would truncate 0.9 and accept ``true`` or "1"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def record_to_example(rec: dict, schema: Schema, where: str) -> tuple[Document, IEGraph]:
    try:
        if not isinstance(rec["tokens"], list):
            raise TypeError(f"tokens must be a list, got {rec['tokens']!r}")
        doc = Document(tuple(rec["tokens"]), id=str(rec["id"]))
        entities = tuple(
            EntitySpan(_index(e["start"]), _index(e["end"]), schema.entity_type_id(e["type"]))
            for e in rec.get("entities", ())
        )
        relations = tuple(
            Relation(_index(r["head"]), _index(r["tail"]), schema.relation_type_id(r["type"]))
            for r in rec.get("relations", ())
        )
    except KeyError as e:
        raise ParseError(f"{where}: record missing field {e}") from e
    except TypeError as e:
        raise ParseError(f"{where}: malformed record: {e}") from e
    except GraphError as e:  # an invalid Document, before the generic ValueError
        raise ValidationError(f"{where}: {e}") from e
    except ValueError as e:
        raise SchemaMismatch(f"{where}: {e}") from e
    return doc, IEGraph(entities, relations)


def example_to_record(doc: Document, graph: IEGraph, schema: Schema) -> dict:
    return {
        "id": doc.id,
        "tokens": list(doc.tokens),
        "entities": [
            {"start": e.start, "end": e.end, "type": schema.entity_types[e.type_id]}
            for e in graph.entities
        ],
        "relations": [
            {"head": r.head, "tail": r.tail, "type": schema.relation_types[r.rel_type_id]}
            for r in graph.relations
        ],
    }


def load_dataset(path: str) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header record")

    def parse(lineno: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {e}") from e
        if not isinstance(obj, dict):
            raise ParseError(f"{path}:{lineno}: expected an object")
        return obj

    header = parse(1, lines[0])
    if header.get("format") != DATASET_FORMAT:
        raise ParseError(f"{path}:1: missing or unknown format marker")
    try:
        schema = Schema.from_json(header.get("schema"))
    except TypeError as e:
        raise ParseError(f"{path}:1: malformed schema header: {e}") from e
    except GraphError as e:
        raise SchemaMismatch(f"{path}:1: {e}") from e
    try:
        max_width = _index(header["max_span_width"])
        if max_width < 1:
            raise ValueError(f"must be positive, got {max_width}")
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}:1: bad max_span_width: {e}") from e

    examples = []
    for lineno, text in enumerate(lines[1:], start=2):
        if not text.strip():
            raise ParseError(f"{path}:{lineno}: blank line inside dataset")
        doc, graph = record_to_example(parse(lineno, text), schema, f"{path}:{lineno}")
        try:
            validate_graph(graph, doc, max_width)
        except GraphError as e:
            raise ValidationError(f"{path}:{lineno}: {e}") from e
        for r in graph.relations:  # the grammar admits only the schema's allowed pairs
            head, tail = (graph.entities[i].type_id for i in (r.head, r.tail))
            if r.rel_type_id not in schema.allowed_relations(head, tail):
                raise SchemaMismatch(
                    f"{path}:{lineno}: relation {schema.relation_types[r.rel_type_id]!r} is "
                    f"not allowed from {schema.entity_types[head]!r} to "
                    f"{schema.entity_types[tail]!r}")
        examples.append((doc, graph))
    return Dataset(schema, max_width, tuple(examples))


def save_dataset(path: str, dataset: Dataset) -> None:
    header = {
        "format": DATASET_FORMAT,
        "schema": dataset.schema.to_json(),
        "max_span_width": dataset.max_span_width,
    }
    body = [_canonical(header)]
    body.extend(
        _canonical(example_to_record(doc, graph, dataset.schema))
        for doc, graph in dataset.examples
    )
    payload = "\n".join(body) + "\n"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with atomic_write(path) as fh:
        fh.write(payload)


# ----------------------------------------------------------------------
# synthetic corpus

_PERSONS = (("alice",), ("bob",), ("carol",), ("dave",), ("erin",), ("mary", "ann"))
_ORGS = (("acme",), ("globex",), ("initech",), ("umbrella",), ("stark", "labs"))
_MAX_WIDTH = 3

# parts are literal strings or (slot_kind, slot_key); relations name slot keys
_TEMPLATES = (
    (("P", "p"), "works at", ("O", "o"), ".", (("p", "o", "works_for"),)),
    (("P", "p"), "founded", ("O", "o"), ".", (("p", "o", "founded"),)),
    (("P", "p"), "and", ("P", "q"), "work at", ("O", "o"), ".",
     (("p", "o", "works_for"), ("q", "o", "works_for"))),
    (("P", "p"), "met", ("P", "q"), "yesterday", ".", ()),
    (("O", "o"), "hired", ("P", "p"), ".", (("p", "o", "works_for"),)),
    (("P", "p"), "left", ("O", "o"), "and founded", ("O", "w"), ".",
     (("p", "o", "works_for"), ("p", "w", "founded"))),
    ("the market closed higher today .", ()),
    (("O", "o"), "was founded by", ("P", "p"), ".", (("p", "o", "founded"),)),
)

SYNTH_SCHEMA = Schema(
    entity_types=("person", "org"),
    relation_types=("works_for", "founded"),
    allowed_pairs={(0, 1): frozenset({0, 1})},
)

# compositional split: these template indices are held out of train and make
# up dev/test, so evaluation sees familiar words in never-trained patterns
_HELDOUT_TEMPLATES = (2, 5, 7)


def _realize(template, person_ids, org_ids):
    """Expand one template with concrete pool picks into (tokens, graph)."""
    tokens: list[str] = []
    entities: list[EntitySpan] = []
    slot_index: dict[str, int] = {}
    p_iter, o_iter = iter(person_ids), iter(org_ids)
    for part in template[:-1]:
        if isinstance(part, str):
            tokens.extend(part.split())
            continue
        kind, key = part
        words = _PERSONS[next(p_iter)] if kind == "P" else _ORGS[next(o_iter)]
        start = len(tokens)
        tokens.extend(words)
        slot_index[key] = len(entities)
        entities.append(EntitySpan(start, len(tokens) - 1, 0 if kind == "P" else 1))
    rel_names = {"works_for": 0, "founded": 1}
    relations = tuple(
        Relation(slot_index[h], slot_index[t], rel_names[name]) for h, t, name in template[-1]
    )
    return tokens, IEGraph(tuple(entities), relations)


def _slot_counts(template) -> tuple[int, int]:
    p = sum(1 for part in template[:-1] if not isinstance(part, str) and part[0] == "P")
    o = sum(1 for part in template[:-1] if not isinstance(part, str) and part[0] == "O")
    return p, o


def _template_pool(split: str, split_mode: str) -> tuple[int, ...]:
    if split_mode == "iid":
        return tuple(range(len(_TEMPLATES)))
    if split == "train":
        return tuple(i for i in range(len(_TEMPLATES)) if i not in _HELDOUT_TEMPLATES)
    return _HELDOUT_TEMPLATES


def _draw_example(rng: np.random.Generator, pool: tuple[int, ...]):
    template = _TEMPLATES[int(pool[int(rng.integers(0, len(pool)))])]
    n_p, n_o = _slot_counts(template)
    persons = [int(i) for i in rng.choice(len(_PERSONS), size=n_p, replace=False)] if n_p else []
    orgs = [int(i) for i in rng.choice(len(_ORGS), size=n_o, replace=False)] if n_o else []
    return _realize(template, persons, orgs)


def _ensure_coverage(examples: list) -> None:
    """Rewrite tail sentences so every pool word occurs in train at least once.

    Dev/test words that never appeared in training would encode as unknowns
    and make held-out scores reflect vocabulary luck instead of the model.
    """
    def covered() -> tuple[set[int], set[int]]:
        toks = {t for tokens, _ in examples for t in tokens}
        ps = {i for i, w in enumerate(_PERSONS) if set(w) <= toks}
        os_ = {i for i, w in enumerate(_ORGS) if set(w) <= toks}
        return ps, os_

    at = len(examples) - 1
    ps, _ = covered()
    for p in sorted(set(range(len(_PERSONS))) - ps):
        examples[at] = _realize(_TEMPLATES[0], [p], [p % len(_ORGS)])
        at -= 1
    _, os_ = covered()
    for o in sorted(set(range(len(_ORGS))) - os_):
        examples[at] = _realize(_TEMPLATES[0], [o % len(_PERSONS)], [o])
        at -= 1


def make_synthetic(out_dir: str, prefix: str = "synth", seed: int = 0,
                   n_train: int = 50, n_dev: int = 25, n_test: int = 25,
                   split_mode: str = "iid") -> dict[str, str]:
    """Write {prefix}_{train,dev,test}.jsonl under out_dir; returns the paths.

    ``iid`` draws every split from all templates; ``compositional`` holds a
    subset of templates out of train entirely and builds dev/test only from
    those, so evaluation sees familiar words in never-trained patterns.
    """
    if split_mode not in ("iid", "compositional"):
        raise ValueError(f"unknown split_mode {split_mode!r}")
    sizes = {"train": n_train, "dev": n_dev, "test": n_test}
    if min(sizes.values()) < 1:
        raise ValueError("every split needs at least one sentence")
    if n_train < len(_PERSONS) + len(_ORGS):
        raise ValueError("n_train too small to cover the word pools")
    paths = {}
    for k, (split, n) in enumerate(sizes.items()):
        rng = np.random.default_rng([seed, k])
        pool = _template_pool(split, split_mode)
        drawn = [_draw_example(rng, pool) for _ in range(n)]
        if split == "train":
            _ensure_coverage(drawn)
        examples = []
        for i, (tokens, graph) in enumerate(drawn):
            doc = Document(tuple(tokens), id=f"{prefix}-{split}-{i:04d}")
            validate_graph(graph, doc, _MAX_WIDTH)
            examples.append((doc, graph))
        path = os.path.join(out_dir, f"{prefix}_{split}.jsonl")
        save_dataset(path, Dataset(SYNTH_SCHEMA, _MAX_WIDTH, tuple(examples)))
        paths[split] = path
    return paths
