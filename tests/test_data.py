import json
import os
import re

import numpy as np
import pytest

from spangraph.data import (
    DATASET_FORMAT,
    SYNTH_SCHEMA,
    Dataset,
    ParseError,
    SchemaMismatch,
    ValidationError,
    example_to_record,
    load_dataset,
    make_synthetic,
    record_to_example,
    save_dataset,
)
from spangraph.graph import Document, EntitySpan, IEGraph, Relation, Schema
from _helpers import random_graph


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def header_line(schema=None, max_width=3):
    schema = schema or SYNTH_SCHEMA
    pairs = None
    if schema.allowed_pairs is not None:
        pairs = [
            [schema.entity_types[h], schema.entity_types[t],
             sorted(schema.relation_types[r] for r in rels)]
            for (h, t), rels in sorted(schema.allowed_pairs.items())
        ]
    head = {
        "format": DATASET_FORMAT,
        "max_span_width": max_width,
        "schema": {
            "entity_types": list(schema.entity_types),
            "relation_types": list(schema.relation_types),
            "allowed_pairs": pairs,
        },
    }
    return json.dumps(head)


class TestRoundTrip:
    def test_save_load_byte_identical(self, tmp_path, rng):
        schema = Schema(
            entity_types=("Peop", "Org", "Loc", "Other"),
            relation_types=("Work_For", "Kill", "OrgBased_In", "Live_In", "Located_In"),
        )
        examples = []
        for i in range(20):
            gr = random_graph(rng, 10, 4, 4, 5)
            doc = Document(tuple(f"tok{j}" for j in range(10)), id=f"d{i}")
            examples.append((doc, gr))
        ds = Dataset(schema, 4, tuple(examples))
        p1 = str(tmp_path / "a.jsonl")
        p2 = str(tmp_path / "b.jsonl")
        save_dataset(p1, ds)
        loaded = load_dataset(p1)
        assert loaded.schema == ds.schema
        assert loaded.max_span_width == 4
        assert loaded.examples == ds.examples
        save_dataset(p2, loaded)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_record_round_trip_inclusive_end(self):
        doc = Document(("a", "b", "c"), id="x")
        gr = IEGraph((EntitySpan(0, 1, 0),), ())
        rec = example_to_record(doc, gr, SYNTH_SCHEMA)
        assert rec["entities"][0] == {"start": 0, "end": 1, "type": "person"}
        doc2, gr2 = record_to_example(rec, SYNTH_SCHEMA, "mem")
        assert doc2 == doc and gr2 == gr

    def test_allowed_pairs_survive_round_trip(self, tmp_path):
        ds = Dataset(SYNTH_SCHEMA, 3, ())
        p = str(tmp_path / "s.jsonl")
        save_dataset(p, ds)
        loaded = load_dataset(p)
        assert loaded.schema.allowed_pairs == SYNTH_SCHEMA.allowed_pairs

    def test_atomic_write(self, tmp_path):
        p = tmp_path / "out.jsonl"
        save_dataset(str(p), Dataset(SYNTH_SCHEMA, 3, ()))
        assert sorted(os.listdir(tmp_path)) == ["out.jsonl"]

    def test_dataset_dunders(self):
        doc = Document(("a",), id="x")
        ds = Dataset(SYNTH_SCHEMA, 3, ((doc, IEGraph()),))
        assert len(ds) == 1
        assert list(ds) == [(doc, IEGraph())]
        assert ds.documents() == [doc]


class TestLoadErrors:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "e.jsonl"
        p.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_dataset(str(p))

    def test_missing_format_marker(self, tmp_path):
        p = tmp_path / "f.jsonl"
        write_lines(p, ['{"schema": {}, "max_span_width": 3}'])
        with pytest.raises(ParseError, match=":1:"):
            load_dataset(str(p))

    @pytest.mark.parametrize("width, why", [
        ("3", "expected an integer, got '3'"),
        (3.9, "expected an integer, got 3.9"),
        (3.0, "expected an integer, got 3.0"),
        (True, "expected an integer, got True"),
        (None, "expected an integer, got None"),
        (0, "must be positive, got 0"),
        (-2, "must be positive, got -2"),
    ])
    def test_max_span_width_must_be_a_positive_integer(self, tmp_path, width, why):
        p = tmp_path / "w.jsonl"
        rec = json.dumps(example_to_record(Document(("a",), id="d"), IEGraph(), SYNTH_SCHEMA))
        write_lines(p, [header_line(max_width=width), rec])
        with pytest.raises(ParseError, match=rf"w\.jsonl:1: bad max_span_width: {re.escape(why)}$"):
            load_dataset(str(p))

    def test_invalid_json_points_at_line(self, tmp_path):
        p = tmp_path / "g.jsonl"
        write_lines(p, [header_line(), '{"id": "x", "tokens": ['])
        with pytest.raises(ParseError, match=":2:"):
            load_dataset(str(p))

    def test_blank_line_rejected(self, tmp_path):
        p = tmp_path / "h.jsonl"
        rec = json.dumps(example_to_record(Document(("a",), id="d"), IEGraph(), SYNTH_SCHEMA))
        write_lines(p, [header_line(), "", rec])
        with pytest.raises(ParseError, match=":2:.*blank"):
            load_dataset(str(p))

    def test_unknown_entity_type(self, tmp_path):
        p = tmp_path / "i.jsonl"
        rec = {"id": "d", "tokens": ["a"], "entities": [{"start": 0, "end": 0, "type": "alien"}],
               "relations": []}
        write_lines(p, [header_line(), json.dumps(rec)])
        with pytest.raises(SchemaMismatch, match=":2:"):
            load_dataset(str(p))

    def test_inverted_span_is_validation_error(self, tmp_path):
        p = tmp_path / "j.jsonl"
        rec = {"id": "d", "tokens": ["a", "b"], "entities":
               [{"start": 1, "end": 0, "type": "person"}], "relations": []}
        write_lines(p, [header_line(), json.dumps(rec)])
        with pytest.raises(ValidationError, match=":2:"):
            load_dataset(str(p))

    def test_too_wide_span_rejected_on_load(self, tmp_path):
        p = tmp_path / "k.jsonl"
        rec = {"id": "d", "tokens": ["a", "b", "c", "d", "e"], "entities":
               [{"start": 0, "end": 4, "type": "person"}], "relations": []}
        write_lines(p, [header_line(max_width=3), json.dumps(rec)])
        with pytest.raises(ValidationError, match=":2:"):
            load_dataset(str(p))

    @pytest.mark.parametrize("tokens", [[], [1, 2], ["a", ""]])
    def test_invalid_document_is_validation_error(self, tmp_path, tokens):
        p = tmp_path / "d.jsonl"
        rec = {"id": "d", "tokens": tokens, "entities": [], "relations": []}
        write_lines(p, [header_line(), json.dumps(rec)])
        with pytest.raises(ValidationError, match=r"d\.jsonl:2: document"):
            load_dataset(str(p))

    def test_missing_field(self, tmp_path):
        p = tmp_path / "l.jsonl"
        write_lines(p, [header_line(), '{"id": "d"}'])
        with pytest.raises(ParseError, match=":2:"):
            load_dataset(str(p))

    def test_non_object_line(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_lines(p, [header_line(), "[1, 2]"])
        with pytest.raises(ParseError, match=":2:"):
            load_dataset(str(p))

    @pytest.mark.parametrize("field, value", [
        ("tokens", 5),
        ("entities", [1]),
        ("relations", ["x"]),
        ("entities", [{"start": None, "end": 0, "type": "person"}]),
        ("tokens", "abc"),
        ("entities", [{"start": 0.9, "end": 1, "type": "person"}]),
        ("entities", [{"start": True, "end": 1, "type": "person"}]),
        ("entities", [{"start": "x", "end": 1, "type": "person"}]),
        ("relations", [{"head": 0.5, "tail": 1, "type": "works_for"}]),
    ])
    def test_malformed_record_field(self, tmp_path, field, value):
        p = tmp_path / "n.jsonl"
        rec = {"id": "d", "tokens": ["a", "b"], "entities": [], "relations": [], field: value}
        write_lines(p, [header_line(), json.dumps(rec)])
        with pytest.raises(ParseError, match=r"n\.jsonl:2: "):
            load_dataset(str(p))

    @pytest.mark.parametrize("schema, error", [
        ({"entity_types": ["person"], "allowed_pairs": 5}, ParseError),
        ({"entity_types": ["person"], "allowed_pairs": [["person", "person"]]}, ParseError),
        ({"entity_types": ["person"], "allowed_pairs": [["person", 0, []]]}, ParseError),
        ({"entity_types": ["person"], "allowed_pairs": [[True, 0, []]]}, ParseError),
        ({"entity_types": "person"}, ParseError),
        ([], ParseError),
        ({"entity_types": ["person"], "allowed_pairs": [["person", "alien", []]]},
         SchemaMismatch),
        ({"entity_types": ["person"], "relation_types": ["r"],
          "allowed_pairs": [["person", "person", ["s"]]]}, SchemaMismatch),
        ({"entity_types": ["person"], "allowed_pairs": [[0, 1, []]]}, SchemaMismatch),
    ])
    def test_malformed_schema_header(self, tmp_path, schema, error):
        p = tmp_path / "o.jsonl"
        head = {"format": DATASET_FORMAT, "max_span_width": 3, "schema": schema}
        write_lines(p, [json.dumps(head)])
        with pytest.raises(error, match=r"o\.jsonl:1: "):
            load_dataset(str(p))


class TestSynthetic:
    def test_sizes_and_validity(self, tmp_path):
        paths = make_synthetic(str(tmp_path), seed=0, n_train=50, n_dev=25, n_test=25)
        train = load_dataset(paths["train"])
        dev = load_dataset(paths["dev"])
        test = load_dataset(paths["test"])
        assert (len(train), len(dev), len(test)) == (50, 25, 25)
        assert train.schema == SYNTH_SCHEMA
        assert train.max_span_width == 3

    def test_deterministic_bytes(self, tmp_path):
        a = make_synthetic(str(tmp_path / "a"), seed=5)
        b = make_synthetic(str(tmp_path / "b"), seed=5)
        for split in ("train", "dev", "test"):
            assert open(a[split], "rb").read() == open(b[split], "rb").read()

    def test_seed_changes_content(self, tmp_path):
        a = make_synthetic(str(tmp_path / "a"), seed=5)
        b = make_synthetic(str(tmp_path / "b"), seed=6)
        assert open(a["train"], "rb").read() != open(b["train"], "rb").read()

    def test_train_covers_heldout_vocabulary(self, tmp_path):
        # iid: every test/dev token appears in train, so <unk> never hides a span;
        # compositional: held-out templates bring new filler words, but the
        # entity words themselves must all be seen in training
        paths = make_synthetic(str(tmp_path / "iid"), seed=0, split_mode="iid")
        train_words = set()
        for doc in load_dataset(paths["train"]).documents():
            train_words.update(doc.tokens)
        for split in ("dev", "test"):
            for doc in load_dataset(paths[split]).documents():
                assert set(doc.tokens) <= train_words

        paths = make_synthetic(str(tmp_path / "comp"), seed=0, split_mode="compositional")
        train_words = set()
        for doc in load_dataset(paths["train"]).documents():
            train_words.update(doc.tokens)
        for split in ("dev", "test"):
            for doc, graph in load_dataset(paths[split]):
                for e in graph.entities:
                    assert set(doc.tokens[e.start:e.end + 1]) <= train_words

    @staticmethod
    def _fingerprint(doc, graph):
        toks = list(doc.tokens)
        for e in graph.entities:
            for i in range(e.start, e.end + 1):
                toks[i] = "_"
        return tuple(toks)

    def test_compositional_split_is_template_disjoint(self, tmp_path):
        paths = make_synthetic(str(tmp_path), seed=0, split_mode="compositional")
        train = load_dataset(paths["train"])
        train_fp = {self._fingerprint(d, g) for d, g in train}
        for split in ("dev", "test"):
            for d, g in load_dataset(paths[split]):
                assert self._fingerprint(d, g) not in train_fp

    def test_iid_split_shares_templates(self, tmp_path):
        paths = make_synthetic(str(tmp_path), seed=0, split_mode="iid")
        train_fp = {self._fingerprint(d, g) for d, g in load_dataset(paths["train"])}
        test_fp = {self._fingerprint(d, g) for d, g in load_dataset(paths["test"])}
        assert train_fp & test_fp

    def test_relations_respect_pair_table(self, tmp_path):
        paths = make_synthetic(str(tmp_path), seed=1)
        for _, graph in load_dataset(paths["train"]):
            for r in graph.relations:
                ht = graph.entities[r.head].type_id
                tt = graph.entities[r.tail].type_id
                assert r.rel_type_id in SYNTH_SCHEMA.allowed_relations(ht, tt)

    def test_both_relation_types_present_in_train(self, tmp_path):
        paths = make_synthetic(str(tmp_path), seed=0)
        seen = set()
        for _, graph in load_dataset(paths["train"]):
            seen.update(r.rel_type_id for r in graph.relations)
        assert seen == {0, 1}

    def test_small_train_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_synthetic(str(tmp_path), n_train=5)

    def test_bad_split_mode(self, tmp_path):
        with pytest.raises(ValueError):
            make_synthetic(str(tmp_path), split_mode="fancy")
