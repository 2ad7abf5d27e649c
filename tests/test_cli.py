import csv
import json
import os

import numpy as np
import pytest

from spangraph.cli import main
from spangraph.data import Dataset, load_dataset, save_dataset
from spangraph.decode import DecodeConfig, generate_batch
from spangraph.graph import Document, EntitySpan, IEGraph
from _helpers import make_schema, tiny_model
from test_data import disallowed_relation_records, header_line


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Synthetic corpus plus a briefly trained checkpoint, shared by CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    run_dir = root / "run"
    rc = main(["synth", "--out-dir", str(data_dir), "--seed", "1",
               "--n-train", "12", "--n-dev", "3", "--n-test", "3"])
    assert rc == 0
    rc = main([
        "train",
        "--train", str(data_dir / "synth_train.jsonl"),
        "--dev", str(data_dir / "synth_dev.jsonl"),
        "--out-dir", str(run_dir),
        "--steps", "2", "--batch-size", "1", "--max-sentences", "1",
        "--d-model", "16", "--enc-layers", "1", "--dec-layers", "1", "--heads", "2",
        "--eval-every", "2", "--seed", "0",
    ])
    assert rc == 0
    return {
        "train": str(data_dir / "synth_train.jsonl"),
        "dev": str(data_dir / "synth_dev.jsonl"),
        "test": str(data_dir / "synth_test.jsonl"),
        "ckpt": str(run_dir / "last.npz"),
        "best": str(run_dir / "best.npz"),
        "metrics": str(run_dir / "metrics.jsonl"),
        "root": root,
    }


class TestVocabInfo:
    def test_worked_layout(self, capsys):
        rc = main(["vocab-info", "--L", "114", "--K", "12", "--C", "4", "--R", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "V = 5480" in out
        assert "realizable spans = 5208" in out

    def test_missing_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["vocab-info", "--L", "4", "--K", "2", "--C", "1"])
        assert exc.value.code == 2


class TestSynth:
    def test_writes_three_splits(self, workdir):
        for split in ("train", "dev", "test"):
            ds = load_dataset(workdir[split])
            assert len(ds) > 0

    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPANGRAPH_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["synth", "--n-train", "11", "--n-dev", "2", "--n-test", "2"])
        assert rc == 0
        assert (tmp_path / "envout" / "synth_train.jsonl").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPANGRAPH_OUT_DIR", str(tmp_path / "envout"))
        rc = main(["synth", "--out-dir", str(tmp_path / "flagout"),
                   "--n-train", "11", "--n-dev", "2", "--n-test", "2"])
        assert rc == 0
        assert (tmp_path / "flagout" / "synth_train.jsonl").exists()
        assert not (tmp_path / "envout").exists()


class TestTrain:
    def test_artifacts(self, workdir, capsys):
        assert os.path.exists(workdir["ckpt"])
        assert os.path.exists(workdir["best"])
        lines = [json.loads(l) for l in open(workdir["metrics"])]
        assert [r["step"] for r in lines] == [1, 2]
        assert "dev_rel_strict_f1" in lines[1]

    def test_bad_data_path_exits_one(self, capsys):
        rc = main(["train", "--train", "/nonexistent/x.jsonl", "--steps", "1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_relation_outside_allowed_pairs_exits_one(self, tmp_path, capsys):
        data = tmp_path / "pairs.jsonl"
        data.write_text("\n".join([header_line(), *disallowed_relation_records()]) + "\n")
        rc = main(["train", "--train", str(data), "--out-dir", str(tmp_path / "run"),
                   "--steps", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            f"error: {data}:3: relation 'founded' is not allowed from 'org' to 'person'"]

    def test_zero_heads_exits_one(self, workdir, tmp_path, capsys):
        rc = main(["train", "--train", workdir["train"], "--out-dir", str(tmp_path),
                   "--steps", "1", "--heads", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            "error: heads must be at least 1, got 0"]

    def test_negative_learning_rate_exits_one(self, workdir, tmp_path, capsys):
        rc = main(["train", "--train", workdir["train"], "--out-dir", str(tmp_path),
                   "--steps", "1", "--lr-encoder", "-1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert [l for l in err.splitlines() if l.startswith("error:")] == [
            "error: lr_encoder must be finite and non-negative, got -1.0"]
        assert not os.listdir(tmp_path)


class TestGenerate:
    def test_render_and_out(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "preds.jsonl")
        rc = main(["generate", "--checkpoint", workdir["ckpt"],
                   "--data", workdir["test"], "--out", out, "--render"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "<START>" in text and "<END>" in text
        preds = load_dataset(out)
        gold = load_dataset(workdir["test"])
        assert len(preds) == len(gold)
        assert [d.id for d in preds.documents()] == [d.id for d in gold.documents()]

    def test_schema_mismatch_rejected(self, workdir, tmp_path, capsys):
        other = tmp_path / "other"
        main(["synth", "--out-dir", str(other), "--prefix", "alt",
              "--n-train", "11", "--n-dev", "2", "--n-test", "2"])
        # corrupt the schema by renaming an entity type
        alt = (other / "alt_test.jsonl").read_text().replace('"person"', '"human"')
        (other / "alt_test.jsonl").write_text(alt)
        rc = main(["generate", "--checkpoint", workdir["ckpt"],
                   "--data", str(other / "alt_test.jsonl")])
        assert rc == 1
        assert "schema" in capsys.readouterr().err


    def test_negative_seed_names_the_flag(self, workdir, capsys):
        rc = main(["generate", "--checkpoint", workdir["ckpt"], "--data", workdir["test"],
                   "--mode", "nucleus", "--seed", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


class TestTooLong:
    """A sentence longer than max_positions fails alone; the rest are decoded."""

    @pytest.fixture
    def with_long(self, workdir, tmp_path):
        test = load_dataset(workdir["test"])
        long_doc = Document(("w",) * 600, id="too-long")
        long_gold = IEGraph((EntitySpan(0, 0, 0),), ())
        examples = (test.examples[0], (long_doc, long_gold)) + test.examples[1:]
        path = str(tmp_path / "with_long.jsonl")
        save_dataset(path, Dataset(test.schema, test.max_span_width, examples))
        return path, test

    def test_generate_reports_and_decodes_the_rest(self, workdir, with_long, tmp_path, capsys):
        path, test = with_long
        out = str(tmp_path / "preds.jsonl")
        rc = main(["generate", "--checkpoint", workdir["ckpt"], "--data", path,
                   "--out", out, "--render"])
        assert rc == 1
        captured = capsys.readouterr()
        errors = captured.err.strip().splitlines()
        assert len(errors) == 1 and errors[0].startswith("error: ") and "'too-long'" in errors[0]
        rendered = [line.split(":")[0] for line in captured.out.splitlines() if "<START>" in line]
        assert rendered == [d.id for d in test.documents()]
        assert [d.id for d in load_dataset(out).documents()] == [d.id for d in test.documents()]

    def test_evaluate_scores_it_as_empty(self, workdir, with_long, capsys):
        path, test = with_long
        assert main(["evaluate", "--checkpoint", workdir["ckpt"], "--data", workdir["test"]]) == 0
        clean = [json.loads(l) for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        rc = main(["evaluate", "--checkpoint", workdir["ckpt"], "--data", path])
        assert rc == 1
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1 and "'too-long'" in captured.err
        records = [json.loads(l) for l in captured.out.splitlines() if l.startswith("{")]
        ent = {r["metric"]: r for r in records}["ent"]
        ent_clean = {r["metric"]: r for r in clean}["ent"]
        # no predictions for it, one more gold entity
        assert (ent["tp"], ent["pred"], ent["gold"]) == (
            ent_clean["tp"], ent_clean["pred"], ent_clean["gold"] + 1)


class TestEvaluate:
    def test_pred_equals_gold_reads_100(self, workdir, tmp_path, capsys):
        report_path = str(tmp_path / "report.jsonl")
        rc = main(["evaluate", "--pred", workdir["test"], "--gold", workdir["test"],
                   "--report", report_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("100.00") >= 9
        json_lines = [l for l in out.splitlines() if l.startswith("{")]
        assert len(json_lines) == 3
        records = [json.loads(l) for l in json_lines]
        assert [r["metric"] for r in records] == ["ent", "rel", "rel_strict"]
        for r in records:
            assert r["f1"] == 1.0
            assert r["tp"] == r["pred"] == r["gold"]
        assert open(report_path).read() == "\n".join(json_lines) + "\n"

    def test_checkpoint_route(self, workdir, capsys):
        rc = main(["evaluate", "--checkpoint", workdir["ckpt"], "--data", workdir["dev"]])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ENT" in out and "REL+" in out

    def test_checkpoint_route_reports_decoding(self, tmp_path, capsys):
        # an untrained model decodes long, often truncated sequences
        model = tiny_model(make_schema(2, 2), words=("a", "b", "c"), seed=3)
        ckpt = str(tmp_path / "ckpt.npz")
        model.save(ckpt)
        docs = [Document(("a", "b", "c", "a")[:n], id=f"d{n}") for n in (1, 2, 3, 4, 4)]
        data = str(tmp_path / "data.jsonl")
        save_dataset(data, Dataset(model.schema, model.config.max_span_width,
                                   tuple((doc, IEGraph((), ())) for doc in docs)))
        report_path = str(tmp_path / "report.jsonl")
        rc = main(["evaluate", "--checkpoint", ckpt, "--data", data, "--max-len", "9",
                   "--report", report_path])
        assert rc == 0
        json_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        assert open(report_path).read() == "\n".join(json_lines) + "\n"
        records = [json.loads(l) for l in json_lines]
        assert [r["metric"] for r in records] == ["ent", "rel", "rel_strict", "decode"]
        want = generate_batch(model, docs, DecodeConfig(max_len=9))
        n_truncated = sum(res.truncated for res in want)
        assert 0 < n_truncated < len(docs)
        assert records[-1] == {
            "metric": "decode", "documents": len(docs), "truncated": n_truncated,
            "truncated_frac": n_truncated / len(docs),
            "mean_symbols": sum(len(res.ids) for res in want) / len(docs),
            "mean_decoder_calls": sum(res.decoder_calls for res in want) / len(docs),
        }

    def test_needs_one_route(self, capsys):
        rc = main(["evaluate"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_prediction_ids(self, workdir, tmp_path, capsys):
        gold = load_dataset(workdir["test"])
        lines = open(workdir["test"]).read().splitlines()
        short = tmp_path / "short.jsonl"
        short.write_text("\n".join(lines[:2]) + "\n")  # header + first record only
        rc = main(["evaluate", "--pred", str(short), "--gold", workdir["test"]])
        assert rc == 1
        assert "missing" in capsys.readouterr().err

    def test_malformed_record_is_one_located_error(self, workdir, tmp_path, capsys):
        lines = open(workdir["test"]).read().splitlines()
        rec = json.loads(lines[1])
        rec["entities"] = [1]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
        rc = main(["evaluate", "--pred", str(bad), "--gold", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:2: ")


class TestInspect:
    def test_attention_csv(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "attn.csv")
        rc = main(["inspect", "attention", "--checkpoint", workdir["ckpt"],
                   "--data", workdir["test"], "--index", "0", "--layer", "0",
                   "--head", "mean", "--kind", "cross", "--out", out])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0][0] == "query\\key"
        weights = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-4)

    def test_struct_sim_csv(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "sim.csv")
        rc = main(["inspect", "struct-sim", "--checkpoint", workdir["ckpt"],
                   "--out", out])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["cosine", "NODE", "HEAD", "TAIL", "REL"]
        printed = capsys.readouterr().out
        assert "wrote structural-label similarity" in printed

    def test_bad_index(self, workdir, tmp_path, capsys):
        rc = main(["inspect", "attention", "--checkpoint", workdir["ckpt"],
                   "--data", workdir["test"], "--index", "999",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "outside" in capsys.readouterr().err


class TestConfigFile:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_config_supplies_defaults(self, workdir, tmp_path):
        out_dir = str(tmp_path / "cfg_run")
        cfg = self._write(tmp_path / "t.cfg", {
            "train": workdir["train"], "steps": 3, "batch-size": 1,
            "max-sentences": 1, "d-model": 16, "enc-layers": 1,
            "dec-layers": 1, "heads": 2, "out-dir": out_dir,
        })
        rc = main(["train", "--config", cfg])
        assert rc == 0
        lines = [json.loads(l) for l in open(os.path.join(out_dir, "metrics.jsonl"))]
        assert [r["step"] for r in lines] == [1, 2, 3]

    def test_explicit_flag_beats_config(self, workdir, tmp_path):
        out_dir = str(tmp_path / "cfg_run2")
        cfg = self._write(tmp_path / "t.cfg", {
            "train": workdir["train"], "steps": 3, "batch-size": 1,
            "max-sentences": 1, "d-model": 16, "enc-layers": 1,
            "dec-layers": 1, "heads": 2,
        })
        rc = main(["train", "--config", cfg, "--steps", "2", "--out-dir", out_dir])
        assert rc == 0
        lines = [json.loads(l) for l in open(os.path.join(out_dir, "metrics.jsonl"))]
        assert [r["step"] for r in lines] == [1, 2]

    def test_unknown_key_rejected(self, workdir, tmp_path, capsys):
        cfg = self._write(tmp_path / "bad.cfg", {"train": workdir["train"], "bogus": 1})
        rc = main(["train", "--config", cfg])
        assert rc == 1
        assert "unknown config keys: bogus" in capsys.readouterr().err

    def test_bad_choice_rejected(self, workdir, tmp_path, capsys):
        cfg = self._write(tmp_path / "bad.cfg", {
            "train": workdir["train"], "ordering": "shuffled",
        })
        rc = main(["train", "--config", cfg])
        assert rc == 1
        assert "ordering" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,what", [
        ("d-model", 64.0, "an integer"),
        ("heads", 4.0, "an integer"),
        ("steps", 2.0, "an integer"),
        ("max_sentences", 1.5, "an integer"),
        ("eval-every", 0.5, "an integer"),
        ("seed", True, "an integer"),
        ("dropout", "0.1", "a number"),
        ("lr-other", False, "a number"),
        ("pos-off", 1, "true or false"),
        ("verbose", "yes", "true or false"),
        ("ordering", 1, "a string"),
        ("dev", None, "a string"),
    ])
    def test_value_of_the_wrong_type_rejected(self, workdir, tmp_path, capsys, key, value, what):
        cfg = self._write(tmp_path / "typed.cfg", {"train": workdir["train"], key: value})
        rc = main(["train", "--config", cfg])
        assert rc == 1
        err = capsys.readouterr().err
        name = key.replace("-", "_")
        assert err == f"error: {cfg}: {name} must be {what}, got {json.dumps(value)}\n"

    def test_integer_for_a_float_flag_and_bool_switch_accepted(self, workdir, tmp_path):
        out_dir = str(tmp_path / "typed_run")
        cfg = self._write(tmp_path / "t.cfg", {
            "train": workdir["train"], "steps": 1, "batch-size": 1, "max-sentences": 1,
            "d-model": 16, "enc-layers": 1, "dec-layers": 1, "heads": 2, "out-dir": out_dir,
            "lr-other": 1, "dropout": 0, "struct-off": True,
        })
        assert main(["train", "--config", cfg]) == 0
        assert os.path.exists(os.path.join(out_dir, "last.npz"))

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("{not json")
        rc = main(["vocab-info", "--config", str(path),
                   "--L", "1", "--K", "1", "--C", "1", "--R", "0"])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_satisfies_required_flag(self, tmp_path, capsys):
        cfg = self._write(tmp_path / "v.cfg", {"L": 1, "K": 1, "C": 1, "R": 0})
        rc = main(["vocab-info", "--config", cfg])
        assert rc == 0
        assert "V = 4" in capsys.readouterr().out


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "spangraph" in capsys.readouterr().out

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
