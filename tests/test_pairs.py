"""tools/pairs.py: seed order, result-line parsing and the pair statistics."""

import json
import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
import pairs  # noqa: E402

END_TO_END = [{"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25},
              {"name": "tokens_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]


def _line(correct: bool, op_ms: float, tokens_per_s: float) -> str:
    """A result line as ``perfbench/run.py --trace 0`` prints it last."""
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": {
        "op_ms": {"value": op_ms, "unit": "ms"},
        "tokens_per_s": {"value": tokens_per_s, "unit": "1/s"}}})


def _runs(parent, change):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        for side, values in zip(pairs.order(seed), (p, c) if seed % 2 else (c, p)):
            line = pairs.result_line(f"# header\nop_ms = 1 ms\n{_line(True, *values)}\n\n")
            runs.append({"seed": seed, "side": side, "correct": line["correct"],
                         "metrics": {n: m["value"] for n, m in line["metrics"].items()}})
    return runs


def test_parent_runs_first_on_odd_seeds():
    assert pairs.order(901) == ("parent", "change")
    assert pairs.order(902) == ("change", "parent")


def test_seed_lists():
    assert pairs.parse_seeds("901-904") == [901, 902, 903, 904]
    assert pairs.parse_seeds("3,1,7-8") == [3, 1, 7, 8]


def test_result_line_is_the_last_line():
    assert pairs.result_line(f"a = 1\n{_line(False, 2.0, 3.0)}\n")["correct"] is False
    with pytest.raises(ValueError):
        pairs.result_line("\n\n")


def test_statistics_of_synthetic_pairs():
    parent = [(10.0, 100.0), (11.0, 90.0), (12.0, 110.0), (13.0, 95.0), (14.0, 105.0)]
    change = [(8.0, 101.0), (9.5, 89.0), (12.5, 111.0), (9.0, 96.0), (9.0, 104.0)]
    got = pairs.summarize(_runs(parent, change), END_TO_END)

    op = got["op_ms"]
    # inclusive quartiles of 10..14: 11 and 13
    assert (op["parent_q1"], op["parent_median"], op["parent_q3"]) == (11.0, 12.0, 13.0)
    assert op["change_median"] == 9.0
    assert op["relative_change"] == pytest.approx(-0.25)
    assert (op["wins"], op["pairs"]) == (4, 5)  # lower is better; seed 3 loses
    assert op["clears_parent_iqr"]  # 12 - 9 = 3 > 13 - 11 = 2

    tps = got["tokens_per_s"]
    q1, _, q3 = statistics.quantiles([100, 90, 110, 95, 105], n=4, method="inclusive")
    assert (tps["parent_q1"], tps["parent_q3"]) == (q1, q3)
    assert tps["change_median"] == 101.0
    assert (tps["wins"], tps["pairs"]) == (3, 5)  # higher is better
    assert not tps["clears_parent_iqr"]  # a gain of 1 inside an IQR of 10
    assert tps["bound"] == 0.25 and tps["better"] == "higher"


def test_a_worse_change_never_clears():
    parent = [(10.0, 100.0)] * 3
    change = [(20.0, 50.0)] * 3
    got = pairs.summarize(_runs(parent, change), END_TO_END)
    assert got["op_ms"]["wins"] == got["tokens_per_s"]["wins"] == 0
    assert not got["op_ms"]["clears_parent_iqr"]
    assert not got["tokens_per_s"]["clears_parent_iqr"]


def test_unpaired_runs_are_left_out():
    runs = _runs([(10.0, 100.0), (12.0, 100.0)], [(9.0, 100.0), (8.0, 100.0)])
    runs.append({"seed": 99, "side": "parent", "correct": True,
                 "metrics": {"op_ms": 1.0, "tokens_per_s": 1.0}})
    assert pairs.summarize(runs, END_TO_END)["op_ms"]["pairs"] == 2
    assert pairs.summarize([], END_TO_END) == {}
