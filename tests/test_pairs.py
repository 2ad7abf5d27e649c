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


def _verdicts(parent, change):
    got = pairs.summarize(_runs(parent, change), END_TO_END)
    return got["op_ms"]["verdict"], got["tokens_per_s"]["verdict"]


def test_no_regression_verdicts():
    steady = [(10.0, 100.0), (10.5, 101.0), (11.0, 102.0), (11.5, 103.0), (12.0, 104.0)]
    # 30% more time and 30% fewer tokens than the parent's medians, past the 0.25 bound
    assert _verdicts(steady, [(14.3, 71.4)] * 5) == ("regressed", "regressed")
    # 10% worse, inside the bound and a 9% IQR
    assert _verdicts(steady, [(12.1, 91.8)] * 5) == ("within_bound", "within_bound")
    # a parent IQR of 60% of its median could hide a regression past the bound
    wide = [(6.0, 60.0), (8.0, 80.0), (10.0, 100.0), (14.0, 140.0), (16.0, 160.0)]
    assert _verdicts(wide, [(11.0, 90.0)] * 5) == ("unresolved", "unresolved")
    # ... unless every change run beats every parent run
    assert _verdicts(wide, [(5.0, 170.0)] * 5) == ("within_bound", "within_bound")
    # one change run that loses to a parent run leaves it unresolved
    assert _verdicts(wide, [(5.0, 170.0)] * 4 + [(6.5, 59.0)]) == ("unresolved", "unresolved")


def test_no_bound_no_verdict():
    assert pairs.no_regression([1.0, 2.0], [9.0, 9.0], -1.0, None) is None
    assert pairs.no_regression([10.0, 10.0], [12.6, 12.6], -1.0, 0.25) == "regressed"
    assert pairs.no_regression([10.0, 10.0], [12.4, 12.4], -1.0, 0.25) == "within_bound"


def test_import_medians_per_side():
    runs = _runs([(10.0, 100.0)] * 3, [(9.0, 100.0)] * 3)
    values = {"parent": {1: 0.30, 2: 0.50, 3: 0.25}, "change": {1: 0.40, 2: 0.20, 3: None}}
    for run in runs:
        run["import_s"] = values[run["side"]][run["seed"]]
    # a run without a result file has no import_s and is left out
    assert pairs.import_medians(runs) == {"parent": 0.30, "change": statistics.median([0.4, 0.2])}
    assert pairs.import_medians(_runs([(10.0, 100.0)], [(9.0, 100.0)])) == {
        "parent": None, "change": None}
