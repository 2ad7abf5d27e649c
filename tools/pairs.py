"""Alternating parent/change benchmark pairs, summarized per end-to-end metric.

    python3 tools/pairs.py --parent ../parent --change . --workload decode-short \
        --seeds 901-910 --seconds 15 --label decode-short

Both checkouts are local directories holding ``perfbench/`` and ``src/``
(for the parent, a ``git worktree`` or a ``git archive`` export).  For each
seed the tool runs ``perfbench/run.py --trace 0`` once in each checkout,
the parent first on odd seeds and the change first on even ones, so that a
drift in the host's speed falls on both sides alike.  It reads each run's
JSON result line and writes ``BENCH_<label>.json`` with, for every
end-to-end metric of the change's ``BENCHMARK.json``: the parent's median
and quartiles, the change's median, the pairs the change wins, and whether
the change is better in the median by more than the parent's interquartile
range.  Each metric with a ``bound`` also gets a no-regression verdict
(``no_regression``).  Every run's ``correct`` flag and metric values are
kept, with the import part of ``setup_s`` (from the run's result file)
beside them, and each side's median ``import_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text: str) -> list[int]:
    """``"901-910"``, ``"1,4,9"`` or a mix of both, in the order given."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def order(seed: int) -> tuple[str, str]:
    """Which side runs first for ``seed``: the parent on odd seeds."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def result_line(stdout: str) -> dict:
    """The JSON result, the last non-empty line ``run.py`` prints."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method; one value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def no_regression(parent: list[float], change: list[float], sign: float,
                  bound: float | None) -> str | None:
    """The change against a relative ``bound`` on how much worse it may be.

    ``regressed``: the change's median is worse than the parent's by more
    than ``bound`` of the parent's median.  ``unresolved``: not regressed, but
    the parent's IQR is wider than ``bound`` of its median, so a regression
    of that size could hide in the spread, and not every change run beats
    every parent run.  ``within_bound`` otherwise; None without a bound.
    ``sign`` is +1 where higher is better, -1 where lower is.
    """
    if bound is None:
        return None
    q1, parent_median, q3 = quartiles(parent)
    if -sign * (statistics.median(change) / parent_median - 1.0) > bound:
        return "regressed"
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if (q3 - q1) / abs(parent_median) > bound and not beats_all:
        return "unresolved"
    return "within_bound"


def import_medians(runs: list[dict]) -> dict[str, float | None]:
    """Each side's median ``import_s`` over the runs that report one."""
    out = {}
    for side in ("parent", "change"):
        values = [r["import_s"] for r in runs
                  if r["side"] == side and r.get("import_s") is not None]
        out[side] = statistics.median(values) if values else None
    return out


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict[str, dict]:
    """Per metric: the parent's quartiles, the change's median, wins and the IQR test.

    ``runs`` holds one record per run, ``{"seed", "side", "correct",
    "metrics": {name: value}}``; a pair is the two sides' runs of one seed.
    A pair is a win when the change is better; the gain clears the parent's
    IQR when the change's median is better than the parent's by more than
    the parent's third minus first quartile.  ``verdict`` is
    ``no_regression`` against the metric's ``bound``.
    """
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [sides for _, sides in sorted(by_seed.items()) if len(sides) == 2]
    out = {}
    for spec in end_to_end if pairs else []:
        name, sign = spec["name"], (1.0 if spec["better"] == "higher" else -1.0)
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        q1, parent_median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        gain = sign * (change_median - parent_median)  # > 0: the change is better
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec.get("bound"),
            "parent_median": parent_median,
            "parent_q1": q1,
            "parent_q3": q3,
            "change_median": change_median,
            "relative_change": change_median / parent_median - 1.0,
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "clears_parent_iqr": gain > q3 - q1,
            "verdict": no_regression(parent, change, sign, spec.get("bound")),
        }
    return out


def src_digest(checkout: str) -> str:
    """SHA-256 over the paths and bytes of every file under ``src/``: which code ran."""
    h = hashlib.sha256()
    root = os.path.join(checkout, "src")
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        line = result_line(proc.stdout)
    except ValueError as e:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} gave no result line ({e}):\n"
                         f"{proc.stderr[-2000:]}") from e
    record = {"correct": bool(line["correct"]),
              "metrics": {n: m["value"] for n, m in line["metrics"].items()}}
    result_file = os.path.join(checkout, "perfbench", "out",
                               f"{workload}-seed{seed}-trace0.json")
    if os.path.isfile(result_file):
        with open(result_file, encoding="utf-8") as fh:
            record["import_s"] = json.load(fh).get("import_s")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", default=".", help="checkout of the change (default: .)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 901-910 or 1,2,5")
    ap.add_argument("--seconds", required=True, type=float, help="seconds per run")
    ap.add_argument("--label", help="names the output BENCH_<label>.json (default: workload)")
    ap.add_argument("--out-dir", default=".", help="where BENCH_<label>.json goes")
    args = ap.parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(checkouts["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]

    runs = []
    for seed in args.seeds:
        for side in order(seed):
            record = run_once(checkouts[side], args.workload, seed, args.seconds)
            runs.append({"seed": seed, "side": side, **record})
            print(f"seed {seed} {side}: correct {record['correct']} "
                  + " ".join(f"{n}={v:.6g}" for n, v in record["metrics"].items()), flush=True)
    summary = summarize(runs, end_to_end)
    label = args.label or args.workload
    report = {
        "label": label,
        "workload": args.workload,
        "seconds_per_run": args.seconds,
        "seeds": args.seeds,
        "order": "parent first on odd seeds, change first on even seeds",
        "src_sha256": {side: src_digest(path) for side, path in checkouts.items()},
        "all_correct": all(r["correct"] for r in runs),
        "import_s_median": import_medians(runs),
        "metrics": summary,
        "runs": runs,
    }
    path = os.path.join(args.out_dir, f"BENCH_{label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, s in summary.items():
        print(f"{name}: parent {s['parent_median']:.6g} [{s['parent_q1']:.6g}, "
              f"{s['parent_q3']:.6g}] -> change {s['change_median']:.6g} {s['unit']} "
              f"({s['relative_change']:+.1%}), wins {s['wins']}/{s['pairs']}, "
              f"clears IQR: {s['clears_parent_iqr']}, verdict: {s['verdict']}")
    print(f"import_s median: {report['import_s_median']}")
    print(f"wrote {path}")
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
