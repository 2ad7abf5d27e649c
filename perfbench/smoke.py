"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 perfbench/smoke.py

Checks that BENCHMARK.json matches spec.py and the benchmark contract, that
every workload runs traced and untraced and prints every declared metric
with its unit, that deliberately corrupted outputs are caught by the
checks, and that the command fails without a result when the source tree
is missing.  It is named so that the repository's pytest run does not
collect it.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bootstrap  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN = [sys.executable, os.path.join(bootstrap.BENCH_DIR, "run.py")]
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_benchmark_json(spec) -> None:
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        on_disk = json.load(fh)
    expect(on_disk == spec.benchmark_json(), "BENCHMARK.json equals spec.benchmark_json()")
    expect(set(on_disk) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                            "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    expect(2 <= len(on_disk["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= on_disk["run_seconds"] <= 60, "run_seconds in 1..60")
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in on_disk[group]]
    expect(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
           "names are unique and well formed")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"]),
           "each why is one line of at most 200 characters")
    metrics = on_disk["end_to_end"] + on_disk["per_layer"]
    expect(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
           "units and directions are well formed")
    expect(all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"]), "bounds in (0, 0.25]")
    setup = [m for m in on_disk["end_to_end"] if m["name"] == "setup_s"]
    expect(setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in on_disk["end_to_end"])}],
           "setup_s is declared in seconds, lower is better, with the largest bound")
    expect(set(spec.MOVES) == {n for n, *_ in spec.PER_LAYER},
           "every per-layer metric names what it should move")


def check_runs(spec) -> None:
    for workload in spec.WORKLOADS:
        for trace, declared in ((0, spec.END_TO_END), (1, spec.PER_LAYER)):
            proc = subprocess.run(RUN + ["--workload", workload, "--seed", "3", "--seconds", "1",
                                         "--trace", str(trace), "--size", "tiny"],
                                  capture_output=True, text=True, timeout=300)
            what = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{what} exits 0 ({proc.stderr.strip()[-300:]})")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what} reports a correct run")
            got = result.get("metrics", {})
            want = {n: u for n, u, *_ in declared}
            expect(set(got) == set(want)
                   and all(got[n]["unit"] == u for n, u in want.items())
                   and all(isinstance(got[n]["value"], (int, float))
                           and math.isfinite(got[n]["value"]) for n in want),
                   f"{what} prints every declared metric with its unit")
            if trace == 0:
                expect(all(v["value"] > 0 for v in got.values()),
                       f"{what} end-to-end metrics are all positive")
            printed = {line.split(" = ")[0] for line in lines if " = " in line}
            expect(set(want) <= printed, f"{what} prints every metric by name")


def check_corruption_is_caught() -> None:
    bootstrap.prepare()
    from spangraph.graph import EntitySpan, IEGraph

    def other_than(graph):
        wrong = IEGraph((EntitySpan(0, 0, 0),), ())
        return wrong if graph != wrong else IEGraph((), ())

    import workloads

    workdir = workloads.scratch_dir()
    try:
        for name in ("decode-short", "decode-long"):
            wl = workloads.make(name, 5, workloads.TINY, workdir)
            wl.setup_times()
            wl.run(0.01)
            wl.check()
            expect(not wl.problems, f"{name}: clean outputs pass the checks")

            res = wl.results[0][0]
            good_graph, good_ids = res.graph, list(res.ids)
            res.graph = other_than(good_graph)
            wl.check()
            expect(bool(wl.problems) and wl.failed > 0, f"{name}: a wrong graph is caught")

            res.graph, wl.problems, wl.failed = good_graph, [], 0
            res.ids = good_ids[:-1]
            wl.check()
            expect(bool(wl.problems), f"{name}: a cut id sequence is caught")

            res.ids, wl.problems, wl.failed = good_ids, [], 0
            wl.predict_graphs[0] = [other_than(good_graph)] + list(wl.predict_graphs[0][1:])
            wl.check()
            expect(bool(wl.problems), f"{name}: a predict graph unlike generate's is caught")

        wl = workloads.make("train", 5, workloads.TINY, workdir)
        wl.setup_times()
        wl.run(0.01)
        wl.check()
        expect(not wl.problems, "train: clean run passes the checks")
        next(iter(wl.model.params.values())).data[0] += 1.0
        wl.check()
        expect(bool(wl.problems), "train: parameters unlike last.npz are caught")
    finally:
        workloads.remove(workdir)


def check_fails_without_source() -> None:
    out_dir = os.path.join(bootstrap.BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out_dir)
    try:
        shutil.copy(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(bootstrap.BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and '"metrics"' not in last[0],
               "without src/ the command exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    import spec

    check_benchmark_json(spec)
    check_fails_without_source()
    check_runs(spec)
    check_corruption_is_caught()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
