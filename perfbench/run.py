"""The spangraph benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

Workloads are ``train``, ``decode-short`` and ``decode-long`` (see spec.py
for why each exists and what every metric means).  BLAS is pinned to one
thread before numpy loads.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures half the time untraced and half traced, reports the
per-layer metrics from the traced half and the tracing overhead as traced
minus untraced end-to-end numbers.  Outputs are checked outside the timed
region; any failure makes ``correct`` false and the exit code 1.  Result and
span files go to ``perfbench/out/``.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bootstrap  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("train", "decode-short", "decode-long"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - START
    workdir = workloads.scratch_dir()
    try:
        return measure(args, import_s, workdir)
    finally:
        workloads.remove(workdir)


def measure(args, import_s: float, workdir: str) -> int:
    import resource

    import header
    import hooks
    import layers
    import spec
    import workloads

    head = header.run_header(args.workload, args.seed, args.seconds, bool(args.trace))
    sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
    wl = workloads.make(args.workload, args.seed, sizes, workdir)
    if head["blas_threads_runtime"] not in (None, 1):
        wl.fail(0, f"BLAS runs {head['blas_threads_runtime']} threads, not 1")

    tracer = hooks.Tracer() if args.trace else None
    seconds = args.seconds / 2 if args.trace else args.seconds
    if tracer:
        tracer.install()
    try:
        setup_times = wl.setup_times()
    finally:
        if tracer:
            tracer.uninstall()
    wl.run(seconds)
    e2e = wl.metrics()
    samples = wl.samples()
    wl.check()
    overhead = per_layer = None
    if tracer:
        wl.reset_records()
        tracer.install()
        tracer.start_timed()
        try:
            wl.run(seconds)
        finally:
            tracer.uninstall()
        traced = wl.metrics()
        wl.check()
        per_layer = layers.layer_metrics(tracer)
        overhead = {k: traced[k] - v for k, v in e2e.items()
                    if isinstance(v, float) and k in traced}

    e2e["setup_s"] = import_s + workloads.median(setup_times)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    head["machine_probe_ms_at_end"] = header.machine_probe_ms()
    e2e["error_rate"] = wl.failed / max(1, wl.attempted)
    failed = min(wl.failed, wl.attempted)
    correct = not wl.problems

    units = {n: u for n, u, *_ in spec.END_TO_END + spec.PER_LAYER}
    print(f"# {args.workload} seed {args.seed}: {wl.attempted} ops attempted, "
          f"{failed} failed, set-ups {', '.join(f'{t:.3f}' for t in setup_times)} s")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {units.get(name, EXTRA_UNITS.get(name, ''))}".rstrip())
    if tracer:
        for name, value in per_layer.items():
            print(f"{name} = {value:.6g} {units.get(name, EXTRA_UNITS.get(name, ''))}")
        for name, value in overhead.items():
            print(f"tracing overhead {name} = {value:+.6g}")
    for problem in wl.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    stem = os.path.join(bootstrap.BENCH_DIR, "out", f"{args.workload}-seed{args.seed}")
    record = {
        "header": head,
        "attempted": wl.attempted,
        "failed": failed,
        "correct": correct,
        "problems": wl.problems,
        "setup_times_s": setup_times,
        "import_s": import_s,
        "end_to_end": e2e,
        "samples": samples,
        "per_layer": per_layer,
        "tracing_overhead": overhead,
        "definitions": spec.definitions(),
    }
    write_json(f"{stem}-trace{args.trace}.json", record)
    if tracer:
        write_json(f"{stem}-spans.json", {"header": head, **tracer.dump()})

    chosen = per_layer if tracer else e2e
    declared = spec.PER_LAYER if tracer else spec.END_TO_END
    metrics = {n: {"value": chosen[n], "unit": u} for n, u, *_ in declared}
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


# units of the workload-specific end-to-end figures kept beside the shared metrics
EXTRA_UNITS = {
    "train_step_ms": "ms", "train_tokens_per_s": "1/s", "decode_sentences_per_s": "1/s",
    "generate_ms.p50": "ms", "generate_ms.p90": "ms", "error_rate": "fraction",
    "mean_tokens_per_sentence": "count", "grammar.legal_mask.head_us": "us/call",
    "decode.entities": "count/op", "decode.max_triple_repeats": "count/op",
    "decode.generate.ms_per_symbol": "ms",
}


def write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, separators=(",", ":"))
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
