"""The run header every result file carries: machine, versions, BLAS threads, source."""

from __future__ import annotations

import ctypes
import datetime
import hashlib
import os
import platform
import statistics
import time

import numpy as np
import scipy

import bootstrap

# thread-count getters of the OpenBLAS builds numpy ships with or links to
_OPENBLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when no OpenBLAS is found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _blas_version() -> str | None:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return None
    return f"{info.get('name')} {info.get('version')}"


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = os.path.join(bootstrap.ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(bootstrap.ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over the paths and bytes of every file under src/, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(bootstrap.SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, bootstrap.SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def machine_probe_ms(reps: int = 7) -> float:
    """Median time of a fixed pure-Python loop: how fast this host runs right now.

    It reads nothing of spangraph, so comparing it between runs separates a
    slow host phase from a slow program.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def run_header(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(),
        "blas_env": {var: os.environ.get(var) for var in bootstrap.BLAS_VARS},
        "blas_threads_runtime": blas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": source_digest(),
        "machine_probe_ms_at_start": machine_probe_ms(),
    }
