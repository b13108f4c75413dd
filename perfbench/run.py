"""opsis benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; opsis is imported from the ``src`` directory next to this
one.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The line before it records the environment, the input
fingerprint, the sample counts and the plain wall times.  ``--workload all``
runs every workload in its own process and prints a table of the metrics
instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11  # one set-up before the first request, the rest spread over the run
# Request and set-up times are reported at a fixed host speed: each wall
# time is multiplied by REFERENCE_WORK_S over the time of reference_work_s()
# run just before it on the same thread.  The shared host this benchmark was
# written on changes speed by up to 1.6x for minutes at a time, which no
# length of run averages out; the ratio cancels it (see README).  The value
# is the reference work's wall time on that host when it is quiet (2-core
# Xeon VM, Python 3.11, numpy 2.4.6), so the figures read as quiet-host
# seconds there.
REFERENCE_WORK_S = 0.007
WARMUP_REQUESTS = 2  # untimed requests after the first set-up; one after each later one
MIN_PASSES = 3  # every input is timed at least this often, and
MIN_SAMPLES = 100  # at least this many requests are timed in all
DEADLINE_S = 150.0  # stop measuring by then, so the process ends well within 180 s
WORKLOAD_NAMES = ("cli_reconstruct", "kit_stream", "lattice_scan")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def single_blas_thread() -> int:
    """Run BLAS on the client's own thread; must run before numpy loads.

    A second BLAS thread is an extra thread beside the one client, and on a
    shared host its barrier waits make every BLAS call as slow as the most
    contended core.  Returns the usable core count.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_runtime():
    """(configuration string, thread count) of the loaded OpenBLAS, or Nones."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        lib = ctypes.CDLL(paths[0])
    except (OSError, IndexError):
        return None, None
    found = {}
    for what, restype in (("get_config", ctypes.c_char_p), ("get_num_threads", ctypes.c_int)):
        for name in (f"scipy_openblas_{what}64_", f"openblas_{what}64_", f"openblas_{what}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, []
                found[what] = fn()
                break
    config = found.get("get_config")
    return (config.decode() if config else None), found.get("get_num_threads")


def environment(nproc: int) -> dict:
    import numpy as np

    config, threads = blas_runtime()
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "openblas": config,
            "blas_threads": threads or int(os.environ["OPENBLAS_NUM_THREADS"]),
            "load_1min": os.getloadavg()[0]}


def fresh_import(module: str):
    """Import ``module`` with every opsis module loaded anew, as in a new process."""
    for name in [n for n in sys.modules if n == "opsis" or n.startswith("opsis.")]:
        del sys.modules[name]
    importlib.import_module(module)
    return sys.modules["opsis"]


def reference_work_s() -> float:
    """Wall seconds of fixed work that does not involve opsis.

    A pure-Python loop and small complex FFTs and elementwise numpy
    operations: the two kinds of work opsis requests consist of.
    """
    import numpy as np

    t0 = time.perf_counter()
    total = 0
    for k in range(30_000):
        total += k * k
    a = np.random.default_rng(0).standard_normal((60, 60)) * (1 + 1j)
    for _ in range(20):
        a = np.roll(np.fft.fft2(a) / 60.0, 3, axis=0) * np.exp(1j * np.angle(a))
    return time.perf_counter() - t0


def timed_setup(workload) -> float:
    """Wall time from ``import opsis`` to readiness for the first request."""
    t0 = time.perf_counter()
    opsis = fresh_import(workload.entry_module)
    workload.prepare(opsis)
    elapsed = time.perf_counter() - t0
    # The replaced modules and workload state are cyclic garbage; free them
    # now, so that neither later timings nor the peak RSS depend on when the
    # collector would have run.
    gc.collect()
    return elapsed


def timed_request(workload, i):
    """(wall seconds, result, problem); problem is None for a correct request."""
    t0 = time.perf_counter()
    try:
        result = workload.request(i)
    except Exception:  # a failed request is counted, never fatal
        return time.perf_counter() - t0, None, traceback.format_exc(limit=3)
    return time.perf_counter() - t0, result, None


def quantile(sorted_values, q: float) -> float:
    """Linear-interpolation quantile of a sorted, non-empty list."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def checked(workload, i, result):
    try:
        return workload.check(i, result)
    except Exception:  # a check that cannot run counts the request as failed
        return "check raised:\n" + traceback.format_exc(limit=3)


def run_workload(name: str, seed: int, seconds: float, trace: bool, sizes=None):
    """Run one workload in this process; returns (result, info)."""
    import workloads
    from tracing import Tracer

    process_start = time.perf_counter()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.WORKLOADS[name](seed, workdir, **(sizes or {}))
        counts = {"attempted": 0, "failed": 0}
        problems = []

        def record(i, result, problem):
            counts["attempted"] += 1
            problem = problem or checked(workload, i, result)
            if problem:
                counts["failed"] += 1
                if len(problems) < 3:
                    problems.append(f"request {i}: {problem}")
            return problem is None

        setup_times = []  # at reference speed
        setup_wall = []

        def set_up():
            ref = reference_work_s()
            wall = timed_setup(workload)
            setup_wall.append(wall)
            setup_times.append(wall * REFERENCE_WORK_S / ref)

        tracer = None
        if trace:
            opsis = fresh_import(workload.entry_module)
            tracer = Tracer()
            with tracer.alloc_probe():
                workload.prepare(opsis)
            workloads.clear_phase_space_caches()
            with tracer.spans("setup"):
                workload.prepare(opsis)
            workload.before_request(0)
            with tracer.alloc_probe():
                _, result, problem = timed_request(workload, 0)
            record(0, result, problem)
            first = 1
        else:
            set_up()
            for w in range(WARMUP_REQUESTS):  # checked, not timed
                workload.before_request(w)
                _, result, problem = timed_request(workload, w)
                record(w, result, problem)
            first = WARMUP_REQUESTS

        # wall seconds of each untraced and each traced request
        times = {"plain": [], "traced": []}
        # input -> seconds at reference speed of its correct untraced runs
        per_input = defaultdict(list)
        n = workload.n_inputs
        i = first
        loop_start = time.perf_counter()
        # Later set-ups are spread over the run, so that their median, like
        # the request figures, covers the whole run and not its first seconds.
        setup_every = seconds / SETUP_REPEATS
        next_setup = loop_start + setup_every
        warm_up = False
        while True:
            now = time.perf_counter()
            if not trace and len(setup_times) < SETUP_REPEATS and now >= next_setup:
                set_up()
                next_setup += setup_every
                warm_up = True
            if now - process_start >= DEADLINE_S:
                break
            if now - loop_start >= seconds:
                if trace and min(len(t) for t in times.values()) >= 2:
                    break
                if not trace and len(times["plain"]) >= max(MIN_PASSES * n, MIN_SAMPLES):
                    break
            workload.before_request(i)
            kind = "traced" if trace and i % 2 == 1 else "plain"
            if warm_up:  # checked, not timed; the same input is timed next
                _, result, problem = timed_request(workload, i)
                record(i, result, problem)
                warm_up = False
                continue
            if kind == "traced":
                with tracer.spans("request") as unit:
                    wall, result, problem = timed_request(workload, i)
                    unit["wall_s"] = wall
            else:
                ref = reference_work_s()
                wall, result, problem = timed_request(workload, i)
            times[kind].append(wall)
            if record(i, result, problem) and kind == "plain":
                per_input[i % n].append(wall * REFERENCE_WORK_S / ref)
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"perfbench {name}: {p}", file=sys.stderr)

    plain = times["plain"]
    if trace:
        overhead = statistics.median(times["traced"]) / statistics.median(plain)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = tracer.per_layer(spec, workload.L, overhead)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        latency = sorted(statistics.fmean(v) for v in per_input.values()) or [math.inf]
        ok = [t for v in per_input.values() for t in v]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "request_p50_s": {"value": quantile(latency, 0.5), "unit": "s"},
            "request_p90_s": {"value": quantile(latency, 0.9), "unit": "s"},
            "throughput_rps": {"value": len(ok) / sum(ok) if ok else 0.0, "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "success_rate": {
                "value": 100.0 * (counts["attempted"] - counts["failed"]) / counts["attempted"],
                "unit": "%"},
        }
    result = {"correct": counts["failed"] == 0, "attempted": counts["attempted"],
              "failed": counts["failed"], "metrics": metrics}
    info = {"workload": name, "seed": seed, "trace": int(trace),
            "inputs_sha256": workload.fingerprint(),
            "inputs": n,
            "samples": {k: len(v) for k, v in times.items()},
            "wall_request_p50_s": statistics.median(plain) if plain else None,
            "wall_setup_s": setup_wall,
            "error_rate": counts["failed"] / counts["attempted"],
            "wall_s": time.perf_counter() - process_start}
    return result, info


def run_all(args) -> int:
    """Run each workload in its own process and print every metric by name and unit."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=240)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
        info = json.loads(lines[-2])
        rows.append((name, "samples", sum(info["samples"].values()), "count"))
    width = max(len(r[1]) for r in rows) if rows else 10
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:{width}s} {value:14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "opsis" / "__init__.py").is_file():
        print(f"perfbench: no opsis sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc = single_blas_thread()
    sys.path.insert(0, str(SRC))
    result, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    info["env"] = environment(nproc)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
