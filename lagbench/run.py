"""Benchmark of the lagdelay package, end to end and layer by layer.

Run from the root of a checkout of the repository:

    python3 lagbench/run.py --workload design --seed 1 --seconds 30 --trace 0

Workloads are ``design``, ``montecarlo`` and ``walkthrough`` (see
``workloads.py`` and NOTES.md). Each is a closed loop with one client in
this process: the timed phase repeats passes of the workload's fixed size
until the next one would end after ``--seconds``. It always runs at least one.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics with the
tracing overhead. The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Every output check runs in both modes; a failed check makes ``correct``
false and counts as a failed operation.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / "work"

# Set-up runs this many extra times, each in a fresh process, and setup_s is
# the median over them and this process.
SETUP_PROBES = 4

# OpenBLAS threads pinned per workload, set in this process before numpy is
# imported. Only walkthrough pins: at the default (2 threads on 2 cores) its
# per-dataset p50 drifted 2x between runs, which measured the scheduler.
# design and montecarlo keep the default, where the thread hand-off cost on
# small LAPACK calls is part of what a user waits for.
PINNED_BLAS_THREADS = {"walkthrough": 1}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design", "montecarlo", "walkthrough"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: measure set-up only and print it (used for the set-up probes)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_runtime_threads() -> dict:
    """Thread count each loaded OpenBLAS library reports, by library file."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
    except OSError:
        return {}
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads[Path(path).name] = fn()
                break
    return threads


def environment(workload) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        blas = module.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"

    pinned = PINNED_BLAS_THREADS.get(workload.name)
    return {
        "workload": workload.name,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas_version(numpy),
        "blas_scipy": blas_version(scipy),
        "blas_threads_setting": (f"OPENBLAS_NUM_THREADS={pinned} (pinned by the workload)"
                                 if pinned else
                                 f"default (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')})"),
        "blas_threads_runtime": _openblas_runtime_threads(),
        "workers": workload.workers,
    }


def percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def repeat_for(step, seconds) -> list:
    """Call ``step`` while the next call, at the median call time so far, ends
    within ``seconds``; at least once. Returns the results."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lagdelay" / "__init__.py").is_file():
        print(f"error: lagdelay sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    pinned = PINNED_BLAS_THREADS.get(args.workload)
    if pinned is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = str(pinned)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))

    setup_start = time.perf_counter()
    import workloads  # imports lagdelay, numpy and scipy

    if not Path(workloads.lagdelay.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported lagdelay from {workloads.lagdelay.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR / args.workload)
    try:
        workload.load()
        workload.warm_up()
        setup = time.perf_counter() - setup_start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        setups = [setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]

        if args.trace:
            from tracing import Tracer, layer_metrics

            tracer = Tracer()

            def traced_pass():
                with tracer:
                    return workload.run_pass(tracer)

            # untraced and traced passes alternate, so that drift of the
            # machine's speed falls on both sides of the overhead alike
            pairs = repeat_for(lambda: (workload.run_pass(), traced_pass()), args.seconds)
            untraced = [u for u, _ in pairs]
            traced = [t for _, t in pairs]
            all_passes = untraced + traced
        else:
            all_passes = repeat_for(workload.run_pass, args.seconds)
    finally:
        workload.close()

    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    problems = [msg for p in all_passes for msg in p.problems]
    latencies = [x for p in all_passes for x in p.latencies]
    walls = [p.wall for p in all_passes]
    if args.trace:
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics["cli.output_bytes"] = metric(
            statistics.fmean(p.output_bytes for p in traced), "bytes")
        metrics["simulate.dataset_bytes"] = metric(
            statistics.fmean(p.dataset_bytes for p in traced), "bytes")
        metrics["failed_frac"] = metric(failed / attempted, "ratio")
        traced_wall = statistics.median(p.wall for p in traced)
        untraced_wall = statistics.median(p.wall for p in untraced)
        metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
        metrics["trace.overhead_frac"] = metric(traced_wall / untraced_wall - 1.0, "ratio")
        tracer.write_csv(WORKDIR / f"spans-{args.workload}.csv")
    else:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "latency_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
            "latency_p90_ms": metric(1e3 * percentile(latencies, 90), "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_frac": metric(1.0 - failed / attempted, "ratio"),
        }

    record = {
        "environment": environment(workload),
        "args": vars(args),
        "passes": len(all_passes),
        "pass_walls_s": walls,
        "traced_passes": len(traced) if args.trace else 0,
        "latency_samples": len(latencies),
        "samples_beyond_p90": len(latencies) - math.ceil(0.9 * len(latencies)),
        "setup_samples_s": setups,
        "problems": problems[:50],
        "metrics": metrics,
    }
    with open(WORKDIR / f"record-{args.workload}.json", "w") as f:
        json.dump(record, f, indent=2)
    for msg in problems[:20]:
        print(f"CHECK FAILED: {msg}")
    print("environment: " + json.dumps(record["environment"]))
    print(f"passes: {record['passes']} (traced {record['traced_passes']}), latency samples: "
          f"{record['latency_samples']} ({record['samples_beyond_p90']} beyond p90)")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
