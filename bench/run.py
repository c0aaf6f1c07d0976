"""Benchmark of the cornerflow pipeline: profile solve, reconstruction of U
and the oracle time march.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

It imports the package from the src/ beside this directory. A run builds
the kernel table three times and does the workload's own set-up, then
repeats whole rounds of the workload's operations until --seconds have
passed, and checks every output. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Each run also writes bench/results/<workload>-seed<N>-trace<T>.json.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TABLE_BUILDS = 3
DEFAULT_SECONDS = 6
UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def environment():
    import numpy
    import scipy
    from cornerflow import _backend
    return {"backend": _backend.name,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": _blas_threads(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "commit": _commit()}


@contextmanager
def _no_span(name, count=0):
    yield [name, -1, 0.0, 0.0, count]


def run_workload(cls, seed, seconds, tracer):
    """Set up, measure whole rounds for `seconds`, check every output."""
    from cornerflow import CornerflowError, kernel
    span = tracer.span if tracer else _no_span
    builds = []
    for _ in range(TABLE_BUILDS):
        t0 = time.perf_counter()
        table = kernel.build_kernel_table()
        builds.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    wl = cls(table, seed)
    own_setup = time.perf_counter() - t0
    first = len(tracer.spans) if tracer else 0
    round_means, op_times, worst, errors = [], [], {}, []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        outs = []
        for op in wl.ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                with span("op") as rec:
                    out = wl.run(op)
                    # a solve's Picard iterations; other outputs have none
                    rec[4] = getattr(out, "iterations", 0)
            except CornerflowError as exc:
                failed += 1
                errors.append(f"{op!r}: {exc!r}")
                out = None
            op_times.append(time.perf_counter() - t0)
            outs.append(out)
        round_means.append(statistics.fmean(op_times[-len(wl.ops):]))
        for name, gap, gate in wl.check(outs):
            prev = worst.get(name)
            if prev is None or not gap <= prev["gap"]:
                worst[name] = {"gap": gap, "gate": gate, "ok": gap <= gate}
        if time.perf_counter() - start >= seconds:
            break
    if tracer:
        metrics = tracer.layer_metrics(first, attempted)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"op_s": statistics.median(round_means),
                   "setup_s": statistics.median(builds) + own_setup,
                   "peak_rss_mib": rss}
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in metrics.items()}
    return {"workload": wl.name, "seed": seed, "seconds": seconds,
            "trace": bool(tracer), "inputs": [repr(op) for op in wl.ops],
            "correct": all(c["ok"] for c in worst.values()),
            "attempted": attempted, "failed": failed, "errors": errors,
            "rounds": len(round_means), "checks": worst, "metrics": metrics,
            "table_builds_s": builds, "own_setup_s": own_setup,
            "op_times_s": op_times,
            "spans": tracer.summary(first) if tracer else None,
            "absent": sorted(tracer.absent) if tracer else None}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cornerflow" / "__init__.py").is_file():
        print(f"bench: no package at {ROOT / 'src' / 'cornerflow'}; run "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller sets one: on 2 shared cores a
    # second thread made a solve no faster (3.29 against 3.19 s) and the
    # table build less steady. It must be set before numpy loads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of "
                 f"{', '.join(WORKLOADS)} or all")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    results = []
    for name in names:
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracing.install(tracer)
        try:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                               tracer)
        finally:
            if tracer:
                tracer.restore()
        res["environment"] = env
        results.append(res)
        out = HERE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(res, indent=1) + "\n")
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"rounds {res['rounds']} correct {res['correct']}")
        for check, c in res["checks"].items():
            print(f"  check {check}: {c['gap']:.3e} (gate {c['gate']:.3e})")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']} {m['unit']}")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
