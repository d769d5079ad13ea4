"""One benchmark process: set up, then measure one workload.

Started by run.py, never by hand.  It imports `bireg` from the checkout's
`src/`, makes one warm-up call, and prints READY; that ends set-up.  In
`setup` mode it exits there.  In `measure` mode it then runs `bireg
experiment --config <json>` calls (`bireg.cli.dispatch`, in-process, no
`--threads`) until --seconds of dispatch time have passed, checks every
report, and prints one RESULT line.  In `trace` mode half of the time goes
to untraced calls and half to the traced per-layer run of tracing.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))


def _import_bireg():
    import bireg
    from bireg.cli import dispatch

    if not Path(bireg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bireg imported from {bireg.__file__}, not from the checkout")
    return dispatch


def _run_call(dispatch, workload, seed, call, run_dir, samples=None):
    """One timed dispatch call; returns (config, seconds, exit code)."""
    report = run_dir / f"report-{call}.json"
    config = workload.config(seed, call, str(report), samples)
    path = run_dir / f"config-{call}.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints "wrote <path>"
        t0 = perf_counter()
        rc = dispatch(["experiment", "--config", str(path)])
        dt = perf_counter() - t0
    return config, dt, rc


def _measure(dispatch, workload, seed, seconds, run_dir):
    """Whole calls until `seconds` of dispatch time; returns the call records."""
    calls = []
    spent = 0.0
    while spent < seconds:
        config, dt, rc = _run_call(dispatch, workload, seed, len(calls), run_dir)
        calls.append((config, dt, rc))
        spent += dt
    return calls


def _check(calls) -> tuple:
    from checks import check_report

    failures = []
    failed = 0
    for config, _, rc in calls:
        if rc != 0:
            failed += config["params"]["samples"]
            continue
        report = json.loads(Path(config["output"]).read_text())
        failures += [f"seed {config['seed']}: {msg}" for msg in check_report(config, report)]
    return failed, failures


def _trace(calls, seconds) -> dict:
    """Traced per-layer run over the trial graphs of the untraced calls."""
    from tracing import PEAK_METRICS, TIME_METRICS, Spans, TracedWorkload

    spans = Spans()
    walls = []  # ms of each traced trial's blocking section
    traced = None
    for config, t in [(c, t) for c, _, _ in calls for t in range(c["params"]["samples"])]:
        if sum(walls) >= seconds * 1e3 and len(walls) >= 3:
            break
        if traced is None or traced.config is not config:
            traced = TracedWorkload(config)
            traced.prepare(spans)
        walls.append(traced.trial(spans, t))
    peaks = traced.peaks()
    untraced_ms = statistics.median(dt / c["params"]["samples"] for c, dt, _ in calls) * 1e3
    blocking_ms = sum(spans.median(name) * k for name, k in traced.blocking.items())
    # the traced trial section leaves out per-call spans; add their share
    traced_ms = statistics.median(walls) + sum(
        spans.median(name) * k for name, k in traced.blocking.items() if k < 1
    )
    metrics = {m: spans.median(name) for m, name in TIME_METRICS.items()}
    metrics.update({m: peaks.get(name, 0.0) for m, name in PEAK_METRICS.items()})
    metrics["experiments.trial_loop_overhead_ms"] = untraced_ms - blocking_ms
    metrics["tracing.overhead_pct"] = 100.0 * (traced_ms - untraced_ms) / untraced_ms
    return {
        "metrics": metrics,
        "spans": spans.summary(),
        "traced_trials": len(walls),
        "untraced_ms_per_trial": untraced_ms,
        "traced_ms_per_trial": traced_ms,
        "blocking": traced.blocking,
    }


def _machine() -> dict:
    """Cores, BLAS, numba and versions, for the trace file."""
    import importlib.util
    import os
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "blas": f"{blas['name']} {blas['version']}",
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--run-dir", type=Path, required=True)
    args = ap.parse_args(argv)

    dispatch = _import_bireg()
    from workloads import WARMUP_CALL, WARMUP_SAMPLES, WORKLOADS

    workload = WORKLOADS[args.workload]
    _, _, rc = _run_call(dispatch, workload, args.seed, WARMUP_CALL, args.run_dir, WARMUP_SAMPLES)
    if rc != 0:
        print(f"warm-up call failed with exit code {rc}", file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    seconds = args.seconds if args.mode == "measure" else args.seconds / 2
    calls = _measure(dispatch, workload, args.seed, seconds, args.run_dir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "attempted": sum(c["params"]["samples"] for c, _, _ in calls),
        "trials_per_s": [c["params"]["samples"] / dt for c, dt, _ in calls],
        "peak_rss_mb": peak_rss_mb,
    }
    if args.mode == "trace":
        result["trace"] = _trace(calls, seconds)
        result["trace"]["machine"] = _machine()
    result["failed"], result["failures"] = _check(calls)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
