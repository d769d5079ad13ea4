"""Benchmark of `bireg experiment`: trials/s for each limit-law experiment.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; `bireg` is imported from its `src/`.
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json:
trials_per_s (median over whole dispatch calls), setup_s (median of
SETUPS fresh processes, each timed from its start to the end of one warm-up
call) and peak_rss_mb (of the measuring process, which runs only that
workload).  With --trace 1 it prints the per-layer metrics of a traced run,
and writes the span table to bench/out/trace-<workload>-<seed>.json.  The last
line of standard output is one JSON object; every report is checked for
correctness (checks.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUPS = 3
DEADLINE_S = 170.0  # the whole run, set-ups included


class Worker:
    """A worker.py process; READY and RESULT arrive on its stdout."""

    def __init__(self, args, mode, run_dir, deadline):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode, "--run-dir", str(run_dir)]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()

    def run(self) -> tuple:
        """Wait for the process; return (set-up seconds, result dict)."""
        setup, result = None, None
        try:
            for line in self.proc.stdout:
                if line.startswith("READY"):
                    setup = time.perf_counter() - self.start
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            rc = self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.kill()
            self.proc.wait()
        if rc != 0 or setup is None:
            raise RuntimeError(f"worker exited with code {rc}")
        return setup, result


def _end_to_end(args, run_dir, deadline) -> tuple:
    setups = []
    for _ in range(SETUPS - 1):
        setups.append(Worker(args, "setup", run_dir, deadline).run()[0])
    setup, result = Worker(args, "measure", run_dir, deadline).run()
    setups.append(setup)
    rates = result["trials_per_s"]
    metrics = {
        "trials_per_s": {"value": statistics.median(rates), "unit": "trials/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }
    print(f"# {args.workload}: {len(rates)} dispatch calls, {result['attempted']} trials, "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
    return result, metrics


def _per_layer(args, run_dir, deadline) -> tuple:
    _, result = Worker(args, "trace", run_dir, deadline).run()
    trace = result["trace"]
    units = {"_ms": "ms", "_mb": "MiB", "_pct": "%"}
    metrics = {
        name: {"value": value, "unit": next(u for s, u in units.items() if name.endswith(s))}
        for name, value in trace["metrics"].items()
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(trace, indent=2) + "\n")
    print(f"# {args.workload}: {trace['traced_trials']} traced trials; "
          f"untraced {trace['untraced_ms_per_trial']:.3f} ms/trial, "
          f"traced {trace['traced_ms_per_trial']:.3f} ms/trial; spans in {path.relative_to(ROOT)}")
    print("# span\tcalls\tmedian_ms\ttail")
    for name, row in trace["spans"].items():
        tail = next((f"{k[:-3]}={v:.3f}" for k, v in row.items() if k.startswith("p")), "-")
        print(f"# {name}\t{row['calls']}\t{row['median_ms']:.3f}\t{tail}")
    return result, metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds within 1..60")
    if not (ROOT / "src" / "bireg" / "__init__.py").is_file():
        print(f"error: no bireg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        measure = _per_layer if args.trace else _end_to_end
        result, metrics = measure(args, run_dir, deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for msg in result["failures"]:
        print(f"# CHECK FAILED: {msg}")
    for name, m in metrics.items():
        print(f"{args.workload}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
