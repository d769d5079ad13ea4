#!/usr/bin/env python3
"""Byte identity of the package's outputs between a base revision and the working tree.

    python tools/identity.py --base <rev>

Checks out <rev> in a temporary git worktree, then runs a fixed list of
outputs once on each tree, each in a fresh Python process with PYTHONPATH on
that tree's src/: all four experiments on both samplers at 1 and 2 workers,
one ``poisson`` run large enough that its 2-worker run forks a child,
``walks`` tables, ``hypergraph check``, ``switchings`` tables, the
``valid_switchings`` spec lists of criterion-9 graphs, ``sample`` JSON,
``spectrum`` output and ``spectrum --density`` curves.  The child process
sets its worker count through its CPU affinity; on a 1-CPU host the 2-worker
runs are skipped.

It prints the SHA-256 of each output on both sides, then the outputs that
differ or failed.  It is a report: it exits 0 whether or not outputs
differ, and stores no hashes, since eigenvalue bytes depend on the BLAS
build and only a comparison on one machine means anything.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the child: pin the CPUs, check which tree it imports, run one output's code
CHILD = """
import json, os, sys
src, workers, code = sys.argv[1], int(sys.argv[2]), sys.argv[3]
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:workers])
import bireg
from bireg import cli
assert bireg.__file__.startswith(src), f"imported {bireg.__file__}, not the package under {src}"

def run(*argv):
    status = cli.dispatch([str(a) for a in argv])
    if status:
        sys.exit(status)

def show(path):
    with open(path) as fh:
        sys.stdout.write(fh.read())

def experiment(name, params):
    with open("config.json", "w") as fh:
        json.dump({"experiment": name, "seed": 11, "params": params}, fh)
    run("experiment", "--config", "config.json")

exec(code)
"""

EXPERIMENTS = [
    ("poisson", {"n": 60, "m": 60, "d1": 3, "d2": 3, "r": 3, "samples": 40}),
    ("fluctuation-fixed", {"n": 60, "d1": 3, "d2": 3, "expansion": "exp", "samples": 16, "use_eigenvalues": False}),
    ("fluctuation-fixed", {"n": 60, "d1": 3, "d2": 3, "expansion": "exp", "samples": 16, "use_eigenvalues": True}),
    ("fluctuation-growing", {"n": 40, "d1": 4, "d2": 4, "expansions": ["phi_2", "phi_3"], "samples": 8}),
    ("globallaw", {"n": 120, "d1": 4, "d2": 3, "samples": 4, "model": "fixed-degree"}),
]

# the runs above are too small to fork; a child's 100 trials of this run, at
# about 0.5 ms each on a 2-vCPU host, clear experiments.FORK_COST_S
FORKED = ("poisson", {"n": 300, "m": 300, "d1": 3, "d2": 3, "r": 3, "samples": 200, "keep_samples": True})

# a (3,4)-biregular graph with n != m, written to g.json
SAMPLE = 'run("sample", "--n", 40, "--m", 30, "--d1", 3, "--d2", 4, "--seed", 5, "--out", "g.json")\n'
SWITCHING_GRAPH = 'run("sample", "--n", 12, "--m", 12, "--d1", 3, "--d2", 3, "--seed", 3, "--out", "g.json")\n'
SPEC_LISTS = """
from bireg.sampler import sample_configuration, trial_rng
from bireg.switching import Cycle, short_cycles, valid_switchings

def spec(s):
    return (s.alpha.vertices, tuple(map(int, s.e)), tuple(map(int, s.e_prime)))

for t in range(3):
    g = sample_configuration(12, 12, 3, 3, trial_rng(3000, t), 10**5)
    for alpha in short_cycles(g, 3):
        print("forward", alpha.vertices, [spec(s) for s in valid_switchings(g, alpha, 3, "forward")])
    for alpha in (Cycle((0, 0, 1, 1)), Cycle((0, 2, 5, 7, 9, 4))):
        print("backward", alpha.vertices, [spec(s) for s in valid_switchings(g, alpha, 3, "backward")])
"""


def outputs() -> list:
    """(name, workers, code) of every output, in report order."""
    out = []
    for name, params in EXPERIMENTS:
        for method in ("exact-rejection", "switch-chain"):
            for workers in (1, 2):
                label = name + (" use_eigenvalues" if params.get("use_eigenvalues") else "")
                code = f"experiment({name!r}, {dict(params, method=method)!r})"
                out.append((f"experiment {label} {method} workers={workers}", workers, code))
    out.append(("experiment poisson (3,3,300) samples=200 workers=2", 2, f"experiment(*{FORKED!r})"))
    for method in ("exact-rejection", "switch-chain"):
        code = f'run("sample", "--n", 40, "--m", 30, "--d1", 3, "--d2", 4, "--seed", 5, "--method", {method!r}, "--out", "g.json")\nshow("g.json")'
        out.append((f"sample {method}", 1, code))
    for r in (1, 3, 5):
        out.append((f"walks r={r}", 1, SAMPLE + f'run("walks", "--in", "g.json", "--r", {r})'))
    out.append(("spectrum eigenvalues", 1, SAMPLE + 'run("spectrum", "--in", "g.json")'))
    out.append(("spectrum histogram", 1, SAMPLE + 'run("spectrum", "--in", "g.json", "--bins", 20)'))
    out.append(("identity residuals", 1, SAMPLE + 'run("identity", "--in", "g.json", "--kmax", 8)'))
    for law in ("semicircle", "fixed-degree", "shifted-mp"):
        code = SAMPLE + f'run("spectrum", "--in", "g.json", "--density", {law!r}, "--alpha", 2.5)'
        out.append((f"spectrum --density {law}", 1, code))
    for n, d1, d2 in ((30, 3, 3), (24, 2, 4)):
        code = (
            f'run("hypergraph", "sample", "--n", {n}, "--d1", {d1}, "--d2", {d2}, "--seed", 7, "--out", "h.json")\n'
            'show("h.json")\nrun("hypergraph", "check", "--in", "h.json", "--kmax", 4)'
        )
        out.append((f"hypergraph sample and check ({n},{d1},{d2})", 1, code))
    for r in (2, 3):
        out.append((f"switchings r={r}", 1, SWITCHING_GRAPH + f'run("switchings", "--in", "g.json", "--r", {r})'))
    out.append(("valid_switchings spec lists", 1, SPEC_LISTS))
    return out


def run_output(src: Path, workers: int, code: str, scratch: str) -> tuple:
    """(sha256 of stdout, None) or (None, the failure) for one output on one tree."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory(dir=scratch) as cwd:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(src), str(workers), code],
            cwd=cwd, env=env, capture_output=True,
        )
    if proc.returncode:
        lines = proc.stderr.decode(errors="replace").strip().splitlines() or [""]
        return None, f"exit {proc.returncode}: {lines[-1]}"
    return hashlib.sha256(proc.stdout).hexdigest(), None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    cpus = len(os.sched_getaffinity(0))
    everything = outputs()
    todo = [o for o in everything if o[1] <= cpus]
    if len(todo) < len(everything):
        print(f"# {cpus} CPU: the 2-worker runs were skipped")
    with tempfile.TemporaryDirectory(prefix="identity-") as scratch:
        base = Path(scratch) / "base"
        made = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(base), args.base])
        if made.returncode:
            print(f"error: cannot check out {args.base!r}", file=sys.stderr)
            return 2
        differ = []
        try:
            print("output\tbase\thead")
            for name, workers, code in todo:
                sides = [run_output(tree / "src", workers, code, scratch) for tree in (base, ROOT)]
                print("\t".join([name] + [digest or f"failed ({error})" for digest, error in sides]))
                if sides[0][0] is None or sides[0][0] != sides[1][0]:
                    differ.append(name)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)])
    print(f"# {len(todo)} outputs, {len(differ)} differ or failed" + "".join(f"\n{name}" for name in differ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
