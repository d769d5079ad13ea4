#!/usr/bin/env python3
"""Byte identity of the package's outputs between a base revision and the working tree.

    python tools/identity.py --base <rev>

Checks out <rev> in a temporary git worktree, then runs a fixed list of
outputs once on each tree, each in a fresh Python process with PYTHONPATH on
that tree's src/: all four experiments on both samplers at 1 and 2 workers,
one ``poisson`` run large enough that its 2-worker run forks a child,
``walks`` tables, ``walk_counts`` lists at every horizon up to 16 on three
sampled graphs and up to 40 on K_{3,3} (whose products pass every tier),
``hypergraph check``, ``switchings`` tables, forward and backward
``valid_switchings`` spec lists of criterion-9 and sparse (2,2) graphs,
forward lists of a (12,8,2,3) graph's 6-cycles, ``sample`` JSON,
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
SPECS = """
from bireg.sampler import sample_configuration, trial_rng
from bireg.switching import Cycle, short_cycles, valid_switchings

def spec(s):
    return (s.alpha.vertices, s.e, s.e_prime)
"""
# the criterion-9 graphs: at r = 3 every list is empty, so the r = 2 forward
# lists (3048 specs) are what compares the enumeration
SPEC_LISTS = SPECS + """
for t in range(3):
    g = sample_configuration(12, 12, 3, 3, trial_rng(3000, t), 10**5)
    for alpha in short_cycles(g, 3):
        print("forward", alpha.vertices, [spec(s) for s in valid_switchings(g, alpha, 3, "forward")])
    for alpha in (Cycle((0, 0, 1, 1)), Cycle((0, 2, 5, 7, 9, 4))):
        print("backward", alpha.vertices, [spec(s) for s in valid_switchings(g, alpha, 3, "backward")])
"""
FORWARD_R2 = SPECS + """
for t in range(3):
    g = sample_configuration(12, 12, 3, 3, trial_rng(3000, t), 10**5)
    for alpha in short_cycles(g, 2):
        print("forward", alpha.vertices, [spec(s) for s in valid_switchings(g, alpha, 2, "forward")])
"""
# the two 6-cycles of a (12,8,2,3) graph, whose r = 3 forward lists (151
# specs each) pick one of the 2^3 labellings of each pair choice
FORWARD_K3 = SPECS + """
g = sample_configuration(12, 8, 2, 3, trial_rng(3100, 0), 10**6)
for alpha in short_cycles(g, 3):
    if alpha.k == 3:
        print("forward", alpha.vertices, [spec(s) for s in valid_switchings(g, alpha, 3, "forward")])
"""
# sparse (2,2) graphs, on which backward switchings exist (13 specs)
BACKWARD = SPECS + """
for t in range(5):
    g = sample_configuration(10, 10, 2, 2, trial_rng(99, t))
    for alpha in (Cycle((0, 0, 1, 1)), Cycle((2, 3, 5, 7)), Cycle((0, 2, 5, 7, 9, 4))):
        for r in range(alpha.k, 4):
            print("backward", r, alpha.vertices, [spec(s) for s in valid_switchings(g, alpha, r, "backward")])
"""

# walk_counts(g, k) at every k up to each graph's horizon: traces from int16
# to int64, and Frobenius products of every tier, int16 to Python ints on K_{3,3}
WALK_COUNTS = """
from bireg.graph import complete_bipartite
from bireg.sampler import SamplerConfig, sample_graph, trial_rng
from bireg.walks import walk_counts

shapes = ((300, 300, 3, 3, 0), (120, 90, 3, 4, 3), (100, 100, 8, 8, 2))
graphs = [(sample_graph(n, m, d1, d2, SamplerConfig(), trial_rng(seed, 0)), 16) for n, m, d1, d2, seed in shapes]
for g, top in graphs + [(complete_bipartite(3, 3), 40)]:
    for k in range(top + 1):
        print(g.n, g.m, g.d1, g.d2, k, walk_counts(g, k))
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
    out.append(("walk_counts at every horizon", 1, WALK_COUNTS))
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
    out.append(("valid_switchings forward r=2 spec lists", 1, FORWARD_R2))
    out.append(("valid_switchings forward k=3 spec lists (12,8,2,3)", 1, FORWARD_K3))
    out.append(("valid_switchings backward spec lists (10,10,2,2)", 1, BACKWARD))
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
