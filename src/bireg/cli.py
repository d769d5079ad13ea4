"""Command-line front end.

Subcommands: sample, enumerate, walks, spectrum, identity, switchings,
experiment, hypergraph.  Data outputs are tab-separated tables with a header
row, or JSON files for structured objects; runs with the same seed produce
byte-identical outputs.  Usage errors exit 2 (argparse), computation errors
exit 1 with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import experiments, hypergraph, spectra, switching, walks
from .errors import BiregError, MalformedInput
from .graph import load_graph, save_graph
from .sampler import METHODS, SamplerConfig, enumerate_all, sample_graph, trial_rng


def _table(lines, header):
    out = ["\t".join(header)]
    for row in lines:
        out.append("\t".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_at_least(name, value, low):
    if value < low:
        raise ValueError(f"{name} must be >= {low}")


def _check_seed(seed):
    if seed < 0:
        raise MalformedInput(f"--seed must be >= 0, got {seed}")


def _cmd_sample(args):
    _check_seed(args.seed)
    config = SamplerConfig(method=args.method, mcmc_steps=args.mcmc_steps)
    g = sample_graph(args.n, args.m, args.d1, args.d2, config, trial_rng(args.seed))
    save_graph(g, args.out)
    print(f"wrote {args.out} (n={g.n} m={g.m} d1={g.d1} d2={g.d2} seed={args.seed})")
    return 0


def _cmd_enumerate(args):
    graphs = enumerate_all(args.n, args.m, args.d1, args.d2)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump([g.to_dict() for g in graphs], fh)
            fh.write("\n")
    print(f"{len(graphs)} graphs with (n={args.n}, m={args.m}, d1={args.d1}, d2={args.d2})")
    return 0


def _cmd_walks(args):
    _check_at_least("r", args.r, 1)
    g = load_graph(args.input)
    table = walks.walk_table(g, args.r)
    rows = [table.row(k) for k in range(1, args.r + 1)]
    _emit(_table(rows, ["k", "C_k", "NBW_k", "CNBW_k", "B_k"]), args.out)
    return 0


def _cmd_spectrum(args):
    _check_at_least("bins", args.bins, 0)
    _check_at_least("points", args.points, 1)
    g = load_graph(args.input)
    if args.density:
        xs = np.linspace(-2.0, 2.0, args.points)
        params = {"fixed-degree": {"d1": g.d1, "d2": g.d2}, "shifted-mp": {"alpha": args.alpha}}.get(args.density, {})
        spectra.check_law(args.density, params, "spectrum")
        dens = spectra.reference_density(args.density, params, xs)
        rows = list(zip((f"{x:.6f}" for x in xs), (f"{d:.8f}" for d in dens)))
        _emit(_table(rows, ["x", "density"]), args.out)
        return 0
    sample = spectra.eigenvalues(g)
    if args.bins:
        hist, edges = np.histogram(sample.bulk, bins=args.bins)
        rows = [(f"{edges[i]:.6f}", f"{edges[i + 1]:.6f}", int(hist[i])) for i in range(len(hist))]
        _emit(_table(rows, ["lo", "hi", "count"]), args.out)
        return 0
    rows = [(i + 1, f"{v:.12f}") for i, v in enumerate(sample.eigenvalues)]
    _emit(_table(rows, ["i", "lambda"]), args.out)
    return 0


def _cmd_identity(args):
    _check_at_least("kmax", args.kmax, 1)
    g = load_graph(args.input)
    residuals = spectra.identity_residuals(g, args.kmax)
    rows = [(k, f"{gr:.3e}", f"{pr:.3e}") for k, (gr, pr) in enumerate(residuals, start=1)]
    _emit(_table(rows, ["k", "gamma_residual", "nbw_residual"]), args.out)
    return 0


def _cmd_switchings(args):
    _check_at_least("kmax", args.kmax, 0)
    _check_at_least("budget", args.budget, 0)
    _check_at_least("r", args.r, 2)
    g = load_graph(args.input)
    rows = []
    for alpha in switching.short_cycles(g, args.r):
        if args.kmax and alpha.k > args.kmax:
            continue
        f = len(switching.valid_switchings(g, alpha, args.r, "forward", budget=args.budget))
        bound = switching.forward_bound(g.n, g.m, g.d1, g.d2, alpha.k)
        rows.append(("-".join(map(str, alpha.vertices)), alpha.k, f, bound))
    _emit(_table(rows, ["alpha", "k", "F", "F_bound"]), args.out)
    return 0


def _cmd_experiment(args):
    with open(args.config) as fh:
        config = json.load(fh)
    report = experiments.run_experiment(config)
    out = config.get("output", args.out)
    if out:
        report.save(out)
        print(f"wrote {out}")
    else:
        print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_hypergraph(args):
    if args.action == "sample":
        if None in (args.n, args.d1, args.d2, args.out):
            raise ValueError("hypergraph sample needs --n, --d1, --d2 and --out")
        _check_seed(args.seed)
        h = hypergraph.sample_regular_hypergraph(args.n, args.d1, args.d2, trial_rng(args.seed))
        hypergraph.save_hypergraph(h, args.out)
        print(f"wrote {args.out} (n={h.n} hyperedges={h.m} seed={args.seed})")
        return 0
    if args.input is None:
        raise ValueError("hypergraph check needs --in")
    _check_at_least("kmax", args.kmax, 0)
    h = hypergraph.load_hypergraph(args.input)
    gap = hypergraph.adjacency_identity_gap(h)
    cycles = walks.cycle_count_vector(hypergraph.to_bipartite(h), args.kmax)
    rows = [("adjacency_identity_gap", gap)] + [(f"cycles_{k}", c) for k, c in enumerate(cycles, start=2)]
    _emit(_table(rows, ["quantity", "value"]), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bireg",
        description="Spectra and cycle statistics of random biregular bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample one graph and write it to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", default="auto", choices=METHODS)
    p.add_argument("--mcmc-steps", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("enumerate", help="enumerate all graphs with given parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("walks", help="cycle/walk count table")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_walks)

    p = sub.add_parser("spectrum", help="eigenvalues, histogram, or density curves")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--bins", type=int, default=0)
    p.add_argument("--density", choices=list(spectra.MODEL_PARAMS))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("identity", help="walk-count identity residuals")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("switchings", help="switching audit table for small graphs")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--kmax", type=int, default=0)
    p.add_argument("--budget", type=int, default=switching.SWITCH_BUDGET)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_switchings)

    p = sub.add_parser("experiment", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("hypergraph", help="sample or inspect regular hypergraphs")
    p.add_argument("action", choices=["sample", "check"])
    p.add_argument("--n", type=int)
    p.add_argument("--d1", type=int)
    p.add_argument("--d2", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in", dest="input")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_hypergraph)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), once per process: parsing leaves the parser unchanged."""
    return build_parser()


def dispatch(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (BiregError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
