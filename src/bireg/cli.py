"""Command-line front end.

Subcommands: sample, enumerate, walks, spectrum, identity, switchings,
experiment, hypergraph.  Data outputs are tab-separated tables with a header
row and a ``# seed=...`` comment, or JSON files for structured objects; runs
with the same seed produce byte-identical outputs.  Usage errors exit 2
(argparse), computation errors exit 1 with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import experiments, hypergraph, spectra, switching, walks
from .errors import BiregError
from .graph import load_graph, save_graph
from .sampler import SamplerConfig, enumerate_all, sample_graph, trial_rng


def _table(lines, header, seed=None):
    out = []
    if seed is not None:
        out.append(f"# seed={seed}")
    out.append("\t".join(header))
    for row in lines:
        out.append("\t".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def _emit(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sample(args):
    config = SamplerConfig(method=args.method, mcmc_steps=args.mcmc_steps, seed=args.seed)
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
    g = load_graph(args.input)
    table = walks.walk_table(g, args.r)
    rows = [table.row(k) for k in range(1, args.r + 1)]
    _emit(_table(rows, ["k", "C_k", "NBW_k", "CNBW_k", "B_k"]), args.out)
    return 0


def _cmd_spectrum(args):
    g = load_graph(args.input)
    sample = spectra.eigenvalues(g)
    if args.density:
        xs = np.linspace(-2.0, 2.0, args.points)
        params = {"d1": g.d1, "d2": g.d2} if args.density == "fixed-degree" else (
            {"alpha": args.alpha} if args.density == "shifted-mp" else {}
        )
        dens = spectra.reference_density(args.density, params, xs)
        rows = list(zip((f"{x:.6f}" for x in xs), (f"{d:.8f}" for d in dens)))
        _emit(_table(rows, ["x", "density"]), args.out)
        return 0
    if args.bins:
        hist, edges = np.histogram(sample.bulk, bins=args.bins)
        rows = [(f"{edges[i]:.6f}", f"{edges[i + 1]:.6f}", int(hist[i])) for i in range(len(hist))]
        _emit(_table(rows, ["lo", "hi", "count"]), args.out)
        return 0
    rows = [(i + 1, f"{v:.12f}") for i, v in enumerate(sample.eigenvalues)]
    _emit(_table(rows, ["i", "lambda"]), args.out)
    return 0


def _cmd_identity(args):
    g = load_graph(args.input)
    residuals = spectra.identity_residuals(g, args.kmax)
    rows = [(k, f"{gr:.3e}", f"{pr:.3e}") for k, (gr, pr) in enumerate(residuals, start=1)]
    _emit(_table(rows, ["k", "gamma_residual", "nbw_residual"]), args.out)
    return 0


def _cmd_switchings(args):
    g = load_graph(args.input)
    rng = trial_rng(args.seed)
    rows = []
    for alpha in switching.short_cycles(g, args.r):
        if args.kmax and alpha.k > args.kmax:
            continue
        f = switching.count_valid_switchings(g, alpha, args.r, "forward", budget=args.budget)
        b = switching.count_valid_switchings(g, alpha, args.r, "backward", budget=args.budget)
        rows.append(
            (
                "-".join(map(str, alpha.vertices)),
                alpha.k,
                f,
                switching.forward_bound(g.n, g.m, g.d1, g.d2, alpha.k),
                b,
                switching.backward_bound(g.d1, g.d2, alpha.k),
            )
        )
    _emit(_table(rows, ["alpha", "k", "F", "F_bound", "B", "B_bound"], seed=args.seed), args.out)
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
        h = hypergraph.sample_regular_hypergraph(args.n, args.d1, args.d2, trial_rng(args.seed))
        hypergraph.save_hypergraph(h, args.out)
        print(f"wrote {args.out} (n={h.n} hyperedges={h.m} seed={args.seed})")
        return 0
    if args.input is None:
        raise ValueError("hypergraph check needs --in")
    h = hypergraph.load_hypergraph(args.input)
    gap = hypergraph.adjacency_identity_gap(h)
    rows = [("adjacency_identity_gap", gap)]
    for k in range(2, args.kmax + 1):
        rows.append((f"cycles_{k}", hypergraph.hypergraph_cycle_count(h, k)))
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
    p.add_argument("--method", default="auto", choices=["auto", "exact-rejection", "switch-chain"])
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
    p.add_argument("--density", choices=["semicircle", "fixed-degree", "shifted-mp"])
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
    p.add_argument("--seed", type=int, default=0)
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


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BiregError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
