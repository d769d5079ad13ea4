"""Per-layer spans for the traced run.

The traced run re-executes each experiment's per-trial work from the
benchmark's own code, on the same trial graphs (`trial_rng(seed, t)` +
`sample_graph`), and times every call into a layer's public function.  The
program itself is not instrumented.

Layers on a workload's blocking path (`TracedWorkload.blocking`) are
called in the order the experiment calls them and timed as one section per
trial too; the other spans (graph construction, the Gram build, the
eigensolve without the Gram build, the trace identity of `fixed-walks`) are
probes made after that section, so they do not enter the traced wall time.
"""

from __future__ import annotations

import statistics
import tracemalloc
from collections import defaultdict
from time import perf_counter

from bireg import chebyshev, experiments, spectra, walks
from bireg.graph import BiregularGraph, gram_shifted, scaled_gram
from bireg.sampler import SamplerConfig

from checks import regenerate

# per_layer metric name -> span name (time metrics are medians per call)
TIME_METRICS = {
    "sampler.sample_configuration_ms": "sampler.sample_configuration",
    "sampler.sample_switch_chain_ms": "sampler.sample_switch_chain",
    "graph.construct_ms": "graph.construct",
    "graph.gram_shifted_ms": "graph.gram_shifted",
    "spectra.eigenvalues_ms": "spectra.eigenvalues",
    "spectra.eigensolve_self_ms": "spectra.eigensolve_self",
    "spectra.statistic_ms": "spectra.statistic",
    "walks.cnbw_counts_ms": "walks.cnbw_counts",
    "experiments.cycle_count_vector_ms": "experiments.cycle_count_vector",
    "chebyshev.fit_expansion_ms": "chebyshev.fit_expansion",
}
PEAK_METRICS = {
    "graph.gram_shifted_peak_mb": "graph.gram_shifted",
    "walks.cnbw_counts_peak_mb": "walks.cnbw_counts",
}
FIT_REPEATS = 5


class Spans:
    """Durations in ms, per span name, kept in memory."""

    def __init__(self):
        self.ms = defaultdict(list)

    def call(self, name, fn, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.ms[name].append((perf_counter() - t0) * 1e3)
        return out

    def median(self, name) -> float:
        vals = self.ms.get(name)
        return statistics.median(vals) if vals else 0.0

    def summary(self) -> dict:
        """Median, call count and, from 40 calls on, the highest percentile
        with at least ten calls beyond it."""
        out = {}
        for name, vals in sorted(self.ms.items()):
            row = {"calls": len(vals), "median_ms": statistics.median(vals)}
            if len(vals) >= 40:
                pct = int(100 * (len(vals) - 10) / len(vals))
                row[f"p{pct}_ms"] = statistics.quantiles(vals, n=100, method="inclusive")[pct - 1]
            out[name] = row
        return out


def _sampler_span(config: dict) -> str:
    p = config["params"]
    n, d1, d2 = p["n"], p["d1"], p["d2"]
    m = p.get("m", n * d1 // d2)
    method = SamplerConfig(method=p.get("method", "auto")).resolve_method(n, m, d1, d2)
    return {"exact-rejection": "sampler.sample_configuration",
            "switch-chain": "sampler.sample_switch_chain"}[method]


def _expansion(spec, d1):
    """The config's expansion, built as `bireg experiment` builds it."""
    f = chebyshev.builtin_function(spec, d1)
    if isinstance(f, chebyshev.ChebExpansion):
        return f
    return chebyshev.fit_expansion(f, basis="phi", d1=d1)


def _probes(spans: Spans, g, sample=None) -> None:
    """Off-path spans: construction on the sampled edge list, the Gram build,
    and the eigensolve without the Gram build."""
    spans.call("graph.construct", BiregularGraph, n=g.n, m=g.m, d1=g.d1, d2=g.d2, edges=g.edges)
    spans.call("graph.gram_shifted", gram_shifted, g)
    if sample is not None:
        eig_ms = spans.ms["spectra.eigenvalues"][-1]
        spans.call("graph.scaled_gram", scaled_gram, g)
        spans.ms["spectra.eigensolve_self"].append(eig_ms - spans.ms["graph.scaled_gram"][-1])


class TracedWorkload:
    """The per-trial pipeline of one experiment, one span per layer call."""

    def __init__(self, config: dict):
        self.config = config
        p = config["params"]
        self.params = p
        self.sample_span = _sampler_span(config)
        exp = config["experiment"]
        # blocking span -> calls per trial
        if exp == "poisson":
            self.blocking = {self.sample_span: 1, "experiments.cycle_count_vector": 1}
        elif exp == "fluctuation-fixed":
            # the expansion is fitted once per dispatch call
            self.blocking = {self.sample_span: 1, "walks.cnbw_counts": 1,
                             "chebyshev.fit_expansion": 1 / p["samples"]}
        elif exp == "fluctuation-growing":
            self.blocking = {self.sample_span: 1, "spectra.eigenvalues": 1,
                             "spectra.statistic": len(p["expansions"])}
        else:
            self.blocking = {self.sample_span: 1, "spectra.eigenvalues": 1, "spectra.statistic": 1}

    def prepare(self, spans: Spans) -> None:
        """Per-call work: the expansions the config names."""
        p, exp = self.params, self.config["experiment"]
        if exp == "fluctuation-fixed":
            for _ in range(FIT_REPEATS):
                f = spans.call("chebyshev.fit_expansion", _expansion, p["expansion"], p["d1"])
            self.fixed = f.to_gamma(p["d1"])
        elif exp == "fluctuation-growing":
            self.growing = [_expansion(e, p["d1"]).to_phi() for e in p["expansions"]]
        elif exp == "globallaw":
            self.model_params = p.get("params") or (
                {"d1": p["d1"], "d2": p["d2"]} if p["model"] == "fixed-degree" else {}
            )

    def trial(self, spans: Spans, t: int) -> float:
        """Run trial t; return the wall time (ms) of its blocking section."""
        p, exp = self.params, self.config["experiment"]
        t0 = perf_counter()
        g = spans.call(self.sample_span, regenerate, self.config, t)
        sample = None
        if exp == "poisson":
            spans.call("experiments.cycle_count_vector", experiments.cycle_count_vector, g, p["r"])
        elif exp == "fluctuation-fixed":
            f = self.fixed
            cnbw = spans.call("walks.cnbw_counts", walks.cnbw_counts_up_to, g, f.degree)
            # the experiment's own assembly of Y, part of the trial loop
            sum(f.coefficient(k) * cnbw[k - 1] / g.q ** (k / 2) for k in range(1, f.degree + 1))
        elif exp == "fluctuation-growing":
            sample = spans.call("spectra.eigenvalues", spectra.eigenvalues, g)
            for e in self.growing:
                spans.call("spectra.statistic", spectra.fluctuation_growing, sample, e, p.get("r_n"))
        else:
            sample = spans.call("spectra.eigenvalues", spectra.eigenvalues, g)
            spans.call("spectra.statistic", spectra.esd_distance, sample, p["model"], self.model_params)
            spectra.spectral_edge_deviation(sample)
        wall = (perf_counter() - t0) * 1e3
        if exp == "fluctuation-fixed":
            # the trace identity the correctness check relies on
            sample = spans.call("spectra.eigenvalues", spectra.eigenvalues, g)
            spans.call("spectra.statistic", spectra.fluctuation_fixed, sample, self.fixed)
        _probes(spans, g, sample)
        return wall

    def peaks(self) -> dict:
        """tracemalloc peak (MiB) of the Gram build and, where the workload
        runs it, the walk recurrence, on the graph of trial 0."""
        g = regenerate(self.config, 0)
        out = {}
        calls = {"graph.gram_shifted": lambda: gram_shifted(g)}
        if self.config["experiment"] == "fluctuation-fixed":
            calls["walks.cnbw_counts"] = lambda: walks.cnbw_counts_up_to(g, self.fixed.degree)
        for name, fn in calls.items():
            tracemalloc.start()
            try:
                fn()
                out[name] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
        return out
