"""The benchmark workloads: one `bireg experiment` config each.

Each workload is dominated by a different layer of the package.
BENCHMARK.json lists all but `growing-chain`, which runs by hand (see
README.md).  A measured call runs `samples` trials; the warm-up call that
ends set-up runs WARMUP_SAMPLES trials of the same config.  The workload seed
given on the command line fixes the seed written into every config, so the
same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

WARMUP_SAMPLES = 2
# seeds of the configs of one run: seed * SEED_STRIDE + call index
SEED_STRIDE = 1000
WARMUP_CALL = SEED_STRIDE - 1


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    params: dict
    samples: int  # trials per measured dispatch call

    def config(self, seed: int, call: int, output: str, samples: int | None = None) -> dict:
        """The JSON config of measured call `call` (WARMUP_CALL for the warm-up)."""
        params = dict(self.params, samples=self.samples if samples is None else samples)
        return {
            "experiment": self.experiment,
            "seed": seed * SEED_STRIDE + call,
            "params": params,
            "output": output,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "poisson-counts",
            "poisson",
            {"n": 300, "m": 300, "d1": 3, "d2": 3, "r": 3, "keep_samples": True},
            samples=200,
        ),
        Workload(
            "fixed-walks",
            "fluctuation-fixed",
            {"n": 300, "d1": 3, "d2": 3, "expansion": "exp"},
            samples=8,
        ),
        Workload(
            "growing-chain",
            "fluctuation-growing",
            {"n": 500, "d1": 8, "d2": 8, "expansions": ["phi_2", "phi_3"]},
            samples=8,
        ),
        Workload(
            "globallaw-dense",
            "globallaw",
            {"n": 2000, "d1": 3, "d2": 3, "model": "fixed-degree"},
            samples=2,
        ),
    )
}
