"""The benchmark's correctness checks pass on real reports and reject doctored ones.

Each test runs a small `bireg experiment` config, checks that its report
passes, then changes one value by the smallest amount the check must see.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from bireg.cli import dispatch  # noqa: E402

from checks import check_report, checked_trials  # noqa: E402


def _run(tmp_path, experiment, params, seed=11):
    config = {"experiment": experiment, "seed": seed, "params": params,
              "output": str(tmp_path / "report.json")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(["experiment", "--config", str(path)]) == 0
    return config, json.loads(Path(config["output"]).read_text())


def test_poisson_rejects_a_cycle_count_off_by_one(tmp_path):
    config, report = _run(tmp_path, "poisson", {"n": 60, "m": 60, "d1": 3, "d2": 3, "r": 3,
                                                "samples": 40, "keep_samples": True})
    assert check_report(config, report) == []
    for col in (0, 1):
        bad = copy.deepcopy(report)
        bad["samples"]["cycle_counts"][checked_trials(40)[1]][col] += 1
        assert check_report(config, bad)


def test_poisson_rejects_a_mean_off_target(tmp_path):
    config, report = _run(tmp_path, "poisson", {"n": 60, "m": 60, "d1": 3, "d2": 3, "r": 3,
                                                "samples": 40, "keep_samples": True})
    bad = copy.deepcopy(report)
    for row in bad["samples"]["cycle_counts"][1:-1]:
        row[0] += 3
    bad["statistics"]["C2"]["mean"] = sum(r[0] for r in bad["samples"]["cycle_counts"]) / 40
    assert check_report(config, bad)


def test_fixed_rejects_a_perturbed_y(tmp_path):
    config, report = _run(tmp_path, "fluctuation-fixed", {"n": 40, "d1": 3, "d2": 3,
                                                          "expansion": "exp", "samples": 6})
    assert check_report(config, report) == []
    bad = copy.deepcopy(report)
    bad["samples"]["Y"][checked_trials(6)[-1]] += 1e-6
    assert check_report(config, bad)
    # the limit draws' mean moved by 6 known standard errors (variance ~2.26)
    bad = copy.deepcopy(report)
    bad["samples"]["Y_limit"] = [y + 6 * (2.26 / 6) ** 0.5 for y in report["samples"]["Y_limit"]]
    assert check_report(config, bad)


def test_growing_rejects_a_perturbed_y(tmp_path):
    config, report = _run(tmp_path, "fluctuation-growing", {"n": 40, "d1": 8, "d2": 8,
                                                            "expansions": ["phi_2", "phi_3"],
                                                            "samples": 4})
    assert check_report(config, report) == []
    for t in checked_trials(4):
        bad = copy.deepcopy(report)
        bad["samples"]["Y"][t][0] += 1e-6
        assert check_report(config, bad)


def test_globallaw_rejects_a_top_eigenvalue_error(tmp_path):
    config, report = _run(tmp_path, "globallaw", {"n": 400, "d1": 3, "d2": 3,
                                                  "model": "fixed-degree", "samples": 2})
    assert check_report(config, report) == []
    bad = copy.deepcopy(report)
    bad["statistics"]["top_eigenvalue_error"]["max"] = 1e-6
    assert check_report(config, bad)

