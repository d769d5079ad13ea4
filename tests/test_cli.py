import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from bireg import cli, experiments, spectra
from bireg.cli import dispatch
from bireg.errors import MalformedInput
from bireg.graph import load_graph


def run(argv):
    return dispatch(argv)


def test_sample_and_identity(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["sample", "--n", "30", "--m", "30", "--d1", "3", "--d2", "3",
                "--seed", "7", "--out", str(out)]) == 0
    g = load_graph(out)
    assert (g.n, g.d1) == (30, 3)
    table = tmp_path / "id.tsv"
    assert run(["identity", "--in", str(out), "--kmax", "6", "--out", str(table)]) == 0
    lines = table.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["k", "gamma_residual", "nbw_residual"]
    for line in lines[1:]:
        _, gr, pr = line.split("\t")
        assert float(gr) <= 1e-8
        assert float(pr) <= 1e-8


def test_sample_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["--n", "12", "--m", "12", "--d1", "3", "--d2", "3", "--seed", "3"]
    run(["sample", *args, "--out", str(a)])
    run(["sample", *args, "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_walks_table(tmp_path):
    g = tmp_path / "g.json"
    run(["sample", "--n", "12", "--m", "12", "--d1", "3", "--d2", "3", "--seed", "1",
         "--out", str(g)])
    out = tmp_path / "walks.tsv"
    assert run(["walks", "--in", str(g), "--r", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split("\t") == ["k", "C_k", "NBW_k", "CNBW_k", "B_k"]
    assert len(lines) == 5


def test_spectrum_and_density(tmp_path):
    g = tmp_path / "g.json"
    run(["sample", "--n", "12", "--m", "12", "--d1", "3", "--d2", "3", "--seed", "1",
         "--out", str(g)])
    spec = tmp_path / "spec.tsv"
    assert run(["spectrum", "--in", str(g), "--out", str(spec)]) == 0
    assert len(spec.read_text().strip().splitlines()) == 13  # header + 12 eigenvalues
    dens = tmp_path / "dens.tsv"
    assert run(["spectrum", "--in", str(g), "--density", "semicircle",
                "--points", "11", "--out", str(dens)]) == 0
    assert len(dens.read_text().strip().splitlines()) == 12


@pytest.mark.parametrize("alpha, message", [
    ("nan", "must be a finite number, got nan"),
    ("inf", "must be a finite number, got inf"),
    ("0.5", "must be >= 1, got 0.5"),
])
def test_a_bad_density_parameter_is_a_typed_error(tmp_path, capsys, alpha, message):
    # the law's parameters pass spectra.check_law, as a globallaw config's do
    g = tmp_path / "g.json"
    assert run(["sample", "--n", "12", "--m", "12", "--d1", "3", "--d2", "3", "--seed", "1",
                "--out", str(g)]) == 0
    capsys.readouterr()
    out = tmp_path / "dens.tsv"
    assert run(["spectrum", "--in", str(g), "--density", "shifted-mp", "--alpha", alpha,
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: spectrum shifted-mp params key 'alpha' {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_enumerate(capsys):
    assert run(["enumerate", "--n", "3", "--m", "3", "--d1", "2", "--d2", "2"]) == 0
    assert "6 graphs" in capsys.readouterr().out


def test_switchings_audit(tmp_path):
    g = tmp_path / "g.json"
    run(["sample", "--n", "12", "--m", "12", "--d1", "3", "--d2", "3", "--seed", "2",
         "--out", str(g)])
    out = tmp_path / "sw.tsv"
    assert run(["switchings", "--in", str(g), "--r", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    # an exhaustive count of a given graph: no seed, so no "# seed=" line
    assert lines[0].split("\t") == ["alpha", "k", "F", "F_bound"]
    for line in lines[1:]:
        _, k, f, fb = line.split("\t")
        assert int(f) <= int(fb)


def test_experiment_config(tmp_path, capsys):
    cfg = tmp_path / "poisson.json"
    out = tmp_path / "report.json"
    cfg.write_text(json.dumps({
        "experiment": "poisson",
        "seed": 4,
        "params": {"n": 40, "m": 40, "d1": 2, "d2": 2, "r": 2, "samples": 30},
        "output": str(out),
    }))
    assert run(["experiment", "--config", str(cfg)]) == 0
    data = json.loads(out.read_text())
    assert data["params"]["n"] == 40
    assert "tv_C2" in data["distances"]


def test_hypergraph_commands(tmp_path):
    h = tmp_path / "h.json"
    assert run(["hypergraph", "sample", "--n", "30", "--d1", "3", "--d2", "3",
                "--seed", "5", "--out", str(h)]) == 0
    out = tmp_path / "check.tsv"
    assert run(["hypergraph", "check", "--in", str(h), "--kmax", "3",
                "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].split("\t") == ["adjacency_identity_gap", "0"]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["walks"])  # missing --in
    assert err.value.code == 2


def test_switchings_has_no_seed_flag(tmp_path):
    g = tmp_path / "g.json"
    assert run(["sample", "--n", "4", "--m", "4", "--d1", "2", "--d2", "2", "--out", str(g)]) == 0
    with pytest.raises(SystemExit) as err:
        run(["switchings", "--in", str(g), "--seed", "1"])
    assert err.value.code == 2


def test_computation_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["walks", "--in", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_negative_identity_horizon_is_an_error(tmp_path, capsys):
    g = tmp_path / "g.json"
    assert run(["sample", "--n", "12", "--m", "12", "--d1", "3", "--d2", "3",
                "--seed", "0", "--out", str(g)]) == 0
    capsys.readouterr()
    assert run(["identity", "--in", str(g), "--kmax", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: kmax must be >= 1\n"
    assert captured.out == ""


def test_negative_switching_and_hypergraph_horizons_are_errors(tmp_path, capsys):
    g, h = tmp_path / "g.json", tmp_path / "h.json"
    assert run(["sample", "--n", "4", "--m", "4", "--d1", "2", "--d2", "2", "--out", str(g)]) == 0
    assert run(["hypergraph", "sample", "--n", "30", "--d1", "3", "--d2", "3", "--out", str(h)]) == 0
    capsys.readouterr()
    for argv in (["switchings", "--in", str(g), "--kmax", "-1"],
                 ["hypergraph", "check", "--in", str(h), "--kmax", "-2"]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: kmax must be >= 0\n"
        assert captured.out == ""


@pytest.mark.parametrize("method", [[], ["--method", "switch-chain"]])
def test_nonpositive_mcmc_steps_is_an_error_for_any_method(tmp_path, capsys, method):
    # auto resolves (8,8) at n = 20 to the switch chain, so both forms pick it
    out = tmp_path / "g.json"
    assert run(["sample", "--n", "20", "--m", "20", "--d1", "8", "--d2", "8",
                "--mcmc-steps", "-5", *method, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: mcmc_steps must be >= 1\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "12", "--m", "12", "--d1", "3", "--d2", "3"],
    ["hypergraph", "sample", "--n", "12", "--d1", "3", "--d2", "3"],
], ids=["sample", "hypergraph-sample"])
def test_negative_seed_is_refused_before_sampling(tmp_path, capsys, monkeypatch, argv):
    streams = counting(monkeypatch, cli, "trial_rng")
    out = tmp_path / "g.json"
    assert run([*argv, "--seed", "-1", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be >= 0, got -1\n"
    assert captured.out == ""
    assert not out.exists()
    assert streams == []


@pytest.mark.parametrize("argv,message", [
    (["switchings", "--budget", "-1"], "budget must be >= 0"),
    (["spectrum", "--bins", "-3"], "bins must be >= 0"),
    (["spectrum", "--density", "semicircle", "--points", "-1"], "points must be >= 1"),
    (["spectrum", "--density", "semicircle", "--points", "0"], "points must be >= 1"),
    (["identity", "--kmax", "0"], "kmax must be >= 1"),
    (["identity", "--kmax", "-3"], "kmax must be >= 1"),
    (["walks", "--r", "0"], "r must be >= 1"),
    (["switchings", "--r", "1"], "r must be >= 2"),
], ids=["budget", "bins", "points-negative", "points-zero", "identity-kmax-zero", "identity-kmax-negative",
        "walks-r", "switchings-r"])
def test_bad_counts_are_refused_before_the_graph_loads(tmp_path, capsys, argv, message):
    # the graph file does not exist, so only a check made before loading it
    # gives this message
    out = tmp_path / "out.tsv"
    assert run([*argv, "--in", str(tmp_path / "missing.json"), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


def test_unknown_config_key_is_a_typed_error(tmp_path, capsys):
    cfg = tmp_path / "bogus.json"
    cfg.write_text(json.dumps({
        "experiment": "poisson",
        "seed": 1,
        "params": {"n": 20, "m": 20, "d1": 2, "d2": 2, "r": 2, "samples": 3, "bogus": 1},
    }))
    assert run(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "'bogus'" in err and "allowed:" in err and "samples" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config, names",
    [
        ({"experiment": "poisson", "seed": 1,
          "params": {"n": 20, "m": 20, "d1": 2, "d2": 2, "samples": 3}}, ["'r'"]),
        ({"experiment": "globallaw", "params": {"n": 20, "d1": 2}}, ["'d2'", "'samples'", "'model'"]),
        ({"seed": 1, "params": {}}, ["'experiment'", "poisson"]),
    ],
)
def test_missing_config_key_is_a_typed_error(tmp_path, capsys, config, names):
    cfg = tmp_path / "missing.json"
    cfg.write_text(json.dumps(config))
    assert run(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(name in err for name in names)
    assert "Traceback" not in err


def test_threads_is_not_a_config_key(tmp_path, capsys):
    cfg = tmp_path / "threads.json"
    cfg.write_text(json.dumps({
        "experiment": "poisson",
        "params": {"n": 20, "m": 20, "d1": 2, "d2": 2, "r": 2, "samples": 3, "threads": 2},
    }))
    assert run(["experiment", "--config", str(cfg)]) == 1
    assert "'threads'" in capsys.readouterr().err


def test_graph_file_with_out_of_range_edge(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "m": 2, "d1": 2, "d2": 2,
                                "edges": [[0, 0], [0, 1], [1, 0], [1, 2]]}))
    assert run(["walks", "--in", str(path)]) == 1
    assert "edge (1, 2) out of range" in capsys.readouterr().err


POISSON_PARAMS = {"n": 20, "m": 20, "d1": 2, "d2": 2, "r": 2, "samples": 3}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("config, message", [
    ({"experiment": "poisson", "sede": 5, "params": POISSON_PARAMS},
     "unknown key(s) 'sede' in config; allowed: experiment, output, params, seed"),
    ({"experiment": "poisson", "params": POISSON_PARAMS, "output": 5},
     "config key 'output' must be a file path string, got 5"),
], ids=["misspelled-seed", "output-not-a-string"])
def test_a_bad_top_level_config_key_is_refused_before_sampling(tmp_path, capsys, monkeypatch, config, message):
    monkeypatch.setattr(experiments, "sample_graph", lambda *args: pytest.fail("sampled a graph"))
    cfg = tmp_path / "top.json"
    cfg.write_text(json.dumps(config))
    assert run(["experiment", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_walks_counts_short_cycles_beyond_the_dfs_budget(tmp_path):
    # C_2 and C_3 come in closed form; the DFS of the 6-cycles of this
    # graph (co-degrees up to 60) exceeds the enumeration budget
    g, out = tmp_path / "g.json", tmp_path / "walks.tsv"
    assert run(["sample", "--n", "300", "--m", "6000", "--d1", "60", "--d2", "3", "--out", str(g)]) == 0
    assert run(["walks", "--in", str(g), "--r", "3", "--out", str(out)]) == 0
    rows = [line.split("\t") for line in out.read_text().strip().splitlines()[1:]]
    assert [(k, b) for k, _, _, _, b in rows] == [("1", "0"), ("2", "0"), ("3", "0")]


@pytest.mark.parametrize("n,m,d1,d2", [(6, 12, 2, 1), (12, 6, 1, 2), (6, 6, 1, 1)])
def test_poisson_with_zero_q_is_refused_before_sampling(tmp_path, capsys, monkeypatch, n, m, d1, d2):
    # d1 = 1 or d2 = 1 makes q = 0 and every Poisson mean mu_k = 0
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a graph")

    monkeypatch.setattr(experiments, "sample_graph", no_sampling)
    cfg = tmp_path / "q0.json"
    cfg.write_text(json.dumps({"experiment": "poisson", "seed": 1,
                               "params": {"n": n, "m": m, "d1": d1, "d2": d2, "r": 2, "samples": 3}}))
    assert run(["experiment", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: (d1, d2) = ({d1}, {d2}) has q = 0, so every Poisson mean mu_k is 0\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "config, key",
    [
        ({"experiment": "poisson", "params": [1, 2]}, "'params'"),
        ({"experiment": "poisson", "seed": [1], "params": POISSON_PARAMS}, "'seed'"),
        ({"experiment": "poisson", "seed": True, "params": POISSON_PARAMS}, "'seed'"),
        ({"experiment": "poisson", "params": dict(POISSON_PARAMS, samples="2")}, "'samples'"),
        ({"experiment": "poisson", "params": dict(POISSON_PARAMS, samples=0)}, "'samples'"),
        # k_max is not a key of fluctuation-fixed: refused as unknown
        ({"experiment": "fluctuation-fixed",
          "params": {"n": 20, "d1": 3, "d2": 3, "expansion": "gamma_2", "samples": 2, "k_max": "3"}},
         "'k_max'"),
        ({"experiment": "fluctuation-growing",
          "params": {"n": 20, "d1": 3, "d2": 3, "expansions": ["phi_2"], "samples": 2, "r_n": "3"}},
         "'r_n'"),
    ],
)
def test_badly_typed_config_value_is_a_typed_error(tmp_path, capsys, config, key):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert run(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, data, key",
    [
        (["walks"], {"n": [3], "m": 3, "d1": 2, "d2": 2, "edges": []}, "'n'"),
        (["walks"], [1, 2, 3], "JSON object"),
        (["hypergraph", "check"], {"n": 6, "d1": 2, "d2": 3, "hyperedges": 5}, "'hyperedges'"),
        # ids that numpy would read as integers
        (["walks"], {"n": 2, "m": 2, "d1": 2, "d2": 2, "edges": [[0, 0], [0, 1.9], [1, 0], [1, 1]]}, "'edges[1]'"),
        (["walks"], {"n": 2, "m": 2, "d1": 2, "d2": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, True]]}, "'edges[3]'"),
        (["walks"], {"n": 2, "m": 2, "d1": 2, "d2": 2, "edges": [[0, "0"], [0, 1], [1, 0], [1, 1]]}, "'edges[0]'"),
        (["walks"], {"n": 2, "m": 2, "d1": 2, "d2": 2, "edges": 5}, "'edges'"),
        (["walks"], {"n": 2, "d1": 2, "d2": 2}, "missing key(s) 'm', 'edges' in graph file"),
        (["hypergraph", "check"], {"n": 6, "d1": 2}, "missing key(s) 'd2', 'hyperedges' in hypergraph file"),
    ],
)
def test_badly_typed_graph_file_is_a_typed_error(tmp_path, capsys, command, data, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run([*command, "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


def test_oversized_poisson_mean_is_a_typed_error(tmp_path, capsys):
    # exp at (8, 8) has Gamma-degree k_max >= 12, and 49^12/24 passes numpy's
    # Poisson limit; the error comes before any graph is sampled
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "experiment": "fluctuation-fixed",
        "params": {"n": 100, "d1": 8, "d2": 8, "expansion": "exp", "samples": 2},
    }))
    assert run(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "k_max" in err
    assert "Traceback" not in err


def test_identity_runs_the_walk_recurrence_once(tmp_path, recurrence_calls):
    g = tmp_path / "g.json"
    assert run(["sample", "--n", "300", "--m", "300", "--d1", "3", "--d2", "3",
                "--seed", "0", "--out", str(g)]) == 0
    out = tmp_path / "id.tsv"
    assert run(["identity", "--in", str(g), "--kmax", "14", "--out", str(out)]) == 0
    assert recurrence_calls == [7]
    assert len(out.read_text().splitlines()) == 15


# one dispatch call in a process of its own
ALONE = "import sys\nfrom bireg.cli import dispatch\nsys.exit(dispatch(sys.argv[1:]))\n"


def test_one_process_runs_a_mix_of_calls_as_each_alone(tmp_path, capsys, monkeypatch):
    # dispatch builds its parser once per process; a mix of calls, failed
    # ones among them, prints and exits as each call does in a fresh process
    g, bad, config = tmp_path / "g.json", tmp_path / "bad.json", tmp_path / "config.json"
    assert run(["sample", "--n", "12", "--m", "12", "--d1", "3", "--d2", "3", "--seed", "1", "--out", str(g)]) == 0
    bad.write_text(json.dumps({"n": 2, "m": 2, "d1": 2, "d2": 2, "edges": [[0, 0], [0, 1], [1, 0], [1, 2]]}))
    config.write_text(json.dumps({"experiment": "poisson", "seed": 4, "params": POISSON_PARAMS}))
    calls = [
        ["walks", "--in", str(g), "--r", "4"],
        ["walks"],  # a usage error: no --in
        ["experiment", "--config", str(config)],
        ["walks", "--in", str(bad)],  # a BiregError: edge out of range
        ["walks", "--in", str(g), "--r", "4"],
    ]
    capsys.readouterr()
    cli._parser.cache_clear()
    builds = counting(monkeypatch, cli, "build_parser")
    mixed = []
    for argv in calls:
        try:
            code = dispatch(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        mixed.append((code, captured.out, captured.err))
    assert len(builds) == 1
    assert [code for code, _, _ in mixed] == [0, 2, 0, 1, 0]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, result in zip(calls, mixed):
        done = subprocess.run([sys.executable, "-c", ALONE, *argv], env=env, capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stdout, done.stderr) == result, argv


def counting(monkeypatch, module, name):
    """Record the calls to module.name made during the test."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


FIXED_PARAMS = {"n": 300, "d1": 3, "d2": 3, "expansion": "gamma_3", "samples": 4}
GLOBAL_PARAMS = {"n": 300, "d1": 3, "d2": 3, "samples": 2}
GROWING_PARAMS = {"n": 200, "d1": 6, "d2": 6, "expansions": ["phi_2"], "samples": 2}


@pytest.mark.parametrize(
    "config, names",
    [
        # k_max and keep_samples of the fluctuation experiments are not keys
        ({"experiment": "fluctuation-fixed", "params": dict(FIXED_PARAMS, k_max=1)},
         ["unknown key(s) 'k_max' in fluctuation-fixed params"]),
        ({"experiment": "fluctuation-growing", "params": dict(GROWING_PARAMS, keep_samples=True)},
         ["unknown key(s) 'keep_samples' in fluctuation-growing params"]),
        ({"experiment": "globallaw", "params": dict(GLOBAL_PARAMS, model="semicirc")},
         ["'model'", "semicircle, fixed-degree, shifted-mp", "'semicirc'"]),
        ({"experiment": "globallaw", "params": dict(GLOBAL_PARAMS, model="shifted-mp")},
         ["'params'", "'alpha'", "shifted-mp"]),
        ({"experiment": "globallaw", "params": dict(GLOBAL_PARAMS, model="fixed-degree", params={"d1": 3})},
         ["'params'", "'d2'", "fixed-degree"]),
        ({"experiment": "globallaw",
          "params": dict(GLOBAL_PARAMS, model="fixed-degree", params={"d1": 3.5, "d2": 3})},
         ["'d1'", "integer", "3.5"]),
        ({"experiment": "globallaw",
          "params": dict(GLOBAL_PARAMS, model="fixed-degree", params={"d1": 3, "d2": 1})},
         ["'d2'", ">= 2"]),
        ({"experiment": "globallaw",
          "params": dict(GLOBAL_PARAMS, model="shifted-mp", params={"alpha": 0.5})},
         ["'alpha'", ">= 1", "0.5"]),
        ({"experiment": "globallaw",
          "params": dict(GLOBAL_PARAMS, model="shifted-mp", params={"alpha": [1]})},
         ["'alpha'", "number"]),
        ({"experiment": "globallaw", "params": dict(GLOBAL_PARAMS, model="semicircle", params=5)},
         ["'params'", "JSON object"]),
        ({"experiment": "globallaw", "params": dict(GLOBAL_PARAMS, model="semicircle", params={"beta": 1})},
         ["'beta'"]),
        ({"experiment": "fluctuation-fixed",
          "params": dict(FIXED_PARAMS, expansion={"basis": "phi", "coeffs": [1, [2]]})},
         ["'coeffs'", "[2]"]),
        ({"experiment": "fluctuation-fixed",
          "params": dict(FIXED_PARAMS, expansion={"basis": "phi", "coeffs": [1, 2], "bogus": 1})},
         ["'bogus'"]),
        ({"experiment": "fluctuation-fixed", "params": dict(FIXED_PARAMS, expansion="gamma_-2")},
         ["'expansion'", "'gamma_-2'", ">= 0"]),
        ({"experiment": "fluctuation-fixed", "params": dict(FIXED_PARAMS, expansion="phi_-1")},
         ["'expansion'", "'phi_-1'", ">= 0"]),
        ({"experiment": "fluctuation-fixed", "params": dict(FIXED_PARAMS, use_eigenvalues="no")},
         ["'use_eigenvalues'", "'no'"]),
        ({"experiment": "fluctuation-fixed", "params": dict(FIXED_PARAMS, keep_samples="no")},
         ["unknown key(s) 'keep_samples' in fluctuation-fixed params"]),
        ({"experiment": "fluctuation-growing", "params": dict(GROWING_PARAMS, expansions="phi_2")},
         ["'expansions'", "list"]),
        ({"experiment": "fluctuation-growing", "params": dict(GROWING_PARAMS, expansions=[])},
         ["'expansions'", "non-empty"]),
        ({"experiment": "fluctuation-growing", "params": dict(GROWING_PARAMS, r_n=-1)},
         ["'r_n'", ">= 0"]),
        ({"experiment": "poisson", "seed": -1, "params": POISSON_PARAMS},
         ["config key 'seed' must be >= 0, got -1"]),
        # json.load reads NaN and Infinity, and no comparison refuses NaN
        ({"experiment": "globallaw", "params": dict(GLOBAL_PARAMS, model="shifted-mp", params={"alpha": NAN})},
         ["'alpha'", "finite number", "nan"]),
        ({"experiment": "globallaw", "params": dict(GLOBAL_PARAMS, model="shifted-mp", params={"alpha": INF})},
         ["'alpha'", "finite number", "inf"]),
        ({"experiment": "fluctuation-fixed",
          "params": dict(FIXED_PARAMS, expansion={"basis": "phi", "coeffs": [1, NAN]})},
         ["'coeffs'", "finite number", "nan"]),
        # refused by the gate of every run, experiments._trial_rows
        ({"experiment": "poisson", "params": dict(POISSON_PARAMS, method="bogus")},
         ["sampler key 'method'", "auto, exact-rejection, switch-chain", "'bogus'"]),
        ({"experiment": "poisson", "params": dict(POISSON_PARAMS, n=30, m=30, d1=40, d2=40)},
         ["no simple graph exists"]),
        ({"experiment": "poisson", "params": dict(POISSON_PARAMS, samples=0)},
         ["poisson params key 'samples' must be >= 1, got 0"]),
    ],
)
def test_bad_experiment_params_are_refused_before_sampling(tmp_path, capsys, monkeypatch, config, names):
    # with two workers a refusal inside a forked child would not show in the
    # parent's count of sample_graph calls, so no trial may be run at all
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "_run_trials", lambda *args: pytest.fail("ran trials"))
    samples = counting(monkeypatch, experiments, "sample_graph")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    assert run(["experiment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(name in err for name in names)
    assert "Traceback" not in err
    assert samples == []


def test_density_curve_runs_no_eigensolve(tmp_path, monkeypatch):
    g = tmp_path / "g.json"
    assert run(["sample", "--n", "12", "--m", "12", "--d1", "3", "--d2", "3",
                "--seed", "1", "--out", str(g)]) == 0
    solves = counting(monkeypatch, spectra, "eigenvalues")
    out = tmp_path / "dens.tsv"
    assert run(["spectrum", "--in", str(g), "--density", "fixed-degree", "--points", "5",
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6
    assert solves == []
    assert run(["spectrum", "--in", str(g), "--out", str(out)]) == 0
    assert len(solves) == 1


@pytest.mark.usefixtures("always_fork")
@pytest.mark.parametrize("raising", ["budget", "trial 1 on"])
def test_a_worker_error_reaches_the_cli_as_with_one_worker(tmp_path, capsys, monkeypatch, raising):
    # (8,8) stub matching at n = 16 accepts about once in e^24.5 pairings, so
    # every trial exceeds its budget; "trial 1 on" fails in every chunk but the
    # first of three, and the error of the lowest trial must win
    params = {"n": 16, "m": 16, "d1": 8, "d2": 8, "r": 2, "samples": 4, "method": "exact-rejection"}
    if raising != "budget":
        params.update(n=30, m=30, d1=3, d2=3)
        real = experiments.trial_rng

        def trial_rng(seed, t=0):
            if t >= 1:
                raise MalformedInput(f"trial {t} refused")
            return real(seed, t)

        monkeypatch.setattr(experiments, "trial_rng", trial_rng)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "poisson", "params": params, "output": str(tmp_path / "r.json")}))
    errs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(experiments, "_cpu_count", lambda: workers)
        assert run(["experiment", "--config", str(cfg)]) == 1
        errs.append(capsys.readouterr().err)
        assert multiprocessing.active_children() == []
    assert errs[0].startswith("error: ") and errs[0].count("\n") == 1
    assert ("no simple matching" if raising == "budget" else "trial 1 refused") in errs[0]
    assert "Traceback" not in errs[0]
    assert errs == [errs[0]] * 3


@pytest.mark.usefixtures("always_fork")
def test_a_worker_that_dies_is_a_typed_error(tmp_path, capsys, monkeypatch):
    # a worker killed before it sends its rows (say, by the OOM killer)
    real = experiments.trial_rng

    def trial_rng(seed, t=0):
        if t == 3:
            os._exit(3)
        return real(seed, t)

    monkeypatch.setattr(experiments, "trial_rng", trial_rng)
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    cfg = tmp_path / "c.json"
    params = {"n": 30, "m": 30, "d1": 3, "d2": 3, "r": 2, "samples": 4}
    cfg.write_text(json.dumps({"experiment": "poisson", "params": params, "output": str(tmp_path / "r.json")}))
    assert run(["experiment", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: a trial worker exited with code 3 before sending its rows\n"
    assert multiprocessing.active_children() == []
