import json

import pytest

from bireg.cli import dispatch
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
    assert lines[0].startswith("# seed=")
    assert lines[1].split("\t") == ["alpha", "k", "F", "F_bound", "B", "B_bound"]
    for line in lines[2:]:
        _, k, f, fb, b, bb = line.split("\t")
        assert int(f) <= int(fb) and int(b) <= int(bb)


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


def test_computation_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run(["walks", "--in", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "config, key",
    [
        ({"experiment": "poisson", "params": [1, 2]}, "'params'"),
        ({"experiment": "poisson", "seed": [1], "params": POISSON_PARAMS}, "'seed'"),
        ({"experiment": "poisson", "seed": True, "params": POISSON_PARAMS}, "'seed'"),
        ({"experiment": "poisson", "params": dict(POISSON_PARAMS, samples="2")}, "'samples'"),
        ({"experiment": "poisson", "params": dict(POISSON_PARAMS, samples=0)}, "'samples'"),
        ({"experiment": "fluctuation-fixed",
          "params": {"n": 20, "d1": 3, "d2": 3, "expansion": "gamma_2", "samples": 2, "k_max": "3"}},
         "'k_max'"),
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
    ],
)
def test_badly_typed_graph_file_is_a_typed_error(tmp_path, capsys, command, data, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run([*command, "--in", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err


def test_identity_runs_the_walk_recurrence_once(tmp_path, recurrence_calls):
    g = tmp_path / "g.json"
    assert run(["sample", "--n", "300", "--m", "300", "--d1", "3", "--d2", "3",
                "--seed", "0", "--out", str(g)]) == 0
    out = tmp_path / "id.tsv"
    assert run(["identity", "--in", str(g), "--kmax", "14", "--out", str(out)]) == 0
    assert recurrence_calls == [14]
    assert len(out.read_text().splitlines()) == 15
