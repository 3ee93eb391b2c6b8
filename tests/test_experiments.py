import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import regsubmax.datasets as ds
from regsubmax.cli import main
from regsubmax.experiments import (ALGORITHMS, OBJECTIVES, RESULT_FIELDS,
                                   ExperimentConfig, emit_results,
                                   parse_results, run_experiment)
from regsubmax.modefinding import sample_slc_matrix
from regsubmax.objectives import similarity_from_features


@pytest.fixture()
def digraph_file(tmp_path):
    path = tmp_path / "graph.txt"
    ds.write_edge_list(ds.random_digraph(25, 0.1, seed=2), path)
    return path


@pytest.fixture()
def features_file(tmp_path):
    rng = np.random.default_rng(8)
    path = tmp_path / "points.csv"
    ds.save_matrix_csv(rng.normal(size=(12, 2)), path)
    return path


def base_config(dataset, **kw) -> ExperimentConfig:
    cfg = ExperimentConfig(dataset=str(dataset))
    return cfg.override(**kw)


def test_config_from_file_and_coercion(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"dataset": "d.txt", "algos": ["greedy", "sieve"],
                             "ks": [2, 4], "seeds": [0, 1], "eps": 0.2}))
    cfg = ExperimentConfig.from_file(p)
    assert cfg.dataset == "d.txt"
    assert cfg.algos == ("greedy", "sieve")
    assert cfg.ks == (2, 4)
    assert cfg.seeds == (0, 1)
    assert cfg.eps == 0.2
    assert cfg.delta == 0.1  # untouched default


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"dataset": "d.txt", "budget": 3}))
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig.from_file(p)
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="flat JSON"):
        ExperimentConfig.from_file(p)


@pytest.mark.parametrize("raw", [{"ks": "3"}, {"eps": "0.2"}, {"algos": "greedy"},
                                 {"header": "yes"}, {"out": 3}, {"seeds": [True]},
                                 {"machines": 2.5}], ids=lambda raw: next(iter(raw)))
def test_config_file_values_are_type_checked(raw, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    (key,) = raw
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        ExperimentConfig.from_file(p)


def test_run_experiment_accepts_numpy_integers(digraph_file):
    rows, _ = run_experiment(base_config(digraph_file, ks=(np.int64(3),),
                                         seeds=(np.int64(0),), machines=np.int64(2)))
    assert [(r.k, r.seed) for r in rows] == [(3, 0)]


def test_override_ignores_none_and_wins_otherwise():
    cfg = ExperimentConfig(dataset="a.txt", eps=0.2, ks=(3,))
    out = cfg.override(eps=None, ks=(5, 7), dataset=None)
    assert out.dataset == "a.txt"
    assert out.eps == 0.2
    assert out.ks == (5, 7)


def test_validate_rejects_bad_values():
    with pytest.raises(ValueError, match="dataset"):
        ExperimentConfig().validate()
    with pytest.raises(ValueError, match="objective"):
        ExperimentConfig(dataset="d", objective="nope").validate()
    with pytest.raises(ValueError, match="algorithm"):
        ExperimentConfig(dataset="d", algos=("nope",)).validate()
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig(dataset="d", ks=(0,)).validate()
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(dataset="d", seeds=()).validate()
    with pytest.raises(ValueError, match="machine"):
        ExperimentConfig(dataset="d", machines=0).validate()


def test_registries_cover_documented_ids():
    assert set(ALGORITHMS) == {"greedy", "distorted-greedy", "sieve",
                               "threshold-streaming", "distorted-streaming",
                               "distributed", "brute-force"}
    assert set(OBJECTIVES) == {"vertex-cover", "facility-location", "log-det",
                               "saturating-coverage", "slc-mode"}


def test_run_experiment_grid_shape_and_identity(digraph_file):
    cfg = base_config(digraph_file, algos=("greedy", "distorted-greedy"),
                      ks=(2, 4), seeds=(0, 1, 2))
    rows, round_rows = run_experiment(cfg)
    assert len(rows) == 2 * 2 * 3
    assert round_rows == []  # no distributed cell
    for row in rows:
        assert row.f_value == pytest.approx(row.g_value - row.ell_value)
        assert row.oracle_calls >= 1
        assert row.dataset == digraph_file.name
    # deterministic cells: greedy ignores the seed, so its rows agree
    greedy_f = {r.f_value for r in rows if r.algorithm == "greedy" and r.k == 2}
    assert len(greedy_f) == 1


def test_run_experiment_duplicate_cells_collapse(digraph_file):
    cfg = base_config(digraph_file, algos=("greedy", "greedy"), ks=(3, 3),
                      seeds=(0, 0))
    rows, _ = run_experiment(cfg)
    assert len(rows) == 1


def test_run_experiment_deterministic_modulo_wall(digraph_file):
    cfg = base_config(digraph_file,
                      algos=("sieve", "distorted-streaming", "distributed"),
                      ks=(3,), seeds=(0, 1), stream_order="shuffled")
    a, _ = run_experiment(cfg)
    b, _ = run_experiment(cfg)

    def strip(rows):
        return [tuple(getattr(r, f) for f in RESULT_FIELDS if f != "wall_ms")
                for r in rows]

    assert strip(a) == strip(b)


def test_run_experiment_writes_csv_and_rounds_sidecar(digraph_file, tmp_path):
    out = tmp_path / "res.csv"
    cfg = base_config(digraph_file, algos=("distributed",), ks=(3,),
                      seeds=(0,), eps=0.5, machines=2, out=str(out))
    rows, round_rows = run_experiment(cfg)
    assert out.exists()
    parsed = parse_results(out)
    assert len(parsed) == len(rows) == 1
    assert parsed[0].algorithm == "distributed"
    assert parsed[0].f_value == pytest.approx(rows[0].f_value, rel=1e-8)
    # provenance with commas survives the CSV round trip
    assert parsed[0].provenance == rows[0].provenance
    assert "," in parsed[0].provenance
    sidecar = tmp_path / "res.csv.rounds.csv"
    assert sidecar.exists()
    lines = sidecar.read_text().splitlines()
    assert lines[0] == ("dataset,algorithm,k,eps,m,seed,round,pool_sets,"
                        "pool_elements,shard_sizes,oracle_calls")
    assert len(lines) == 1 + len(round_rows) == 3  # eps=0.5 -> two rounds


def test_emit_results_header_and_floats(tmp_path, digraph_file):
    cfg = base_config(digraph_file, algos=("greedy",), ks=(2,), seeds=(0,))
    rows, _ = run_experiment(cfg)
    out = tmp_path / "r.csv"
    emit_results(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(RESULT_FIELDS)
    assert len(lines) == 2
    with pytest.raises(ValueError, match="header"):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        parse_results(bad)


def test_stream_order_changes_streaming_cells(digraph_file):
    natural = base_config(digraph_file, algos=("sieve",), ks=(3,), seeds=(0, 1))
    shuffled = natural.override(stream_order="shuffled")
    rows_n, _ = run_experiment(natural)
    rows_s, _ = run_experiment(shuffled)
    # natural order ignores the seed entirely
    assert rows_n[0].f_value == rows_n[1].f_value
    assert rows_n[0].provenance == rows_n[1].provenance
    assert len(rows_s) == 2  # shuffled runs still produce one row per seed


def objective_dataset(form, tmp_path, features_file):
    """A small dataset in one of the forms the objectives read."""
    if form == "features":
        return features_file
    path = tmp_path / ("points.sim.csv" if form == "similarity" else f"{form}.csv")
    if form == "edges":
        ds.write_edge_list(ds.random_digraph(12, 0.25, seed=2), path)
    elif form == "similarity":
        X = ds.load_matrix_csv(features_file)
        ds.save_matrix_csv(similarity_from_features(X), path)
    elif form == "kernel":
        ds.save_matrix_csv(sample_slc_matrix(7, seed=11), path)
    elif form == "scores":
        rng = np.random.default_rng(3)
        path.write_text("".join(f"{w},{e},{rng.uniform(0.1, 2.0):.6g}\n"
                                for w in range(3) for e in range(10)))
    else:  # a score table with no triples
        path.write_text("# word,element,value\n")
    return path


@pytest.mark.parametrize("objective, form", [
    ("vertex-cover", "edges"), ("facility-location", "features"),
    ("log-det", "features"), ("log-det", "similarity"),
    ("saturating-coverage", "scores"), ("saturating-coverage", "no-scores"),
    ("slc-mode", "kernel")])
def test_facility_objective_runs(objective, form, tmp_path, features_file):
    cfg = base_config(objective_dataset(form, tmp_path, features_file),
                      objective=objective, algos=("greedy", "brute-force"), ks=(2,),
                      seeds=(0,))
    if form == "no-scores":
        with pytest.raises(ValueError, match="empty score table"):
            run_experiment(cfg)
        return
    rows, _ = run_experiment(cfg)
    brute = next(r for r in rows if r.algorithm == "brute-force")
    greedy = next(r for r in rows if r.algorithm == "greedy")
    assert brute.f_value >= greedy.f_value - 1e-9
    if objective == "facility-location":
        assert 0.0 <= brute.f_value <= 1.0  # similarity scores live in [0, 1]


def test_cli_run_prints_rows(digraph_file, capsys):
    rc = main(["run", "--dataset", str(digraph_file), "--algo",
               "greedy,sieve", "--k", "2,3", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
    assert all("f=" in line and "calls=" in line for line in out)


def test_cli_run_with_config_and_flag_override(digraph_file, tmp_path, capsys):
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"dataset": str(digraph_file),
                                "algos": ["greedy"], "ks": [2]}))
    out = tmp_path / "res.csv"
    rc = main(["run", "--config", str(cfgf), "--k", "3,4",
               "--out", str(out)])
    assert rc == 0
    assert "wrote 2 rows" in capsys.readouterr().out
    parsed = parse_results(out)
    assert sorted(r.k for r in parsed) == [3, 4]  # flag beat the file


def test_cli_run_unknown_algo_fails_fast(digraph_file, capsys):
    rc = main(["run", "--dataset", str(digraph_file), "--algo", "magic"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("regsubmax: error: ") and "unknown algorithm" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, raw, message", [
    ("validate", {"objective": "nope"}, "unknown objective 'nope'"),
    ("validate", {"algos": ["nope"]}, "unknown algorithm 'nope'"),
    ("run", {"ks": "3"}, "'ks' must be tuple[int, ...], got '3'")],
    ids=["validate-objective", "validate-algos", "run-ks"])
def test_cli_config_file_errors_print_one_line(command, raw, message, digraph_file,
                                               tmp_path, capsys):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps(raw))
    rc = main([command, "--config", str(cfgf), "--dataset", str(digraph_file)]
              + (["--algo", "greedy"] if command == "run" else []))
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("regsubmax: error: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


NON_FINITE_CLI = {
    **{f"{algo}-eps-{x}": (["run", "--algo", algo, "--k", "3", "--eps", x], "eps")
       for algo in ("sieve", "threshold-streaming", "distributed", "distorted-streaming")
       for x in ("inf", "nan")},
    "distorted-streaming-delta-inf":
        (["run", "--algo", "distorted-streaming", "--k", "3", "--delta", "inf"], "delta"),
    "config-alpha-nan": (["run", "--algo", "greedy", "--k", "3"], "alpha"),
    "greedy-eps-nan": (["run", "--algo", "greedy", "--k", "3", "--eps", "nan"], "eps"),
    "gen-slc-mu-nan": (["gen", "slc", "--n", "4", "--mu", "nan"], "mu"),
}


@pytest.mark.parametrize("case", NON_FINITE_CLI)
def test_cli_non_finite_scalars_fail_with_one_line(case, digraph_file, features_file,
                                                   tmp_path, capsys):
    argv, param = NON_FINITE_CLI[case]
    out = tmp_path / "out.csv"
    if case.startswith("config"):
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps({"objective": "log-det", "alpha": float("nan")}))
        argv = argv + ["--config", str(cfgf), "--dataset", str(features_file)]
    elif argv[0] == "run":
        argv = argv + ["--dataset", str(digraph_file)]
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"regsubmax: error: {param} must be a finite float")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(out.name)]


def test_cli_malformed_list_flag_is_a_usage_error(digraph_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--dataset", str(digraph_file), "--k", "3,x"])
    assert exc.value.code == 2
    assert "argument --k: invalid comma-separated int value: '3,x'" in capsys.readouterr().err


def test_cli_run_reports_a_missing_dataset_file(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    rc = main(["run", "--dataset", str(missing), "--algo", "greedy"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("regsubmax: error: ") and str(missing) in err
    assert err.count("\n") == 1


def test_cli_run_rejects_an_empty_algorithm_list(digraph_file, tmp_path):
    out = tmp_path / "empty.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "regsubmax", "run", "--dataset", str(digraph_file),
         "--algo", ",", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "need at least one algorithm" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_cli_validate_passes_on_shipped_oracles(digraph_file, capsys):
    rc = main(["validate", "--dataset", str(digraph_file), "--triples", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 5
    assert "[FAIL]" not in out


@pytest.mark.parametrize("objective", ["vertex-cover", "facility-location"])
def test_cost_file_must_fit_the_ground_set(objective, digraph_file, features_file,
                                           tmp_path, capsys):
    dataset = digraph_file if objective == "vertex-cover" else features_file
    costs = tmp_path / "costs.txt"
    costs.write_text("0.5\n" * 7)
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps({"costs": str(costs)}))
    for command in ("run", "validate"):
        rc = main([command, "--config", str(cfgf), "--dataset", str(dataset),
                   "--objective", objective])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("regsubmax: error: ") and "cost vector length" in err


def test_cli_validate_requires_dataset(capsys):
    rc = main(["validate"])
    assert rc == 2
    assert capsys.readouterr().err == "regsubmax: error: no dataset given\n"


def test_cli_gen_digraph_round_trips(tmp_path, capsys):
    out = tmp_path / "g.txt"
    rc = main(["gen", "digraph", "--n", "30", "--p", "0.1", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    assert "edges" in capsys.readouterr().out
    g = ds.load_edge_list(out)
    assert g.n <= 30
    assert out.read_text().startswith("# random digraph n=30")


def test_cli_gen_slc_writes_meta(tmp_path, capsys):
    out = tmp_path / "kernel.csv"
    rc = main(["gen", "slc", "--n", "6", "--mu", "0.5", "--sigma", "0.7",
               "--seed", "3", "--out", str(out)])
    assert rc == 0
    L = ds.load_matrix_csv(out)
    assert L.shape == (6, 6)
    assert np.allclose(L, L.T)
    meta = json.loads((tmp_path / "kernel.csv.meta.json").read_text())
    assert meta["kind"] == "slc"
    assert meta["seed"] == 3
    # generated kernel is usable end to end
    rc2 = main(["run", "--dataset", str(out), "--objective", "slc-mode",
                "--algo", "distorted-greedy", "--k", "2", "--seed", "0"])
    assert rc2 == 0


def test_slc_mode_greedy_matches_brute_force(tmp_path):
    out = tmp_path / "kernel.csv"
    ds.save_generated_matrix(
        __import__("regsubmax").sample_slc_matrix(7, seed=11), out,
        {"kind": "slc"})
    cfg = base_config(out, objective="slc-mode",
                      algos=("distorted-greedy", "brute-force"), ks=(3,),
                      seeds=(0,))
    rows, _ = run_experiment(cfg)
    by_algo = {r.algorithm: r for r in rows}
    assert (by_algo["distorted-greedy"].f_value
            <= by_algo["brute-force"].f_value + 1e-9)


def test_threshold_streaming_rejects_zero_r(digraph_file):
    cfg = base_config(digraph_file, algos=("threshold-streaming",), r=0.0)
    with pytest.raises(ValueError, match="trade-off r"):
        run_experiment(cfg)


def test_validate_rejects_an_empty_budget_list():
    with pytest.raises(ValueError, match="need at least one budget k"):
        ExperimentConfig(dataset="d", ks=()).validate()


@pytest.mark.parametrize("triples", ["0", "-5"])
def test_cli_validate_needs_a_positive_triple_count(triples, digraph_file, capsys):
    rc = main(["validate", "--dataset", str(digraph_file), "--triples", triples])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (f"regsubmax: error: triples must be a finite int in [1, inf), "
                            f"got {triples}\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["validate", "--dataset", "{graph}"],
    ["gen", "digraph", "--n", "5", "--out", "{tmp}/g.txt"],
    ["gen", "slc", "--n", "3", "--out", "{tmp}/k.csv"],
    ["run", "--dataset", "{graph}", "--algo", "sieve", "--k", "3", "--stream-order", "shuffled"],
    ["run", "--dataset", "{graph}", "--algo", "distributed", "--k", "3"]],
    ids=["validate", "gen-digraph", "gen-slc", "run-shuffled", "run-distributed"])
def test_cli_negative_seed_fails_with_one_line(argv, digraph_file, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    rc = main([a.format(graph=digraph_file, tmp=out) for a in argv] + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "regsubmax: error: seed must be a finite int in [0, inf), got -1\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("text", ["", "3 3\n"], ids=["empty", "self-loops"])
def test_cli_rejects_edge_lists_without_edges(text, tmp_path, capsys):
    p = tmp_path / "none.txt"
    p.write_text(text)
    for argv in (["run", "--algo", "greedy,distorted-streaming,distributed", "--k", "2"],
                 ["validate"]):
        assert main(argv + ["--dataset", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"regsubmax: error: {p}: no edges between distinct nodes\n"
        assert captured.out == ""


def test_cli_edge_label_outside_int64_is_one_error_line(tmp_path, capsys):
    p = tmp_path / "big.txt"
    p.write_text("0 9223372036854775808\n")
    rc = main(["run", "--dataset", str(p), "--objective", "vertex-cover",
               "--algo", "greedy", "--k", "1"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"regsubmax: error: {p}:1: expected 'src dst', got '0 9223372036854775808'\n")
