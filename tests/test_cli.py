"""End-to-end checks of the command-line interface via main()."""

import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gsdnn import cli, graph_core, gsd_problem, iter_solvers
from gsdnn.bilevel_trainer import TrainConfig
from gsdnn.cli import EQUIV_GRAPHS, build_parser, main
from gsdnn.graph_core import add_self_loops, load_edge_list, load_signal_csv, normalize
from gsdnn.gsd_problem import closed_form_ppnp

EDGES = "nodes 6\n0 1\n1 2\n2 3\n3 4\n4 5\n0 5\n1 4\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "edges.txt").write_text(EDGES)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 2))
    np.savetxt(tmp_path / "feats.csv", x, delimiter=",", fmt="%.17g")
    return tmp_path


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# denoise


def test_denoise_closed_form_identity_at_full_teleport(workdir, capsys):
    out = workdir / "out"
    code = main(
        [
            "denoise",
            "--graph", str(workdir / "edges.txt"),
            "--features", str(workdir / "feats.csv"),
            "--solver", "closed-form",
            "--gamma", "1.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    got = np.loadtxt(out / "denoised.csv", delimiter=",")
    want = np.loadtxt(workdir / "feats.csv", delimiter=",")
    np.testing.assert_array_equal(got, want)
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "denoise"
    assert str(workdir / "edges.txt") in manifest["inputs"]
    assert sorted(manifest["outputs"]) == ["denoised.csv", "solve_report.json"]


def _ring(tmp_path, n, d=2):
    """Edge list and d-column features of an n-node cycle."""
    (tmp_path / "ring.txt").write_text("".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    x = np.random.default_rng(5).standard_normal((n, d))
    np.savetxt(tmp_path / "ring.csv", x, delimiter=",", fmt="%.17g")
    return ["--graph", str(tmp_path / "ring.txt"), "--features", str(tmp_path / "ring.csv")]


@pytest.mark.parametrize("nodes, gamma", [(6, "0.3"), (6, "1.0"), (300, "0.3")],
                         ids=["dense", "identity", "cg"])
def test_closed_form_report_states_cg_iterations_and_residuals(tmp_path, nodes, gamma):
    out = tmp_path / "out"
    argv = ["denoise", *_ring(tmp_path, nodes), "--solver", "closed-form", "--gamma", gamma]
    assert main([*argv, "--out", str(out)]) == 0
    report = read_json(out / "solve_report.json")
    assert sorted(report) == ["cg_iterations", "converged", "gamma", "relative_residuals",
                              "solver"]
    assert read_json(out / "manifest.json")["counters"] == {
        "iterations": report["cg_iterations"], "forked_columns": 0}
    # the dense branch is taken up to DENSE_MAX_NODES = 256 nodes
    if nodes == 300:
        assert 0 < report["cg_iterations"] < 20 * nodes
    else:
        assert report["cg_iterations"] == 0
    resid = report["relative_residuals"]
    assert len(resid) == 2 and all(0.0 <= r < 1e-12 for r in resid)
    if gamma == "1.0":
        assert resid == [0.0, 0.0]


@pytest.mark.parametrize("gamma", ["1e-200", "5.551115123125783e-17"])
def test_closed_form_gamma_where_one_minus_gamma_rounds_to_one_is_usage_error(
        tmp_path, capsys, gamma):
    out = tmp_path / "out"
    argv = ["denoise", *_ring(tmp_path, 6), "--solver", "closed-form", "--gamma", gamma]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "at or below 2^-54" in err
    assert not out.exists()


def test_closed_form_near_singular_dense_solve_reports_not_converged(tmp_path, capsys):
    # gamma = 2^-53 is the smallest accepted; the ring's system is then too
    # ill-conditioned for a 1e-14 residual, which the report says, exit 0
    out = tmp_path / "out"
    argv = ["denoise", *_ring(tmp_path, 6), "--solver", "closed-form", "--gamma", repr(2.0**-53)]
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = read_json(out / "solve_report.json")
    assert report["converged"] is False and report["cg_iterations"] == 0
    assert max(report["relative_residuals"]) > 1e-14


def _extreme_path(tmp_path, n, size):
    """Edge list of an n-node path and 2 feature columns of +-size: near
    either end of the float range, the squares of these entries overflow or
    vanish."""
    edges = "".join(f"{i} {i + 1}\n" for i in range(n - 1))
    (tmp_path / "path.txt").write_text(f"nodes {n}\n{edges}")
    x = size * np.random.default_rng(6).choice([-1.0, 1.0], (n, 2))
    np.savetxt(tmp_path / "path.csv", x, delimiter=",", fmt="%.17g")
    return ["denoise", "--graph", str(tmp_path / "path.txt"),
            "--features", str(tmp_path / "path.csv"), "--solver", "closed-form", "--gamma", "0.1"]


@pytest.mark.parametrize("size", [1e308, 1e-310], ids=["huge", "subnormal"])
def test_closed_form_dense_residuals_at_the_ends_of_the_float_range(tmp_path, capsys, size):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*_extreme_path(tmp_path, 4, size), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = read_json(out / "solve_report.json")
    assert report["converged"] and report["cg_iterations"] == 0
    resid = report["relative_residuals"]
    assert len(resid) == 2 and all(0.0 <= r < 1e-12 for r in resid)


@pytest.mark.parametrize("size", [1e160, 1e306], ids=["1e160", "1e306"])
def test_closed_form_cg_solves_signals_whose_squares_overflow(tmp_path, capsys, size):
    # 400 nodes take the conjugate-gradient branch; each column runs scaled
    # by a power of two, so the squared residual stays in range, and the
    # result is size times the solve of the +-1 signal
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*_extreme_path(tmp_path, 400, size), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = read_json(out / "solve_report.json")
    assert report["converged"] and report["cg_iterations"] > 0
    assert all(0.0 <= r < 1e-12 for r in report["relative_residuals"])
    ops = normalize(load_edge_list((tmp_path / "path.txt").read_text()))
    signs = load_signal_csv(str(tmp_path / "path.csv")) / size
    unit = np.linalg.solve(np.eye(400) - 0.9 * ops.a_hat.toarray(), 0.1 * signs)
    np.testing.assert_allclose(load_signal_csv(str(out / "denoised.csv")) / size, unit,
                               rtol=1e-9, atol=0.0)


def test_closed_form_cg_solves_a_subnormal_signal(tmp_path, capsys):
    # +-1e-310 features on 400 nodes: the conjugate gradients stop on the
    # relative test alone, so the subnormal columns are solved, not left at 0
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*_extreme_path(tmp_path, 400, 1e-310), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = read_json(out / "solve_report.json")
    assert report["converged"] and report["cg_iterations"] > 0
    assert all(0.0 < r <= 1e-14 for r in report["relative_residuals"])
    ops = normalize(load_edge_list((tmp_path / "path.txt").read_text()))
    x = load_signal_csv(str(tmp_path / "path.csv"))
    # the dense solve of gamma x scaled by 2^1030, scaled back
    system = np.eye(400) - 0.9 * ops.a_hat.toarray()
    want = np.ldexp(np.linalg.solve(system, np.ldexp(0.1 * x, 1030)), -1030)
    got = load_signal_csv(str(out / "denoised.csv"))
    assert np.abs(got).min(axis=0).max() > 0.0
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [10, 300], ids=["dense", "cg"])
def test_closed_form_solution_that_overflows_is_one_numeric_error_line(tmp_path, capsys, n):
    # every feature of a star is finite, but the hub's solution exceeds the
    # largest float; 300 nodes take the conjugate-gradient branch
    (tmp_path / "star.txt").write_text(f"nodes {n}\n" + "".join(f"0 {i}\n" for i in range(1, n)))
    np.savetxt(tmp_path / "star.csv", np.full((n, 2), 1.7e308), delimiter=",", fmt="%.17g")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["denoise", "--graph", str(tmp_path / "star.txt"),
                     "--features", str(tmp_path / "star.csv"), "--solver", "closed-form",
                     "--gamma", "0.1", "--out", str(out)])
    assert code == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric error:")
    assert not out.exists()


def test_denoised_csv_of_two_writer_blocks_is_the_savetxt_bytes(tmp_path):
    # 2100 rows are two blocks of the CSV writer, so its forked path runs
    n, gamma = 2100, 0.3
    assert n >= 2 * graph_core._CSV_BLOCK_ROWS
    out = tmp_path / "out"
    argv = ["denoise", *_ring(tmp_path, n, d=3), "--solver", "closed-form", "--gamma", str(gamma)]
    assert main([*argv, "--out", str(out)]) == 0
    ops = normalize(add_self_loops(load_edge_list((tmp_path / "ring.txt").read_text())))
    stats = {}
    final = closed_form_ppnp(ops, load_signal_csv(tmp_path / "ring.csv"), gamma, stats)
    want = io.BytesIO()
    np.savetxt(want, final, delimiter=",", fmt="%.17g")
    assert (out / "denoised.csv").read_bytes() == want.getvalue()
    manifest = read_json(out / "manifest.json")
    assert manifest["outputs"] == ["denoised.csv", "solve_report.json"]
    assert manifest["counters"]["forked_columns"] == stats.pop("forked_columns") == 0
    assert read_json(out / "solve_report.json") == {
        "solver": "closed-form", "gamma": gamma, "converged": True, **stats}


def test_empty_feature_file_is_usage_error(workdir, capsys):
    (workdir / "empty.csv").write_text("")
    out = workdir / "out"
    code = main(["denoise", "--graph", str(workdir / "edges.txt"),
                 "--features", str(workdir / "empty.csv"), "--solver", "closed-form",
                 "--gamma", "0.5", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad feature CSV {workdir / 'empty.csv'}: file has no data rows" in err
    assert "Warning" not in err
    assert not out.exists()


def test_empty_label_file_is_usage_error(workdir, capsys):
    (workdir / "labels.csv").write_text("\n# no labels\n")
    spec = f"files:{workdir / 'edges.txt'},{workdir / 'feats.csv'},{workdir / 'labels.csv'}"
    out = workdir / "out"
    assert main(["train", "--dataset", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"bad label file {workdir / 'labels.csv'}: file has no data rows" in err
    assert "Warning" not in err
    assert not out.exists()


def test_denoise_manifest_records_sizes_and_timing(workdir):
    out = workdir / "out"
    assert main([*_denoise_gd(workdir), "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    # 6 nodes, 7 edges stored in both triangles plus 6 self-loops, 2 columns
    assert manifest["sizes"] == {"n": 6, "nnz": 20, "d": 2}
    timing = manifest["timing"]
    assert sorted(timing) == ["load_seconds", "solve_seconds", "write_seconds"]
    assert all(isinstance(v, float) and v >= 0.0 for v in timing.values())
    assert sorted(read_json(out / "solve_report.json")) == [
        "converged", "iterations", "objective_trace", "solver", "stop_reason"]


def test_denoise_gd_approaches_closed_form(workdir):
    spec = {
        "alpha": 0.2,
        "beta": 0.8,
        "t_alpha": np.eye(2).tolist(),
        "t_beta": np.eye(2).tolist(),
        "regularizer": None,
    }
    (workdir / "spec.json").write_text(json.dumps(spec))
    common = [
        "--graph", str(workdir / "edges.txt"),
        "--features", str(workdir / "feats.csv"),
    ]
    assert main(
        ["denoise", *common, "--solver", "gd", "--spec", str(workdir / "spec.json"),
         "--iters", "400", "--out", str(workdir / "gd")]
    ) == 0
    assert main(
        ["denoise", *common, "--solver", "closed-form", "--gamma", "0.2",
         "--out", str(workdir / "cf")]
    ) == 0
    a = np.loadtxt(workdir / "gd" / "denoised.csv", delimiter=",")
    b = np.loadtxt(workdir / "cf" / "denoised.csv", delimiter=",")
    assert float(np.max(np.abs(a - b))) < 1e-6


def test_denoise_missing_graph_is_usage_error(workdir, capsys):
    code = main(
        ["denoise", "--features", str(workdir / "feats.csv"), "--solver", "gd"]
    )
    assert code == 2
    out = workdir / "newdir"
    code = main(
        [
            "denoise",
            "--graph", str(workdir / "missing.txt"),
            "--features", str(workdir / "feats.csv"),
            "--solver", "closed-form",
            "--gamma", "0.5",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert not out.exists()


def test_denoise_unreadable_features(workdir, capsys):
    code = main(
        [
            "denoise",
            "--graph", str(workdir / "edges.txt"),
            "--features", str(workdir / "nope.csv"),
            "--solver", "closed-form",
            "--gamma", "0.5",
            "--out", str(workdir / "x"),
        ]
    )
    assert code == 2


def _spec(alpha=0.2, beta=1.0, t_alpha=None, t_beta=None, regularizer=None):
    eye = np.eye(2).tolist()
    return {"alpha": alpha, "beta": beta, "t_alpha": t_alpha or eye,
            "t_beta": t_beta or eye, "regularizer": regularizer}


@pytest.mark.parametrize(
    "solver, spec",
    [
        ("gd", _spec(alpha=float("nan"))),
        ("gd", _spec(t_beta=[[1.0, float("nan")], [0.0, 1.0]])),
        ("gd", _spec(t_alpha=np.eye(3).tolist(), t_beta=np.eye(3).tolist())),
        ("gd", _spec(regularizer={"kind": "nonneg"})),
        ("proxgd", _spec()),
        ("gd", _spec(alpha=0.0, beta=0.0)),
        ("gd", _spec(t_alpha=[[1.0, 0.0], [0.0, -0.5]])),
        ("proxgd", _spec(regularizer={"kind": "row_l21", "weight": "nan"})),
        ("proxgd", _spec(regularizer={"kind": "row_l21", "weight": "inf"})),
        ("gd", []),
        ("gd", _spec(regularizer="nonneg")),
        ("gd", {k: v for k, v in _spec().items() if k != "alpha"}),
        ("gd", _spec(alpha=True)),
        ("proxgd", _spec(regularizer={"kind": "row_l21", "weight": True})),
        ("gd", _spec(t_alpha=[[True, 0.0], [0.0, 1.0]])),
        ("gd", _spec(t_alpha=[[1e308, 1e308], [1e308, 1e308]])),
        ("gd", _spec(alpha=1e308, beta=1e308)),
    ],
    ids=["nan-alpha", "nan-t", "dim-mismatch", "gd-nonsmooth", "proxgd-smooth",
         "zero-curvature", "indefinite-t", "nan-weight", "inf-weight", "json-array",
         "string-regularizer", "no-alpha", "bool-alpha", "bool-weight", "bool-t-entry",
         "huge-t", "infinite-curvature"],
)
def test_denoise_bad_spec_is_usage_error(tmp_path, capsys, solver, spec):
    (tmp_path / "cycle.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
    (tmp_path / "feats.csv").write_text("1,2\n-1,0.5\n0.3,-2\n1.5,1\n")
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    code = main(
        [
            "denoise",
            "--graph", str(tmp_path / "cycle.txt"),
            "--features", str(tmp_path / "feats.csv"),
            "--solver", solver,
            "--spec", str(tmp_path / "spec.json"),
            "--out", str(out),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_denoise_diverging_gd_exits_numeric_without_outputs(tmp_path, capsys):
    # a 4-cycle at stepsize 10, far above the 1/Lambda bound: the iterates
    # overflow, so the run must end with exit 3 and no output files
    (tmp_path / "cycle.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
    (tmp_path / "feats.csv").write_text("1,2\n-1,0.5\n0.3,-2\n1.5,1\n")
    spec = {"alpha": 0.2, "beta": 1.0, "t_alpha": np.eye(2).tolist(),
            "t_beta": np.eye(2).tolist(), "regularizer": None}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warnings either
        code = main(
            [
                "denoise",
                "--graph", str(tmp_path / "cycle.txt"),
                "--features", str(tmp_path / "feats.csv"),
                "--solver", "gd",
                "--spec", str(tmp_path / "spec.json"),
                "--stepsize", "10",
                "--out", str(out),
            ]
        )
    assert code == 3
    assert "diverged" in capsys.readouterr().err
    assert not (out / "denoised.csv").exists()
    assert not (out / "solve_report.json").exists()
    assert not out.exists()


# ---------------------------------------------------------------------------
# equiv


def test_equiv_all_models_pass(workdir, capsys):
    out = workdir / "eq"
    code = main(["equiv", "--model", "all", "--trials", "3", "--out", str(out)])
    assert code == 0
    report = read_json(out / "equiv_report.json")
    assert report["all_pass"]
    assert len(report["results"]) == 7
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["graph_distribution"]["family"] == "erdos-renyi"


def test_equiv_reruns_are_byte_identical(workdir, capsys):
    args = ["equiv", "--model", "sgc", "--trials", "2", "--seed", "7"]
    assert main([*args, "--out", str(workdir / "a")]) == 0
    assert main([*args, "--out", str(workdir / "b")]) == 0
    a = (workdir / "a" / "equiv_report.json").read_bytes()
    b = (workdir / "b" / "equiv_report.json").read_bytes()
    assert a == b


def test_equiv_unknown_model_is_usage_error(workdir, capsys):
    assert main(["equiv", "--model", "unknown", "--out", str(workdir / "x")]) == 2


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_equiv_nonpositive_trials_is_usage_error(tmp_path, capsys, trials):
    out = tmp_path / "x"
    assert main(["equiv", "--trials", trials, "--out", str(out)]) == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


def test_equiv_impossible_tolerance_fails_the_check(workdir, capsys):
    code = main(
        ["equiv", "--model", "sgc", "--trials", "2", "--tol", "1e-30",
         "--out", str(workdir / "x")]
    )
    assert code == 1
    assert not read_json(workdir / "x" / "equiv_report.json")["all_pass"]


# ---------------------------------------------------------------------------
# filter


def test_filter_identity_theta(workdir, capsys):
    out = workdir / "f1"
    assert main(["filter", "--theta", "1", "--out", str(out)]) == 0
    report = read_json(out / "filter_report.json")
    assert report["gammas"] == [1.0]
    assert report["verification"]["max_abs_diff"] == 0.0
    assert not (out / "response.csv").exists()


def test_filter_first_order_with_graph(workdir, capsys):
    out = workdir / "f2"
    code = main(
        ["filter", "--theta", "0,1", "--graph", str(workdir / "edges.txt"),
         "--out", str(out)]
    )
    assert code == 0
    report = read_json(out / "filter_report.json")
    assert report["gammas"] == [1.0, -1.0]
    rows = (out / "response.csv").read_text().strip().splitlines()
    assert rows[0] == "lambda,response"
    table = np.loadtxt(rows[1:], delimiter=",", ndmin=2)
    # the pure first-order filter responds with the frequency itself
    np.testing.assert_allclose(table[:, 1], table[:, 0], atol=1e-12)
    assert len(rows) == 1 + 6


def test_filter_random_theta_verifies_on_given_graph(workdir, capsys):
    out = workdir / "f3"
    code = main(
        ["filter", "--theta", "0.3,-0.2,0.05,0.7,-0.11",
         "--graph", str(workdir / "edges.txt"), "--out", str(out)]
    )
    assert code == 0
    report = read_json(out / "filter_report.json")
    assert report["verification"]["max_abs_diff"] < 1e-8


def test_filter_malformed_theta(workdir, capsys):
    assert main(["filter", "--theta", "1,abc", "--out", str(workdir / "x")]) == 2


def test_filter_theta_whose_gammas_overflow_is_usage_error(workdir, capsys):
    out = workdir / "x"
    assert main(["filter", "--theta", "1e308,1e308", "--out", str(out)]) == 2
    assert "hop coefficients are not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("graph", [False, True], ids=["builtin", "graph"])
def test_filter_that_overflows_exits_numeric_without_outputs(workdir, capsys, graph):
    # the gammas 1.5e308 and -5e307 are finite, the filtered signal is not
    out = workdir / "x"
    argv = ["filter", "--theta", "1e308,5e307", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warnings either
        code = main(argv + (["--graph", str(workdir / "edges.txt")] if graph else []))
    assert code == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# train / sweep


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_train_flags_are_the_train_config_fields_in_order(command):
    parser = build_parser()
    args = parser.parse_args([command, "--dataset", "karate"])
    assert cli._train_config(args) == TrainConfig()
    sub = parser._subparsers._group_actions[0].choices[command]
    flags = [a.option_strings[0] for a in sub._actions]
    names = [f"--{f.name.replace('_', '-')}" for f in dataclasses.fields(TrainConfig)]
    start = flags.index(names[0])
    assert flags[start : start + len(names)] == names


def test_train_zero_lr_keeps_initial_evaluation(tmp_path, capsys):
    out = tmp_path / "t0"
    code = main(
        ["train", "--dataset", "sbm", "--sbm-n", "140", "--lr", "0",
         "--epochs", "10", "--patience", "5", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out / "train_report.json")
    assert len(set(report["val_accs"])) == 1
    assert report["best_epoch"] == 0
    # a frozen model never improves on epoch 0, so patience ends the run
    assert (report["stop_reason"], report["diverged"]) == ("patience", False)
    assert len(report["train_losses"]) == 6
    assert "wall_clock_seconds" not in report
    manifest = read_json(out / "manifest.json")
    assert "timing" in manifest and manifest["config"]["lr"] == 0.0


def test_train_default_sbm_reaches_high_accuracy(tmp_path, capsys):
    out = tmp_path / "t1"
    code = main(
        ["train", "--dataset", "sbm", "--epochs", "200", "--out", str(out)]
    )
    assert code == 0
    report = read_json(out / "train_report.json")
    assert report["test_acc_at_best"] >= 0.90


def test_train_karate_runs(tmp_path, capsys):
    out = tmp_path / "tk"
    code = main(
        ["train", "--dataset", "karate", "--epochs", "30", "--patience", "30",
         "--out", str(out)]
    )
    assert code == 0
    report = read_json(out / "train_report.json")
    assert 0.0 <= report["test_acc_at_best"] <= 1.0


def test_train_missing_files_dataset(tmp_path, capsys):
    code = main(
        ["train", "--dataset", "files:missing.csv", "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_train_files_dataset_roundtrip(workdir, capsys):
    labels = [0, 0, 0, 1, 1, 1]
    (workdir / "labels.csv").write_text("\n".join(str(v) for v in labels) + "\n")
    spec = "files:{},{},{}".format(
        workdir / "edges.txt", workdir / "feats.csv", workdir / "labels.csv"
    )
    out = workdir / "tf"
    code = main(
        ["train", "--dataset", spec, "--train-per-class", "1",
         "--val-per-class", "1", "--epochs", "5", "--patience", "5",
         "--k", "2", "--out", str(out)]
    )
    assert code == 0
    manifest = read_json(out / "manifest.json")
    assert len(manifest["inputs"]) == 3


def test_train_reruns_are_byte_identical(tmp_path, capsys):
    args = ["train", "--dataset", "sbm", "--sbm-n", "140", "--epochs", "40",
            "--patience", "40"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "train_report.json").read_bytes()
    b = (tmp_path / "b" / "train_report.json").read_bytes()
    assert a == b


def test_projected_train_report_is_the_same_on_one_blas_thread(tmp_path):
    # at n = 2000 the trainer's hop-sum products are large enough for
    # OpenBLAS to split them over its threads; one thread must give the
    # same bytes as however many the library starts on its own
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    argv = ["train", "--dataset", "sbm", "--sbm-n", "2000", "--sbm-blocks", "4",
            "--sbm-p-in", "0.01", "--sbm-p-out", "0.001", "--sbm-d", "16", "--k", "8",
            "--epochs", "40", "--patience", "40"]
    reports = []
    for name, extra in (("one", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        out = tmp_path / name
        done = subprocess.run([sys.executable, "-W", "error", "-m", "gsdnn.cli", *argv,
                               "--out", str(out)], env={**base, **extra},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        reports.append((out / "train_report.json").read_bytes())
    assert len(json.loads(reports[0])["train_losses"]) == 40
    assert reports[0] == reports[1]


def test_sweep_writes_expected_table(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(
        ["sweep", "--dataset", "sbm", "--sbm-n", "140", "--ks", "1,3",
         "--n-seeds", "2", "--epochs", "40", "--patience", "40",
         "--out", str(out)]
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "k,mean_acc,std_acc"
    assert len(rows) == 3
    ks = [int(line.split(",")[0]) for line in rows[1:]]
    assert ks == [1, 3]


def test_sweep_bad_ks_list(tmp_path, capsys):
    code = main(
        ["sweep", "--dataset", "sbm", "--ks", "1,x", "--out", str(tmp_path / "x")]
    )
    assert code == 2


@pytest.mark.parametrize("n_seeds", ["0", "-3"])
def test_sweep_nonpositive_seed_count_is_usage_error(tmp_path, capsys, n_seeds):
    out = tmp_path / "x"
    code = main(
        ["sweep", "--dataset", "sbm", "--sbm-n", "140", "--ks", "1,3",
         "--n-seeds", n_seeds, "--epochs", "5", "--out", str(out)]
    )
    assert code == 2
    assert "n_seeds" in capsys.readouterr().err
    assert not out.exists()


# five commands on two cores: a forked child trains every other depth of a
# sweep, runs every other check of equiv, solves the trailing half of the
# closed form's columns, or steps gd's or proxgd's trailing rows

SPLIT_SWEEP = ["sweep", "--dataset", "sbm", "--sbm-n", "140", "--n-seeds", "2",
               "--epochs", "40", "--patience", "10"]
# a 300-node ring takes the conjugate-gradient branch; its files are written
# into the working directory by the fork_inputs fixture
SPLIT_CLOSED_FORM = ["denoise", "--graph", "ring.txt", "--solver", "closed-form",
                     "--gamma", "0.1"]
SPLIT_WIDTH = 4
# the same ring under an identity-T spec: the child steps rows 150 to 299
SPLIT_NODES = 300
SPLIT_GD = ["denoise", "--graph", "ring.txt", "--solver", "gd", "--spec", "gd.json"]
SPLIT_PROXGD = ["denoise", "--graph", "ring.txt", "--solver", "proxgd", "--spec", "proxgd.json"]

# command -> (argv without its items, its outputs, the module and name of the
# function that gets the items, the counter of items run in the child)
FORK_USERS = {
    "sweep": (SPLIT_SWEEP, ("sweep.csv",), cli, "depth_sweep", "forked_depths"),
    "equiv": (["equiv", "--seed", "5"], ("equiv_report.json",), cli, "_equiv_cell",
              "forked_checks"),
    "closed-form": (SPLIT_CLOSED_FORM, ("denoised.csv", "solve_report.json"), gsd_problem,
                    "_ppnp_cg", "forked_columns"),
    "gd": (SPLIT_GD, ("denoised.csv", "solve_report.json"), iter_solvers, "_layer_step",
           "forked_rows"),
    "proxgd": (SPLIT_PROXGD, ("denoised.csv", "solve_report.json"), iter_solvers,
               "_layer_step", "forked_rows"),
}
# a few items per command: the depths 1, 2, 4, the trials 0, 1, 2, the
# four feature columns 0 to 3, of which the child solves 2 and 3, or the
# rows of gd's and proxgd's iterates
FEW_ITEMS = {"sweep": ["--ks", "1,2,4"], "equiv": ["--model", "sgc", "--trials", "3"],
             "closed-form": ["--features", "ring.csv"], "gd": ["--features", "ring.csv"],
             "proxgd": ["--features", "ring.csv"]}
# three of those items: the child gets the middle one
ITEM_VALUES = {"sweep": (1, 2, 4), "equiv": (0, 1, 2), "closed-form": (0, 2, 1),
               "gd": (0, 299, 1), "proxgd": (0, 299, 1)}


@pytest.fixture
def fork_inputs(tmp_path, monkeypatch):
    """The closed form's ring and SPLIT_WIDTH feature columns and gd's and
    proxgd's identity-T specs in the working directory, and both splits at
    any node count."""
    _ring(tmp_path, SPLIT_NODES, SPLIT_WIDTH)
    eye = np.eye(SPLIT_WIDTH).tolist()
    for name, reg in (("gd", None), ("proxgd", {"kind": "row_l21", "weight": 0.05})):
        spec = {"alpha": 0.2, "beta": 1.0, "t_alpha": eye, "t_beta": eye, "regularizer": reg}
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gsd_problem, "_CG_SPLIT_MIN_NODES", 0)
    monkeypatch.setattr(iter_solvers, "_DESCENT_SPLIT_MIN_NODES", 0)


def _run_split(command, out, capsys, items):
    """(exit code, output bytes, stdout, manifest counters) of one run."""
    argv, outputs = FORK_USERS[command][:2]
    code = main([*argv, *items, "--out", str(out)])
    stdout = capsys.readouterr().out
    counters = read_json(out / "manifest.json")["counters"]
    return code, tuple((out / name).read_bytes() for name in outputs), stdout, counters


def _run_serial(command, out, capsys, monkeypatch, items):
    with monkeypatch.context() as m:
        m.delattr(os, "fork")
        return _run_split(command, out, capsys, items)


def _before_each_item(monkeypatch, command, act):
    """Calls ``act(item)`` on each item that the command's mapped function
    gets (a depth of the sweep, a trial of equiv, a feature column of the
    closed form, a row of a gd or proxgd step) before the real function."""
    module, name = FORK_USERS[command][2:4]
    real, parent = getattr(module, name), os.getpid()

    def stand_in(*args, **kwargs):
        # this process solves leading columns or steps leading rows, the child trailing
        if command == "closed-form":
            width = args[1].shape[1]
            start = 0 if os.getpid() == parent else SPLIT_WIDTH - width
            items = range(start, start + width)
        elif module is iter_solvers:
            rows = args[1].shape[0]
            start = 0 if os.getpid() == parent else SPLIT_NODES - rows
            items = range(start, start + rows)
        else:
            items = np.atleast_1d(args[2]).tolist()
        for item in items:
            act(item)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, stand_in)


def _check_split_is_serial(tmp_path, capsys, monkeypatch, command, items, in_child):
    """The forked run's outputs and counters are the serial run's, but for
    the forked count, ``in_child``; no fork is made when it is 0."""
    counter = FORK_USERS[command][4]
    forks, real = [], os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counting_fork)
    forked = _run_split(command, tmp_path / "forked", capsys, items)
    serial = _run_serial(command, tmp_path / "serial", capsys, monkeypatch, items)
    assert len(forks) == (in_child > 0)
    assert forked[3].pop(counter) == in_child
    assert serial[3].pop(counter) == 0
    assert forked == serial
    return forked


def test_two_process_map_returns_every_float_bit_for_bit():
    items = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1 / 3, 1e308, 7.0]
    results, forked = cli._on_two_cores(lambda part: [{"v": v, "ok": v < 1} for v in part],
                                        items)
    assert forked == 4
    assert [r["ok"] for r in results] == [v < 1 for v in items]
    assert np.array([r["v"] for r in results]).tobytes() == np.array(items).tobytes()


@pytest.mark.parametrize("ks", ["1,3", "0,1,3", "1,2,4,8"])
def test_split_sweep_gives_the_serial_outputs(tmp_path, capsys, monkeypatch, ks):
    count = len(ks.split(","))
    forked = _check_split_is_serial(tmp_path, capsys, monkeypatch, "sweep", ["--ks", ks],
                                    count // 2)
    assert forked[1][0].count(b"\n") == 1 + count


@pytest.mark.parametrize("model, trials, count",
                         [("sgc", 3, 3), ("all", 2, 14), ("appnp", 1, 1)],
                         ids=["odd", "all-models", "one-check"])
def test_split_equiv_gives_the_serial_outputs(tmp_path, capsys, monkeypatch, model, trials,
                                              count):
    items = ["--model", model, "--trials", str(trials)]
    forked = _check_split_is_serial(tmp_path, capsys, monkeypatch, "equiv", items, count // 2)
    assert forked[3]["checks"] == count


@pytest.mark.parametrize("nan_trial, max_is_nan", [(0, True), (1, False)],
                         ids=["first-here", "second-in-child"])
def test_split_equiv_fails_a_nan_check_in_the_serial_order(tmp_path, capsys, monkeypatch,
                                                           nan_trial, max_is_nan):
    """A NaN gap fails its model (NaN < tol is False). The model's max is
    NaN only when the NaN comes first, as in one process's max."""
    monkeypatch.setattr(cli, "_equiv_cell", lambda name, mi, trial, seed, tol:
                        math.nan if trial == nan_trial else 1e-12 * (trial + 1))
    items = ["--model", "sgc", "--trials", "3"]
    code, (report,), _, _ = _check_split_is_serial(tmp_path, capsys, monkeypatch, "equiv",
                                                   items, 1)
    (result,) = json.loads(report)["results"]
    assert code == 1 and result["pass"] is False
    assert math.isnan(result["max_abs_diff"]) == max_is_nan
    if not max_is_nan:
        assert result["max_abs_diff"] == 3e-12


@pytest.mark.parametrize("width, in_child", [(4, 2), (5, 3), (7, 4), (16, 8), (2, 0), (3, 0)])
def test_split_closed_form_gives_the_serial_outputs(tmp_path, capsys, monkeypatch, fork_inputs,
                                                    width, in_child):
    """Halves of 2 columns or more; 2 and 3 columns are solved in one process."""
    _ring(tmp_path, 300, width)
    forked = _check_split_is_serial(tmp_path, capsys, monkeypatch, "closed-form",
                                    FEW_ITEMS["closed-form"], in_child)
    report = json.loads(forked[1][1])
    assert report["converged"] is True and len(report["relative_residuals"]) == width
    assert forked[3]["iterations"] == report["cg_iterations"] > 0


@pytest.mark.usefixtures("fork_inputs")
@pytest.mark.parametrize("command", ["gd", "proxgd"])
def test_split_descent_gives_the_serial_outputs(tmp_path, capsys, monkeypatch, command):
    forked = _check_split_is_serial(tmp_path, capsys, monkeypatch, command,
                                    FEW_ITEMS[command], SPLIT_NODES // 2)
    report = json.loads(forked[1][1])
    assert forked[3]["iterations"] == report["iterations"] > 1


@pytest.mark.usefixtures("fork_inputs")
@pytest.mark.parametrize("command", sorted(FORK_USERS))
def test_command_whose_child_fails_gives_the_serial_outputs(tmp_path, capsys, monkeypatch,
                                                            command):
    items = FEW_ITEMS[command]
    serial = _run_serial(command, tmp_path / "serial", capsys, monkeypatch, items)
    parent = os.getpid()

    def fails_in_child(item):
        if os.getpid() != parent:
            raise MemoryError("child fails")

    _before_each_item(monkeypatch, command, fails_in_child)
    assert _run_split(command, tmp_path / "forked", capsys, items) == serial


@pytest.mark.usefixtures("fork_inputs")
@pytest.mark.parametrize("where", [(2,), (1,), (1, 2)], ids=["parent", "child", "both"])
@pytest.mark.parametrize("command", sorted(FORK_USERS))
def test_error_in_either_process_is_the_serial_error(tmp_path, capsys, monkeypatch, command,
                                                      where):
    """Items 0 and 2 run in this process and item 1 in the child; the serial
    run meets the smallest failing item first, where this process's half
    would raise on item 2."""
    bad = [ITEM_VALUES[command][i] for i in where]

    def boom(item):
        if item in bad:
            raise ValueError(f"boom at {item}")

    _before_each_item(monkeypatch, command, boom)
    out = tmp_path / "x"
    argv = FORK_USERS[command][0]
    assert main([*argv, *FEW_ITEMS[command], "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: boom at {min(bad)}\n")
    assert not out.exists()


@pytest.mark.usefixtures("fork_inputs")
@pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)],
                         ids=["fork", "pipe"])
@pytest.mark.parametrize("command", sorted(FORK_USERS))
def test_command_after_a_failed_fork_runs_serially(tmp_path, capsys, monkeypatch, command,
                                                   call, code):
    """A fork refused for want of processes or memory, or a pipe for want of
    file descriptors: the command runs in one process, with the serial outputs.
    With 4-row blocks the writer of denoise's 300 rows meets the failure too."""
    monkeypatch.setattr(graph_core, "_CSV_BLOCK_ROWS", 4)
    items = FEW_ITEMS[command]
    serial = _run_serial(command, tmp_path / "serial", capsys, monkeypatch, items)

    def refused():
        raise OSError(code, os.strerror(code))

    monkeypatch.setattr(os, call, refused)
    assert _run_split(command, tmp_path / "forked", capsys, items) == serial


@pytest.mark.usefixtures("fork_inputs")
@pytest.mark.parametrize("command", sorted(FORK_USERS))
def test_interrupted_command_kills_its_child_and_reraises(tmp_path, capsys, monkeypatch,
                                                          command):
    parent = os.getpid()

    def interrupted(item):
        if os.getpid() != parent:
            time.sleep(30)  # the child would outlive the test unless killed
        raise KeyboardInterrupt

    _before_each_item(monkeypatch, command, interrupted)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main([*FORK_USERS[command][0], *FEW_ITEMS[command], "--out", str(tmp_path / "x")])
    assert time.perf_counter() - start < 10
    assert not (tmp_path / "x").exists()


def test_every_user_of_the_fork_helper_forks_despite_the_threads_warning(tmp_path, capsys,
                                                                         monkeypatch,
                                                                         fork_inputs):
    """Python 3.12 and later warn at ``os.fork`` in a process with threads.
    Emitted from Python, as here, the warning is an error under pytest's
    filter, so the CSV writer, sweep, equiv, the closed form, gd and proxgd
    fork only because the helper ignores it."""
    forks, real = [], os.fork

    def warning_fork():
        forks.append(os.getpid())
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return real()

    monkeypatch.setattr(os, "fork", warning_fork)
    monkeypatch.setattr(graph_core, "_CSV_BLOCK_ROWS", 4)
    x = np.random.default_rng(3).standard_normal((13, 3))
    graph_core.save_signal_csv(tmp_path / "x.csv", x)
    want = io.BytesIO()
    np.savetxt(want, x, delimiter=",", fmt="%.17g")
    assert (tmp_path / "x.csv").read_bytes() == want.getvalue()
    assert len(forks) == 1
    assert _run_split("sweep", tmp_path / "sw", capsys, ["--ks", "1,3"])[3]["forked_depths"] == 1
    assert len(forks) == 2
    equiv = _run_split("equiv", tmp_path / "eq", capsys, FEW_ITEMS["equiv"])
    assert equiv[3]["forked_checks"] == 1
    assert len(forks) == 3
    closed = _run_split("closed-form", tmp_path / "cf", capsys, FEW_ITEMS["closed-form"])
    assert closed[3]["forked_columns"] == 2
    assert len(forks) == 5  # the solve, then the writer of its 300 rows in 4-row blocks
    for command in ("gd", "proxgd"):
        descent = _run_split(command, tmp_path / command, capsys, FEW_ITEMS[command])
        assert descent[3]["forked_rows"] == SPLIT_NODES // 2
    assert len(forks) == 9  # each solve and its writer


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--sbm-blocks", "1"], "need at least 2 blocks"),
        (["--sbm-p-in", "2"], "p_in must be a probability"),
        (["--sbm-d", "1", "--sbm-blocks", "2"], "cannot hold 2 class means"),
    ],
    ids=["blocks", "p-in", "d"],
)
def test_invalid_sbm_flag_is_usage_error(tmp_path, capsys, command, flags, reason):
    out = tmp_path / "x"
    assert main([command, "--dataset", "sbm", *flags, "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def _denoise_gd(workdir):
    spec = {"alpha": 0.2, "beta": 0.8, "t_alpha": np.eye(2).tolist(),
            "t_beta": np.eye(2).tolist(), "regularizer": None}
    (workdir / "spec.json").write_text(json.dumps(spec))
    return ["denoise", "--graph", str(workdir / "edges.txt"),
            "--features", str(workdir / "feats.csv"), "--solver", "gd",
            "--spec", str(workdir / "spec.json"), "--iters", "5"]


def _train_sbm(workdir):
    return ["train", "--dataset", "sbm", "--epochs", "5"]


@pytest.mark.parametrize(
    "base, flags, reason",
    [
        (_denoise_gd, ["--rel-tol", "nan"], "rel_tol must be finite"),
        (_denoise_gd, ["--stepsize", "nan"], "stepsize must be finite"),
        (_denoise_gd, ["--stepsize", "inf"], "stepsize must be finite"),
        (_train_sbm, ["--lr", "nan"], "lr must be finite"),
        (_train_sbm, ["--weight-decay", "nan"], "weight_decay must be finite"),
        (_train_sbm, ["--sbm-noise", "nan"], "noise_sigma must be finite"),
        (lambda _: ["equiv", "--trials", "1"], ["--tol", "nan"], "--tol must be finite"),
        (lambda _: ["filter", "--theta", "1,0.5"], ["--tol", "nan"], "--tol must be finite"),
    ],
    ids=["rel-tol", "stepsize", "stepsize-inf", "lr", "weight-decay", "sbm-noise",
         "equiv-tol", "filter-tol"],
)
def test_non_finite_numeric_flag_is_usage_error(workdir, capsys, base, flags, reason):
    out = workdir / "x"
    assert main([*base(workdir), *flags, "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["train"], ["sweep", "--ks", "1"]], ids=["train", "sweep"])
def test_oversized_sbm_is_usage_error_without_drawing(tmp_path, capsys, monkeypatch, command):
    def no_draw(*args, **kwargs):
        raise AssertionError("the SBM was drawn before its size was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    out = tmp_path / "x"
    # 2e9 nodes: 4e9 feature entries, 32 GB of labels alone
    tracemalloc.start()
    try:
        code = main([*command, "--dataset", "sbm", "--sbm-n", "2000000000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"above the limit of {2**25}" in err
    assert peak < 2**24
    assert not out.exists()


def test_solve_report_states_stop_reason(workdir):
    for iters, reason in (("1", "max_iters"), ("5000", "plateau")):
        out = workdir / reason
        assert main([*_denoise_gd(workdir), "--iters", iters, "--out", str(out)]) == 0
        report = read_json(out / "solve_report.json")
        assert report["stop_reason"] == reason
        assert report["converged"] == (reason == "plateau")


# A header that declares far more nodes than the 2-row feature file holds:
# building the looped graph alone would allocate several GB.
HUGE_EDGES = "nodes 300000000\n0 1\n"


@pytest.mark.parametrize("command", ["denoise", "filter", "train"])
def test_oversized_declared_graph_is_usage_error_without_building(
    tmp_path, capsys, monkeypatch, command
):
    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built before its node count was checked")

    monkeypatch.setattr("gsdnn.cli.normalize", no_build)
    edges, feats, labels = (tmp_path / name for name in ("e.txt", "f.csv", "l.csv"))
    edges.write_text(HUGE_EDGES)
    feats.write_text("1,2\n3,4\n")
    labels.write_text("0\n1\n")
    argv, reason = {
        "denoise": (["denoise", "--graph", str(edges), "--features", str(feats),
                     "--solver", "closed-form", "--gamma", "0.5"],
                    "signal has 2 rows, expected 300000000"),
        "filter": (["filter", "--theta", "1,0.5", "--graph", str(edges)],
                   "graph has 300000000 nodes; dense eigensolve is limited to 500"),
        "train": (["train", "--dataset", f"files:{edges},{feats},{labels}"],
                  "signal has 2 rows, expected 300000000"),
    }[command]
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


# command -> (argv from the work dir, the library call made to fail)
ROUTE_CASES = {
    "denoise": (lambda w: ["denoise", "--graph", str(w / "edges.txt"),
                           "--features", str(w / "feats.csv"), "--solver", "closed-form",
                           "--gamma", "0.5"], "closed_form_ppnp"),
    "equiv": (lambda w: ["equiv", "--model", "sgc", "--trials", "1"], "equivalence_check"),
    "filter": (lambda w: ["filter", "--theta", "1,0.5"], "apply_polynomial_filter"),
    "train": (lambda w: ["train", "--dataset", "karate", "--epochs", "2"], "train"),
    "sweep": (lambda w: ["sweep", "--dataset", "karate", "--ks", "1", "--n-seeds", "1",
                         "--epochs", "2"], "depth_sweep"),
}


@pytest.mark.parametrize("command", sorted(ROUTE_CASES))
def test_library_value_error_exits_usage_without_outputs(workdir, capsys, monkeypatch, command):
    argv_of, call = ROUTE_CASES[command]

    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, call, boom)
    out = workdir / "out"
    assert main([*argv_of(workdir), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["denoise", "filter", "train"])
def test_floating_point_error_exits_numeric_without_outputs(workdir, capsys, monkeypatch,
                                                            command):
    argv_of, call = ROUTE_CASES[command]

    def boom(*args, **kwargs):
        raise FloatingPointError("boom")

    monkeypatch.setattr(cli, call, boom)
    out = workdir / "out"
    assert main([*argv_of(workdir), "--out", str(out)]) == 3
    assert capsys.readouterr().err == "numeric error: boom\n"
    assert not out.exists()


def test_diverging_training_exits_numeric_with_its_report(tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warnings either
        code = main(["train", "--dataset", "karate", "--lr", "1e100", "--epochs", "60",
                     "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "numeric error: training diverged; last finite epoch written\n")
    report = read_json(out / "train_report.json")
    assert report["stop_reason"] == "diverged"
    manifest = read_json(out / "manifest.json")
    assert manifest["outputs"] == ["train_report.json"]
    # the epoch whose loss overflowed ran its forward pass too
    assert manifest["counters"] == {"seed_epochs": len(report["train_losses"]) + 1}


@pytest.mark.parametrize("missing", ["edges.txt", "feats.csv", "spec.json", "labels.csv"])
def test_unreadable_input_is_usage_error_naming_its_path(workdir, capsys, missing):
    if missing == "labels.csv":
        argv = ["train", "--dataset",
                f"files:{workdir / 'edges.txt'},{workdir / 'feats.csv'},{_labels(workdir)}"]
    else:
        argv = _denoise_gd(workdir)
    (workdir / missing).unlink()
    out = workdir / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {workdir / missing}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_out_beneath_a_regular_file_exits_usage(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "equivalence_check",
                        lambda *args: pytest.fail("the checks ran before --out was checked"))
    (tmp_path / "file").write_text("kept\n")
    out = tmp_path / "file" / "sub"
    assert main(["equiv", "--model", "sgc", "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert (tmp_path / "file").read_text() == "kept\n"


# ---------------------------------------------------------------------------
# manifest.json, one record per command


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _labels(workdir):
    (workdir / "labels.csv").write_text("0\n0\n0\n1\n1\n1\n")
    return workdir / "labels.csv"


# command -> (argv from the work dir, files read, timing phases, sizes,
# counters); patience equals the epoch budget, so every seed runs it all
MANIFEST_CASES = {
    "denoise": (
        _denoise_gd,
        lambda w: [w / "edges.txt", w / "feats.csv", w / "spec.json"],
        ["load", "solve"],
        {"n": 6, "nnz": 20, "d": 2},
        # no plateau stop: the whole --iters budget; 6 nodes are one process's
        {"iterations": 5, "forked_rows": 0},
    ),
    "equiv": (
        lambda w: ["equiv", "--model", "sgc", "--trials", "2", "--seed", "3"],
        lambda w: [],
        ["check"],
        None,
        # the forked child runs the second check
        {"checks": 2, "forked_checks": 1},
    ),
    "filter": (
        lambda w: ["filter", "--theta", "0.5,0.25", "--graph", str(w / "edges.txt")],
        lambda w: [w / "edges.txt"],
        ["load", "check"],
        {"n": 6, "nnz": 20, "d": 2},
        None,
    ),
    "train": (
        lambda w: ["train", "--dataset", f"files:{w / 'edges.txt'},{w / 'feats.csv'},"
                   f"{_labels(w)}", "--train-per-class", "1", "--val-per-class", "1",
                   "--epochs", "3", "--patience", "3", "--k", "2"],
        lambda w: [w / "edges.txt", w / "feats.csv", w / "labels.csv"],
        ["load", "train"],
        {"n": 6, "nnz": 20, "d": 2, "K": 2},
        {"seed_epochs": 3},
    ),
    "sweep": (
        lambda w: ["sweep", "--dataset", "karate", "--ks", "0,1", "--n-seeds", "2",
                   "--epochs", "3", "--patience", "3"],
        lambda w: [],
        ["load", "train"],
        # 34 members, 78 ties stored both ways plus the loops; one-hot
        # degree features up to the largest degree, 17
        {"n": 34, "nnz": 2 * 78 + 34, "d": 18},
        # two depths of two seeds; the forked child trains depth 1
        {"seed_epochs": 2 * 2 * 3, "forked_depths": 1},
    ),
}


@pytest.mark.parametrize("command", sorted(MANIFEST_CASES))
def test_manifest_records_the_run(workdir, capsys, command):
    argv_of, read_of, phases, sizes, counters = MANIFEST_CASES[command]
    argv = argv_of(workdir)
    out = workdir / "out"
    assert main([*argv, "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == command
    assert manifest["inputs"] == {str(p): _sha256(p) for p in read_of(workdir)}
    assert manifest["outputs"] == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json"
    )
    assert sorted(manifest["timing"]) == sorted(f"{p}_seconds" for p in [*phases, "write"])
    assert all(isinstance(v, float) and v >= 0.0 for v in manifest["timing"].values())
    assert manifest.get("sizes") == sizes
    assert manifest.get("counters") == counters
    parsed = vars(build_parser().parse_args(argv))
    want = {k: v for k, v in parsed.items() if k not in ("command", "handler", "out")}
    if command == "equiv":
        want["graph_distribution"] = EQUIV_GRAPHS
    if command == "denoise":  # gd's default plateau test, resolved
        want["rel_tol"] = 0.0
    assert manifest["config"] == want
    env = manifest["env"]
    assert (env["numpy"], env["cpu_count"]) == (np.__version__, os.cpu_count())
    assert sorted(env) == ["cpu_count", "machine", "numpy", "python", "release",
                           "scipy", "system"]
    memory = manifest["memory"]
    assert sorted(memory) == ["children_peak_rss_mb", "peak_rss_mb", "private_mb"]
    assert memory["peak_rss_mb"] > 0 and memory["children_peak_rss_mb"] >= 0
    private = memory["private_mb"]
    assert private is None if not os.path.exists("/proc/self/smaps_rollup") else private > 0


def _closed_form_in_a_fresh_process(tmp_path, split_min_nodes):
    """The manifest of a 300-node, 4-column closed form run by ``main`` in
    a fresh interpreter, whose only possible child is the CG split's."""
    argv = ["denoise", *_ring(tmp_path, 300, 4), "--solver", "closed-form", "--gamma", "0.1",
            "--out", str(tmp_path / "out")]
    code = ("import sys; from gsdnn import cli, gsd_problem; "
            f"gsd_problem._CG_SPLIT_MIN_NODES = {split_min_nodes}; sys.exit(cli.main({argv!r}))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return read_json(tmp_path / "out" / "manifest.json")


@pytest.mark.parametrize("split_min_nodes, in_child", [(0, 2), (10**9, 0)],
                         ids=["forked", "serial"])
def test_manifest_memory_reads_the_childs_peak_only_when_forked(tmp_path, split_min_nodes,
                                                                 in_child):
    manifest = _closed_form_in_a_fresh_process(tmp_path, split_min_nodes)
    assert manifest["counters"]["forked_columns"] == in_child
    assert (manifest["memory"]["children_peak_rss_mb"] > 0) == (in_child > 0)


@pytest.mark.parametrize("solver", ["gd", "proxgd"])
def test_descent_manifest_config_records_the_resolved_defaults(tmp_path, capsys, solver):
    spec = _spec(regularizer={"kind": "row_l21", "weight": 0.1} if solver == "proxgd" else None)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "out"
    argv = ["denoise", *_ring(tmp_path, 6), "--solver", solver, "--spec",
            str(tmp_path / "spec.json"), "--out", str(out)]
    assert main(argv) == 0
    config = read_json(out / "manifest.json")["config"]
    assert (config["iters"], config["rel_tol"], config["stepsize"], config["gamma"]) == (
        200, 0.0, None, None)


def test_manifest_config_keeps_flag_values_as_parsed(workdir, capsys):
    out = workdir / "out"
    assert main(["filter", "--theta", "1,0.5", "--seed", "4", "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["config"] == {
        "theta": "1,0.5", "graph": None, "seed": 4, "tol": 1e-8}


def test_failed_check_still_writes_its_manifest(workdir, capsys):
    out = workdir / "out"
    assert main(["filter", "--theta", "1,0.5", "--tol", "0", "--out", str(out)]) == 1
    assert read_json(out / "manifest.json")["outputs"] == ["filter_report.json"]


# ---------------------------------------------------------------------------
# flags rejected at parse time or before any work


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["equiv", "--trials", "1", "--seed", "-1"], "--seed"),
        (["filter", "--theta", "1", "--seed", "-1"], "--seed"),
        (["train", "--dataset", "karate", "--epochs", "2", "--seed", "-1"], "--seed"),
        (["sweep", "--dataset", "karate", "--ks", "1", "--seed", "-1"], "--seed"),
        (["train", "--dataset", "sbm", "--epochs", "2", "--data-seed", "-3"], "--data-seed"),
    ],
    ids=["equiv", "filter", "train", "sweep", "data-seed"],
)
def test_negative_seed_is_usage_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    assert f"argument {flag}: must be a nonnegative integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["equiv", "--trials", "1", "--frobnicate"], "--frobnicate"),
        (["equiv", "--trials", "abc"], "--trials"),
        (["equiv", "--model", "nope"], "--model"),
        (["train", "--epochs", "2"], "--dataset"),
        (["train", "--dataset", "sbm", "--seed", "-1"], "--seed"),
        (["filter", "--theta", "1,,2"], "--theta"),
        (["sweep", "--dataset", "karate", "--ks", "1,,2"], "--ks"),
    ],
    ids=["unknown-flag", "trials-not-int", "bad-model", "missing-dataset", "negative-seed",
         "empty-theta-entry", "empty-ks-entry"],
)
def test_parse_error_is_one_error_line(tmp_path, capsys, argv, flag):
    out = tmp_path / "x"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0]
    assert captured.out == ""
    assert not out.exists()


def test_help_and_version_still_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == cli.__version__
    assert main(["equiv", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: gsdnn equiv")


@pytest.mark.parametrize("flag", ["--train-per-class", "--val-per-class"])
@pytest.mark.parametrize("dataset", ["sbm", "karate"])
def test_split_flag_on_fixed_split_dataset_is_usage_error(tmp_path, capsys, dataset, flag):
    out = tmp_path / "x"
    assert main(["train", "--dataset", dataset, flag, "2", "--out", str(out)]) == 2
    assert f"{flag} applies only to --dataset files:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-8", "0", "two"])
@pytest.mark.parametrize("flag", ["--train-per-class", "--val-per-class"])
def test_split_count_below_one_is_usage_error(workdir, capsys, flag, value):
    # a negative count would index each class's nodes from the end
    spec = f"files:{workdir / 'edges.txt'},{workdir / 'feats.csv'},{_labels(workdir)}"
    out = workdir / "x"
    assert main(["train", "--dataset", spec, flag, value, "--out", str(out)]) == 2
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_commands_share_one_parser_and_look_up_their_handler(workdir, capsys, monkeypatch):
    assert main(["filter", "--theta", "1,0.5", "--out", str(workdir / "a")]) == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the parser was rebuilt"))
    # a wrapper put over a handler after the parser exists (as a tracer
    # does) is the one that runs
    seen, real = [], cli.cmd_filter
    monkeypatch.setattr(cli, "cmd_filter", lambda args, run: seen.append(args.theta)
                        or real(args, run))
    assert main(["filter", "--theta", "1,0.25", "--out", str(workdir / "b")]) == 0
    assert seen == ["1,0.25"]


# ---------------------------------------------------------------------------
# the experiment scripts


@pytest.mark.parametrize(
    "script, flags, outputs",
    [
        ("run_equiv_suite.py", ["--trials", "2"], ["equiv_report.json"]),
        ("run_depth_sweep.py", ["--ks", "1,2", "--n-seeds", "2", "--epochs", "5"],
         ["sweep.csv"]),
    ],
)
def test_script_runs_end_to_end(tmp_path, script, flags, outputs):
    # in a fresh interpreter, as a user runs it, with the package on PYTHONPATH;
    # -W error keeps pyproject's warnings-as-errors for the child process
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-W", "error", str(root / "scripts" / script),
                           *flags, "--out", str(out)], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])


def _denoise(workdir, solver):
    return ["denoise", "--graph", str(workdir / "edges.txt"),
            "--features", str(workdir / "feats.csv"), "--solver", solver]


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda w: _denoise(w, "closed-form"), "--solver closed-form requires --gamma"),
        (lambda w: _denoise(w, "gd"), "--solver gd requires --spec"),
        (lambda w: _denoise(w, "proxgd"), "--solver proxgd requires --spec"),
        (lambda w: ["filter", "--theta", ""], "--theta must contain at least one coefficient"),
        (lambda w: ["train", "--dataset", "bogus"], "unknown dataset 'bogus'"),
        (lambda w: ["sweep", "--dataset", "sbm", "--ks", "1,-2"],
         "--ks must list nonnegative depths"),
    ],
    ids=["closed-form-gamma", "gd-spec", "proxgd-spec", "theta", "dataset", "ks"],
)
def test_missing_or_invalid_flag_is_one_error_line(workdir, capsys, argv, message):
    out = workdir / "out"
    assert main([*argv(workdir), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "solver, flags, message",
    [
        ("gd", ["--spec", "s.json", "--gamma", "0.7"],
         "--gamma applies only to --solver closed-form, not gd"),
        ("proxgd", ["--spec", "s.json", "--gamma", "0.7"],
         "--gamma applies only to --solver closed-form, not proxgd"),
        ("closed-form", ["--gamma", "0.5", "--spec", "s.json"],
         "--spec applies only to --solver gd and proxgd, not closed-form"),
        ("closed-form", ["--gamma", "0.5", "--stepsize", "3"],
         "--stepsize applies only to --solver gd and proxgd, not closed-form"),
        ("closed-form", ["--gamma", "0.5", "--iters", "-4"],
         "--iters applies only to --solver gd and proxgd, not closed-form"),
        ("closed-form", ["--gamma", "0.5", "--rel-tol", "1e-6"],
         "--rel-tol applies only to --solver gd and proxgd, not closed-form"),
    ],
    ids=["gd-gamma", "proxgd-gamma", "closed-form-spec", "closed-form-stepsize",
         "closed-form-iters", "closed-form-rel-tol"],
)
def test_flag_the_solver_does_not_read_is_one_error_line(workdir, capsys, monkeypatch, solver,
                                                         flags, message):
    """Rejected before any input is read: s.json does not exist."""
    monkeypatch.chdir(workdir)
    out = workdir / "out"
    assert main([*_denoise(workdir, solver), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
