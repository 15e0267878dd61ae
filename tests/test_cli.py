"""End-to-end checks of the command-line interface via main()."""

import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gsdnn import cli, graph_core
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
    # the dense branch is taken up to DENSE_MAX_NODES = 256 nodes
    if nodes == 300:
        assert 0 < report["cg_iterations"] < 20 * nodes
    else:
        assert report["cg_iterations"] == 0
    resid = report["relative_residuals"]
    assert len(resid) == 2 and all(0.0 <= r < 1e-12 for r in resid)
    if gamma == "1.0":
        assert resid == [0.0, 0.0]


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
    assert read_json(out / "manifest.json")["outputs"] == ["denoised.csv", "solve_report.json"]
    assert read_json(out / "solve_report.json") == {
        "solver": "closed-form", "gamma": gamma, "converged": True, **stats}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    ],
    ids=["nan-alpha", "nan-t", "dim-mismatch", "gd-nonsmooth", "proxgd-smooth",
         "zero-curvature", "indefinite-t", "nan-weight", "inf-weight", "json-array",
         "string-regularizer", "no-alpha", "bool-alpha", "bool-weight", "bool-t-entry"],
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
    assert main([*command, "--dataset", "sbm", "--sbm-n", "20001", "--out", str(out)]) == 2
    assert "exceeds the SBM limit of 20000 nodes" in capsys.readouterr().err
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
        None,
    ),
    "equiv": (
        lambda w: ["equiv", "--model", "sgc", "--trials", "2", "--seed", "3"],
        lambda w: [],
        ["check"],
        None,
        None,
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
        {"seed_epochs": 2 * 2 * 3},  # two depths of two seeds
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
    assert manifest["config"] == want
    env = manifest["env"]
    assert (env["numpy"], env["cpu_count"]) == (np.__version__, os.cpu_count())
    assert sorted(env) == ["cpu_count", "machine", "numpy", "python", "release",
                           "scipy", "system"]


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
