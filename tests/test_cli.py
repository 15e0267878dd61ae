"""End-to-end checks of the command-line interface via main()."""

import json
import warnings

import numpy as np
import pytest

from gsdnn.cli import main

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
    ],
    ids=["nan-alpha", "nan-t", "dim-mismatch", "gd-nonsmooth", "proxgd-smooth",
         "zero-curvature", "indefinite-t"],
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


# ---------------------------------------------------------------------------
# train / sweep


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
