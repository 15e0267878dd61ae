"""The three benchmark workloads: their inputs, their timed stages, their set-up.

Every input is drawn from the workload seed, so the same seed gives the same
inputs. The CLI stages see only files and flags; the library stages of
``equiv-small`` get arrays drawn here, before any timing starts.

This module imports neither numpy nor gsdnn at import time: the set-up probe
imports it into a fresh process before timing ``import gsdnn.cli``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# denoise-large: a random graph with average degree 10, so A_hat holds about
# 5.5e5 stored nonzeros (2 per edge plus the self-loops).
DENOISE_NODES = 50_000
DENOISE_EDGE_LINES = 250_000
DENOISE_WIDTH = 16
GD_ALPHA, GD_BETA, REL_TOL, MAX_ITERS = 0.2, 1.0, 1e-10, 2000
ROW_L21_WEIGHT = 0.05
PPNP_GAMMA = 0.1

# equiv-small
EQUIV_TRIALS = 500  # per scheme; seven schemes
LIMIT_CHECKS = 100
FILTER_CHECKS = 200
CHECK_TOL = 1e-9
ER_MIN_NODES, ER_MAX_NODES, ER_EDGE_PROB = 10, 50, 0.2

# train-sweep: patience equals the epoch budget, so every training run does
# the same number of epochs whatever the seed (early stopping would make the
# work, and so the time, depend on where the best epoch lands).
TRAIN_EPOCHS = 300
SWEEP_KS = "1,2,4,8"
SWEEP_SEEDS = 5
SMALL_SBM = dict(n=200, blocks=2, p_in=0.1, p_out=0.01, d=2, noise_sigma=1.0)
PROJ_SBM = dict(n=2000, blocks=4, p_in=0.01, p_out=0.001, d=16, noise_sigma=1.0)
PROJ_K = 8
SHORT_STAGE_REPEATS = 8  # runs per pass of a stage under 0.25 s
MID_STAGE_REPEATS = 3  # runs per pass of a stage of 0.5 to 1.5 s


@dataclass(frozen=True)
class Stage:
    """One timed step of a pass. ``run`` returns (exit code, payload).

    ``alias`` names the stage's time as the issue-style metric it stands for.
    ``outputs`` are report files, relative to the stage's output directory,
    that must come out byte-identical on every pass; a library stage instead
    returns its results as a payload of arrays.
    """

    name: str
    alias: str
    run: Callable[[Path], tuple[int, dict | None]]
    outputs: tuple[str, ...] = ()
    checks: int = 0  # when set, the alias is a rate: checks per second
    # Runs per pass: a short stage runs several times, so that its time
    # spans more than one of the core's fast or slow spells.
    repeats: int = 1


def _cli(argv: list[str]) -> int:
    from gsdnn.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


# ---------------------------------------------------------------------------
# denoise-large


def denoise_inputs(seed: int):
    """(edge endpoints u, v, features x) of the denoise-large graph."""
    import numpy as np

    rng = np.random.default_rng((seed, 1))
    u = rng.integers(0, DENOISE_NODES, DENOISE_EDGE_LINES)
    # offset in [1, n) keeps every line off the diagonal
    v = (u + rng.integers(1, DENOISE_NODES, DENOISE_EDGE_LINES)) % DENOISE_NODES
    x = rng.standard_normal((DENOISE_NODES, DENOISE_WIDTH))
    return u, v, x


def _spec_doc(regularizer) -> dict:
    eye = [[float(i == j) for j in range(DENOISE_WIDTH)] for i in range(DENOISE_WIDTH)]
    return {"alpha": GD_ALPHA, "beta": GD_BETA, "t_alpha": eye, "t_beta": eye,
            "regularizer": regularizer}


def denoise_generate(seed: int, work: Path) -> None:
    import numpy as np

    u, v, x = denoise_inputs(seed)
    lines = [f"nodes {DENOISE_NODES}"]
    lines += [f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())]
    (work / "graph.txt").write_text("\n".join(lines) + "\n")
    np.savetxt(work / "features.csv", x, delimiter=",", fmt="%.17g")
    (work / "gd.json").write_text(json.dumps(_spec_doc(None)))
    (work / "proxgd.json").write_text(
        json.dumps(_spec_doc({"kind": "row_l21", "weight": ROW_L21_WEIGHT})))


def _denoise_stage(name: str, solver_flags: list[str]) -> Stage:
    def run(work: Path):
        code = _cli(["denoise", "--graph", str(work / "graph.txt"),
                     "--features", str(work / "features.csv"), *solver_flags,
                     "--out", str(work / name)])
        return code, None
    return Stage(name, f"denoise_{name}_s", run, ("denoised.csv", "solve_report.json"))


def _iter_flags(spec: str) -> list[str]:
    return ["--spec", spec, "--rel-tol", repr(REL_TOL), "--iters", str(MAX_ITERS)]


def denoise_stages(work: Path, seed: int) -> list[Stage]:
    return [
        _denoise_stage("gd", ["--solver", "gd", *_iter_flags(str(work / "gd.json"))]),
        _denoise_stage("proxgd", ["--solver", "proxgd",
                                  *_iter_flags(str(work / "proxgd.json"))]),
        _denoise_stage("closed_form", ["--solver", "closed-form",
                                       "--gamma", repr(PPNP_GAMMA)]),
    ]


def denoise_setup(seed: int, work: Path) -> Callable[[], None]:
    text = (work / "graph.txt").read_text()

    def build() -> None:
        import gsdnn

        gsdnn.normalize(gsdnn.add_self_loops(gsdnn.load_edge_list(text)))
    return build


# ---------------------------------------------------------------------------
# equiv-small


def er_edges(rng, n: int):
    """Upper-triangle edge endpoints of an Erdos-Renyi graph, p = 0.2."""
    import numpy as np

    return np.nonzero(np.triu(rng.random((n, n)) < ER_EDGE_PROB, k=1))


def limit_inputs(seed: int) -> list[tuple]:
    """(n, edges, x, gamma) per restart-limit check.

    Sizes walk 10..50 in turn so the total work hardly moves with the seed.
    Gamma stays at or above 0.1, where the 400-step iterative reference is
    converged to far below the 1e-9 tolerance.
    """
    import numpy as np

    cases = []
    for i in range(LIMIT_CHECKS):
        rng = np.random.default_rng((seed, 2, i))
        n = ER_MIN_NODES + i % (ER_MAX_NODES - ER_MIN_NODES + 1)
        us, vs = er_edges(rng, n)
        x = rng.standard_normal((n, 1 + i % 4))
        cases.append((n, tuple(zip(us.tolist(), vs.tolist())), x,
                      float(rng.uniform(0.1, 0.9))))
    return cases


def filter_inputs(seed: int) -> list[tuple]:
    """(n, edges, x, theta) per filter round trip; orders walk 1..6."""
    import numpy as np

    cases = []
    for i in range(FILTER_CHECKS):
        rng = np.random.default_rng((seed, 3, i))
        n = ER_MIN_NODES + i % (ER_MAX_NODES - ER_MIN_NODES + 1)
        us, vs = er_edges(rng, n)
        x = rng.standard_normal((n, 2))
        theta = tuple(rng.uniform(-1.0, 1.0, 2 + i % 6).tolist())
        cases.append((n, tuple(zip(us.tolist(), vs.tolist())), x, theta))
    return cases


def _ops(gsdnn, n: int, edges: tuple):
    return gsdnn.normalize(gsdnn.add_self_loops(gsdnn.Graph(num_nodes=n, edges=edges)))


def equiv_stages(work: Path, seed: int) -> list[Stage]:
    # Library functions are looked up on the package at call time, so the
    # traced pass reaches them through the tracer's wrappers.
    import numpy as np
    import gsdnn

    limits = limit_inputs(seed)
    filters = filter_inputs(seed)

    def run_equiv(work: Path):
        code = _cli(["equiv", "--model", "all", "--trials", str(EQUIV_TRIALS),
                     "--seed", str(seed), "--tol", repr(CHECK_TOL),
                     "--out", str(work / "equiv")])
        return code, None

    def run_limits(work: Path):
        diffs, passed = [], []
        for n, edges, x, gamma in limits:
            res = gsdnn.equivalence_check(gsdnn.Ppnp(gamma=gamma),
                                          _ops(gsdnn, n, edges), x, CHECK_TOL)
            diffs.append(res["max_abs_diff"])
            passed.append(res["pass"])
        return 0, {"max_abs_diff": np.array(diffs), "pass": np.array(passed)}

    def run_filters(work: Path):
        payload = {}
        for i, (n, edges, x, theta) in enumerate(filters):
            ops = _ops(gsdnn, n, edges)
            payload[f"unrolled_{i}"] = gsdnn.forward(gsdnn.theta_to_ugdgnn(theta), ops, x)
            payload[f"direct_{i}"] = gsdnn.apply_polynomial_filter(theta, ops, x)
            payload[f"response_{i}"] = gsdnn.frequency_response(theta, ops)
        return 0, payload

    return [
        Stage("equiv", "equiv_checks_per_s", run_equiv, ("equiv_report.json",),
              checks=7 * EQUIV_TRIALS),
        Stage("limit", "limit_checks_per_s", run_limits, checks=LIMIT_CHECKS,
              repeats=MID_STAGE_REPEATS),
        Stage("filter", "filter_checks_per_s", run_filters, checks=FILTER_CHECKS,
              repeats=SHORT_STAGE_REPEATS),
    ]


def equiv_setup(seed: int, work: Path) -> Callable[[], None]:
    return lambda: None


# ---------------------------------------------------------------------------
# train-sweep


def _sbm_flags(params: dict) -> list[str]:
    return ["--sbm-n", str(params["n"]), "--sbm-blocks", str(params["blocks"]),
            "--sbm-p-in", repr(params["p_in"]), "--sbm-p-out", repr(params["p_out"]),
            "--sbm-d", str(params["d"]), "--sbm-noise", repr(params["noise_sigma"])]


def _train_flags(seed: int) -> list[str]:
    return ["--seed", str(seed), "--data-seed", str(seed),
            "--epochs", str(TRAIN_EPOCHS), "--patience", str(TRAIN_EPOCHS)]


def train_stages(work: Path, seed: int) -> list[Stage]:
    def cli_stage(name, label, argv, outputs, repeats=1):
        def run(work: Path):
            return _cli([*argv, "--out", str(work / name)]), None
        return Stage(name, label, run, outputs, repeats=repeats)

    common = ["--dataset", "sbm", *_train_flags(seed)]
    return [
        cli_stage("sweep", "sweep_s",
                  ["sweep", *common, *_sbm_flags(SMALL_SBM), "--ks", SWEEP_KS,
                   "--n-seeds", str(SWEEP_SEEDS)], ("sweep.csv",)),
        cli_stage("train_proj", "train_proj_s",
                  ["train", *common, *_sbm_flags(PROJ_SBM), "--k", str(PROJ_K)],
                  ("train_report.json",), repeats=MID_STAGE_REPEATS),
        cli_stage("train_small", "train_small_s",
                  ["train", *common, *_sbm_flags(SMALL_SBM), "--k", str(PROJ_K)],
                  ("train_report.json",), repeats=SHORT_STAGE_REPEATS),
    ]


def train_setup(seed: int, work: Path) -> Callable[[], None]:
    def build() -> None:
        import gsdnn

        gsdnn.sbm_generate(**SMALL_SBM, seed=seed)
        gsdnn.sbm_generate(**PROJ_SBM, seed=seed)
    return build


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``setup(seed, work)`` reads what it needs untimed and returns the
    program-object build that the set-up probe times after ``import gsdnn.cli``."""

    name: str
    generate: Callable[[int, Path], None]
    stages: Callable[[Path, int], list[Stage]]
    setup: Callable[[int, Path], Callable[[], None]]
    setup_probes: int


def _no_inputs(seed: int, work: Path) -> None:
    return None


WORKLOADS = {
    "denoise-large": Workload("denoise-large", denoise_generate, denoise_stages,
                              denoise_setup, 3),
    "equiv-small": Workload("equiv-small", _no_inputs, equiv_stages, equiv_setup, 9),
    "train-sweep": Workload("train-sweep", _no_inputs, train_stages, train_setup, 7),
}
