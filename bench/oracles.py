"""Correctness checks that do not trust the program.

A_hat is rebuilt here from the raw edge endpoints with scipy, never through
``gsdnn.normalize``. Each ``check_*`` returns {stage name: [failure, ...]};
an empty list means the stage's last outputs passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import workloads as wl


def a_hat(n: int, u: np.ndarray, v: np.ndarray) -> sp.csr_matrix:
    """D^-1/2 (A + I) D^-1/2 of the undirected simple graph on the pairs."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.unique(lo.astype(np.int64) * n + hi)
    lo, hi = keys // n, keys % n
    lo, hi = lo[lo != hi], hi[lo != hi]
    loops = np.arange(n)
    rows = np.concatenate([lo, hi, loops])
    cols = np.concatenate([hi, lo, loops])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    dinv = sp.diags(1.0 / np.sqrt(np.asarray(adj.sum(axis=1)).ravel()))
    return (dinv @ adj @ dinv).tocsr()


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _objective(a: sp.csr_matrix, h, x, row_l21: float = 0.0) -> float:
    val = wl.GD_ALPHA * np.sum((h - x) ** 2) + wl.GD_BETA * np.sum(h * (h - a @ h))
    return float(val + row_l21 * np.sum(np.linalg.norm(h - x, axis=1)))


def _descent_checks(report: dict, own_f: float) -> list[str]:
    fails = []
    trace = report["objective_trace"]
    if not report["converged"] or report["iterations"] >= wl.MAX_ITERS:
        fails.append(f"did not reach rel-tol in {report['iterations']} iterations")
    if any(v is None or not math.isfinite(v) for v in trace):
        fails.append("objective trace has a non-finite value")
        return fails
    if not _close(trace[-1], own_f, 1e-9):
        fails.append(f"reported objective {trace[-1]!r} != recomputed {own_f!r}")
    rises = [k for k in range(1, len(trace))
             if trace[k] > trace[k - 1] + 1e-12 * max(1.0, abs(trace[k - 1]))]
    if rises:
        fails.append(f"objective rose at iterations {rises[:5]}")
    return fails


def _step_bound(report: dict) -> float:
    """sqrt(2 (f_{T-1} - f_T) / L) bounds the last step of a descent at
    stepsize 1/L, and the stopping rule caps f_{T-1} - f_T. Steps shrink, so
    it also bounds the step a further iteration would take."""
    prev = report["objective_trace"][-2]
    return math.sqrt(2.0 * wl.REL_TOL * max(1.0, abs(prev)) / _lipschitz())


def _lipschitz() -> float:
    return 2.0 * wl.GD_ALPHA + 4.0 * wl.GD_BETA  # lambda_max(I - A_hat) <= 2


def _load(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def check_denoise(work: Path, seed: int) -> dict[str, list[str]]:
    u, v, x = wl.denoise_inputs(seed)
    a = a_hat(wl.DENOISE_NODES, u, v)
    alpha, beta, lip = wl.GD_ALPHA, wl.GD_BETA, _lipschitz()
    out = {}

    # gd: the minimizer solves ((alpha+beta) I - beta A_hat) H = alpha X, and
    # that system's smallest eigenvalue is alpha, so |H - H*| <= |grad| / 2 alpha.
    h = _load(work / "gd" / "denoised.csv")
    report = json.loads((work / "gd" / "solve_report.json").read_text())
    fails = _descent_checks(report, _objective(a, h, x))
    grad = 2.0 * (alpha * (h - x) + beta * (h - a @ h))
    g_norm = float(np.linalg.norm(grad))
    if g_norm > lip * _step_bound(report) * (1 + 1e-6):
        fails.append(f"gradient norm {g_norm:.3e} above the stopping-rule bound")
    n = wl.DENOISE_NODES
    system = spla.LinearOperator((n, n), matvec=lambda z: (alpha + beta) * z - beta * (a @ z),
                                 dtype=np.float64)
    h_star = np.column_stack([spla.cg(system, alpha * x[:, j], rtol=1e-12, atol=0.0)[0]
                              for j in range(x.shape[1])])
    gap = float(np.linalg.norm(h - h_star))
    if gap > g_norm / (2.0 * alpha) * 1.001 + 1e-10 * float(np.linalg.norm(x)):
        fails.append(f"|H - H*| = {gap:.3e} exceeds the gradient bound")
    out["gd"] = fails

    # proxgd: monotone trace, and the prox-gradient fixed-point residual
    w = wl.ROW_L21_WEIGHT
    h = _load(work / "proxgd" / "denoised.csv")
    report = json.loads((work / "proxgd" / "solve_report.json").read_text())
    fails = _descent_checks(report, _objective(a, h, x, row_l21=w))
    step = h - 2.0 * (alpha * (h - x) + beta * (h - a @ h)) / lip
    resid = step - x
    norms = np.linalg.norm(resid, axis=1, keepdims=True)
    shrink = np.maximum(0.0, 1.0 - (w / lip) / np.where(norms > 0, norms, 1.0))
    moved = float(np.linalg.norm(x + shrink * resid - h))
    if moved > _step_bound(report) * 1.001 + 1e-10 * float(np.linalg.norm(x)):
        fails.append(f"one more prox step moves H by {moved:.3e}, above the bound")
    out["proxgd"] = fails

    # closed form: residual of (I - (1-gamma) A_hat) Xbar = gamma X
    g = wl.PPNP_GAMMA
    xbar = _load(work / "closed_form" / "denoised.csv")
    rhs = g * x
    resid = float(np.linalg.norm(xbar - (1.0 - g) * (a @ xbar) - rhs))
    out["closed_form"] = ([] if resid <= 1e-11 * float(np.linalg.norm(rhs))
                          else [f"closed-form residual {resid:.3e}"])
    return out


def check_equiv(work: Path, seed: int) -> dict[str, list[str]]:
    out = {}
    report = json.loads((work / "equiv" / "equiv_report.json").read_text())
    fails = [] if report["all_pass"] else ["all_pass is false"]
    if len(report["results"]) != 7:
        fails.append(f"{len(report['results'])} schemes reported, expected 7")
    for r in report["results"]:
        if r["trials"] != wl.EQUIV_TRIALS or not r["max_abs_diff"] < wl.CHECK_TOL:
            fails.append(f"{r['model']}: {r['trials']} trials, diff {r['max_abs_diff']}")
    out["equiv"] = fails

    limits = np.load(work / "limit" / "payload.npz")
    diffs = limits["max_abs_diff"]
    ok = limits["pass"].all() and np.all(diffs < wl.CHECK_TOL) and diffs.size == wl.LIMIT_CHECKS
    out["limit"] = [] if ok else [f"restart-limit checks failed, max diff {diffs.max()}"]

    # filters: sum_k theta_k L^k x and the spectrum of L, from a dense L
    # built here
    payload = np.load(work / "filter" / "payload.npz")
    fails = []
    for i, (n, edges, x, theta) in enumerate(wl.filter_inputs(seed)):
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        lap = np.eye(n) - a_hat(n, pairs[:, 0], pairs[:, 1]).toarray()
        ref = theta[-1] * x
        for t in theta[-2::-1]:
            ref = lap @ ref + t * x
        scale = max(1.0, float(np.abs(ref).max()))
        for key in ("unrolled", "direct"):
            err = float(np.abs(payload[f"{key}_{i}"] - ref).max())
            if not err <= 1e-8 * scale:
                fails.append(f"check {i}: {key} filter off by {err:.3e}")
        lam = np.linalg.eigvalsh(lap)
        resp = payload[f"response_{i}"]
        want = np.polynomial.polynomial.polyval(lam, theta)
        if not (np.abs(resp[:, 0] - lam).max() <= 1e-10
                and np.abs(resp[:, 1] - want).max() <= 1e-8 * max(1.0, np.abs(want).max())):
            fails.append(f"check {i}: frequency response disagrees")
    out["filter"] = fails
    return out


# Accuracy floors, well below what every seed reaches and well above chance
# (1/2 for two blocks, 1/4 for four).
SMALL_ACC_FLOOR = 0.6
PROJ_ACC_FLOOR = 0.45


def _train_checks(report: dict, floor: float) -> list[str]:
    fails = []
    if report["diverged"] or len(report["train_losses"]) != wl.TRAIN_EPOCHS:
        fails.append(f"trained {len(report['train_losses'])} epochs, diverged={report['diverged']}")
    if not all(math.isfinite(v) for v in report["train_losses"]):
        fails.append("non-finite training loss")
    acc = report["test_acc_at_best"]
    if not (math.isfinite(acc) and acc >= floor):
        fails.append(f"test accuracy {acc} below {floor}")
    return fails


def check_train(work: Path, seed: int) -> dict[str, list[str]]:
    rows = (work / "sweep" / "sweep.csv").read_text().split()[1:]
    fails = []
    ks = [int(r.split(",")[0]) for r in rows]
    if ks != [int(k) for k in wl.SWEEP_KS.split(",")]:
        fails.append(f"sweep rows for depths {ks}")
    for r in rows:
        k, mean, std = (float(c) for c in r.split(","))
        if not (math.isfinite(mean) and math.isfinite(std) and mean >= SMALL_ACC_FLOOR):
            fails.append(f"K={k:g}: mean accuracy {mean}, std {std}")
    return {
        "sweep": fails,
        "train_proj": _train_checks(
            json.loads((work / "train_proj" / "train_report.json").read_text()),
            PROJ_ACC_FLOOR),
        "train_small": _train_checks(
            json.loads((work / "train_small" / "train_report.json").read_text()),
            SMALL_ACC_FLOOR),
    }


CHECKS = {"denoise-large": check_denoise, "equiv-small": check_equiv,
          "train-sweep": check_train}
