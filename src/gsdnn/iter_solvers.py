"""Gradient and proximal-gradient solvers for GSD objectives.

One GD step is H <- H - eta * grad L(H); one ProxGD step applies the
regularizer's proximal map after the gradient step on the smooth part:

    prox of the nonnegativity indicator  = elementwise ReLU,
    prox of t * ||. - X||_{2,1} (row-wise) = shrink each row of V toward
        the matching row of X by max(0, 1 - t / ||v_i - x_i||).

Objective traces always include the nonsmooth part, so the documented
descent guarantee at stepsize 1/Lambda is about the true composite
objective, not just its smooth half. A run stops, unconverged, at the first
step whose objective is not finite: the iteration has diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .graph_core import NormalizedOperators
from .gsd_problem import (
    GsdSpec,
    INFEASIBLE,
    NonNegIndicator,
    RowL21,
    gradient_smooth,
    objective,
    smoothness_bound,
)

__all__ = [
    "SolveConfig",
    "SolveReport",
    "gd_run",
    "proxgd_run",
    "prox_nonneg",
    "prox_row_l21",
    "row_shrink",
]


@dataclass(frozen=True)
class SolveConfig:
    max_iters: int
    stepsize: Union[float, str] = "auto"
    rel_tol: float = 1e-10
    capture_trajectory: bool = False

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if isinstance(self.stepsize, str):
            if self.stepsize != "auto":
                raise ValueError("stepsize must be a positive number or 'auto'")
        elif self.stepsize <= 0:
            raise ValueError("explicit stepsize must be positive")
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be nonnegative")


@dataclass
class SolveReport:
    final: np.ndarray
    objective_trace: list[float]
    iterations_used: int
    converged: bool
    trajectory: list[np.ndarray] | None = field(default=None, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations_used,
            "objective_trace": [
                v if math.isfinite(v) else None for v in self.objective_trace
            ],
        }


def _resolve_stepsize(spec: GsdSpec, cfg: SolveConfig) -> float:
    if cfg.stepsize == "auto":
        lam = smoothness_bound(spec)
        if lam <= 0:
            raise ValueError("objective has zero curvature bound; pass an explicit stepsize")
        return 1.0 / lam
    return float(cfg.stepsize)


def _trace_value(spec, h, x, ops) -> float:
    val = objective(spec, h, x, ops)
    return float("inf") if val is INFEASIBLE else float(val)


def prox_nonneg(m: np.ndarray) -> np.ndarray:
    """Projection onto the nonnegative orthant (elementwise ReLU)."""
    return np.maximum(m, 0.0)


def row_shrink(v: np.ndarray, anchor: np.ndarray, threshold: float) -> np.ndarray:
    """prox of threshold * ||. - anchor||_{2,1} at v, row by row.

    Rows whose residual norm is below the threshold collapse onto the
    anchor; a zero residual maps to the anchor exactly (that is the
    subproblem's minimizer, even though the shrink formula reads 0/0).
    """
    v = np.asarray(v, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    if v.shape != anchor.shape:
        raise ValueError(f"shapes differ: {v.shape} vs {anchor.shape}")
    resid = v - anchor
    norms = np.linalg.norm(resid, axis=1)
    factor = np.zeros_like(norms)
    active = norms > 0.0
    factor[active] = np.maximum(0.0, 1.0 - threshold / norms[active])
    return anchor + factor[:, None] * resid


def prox_row_l21(v: np.ndarray, x_anchor: np.ndarray, beta: float) -> np.ndarray:
    """Row-wise shrinkage toward the anchor with threshold (1-beta)/(2 beta).

    This is the proximal map arising from one smoothing step of the
    row-sparse objective at stepsize 1/(2 beta); equivalently it solves
    min_y (1-beta) ||y - x_i|| + beta ||y - v_i||^2 per row.
    """
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie strictly between 0 and 1")
    return row_shrink(v, x_anchor, (1.0 - beta) / (2.0 * beta))


def gd_run(
    spec: GsdSpec,
    x: np.ndarray,
    h0: np.ndarray,
    ops: NormalizedOperators,
    cfg: SolveConfig,
) -> SolveReport:
    """Plain gradient descent; requires a smooth objective."""
    if isinstance(spec.regularizer, (NonNegIndicator, RowL21)):
        raise ValueError("spec has a nonsmooth regularizer; use proxgd_run")
    eta = _resolve_stepsize(spec, cfg)
    h = np.array(h0, dtype=np.float64, copy=True)
    trace = [_trace_value(spec, h, x, ops)]
    traj = [h.copy()] if cfg.capture_trajectory else None
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        h = h - eta * gradient_smooth(spec, h, x, ops)
        f = _trace_value(spec, h, x, ops)
        trace.append(f)
        if traj is not None:
            traj.append(h.copy())
        if not math.isfinite(f):
            break  # diverged (an inf trace[0], from an infeasible h0, is not)
        prev = trace[-2]
        if math.isfinite(prev) and abs(f - prev) <= cfg.rel_tol * max(1.0, abs(prev)):
            converged = True
            break
    return SolveReport(
        final=h,
        objective_trace=trace,
        iterations_used=it,
        converged=converged,
        trajectory=traj,
    )


def proxgd_run(
    spec: GsdSpec,
    x: np.ndarray,
    h0: np.ndarray,
    ops: NormalizedOperators,
    cfg: SolveConfig,
) -> SolveReport:
    """Proximal gradient descent for indicator or row-l21 regularizers."""
    reg = spec.regularizer
    if not isinstance(reg, (NonNegIndicator, RowL21)):
        raise ValueError("spec has no nonsmooth regularizer; use gd_run")
    eta = _resolve_stepsize(spec, cfg)
    h = np.array(h0, dtype=np.float64, copy=True)
    trace = [_trace_value(spec, h, x, ops)]
    traj = [h.copy()] if cfg.capture_trajectory else None
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        v = h - eta * gradient_smooth(spec, h, x, ops)
        if isinstance(reg, NonNegIndicator):
            h = prox_nonneg(v)
        else:
            h = row_shrink(v, x, eta * reg.weight)
        f = _trace_value(spec, h, x, ops)
        trace.append(f)
        if traj is not None:
            traj.append(h.copy())
        if not math.isfinite(f):
            break  # diverged (an inf trace[0], from an infeasible h0, is not)
        prev = trace[-2]
        if math.isfinite(prev) and abs(f - prev) <= cfg.rel_tol * max(1.0, abs(prev)):
            converged = True
            break
    return SolveReport(
        final=h,
        objective_trace=trace,
        iterations_used=it,
        converged=converged,
        trajectory=traj,
    )
