"""Gradient and proximal-gradient solvers for GSD objectives.

One solver iteration is one unrolled layer (``LayerParams``), and one
private layer step serves both the solvers here and the unrolled plans of
``unrolled_gnn``: a gradient step H <- H - eta * grad on the smooth part,
then the layer's proximal map,

    prox of the nonnegativity indicator  = elementwise ReLU,
    prox of t * ||. - X||_{2,1} (row-wise) = shrink each row of V toward
        the matching row of X by max(0, 1 - t / ||v_i - x_i||).

``gd_run`` and ``proxgd_run`` map a ``GsdSpec`` to its layer and repeat it
in one loop, which computes A_hat H once per iterate for both the next
gradient and the objective trace. Objective traces always include the
nonsmooth part, so the documented descent guarantee at stepsize 1/Lambda is
about the true composite objective, not just its smooth half. A run stops,
unconverged, at the first step whose objective is not finite: the iteration
has diverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .graph_core import NormalizedOperators
from .gsd_problem import (
    GsdSpec,
    NonNegIndicator,
    RidgeComplement,
    RowL21,
    _check_signal,
    _laplacian,
    _objective_value,
    _smooth_grad,
    smoothness_bound,
)

__all__ = [
    "LayerParams",
    "SolveConfig",
    "SolveReport",
    "gd_run",
    "proxgd_run",
    "prox_nonneg",
    "row_shrink",
]


def _as_matrix(w, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got shape {w.shape}")
    return w


@dataclass(frozen=True)
class LayerParams:
    """Parameters of one unrolled layer, which is one solver iteration.

    ``t_alpha`` / ``t_beta`` equal to None mean the identity. They are not
    required to be symmetric: the scheme builders put raw weight matrices
    here, and the layer algebra never needs symmetry. ``prox`` is the
    regularizer whose proximal map ends the layer; a ``RowL21`` shrinks
    rows toward X with threshold eta * weight.
    """

    eta: float
    alpha: float
    beta: float
    t_alpha: np.ndarray | None = None
    t_beta: np.ndarray | None = None
    ridge: float = 0.0
    prox: Union[None, NonNegIndicator, RowL21] = None

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        for name in ("t_alpha", "t_beta"):
            t = getattr(self, name)
            if t is not None:
                object.__setattr__(self, name, _as_matrix(t, name))


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
        elif not (math.isfinite(self.stepsize) and self.stepsize > 0):
            raise ValueError(f"explicit stepsize must be finite and positive, got {self.stepsize}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ValueError(f"rel_tol must be finite and nonnegative, got {self.rel_tol}")


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


def _layer_step(
    layer: LayerParams, h: np.ndarray, x: np.ndarray, lap_h: np.ndarray | None
) -> np.ndarray:
    """One unrolled layer, which is one solver iteration: a gradient step on
    the smooth part at H, given lap_h = (I - A_hat) H, then the layer's prox."""
    v = h - layer.eta * _smooth_grad(
        h, x, lap_h, layer.alpha, layer.beta, layer.t_alpha, layer.t_beta, layer.ridge
    )
    if isinstance(layer.prox, NonNegIndicator):
        return prox_nonneg(v)
    if isinstance(layer.prox, RowL21):
        return row_shrink(v, x, layer.eta * layer.prox.weight)
    return v


def _descend(
    spec: GsdSpec,
    x: np.ndarray,
    h0: np.ndarray,
    ops: NormalizedOperators,
    cfg: SolveConfig,
) -> SolveReport:
    """Repeat the spec's layer from h0 until the objective plateaus or diverges."""
    reg = spec.regularizer
    layer = LayerParams(
        eta=_resolve_stepsize(spec, cfg),
        alpha=spec.alpha,
        beta=spec.beta,
        t_alpha=spec.t_alpha,
        t_beta=spec.t_beta,
        ridge=spec.beta if isinstance(reg, RidgeComplement) else 0.0,
        prox=reg if isinstance(reg, (NonNegIndicator, RowL21)) else None,
    )
    h = np.array(h0, dtype=np.float64, copy=True)
    x = np.asarray(x, dtype=np.float64)
    _check_signal(spec, h, x)
    lap_h = _laplacian(h, ops, spec.beta)
    trace = [float(_objective_value(spec, h, x, lap_h))]
    traj = [h.copy()] if cfg.capture_trajectory else None
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        h = _layer_step(layer, h, x, lap_h)
        lap_h = _laplacian(h, ops, spec.beta)  # for this trace entry and the next step
        f = float(_objective_value(spec, h, x, lap_h))
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
    return _descend(spec, x, h0, ops, cfg)


def proxgd_run(
    spec: GsdSpec,
    x: np.ndarray,
    h0: np.ndarray,
    ops: NormalizedOperators,
    cfg: SolveConfig,
) -> SolveReport:
    """Proximal gradient descent for indicator or row-l21 regularizers."""
    if not isinstance(spec.regularizer, (NonNegIndicator, RowL21)):
        raise ValueError("spec has no nonsmooth regularizer; use gd_run")
    return _descend(spec, x, h0, ops, cfg)
