"""Gradient and proximal-gradient solvers for GSD objectives.

One solver iteration is one unrolled layer (``LayerParams``), and one
private layer step serves both the solvers here and the unrolled plans of
``unrolled_gnn``: a gradient step H <- H - eta * grad on the smooth part,
then the layer's proximal map,

    prox of the nonnegativity indicator  = elementwise ReLU,
    prox of t * ||. - X||_{2,1} (row-wise) = shrink each row of V toward
        the matching row of X by max(0, 1 - t / ||v_i - x_i||).

``gd_run`` and ``proxgd_run`` decode a ``GsdSpec`` into its layer once and
repeat it in one loop, which computes A_hat H and H - X once per iterate for
both the objective trace and the next gradient. The loop runs in a fixed
set of n x d buffers that the solve allocates once: the layer step, the
gradient inside it and the prox write into them, so that with an identity T
an iterate allocates no n x d array besides the A_hat product. The unrolled
plans run the same step without buffers and get fresh arrays from the same
code. Objective traces always include the nonsmooth part, so the documented
descent guarantee at stepsize 1/Lambda is about the true composite
objective, not just its smooth half. A run stops,
unconverged, at the first step whose objective is not finite: the iteration
has diverged, and the report's ``stop_reason`` says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .graph_core import NormalizedOperators
from .gsd_problem import (
    GsdSpec,
    LayerParams,
    NonNegIndicator,
    RowL21,
    _check_signal,
    _laplacian,
    _layer_of,
    _objective_value,
    _row_norms,
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
    """Result of a descent run. ``stop_reason`` says why it stopped:
    ``plateau`` (the objective changed by at most rel_tol, relative),
    ``max_iters`` (the iteration budget ran out) or ``diverged`` (the
    objective stopped being finite)."""

    final: np.ndarray
    objective_trace: list[float]
    iterations_used: int
    stop_reason: str
    trajectory: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "plateau"

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations_used,
            "objective_trace": [
                v if math.isfinite(v) else None for v in self.objective_trace
            ],
            "stop_reason": self.stop_reason,
        }


def _resolve_stepsize(spec: GsdSpec, cfg: SolveConfig) -> float:
    if cfg.stepsize == "auto":
        lam = smoothness_bound(spec)
        if lam <= 0:
            raise ValueError("objective has zero curvature bound; pass an explicit stepsize")
        return 1.0 / lam
    return float(cfg.stepsize)


def prox_nonneg(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Projection onto the nonnegative orthant (elementwise ReLU), written
    into out (which may be m itself) when given."""
    return np.maximum(m, 0.0, out=out)


def row_shrink(
    v: np.ndarray, anchor: np.ndarray, threshold: float, out: np.ndarray | None = None
) -> np.ndarray:
    """prox of threshold * ||. - anchor||_{2,1} at v, row by row.

    Rows whose residual norm is below the threshold collapse onto the
    anchor; a zero residual maps to the anchor exactly (that is the
    subproblem's minimizer, even though the shrink formula reads 0/0).
    The result is written into out when given; out may be v itself but
    must not share memory with anchor.
    """
    v = np.asarray(v, dtype=np.float64)
    anchor = np.asarray(anchor, dtype=np.float64)
    if v.shape != anchor.shape:
        raise ValueError(f"shapes differ: {v.shape} vs {anchor.shape}")
    resid = np.subtract(v, anchor, out=out)
    norms = _row_norms(resid)
    factor = np.zeros_like(norms)
    active = norms > 0.0
    factor[active] = np.maximum(0.0, 1.0 - threshold / norms[active])
    resid *= factor[:, None]
    resid += anchor
    return resid


def _layer_step(
    layer: LayerParams,
    h: np.ndarray,
    x: np.ndarray,
    lap_h: np.ndarray | None,
    diff: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """One unrolled layer, which is one solver iteration: a gradient step on
    the smooth part at H, given lap_h = (I - A_hat) H and optionally
    diff = H - X, then the layer's prox. The gradient, the step and the prox
    all land in ``out``, with ``work`` for the gradient's later terms (see
    ``_smooth_grad``); both None give a fresh array. H itself is only read."""
    v = _smooth_grad(layer, h, x, lap_h, diff, out, work)
    v *= layer.eta
    np.subtract(h, v, out=v)
    if isinstance(layer.prox, NonNegIndicator):
        return prox_nonneg(v, out=v)
    if isinstance(layer.prox, RowL21):
        return row_shrink(v, x, layer.eta * layer.prox.weight, out=v)
    return v


def _descend(
    spec: GsdSpec,
    x: np.ndarray,
    h0: np.ndarray,
    ops: NormalizedOperators,
    cfg: SolveConfig,
) -> SolveReport:
    """Repeat the spec's layer from h0 until the objective plateaus or diverges.

    The iterate lives in buffers allocated here, once per solve: two for H
    (each step writes the next iterate into the spare one and they swap) and
    one for H - X, which the objective and the next gradient share. Only the
    gradient's first term reads H - X, so its later terms are formed in that
    buffer too. Neither x nor h0 is written, and the A_hat product is the one
    fresh n x d array of a step.
    """
    layer = _layer_of(spec, _resolve_stepsize(spec, cfg))
    h = np.array(h0, dtype=np.float64, copy=True)
    x = np.asarray(x, dtype=np.float64)
    _check_signal(spec, h, x)
    spare, diff = np.empty_like(h), np.subtract(h, x)
    lap_h = _laplacian(h, ops, layer.beta)
    trace = [_objective_value(layer, h, x, lap_h, diff)]
    traj = [h.copy()] if cfg.capture_trajectory else None
    stop_reason = "max_iters"
    it = 0
    for it in range(1, cfg.max_iters + 1):
        h, spare = _layer_step(layer, h, x, lap_h, diff, out=spare, work=diff), h
        np.subtract(h, x, out=diff)  # for this trace entry and the next step
        lap_h = None  # spent: free it before the next product is made
        lap_h = _laplacian(h, ops, layer.beta)
        f = _objective_value(layer, h, x, lap_h, diff)
        trace.append(f)
        if traj is not None:
            traj.append(h.copy())
        if not math.isfinite(f):
            stop_reason = "diverged"  # an inf trace[0], from an infeasible h0, is not
            break
        prev = trace[-2]
        if math.isfinite(prev) and abs(f - prev) <= cfg.rel_tol * max(1.0, abs(prev)):
            stop_reason = "plateau"
            break
    return SolveReport(
        final=h,
        objective_trace=trace,
        iterations_used=it,
        stop_reason=stop_reason,
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
