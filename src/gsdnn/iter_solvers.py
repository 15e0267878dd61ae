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
an iterate allocates no n x d array besides the A_hat product. On a large
graph two processes run the same loop in lockstep, each stepping half of the
rows; H and (I - A_hat) H are then buffers that both processes share, each
evaluates the objective itself, only one-byte barriers cross between them,
and the results are one process's bit for bit. The unrolled
plans run the same step without buffers and get fresh arrays from the same
code. Objective traces always include the nonsmooth part, so the documented
descent guarantee at stepsize 1/Lambda is about the true composite
objective, not just its smooth half. A run stops,
unconverged, at the first step whose objective is not finite: the iteration
has diverged, and the report's ``stop_reason`` says so.
"""

from __future__ import annotations

import math
import mmap
import socket
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .graph_core import NormalizedOperators, _forked, spmm
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

# _solve steps the rows from A_hat's nnz midpoint on in a forked child from
# this many nodes on (see _descend_on_two_cores). gd solves of 33 iterations
# at T = I and 16 columns on random graphs of average degree 10 (median of 9
# alternating pairs per size, on 2 vCPUs): the split lost at 10,000 to
# 27,500 nodes (0.156 against 0.179 s at 20,000; it won at most 3 of 9),
# won 3 and 8 of 9 in two rounds at 30,000 and 7 of 9 at 32,500, and won
# from 35,000 on (0.460 against 0.335 s; 7 and 9 of 9), 40,000 (7 and 9 of 9)
# and 50,000 (0.62 against 0.46 s). Where it crosses over moves with the
# size at which one process's working set leaves the cache.
_DESCENT_SPLIT_MIN_NODES = 35_000


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
    objective stopped being finite). ``forked_rows`` counts the rows that a
    forked child stepped (0 when one process stepped them all)."""

    final: np.ndarray
    objective_trace: list[float]
    iterations_used: int
    stop_reason: str
    trajectory: list[np.ndarray] | None = field(default=None, repr=False)
    forked_rows: int = 0

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
        if not 0 < lam < math.inf:
            raise ValueError(f"objective has curvature bound {lam}, which is zero or not finite; "
                             "pass an explicit --stepsize")
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


def _rows(a: np.ndarray | None, r: slice) -> np.ndarray | None:
    return None if a is None else a[r]


def _descend(
    layer: LayerParams,
    x: np.ndarray,
    h: np.ndarray,
    ops: NormalizedOperators,
    cfg: SolveConfig,
    half: int | None = None,
    barrier: Callable[[], None] | None = None,
    lap: np.ndarray | None = None,
) -> SolveReport:
    """Repeat the layer from H, which this writes, until the objective
    plateaus or diverges: the one descent loop.

    Alone, the iterate lives in buffers allocated once per solve: two for H
    (each step writes the next iterate into the spare one and they swap)
    and one for H - X, which the objective and the next gradient share.
    Only the gradient's first term reads H - X, so its later terms are
    formed in that buffer too. x is never written, and the A_hat product,
    turned into (I - A_hat) H in place, is the one fresh n x d array of a
    step.

    With a ``barrier``, this is one of two processes that share H and
    ``lap``, the (I - A_hat) H buffer, and step the rows of block ``half``
    of ``ops.row_halves`` in lockstep. A step's rows are a fresh array,
    copied into H and freed before the product, which reuses its memory;
    this process writes its rows of ``lap`` from its block's product. Each
    process then forms all of H - X and evaluates the objective on the whole
    arrays itself, so both get the same bits and stop at the same iterate.
    ``barrier()`` returns once the other process has called it too: before
    a process writes its rows of H (the other has read H for its
    objective), after it has written them, and after it has written its
    rows of ``lap``.
    """
    if barrier is None:
        r, spare = slice(None), np.empty_like(h)
    else:
        mid = ops.row_halves[0]
        r, spare = (slice(0, mid) if half == 0 else slice(mid, None)), None

    def laplacian() -> np.ndarray | None:
        if barrier is None or layer.beta == 0.0:
            return _laplacian(h, ops, layer.beta)
        np.subtract(h[r], spmm(ops, h, half), out=lap[r])
        barrier()
        return lap

    diff = np.empty_like(h)
    np.subtract(h, x, out=diff)
    lap_h = laplacian()
    trace = [_objective_value(layer, h, x, lap_h, diff)]
    traj = [h.copy()] if cfg.capture_trajectory else None
    stop_reason = "max_iters"
    it = 0
    for it in range(1, cfg.max_iters + 1):
        step = _layer_step(layer, h[r], x[r], _rows(lap_h, r), diff[r], out=spare, work=diff[r])
        if barrier is None:
            h, spare = step, h  # the spent H is the next step's buffer
        else:
            barrier()
            h[r] = step
            barrier()
        del step
        np.subtract(h, x, out=diff)  # for this trace entry and the next step
        lap_h = None  # spent: free it before the next product is made
        lap_h = laplacian()
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


def _descend_on_two_cores(
    layer: LayerParams, x: np.ndarray, h0: np.ndarray, ops: NormalizedOperators, cfg: SolveConfig
) -> SolveReport | None:
    """:func:`_descend` from h0 with the rows from ``ops.row_halves``' mid on
    stepped by a forked child, in lockstep with this process, which steps
    the rows before it; None where ``graph_core._forked`` returns None or
    making the shared buffers or the socket pair before the fork raised an
    Exception. The barrier is one byte each way over a socket pair; EOF
    there means that the other process has stopped, and raises EOFError.
    This process closes its end once its half returns, so that a child
    whose stopping test disagreed fails at its next barrier and the solve
    reruns in one process.

    H and (I - A_hat) H are views of anonymous shared ``mmap`` buffers made
    before the fork, which are unmapped with their last view; the report's
    ``final`` is a private copy. Only these two are shared: each shared
    page counts in this process's peak RSS, where a private buffer may
    reuse heap pages that an earlier step of the command freed."""
    try:
        h, lap = (np.frombuffer(mmap.mmap(-1, h0.nbytes)).reshape(h0.shape) for _ in range(2))
        np.copyto(h, h0)
        here, there = socket.socketpair()
    except Exception:
        return None

    def barrier_over(sock: socket.socket) -> Callable[[], None]:
        def barrier() -> None:
            sock.sendall(b"b")
            if not sock.recv(1):
                raise EOFError("the other half of the descent stopped")
        return barrier

    with here, there:
        def child_half() -> bytes:
            here.close()
            _descend(layer, x, h, ops, cfg, 1, barrier_over(there), lap)
            return b""

        def parent_half(pipe) -> SolveReport:
            there.close()  # so that a child that dies leaves EOF here
            with here:  # closed on return, so that a child that steps on gets EOF
                return _descend(layer, x, h, ops, cfg, 0, barrier_over(here), lap)

        report = _forked(child_half, parent_half)
    if report is not None:
        report.final, report.forked_rows = report.final.copy(), h0.shape[0] - ops.row_halves[0]
    return report


# a diverging run overflows quietly on its last step: stop_reason reports it
@np.errstate(over="ignore", invalid="ignore")
def _solve(
    spec: GsdSpec,
    x: np.ndarray,
    h0: np.ndarray,
    ops: NormalizedOperators,
    cfg: SolveConfig,
) -> SolveReport:
    """:func:`_descend` of the spec's layer from h0: on two cores from
    _DESCENT_SPLIT_MIN_NODES nodes on, and otherwise, or where the two-core
    run returns None, in this process, which then reruns the whole solve:
    results and errors are those of one process. Neither x nor h0 is
    written. One process also runs a layer with a T that is not the
    identity, whose M T products OpenBLAS runs on threads in both processes
    (at denoise-large size the split took 5.45 against 4.42 s, 0 of 7
    pairs), a captured trajectory, and an h0 that is not C-contiguous, since
    the shared H must have the layout of this process's copy."""
    layer = _layer_of(spec, _resolve_stepsize(spec, cfg))
    h0 = np.asarray(h0, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_signal(spec, h0, x)
    if (h0.shape[0] >= max(2, _DESCENT_SPLIT_MIN_NODES) and h0.flags.c_contiguous
            and layer.t_alpha is None and layer.t_beta is None and not cfg.capture_trajectory):
        report = _descend_on_two_cores(layer, x, h0, ops, cfg)
        if report is not None:
            return report
    return _descend(layer, x, np.array(h0, copy=True), ops, cfg)


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
    return _solve(spec, x, h0, ops, cfg)


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
    return _solve(spec, x, h0, ops, cfg)
