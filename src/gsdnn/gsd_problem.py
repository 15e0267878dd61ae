"""The graph signal denoising objective and its smooth calculus.

The objective over a denoised signal H given a noisy signal X is

    L(H) = alpha * ||H - X||^2_{T_alpha} + beta * ||B H||^2_{T_beta} + r(H),

with the weighted norm ||M||^2_T := tr(M T M^T). The smoothness term is
always evaluated through the identity ||B H||^2_{T_beta}
= tr(H^T (I - A_hat) H T_beta), so the incidence matrix is never
materialized. The regularizer r is one of:

  * None,
  * NonNegIndicator: +infinity off the nonnegative orthant,
  * RidgeComplement: adds beta * ||H||^2_{I - T_beta},
  * RowL21(weight): adds weight * sum_i ||h_i - x_i||_2 (anchored at X).

The gradient of the smooth part is

    grad L = 2 alpha (H - X) T_alpha + 2 beta (I - A_hat) H T_beta
             [+ 2 beta (H - H T_beta) under RidgeComplement].

``_layer_of`` decodes a ``GsdSpec`` once into the ``LayerParams`` of one
descent step (an identity T becomes None). The objective, the gradient, the
curvature bound and the layer step that the solvers and the unrolled plans
run all read that record, so the gradient formula is written once; each is
given (I - A_hat) H, so a solver iterate costs one A_hat product.

The objective and the gradient also take H - X from a caller that has it,
so a solver iterate forms H - X once for the trace entry and the next step.
The objective reduces each term with an einsum contraction and makes no
n x d product array (a non-identity T costs one M T product). The gradient
writes into n x d buffers that a solver owns and passes in; every other
caller passes none and gets a fresh array from the same code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .graph_core import NormalizedOperators, _forked, spmm

__all__ = [
    "GsdSpec",
    "LayerParams",
    "NonNegIndicator",
    "RidgeComplement",
    "RowL21",
    "weighted_norm_sq",
    "objective",
    "gradient_smooth",
    "closed_form_ppnp",
    "DENSE_MAX_NODES",
    "smoothness_bound",
]


# closed_form_ppnp solves densely up to this many nodes and by conjugate
# gradients above it: on graphs of average degree 10, dense takes 0.1-1.1 ms
# against 0.9-2.9 ms for CG at n <= 192, each is within 2x of the other at
# n = 224-256, and CG wins at every n >= 320 (d in {1, 4, 16}, gamma in {0.1, 0.5}).
DENSE_MAX_NODES = 256

# closed_form_ppnp's conjugate gradients solve half of the columns in a
# forked child from this many nodes on (with 4 columns or more). On graphs of
# average degree 10 at gamma 0.1 (median of 7 alternating solves each), the
# split lost at n = 8,000-12,000 with 16 columns and won from 14,000 (99 against
# 149 ms), and with 4 columns it lost at 10,000, was within 6% at 16,000 and
# 20,000 and won at 50,000 (186 against 219 ms).
_CG_SPLIT_MIN_NODES = 16_000


@dataclass(frozen=True)
class NonNegIndicator:
    """Indicator of the nonnegative orthant: +infinity off it, 0 on it."""


@dataclass(frozen=True)
class RidgeComplement:
    """The extra ridge term beta * ||H||^2_{I - T_beta}."""


@dataclass(frozen=True)
class RowL21:
    """Row-wise l2 penalty on H - X with the given finite nonnegative weight."""

    weight: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise ValueError(f"RowL21 weight must be finite and nonnegative, got {self.weight}")


Regularizer = Union[None, NonNegIndicator, RidgeComplement, RowL21]


def _symmetrized(m, d_name: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{d_name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{d_name} contains NaN or Inf entries")
    return 0.5 * a + 0.5 * a.T


@dataclass(frozen=True)
class GsdSpec:
    """The tuple (alpha, beta, T_alpha, T_beta, regularizer).

    T matrices are symmetrized as M/2 + M^T/2 on construction, halved
    before the sum so that no finite entry overflows; callers who pass an
    asymmetric matrix get the symmetric part, which is the only part the
    weighted norm can see anyway.
    """

    alpha: float
    beta: float
    t_alpha: np.ndarray
    t_beta: np.ndarray
    regularizer: Regularizer = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ValueError("alpha and beta must be finite and nonnegative")
        object.__setattr__(self, "t_alpha", _symmetrized(self.t_alpha, "t_alpha"))
        object.__setattr__(self, "t_beta", _symmetrized(self.t_beta, "t_beta"))
        if self.t_alpha.shape != self.t_beta.shape:
            raise ValueError("t_alpha and t_beta must have matching shapes")

    @property
    def dim(self) -> int:
        return self.t_alpha.shape[0]

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GsdSpec":
        """The spec of a parsed JSON document; ValueError if it is malformed."""
        if not isinstance(doc, dict):
            raise ValueError("spec must be a JSON object")
        try:
            reg_doc = doc.get("regularizer")
            reg: Regularizer
            if reg_doc is None:
                reg = None
            elif not isinstance(reg_doc, dict):
                raise ValueError(f"regularizer must be a JSON object or null, got {reg_doc!r}")
            else:
                kind = reg_doc.get("kind")
                if kind == "nonneg":
                    reg = NonNegIndicator()
                elif kind == "ridge_complement":
                    reg = RidgeComplement()
                elif kind == "row_l21":
                    reg = RowL21(weight=float(_no_bool(reg_doc["weight"], "weight")))
                else:
                    raise ValueError(f"unknown regularizer kind {kind!r}")
            return cls(
                alpha=float(_no_bool(doc["alpha"], "alpha")),
                beta=float(_no_bool(doc["beta"], "beta")),
                t_alpha=np.asarray(_no_bool(doc["t_alpha"], "t_alpha"), dtype=np.float64),
                t_beta=np.asarray(_no_bool(doc["t_beta"], "t_beta"), dtype=np.float64),
                regularizer=reg,
            )
        except KeyError as exc:
            raise ValueError(f"spec has no field {exc}")
        except TypeError as exc:
            raise ValueError(f"spec has a field of the wrong type: {exc}")

    @classmethod
    def from_json(cls, text: str) -> "GsdSpec":
        return cls.from_json_dict(json.loads(text))


def _no_bool(v, name: str):
    """v, or TypeError if a JSON boolean, which float() reads as 0 or 1, is in it."""
    stack = [v]
    while stack:
        e = stack.pop()
        if isinstance(e, bool):
            raise TypeError(f"{name} holds the boolean {json.dumps(e)}")
        stack.extend(e if isinstance(e, list) else ())
    return v


def _as_matrix(w, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got shape {w.shape}")
    return w


@dataclass(frozen=True)
class LayerParams:
    """One descent step on a GSD objective, which is one unrolled layer.

    ``t_alpha`` / ``t_beta`` equal to None mean the identity. They are not
    required to be symmetric: the scheme builders put raw weight matrices
    here, and the layer algebra never needs symmetry. ``ridge`` weighs the
    term ||H||^2_{I - T_beta} (it vanishes when T_beta is None). ``prox``
    is the regularizer whose proximal map ends the step; a ``RowL21``
    shrinks rows toward X with threshold eta * weight.
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


def _layer_of(spec: GsdSpec, eta: float = 1.0) -> LayerParams:
    """The step of stepsize eta on spec's objective: the one place a
    regularizer becomes ``ridge`` and ``prox`` and an exactly-identity T
    becomes None (any other T is kept as the same array). Only the step
    reads eta, so the objective, gradient and bound take the default."""
    reg, eye = spec.regularizer, np.eye(spec.dim)
    t_alpha, t_beta = (None if np.array_equal(t, eye) else t for t in (spec.t_alpha, spec.t_beta))
    return LayerParams(
        eta=eta, alpha=spec.alpha, beta=spec.beta, t_alpha=t_alpha, t_beta=t_beta,
        ridge=spec.beta if isinstance(reg, RidgeComplement) else 0.0,
        prox=reg if isinstance(reg, (NonNegIndicator, RowL21)) else None,
    )


def _times(m: np.ndarray, t: np.ndarray | None) -> np.ndarray:
    return m if t is None else m @ t


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """sum_ij a_ij b_ij without an n x d product array. einsum, not the BLAS
    dot: with two OpenBLAS threads a 5e4 x 16 ddot took 5-8 ms, against
    0.45 ms here, and its sum would depend on the thread count."""
    return float(np.einsum("ij,ij->", a, b))


def _norm_sq(m: np.ndarray, t: np.ndarray | None) -> float:
    """tr(M T M^T), with None as the identity."""
    return _inner(_times(m, t), m)


def _row_norms(m: np.ndarray) -> np.ndarray:
    """The l2 norm of each row of M, without an n x d array of squares."""
    return np.sqrt(np.einsum("ij,ij->i", m, m))


def weighted_norm_sq(m: np.ndarray, t: np.ndarray) -> float:
    """tr(M T M^T); equals the squared Frobenius norm when t = I."""
    m = np.asarray(m, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if m.shape[1] != t.shape[0]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns but the weight is {t.shape[0]}x{t.shape[1]}"
        )
    return _norm_sq(m, t)


def _check_signal(spec: GsdSpec, h: np.ndarray, x: np.ndarray) -> None:
    if h.shape != x.shape:
        raise ValueError(f"h has shape {h.shape} but x has shape {x.shape}")
    if h.shape[1] != spec.dim:
        raise ValueError(f"signal width {h.shape[1]} does not match spec dim {spec.dim}")


def _laplacian(h: np.ndarray, ops: NormalizedOperators, beta: float) -> np.ndarray | None:
    """(I - A_hat) H, the one A_hat product both L(H) and its gradient read;
    None when beta = 0 and neither needs it."""
    return ops.laplacian_apply(h) if beta != 0.0 else None


def _objective_value(
    layer: LayerParams,
    h: np.ndarray,
    x: np.ndarray,
    lap_h: np.ndarray | None,
    diff: np.ndarray | None = None,
) -> float:
    """L(H), given lap_h = (I - A_hat) H and, when the caller has it,
    diff = H - X. Each term is reduced by an einsum contraction, so no
    n x d product array is made when T is the identity."""
    if isinstance(layer.prox, NonNegIndicator) and np.any(h < 0):
        return math.inf
    if diff is None:
        diff = h - x

    value = 0.0
    if layer.alpha != 0.0:
        value += layer.alpha * _norm_sq(diff, layer.t_alpha)
    if layer.beta != 0.0:
        value += layer.beta * _inner(_times(h, layer.t_beta), lap_h)
    if layer.ridge != 0.0 and layer.t_beta is not None:
        value += layer.ridge * _norm_sq(h, np.eye(h.shape[1]) - layer.t_beta)
    if isinstance(layer.prox, RowL21):
        value += layer.prox.weight * float(np.sum(_row_norms(diff)))
    return value


def objective(
    spec: GsdSpec,
    h: np.ndarray,
    x: np.ndarray,
    ops: NormalizedOperators,
) -> float:
    """Evaluate L(H); +inf when the nonnegativity indicator is violated."""
    h = np.asarray(h, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_signal(spec, h, x)
    return _objective_value(_layer_of(spec), h, x, _laplacian(h, ops, spec.beta))


def _accumulate(
    grad: np.ndarray | None,
    c: float,
    m: np.ndarray,
    t: np.ndarray | None,
    out: np.ndarray | None,
    work: np.ndarray | None,
) -> np.ndarray:
    """grad + c M T, with None as the identity: the term is formed in out
    when there is no grad yet, and otherwise in work and then added to grad
    in place. A None buffer gives a fresh array."""
    dest = out if grad is None else work
    if t is None:
        term = np.multiply(m, c, out=dest)
    else:
        term = np.matmul(m, t, out=dest)
        term *= c
    if grad is None:
        return term
    grad += term
    return grad


def _smooth_grad(
    layer: LayerParams,
    h: np.ndarray,
    x: np.ndarray,
    lap_h: np.ndarray | None,
    diff: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """2 alpha (H - X) T_alpha + 2 beta lap_h T_beta + 2 ridge (H - H T_beta).

    The one gradient formula: gradient_smooth and every layer step evaluate
    it. lap_h = (I - A_hat) H is read only when beta != 0, and diff = H - X
    is formed here unless the caller passes it. The first term is written
    into ``out`` and each later one into ``work`` before it is added; a
    solver passes n x d buffers it owns, any other caller None, which gives
    fresh arrays. ``work`` may be diff, which only the first term reads;
    otherwise neither buffer may share memory with h, x, lap_h or diff.
    """
    grad = None
    if layer.alpha != 0.0:
        m = h - x if diff is None else diff
        grad = _accumulate(grad, 2.0 * layer.alpha, m, layer.t_alpha, out, work)
    if layer.beta != 0.0:
        grad = _accumulate(grad, 2.0 * layer.beta, lap_h, layer.t_beta, out, work)
    if layer.ridge != 0.0 and layer.t_beta is not None:
        h_t = np.matmul(h, layer.t_beta, out=out if grad is None else work)
        np.subtract(h, h_t, out=h_t)
        grad = _accumulate(grad, 2.0 * layer.ridge, h_t, None, h_t, h_t)
    if grad is None:  # no term: the smooth part is constant
        grad = np.zeros_like(h) if out is None else out
        grad.fill(0.0)
    return grad


def gradient_smooth(
    spec: GsdSpec,
    h: np.ndarray,
    x: np.ndarray,
    ops: NormalizedOperators,
) -> np.ndarray:
    """Gradient of the smooth part of L at H.

    Indicator and row-l21 terms are not differentiated here; the solvers
    handle them through their proximal maps.
    """
    h = np.asarray(h, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_signal(spec, h, x)
    return _smooth_grad(_layer_of(spec), h, x, _laplacian(h, ops, spec.beta))


# a solution that overflows, or a NaN or Inf in X, is reported by FloatingPointError
@np.errstate(over="ignore", invalid="ignore")
def closed_form_ppnp(
    ops: NormalizedOperators, x: np.ndarray, gamma: float, stats: dict | None = None
) -> np.ndarray:
    """Solve (I - (1-gamma) A_hat) Xbar = gamma X.

    The system matrix is symmetric positive definite (its eigenvalues are
    1 - (1-gamma) lambda with lambda in [-1, 1], hence >= gamma), so a
    direct dense solve is used up to DENSE_MAX_NODES nodes and conjugate
    gradients on all columns at once beyond that (one spmm per iteration),
    from 16,000 nodes and 4 columns on in two halves of the columns, one of
    them in a forked child, with the one-process results bit for bit.
    Column j stops once ||r_j|| <= 1e-14 ||gamma x_j||, so a zero column
    stays zero; FloatingPointError if one has not after 20 n iterations, and
    at once if a residual is not finite (a NaN or Inf in X).

    Every branch solves for gamma x with each column scaled exactly, by the
    power of two that brings its largest entry into [0.5, 1), and scales the
    solution back once: results are the unscaled ones (bit for bit on the
    dense branch, where no entry is subnormal), but squares of entries near
    either end of the float range neither overflow nor vanish.
    FloatingPointError if the solution is not finite: it overflows, or X
    holds a NaN or Inf.

    ValueError for a gamma outside (0, 1], and for one at or below 2^-54,
    where 1 - gamma rounds to 1 and the system solved would be I - A_hat.

    A ``stats`` dict receives ``cg_iterations``, the CG iterations of the
    slowest column (0 on the dense branch and for gamma = 1),
    ``relative_residuals``, ||r_j|| / ||gamma x_j|| on the scaled columns (0
    for a zero column), and ``converged``, true iff all meet the stopping
    test, as the CG's always do, and ``forked_columns``, the columns solved
    in a forked child (0 when one process solved them all). r is the CG
    recurrence's residual, or on the dense branch the one computed from the
    solution.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    if 1.0 - gamma == 1.0:
        raise ValueError(f"gamma = {gamma!r} is at or below 2^-54 (about 5.6e-17), where "
                         "1 - gamma rounds to 1 and the system I - A_hat is singular")
    x = np.asarray(x, dtype=np.float64)
    n = ops.num_nodes
    if x.shape[0] != n:
        raise ValueError(f"signal has {x.shape[0]} rows, expected {n}")
    rhs = gamma * x
    shift = -np.frexp(np.abs(rhs).max(axis=0))[1]
    np.ldexp(rhs, shift, out=rhs)
    cg = gamma != 1.0 and n > DENSE_MAX_NODES
    # taken before the CG turns rhs into its residual
    rhs_norms = np.linalg.norm(rhs, axis=0) if cg or stats is not None else None
    forked = 0
    if gamma == 1.0:
        h, iterations, resid = rhs, 0, np.zeros_like(rhs)
    elif not cg:
        system = np.eye(n) - (1.0 - gamma) * ops.a_hat.toarray()
        h, iterations = np.linalg.solve(system, rhs), 0
        resid = None if stats is None else rhs - system @ h
    else:
        h, iterations, resid, forked = _ppnp_cg_on_two_cores(ops, rhs, gamma, 1e-14 * rhs_norms)
    np.ldexp(h, -shift, out=h)
    if not np.isfinite(h).all():
        raise FloatingPointError(f"the closed-form solution is not finite on column "
                                 f"{np.argmin(np.isfinite(h).all(axis=0))}")
    if stats is not None:
        rel = np.divide(np.linalg.norm(resid, axis=0), rhs_norms,
                        out=np.zeros(x.shape[1]), where=rhs_norms > 0)
        stats.update(cg_iterations=iterations, relative_residuals=rel.tolist(),
                     converged=bool(cg or (rel <= 1e-14).all()),
                     forked_columns=forked)
    return h


def _ppnp_cg_on_two_cores(
    ops: NormalizedOperators, r: np.ndarray, gamma: float, tol: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray, int]:
    """(H, iterations, residual, forked columns) of :func:`_ppnp_cg`, with
    the columns from d // 2 on solved in a forked child while this process
    solves the others, each half on a contiguous copy of its columns of R.

    Each column's CG runs on its own, and a stopped column's step is 0, so a
    half of two columns or more gives its columns' H and residual bit for bit
    (a one-column half sums its einsum in another order), and the iterations
    are the larger half's. The child sends its iterations, residual and H
    back as raw bytes, read into arrays made for them; R becomes the residual
    in place only once ``graph_core._forked`` has returned them. With fewer
    than 4 columns or _CG_SPLIT_MIN_NODES nodes, or where ``_forked`` returns
    None, the whole solve runs here, with 0 forked columns, so results and
    errors are those of one process (the child names a column by its number
    in its half).
    """
    n, d = r.shape
    half = d // 2
    if half >= 2 and n >= _CG_SPLIT_MIN_NODES:
        def child_half() -> bytes:
            h, it, res = _ppnp_cg(ops, np.ascontiguousarray(r[:, half:]), gamma, tol[half:])
            return b"".join((it.to_bytes(8, "little"), res, h))

        def both_halves(pipe) -> tuple:
            h_lo, it_lo, r_lo = _ppnp_cg(ops, np.ascontiguousarray(r[:, :half]),
                                         gamma, tol[:half])
            it_hi = int.from_bytes(pipe.read(8), "little")
            r_hi, h_hi = np.empty((n, d - half)), np.empty((n, d - half))
            pipe.readinto(r_hi)
            pipe.readinto(h_hi)
            return h_lo, h_hi, max(it_lo, it_hi), r_lo, r_hi

        halves = _forked(child_half, both_halves)
        if halves is not None:
            h_lo, h_hi, iterations = halves[:3]
            r[:, :half], r[:, half:] = halves[3:]
            del halves  # the residual halves, before H is put together: a lower peak
            return np.hstack((h_lo, h_hi)), iterations, r, d - half
    return (*_ppnp_cg(ops, r, gamma, tol), 0)


def _ppnp_cg(
    ops: NormalizedOperators, r: np.ndarray, gamma: float, tol: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray]:
    """(H, iterations, residual) of conjugate gradients on
    (I - (1-gamma) A_hat) H = R for all columns at once, from H = 0, until
    ||r_j|| <= tol_j on every column j; R becomes the residual in place, and
    a failure names the worst active column, its residual in R's scale."""
    n = ops.num_nodes
    h, p, rho_prev = np.zeros_like(r), np.zeros_like(r), np.ones(r.shape[1])
    for it in range(20 * n):
        rho = np.einsum("ij,ij->j", r, r)
        if not np.isfinite(rho).all():
            raise FloatingPointError(f"conjugate gradients hit a non-finite residual on "
                                     f"column {np.argmin(np.isfinite(rho))} at iteration {it}")
        active = np.sqrt(rho) > tol
        if not active.any():
            return h, it, r
        p *= np.divide(rho, rho_prev, out=np.zeros_like(rho), where=active)
        p += r
        q = spmm(ops, p)
        q *= 1.0 - gamma
        np.subtract(p, q, out=q)  # q = (I - (1-gamma) A_hat) p
        step = np.divide(rho, np.einsum("ij,ij->j", p, q), out=np.zeros_like(rho), where=active)
        q *= step
        r -= q
        h += np.multiply(p, step, out=q)
        rho_prev = rho
    resid = np.linalg.norm(r, axis=0)
    j = int(np.argmax(np.divide(resid, tol, out=np.zeros_like(tol), where=active)))
    raise FloatingPointError(f"conjugate gradients did not converge on column {j}; residual "
                             f"{resid[j]:.3e} after {20 * n} iterations")


def _spectral_norm_ub(t: np.ndarray | None) -> float:
    """||T||_2 (1 for None) from the library SVD, inflated to stay an upper bound."""
    return (1.0 if t is None else float(np.linalg.norm(t, 2))) * (1.0 + 1e-10)


def smoothness_bound(spec: GsdSpec) -> float:
    """A Lipschitz constant bound for gradient_smooth.

    Uses lambda_max(I - A_hat) <= 2, so

        Lambda = 2 alpha ||T_alpha||_2 + 4 beta ||T_beta||_2
                 [+ 2 beta ||I - T_beta||_2 under RidgeComplement],

    which dominates the largest Hessian eigenvalue for every graph; the
    bound needs no graph. Each spectral norm is the largest singular value
    (``np.linalg.norm(T, 2)``) times 1 + 1e-10.
    """
    layer = _layer_of(spec)
    bound = 2.0 * layer.alpha * _spectral_norm_ub(layer.t_alpha)
    bound += 4.0 * layer.beta * _spectral_norm_ub(layer.t_beta)
    if layer.ridge != 0.0 and layer.t_beta is not None:
        bound += 2.0 * layer.ridge * _spectral_norm_ub(np.eye(spec.dim) - layer.t_beta)
    return bound
