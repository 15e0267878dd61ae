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

That formula is written once, for a given (I - A_hat) H: ``gradient_smooth``
evaluates it, and so does the one layer step in ``iter_solvers`` that both
the solvers and the unrolled plans of ``unrolled_gnn`` run. The solver loop
likewise passes the same (I - A_hat) H to the objective evaluator, so an
iterate costs one A_hat product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Union

import numpy as np
import scipy.sparse.linalg as spla

from .graph_core import NormalizedOperators, spmm

__all__ = [
    "GsdSpec",
    "NonNegIndicator",
    "RidgeComplement",
    "RowL21",
    "INFEASIBLE",
    "weighted_norm_sq",
    "objective",
    "gradient_smooth",
    "closed_form_ppnp",
    "DENSE_MAX_NODES",
    "smoothness_bound",
]


class _Infeasible:
    """Tagged +infinity: the indicator regularizer is violated.

    A dedicated sentinel rather than float('inf') so serialized reports
    never contain a non-JSON value by accident.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFEASIBLE"

    def __float__(self) -> float:
        return float("inf")


INFEASIBLE = _Infeasible()

ObjectiveValue = Union[float, _Infeasible]

# closed_form_ppnp solves densely up to this many nodes and by conjugate
# gradients above it: dense takes 0.1-0.4 ms against 0.5-3.3 ms for CG at
# n <= 128, while CG wins at every n >= 384 (d in {1, 4}, gamma in {0.1, 0.5}).
DENSE_MAX_NODES = 256


@dataclass(frozen=True)
class NonNegIndicator:
    kind: str = field(default="nonneg", init=False)


@dataclass(frozen=True)
class RidgeComplement:
    kind: str = field(default="ridge_complement", init=False)


@dataclass(frozen=True)
class RowL21:
    """Row-wise l2 penalty on H - X with the given nonnegative weight."""

    weight: float
    kind: str = field(default="row_l21", init=False)

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("RowL21 weight must be nonnegative")


Regularizer = Union[None, NonNegIndicator, RidgeComplement, RowL21]


def _symmetrized(m, d_name: str) -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{d_name} must be a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class GsdSpec:
    """The tuple (alpha, beta, T_alpha, T_beta, regularizer).

    T matrices are symmetrized as (M + M^T)/2 on construction; callers who
    pass an asymmetric matrix get the symmetric part, which is the only
    part the weighted norm can see anyway.
    """

    alpha: float
    beta: float
    t_alpha: np.ndarray
    t_beta: np.ndarray
    regularizer: Regularizer = None

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        object.__setattr__(self, "t_alpha", _symmetrized(self.t_alpha, "t_alpha"))
        object.__setattr__(self, "t_beta", _symmetrized(self.t_beta, "t_beta"))
        if self.t_alpha.shape != self.t_beta.shape:
            raise ValueError("t_alpha and t_beta must have matching shapes")

    @property
    def dim(self) -> int:
        return self.t_alpha.shape[0]

    def to_json_dict(self) -> dict:
        reg: dict | None
        if self.regularizer is None:
            reg = None
        elif isinstance(self.regularizer, RowL21):
            reg = {"kind": "row_l21", "weight": self.regularizer.weight}
        else:
            reg = {"kind": self.regularizer.kind}
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "t_alpha": self.t_alpha.tolist(),
            "t_beta": self.t_beta.tolist(),
            "regularizer": reg,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GsdSpec":
        reg_doc = doc.get("regularizer")
        reg: Regularizer
        if reg_doc is None:
            reg = None
        else:
            kind = reg_doc.get("kind")
            if kind == "nonneg":
                reg = NonNegIndicator()
            elif kind == "ridge_complement":
                reg = RidgeComplement()
            elif kind == "row_l21":
                reg = RowL21(weight=float(reg_doc["weight"]))
            else:
                raise ValueError(f"unknown regularizer kind {kind!r}")
        return cls(
            alpha=float(doc["alpha"]),
            beta=float(doc["beta"]),
            t_alpha=np.asarray(doc["t_alpha"], dtype=np.float64),
            t_beta=np.asarray(doc["t_beta"], dtype=np.float64),
            regularizer=reg,
        )

    @classmethod
    def from_json(cls, text: str) -> "GsdSpec":
        return cls.from_json_dict(json.loads(text))


def weighted_norm_sq(m: np.ndarray, t: np.ndarray) -> float:
    """tr(M T M^T); equals the squared Frobenius norm when t = I."""
    m = np.asarray(m, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if m.shape[1] != t.shape[0]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns but the weight is {t.shape[0]}x{t.shape[1]}"
        )
    return float(np.sum((m @ t) * m))


def _check_signal(spec: GsdSpec, h: np.ndarray, x: np.ndarray) -> None:
    if h.shape != x.shape:
        raise ValueError(f"h has shape {h.shape} but x has shape {x.shape}")
    if h.shape[1] != spec.dim:
        raise ValueError(f"signal width {h.shape[1]} does not match spec dim {spec.dim}")


def _laplacian(h: np.ndarray, ops: NormalizedOperators, beta: float) -> np.ndarray | None:
    """(I - A_hat) H, the one A_hat product both L(H) and its gradient read;
    None when beta = 0 and neither needs it."""
    return h - spmm(ops, h) if beta != 0.0 else None


def _objective_value(
    spec: GsdSpec, h: np.ndarray, x: np.ndarray, lap_h: np.ndarray | None
) -> ObjectiveValue:
    """L(H), given lap_h = (I - A_hat) H."""
    if isinstance(spec.regularizer, NonNegIndicator) and np.any(h < 0):
        return INFEASIBLE

    value = 0.0
    if spec.alpha != 0.0:
        value += spec.alpha * weighted_norm_sq(h - x, spec.t_alpha)
    if spec.beta != 0.0:
        value += spec.beta * float(np.sum((h @ spec.t_beta) * lap_h))
    if isinstance(spec.regularizer, RidgeComplement):
        eye = np.eye(spec.dim)
        value += spec.beta * weighted_norm_sq(h, eye - spec.t_beta)
    elif isinstance(spec.regularizer, RowL21):
        value += spec.regularizer.weight * float(
            np.sum(np.linalg.norm(h - x, axis=1))
        )
    return value


def objective(
    spec: GsdSpec,
    h: np.ndarray,
    x: np.ndarray,
    ops: NormalizedOperators,
) -> ObjectiveValue:
    """Evaluate L(H). Returns INFEASIBLE when the indicator is violated."""
    h = np.asarray(h, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    _check_signal(spec, h, x)
    return _objective_value(spec, h, x, _laplacian(h, ops, spec.beta))


def _times(m: np.ndarray, t: np.ndarray | None) -> np.ndarray:
    return m if t is None else m @ t


def _smooth_grad(
    h: np.ndarray,
    x: np.ndarray,
    lap_h: np.ndarray | None,
    alpha: float,
    beta: float,
    t_alpha: np.ndarray | None,
    t_beta: np.ndarray | None,
    ridge: float,
) -> np.ndarray:
    """2 alpha (H - X) T_alpha + 2 beta lap_h T_beta + 2 ridge (H - H T_beta).

    The one gradient formula: gradient_smooth and every unrolled layer
    evaluate it. A T of None is the identity (and then the ridge term
    vanishes); lap_h = (I - A_hat) H is read only when beta != 0.
    """
    grad = np.zeros_like(h)
    if alpha != 0.0:
        grad += 2.0 * alpha * _times(h - x, t_alpha)
    if beta != 0.0:
        grad += 2.0 * beta * _times(lap_h, t_beta)
    if ridge != 0.0 and t_beta is not None:
        grad += 2.0 * ridge * (h - h @ t_beta)
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
    lap_h = _laplacian(h, ops, spec.beta)
    ridge = spec.beta if isinstance(spec.regularizer, RidgeComplement) else 0.0
    return _smooth_grad(h, x, lap_h, spec.alpha, spec.beta, spec.t_alpha, spec.t_beta, ridge)


def closed_form_ppnp(ops: NormalizedOperators, x: np.ndarray, gamma: float) -> np.ndarray:
    """Solve (I - (1-gamma) A_hat) Xbar = gamma X.

    The system matrix is symmetric positive definite (its eigenvalues are
    1 - (1-gamma) lambda with lambda in [-1, 1], hence >= gamma), so a
    direct dense solve is used up to DENSE_MAX_NODES nodes and conjugate
    gradients, one column at a time, beyond that.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    x = np.asarray(x, dtype=np.float64)
    n = ops.num_nodes
    if x.shape[0] != n:
        raise ValueError(f"signal has {x.shape[0]} rows, expected {n}")
    if gamma == 1.0:
        return x.copy()

    if n <= DENSE_MAX_NODES:
        system = np.eye(n) - (1.0 - gamma) * ops.a_hat.toarray()
        return np.linalg.solve(system, gamma * x)

    def matvec(v):
        return v - (1.0 - gamma) * spmm(ops, v)

    lin = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    maxiter = 20 * n
    cols = []
    for j in range(x.shape[1]):
        b = gamma * x[:, j]
        sol, info = spla.cg(lin, b, rtol=1e-14, atol=1e-13, maxiter=maxiter)
        if info != 0:
            resid = float(np.linalg.norm(matvec(sol) - b))
            raise RuntimeError(
                f"conjugate gradients did not converge on column {j}; "
                f"residual {resid:.3e} after {maxiter} iterations"
            )
        cols.append(sol)
    return np.stack(cols, axis=1)


def _spectral_norm_ub(m: np.ndarray, iters: int = 1000, tol: float = 1e-14) -> float:
    """Upper estimate of ||M||_2 for small square M.

    Power iteration on M^T M (always PSD, so the iteration is stable for
    indefinite or asymmetric M); falls back to the Frobenius norm, which
    dominates the spectral norm, if the Rayleigh quotient has not settled.
    """
    m = np.asarray(m, dtype=np.float64)
    d = m.shape[0]
    if d == 0:
        return 0.0
    gram = m.T @ m
    v = np.full(d, 1.0 / np.sqrt(d))
    v[0] += 1e-3  # break symmetry against unlucky orthogonal starts
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = gram @ v
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        new_lam = float(v @ (gram @ v))
        if abs(new_lam - lam) <= tol * max(1.0, abs(new_lam)):
            # Tiny inflation keeps the estimate on the safe (upper) side.
            return float(np.sqrt(new_lam)) * (1.0 + 1e-10)
        lam = new_lam
    return float(np.linalg.norm(m, "fro"))


def smoothness_bound(spec: GsdSpec, ops: NormalizedOperators | None = None) -> float:
    """A Lipschitz constant bound for gradient_smooth.

    Uses lambda_max(I - A_hat) <= 2, so

        Lambda = 2 alpha ||T_alpha||_2 + 4 beta ||T_beta||_2
                 [+ 2 beta ||I - T_beta||_2 under RidgeComplement],

    which dominates the largest Hessian eigenvalue for every graph.
    """
    bound = 2.0 * spec.alpha * _spectral_norm_ub(spec.t_alpha)
    bound += 4.0 * spec.beta * _spectral_norm_ub(spec.t_beta)
    if isinstance(spec.regularizer, RidgeComplement):
        eye = np.eye(spec.dim)
        bound += 2.0 * spec.beta * _spectral_norm_ub(eye - spec.t_beta)
    return bound
