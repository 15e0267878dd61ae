"""Polynomial frequency filters on the normalized Laplacian.

A filter is sum_k theta_k L_hat^k applied to a signal. Because
L_hat = I - A_hat, any such filter is also a weighted sum of A_hat powers,
which is exactly the hop-sum form of the general unrolled model; the
mapping between the two coordinate systems is binomial and implemented
here with exact integer binomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .graph_core import NormalizedOperators, spmm
from .unrolled_gnn import Appnp, Ugdgnn, _hop_sum, ugdgnn_specialize

__all__ = [
    "FilterCoeffs",
    "as_filter_coeffs",
    "apply_polynomial_filter",
    "theta_to_ugdgnn",
    "sgc_implied_theta",
    "appnp_exact_expansion",
    "GcniiFilterPlan",
    "gcnii_filter_weights",
    "gcnii_linearized_apply",
    "frequency_response",
    "MAX_FILTER_ORDER",
    "DENSE_EIG_NODE_LIMIT",
]

# Exact binomials convert to float64 losslessly well past this order; the
# cap mostly guards against absurd inputs.
MAX_FILTER_ORDER = 60

DENSE_EIG_NODE_LIMIT = 500


@dataclass(frozen=True)
class FilterCoeffs:
    """Coefficients theta_0..theta_K of a polynomial in L_hat."""

    theta: tuple[float, ...]

    def __post_init__(self):
        if len(self.theta) < 1:
            raise ValueError("need at least theta_0")
        vals = tuple(float(t) for t in self.theta)
        if not all(math.isfinite(t) for t in vals):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "theta", vals)

    @property
    def k(self) -> int:
        return len(self.theta) - 1


def as_filter_coeffs(theta: Union[FilterCoeffs, Sequence[float]]) -> FilterCoeffs:
    if isinstance(theta, FilterCoeffs):
        return theta
    return FilterCoeffs(theta=tuple(float(t) for t in np.atleast_1d(theta)))


def apply_polynomial_filter(
    theta: Union[FilterCoeffs, Sequence[float]],
    ops: NormalizedOperators,
    x: np.ndarray,
) -> np.ndarray:
    """Evaluate (sum_k theta_k L_hat^k) x Horner-style, never forming L_hat^k."""
    coeffs = as_filter_coeffs(theta).theta
    x = np.asarray(x, dtype=np.float64)
    out = coeffs[-1] * x
    for t in coeffs[-2::-1]:
        out = ops.laplacian_apply(out) + t * x
    return out


def theta_to_ugdgnn(theta: Union[FilterCoeffs, Sequence[float]]) -> Ugdgnn:
    """Hop-sum model realizing the filter: gamma_i = sum_k theta_k (-1)^i C(k,i).

    The identity behind it is L_hat^k = (I - A_hat)^k expanded binomially,
    with all mixing on the identity branch (zeta = 1, xi = 0). Rejects
    finite coefficients whose gammas overflow.
    """
    coeffs = as_filter_coeffs(theta)
    kk = coeffs.k
    if kk > MAX_FILTER_ORDER:
        raise ValueError(f"filter order {kk} exceeds the supported {MAX_FILTER_ORDER}")
    gammas = []
    for i in range(kk + 1):
        sign = -1.0 if i % 2 else 1.0
        total = 0.0
        for k in range(i, kk + 1):
            total += coeffs.theta[k] * float(math.comb(k, i))
        gammas.append(sign * total)
    if not all(math.isfinite(g) for g in gammas):
        raise ValueError("coefficients overflow: their hop coefficients are not finite")
    return _hop_sum(gammas)


def sgc_implied_theta(k: int) -> FilterCoeffs:
    """The fixed filter a K-hop aggregation acts as: theta_j = (-1)^j C(K,j).

    This is just A_hat^K = (I - L_hat)^K expanded; with an identity weight
    the aggregation has no free parameters left, so the coefficients are
    frozen by K alone.
    """
    if k < 1:
        raise ValueError("K must be at least 1")
    if k > MAX_FILTER_ORDER:
        raise ValueError(f"order {k} exceeds the supported {MAX_FILTER_ORDER}")
    theta = tuple((-1.0) ** j * float(math.comb(k, j)) for j in range(k + 1))
    return FilterCoeffs(theta=theta)


def appnp_exact_expansion(k: int, gamma: float) -> tuple[float, ...]:
    """Coefficients over A_hat powers of the K-step restart iteration.

    c_j = gamma (1-gamma)^j for j < K and c_K = (1-gamma)^K; the geometric
    tail is kept exact rather than dropped, so sum(c) = 1 and the expansion
    matches the iterative forward pass to rounding error.
    """
    return ugdgnn_specialize(Appnp(k=k, gamma=gamma)).gammas


@dataclass(frozen=True)
class GcniiFilterPlan:
    """Per-layer scalars for the linearized initial-residual construction.

    The layer realized by ``weights[m]`` is H <- w_m (A_hat H + X) starting
    from H = 0; equivalently an initial-residual layer with equal mixing of
    aggregate and input and scalar weight 2 w_m, with activations dropped.
    An empty tuple means the identity map (return X unchanged).
    """

    weights: tuple[float, ...]
    note: str


_GCNII_ASSUMPTIONS = (
    "linearized: activations dropped, scalar per-layer weights, "
    "equal mixing of aggregate and input, zero initial iterate"
)


def gcnii_filter_weights(theta: Union[FilterCoeffs, Sequence[float]]) -> GcniiFilterPlan:
    """Per-layer scalars whose stacked linearized layers reproduce the filter.

    Writing the target as sum_j g_j A_hat^j (g is the binomial image of
    theta), K+1 stacked layers H <- w_m (A_hat H + X) from H = 0 produce
    hop coefficients c_j = w_{K+1} w_K ... w_{K+1-j}, so the weights unwind
    as consecutive ratios of the g's. Every g_0..g_{K-1} must be nonzero
    for the ratios to exist.
    """
    coeffs = as_filter_coeffs(theta)
    g = theta_to_ugdgnn(coeffs).gammas
    kk = coeffs.k
    if kk == 0 and g[0] == 1.0:
        return GcniiFilterPlan(
            weights=(),
            note=f"identity filter; no layers needed ({_GCNII_ASSUMPTIONS})",
        )
    for j in range(kk):
        if g[j] == 0.0:
            raise ValueError(
                f"hop coefficient g_{j} = 0: filter not expressible by this "
                "construction (it needs nonzero leading hop coefficients)"
            )
    m = kk + 1
    weights = [0.0] * m  # weights[i] drives layer i+1
    weights[m - 1] = g[0]
    for j in range(1, m):
        weights[m - 1 - j] = g[j] / g[j - 1]
    return GcniiFilterPlan(weights=tuple(weights), note=_GCNII_ASSUMPTIONS)


def gcnii_linearized_apply(
    plan: GcniiFilterPlan, ops: NormalizedOperators, x: np.ndarray
) -> np.ndarray:
    """Run the linearized layer stack of a plan on signal x."""
    x = np.asarray(x, dtype=np.float64)
    if not plan.weights:
        return x.copy()
    h = np.zeros_like(x)
    for w in plan.weights:
        h = w * (spmm(ops, h) + x)
    return h


def _check_eig_size(n: int) -> None:
    if n > DENSE_EIG_NODE_LIMIT:
        raise ValueError(
            f"graph has {n} nodes; dense eigensolve is limited to "
            f"{DENSE_EIG_NODE_LIMIT}"
        )


def frequency_response(
    theta: Union[FilterCoeffs, Sequence[float]],
    ops: NormalizedOperators,
) -> np.ndarray:
    """(eigenvalue, response) rows, sorted by eigenvalue ascending.

    Dense symmetric eigensolve of L_hat, so only for small graphs; the
    responses are the filter polynomial evaluated at each eigenvalue.
    """
    n = ops.num_nodes
    _check_eig_size(n)
    coeffs = as_filter_coeffs(theta)
    lap = np.eye(n) - ops.a_hat.toarray()
    lam = np.linalg.eigvalsh(lap)
    resp = np.polynomial.polynomial.polyval(lam, coeffs.theta)
    return np.column_stack([lam, np.atleast_1d(resp)])
