"""Eight propagation schemes and the unrolled layers that reproduce them.

The generic unrolled gradient layer updates an iterate H as

    H <- H (I - 2 eta alpha T_alpha - 2 eta beta T_beta - 2 eta rho (I - T_beta))
         + 2 eta beta A_hat H T_beta + 2 eta alpha X T_alpha,

followed by an optional proximal map (ReLU, or row shrinkage toward X).
The rho term is the gradient of a ridge penalty rho ||H||^2_{I - T_beta};
it is what lets schemes without a fidelity term (SGC, GCN) and the
initial-residual scheme (the two-mixing-scalar model below) cancel their
identity component exactly, since a plain gradient step always carries an
H(I - ...) passthrough.

A layer is a ``gsd_problem.LayerParams`` and ``run_unrolled`` applies it
with the same private layer step that ``gd_run`` and ``proxgd_run`` repeat:
a solver iteration on a GSD objective and an unrolled layer are one
computation, with one A_hat product each.

Every `to_unroll_plan` builder is checked by `equivalence_check`, which
compares the scheme's literal forward pass against running the plan. For
the two schemes whose native weights are products of per-layer matrices
(the summation scheme with matrix weights, and the one with per-hop
scalars), the builder inverts a triangular product system, so it can fail
loudly on weights outside the representable family; `sample_model` draws
from inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .graph_core import NormalizedOperators, spmm
from .gsd_problem import (
    LayerParams, NonNegIndicator, RowL21, _as_matrix, _laplacian, closed_form_ppnp,
)
from .iter_solvers import _layer_step, prox_nonneg, row_shrink

__all__ = [
    "Sgc",
    "Ppnp",
    "Appnp",
    "JkNet",
    "GprGnn",
    "Gcn",
    "GcnII",
    "AirGnn",
    "Ugdgnn",
    "ModelSpec",
    "LayerParams",
    "UnrollPlan",
    "forward",
    "run_unrolled",
    "to_unroll_plan",
    "equivalence_check",
    "ugdgnn_specialize",
    "sample_model",
    "MODEL_KINDS",
    "PPNP_HORIZON",
]

# Power-iteration horizon used when certifying the closed-form solve
# against its iterative scheme: (1 - gamma)^400 is ~1e-18 at gamma = 0.1.
# forward stops sooner, with the same bits, once the iterate repeats exactly.
PPNP_HORIZON = 400


def _square_stack(weights) -> tuple[np.ndarray, ...]:
    """The weights as float matrices, all d x d with d from the first."""
    ws = tuple(_as_matrix(w, f"weights[{i}]") for i, w in enumerate(weights))
    d = ws[0].shape[0]
    for i, w in enumerate(ws):
        if w.shape != (d, d):
            raise ValueError(f"weights[{i}] must be {d}x{d}, got {w.shape}")
    return ws


@dataclass(frozen=True)
class Sgc:
    """X_bar = A_hat^K X W; W may change width."""

    k: int
    w: np.ndarray

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K must be at least 1")
        object.__setattr__(self, "w", _as_matrix(self.w, "w"))


@dataclass(frozen=True)
class Ppnp:
    """X_bar = gamma (I - (1-gamma) A_hat)^{-1} X."""

    gamma: float

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")


@dataclass(frozen=True)
class Appnp:
    """H^(k) = (1-gamma) A_hat H^(k-1) + gamma X, K steps from X."""

    k: int
    gamma: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K must be at least 1")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class JkNet:
    """X_bar = sum_k A_hat^k X W^(k), k = 0..K (summation combination)."""

    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) < 2:
            raise ValueError("need weights for hops 0..K with K >= 1")
        object.__setattr__(self, "weights", _square_stack(self.weights))

    @property
    def k(self) -> int:
        return len(self.weights) - 1


@dataclass(frozen=True)
class GprGnn:
    """X_bar = sum_k gamma^(k) A_hat^k X, k = 0..K."""

    gammas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) < 2:
            raise ValueError("need coefficients for hops 0..K with K >= 1")
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))

    @property
    def k(self) -> int:
        return len(self.gammas) - 1


@dataclass(frozen=True)
class Gcn:
    """H^(k) = ReLU(A_hat H^(k-1) W^(k)), K steps from X."""

    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) < 1:
            raise ValueError("need at least one layer weight")
        object.__setattr__(self, "weights", _square_stack(self.weights))

    @property
    def k(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class GcnII:
    """H^(k) = ReLU((zeta A_hat H^(k-1) + (1-zeta) X)(xi W^(k) + (1-xi) I))."""

    zeta: float
    xi: float
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not (0.0 <= self.zeta <= 1.0 and 0.0 <= self.xi <= 1.0):
            raise ValueError("zeta and xi must lie in [0, 1]")
        if len(self.weights) < 1:
            raise ValueError("need at least one layer weight")
        object.__setattr__(self, "weights", _square_stack(self.weights))

    @property
    def k(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class AirGnn:
    """Row-adaptive residual propagation.

    h_i^(k) = ReLU(1 - (1-gamma) / (2 gamma ||v_i - x_i||)) (v_i - x_i) + x_i
    with V = A_hat H^(k-1).
    """

    k: int
    gamma: float

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("K must be at least 1")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("gamma must lie strictly in (0, 1)")


@dataclass(frozen=True)
class Ugdgnn:
    """X_bar = sum_k gamma^(k) A_hat^k X (zeta^(k) I + xi^(k) W^(k)).

    ``weights[k]`` may be None whenever xi^(k) = 0. With ``tie_xi`` the
    xi values are ignored and taken as 1 - zeta^(k).
    """

    gammas: tuple[float, ...]
    zetas: tuple[float, ...]
    xis: tuple[float, ...]
    weights: tuple[np.ndarray | None, ...]
    tie_xi: bool = False

    def __post_init__(self):
        kp1 = len(self.gammas)
        if kp1 < 1:
            raise ValueError("need at least the hop-0 term")
        if not (len(self.zetas) == len(self.xis) == len(self.weights) == kp1):
            raise ValueError("gammas, zetas, xis, weights must have equal length")
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "zetas", tuple(float(z) for z in self.zetas))
        object.__setattr__(self, "xis", tuple(float(v) for v in self.xis))
        ws = tuple(
            None if w is None else _as_matrix(w, f"weights[{i}]")
            for i, w in enumerate(self.weights)
        )
        object.__setattr__(self, "weights", ws)

    @property
    def k(self) -> int:
        return len(self.gammas) - 1

    def effective_xi(self, k: int) -> float:
        return 1.0 - self.zetas[k] if self.tie_xi else self.xis[k]


ModelSpec = Union[Sgc, Ppnp, Appnp, JkNet, GprGnn, Gcn, GcnII, AirGnn, Ugdgnn]

MODEL_KINDS = ("sgc", "appnp", "jknet", "gprgnn", "gcn", "gcnii", "airgnn")


@dataclass(frozen=True)
class UnrollPlan:
    layers: tuple[LayerParams, ...]
    post_transform: np.ndarray | None = field(default=None)

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ValueError("a plan needs at least one layer")
        if self.post_transform is not None:
            object.__setattr__(
                self, "post_transform", _as_matrix(self.post_transform, "post_transform")
            )


def run_unrolled(plan: UnrollPlan, ops: NormalizedOperators, x: np.ndarray) -> np.ndarray:
    """Run the unrolled GD/ProxGD layers of a plan on signal x."""
    x = np.asarray(x, dtype=np.float64)
    h = x.copy()
    for layer in plan.layers:
        h = _layer_step(layer, h, x, _laplacian(h, ops, layer.beta))
    if plan.post_transform is not None:
        h = h @ plan.post_transform
    return h


def forward(model: ModelSpec, ops: NormalizedOperators, x: np.ndarray) -> np.ndarray:
    """Literal left-to-right evaluation of a scheme's displayed formula.

    The APPNP iterate stops at its first exact repeat: its step is a fixed
    function of H's bits (``spmm`` is a serial CSR loop, the rest is
    elementwise), so once H^(j) has the bits of H^(j-2) the sequence has
    period 1 or 2 for good, and H^(K) is whichever of the last two iterates
    has K's parity. The output is bit-identical to running all K steps.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(model, Sgc):
        h = x
        for _ in range(model.k):
            h = spmm(ops, h)
        return h @ model.w
    if isinstance(model, Ppnp):
        return closed_form_ppnp(ops, x, model.gamma)
    if isinstance(model, Appnp):
        old = h = x.copy()
        for j in range(1, model.k + 1):
            older, old = old, h
            h = (1.0 - model.gamma) * spmm(ops, h) + model.gamma * x
            if h.tobytes() == older.tobytes():
                return h if (model.k - j) % 2 == 0 else old
        return h
    if isinstance(model, JkNet):
        _check_width(x, model.weights[0], "weights[0]")
        acc = x @ model.weights[0]
        p = x
        for k in range(1, model.k + 1):
            p = spmm(ops, p)
            acc += p @ model.weights[k]
        return acc
    if isinstance(model, GprGnn):
        acc = model.gammas[0] * x
        p = x
        for k in range(1, model.k + 1):
            p = spmm(ops, p)
            acc = acc + model.gammas[k] * p
        return acc
    if isinstance(model, Gcn):
        h = x
        for i, w in enumerate(model.weights):
            _check_width(h, w, f"weights[{i}]")
            h = prox_nonneg(spmm(ops, h) @ w)
        return h
    if isinstance(model, GcnII):
        h = x.copy()
        d = x.shape[1]
        for i, w in enumerate(model.weights):
            _check_width(x, w, f"weights[{i}]")
            mix = model.zeta * spmm(ops, h) + (1.0 - model.zeta) * x
            h = prox_nonneg(mix @ (model.xi * w + (1.0 - model.xi) * np.eye(d)))
        return h
    if isinstance(model, AirGnn):
        threshold = (1.0 - model.gamma) / (2.0 * model.gamma)
        h = x.copy()
        for _ in range(model.k):
            h = row_shrink(spmm(ops, h), x, threshold)
        return h
    if isinstance(model, Ugdgnn):
        return _ugdgnn_forward(model, ops, x)
    raise TypeError(f"unknown model {type(model).__name__}")


def _check_width(h: np.ndarray, w: np.ndarray, name: str) -> None:
    if h.shape[1] != w.shape[0]:
        raise ValueError(
            f"{name} has {w.shape[0]} rows but the signal is {h.shape[1]} wide"
        )


def _ugdgnn_forward(model: Ugdgnn, ops: NormalizedOperators, x: np.ndarray) -> np.ndarray:
    acc: np.ndarray | None = None
    p = x
    for k in range(model.k + 1):
        if k > 0:
            p = spmm(ops, p)
        gam = model.gammas[k]
        if gam == 0.0:
            continue
        zeta, xi = model.zetas[k], model.effective_xi(k)
        term = None
        if zeta != 0.0:
            term = zeta * p
        if xi != 0.0:
            w = model.weights[k]
            if w is None:
                raise ValueError(f"hop {k} has xi != 0 but no weight matrix")
            _check_width(p, w, f"weights[{k}]")
            contrib = xi * (p @ w)
            term = contrib if term is None else term + contrib
        if term is None:
            continue
        scaled = gam * term
        if acc is None:
            acc = scaled
        elif acc.shape != scaled.shape:
            raise ValueError(f"hop {k} produces width {scaled.shape[1]}, expected {acc.shape[1]}")
        else:
            acc = acc + scaled
    if acc is None:
        acc = np.zeros_like(x)
    return acc


# ---------------------------------------------------------------------------
# plan builders


def _suffix_inverse_chain(weights: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Recover per-layer T matrices from hop weights of the summation scheme.

    The forward reparameterization is

        W^(0) = T^(K),
        W^(q) = T^(K-q) M_{K-q+1} ... M_K  with  M_j = I - T^(j),  q < K,
        W^(K) = M_1 ... M_K,

    so T's unwind hop by hop through suffix products. Requires every
    reconstructed M_j to be invertible and the hop weights to sum to the
    identity (which any output of the forward direction does).
    """
    kk = len(weights) - 1
    d = weights[0].shape[0]
    eye = np.eye(d)
    t_by_layer: dict[int, np.ndarray] = {}
    suffix = eye  # M_{K-q+1} ... M_K, starts empty
    for q in range(kk):
        try:
            t = np.linalg.solve(suffix.T, weights[q].T).T  # W^(q) suffix^{-1}
        except np.linalg.LinAlgError as exc:
            raise ValueError(
                f"hop {q}: accumulated (I - T) product is singular; "
                "weights are not in the representable family"
            ) from exc
        t_by_layer[kk - q] = t
        suffix = (eye - t) @ suffix
    resid = float(np.max(np.abs(weights[kk] - suffix)))
    scale = max(1.0, float(np.max(np.abs(weights[kk]))))
    if resid > 1e-8 * scale:
        raise ValueError(
            "hop weights do not sum to the identity "
            f"(top-hop mismatch {resid:.3e}); not representable by unrolled layers"
        )
    return [t_by_layer[j] for j in range(1, kk + 1)]


def _gprgnn_alphas(gammas: tuple[float, ...]) -> list[float]:
    """Solve the scalar triangular system for per-layer mixing weights.

    gamma^(q) = a_{K-q} prod_{j>K-q} (1 - a_j) for q < K and
    gamma^(K) = prod_j (1 - a_j); valid inputs must have nonzero partial
    products and coefficients summing to one.
    """
    kk = len(gammas) - 1
    alphas = [0.0] * (kk + 1)  # 1-indexed
    partial = 1.0
    for q in range(kk):
        if partial == 0.0:
            raise ValueError(
                f"hop {q}: partial product vanished; coefficients not representable"
            )
        a = gammas[q] / partial
        alphas[kk - q] = a
        partial *= 1.0 - a
    if abs(gammas[kk] - partial) > 1e-10 * max(1.0, abs(gammas[kk])):
        raise ValueError(
            "coefficients do not telescope to their top entry "
            f"(expected {partial:.6e}, got {gammas[kk]:.6e}); they must sum to 1"
        )
    return alphas


def to_unroll_plan(model: ModelSpec) -> UnrollPlan:
    """Build the unrolled plan that reproduces a scheme's forward pass."""
    if isinstance(model, Sgc):
        d = model.w.shape[0]
        square = model.w.shape[1] == d
        layers = []
        for k in range(1, model.k + 1):
            t_beta = model.w if (square and k == model.k) else None
            layers.append(
                LayerParams(eta=0.5, alpha=0.0, beta=1.0, t_beta=t_beta, ridge=1.0)
            )
        post = None if square else model.w
        return UnrollPlan(layers=tuple(layers), post_transform=post)

    if isinstance(model, Appnp):
        layer = LayerParams(eta=0.5, alpha=model.gamma, beta=1.0 - model.gamma)
        return UnrollPlan(layers=(layer,) * model.k)

    if isinstance(model, JkNet):
        ts = _suffix_inverse_chain(model.weights)
        d = model.weights[0].shape[0]
        eye = np.eye(d)
        layers = tuple(
            LayerParams(eta=0.5, alpha=1.0, beta=1.0, t_alpha=t, t_beta=eye - t)
            for t in ts
        )
        return UnrollPlan(layers=layers)

    if isinstance(model, GprGnn):
        alphas = _gprgnn_alphas(model.gammas)
        layers = tuple(
            LayerParams(eta=0.5, alpha=alphas[k], beta=1.0 - alphas[k])
            for k in range(1, model.k + 1)
        )
        return UnrollPlan(layers=layers)

    if isinstance(model, Gcn):
        layers = tuple(
            LayerParams(eta=0.5, alpha=0.0, beta=1.0, t_beta=w, ridge=1.0, prox=NonNegIndicator())
            for w in model.weights
        )
        return UnrollPlan(layers=layers)

    if isinstance(model, GcnII):
        d = model.weights[0].shape[0]
        eye = np.eye(d)
        layers = []
        for w in model.weights:
            t = model.xi * w + (1.0 - model.xi) * eye
            layers.append(
                LayerParams(
                    eta=0.5,
                    alpha=1.0 - model.zeta,
                    beta=model.zeta,
                    t_alpha=t,
                    t_beta=t,
                    ridge=1.0,
                    prox=NonNegIndicator(),
                )
            )
        return UnrollPlan(layers=tuple(layers))

    if isinstance(model, AirGnn):
        layer = LayerParams(
            eta=1.0 / (2.0 * model.gamma),
            alpha=0.0,
            beta=model.gamma,
            prox=RowL21(weight=1.0 - model.gamma),
        )
        return UnrollPlan(layers=(layer,) * model.k)

    if isinstance(model, Ppnp):
        raise ValueError("the closed-form scheme has no finite unrolled plan; "
                         "compare against its iterative variant instead")
    if isinstance(model, Ugdgnn):
        raise ValueError("this model is the general unrolled form itself")
    raise TypeError(f"unknown model {type(model).__name__}")


def equivalence_check(
    model: ModelSpec,
    ops: NormalizedOperators,
    x: np.ndarray,
    tol: float,
) -> dict:
    """Max-abs gap between a scheme's forward pass and its unrolled plan.

    The closed-form propagation is certified against its iterative variant
    run for PPNP_HORIZON steps; everything else goes through
    to_unroll_plan + run_unrolled. The horizon run stops at its first exact
    repeat, with the bits of all PPNP_HORIZON steps (see forward).
    """
    if isinstance(model, Ugdgnn):
        raise ValueError("the general form has nothing to be checked against")
    ref = forward(model, ops, x)
    if isinstance(model, Ppnp):
        other = forward(Appnp(k=PPNP_HORIZON, gamma=model.gamma), ops, x)
    else:
        other = run_unrolled(to_unroll_plan(model), ops, x)
    diff = float(np.max(np.abs(ref - other))) if ref.size else 0.0
    return {
        "model": type(model).__name__.lower(),
        "max_abs_diff": diff,
        "tol": tol,
        "pass": bool(diff < tol),
    }


def _hop_sum(gammas: Sequence[float]) -> Ugdgnn:
    """The weightless model sum_k gamma_k A_hat^k X: all mixing on the
    identity branch (zeta = 1, xi = 0)."""
    kp1 = len(gammas)
    return Ugdgnn(tuple(gammas), (1.0,) * kp1, (0.0,) * kp1, (None,) * kp1)


def ugdgnn_specialize(model: ModelSpec) -> Ugdgnn:
    """Express one of the linear schemes as the general hop-sum model."""
    if isinstance(model, Sgc):
        kk = model.k
        gammas = [0.0] * kk + [1.0]
        zetas = [1.0] * kk + [0.0]
        xis = [0.0] * kk + [1.0]
        weights: list[np.ndarray | None] = [None] * kk + [model.w]
        return Ugdgnn(tuple(gammas), tuple(zetas), tuple(xis), tuple(weights))
    if isinstance(model, Appnp):
        kk, gam = model.k, model.gamma
        return _hop_sum([gam * (1.0 - gam) ** k for k in range(kk)] + [(1.0 - gam) ** kk])
    if isinstance(model, JkNet):
        kp1 = model.k + 1
        return Ugdgnn(
            tuple([1.0] * kp1),
            tuple([0.0] * kp1),
            tuple([1.0] * kp1),
            tuple(model.weights),
        )
    if isinstance(model, GprGnn):
        return _hop_sum(model.gammas)
    raise TypeError(f"no hop-sum specialization for {type(model).__name__}")


# ---------------------------------------------------------------------------
# random model sampling (shared by the CLI harness and the test suite)


def sample_model(kind: str, rng: np.random.Generator, d: int) -> ModelSpec:
    """Draw a random instance of a scheme with parameters in valid ranges.

    For the two product-reparameterized schemes the per-layer matrices or
    mixing scalars are drawn first and the native weights derived from
    them, so the sampled weights always lie in the representable family
    (their hop weights sum to the identity / their coefficients to one).
    """
    kind = kind.lower()
    if kind == "sgc":
        kk = int(rng.integers(1, 5))
        d_out = d + 1 if rng.random() < 0.25 else d
        w = rng.standard_normal((d, d_out)) / np.sqrt(d)
        return Sgc(k=kk, w=w)
    if kind == "appnp":
        return Appnp(k=int(rng.integers(1, 9)), gamma=float(rng.uniform(0.05, 0.95)))
    if kind == "jknet":
        kk = int(rng.integers(1, 5))
        ts = [rng.uniform(-0.35, 0.35, size=(d, d)) / np.sqrt(d) for _ in range(kk)]
        eye = np.eye(d)
        weights = []
        suffix = eye
        for q in range(kk):  # W^(q) = T^(K-q) * suffix, then grow the suffix
            t = ts[kk - 1 - q]
            weights.append(t @ suffix)
            suffix = (eye - t) @ suffix
        weights.append(suffix)
        return JkNet(weights=tuple(weights))
    if kind == "gprgnn":
        kk = int(rng.integers(1, 7))
        alphas = rng.uniform(0.05, 0.95, size=kk)
        gammas = []
        partial = 1.0
        for q in range(kk):
            a = float(alphas[kk - 1 - q])
            gammas.append(a * partial)
            partial *= 1.0 - a
        gammas.append(partial)
        return GprGnn(gammas=tuple(gammas))
    if kind == "gcn":
        kk = int(rng.integers(1, 4))
        weights = tuple(0.6 * rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(kk))
        return Gcn(weights=weights)
    if kind == "gcnii":
        kk = int(rng.integers(1, 5))
        weights = tuple(rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(kk))
        return GcnII(
            zeta=float(rng.uniform(0.1, 0.9)),
            xi=float(rng.uniform(0.1, 0.9)),
            weights=weights,
        )
    if kind == "airgnn":
        return AirGnn(k=int(rng.integers(1, 7)), gamma=float(rng.uniform(0.1, 0.9)))
    raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
