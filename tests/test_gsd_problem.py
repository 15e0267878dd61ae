import json
import math

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdnn import gsd_problem
from gsdnn.gsd_problem import (
    DENSE_MAX_NODES,
    GsdSpec,
    NonNegIndicator,
    RidgeComplement,
    RowL21,
    _layer_of,
    closed_form_ppnp,
    gradient_smooth,
    objective,
    smoothness_bound,
    weighted_norm_sq,
)

from conftest import er_ops, random_signal, random_symmetric


def _staggered(x):
    """Columns x_0, 0 and 1e6 x_1."""
    return np.column_stack([x[:, 0], np.zeros(len(x)), 1e6 * x[:, 1]])


def dense_objective(spec, h, x, ops):
    """Independent dense-trace evaluation of the smooth objective."""
    lap = np.eye(ops.num_nodes) - ops.a_hat.toarray()
    val = spec.alpha * np.trace((h - x) @ spec.t_alpha @ (h - x).T)
    val += spec.beta * np.trace(h.T @ lap @ h @ spec.t_beta)
    if isinstance(spec.regularizer, RidgeComplement):
        comp = np.eye(spec.dim) - spec.t_beta
        val += spec.beta * np.trace(h @ comp @ h.T)
    elif isinstance(spec.regularizer, RowL21):
        val += spec.regularizer.weight * np.sum(np.linalg.norm(h - x, axis=1))
    return float(val)


def dense_hessian(spec, ops):
    """Hessian of the smooth objective acting on row-major vec(H)."""
    n, d = ops.num_nodes, spec.dim
    lap = np.eye(n) - ops.a_hat.toarray()
    hess = 2.0 * spec.alpha * np.kron(np.eye(n), spec.t_alpha.T)
    hess += 2.0 * spec.beta * np.kron(lap, spec.t_beta.T)
    if isinstance(spec.regularizer, RidgeComplement):
        hess += 2.0 * spec.beta * np.kron(np.eye(n), (np.eye(d) - spec.t_beta).T)
    return hess


class TestWeightedNorm:
    def test_identity_weight_is_frobenius(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 3))
        assert weighted_norm_sq(m, np.eye(3)) == pytest.approx(np.sum(m**2))

    def test_zero_matrix(self):
        assert weighted_norm_sq(np.zeros((2, 2)), np.eye(2)) == 0.0

    def test_matches_trace_oracle(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((3, 2))
        t = random_symmetric(rng, 2)
        oracle = float(np.trace(m @ t @ m.T))
        assert abs(weighted_norm_sq(m, t) - oracle) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="columns"):
            weighted_norm_sq(np.zeros((2, 3)), np.eye(2))


class TestObjective:
    def test_fidelity_vanishes_at_x(self):
        rng = np.random.default_rng(1)
        ops = er_ops(rng, 6)
        x = random_signal(rng, 6, 3)
        spec = GsdSpec(alpha=1.3, beta=0.0, t_alpha=np.eye(3), t_beta=np.eye(3))
        assert objective(spec, x, x, ops) == pytest.approx(0.0)

    def test_smoothest_signal_has_zero_penalty(self):
        # Columns proportional to D^{1/2} 1 span the null space of L_hat.
        rng = np.random.default_rng(2)
        ops = er_ops(rng, 8)
        h = np.sqrt(ops.degrees)[:, None] * np.array([[2.0, -1.0]])
        x = random_signal(rng, 8, 2)
        spec = GsdSpec(alpha=0.0, beta=1.0, t_alpha=np.eye(2), t_beta=np.eye(2))
        assert abs(objective(spec, h, x, ops)) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        ops = er_ops(rng, 5)
        h, x = random_signal(rng, 5, 3), random_signal(rng, 5, 3)
        spec = GsdSpec(
            alpha=0.7,
            beta=1.4,
            t_alpha=random_symmetric(rng, 3),
            t_beta=random_symmetric(rng, 3),
        )
        got = objective(spec, h, x, ops)
        want = dense_objective(spec, h, x, ops)
        assert abs(got - want) < 1e-10 * max(1.0, abs(want))

    def test_indicator_infeasible(self):
        rng = np.random.default_rng(4)
        ops = er_ops(rng, 4)
        x = np.abs(random_signal(rng, 4, 2))
        h = x.copy()
        h[0, 0] = -0.5
        spec = GsdSpec(
            alpha=1.0, beta=1.0, t_alpha=np.eye(2), t_beta=np.eye(2),
            regularizer=NonNegIndicator(),
        )
        assert objective(spec, h, x, ops) == math.inf
        assert math.isfinite(objective(spec, np.abs(h), x, ops))


class TestGradient:
    def test_zero_when_alpha_beta_zero(self):
        rng = np.random.default_rng(6)
        ops = er_ops(rng, 5)
        h, x = random_signal(rng, 5, 2), random_signal(rng, 5, 2)
        spec = GsdSpec(alpha=0.0, beta=0.0, t_alpha=np.eye(2), t_beta=np.eye(2))
        assert np.all(gradient_smooth(spec, h, x, ops) == 0.0)

    def test_stationary_at_ppnp_solution(self):
        rng = np.random.default_rng(7)
        ops = er_ops(rng, 12)
        x = random_signal(rng, 12, 3)
        gamma = 0.2
        h_star = closed_form_ppnp(ops, x, gamma)
        spec = GsdSpec(
            alpha=gamma, beta=1.0 - gamma, t_alpha=np.eye(3), t_beta=np.eye(3)
        )
        assert np.max(np.abs(gradient_smooth(spec, h_star, x, ops))) < 1e-8

    @pytest.mark.parametrize("reg", [None, RidgeComplement()])
    def test_matches_central_finite_differences(self, reg):
        rng = np.random.default_rng(8)
        ops = er_ops(rng, 6)
        h, x = random_signal(rng, 6, 3), random_signal(rng, 6, 3)
        spec = GsdSpec(
            alpha=0.9,
            beta=0.6,
            t_alpha=random_symmetric(rng, 3),
            t_beta=random_symmetric(rng, 3),
            regularizer=reg,
        )
        grad = gradient_smooth(spec, h, x, ops)
        step = 1e-6
        fd = np.zeros_like(h)
        for i in range(h.shape[0]):
            for j in range(h.shape[1]):
                hp, hm = h.copy(), h.copy()
                hp[i, j] += step
                hm[i, j] -= step
                fd[i, j] = (
                    objective(spec, hp, x, ops) - objective(spec, hm, x, ops)
                ) / (2 * step)
        scale = max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(grad - fd)) / scale < 1e-5


class TestClosedFormPpnp:
    def test_gamma_one_is_identity(self):
        rng = np.random.default_rng(9)
        ops = er_ops(rng, 7)
        x = random_signal(rng, 7, 2)
        np.testing.assert_array_equal(closed_form_ppnp(ops, x, 1.0), x)

    def test_single_node(self):
        from gsdnn.graph_core import Graph, add_self_loops, normalize

        ops = normalize(add_self_loops(Graph(num_nodes=1, edges=())))
        x = np.array([[4.2]])
        np.testing.assert_allclose(closed_form_ppnp(ops, x, 0.3), x)

    def test_residual_small(self):
        rng = np.random.default_rng(10)
        ops = er_ops(rng, 10)
        x = random_signal(rng, 10, 3)
        gamma = 0.15
        out = closed_form_ppnp(ops, x, gamma)
        resid = out - (1 - gamma) * (ops.a_hat @ out) - gamma * x
        assert np.linalg.norm(resid) < 1e-10

    def test_cg_path_matches_dense(self):
        rng = np.random.default_rng(11)
        n = DENSE_MAX_NODES + 44  # above the constant: the CG path
        ops = er_ops(rng, n, p=0.03)
        x = random_signal(rng, n, 2)
        system = np.eye(n) - 0.9 * ops.a_hat.toarray()
        via_cg = closed_form_ppnp(ops, x, 0.1)
        dense = np.linalg.solve(system, 0.1 * x)
        assert np.max(np.abs(dense - via_cg)) < 1e-9

        # columns that finish at different iterations: a zero column at
        # once, and a 1e6-scaled one, whose relative tolerance is tighter
        # than the absolute floor the unscaled column stops at
        staggered = _staggered(x)
        via_cg = closed_form_ppnp(ops, staggered, 0.1)
        dense = np.linalg.solve(system, 0.1 * staggered)
        scale = np.maximum(1.0, np.max(np.abs(staggered), axis=0))
        assert np.all(np.max(np.abs(dense - via_cg), axis=0) < 1e-9 * scale)
        assert np.all(via_cg[:, 1] == 0.0)

    def test_cg_makes_one_product_of_all_columns_per_iteration(self, spmm_calls):
        rng = np.random.default_rng(13)
        n = DENSE_MAX_NODES + 44
        ops = er_ops(rng, n, p=0.03)
        x = _staggered(random_signal(rng, n, 2))
        stats = {}
        closed_form_ppnp(ops, x, 0.1, stats)
        # per-column reference: scipy's CG under the same stopping rule,
        # one callback per iteration
        system = spla.aslinearoperator(sparse.identity(n) - 0.9 * ops.a_hat)
        iterations = []
        for col in x.T:
            steps = []
            spla.cg(system, 0.1 * col, rtol=1e-14, atol=1e-13, callback=steps.append)
            iterations.append(len(steps))
        assert iterations[1] == 0 and iterations[0] != iterations[2]
        assert spmm_calls == [(n, 3)] * max(iterations)
        assert stats["cg_iterations"] == max(iterations)
        rel = stats["relative_residuals"]
        assert rel[1] == 0.0 and 0.0 < rel[0] < 1e-12 and 0.0 < rel[2] < 1e-13

    def test_cg_that_does_not_converge_raises_floating_point_error(self, monkeypatch):
        # a random rotation in place of A_hat makes the system nonsymmetric:
        # the residuals stay finite but CG never meets its tolerance
        rng = np.random.default_rng(14)
        n = DENSE_MAX_NODES + 4
        ops = er_ops(rng, n, p=0.03)
        x = random_signal(rng, n, 2)
        rotation = np.linalg.qr(rng.standard_normal((n, n)))[0]
        monkeypatch.setattr(gsd_problem, "spmm", lambda ops, p: rotation @ p)
        with pytest.raises(FloatingPointError, match=f"column \\d; .* after {20 * n} iterations"):
            closed_form_ppnp(ops, x, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_cg_raises_at_once_on_a_non_finite_residual(self, spmm_calls, bad):
        rng = np.random.default_rng(14)
        n = DENSE_MAX_NODES + 4
        ops = er_ops(rng, n, p=0.03)
        x = random_signal(rng, n, 2)
        x[3, 1] = bad
        with pytest.raises(FloatingPointError, match="non-finite residual on column 1"):
            closed_form_ppnp(ops, x, 0.5)
        assert len(spmm_calls) <= 2

    def test_gamma_out_of_range(self):
        rng = np.random.default_rng(12)
        ops = er_ops(rng, 4)
        x = random_signal(rng, 4, 1)
        with pytest.raises(ValueError):
            closed_form_ppnp(ops, x, 0.0)
        with pytest.raises(ValueError):
            closed_form_ppnp(ops, x, 1.5)


class TestSmoothnessBound:
    def test_pure_fidelity(self):
        spec = GsdSpec(alpha=1.0, beta=0.0, t_alpha=np.eye(2), t_beta=np.eye(2))
        assert smoothness_bound(spec) == pytest.approx(2.0, rel=1e-9)

    def test_pure_smoothing(self):
        spec = GsdSpec(alpha=0.0, beta=1.0, t_alpha=np.eye(2), t_beta=np.eye(2))
        assert smoothness_bound(spec) == pytest.approx(4.0, rel=1e-9)

    def test_ridge_complement_adds_its_norm(self):
        # ||I - T_beta|| = 0.5 adds 2 beta * 0.5; with T_beta = I it adds nothing
        for t_beta, want in ((0.5 * np.eye(3), 3.0), (np.eye(3), 4.0)):
            spec = GsdSpec(alpha=0.0, beta=1.0, t_alpha=np.eye(3), t_beta=t_beta,
                           regularizer=RidgeComplement())
            assert smoothness_bound(spec) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("reg", [None, RidgeComplement()])
    def test_dominates_dense_hessian(self, reg):
        rng = np.random.default_rng(13)
        ops = er_ops(rng, 4)
        diagonal = [np.diag(rng.uniform(0.1, 2.0, size=2)) for _ in range(2)]
        # non-diagonal and indefinite: the norm is the largest |eigenvalue|
        indefinite = [
            np.array([[0.5, 1.5, 0.0], [1.5, -0.5, 0.25], [0.0, 0.25, 1.0]]),
            np.array([[-1.0, 0.75, 0.5], [0.75, 0.25, -1.0], [0.5, -1.0, 1.5]]),
        ]
        for t in indefinite:
            eig = np.linalg.eigvalsh(t)
            assert eig.min() < 0.0 < eig.max() and np.count_nonzero(t - np.diag(np.diag(t)))
        for t_alpha, t_beta in (diagonal, indefinite):
            spec = GsdSpec(alpha=0.8, beta=1.1, t_alpha=t_alpha, t_beta=t_beta, regularizer=reg)
            lam_max = float(np.linalg.eigvalsh(dense_hessian(spec, ops)).max())
            assert smoothness_bound(spec) >= lam_max - 1e-12


class TestSpecConstruction:
    def test_symmetrization(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        spec = GsdSpec(alpha=1.0, beta=1.0, t_alpha=m, t_beta=np.eye(2))
        np.testing.assert_allclose(spec.t_alpha, [[1.0, 1.0], [1.0, 1.0]])

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            GsdSpec(alpha=-1.0, beta=0.0, t_alpha=np.eye(2), t_beta=np.eye(2))

    def test_json_round_trip(self):
        # a literal spec document parses to the spec it spells out
        t_beta = [[0.5, -1.25, 0.0], [-1.25, 2.0, 0.75], [0.0, 0.75, -0.5]]
        back = GsdSpec.from_json(json.dumps({
            "alpha": 0.25,
            "beta": 0.75,
            "t_alpha": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]],
            "t_beta": t_beta,
            "regularizer": {"kind": "row_l21", "weight": 0.4},
        }))
        assert back.alpha == 0.25
        np.testing.assert_allclose(back.t_beta, t_beta)
        assert isinstance(back.regularizer, RowL21)
        assert back.regularizer.weight == 0.4

    def test_json_round_trip_indicator(self):
        back = GsdSpec.from_json(json.dumps({
            "alpha": 1.0, "beta": 2.0, "t_alpha": [[1.0, 0.0], [0.0, 1.0]],
            "t_beta": [[1.0, 0.0], [0.0, 1.0]], "regularizer": {"kind": "nonneg"},
        }))
        assert isinstance(back.regularizer, NonNegIndicator)


class TestLayerDecoding:
    def test_identity_becomes_none_and_any_other_t_is_kept(self):
        t = np.array([[2.0, 0.5], [0.5, 1.0]])
        near_eye = np.eye(2) * (1.0 + 2.0**-52)
        for t_alpha, t_beta in ((np.eye(2), t), (t, np.eye(2)), (near_eye, np.zeros((2, 2)))):
            spec = GsdSpec(alpha=0.3, beta=0.7, t_alpha=t_alpha, t_beta=t_beta)
            layer = _layer_of(spec, 0.25)
            assert (layer.eta, layer.alpha, layer.beta) == (0.25, 0.3, 0.7)
            for name in ("t_alpha", "t_beta"):
                if np.array_equal(getattr(spec, name), np.eye(2)):
                    assert getattr(layer, name) is None
                else:
                    assert getattr(layer, name) is getattr(spec, name)

    @pytest.mark.parametrize(
        "reg", [None, RidgeComplement(), NonNegIndicator(), RowL21(weight=0.4)]
    )
    def test_ridge_is_beta_only_under_ridge_complement(self, reg):
        t = np.array([[2.0, 0.5], [0.5, 1.0]])
        layer = _layer_of(GsdSpec(alpha=0.3, beta=0.7, t_alpha=t, t_beta=t, regularizer=reg))
        assert layer.ridge == (0.7 if isinstance(reg, RidgeComplement) else 0.0)
        smooth = reg is None or isinstance(reg, RidgeComplement)
        assert layer.prox is (None if smooth else reg)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 20), d=st.integers(1, 4))
def test_directional_derivative_matches_gradient(seed, n, d):
    rng = np.random.default_rng(seed)
    ops = er_ops(rng, n)
    h, x = random_signal(rng, n, d), random_signal(rng, n, d)
    g = random_signal(rng, n, d)
    spec = GsdSpec(
        alpha=float(rng.uniform(0.1, 2.0)),
        beta=float(rng.uniform(0.1, 2.0)),
        t_alpha=random_symmetric(rng, d),
        t_beta=random_symmetric(rng, d),
    )
    inner = float(np.sum(gradient_smooth(spec, h, x, ops) * g))
    # The objective is a quadratic along h + t*g, so a central difference
    # recovers the slope at t = 0 up to rounding.
    eps = 1e-4
    slope = (
        objective(spec, h + eps * g, x, ops) - objective(spec, h - eps * g, x, ops)
    ) / (2 * eps)
    assert abs(inner - slope) <= 1e-8 * max(1.0, abs(inner), abs(slope))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 25))
def test_ppnp_residual_property(seed, n):
    rng = np.random.default_rng(seed)
    ops = er_ops(rng, n)
    x = random_signal(rng, n, 2)
    gamma = float(rng.uniform(0.05, 1.0))
    out = closed_form_ppnp(ops, x, gamma)
    resid = out - (1 - gamma) * (ops.a_hat @ out) - gamma * x
    assert np.linalg.norm(resid) < 1e-10 * max(1.0, np.linalg.norm(x))
