import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdnn.gsd_problem import (
    DENSE_MAX_NODES,
    GsdSpec,
    INFEASIBLE,
    NonNegIndicator,
    RidgeComplement,
    RowL21,
    closed_form_ppnp,
    gradient_smooth,
    objective,
    smoothness_bound,
    weighted_norm_sq,
)

from conftest import er_ops, random_signal, random_symmetric


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
        assert objective(spec, h, x, ops) is INFEASIBLE
        assert float(INFEASIBLE) == float("inf")
        assert objective(spec, np.abs(h), x, ops) is not INFEASIBLE


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
        via_cg = closed_form_ppnp(ops, x, 0.1)
        dense = np.linalg.solve(np.eye(n) - 0.9 * ops.a_hat.toarray(), 0.1 * x)
        assert np.max(np.abs(dense - via_cg)) < 1e-9

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

    @pytest.mark.parametrize("reg", [None, RidgeComplement()])
    def test_dominates_dense_hessian(self, reg):
        rng = np.random.default_rng(13)
        ops = er_ops(rng, 4)
        spec = GsdSpec(
            alpha=0.8,
            beta=1.1,
            t_alpha=np.diag(rng.uniform(0.1, 2.0, size=2)),
            t_beta=np.diag(rng.uniform(0.1, 2.0, size=2)),
            regularizer=reg,
        )
        lam_max = float(np.linalg.eigvalsh(dense_hessian(spec, ops)).max())
        assert smoothness_bound(spec, ops) >= lam_max - 1e-12


class TestSpecConstruction:
    def test_symmetrization(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        spec = GsdSpec(alpha=1.0, beta=1.0, t_alpha=m, t_beta=np.eye(2))
        np.testing.assert_allclose(spec.t_alpha, [[1.0, 1.0], [1.0, 1.0]])

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            GsdSpec(alpha=-1.0, beta=0.0, t_alpha=np.eye(2), t_beta=np.eye(2))

    def test_json_round_trip(self):
        rng = np.random.default_rng(14)
        spec = GsdSpec(
            alpha=0.25,
            beta=0.75,
            t_alpha=random_symmetric(rng, 3),
            t_beta=random_symmetric(rng, 3),
            regularizer=RowL21(weight=0.4),
        )
        back = GsdSpec.from_json_dict(spec.to_json_dict())
        assert back.alpha == spec.alpha
        np.testing.assert_allclose(back.t_beta, spec.t_beta)
        assert isinstance(back.regularizer, RowL21)
        assert back.regularizer.weight == 0.4

    def test_json_round_trip_indicator(self):
        spec = GsdSpec(
            alpha=1.0, beta=2.0, t_alpha=np.eye(2), t_beta=np.eye(2),
            regularizer=NonNegIndicator(),
        )
        back = GsdSpec.from_json_dict(spec.to_json_dict())
        assert isinstance(back.regularizer, NonNegIndicator)


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
