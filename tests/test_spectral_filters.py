"""Filter evaluation, the hop-sum coefficient mapping, fixed-coefficient cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import er_ops, random_signal
from gsdnn.graph_core import Graph, add_self_loops, normalize, spmm
from gsdnn.spectral_filters import (
    DENSE_EIG_NODE_LIMIT,
    FilterCoeffs,
    appnp_exact_expansion,
    apply_polynomial_filter,
    frequency_response,
    gcnii_filter_weights,
    gcnii_linearized_apply,
    sgc_implied_theta,
    theta_to_ugdgnn,
)
from gsdnn.unrolled_gnn import Appnp, forward


def dense_filter_oracle(theta, ops, x):
    """U diag(sum theta lambda^k) U^T x via a dense eigendecomposition."""
    n = ops.num_nodes
    lap = np.eye(n) - ops.a_hat.toarray()
    lam, u = np.linalg.eigh(lap)
    resp = np.polynomial.polynomial.polyval(lam, np.asarray(theta, dtype=float))
    return u @ (resp[:, None] * (u.T @ x))


# ---------------------------------------------------------------------------
# apply_polynomial_filter


def test_identity_filter_returns_input():
    rng = np.random.default_rng(0)
    ops = er_ops(rng, 9)
    x = random_signal(rng, 9, 2)
    np.testing.assert_array_equal(apply_polynomial_filter((1.0,), ops, x), x)


def test_first_order_filter_is_laplacian_apply():
    rng = np.random.default_rng(1)
    ops = er_ops(rng, 11)
    x = random_signal(rng, 11, 3)
    out = apply_polynomial_filter((0.0, 1.0), ops, x)
    np.testing.assert_allclose(out, x - spmm(ops, x), atol=1e-14)


def test_filter_matches_dense_eigendecomposition():
    rng = np.random.default_rng(2)
    for _ in range(6):
        ops = er_ops(rng, 12)
        x = random_signal(rng, 12, 2)
        theta = rng.uniform(-1.5, 1.5, size=4)
        out = apply_polynomial_filter(theta, ops, x)
        np.testing.assert_allclose(out, dense_filter_oracle(theta, ops, x), atol=1e-9)


def test_filter_coeffs_validate():
    with pytest.raises(ValueError, match="finite"):
        FilterCoeffs(theta=(1.0, float("nan")))
    with pytest.raises(ValueError, match="at least"):
        FilterCoeffs(theta=())


# ---------------------------------------------------------------------------
# the binomial mapping to the hop-sum model


def binomial_image_oracle(theta):
    """Expand sum_k theta_k (1-t)^k with polynomial convolutions.

    Independent of the closed-form binomial sums: substitute t for L_hat
    and multiply out (1-t)^k term by term.
    """
    acc = np.zeros(len(theta))
    base = np.array([1.0, -1.0])
    power = np.array([1.0])  # (1-t)^0
    for k, t in enumerate(theta):
        acc[: k + 1] += t * power
        power = np.convolve(power, base)
    return acc


def test_theta_to_ugdgnn_spot_checks():
    assert theta_to_ugdgnn((1.0,)).gammas == (1.0,)
    assert theta_to_ugdgnn((0.0, 1.0)).gammas == (1.0, -1.0)


def test_theta_to_ugdgnn_matches_convolution_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        kk = int(rng.integers(0, 9))
        theta = rng.uniform(-2.0, 2.0, size=kk + 1)
        gammas = np.array(theta_to_ugdgnn(theta).gammas)
        np.testing.assert_allclose(gammas, binomial_image_oracle(theta), atol=1e-12)


def test_theta_to_ugdgnn_identity_branch_only():
    model = theta_to_ugdgnn((0.3, -0.7, 2.0))
    assert model.zetas == (1.0, 1.0, 1.0)
    assert model.xis == (0.0, 0.0, 0.0)
    assert all(w is None for w in model.weights)


def test_filter_and_mapped_model_agree():
    rng = np.random.default_rng(4)
    for _ in range(15):
        ops = er_ops(rng, int(rng.integers(8, 41)))
        x = random_signal(rng, ops.num_nodes, int(rng.integers(1, 4)))
        kk = int(rng.integers(0, 7))
        theta = rng.uniform(-1.0, 1.0, size=kk + 1)
        lhs = forward(theta_to_ugdgnn(theta), ops, x)
        rhs = apply_polynomial_filter(theta, ops, x)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-8


def test_order_cap_enforced():
    with pytest.raises(ValueError, match="order"):
        theta_to_ugdgnn(np.ones(62))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kk=st.integers(0, 6),
)
def test_mapping_is_linear_in_theta(seed, kk):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=kk + 1)
    b = rng.uniform(-1, 1, size=kk + 1)
    ga = np.array(theta_to_ugdgnn(a).gammas)
    gb = np.array(theta_to_ugdgnn(b).gammas)
    gab = np.array(theta_to_ugdgnn(a + b).gammas)
    np.testing.assert_allclose(gab, ga + gb, atol=1e-10)


# ---------------------------------------------------------------------------
# fixed-coefficient aggregations


def test_sgc_implied_theta_small_orders():
    assert sgc_implied_theta(1).theta == (1.0, -1.0)
    assert sgc_implied_theta(2).theta == (1.0, -2.0, 1.0)


@pytest.mark.parametrize("kk", [1, 2, 3])
def test_sgc_implied_theta_reproduces_powers(kk):
    rng = np.random.default_rng(5 + kk)
    ops = er_ops(rng, 14)
    x = random_signal(rng, 14, 3)
    filtered = apply_polynomial_filter(sgc_implied_theta(kk), ops, x)
    power = x
    for _ in range(kk):
        power = spmm(ops, power)
    assert float(np.max(np.abs(filtered - power))) < 1e-10


def test_appnp_expansion_values():
    assert appnp_exact_expansion(3, 1.0) == (1.0, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(appnp_exact_expansion(2, 0.5), (0.5, 0.25, 0.25))


def test_appnp_expansion_sums_to_one_and_nonnegative():
    rng = np.random.default_rng(6)
    for _ in range(25):
        kk = int(rng.integers(1, 12))
        gam = float(rng.uniform(0.0, 1.0))
        c = np.array(appnp_exact_expansion(kk, gam))
        assert np.all(c >= 0.0)
        assert abs(c.sum() - 1.0) < 1e-12


def test_appnp_expansion_matches_forward():
    rng = np.random.default_rng(7)
    ops = er_ops(rng, 17)
    x = random_signal(rng, 17, 2)
    kk, gam = 4, 0.2
    c = appnp_exact_expansion(kk, gam)
    acc = c[0] * x
    p = x
    for j in range(1, kk + 1):
        p = spmm(ops, p)
        acc = acc + c[j] * p
    ref = forward(Appnp(k=kk, gamma=gam), ops, x)
    assert float(np.max(np.abs(acc - ref))) < 1e-12


# ---------------------------------------------------------------------------
# the stacked-scalar-layer construction


def test_gcnii_weights_for_laplacian_filter():
    plan = gcnii_filter_weights((0.0, 1.0))
    assert plan.weights == (-1.0, 1.0)
    rng = np.random.default_rng(8)
    ops = er_ops(rng, 10)
    x = random_signal(rng, 10, 2)
    out = gcnii_linearized_apply(plan, ops, x)
    np.testing.assert_allclose(out, x - spmm(ops, x), atol=1e-12)


def test_gcnii_identity_filter_needs_no_layers():
    plan = gcnii_filter_weights((1.0,))
    assert plan.weights == ()
    assert "no layers" in plan.note
    rng = np.random.default_rng(9)
    ops = er_ops(rng, 6)
    x = random_signal(rng, 6, 2)
    np.testing.assert_array_equal(gcnii_linearized_apply(plan, ops, x), x)


def test_gcnii_scaled_constant_filter_uses_one_layer():
    plan = gcnii_filter_weights((2.5,))
    assert plan.weights == (2.5,)


def test_gcnii_random_filters_reproduced():
    rng = np.random.default_rng(10)
    done = 0
    while done < 12:
        kk = int(rng.integers(1, 5))
        theta = rng.uniform(-1.0, 1.0, size=kk + 1)
        try:
            plan = gcnii_filter_weights(theta)
        except ValueError:
            continue  # landed on a vanishing hop coefficient
        ops = er_ops(rng, int(rng.integers(8, 25)))
        x = random_signal(rng, ops.num_nodes, 2)
        lhs = gcnii_linearized_apply(plan, ops, x)
        rhs = apply_polynomial_filter(theta, ops, x)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-8
        done += 1


def test_gcnii_vanishing_hop_coefficient_rejected():
    # theta = (1, -1) has hop-0 coefficient theta_0 + theta_1 = 0.
    with pytest.raises(ValueError, match="not expressible"):
        gcnii_filter_weights((1.0, -1.0))


# ---------------------------------------------------------------------------
# frequency responses


def test_response_of_identity_filter_is_flat():
    rng = np.random.default_rng(11)
    ops = er_ops(rng, 13)
    table = frequency_response((1.0,), ops)
    np.testing.assert_allclose(table[:, 1], 1.0)


def test_response_of_first_order_filter_is_the_eigenvalue():
    rng = np.random.default_rng(12)
    ops = er_ops(rng, 13)
    table = frequency_response((0.0, 1.0), ops)
    np.testing.assert_allclose(table[:, 1], table[:, 0], atol=1e-12)


def test_two_hop_response_is_squared_complement():
    rng = np.random.default_rng(13)
    ops = er_ops(rng, 16)
    table = frequency_response(sgc_implied_theta(2), ops)
    np.testing.assert_allclose(table[:, 1], (1.0 - table[:, 0]) ** 2, atol=1e-10)


def test_eigenvalues_sorted_and_in_band():
    rng = np.random.default_rng(14)
    for _ in range(5):
        ops = er_ops(rng, int(rng.integers(5, 30)))
        table = frequency_response((1.0,), ops)
        lam = table[:, 0]
        assert np.all(np.diff(lam) >= -1e-12)
        assert lam.min() >= -1e-10
        assert lam.max() <= 2.0 + 1e-10


def test_dense_eigensolve_size_limit():
    n = DENSE_EIG_NODE_LIMIT + 1
    g = add_self_loops(Graph(num_nodes=n, edges=tuple((i, i + 1) for i in range(n - 1))))
    ops = normalize(g)
    with pytest.raises(ValueError, match="dense eigensolve"):
        frequency_response((1.0,), ops)


@pytest.mark.parametrize("k, message", [(0, "K must be at least 1"),
                                        (61, "order 61 exceeds the supported 60")])
def test_sgc_implied_theta_rejects_an_order_out_of_range(k, message):
    with pytest.raises(ValueError, match=message):
        sgc_implied_theta(k)
