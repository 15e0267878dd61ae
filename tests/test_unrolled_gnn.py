"""Forward passes, unrolled plans, and the equivalence harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import er_ops, random_signal, random_symmetric
from gsdnn.graph_core import Graph, add_self_loops, normalize, spmm
from gsdnn.gsd_problem import GsdSpec, NonNegIndicator, RidgeComplement, RowL21
from gsdnn.iter_solvers import SolveConfig, gd_run, proxgd_run
from gsdnn.unrolled_gnn import (
    MODEL_KINDS,
    PPNP_HORIZON,
    AirGnn,
    Appnp,
    Gcn,
    GcnII,
    GprGnn,
    JkNet,
    LayerParams,
    Ppnp,
    Sgc,
    Ugdgnn,
    UnrollPlan,
    equivalence_check,
    forward,
    run_unrolled,
    sample_model,
    to_unroll_plan,
    ugdgnn_specialize,
)


def two_node_path_ops():
    return normalize(add_self_loops(Graph(num_nodes=2, edges=((0, 1),))))


# ---------------------------------------------------------------------------
# forward passes


def test_ugdgnn_identity_configuration_returns_input():
    ops = two_node_path_ops()
    x = np.array([[1.0, -2.0], [3.0, 0.5]])
    model = Ugdgnn(
        gammas=(1.0, 0.0, 0.0),
        zetas=(1.0, 0.0, 0.0),
        xis=(0.0, 0.0, 0.0),
        weights=(None, None, None),
    )
    np.testing.assert_array_equal(forward(model, ops, x), x)


def test_appnp_teleport_only_returns_input():
    ops = two_node_path_ops()
    x = np.array([[2.0], [-1.0]])
    for k in (1, 3, 7):
        np.testing.assert_allclose(forward(Appnp(k=k, gamma=1.0), ops, x), x)


def test_gprgnn_half_half_matches_hand_computation():
    # On the 2-node path with self-loops, A_hat is the all-half matrix, so
    # 0.5 x + 0.5 A_hat x has first row 0.5*[1,0] + 0.5*[0.5,0.5].
    ops = two_node_path_ops()
    x = np.eye(2)
    out = forward(GprGnn(gammas=(0.5, 0.5)), ops, x)
    np.testing.assert_allclose(out, [[0.75, 0.25], [0.25, 0.75]], atol=1e-15)


def test_airgnn_rows_lie_between_anchor_and_aggregate():
    rng = np.random.default_rng(7)
    ops = er_ops(rng, 15)
    x = random_signal(rng, ops.num_nodes, 3)
    out = forward(AirGnn(k=1, gamma=0.3), ops, x)
    v = spmm(ops, x)
    # each output row is x_i + t*(v_i - x_i) with t in [0, 1]
    resid_out = np.linalg.norm(out - x, axis=1)
    resid_v = np.linalg.norm(v - x, axis=1)
    assert np.all(resid_out <= resid_v + 1e-12)


def test_ugdgnn_tie_xi_overrides_stored_xis():
    ops = two_node_path_ops()
    x = np.array([[1.0, 2.0], [0.0, -1.0]])
    w = np.array([[0.5, 0.1], [-0.2, 0.3]])
    tied = Ugdgnn(
        gammas=(1.0,), zetas=(0.25,), xis=(0.9,), weights=(w,), tie_xi=True
    )
    explicit = Ugdgnn(
        gammas=(1.0,), zetas=(0.25,), xis=(0.75,), weights=(w,), tie_xi=False
    )
    np.testing.assert_allclose(
        forward(tied, ops, x), forward(explicit, ops, x), atol=1e-15
    )


def test_ugdgnn_missing_weight_with_nonzero_xi_is_an_error():
    ops = two_node_path_ops()
    x = np.zeros((2, 2))
    model = Ugdgnn(gammas=(1.0,), zetas=(0.0,), xis=(1.0,), weights=(None,))
    with pytest.raises(ValueError, match="hop 0"):
        forward(model, ops, x)


def test_forward_shape_mismatch_names_the_layer():
    ops = two_node_path_ops()
    x = np.zeros((2, 3))
    with pytest.raises(ValueError, match="weights\\[0\\]"):
        forward(Gcn(weights=(np.eye(2),)), ops, x)


# ---------------------------------------------------------------------------
# plans and the engine


def test_zero_update_layer_returns_initial_point():
    ops = two_node_path_ops()
    x = np.array([[1.5], [-0.5]])
    plan = UnrollPlan(layers=(LayerParams(eta=1.0, alpha=0.0, beta=0.0),))
    np.testing.assert_array_equal(run_unrolled(plan, ops, x), x)


def test_sgc_identity_weight_plan_is_two_hop_aggregation():
    ops = two_node_path_ops()
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    plan = to_unroll_plan(Sgc(k=2, w=np.eye(2)))
    a = np.full((2, 2), 0.5)
    np.testing.assert_allclose(run_unrolled(plan, ops, x), a @ a @ x, atol=1e-14)


def test_one_spmm_per_layer_with_smoothness_term(spmm_calls):
    rng = np.random.default_rng(31)
    ops = er_ops(rng, 15)
    x = random_signal(rng, 15, 3)
    smooth = LayerParams(eta=0.5, alpha=0.3, beta=0.7, t_beta=np.eye(3) / 2.0)
    fidelity_only = LayerParams(eta=0.5, alpha=1.0, beta=0.0)
    plan = UnrollPlan(layers=(smooth, fidelity_only, smooth, smooth))
    run_unrolled(plan, ops, x)
    assert len(spmm_calls) == 3
    spmm_calls.clear()
    run_unrolled(to_unroll_plan(Appnp(k=6, gamma=0.2)), ops, x)
    assert len(spmm_calls) == 6


@pytest.mark.parametrize(
    "reg", [None, RidgeComplement(), NonNegIndicator(), RowL21(weight=0.4)]
)
def test_solver_iterations_are_the_plan_layers(reg):
    # the same layer step: bit-identical, not just close. With T = I the
    # solver's layer holds None where the hand-built one holds the spec's
    # np.eye(3), so this also pins that None and the identity give the same bits.
    rng = np.random.default_rng(32)
    ops = er_ops(rng, 20)
    x = random_signal(rng, 20, 3)
    random_ts = (random_symmetric(rng, 3, 0.2) + np.eye(3),
                 random_symmetric(rng, 3, 0.2) + 0.5 * np.eye(3))
    for t_alpha, t_beta, eta, iters in ((*random_ts, 0.1, 4), (np.eye(3), np.eye(3), 0.2, 9)):
        spec = GsdSpec(alpha=0.6, beta=0.9, t_alpha=t_alpha, t_beta=t_beta, regularizer=reg)
        layer = LayerParams(
            eta=eta,
            alpha=spec.alpha,
            beta=spec.beta,
            t_alpha=spec.t_alpha,
            t_beta=spec.t_beta,
            ridge=spec.beta if isinstance(reg, RidgeComplement) else 0.0,
            prox=reg if isinstance(reg, (NonNegIndicator, RowL21)) else None,
        )
        run = proxgd_run if layer.prox is not None else gd_run
        cfg = SolveConfig(max_iters=iters, stepsize=eta, rel_tol=0.0)
        report = run(spec, x, x, ops, cfg)
        assert report.iterations_used == iters
        np.testing.assert_array_equal(
            report.final, run_unrolled(UnrollPlan(layers=(layer,) * iters), ops, x)
        )


def test_gprgnn_inversion_hand_case():
    plan = to_unroll_plan(GprGnn(gammas=(0.5, 0.5)))
    assert len(plan.layers) == 1
    assert plan.layers[0].alpha == pytest.approx(0.5)
    assert plan.layers[0].beta == pytest.approx(0.5)


def test_sgc_zero_weight_annihilates_both_paths():
    ops = two_node_path_ops()
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = Sgc(k=2, w=np.zeros((2, 2)))
    report = equivalence_check(model, ops, x, tol=1e-9)
    assert report["max_abs_diff"] == 0.0
    assert report["pass"]
    np.testing.assert_array_equal(forward(model, ops, x), np.zeros((2, 2)))


def test_airgnn_layer_equals_one_proximal_step():
    rng = np.random.default_rng(99)
    ops = er_ops(rng, 12)
    x = random_signal(rng, ops.num_nodes, 4)
    gamma = 0.35
    spec = GsdSpec(
        alpha=0.0,
        beta=gamma,
        t_alpha=np.eye(4),
        t_beta=np.eye(4),
        regularizer=RowL21(weight=1.0 - gamma),
    )
    cfg = SolveConfig(max_iters=1, stepsize=1.0 / (2.0 * gamma), rel_tol=0.0)
    solver_out = proxgd_run(spec, x, x, ops, cfg).final
    layer_out = forward(AirGnn(k=1, gamma=gamma), ops, x)
    np.testing.assert_allclose(solver_out, layer_out, atol=1e-12)


# ---------------------------------------------------------------------------
# the equivalence harness proper


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_equivalence_random_instances(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    worst = 0.0
    for trial in range(12):
        ops = er_ops(rng, int(rng.integers(10, 51)))
        d = int(rng.integers(2, 6))
        x = random_signal(rng, ops.num_nodes, d)
        model = sample_model(kind, rng, d)
        report = equivalence_check(model, ops, x, tol=1e-9)
        worst = max(worst, report["max_abs_diff"])
        assert report["pass"], f"{kind} trial {trial}: diff {report['max_abs_diff']:.3e}"
    assert worst < 1e-9


def _family_ops(family: str, n: int, rng: np.random.Generator):
    """A_hat of an n-node graph of one family: the Erdos-Renyi graphs that
    ``gsdnn equiv`` draws, or one of six whose degrees it rarely draws."""
    half = n // 2
    if family == "erdos-renyi":
        return er_ops(rng, n, 0.2)
    edges = {
        "star": [(0, i) for i in range(1, n)],
        "path": [(i, i + 1) for i in range(n - 1)],
        "isolated-nodes": [],
        "complete": [(i, j) for i in range(n) for j in range(i + 1, n)],
        "two-cliques": [(i, j) for i in range(n) for j in range(i + 1, n)
                        if (i < half) == (j < half)],
        "complete-bipartite": [(i, j) for i in range(half) for j in range(half, n)],
    }[family]
    return normalize(Graph(num_nodes=n, edges=edges))


GRAPH_FAMILIES = ("star", "path", "isolated-nodes", "complete", "two-cliques",
                  "complete-bipartite", "erdos-renyi")


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(family=st.sampled_from(GRAPH_FAMILIES), n=st.integers(1, 60),
       seed=st.integers(0, 2**32 - 1))
def test_equivalence_on_every_graph_family(kind, family, n, seed):
    rng = np.random.default_rng(seed)
    ops = _family_ops(family, n, rng)
    d = int(rng.integers(1, 5))
    model = sample_model(kind, rng, d)
    report = equivalence_check(model, ops, random_signal(rng, n, d), tol=1e-9)
    assert report["pass"], f"{kind} on a {n}-node {family}: diff {report['max_abs_diff']:.3e}"


def test_ppnp_against_long_horizon_iteration():
    rng = np.random.default_rng(2024)
    ops = er_ops(rng, 25)
    x = random_signal(rng, ops.num_nodes, 3)
    ref = forward(Ppnp(gamma=0.1), ops, x)
    other = forward(Appnp(k=400, gamma=0.1), ops, x)
    assert float(np.max(np.abs(ref - other))) < 1e-8


@pytest.mark.parametrize(
    "gamma, tol, passes",
    [(0.1, 1e-9, True), (0.5, 1e-9, True), (0.9, 1e-9, True), (0.5, 1e-30, False)],
    ids=["gamma-0.1", "gamma-0.5", "gamma-0.9", "impossible-tol"],
)
def test_ppnp_check_certifies_the_closed_form_against_the_horizon(gamma, tol, passes):
    rng = np.random.default_rng(round(10 * gamma))
    ops = er_ops(rng, int(rng.integers(10, 51)))
    x = random_signal(rng, ops.num_nodes, 3)
    report = equivalence_check(Ppnp(gamma=gamma), ops, x, tol=tol)
    assert report["model"] == "ppnp"
    assert report["pass"] == passes
    assert report["max_abs_diff"] < 1e-9


def _plain_appnp(ops, x, k, gamma):
    """All k steps of the APPNP iterate, with no early exit."""
    h = x.copy()
    for _ in range(k):
        h = (1.0 - gamma) * spmm(ops, h) + gamma * x
    return h


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(5, 50),
    gamma=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    k=st.integers(1, 450),
    data=st.data(),
)
def test_appnp_early_exit_is_bit_identical_to_every_step(seed, n, gamma, k, data):
    rng = np.random.default_rng(seed)
    ops = er_ops(rng, n)
    x = random_signal(rng, n, data.draw(st.integers(1, 3), label="d"))
    x[:, data.draw(st.integers(0, x.shape[1] - 1), label="zero column")] = 0.0
    x[rng.random(x.shape) < 0.2] = -0.0
    got = forward(Appnp(k=k, gamma=gamma), ops, x)
    assert got.tobytes() == _plain_appnp(ops, x, k, gamma).tobytes()


@pytest.mark.parametrize("seed, gamma, period", [(0, 0.5, 1), (4, 0.1, 2)],
                         ids=["fixed-point", "two-cycle"])
def test_appnp_early_exit_on_a_repeat_keeps_both_parities(seed, gamma, period):
    rng = np.random.default_rng((17, seed))
    ops = er_ops(rng, int(rng.integers(5, 51)))
    x = random_signal(rng, ops.num_nodes, 2)
    h = [x.copy()]
    while len(h) < 3 or h[-1].tobytes() != h[-3].tobytes():
        assert len(h) <= PPNP_HORIZON, "no exact repeat within the horizon"
        h.append((1.0 - gamma) * spmm(ops, h[-1]) + gamma * x)
    assert (h[-1].tobytes() == h[-2].tobytes()) == (period == 1)
    for k in (len(h) - 1, PPNP_HORIZON - 1, PPNP_HORIZON, PPNP_HORIZON + 1):
        got = forward(Appnp(k=k, gamma=gamma), ops, x)
        assert got.tobytes() == _plain_appnp(ops, x, k, gamma).tobytes(), k


def test_restart_limit_iterate_stops_before_the_horizon(spmm_calls):
    # criterion 2's graphs: every iterate repeats itself exactly well before
    # PPNP_HORIZON, so the 400-step reference costs fewer than 400 products
    for seed in range(5):
        rng = np.random.default_rng((1203, seed))
        ops = er_ops(rng, 30, p=0.2)
        x = random_signal(rng, 30, 3)
        spmm_calls.clear()
        forward(Appnp(k=PPNP_HORIZON, gamma=0.1), ops, x)
        assert 0 < len(spmm_calls) < PPNP_HORIZON, seed


def test_gcn_gcnii_outputs_are_nonnegative():
    rng = np.random.default_rng(5)
    for kind in ("gcn", "gcnii"):
        ops = er_ops(rng, 20)
        d = 4
        x = random_signal(rng, ops.num_nodes, d)
        model = sample_model(kind, rng, d)
        assert np.all(forward(model, ops, x) >= 0.0)
        assert np.all(run_unrolled(to_unroll_plan(model), ops, x) >= 0.0)


def test_prox_free_plans_are_linear_in_the_signal():
    rng = np.random.default_rng(31)
    for kind in ("sgc", "appnp", "jknet", "gprgnn"):
        ops = er_ops(rng, 18)
        d = 3
        x = random_signal(rng, ops.num_nodes, d)
        y = random_signal(rng, ops.num_nodes, d)
        plan = to_unroll_plan(sample_model(kind, rng, d))
        a, b = 0.7, -1.3
        lhs = run_unrolled(plan, ops, a * x + b * y)
        rhs = a * run_unrolled(plan, ops, x) + b * run_unrolled(plan, ops, y)
        assert float(np.max(np.abs(lhs - rhs))) < 1e-10


# ---------------------------------------------------------------------------
# inversion failure modes


def test_jknet_weights_not_summing_to_identity_rejected():
    w0 = np.eye(2) * 0.5
    w1 = np.eye(2) * 0.2  # sums to 0.7 I, outside the family
    with pytest.raises(ValueError, match="identity"):
        to_unroll_plan(JkNet(weights=(w0, w1)))


def test_jknet_singular_suffix_rejected():
    # T^(2) = I makes M_2 = 0, so recovering T^(1) hits a singular solve.
    rng = np.random.default_rng(0)
    t1 = rng.uniform(-0.2, 0.2, size=(3, 3))
    eye = np.eye(3)
    w0 = eye  # T^(2)
    w1 = t1 @ (eye - eye)  # T^(1) M_2 = 0
    w2 = (eye - t1) @ (eye - eye)  # M_1 M_2 = 0
    with pytest.raises(ValueError, match="singular"):
        to_unroll_plan(JkNet(weights=(w0, w1, w2)))


def test_gprgnn_coefficients_not_telescoping_rejected():
    with pytest.raises(ValueError, match="sum to 1"):
        to_unroll_plan(GprGnn(gammas=(0.5, 0.2)))


def test_gprgnn_vanishing_partial_product_rejected():
    # gamma_0 = 1 forces alpha_K = 1, killing every later partial product.
    with pytest.raises(ValueError, match="partial product"):
        to_unroll_plan(GprGnn(gammas=(1.0, 0.3, -0.3)))


def test_ppnp_and_ugdgnn_have_no_plan():
    with pytest.raises(ValueError, match="closed-form"):
        to_unroll_plan(Ppnp(gamma=0.2))
    model = Ugdgnn(gammas=(1.0,), zetas=(1.0,), xis=(0.0,), weights=(None,))
    with pytest.raises(ValueError, match="general"):
        to_unroll_plan(model)


# ---------------------------------------------------------------------------
# hop-sum specializations


def test_specializations_match_target_forward():
    rng = np.random.default_rng(77)
    ops = er_ops(rng, 16)
    d = 3
    x = random_signal(rng, ops.num_nodes, d)
    targets = [
        Sgc(k=3, w=rng.standard_normal((d, d))),
        Sgc(k=2, w=rng.standard_normal((d, d + 2))),  # width-changing weight
        Appnp(k=4, gamma=0.15),
        JkNet(weights=tuple(rng.standard_normal((d, d)) * 0.4 for _ in range(4))),
        GprGnn(gammas=(0.2, -0.4, 0.7, 0.5)),
    ]
    for target in targets:
        general = ugdgnn_specialize(target)
        diff = np.max(np.abs(forward(target, ops, x) - forward(general, ops, x)))
        assert float(diff) < 1e-12, type(target).__name__


def test_specialize_rejects_nonlinear_models():
    with pytest.raises(TypeError):
        ugdgnn_specialize(Gcn(weights=(np.eye(2),)))


# ---------------------------------------------------------------------------
# input checks


def _ugdgnn(gammas, zetas=None, xis=None, weights=None):
    kp1 = len(gammas)
    return Ugdgnn(gammas=gammas, zetas=(1.0,) * kp1 if zetas is None else zetas,
                  xis=(0.0,) * kp1 if xis is None else xis,
                  weights=(None,) * kp1 if weights is None else weights)


_EYE2 = np.eye(2)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: JkNet(weights=(_EYE2, np.eye(3))), ValueError, r"weights\[1\] must be 2x2"),
        (lambda: Sgc(k=0, w=_EYE2), ValueError, "K must be at least 1"),
        (lambda: Ppnp(gamma=0.0), ValueError, r"gamma must lie in \(0, 1\]"),
        (lambda: Appnp(k=0, gamma=0.5), ValueError, "K must be at least 1"),
        (lambda: Appnp(k=1, gamma=1.5), ValueError, r"gamma must lie in \[0, 1\]"),
        (lambda: JkNet(weights=(_EYE2,)), ValueError, "need weights for hops 0..K"),
        (lambda: GprGnn(gammas=(1.0,)), ValueError, "need coefficients for hops 0..K"),
        (lambda: Gcn(weights=()), ValueError, "need at least one layer weight"),
        (lambda: GcnII(zeta=1.5, xi=0.5, weights=(_EYE2,)), ValueError,
         r"zeta and xi must lie in \[0, 1\]"),
        (lambda: GcnII(zeta=0.5, xi=0.5, weights=()), ValueError,
         "need at least one layer weight"),
        (lambda: AirGnn(k=0, gamma=0.5), ValueError, "K must be at least 1"),
        (lambda: AirGnn(k=1, gamma=1.0), ValueError, r"gamma must lie strictly in \(0, 1\)"),
        (lambda: _ugdgnn(()), ValueError, "need at least the hop-0 term"),
        (lambda: _ugdgnn((1.0,), zetas=(1.0, 0.0)), ValueError,
         "gammas, zetas, xis, weights must have equal length"),
        (lambda: UnrollPlan(layers=()), ValueError, "a plan needs at least one layer"),
        (lambda: forward(object(), two_node_path_ops(), _EYE2), TypeError,
         "unknown model object"),
        (lambda: forward(_ugdgnn((1.0, 1.0), zetas=(1.0, 0.0), xis=(0.0, 1.0),
                                 weights=(None, np.ones((2, 3)))),
                         two_node_path_ops(), _EYE2), ValueError,
         "hop 1 produces width 3, expected 2"),
        (lambda: to_unroll_plan(object()), TypeError, "unknown model object"),
        (lambda: equivalence_check(_ugdgnn((1.0,)), two_node_path_ops(), _EYE2, 1e-9),
         ValueError, "the general form has nothing to be checked against"),
        (lambda: sample_model("bogus", np.random.default_rng(0), 2), ValueError,
         "unknown model kind 'bogus'"),
    ],
    ids=["square-stack", "sgc-k", "ppnp-gamma", "appnp-k", "appnp-gamma", "jknet-hops",
         "gprgnn-hops", "gcn-layers", "gcnii-zeta", "gcnii-layers", "airgnn-k",
         "airgnn-gamma", "ugdgnn-hop-0", "ugdgnn-lengths", "plan-layers", "forward-model",
         "ugdgnn-width", "plan-model", "check-general-form", "sample-kind"],
)
def test_invalid_model_or_plan_is_rejected_with_its_message(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_layered_schemes_count_their_layers():
    assert Gcn(weights=(_EYE2, _EYE2)).k == 2
    assert GcnII(zeta=0.5, xi=0.5, weights=(_EYE2,) * 3).k == 3


def test_ugdgnn_hop_with_zero_zeta_and_xi_adds_nothing():
    x = np.array([[1.0, -2.0], [3.0, 0.5]])
    model = _ugdgnn((1.0, 2.0), zetas=(1.0, 0.0))
    np.testing.assert_array_equal(forward(model, two_node_path_ops(), x), x)


def test_ugdgnn_with_every_gamma_zero_gives_zeros():
    x = np.array([[1.0, -2.0], [3.0, 0.5]])
    out = forward(_ugdgnn((0.0, 0.0)), two_node_path_ops(), x)
    assert out.shape == x.shape and np.all(out == 0.0)
