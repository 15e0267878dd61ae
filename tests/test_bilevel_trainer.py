"""Loss plumbing, hand-written gradients, Adam, toy datasets, training."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import er_ops
from gsdnn import bilevel_trainer
from gsdnn.bilevel_trainer import (
    AdamState,
    Dataset,
    TrainConfig,
    UgdgnnParams,
    _split_masks,
    accuracy,
    adam_step,
    adam_update,
    backward,
    cross_entropy_masked,
    depth_sweep,
    feature_powers,
    forward_logits,
    karate_dataset,
    predict,
    sbm_generate,
    softmax_rows,
    train,
)
from gsdnn.graph_core import spmm
from gsdnn.unrolled_gnn import Ugdgnn, forward

# mpmath-computed at 50 digits: softmax of [1.5, -0.25, 0, 2.125]
SOFTMAX_ORACLE_ROW = [1.5, -0.25, 0.0, 2.125]
SOFTMAX_ORACLE_OUT = [
    0.30626463755366004223,
    0.053220813807120793081,
    0.068336877625148981569,
    0.57217767101407018312,
]

# mpmath-computed at 50 digits: Adam on f(w) = w^2 from w=1, lr=0.1,
# beta1=0.9, beta2=0.999, eps=1e-8
ADAM_QUADRATIC_TRACE = [
    0.9000000004999999975,
    0.80041222869179214524,
    0.70158627294602954516,
]


# ---------------------------------------------------------------------------
# softmax and cross-entropy


def test_softmax_zero_row_is_uniform():
    out = softmax_rows(np.zeros((1, 4)))
    np.testing.assert_allclose(out, 0.25)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((5, 3))
    shifted = z + rng.standard_normal((5, 1))
    np.testing.assert_allclose(softmax_rows(z), softmax_rows(shifted), atol=1e-15)


def test_softmax_matches_high_precision_oracle():
    out = softmax_rows(np.array([SOFTMAX_ORACLE_ROW]))
    np.testing.assert_allclose(out[0], SOFTMAX_ORACLE_OUT, atol=1e-14)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((40, 6)) * 30.0
    np.testing.assert_allclose(softmax_rows(z).sum(axis=1), 1.0, atol=1e-12)


def test_cross_entropy_perfect_prediction_is_zero():
    probs = np.eye(3)
    labels = np.array([0, 1, 2])
    loss, grad = cross_entropy_masked(probs, labels, np.ones(3, dtype=bool))
    assert loss == 0.0
    np.testing.assert_allclose(grad, 0.0)


def test_cross_entropy_uniform_prediction_is_log_c():
    c = 5
    probs = np.full((4, c), 1.0 / c)
    labels = np.array([0, 1, 2, 3])
    mask = np.ones(4, dtype=bool)
    loss, _ = cross_entropy_masked(probs, labels, mask)
    assert loss == pytest.approx(math.log(c), rel=1e-12)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((3, 3))
    labels = np.array([2, 0, 1])
    mask = np.array([True, False, True])

    def loss_of(z):
        return cross_entropy_masked(softmax_rows(z), labels, mask)[0]

    _, grad = cross_entropy_masked(softmax_rows(logits), labels, mask)
    h = 1e-6
    for i in range(3):
        for j in range(3):
            zp = logits.copy(); zp[i, j] += h
            zm = logits.copy(); zm[i, j] -= h
            fd = (loss_of(zp) - loss_of(zm)) / (2 * h)
            denom = max(abs(fd), abs(grad[i, j]), 1e-8)
            assert abs(fd - grad[i, j]) / denom < 1e-6


def test_cross_entropy_empty_mask_rejected():
    with pytest.raises(ValueError, match="no rows"):
        cross_entropy_masked(np.eye(2), np.array([0, 1]), np.zeros(2, dtype=bool))


# The class-axis helpers make whole-array passes over the class columns.
# These are the formulas they replaced, kept literally as references: below
# 8 classes numpy reduces a trailing axis left to right, so the two must
# agree bit for bit, zero signs, NaNs and memory layout included.


def _softmax_reference(z):
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _cross_entropy_reference(probs, labels, mask):
    rows = np.flatnonzero(mask)
    grad = np.zeros_like(probs)
    grad[..., rows, :] = probs[..., rows, :]
    grad[..., rows, labels[rows]] -= 1.0
    grad[..., rows, :] /= rows.size
    picked = np.ascontiguousarray(probs[..., rows, labels[rows]])
    return -np.log(picked).sum(axis=-1) / rows.size, grad


def _accuracy_reference(logits, labels, mask):
    pred = np.argmax(logits[..., mask, :], axis=-1)
    return np.mean(pred == labels[mask], axis=-1)


def _same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
    assert got.tobytes() == want.tobytes()


# few distinct finite values, so rows often hold tied maxima
_CLASS_ENTRIES = st.one_of(
    st.floats(-50.0, 50.0, width=64),
    st.sampled_from([0.0, -0.0, 1.5, 1.5, -2.0, math.inf, -math.inf, math.nan]),
)


@st.composite
def _class_arrays(draw, min_dims=1):
    """1-D, (n, c) or (S, n, c) arrays of c in 1..7 classes, in C or Fortran order."""
    s, n, c = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 7))
    shape = [(c,), (n, c), (s, n, c)][draw(st.integers(min_dims, 3)) - 1]
    z = draw(hnp.arrays(np.float64, shape, elements=_CLASS_ENTRIES))
    return np.asfortranarray(z) if draw(st.booleans()) else z


@settings(max_examples=200, deadline=None)
@given(z=_class_arrays())
def test_softmax_matches_the_reduction_formula_bit_for_bit(z):
    with np.errstate(invalid="ignore"):  # inf - inf in rows holding inf
        _same_array(softmax_rows(z), _softmax_reference(z))


@st.composite
def _masked_rows_case(draw):
    probs = draw(_class_arrays(min_dims=2))
    n, c = probs.shape[-2:]
    labels = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    picked = draw(st.sets(st.integers(0, n - 1), min_size=1))
    mask = np.isin(np.arange(n), list(picked))
    return probs, labels, mask


@settings(max_examples=150, deadline=None)
@given(case=_masked_rows_case())
def test_cross_entropy_matches_the_scatter_formula_bit_for_bit(case):
    probs, labels, mask = case
    with np.errstate(invalid="ignore", divide="ignore"):  # log of 0, < 0 or -inf
        loss, grad = cross_entropy_masked(probs, labels, mask)
        want_loss, want_grad = _cross_entropy_reference(probs, labels, mask)
    _same_array(grad, want_grad)
    _same_array(loss, want_loss)


@settings(max_examples=150, deadline=None)
@given(case=_masked_rows_case())
def test_accuracy_matches_the_fancy_index_formula_bit_for_bit(case):
    logits, labels, mask = case
    _same_array(accuracy(logits, labels, mask), _accuracy_reference(logits, labels, mask))


@pytest.mark.parametrize("c", [8, 11])
def test_softmax_sums_classes_left_to_right_from_eight_classes(c):
    # numpy sums 8 or more entries pairwise; the normalizer stays a plain
    # left-to-right sum in class order
    z = np.random.default_rng(c).standard_normal((2, 40, c)) * 10.0
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    total = np.empty(z.shape[:-1])
    for idx in np.ndindex(total.shape):
        acc = float(e[idx][0])
        for v in e[idx][1:]:
            acc += float(v)
        total[idx] = acc
    _same_array(softmax_rows(z), e / total[..., None])


def test_prediction_tie_breaks_to_lowest_class():
    logits = np.array([[1.0, 1.0, 0.0], [0.5, 0.7, 0.7]])
    np.testing.assert_array_equal(predict(logits), [0, 1])


# ---------------------------------------------------------------------------
# forward pass


def make_params(rng, k, d_in, c, tie_xi=True):
    params = UgdgnnParams.init(rng, k, d_in, c, alpha0=0.3, tie_xi=tie_xi)
    params.gammas[:] = rng.uniform(-0.5, 1.0, size=k + 1)
    params.zetas[:] = rng.uniform(0.2, 0.8, size=k + 1)
    params.xis[:] = rng.uniform(0.1, 0.9, size=k + 1)
    return params


def test_forward_k0_weight_only_is_linear_model():
    rng = np.random.default_rng(3)
    ops = er_ops(rng, 7)
    x = rng.standard_normal((7, 3))
    params = UgdgnnParams.zeros(k=0, classes=3, tie_xi=False)
    params.gammas[:] = 1.0
    params.xis[:] = 1.0
    params.w[0] = rng.standard_normal((3, 3))
    logits, _ = forward_logits(params, feature_powers(params, ops, x))
    np.testing.assert_allclose(logits, x @ params.w[0], atol=1e-14)


def test_forward_tied_identity_mixing_is_hop_sum():
    rng = np.random.default_rng(4)
    ops = er_ops(rng, 9)
    x = rng.standard_normal((9, 2))
    params = UgdgnnParams.init(rng, k=3, d_in=2, num_classes=2, alpha0=0.2)
    params.gammas[:] = rng.uniform(-1, 1, size=4)
    logits, _ = forward_logits(params, feature_powers(params, ops, x))
    expected = np.zeros_like(x)
    p = x
    for k in range(4):
        if k > 0:
            p = spmm(ops, p)
        expected += params.gammas[k] * p
    np.testing.assert_allclose(logits, expected, atol=1e-13)


def test_forward_matches_bruteforce_recomputation():
    rng = np.random.default_rng(5)
    ops = er_ops(rng, 6)
    for tie in (True, False):
        x = rng.standard_normal((6, 2))
        params = make_params(rng, k=3, d_in=2, c=2, tie_xi=tie)
        logits, _ = forward_logits(params, feature_powers(params, ops, x))
        xis = params.effective_xis()
        brute = np.zeros_like(x)
        for k in range(4):
            p = x
            for _ in range(k):
                p = spmm(ops, p)
            brute += params.gammas[k] * (params.zetas[k] * p + xis[k] * (p @ params.w[k]))
        assert float(np.max(np.abs(logits - brute))) < 1e-12


@pytest.mark.parametrize("tie", [True, False])
def test_forward_matches_literal_ugdgnn_oracle(tie):
    # the trainer's model is the paper's general unrolled form: the literal
    # left-to-right evaluation of UGDGNN gives the same logits
    rng = np.random.default_rng(19)
    ops = er_ops(rng, 9)
    x = rng.standard_normal((9, 3))
    params = make_params(rng, k=4, d_in=3, c=3, tie_xi=tie)
    logits, _ = forward_logits(params, feature_powers(params, ops, x))
    model = Ugdgnn(params.gammas, params.zetas, params.xis, tuple(params.w), tie_xi=tie)
    assert float(np.max(np.abs(logits - forward(model, ops, x)))) <= 1e-12


@pytest.mark.parametrize("tie", [True, False])
def test_projected_forward_matches_bruteforce_oracle(tie):
    # the oracle projects first and propagates after, term by term:
    # sum_k gamma_k A_hat^k (X W + 1 b^T) (zeta_k I + xi_k W_k)
    rng = np.random.default_rng(25)
    ops = er_ops(rng, 9)
    a_hat = ops.a_hat.toarray()
    x = rng.standard_normal((9, 5))
    members = [make_params(rng, k=3, d_in=5, c=3, tie_xi=tie) for _ in range(3)]
    for member in members:
        member.pre_b[:] = rng.uniform(-0.5, 0.5, size=3)

    def oracle(params):
        xis = params.effective_xis()
        out = np.zeros((9, 3))
        for k in range(4):
            mix = params.zetas[k] * np.eye(3) + xis[k] * params.w[k]
            hop = np.linalg.matrix_power(a_hat, k) @ (x @ params.pre_w + params.pre_b)
            out += params.gammas[k] * (hop @ mix)
        return out

    stack = UgdgnnParams.stack(members)
    logits, _ = forward_logits(stack, feature_powers(stack, ops, x))
    for i, member in enumerate(members):
        alone, _ = forward_logits(member, feature_powers(member, ops, x))
        want = oracle(member)
        assert float(np.max(np.abs(alone - want))) <= 1e-12
        assert float(np.max(np.abs(logits[i] - want))) <= 1e-12


def test_blocks_are_views_into_one_flat_vector():
    rng = np.random.default_rng(20)
    params = UgdgnnParams.init(rng, k=2, d_in=4, num_classes=3, alpha0=0.3, tie_xi=False)
    blocks = [params.gammas, params.zetas, params.xis, params.w, params.pre_w, params.pre_b]
    assert [b.shape for b in blocks] == [(3,), (3,), (3,), (3, 3, 3), (4, 3), (3,)]
    np.testing.assert_array_equal(params.flat, np.concatenate([b.ravel() for b in blocks]))
    assert all(np.shares_memory(b, params.flat) for b in blocks)
    assert params.decay_start == 9
    np.testing.assert_array_equal(params.proj, np.vstack([params.pre_w, params.pre_b]))
    assert np.shares_memory(params.proj, params.flat)
    grads = params.zeros_like()
    assert grads.flat.shape == params.flat.shape and not grads.flat.any()
    assert grads.pre_w.shape == (4, 3) and grads.tie_xi is False
    before = params.flat.copy()
    for name in ("flat", "gammas", "zetas", "xis", "w", "pre_w", "pre_b", "proj"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(params, name, getattr(params, name).copy())
    np.testing.assert_array_equal(params.flat, before)
    params.gammas[:] = 2.0
    assert np.all(params.flat[:3] == 2.0)


def test_stack_puts_seeds_on_a_leading_axis():
    rng = np.random.default_rng(22)
    members = [
        UgdgnnParams.init(rng, k=2, d_in=4, num_classes=3, alpha0=0.3, tie_xi=False)
        for _ in range(3)
    ]
    stack = UgdgnnParams.stack(members)
    blocks = [stack.gammas, stack.zetas, stack.xis, stack.w, stack.pre_w, stack.pre_b]
    assert [b.shape for b in blocks] == [(3, 3), (3, 3), (3, 3), (3, 3, 3, 3), (3, 4, 3), (3, 3)]
    assert all(np.shares_memory(b, stack.flat) for b in blocks)
    assert stack.k == 2 and stack.decay_start == 9
    for i, member in enumerate(members):
        np.testing.assert_array_equal(stack.flat[i], member.flat)
        np.testing.assert_array_equal(stack.w[i], member.w)
    assert stack.zeros_like().flat.shape == stack.flat.shape
    tied = UgdgnnParams.init(rng, k=2, d_in=4, num_classes=3, alpha0=0.3, tie_xi=True)
    deeper = UgdgnnParams.init(rng, k=3, d_in=4, num_classes=3, alpha0=0.3, tie_xi=False)
    for other in (tied, deeper):
        with pytest.raises(ValueError, match="one layout"):
            UgdgnnParams.stack([members[0], other])


@pytest.mark.parametrize("tie", [True, False])
@pytest.mark.parametrize("d_in", [3, 5])
@pytest.mark.parametrize("per_seed_x", [False, True])
def test_stack_forward_backward_match_each_seed(tie, d_in, per_seed_x):
    # one seed has no weight branch at hop 2 (xi = 0), the others do
    rng = np.random.default_rng(23)
    ops = er_ops(rng, 9)
    members = [make_params(rng, k=3, d_in=d_in, c=3, tie_xi=tie) for _ in range(3)]
    members[1].zetas[2] = 1.0
    members[1].xis[2] = 0.0
    x = rng.standard_normal((3, 9, d_in) if per_seed_x else (9, d_in))
    stack = UgdgnnParams.stack(members)
    q = feature_powers(stack, ops, x)
    logits, p = forward_logits(stack, q)
    g = rng.standard_normal(logits.shape)
    grads = backward(stack, q, p, g)
    for i, member in enumerate(members):
        own_q = feature_powers(member, ops, x[i] if per_seed_x else x)
        want, own_p = forward_logits(member, own_q)
        np.testing.assert_array_equal(logits[i], want)
        np.testing.assert_array_equal(grads.flat[i], backward(member, own_q, own_p, g[i]).flat)


def test_stack_skips_the_weight_branch_where_xi_is_zero():
    # a seed with xi = 0 never multiplies its weight branch in, so weights
    # that would overflow it leave its logits finite, as when it runs
    # alone, while the other seed of the stack uses the branch
    rng = np.random.default_rng(24)
    ops = er_ops(rng, 6)
    x = rng.uniform(1.0, 2.0, size=(6, 2))
    plain = UgdgnnParams.init(rng, k=2, d_in=2, num_classes=2, alpha0=0.2)  # zeta = 1
    plain.w[:] = 1e308
    stack = UgdgnnParams.stack([plain, make_params(rng, k=2, d_in=2, c=2)])
    with np.errstate(over="ignore"):
        logits, _ = forward_logits(stack, feature_powers(stack, ops, x))
    want, _ = forward_logits(plain, feature_powers(plain, ops, x))
    assert np.isfinite(want).all()
    np.testing.assert_array_equal(logits[0], want)


@pytest.mark.parametrize("d_in", [3, 5])
def test_init_matches_per_block_draws(d_in):
    # reference: K+1 separate (c, c) Glorot draws, then the projection
    k, c, alpha0 = 4, 3, 0.3
    params = UgdgnnParams.init(np.random.default_rng(26), k, d_in, c, alpha0, tie_xi=False)
    rng = np.random.default_rng(26)
    limit = math.sqrt(6.0 / (c + c))
    want_w = [rng.uniform(-limit, limit, size=(c, c)) for _ in range(k + 1)]
    np.testing.assert_array_equal(params.w, np.stack(want_w))
    np.testing.assert_array_equal(
        params.gammas, [alpha0 * (1.0 - alpha0) ** j for j in range(k)] + [(1.0 - alpha0) ** k]
    )
    np.testing.assert_array_equal(params.zetas, np.ones(k + 1))
    np.testing.assert_array_equal(params.xis, np.zeros(k + 1))
    assert params.tie_xi is False
    if d_in == c:
        assert params.d_in is None and params.pre_w is None and params.proj is None
    else:
        pre_limit = math.sqrt(6.0 / (d_in + c))
        np.testing.assert_array_equal(
            params.pre_w, rng.uniform(-pre_limit, pre_limit, size=(d_in, c))
        )
        np.testing.assert_array_equal(params.pre_b, np.zeros(c))


def test_flat_of_wrong_length_rejected():
    # K = 1, c = 2, d_in = 3: 6 coefficients, 8 weights, 8 projection entries
    UgdgnnParams(np.zeros(22), k=1, classes=2, d_in=3)
    for size in (14, 21, 23):
        with pytest.raises(ValueError, match="22 entries"):
            UgdgnnParams(np.zeros(size), k=1, classes=2, d_in=3)
    with pytest.raises(ValueError, match="14 entries"):
        UgdgnnParams(np.zeros((2, 22)), k=1, classes=2)


def test_propagation_is_built_once_without_projection(spmm_calls):
    # d = c: no projection, so the K propagated powers survive every epoch
    ds = small_sbm()
    train(ds, TrainConfig(k=3, epochs=40, patience=40))
    assert len(spmm_calls) == 3


def test_feature_dropout_builds_clean_powers_once(spmm_calls):
    # K products per epoch for the dropped features, K once for the clean
    # features that every epoch evaluates on
    ds = small_sbm()
    rep = train(ds, TrainConfig(k=3, epochs=40, patience=40, feature_dropout=0.3))
    assert len(rep.train_losses) == 40
    assert len(spmm_calls) == 3 + 3 * 40


def test_feature_dropout_with_projection_propagates_features_and_ones(spmm_calls):
    # the same count as without a projection; each product carries the
    # d = 5 features and the ones column of the projection bias
    ds = sbm_generate(n=140, blocks=2, p_in=0.15, p_out=0.01, d=5, noise_sigma=1.0, seed=0)
    rep = train(ds, TrainConfig(k=3, epochs=40, patience=40, feature_dropout=0.3))
    assert len(rep.train_losses) == 40
    assert spmm_calls == [(140, 6)] * (3 + 3 * 40)


def test_projection_rebuilds_powers_once_per_epoch(spmm_calls):
    # the powers of [X, 1] do not depend on the projection, so the K
    # products are made once per run and a projected epoch makes none
    ds = sbm_generate(n=140, blocks=2, p_in=0.15, p_out=0.01, d=5, noise_sigma=1.0, seed=0)
    rep = train(ds, TrainConfig(k=3, epochs=40, patience=40))
    assert len(rep.train_losses) == 40
    assert spmm_calls == [(140, 6)] * 3


# ---------------------------------------------------------------------------
# backward pass


def loss_of(params, q, labels, mask):
    logits, _ = forward_logits(params, q)
    return cross_entropy_masked(softmax_rows(logits), labels, mask)[0]


def fd_check(params, q, labels, mask, arrays_and_grads, h=1e-6, tol=1e-5):
    worst = 0.0
    for arr, ganal in arrays_and_grads:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            fp = loss_of(params, q, labels, mask)
            arr[idx] = orig - h
            fm = loss_of(params, q, labels, mask)
            arr[idx] = orig
            fd = (fp - fm) / (2 * h)
            an = ganal[idx]
            if abs(fd) < 1e-12 and abs(an) < 1e-12:
                continue
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    assert worst < tol, f"worst relative error {worst:.3e}"


@pytest.mark.parametrize("tie", [True, False])
@pytest.mark.parametrize("with_pre", [True, False])
def test_all_parameter_gradients_match_finite_differences(tie, with_pre):
    rng = np.random.default_rng(8 + tie + 2 * with_pre)
    ops = er_ops(rng, 5)
    c = 2
    d_in = 4 if with_pre else c
    x = rng.standard_normal((5, d_in))
    labels = rng.integers(0, c, size=5)
    labels[:c] = np.arange(c)
    mask = np.array([True, True, False, True, False])
    params = make_params(rng, k=2, d_in=d_in, c=c, tie_xi=tie)
    q = feature_powers(params, ops, x)
    logits, p = forward_logits(params, q)
    _, glog = cross_entropy_masked(softmax_rows(logits), labels, mask)
    grads = backward(params, q, p, glog)
    pairs = [
        (params.gammas, grads.gammas),
        (params.zetas, grads.zetas),
    ]
    if not tie:
        pairs.append((params.xis, grads.xis))
    pairs.extend((params.w[i], grads.w[i]) for i in range(3))
    if with_pre:
        pairs.append((params.pre_w, grads.pre_w))
        pairs.append((params.pre_b, grads.pre_b))
    fd_check(params, q, labels, mask, pairs)


def test_zero_upstream_gradient_gives_zero_parameter_gradients():
    rng = np.random.default_rng(12)
    ops = er_ops(rng, 6)
    x = rng.standard_normal((6, 2))
    params = make_params(rng, k=2, d_in=2, c=2)
    q = feature_powers(params, ops, x)
    _, p = forward_logits(params, q)
    grads = backward(params, q, p, np.zeros((6, 2)))
    assert np.all(grads.gammas == 0) and np.all(grads.zetas == 0)
    assert all(np.all(g == 0) for g in grads.w)


def test_weight_gradient_exactly_zero_when_branch_inactive():
    rng = np.random.default_rng(13)
    ops = er_ops(rng, 6)
    x = rng.standard_normal((6, 2))
    params = UgdgnnParams.init(rng, k=2, d_in=2, num_classes=2, alpha0=0.2)
    # tied with zeta = 1 means xi = 0 everywhere
    q = feature_powers(params, ops, x)
    logits, p = forward_logits(params, q)
    labels = np.array([0, 1, 0, 1, 0, 1])
    _, glog = cross_entropy_masked(softmax_rows(logits), labels, np.ones(6, bool))
    grads = backward(params, q, p, glog)
    assert all(np.all(g == 0.0) for g in grads.w)


def test_restricted_hop_coefficient_gradients():
    # with tied mixing at zeta=1 and zero weights the model is a pure
    # hop-coefficient filter; its gamma gradients must match the
    # restricted finite-difference oracle
    rng = np.random.default_rng(14)
    ops = er_ops(rng, 7)
    x = rng.standard_normal((7, 2))
    labels = rng.integers(0, 2, size=7)
    labels[:2] = [0, 1]
    mask = np.ones(7, dtype=bool)
    params = UgdgnnParams.init(rng, k=3, d_in=2, num_classes=2, alpha0=0.2)
    params.w[:] = 0.0
    q = feature_powers(params, ops, x)
    logits, p = forward_logits(params, q)
    _, glog = cross_entropy_masked(softmax_rows(logits), labels, mask)
    grads = backward(params, q, p, glog)
    fd_check(params, q, labels, mask, [(params.gammas, grads.gammas)])


def literal_backward(params, ops, x, g):
    """The gradient one hop at a time, from the class-width powers
    P_k = A_hat^k Z proj (Z = [x, 1] and proj = [pre_w; pre_b] under a
    projection, else Z = x and P_k = A_hat^k x) and the logit gradient G."""
    grads = params.zeros_like()
    xis = params.effective_xis()
    z = x if params.proj is None else np.column_stack((x, np.ones(x.shape[0])))
    q_k = z
    for k in range(params.k + 1):
        if k > 0:
            q_k = spmm(ops, q_k)
        p_k = q_k if params.proj is None else q_k @ params.proj
        pg = float(np.sum(p_k * g))
        pwg = float(np.sum((p_k @ params.w[k]) * g))
        if xis[k] != 0.0:
            grads.w[k] = params.gammas[k] * xis[k] * (p_k.T @ g)
        grads.gammas[k] = params.zetas[k] * pg + xis[k] * pwg
        if params.tie_xi:
            grads.zetas[k] = params.gammas[k] * (pg - pwg)
        else:
            grads.zetas[k] = params.gammas[k] * pg
            grads.xis[k] = params.gammas[k] * pwg
        if params.proj is not None:
            mix = params.gammas[k] * (params.zetas[k] * np.eye(params.classes)
                                      + xis[k] * params.w[k])
            grads.proj[:] += q_k.T @ (g @ mix.T)
    return grads


@pytest.mark.parametrize("tie", [True, False])
@pytest.mark.parametrize("d_in", [3, 5])
@pytest.mark.parametrize("per_seed_x", [False, True])
def test_backward_matches_the_literal_per_hop_oracle(tie, d_in, per_seed_x):
    # d_in = 5 adds a projection to the 3 classes; seed 1 has no weight
    # branch at hop 2 (xi = 0); per-seed features are what feature dropout
    # gives the stack
    rng = np.random.default_rng(31)
    ops = er_ops(rng, 9)
    members = [make_params(rng, k=3, d_in=d_in, c=3, tie_xi=tie) for _ in range(3)]
    for member in members:
        if member.pre_b is not None:
            member.pre_b[:] = rng.uniform(-0.5, 0.5, size=3)
    members[1].zetas[2] = 1.0
    members[1].xis[2] = 0.0
    x = rng.standard_normal((3, 9, d_in) if per_seed_x else (9, d_in))
    stack = UgdgnnParams.stack(members)
    q = feature_powers(stack, ops, x)
    logits, m = forward_logits(stack, q)
    g = rng.standard_normal(logits.shape)
    grads = backward(stack, q, m, g)
    for i, member in enumerate(members):
        want = literal_backward(member, ops, x[i] if per_seed_x else x, g[i])
        assert float(np.max(np.abs(grads.flat[i] - want.flat))) <= 1e-12
    assert np.all(grads.w[1, 2] == 0.0)


@pytest.mark.parametrize("tie", [True, False])
@pytest.mark.parametrize("d_in", [3, 5])
@pytest.mark.parametrize("n_seeds", [1, 3])
@pytest.mark.parametrize("per_seed_x", [False, True])
def test_backward_on_the_train_rows_matches_every_row_and_the_oracle(
    tie, d_in, n_seeds, per_seed_x
):
    # a masked loss's logit gradient is zero off its rows, and backward sums
    # over rows, so the train rows of (q, G) give the gradient of all rows;
    # d_in = 5 adds a projection, per-seed features are feature dropout's q
    rng = np.random.default_rng(37)
    n = 12
    ops = er_ops(rng, n)
    members = [make_params(rng, k=3, d_in=d_in, c=3, tie_xi=tie) for _ in range(n_seeds)]
    for member in members:
        if member.pre_b is not None:
            member.pre_b[:] = rng.uniform(-0.5, 0.5, size=3)
    x = rng.standard_normal((n_seeds, n, d_in) if per_seed_x else (n, d_in))
    stack = UgdgnnParams.stack(members)
    q = feature_powers(stack, ops, x)
    logits, m = forward_logits(stack, q)
    labels = rng.integers(0, 3, size=n)
    rows = np.array([1, 4, 5, 9])
    train_mask = np.isin(np.arange(n), rows)
    _, g = cross_entropy_masked(softmax_rows(logits), labels, train_mask)
    got = backward(stack, q[..., rows, :, :], m, g[..., rows, :])
    every_row = backward(stack, q, m, g)
    for i, member in enumerate(members):
        oracle = literal_backward(member, ops, x[i] if per_seed_x else x, g[i])
        for want in (every_row.flat[i], oracle.flat):
            assert np.max(np.abs(got.flat[i] - want)) <= 1e-12 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_leaves_params_unchanged():
    rng = np.random.default_rng(16)
    params = UgdgnnParams.init(rng, k=1, d_in=2, num_classes=2, alpha0=0.2)
    before = [params.gammas.copy(), params.zetas.copy()] + [w.copy() for w in params.w]
    state = AdamState.init(params)
    adam_step(params, params.zeros_like(), state, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(params.gammas, before[0])
    np.testing.assert_array_equal(params.zetas, before[1])
    for w, orig in zip(params.w, before[2:]):
        np.testing.assert_array_equal(w, orig)


def test_adam_matches_hand_stepped_quadratic_trace():
    w = np.array([1.0])
    m = np.zeros(1)
    v = np.zeros(1)
    for t, expected in enumerate(ADAM_QUADRATIC_TRACE, start=1):
        grad = 2.0 * w
        w, m, v = adam_update(w, grad, m, v, t, lr=0.1)
        assert w[0] == pytest.approx(expected, abs=1e-15)


def test_adam_steps_are_deterministic():
    def run():
        rng = np.random.default_rng(17)
        params = UgdgnnParams.init(rng, k=2, d_in=2, num_classes=2, alpha0=0.3)
        state = AdamState.init(params)
        for step in range(5):
            grads = params.zeros_like()
            grads.gammas[:] = 0.1 * (step + 1)
            grads.zetas[:] = -0.2
            grads.w[:] = 0.05
            adam_step(params, grads, state, lr=0.01, weight_decay=5e-4)
        return params

    a, b = run(), run()
    np.testing.assert_array_equal(a.gammas, b.gammas)
    np.testing.assert_array_equal(a.zetas, b.zetas)
    for wa, wb in zip(a.w, b.w):
        np.testing.assert_array_equal(wa, wb)


def test_adam_decay_applies_to_weights_only():
    rng = np.random.default_rng(18)
    params = UgdgnnParams.init(rng, k=0, d_in=2, num_classes=2, alpha0=0.5)
    gam0 = params.gammas.copy()
    w0 = params.w[0].copy()
    state = AdamState.init(params)
    adam_step(params, params.zeros_like(), state, lr=0.01, weight_decay=0.1)
    np.testing.assert_array_equal(params.gammas, gam0)  # no decay on coefficients
    assert np.any(params.w[0] != w0)  # decay moved the weights


def test_flat_adam_step_matches_per_block_reference(monkeypatch):
    rng = np.random.default_rng(21)
    params = UgdgnnParams.init(rng, k=2, d_in=4, num_classes=3, alpha0=0.3, tie_xi=False)
    params.pre_b[:] = rng.uniform(-0.5, 0.5, size=3)

    def named_blocks(p):
        out = {"gammas": p.gammas, "zetas": p.zetas, "xis": p.xis,
               "pre_w": p.pre_w, "pre_b": p.pre_b}
        out.update({f"w{i}": w for i, w in enumerate(p.w)})
        return out

    # reference: one adam_update per block, decay added to the weights only
    ref = {name: b.copy() for name, b in named_blocks(params).items()}
    decays = {name: name not in ("gammas", "zetas", "xis") for name in ref}
    m = {name: np.zeros_like(p) for name, p in ref.items()}
    v = {name: np.zeros_like(p) for name, p in ref.items()}

    updates = []

    def counting_update(*args, **kwargs):
        updates.append(1)
        return adam_update(*args, **kwargs)

    monkeypatch.setattr(bilevel_trainer, "adam_update", counting_update)
    state = AdamState.init(params)
    for t in range(1, 6):
        grads = params.zeros_like()
        grads.flat[:] = rng.standard_normal(grads.flat.shape)
        block_grads = named_blocks(grads)
        adam_step(params, grads, state, lr=0.01, weight_decay=5e-4)
        for name, p in ref.items():
            g = block_grads[name] + 5e-4 * p if decays[name] else block_grads[name]
            ref[name], m[name], v[name] = adam_update(p, g, m[name], v[name], t, 0.01)
        assert len(updates) == t
    got = named_blocks(params)
    for name, p in ref.items():
        np.testing.assert_array_equal(got[name], p, err_msg=name)

    # zero gradients: only decay can move a block
    coeffs = params.flat[: params.decay_start].copy()
    tail = params.flat[params.decay_start :].copy()
    adam_step(params, params.zeros_like(), AdamState.init(params), lr=0.01, weight_decay=5e-4)
    np.testing.assert_array_equal(params.flat[: params.decay_start], coeffs)
    assert np.all(params.flat[params.decay_start :] != tail)


# ---------------------------------------------------------------------------
# datasets


def test_sbm_no_cross_edges_when_p_out_zero():
    ds = sbm_generate(n=120, blocks=2, p_in=0.2, p_out=0.0, d=2, noise_sigma=0.5, seed=0)
    for u, v in ds.ops.graph.edges:
        assert ds.labels[u] == ds.labels[v]


@pytest.mark.parametrize("p_out", [0.0, 1e-300])
def test_sbm_p_in_one_gives_complete_blocks_and_no_cross_edge(p_out):
    # at p_out = 1e-300 each geometric gap saturates at the int64 maximum,
    # which a running sum of gaps must not wrap into a cross edge
    n, blocks = 250, 4
    ds = sbm_generate(n=n, blocks=blocks, p_in=1.0, p_out=p_out, d=4, noise_sigma=1.0, seed=3)
    labels = ds.labels
    want = [(u, v) for u in range(n) for v in range(u, n) if labels[u] == labels[v]]
    assert ds.ops.graph.edges == tuple(want)


def test_sbm_deterministic_given_seed():
    a = sbm_generate(n=180, blocks=3, p_in=0.15, p_out=0.01, d=3, noise_sigma=1.0, seed=5)
    b = sbm_generate(n=180, blocks=3, p_in=0.15, p_out=0.01, d=3, noise_sigma=1.0, seed=5)
    c = sbm_generate(n=180, blocks=3, p_in=0.15, p_out=0.01, d=3, noise_sigma=1.0, seed=6)
    assert a.ops.graph.edges == b.ops.graph.edges
    assert a.ops.graph.edges != c.ops.graph.edges
    for field in ("x", "labels", "train_mask", "val_mask", "test_mask"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


# 250 nodes in 4 blocks makes unequal blocks of 63, 62, 63 and 62 nodes
_UNEQUAL_SBM = dict(n=250, blocks=4, p_in=0.2, p_out=0.02)
_UNEQUAL_LABELS = (np.arange(250) * 4) // 250


def _unequal_sbm_graphs(seeds):
    return [sbm_generate(**_UNEQUAL_SBM, d=4, noise_sigma=1.0, seed=s).ops.graph
            for s in seeds]


def _upper_pairs_and_probs():
    """(blocks, blocks) upper-triangular node-pair counts and edge
    probabilities of the unequal blocks."""
    sizes = np.bincount(_UNEQUAL_LABELS)
    pairs = np.triu(np.outer(sizes, sizes), k=1) + np.diag(sizes * (sizes - 1) // 2)
    probs = np.where(np.eye(sizes.size, dtype=bool), _UNEQUAL_SBM["p_in"],
                     _UNEQUAL_SBM["p_out"])
    return pairs, probs


def test_sbm_edges_are_canonical_sorted_and_repeat_free():
    (graph,) = _unequal_sbm_graphs([2])
    keys = graph.us * graph.num_nodes + graph.vs
    assert np.all(graph.us <= graph.vs)
    assert np.all(keys[1:] > keys[:-1])
    assert graph.has_self_loops


def test_sbm_block_pair_edge_counts_within_three_sigma():
    # each block pair's count summed over 20 seeds is Binomial(20 pairs, p)
    blocks = _UNEQUAL_SBM["blocks"]
    assert np.bincount(_UNEQUAL_LABELS).tolist() == [63, 62, 63, 62]
    total = np.zeros((blocks, blocks), dtype=np.int64)
    for graph in _unequal_sbm_graphs(range(20)):
        off = graph.us != graph.vs
        np.add.at(total, (_UNEQUAL_LABELS[graph.us[off]], _UNEQUAL_LABELS[graph.vs[off]]), 1)
    pairs, probs = _upper_pairs_and_probs()
    mean, sigma = 20 * pairs * probs, np.sqrt(20 * pairs * probs * (1 - probs))
    assert np.all(np.abs(total - mean) <= 3 * sigma), (total, mean)
    assert np.all(np.tril(total, k=-1) == 0)


def test_sbm_edge_and_degree_statistics_match_networkx():
    nx = pytest.importorskip("networkx")
    n, blocks = _UNEQUAL_SBM["n"], _UNEQUAL_SBM["blocks"]
    pairs, probs = _upper_pairs_and_probs()
    seeds = range(20)
    deg_ours, deg_theirs = [], []
    for s, graph in zip(seeds, _unequal_sbm_graphs(seeds)):
        off = graph.us != graph.vs
        deg_ours.append(np.bincount(np.concatenate((graph.us[off], graph.vs[off])), minlength=n))
        ref = nx.stochastic_block_model(np.bincount(_UNEQUAL_LABELS).tolist(),
                                        probs.tolist(), seed=s, sparse=True)
        assert [sorted(part) for part in ref.graph["partition"]] == [
            np.flatnonzero(_UNEQUAL_LABELS == b).tolist() for b in range(blocks)]
        ends = np.array(list(ref.edges()), dtype=np.int64).ravel()
        deg_theirs.append(np.bincount(ends, minlength=n))
    deg_ours, deg_theirs = np.array(deg_ours), np.array(deg_theirs)  # (seeds, n)

    # the mean edge counts: two means of 20 sums of independent Bernoullis
    var = float((pairs * probs * (1 - probs)).sum())
    edges_ours, edges_theirs = deg_ours.sum(axis=1) / 2, deg_theirs.sum(axis=1) / 2
    assert abs(edges_ours.mean() - edges_theirs.mean()) <= 3 * math.sqrt(2 * var / len(seeds))
    # the mean degree of each block, and the spread of the degrees
    for b in range(blocks):
        mine, ref = deg_ours[:, _UNEQUAL_LABELS == b], deg_theirs[:, _UNEQUAL_LABELS == b]
        sigma = math.sqrt(mine.var() / mine.size + ref.var() / ref.size)
        assert abs(mine.mean() - ref.mean()) <= 4 * sigma, b
    assert abs(deg_ours.var() / deg_theirs.var() - 1.0) <= 0.15


def test_sbm_edge_density_within_three_sigma():
    ds = sbm_generate(n=200, blocks=2, p_in=0.1, p_out=0.01, d=2, noise_sigma=1.0, seed=1)
    non_loop = sum(1 for u, v in ds.ops.graph.edges if u != v)
    pairs_in = 2 * (100 * 99 // 2)
    pairs_out = 100 * 100
    expected = pairs_in * 0.1 + pairs_out * 0.01
    sigma = math.sqrt(pairs_in * 0.1 * 0.9 + pairs_out * 0.01 * 0.99)
    assert abs(non_loop - expected) <= 3 * sigma


def test_sbm_split_sizes():
    ds = sbm_generate(n=200, blocks=2, p_in=0.1, p_out=0.01, d=2, noise_sigma=1.0, seed=2)
    assert int(ds.train_mask.sum()) == 40
    assert int(ds.val_mask.sum()) == 60
    assert int(ds.test_mask.sum()) == 100


def test_sbm_block_too_small_for_split():
    with pytest.raises(ValueError, match="needs more than"):
        sbm_generate(n=90, blocks=2, p_in=0.3, p_out=0.0, d=2, noise_sigma=0.1, seed=0)


def test_karate_structure():
    ds = karate_dataset()
    assert ds.ops.graph.num_nodes == 34
    non_loop = sum(1 for u, v in ds.ops.graph.edges if u != v)
    assert non_loop == 78
    a = ds.ops.a_hat.toarray()
    assert float(np.max(np.abs(a - a.T))) == 0.0
    assert ds.num_classes == 2
    for mask in (ds.train_mask, ds.val_mask, ds.test_mask):
        assert set(ds.labels[mask].tolist()) == {0, 1}
    # one-hot degree features
    np.testing.assert_allclose(ds.x.sum(axis=1), 1.0)
    assert int(ds.train_mask.sum()) == 8 and int(ds.val_mask.sum()) == 8


def test_karate_edges_match_networkx():
    nx = pytest.importorskip("networkx")
    graph = karate_dataset().ops.graph
    off = graph.us != graph.vs
    ours = set(zip(graph.us[off].tolist(), graph.vs[off].tolist()))
    theirs = {(min(u, v), max(u, v)) for u, v in nx.karate_club_graph().edges()}
    assert len(ours) == 78
    assert ours == theirs


def test_karate_factions_match_networkx():
    nx = pytest.importorskip("networkx")
    ref = nx.karate_club_graph()
    assert sorted(ref.nodes) == list(range(34))
    clubs = np.array([ref.nodes[i]["club"] == "Officer" for i in range(34)], dtype=np.int64)
    labels = karate_dataset().labels
    assert np.array_equal(clubs, labels) or np.array_equal(clubs, 1 - labels)


def test_sbm_rejects_oversized_n_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sbm_generate drew before checking its size")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    # n * d features alone, expected edges alone, and the two together
    for n, d, p_in, p_out in [(2_000_000_000, 2, 0.1, 0.01),
                              (100_000, 2, 1.0, 0.5),
                              (2**23, 2, 1.01 / 2**20, 0.0)]:
        with pytest.raises(ValueError, match=f"above the limit of {2**25}"):
            sbm_generate(n=n, blocks=2, p_in=p_in, p_out=p_out, d=d,
                         noise_sigma=1.0, seed=0)


def test_dataset_rejects_overlapping_masks():
    ds = karate_dataset()
    bad_val = ds.val_mask.copy()
    bad_val[np.flatnonzero(ds.train_mask)[0]] = True
    with pytest.raises(ValueError, match="disjoint"):
        Dataset(
            ops=ds.ops,
            x=ds.x,
            labels=ds.labels,
            train_mask=ds.train_mask,
            val_mask=bad_val,
            test_mask=ds.test_mask,
        )


@pytest.mark.parametrize("per_train, per_val", [(-8, 12), (0, 5), (3, 0), (2, -1)])
def test_split_masks_reject_counts_below_one(per_train, per_val):
    # a negative count would slice from the end of each class's ids
    labels = np.repeat([0, 1], 10)
    with pytest.raises(ValueError, match="must be at least 1"):
        _split_masks(labels, per_train, per_val)


def test_dataset_requires_all_classes_in_train():
    ds = karate_dataset()
    only_zero = ds.train_mask & (ds.labels == 0)
    with pytest.raises(ValueError, match="every class"):
        Dataset(
            ops=ds.ops,
            x=ds.x,
            labels=ds.labels,
            train_mask=only_zero,
            val_mask=ds.val_mask,
            test_mask=ds.test_mask,
        )


# ---------------------------------------------------------------------------
# training


def small_sbm(seed=0):
    return sbm_generate(n=140, blocks=2, p_in=0.15, p_out=0.01, d=2, noise_sigma=1.0, seed=seed)


def test_zero_learning_rate_freezes_the_model():
    ds = small_sbm()
    rep = train(ds, TrainConfig(lr=0.0, epochs=40, patience=10))
    assert len(set(rep.train_losses)) == 1
    assert len(set(rep.val_accs)) == 1
    assert rep.best_epoch == 0
    assert rep.test_acc_at_best == rep.test_accs[0]


def test_default_training_reaches_high_accuracy():
    ds = sbm_generate(n=200, blocks=2, p_in=0.1, p_out=0.01, d=2, noise_sigma=1.0, seed=0)
    rep = train(ds, TrainConfig())
    assert rep.test_acc_at_best >= 0.90
    assert rep.train_losses[-1] < rep.train_losses[0]
    assert all(math.isfinite(v) for v in rep.train_losses)
    assert not rep.diverged


def test_training_is_deterministic():
    ds = small_sbm(seed=3)
    cfg = TrainConfig(epochs=60, patience=60)
    a = train(ds, cfg).to_json_dict()
    b = train(ds, cfg).to_json_dict()
    assert a == b


@pytest.mark.parametrize("d", [2, 5])
def test_feature_dropout_is_seeded_and_skipped_at_evaluation(d):
    ds = sbm_generate(n=140, blocks=2, p_in=0.15, p_out=0.01, d=d, noise_sigma=1.0, seed=9)
    cfg = TrainConfig(k=3, epochs=30, patience=30, seed=4, feature_dropout=0.3)
    a = train(ds, cfg)
    assert a.to_json_dict() == train(ds, cfg).to_json_dict()
    # validation accuracy at epoch 0 is that of the initial model on clean
    # features, while the training loss saw the dropout mask
    params = UgdgnnParams.init(np.random.default_rng(cfg.seed), cfg.k, d, 2, cfg.alpha0)
    logits, _ = forward_logits(params, feature_powers(params, ds.ops, ds.x))
    assert a.val_accs[0] == accuracy(logits, ds.labels, ds.val_mask)
    clean_loss = cross_entropy_masked(softmax_rows(logits), ds.labels, ds.train_mask)[0]
    assert a.train_losses[0] != clean_loss


def _every_row_reference(ds, cfg):
    """One seed's epochs with the loss, gradient and ``backward`` on every row
    and accuracy from the public mask function: the trainer's draws, in its
    order, without its restriction of each term to the rows it reads."""
    rng = np.random.default_rng(cfg.seed)
    params = UgdgnnParams.init(rng, cfg.k, ds.x.shape[1], ds.num_classes, cfg.alpha0)
    state = AdamState.init(params)
    clean = feature_powers(params, ds.ops, ds.x)
    losses, val_accs, test_accs = [], [], []
    for _ in range(cfg.epochs):
        q = clean
        if cfg.feature_dropout > 0.0:
            keep = 1.0 - cfg.feature_dropout
            q = feature_powers(params, ds.ops, ds.x * (rng.random(ds.x.shape) < keep) / keep)
        logits, m = forward_logits(params, q)
        loss, g = cross_entropy_masked(softmax_rows(logits), ds.labels, ds.train_mask)
        eval_logits, _ = forward_logits(params, clean)
        losses.append(loss)
        val_accs.append(accuracy(eval_logits, ds.labels, ds.val_mask))
        test_accs.append(accuracy(eval_logits, ds.labels, ds.test_mask))
        adam_step(params, backward(params, q, m, g), state, cfg.lr, cfg.weight_decay)
    return losses, val_accs, test_accs


@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_training_matches_the_every_row_reference(d, dropout):
    # only backward's summation order differs: losses agree to 1e-12
    # relative, accuracies exactly; d = 5 adds a projection
    ds = sbm_generate(n=140, blocks=2, p_in=0.15, p_out=0.01, d=d, noise_sigma=1.0, seed=2)
    cfg = TrainConfig(k=3, epochs=8, patience=8, seed=5, lr=0.05, feature_dropout=dropout)
    rep = train(ds, cfg)
    losses, val_accs, test_accs = _every_row_reference(ds, cfg)
    np.testing.assert_allclose(rep.train_losses, losses, rtol=1e-12, atol=0.0)
    assert rep.val_accs == val_accs and rep.test_accs == test_accs


def test_divergence_is_reported_not_raised():
    ds = small_sbm(seed=4)
    huge_x = ds.x * 1e200
    ds2 = Dataset(
        ops=ds.ops,
        x=huge_x,
        labels=ds.labels,
        train_mask=ds.train_mask,
        val_mask=ds.val_mask,
        test_mask=ds.test_mask,
    )
    rep = train(ds2, TrainConfig(epochs=20, patience=20))
    assert rep.diverged
    assert rep.stop_reason == "diverged"
    assert rep.to_json_dict()["stop_reason"] == "diverged"
    assert all(math.isfinite(v) for v in rep.train_losses)
    # the diverging epoch ran its forward pass but records nothing
    assert rep.seed_epochs == len(rep.train_losses) + 1


def test_early_stopping_respects_patience():
    ds = small_sbm(seed=5)
    rep = train(ds, TrainConfig(lr=0.0, epochs=400, patience=7))
    # frozen model: best stays at epoch 0, so exactly patience+1 epochs run
    assert len(rep.train_losses) == 8
    assert rep.stop_reason == "patience"
    assert not rep.diverged


def test_report_json_has_no_wall_clock():
    ds = small_sbm(seed=6)
    rep = train(ds, TrainConfig(epochs=5, patience=5))
    doc = rep.to_json_dict()
    assert "wall_clock_seconds" not in doc
    # patience equals the budget, so the budget runs out first
    assert (doc["stop_reason"], doc["diverged"]) == ("epochs", False)
    assert len(rep.train_losses) == 5
    assert rep.wall_clock_seconds > 0.0
    assert set(doc) >= {"train_losses", "val_accs", "best_epoch", "final_gammas"}


def test_accuracy_values_lie_in_unit_interval():
    ds = small_sbm(seed=7)
    rep = train(ds, TrainConfig(epochs=30, patience=30))
    for seq in (rep.val_accs, rep.test_accs):
        assert all(0.0 <= v <= 1.0 for v in seq)


# ---------------------------------------------------------------------------
# depth sweep


def test_depth_sweep_shape_and_baseline():
    ds = small_sbm(seed=8)
    cfg = TrainConfig(epochs=120, patience=120)
    rows = depth_sweep(ds, cfg, ks=(0, 2), n_seeds=3)
    assert [r["k"] for r in rows] == [0, 2]
    for r in rows:
        assert len(r["accs"]) == 3
        assert 0.0 <= r["mean_acc"] <= 1.0
        assert r["std_acc"] == pytest.approx(float(np.std(r["accs"])))
        assert r["seed_epochs"] == 3 * 120  # patience equals the budget
    assert rows[1]["mean_acc"] >= rows[0]["mean_acc"] - 0.05
    for n_seeds in (0, -3):
        with pytest.raises(ValueError, match="n_seeds"):
            depth_sweep(ds, cfg, ks=(1,), n_seeds=n_seeds)


def test_depth_sweep_shares_powers_across_seeds(spmm_calls):
    # no projection and no dropout: each depth's K powers serve all seeds
    ds = small_sbm(seed=8)
    depth_sweep(ds, TrainConfig(epochs=30, patience=30), ks=(1, 3), n_seeds=3)
    assert len(spmm_calls) == 1 + 3


def test_depth_sweep_shares_projected_powers_across_seeds(spmm_calls):
    # the powers of [X, 1] serve every seed of a depth whatever its projection
    ds = sbm_generate(n=140, blocks=2, p_in=0.15, p_out=0.01, d=5, noise_sigma=1.0, seed=8)
    depth_sweep(ds, TrainConfig(epochs=30, patience=30), ks=(1, 3), n_seeds=3)
    assert spmm_calls == [(140, 6)] * (1 + 3)


STACK_CASES = {
    # patience 50: one seed runs to epoch 480, the others stop near epoch 60
    "early-stopping": (dict(n=200, p_in=0.1, p_out=0.01, d=2, seed=0),
                       TrainConfig(k=4, patience=50)),
    "projection": (dict(n=300, p_in=0.05, p_out=0.005, d=6, seed=3),
                   TrainConfig(k=3, epochs=200, patience=30)),
    "dropout": (dict(n=200, p_in=0.1, p_out=0.01, d=2, seed=1),
                TrainConfig(k=3, epochs=150, patience=20, feature_dropout=0.3)),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stack_matches_each_seed_run_alone(case):
    data, cfg = STACK_CASES[case]
    ds = sbm_generate(blocks=2, noise_sigma=1.0, **data)
    seeds = [0, 1, 2, 3, 4]
    stacked = bilevel_trainer._train_seeds(ds, cfg, seeds)
    alone = [train(ds, replace(cfg, seed=s)) for s in seeds]
    assert len({len(rep.train_losses) for rep in alone}) > 1
    for got, want in zip(stacked, alone):
        assert got.to_json_dict() == want.to_json_dict()


def test_epoch_zero_metrics_equal_the_public_functions_on_every_row(monkeypatch):
    # each epoch term reads its own rows only; epoch 0 (initial models,
    # clean features) must give the bits of the public functions on all rows
    data, cfg = STACK_CASES["early-stopping"]
    ds = sbm_generate(blocks=2, noise_sigma=1.0, **data)
    cfg = replace(cfg, epochs=120)
    seeds = [0, 1, 2, 3, 4]
    seen = []
    observe = bilevel_trainer._SeedRun.observe

    def spy(self, epoch, loss, val_acc, val_loss, test_acc, patience):
        if epoch == 0:
            seen.append((loss, val_acc, val_loss, test_acc))
        return observe(self, epoch, loss, val_acc, val_loss, test_acc, patience)

    monkeypatch.setattr(bilevel_trainer._SeedRun, "observe", spy)
    reports = bilevel_trainer._train_seeds(ds, cfg, seeds)
    assert "patience" in {rep.stop_reason for rep in reports}
    assert len(seen) == len(seeds)
    val_rows = np.flatnonzero(ds.val_mask)
    for seed, rep, (loss, val_acc, val_loss, test_acc) in zip(seeds, reports, seen):
        params = UgdgnnParams.init(np.random.default_rng(seed), cfg.k, 2, 2, cfg.alpha0)
        logits, _ = forward_logits(params, feature_powers(params, ds.ops, ds.x))
        probs = softmax_rows(logits)
        assert rep.val_accs[0] == val_acc == accuracy(logits, ds.labels, ds.val_mask)
        assert rep.test_accs[0] == test_acc == accuracy(logits, ds.labels, ds.test_mask)
        assert val_loss == bilevel_trainer._mean_nll(probs, ds.labels, val_rows)
        assert val_loss == cross_entropy_masked(probs, ds.labels, ds.val_mask)[0]
        assert rep.train_losses[0] == loss
        assert loss == cross_entropy_masked(probs, ds.labels, ds.train_mask)[0]


@pytest.mark.parametrize("empty", ["val_mask", "test_mask"])
def test_train_rejects_an_empty_val_or_test_mask_before_epoch_zero(monkeypatch, empty):
    ds = replace(small_sbm(), **{empty: np.zeros(140, dtype=bool)})

    def no_epoch(*args):
        raise AssertionError("an epoch ran")

    monkeypatch.setattr(bilevel_trainer, "feature_powers", no_epoch)
    monkeypatch.setattr(bilevel_trainer, "forward_logits", no_epoch)
    with pytest.raises(ValueError, match="^mask selects no rows$"):
        train(ds, TrainConfig(epochs=5, patience=5))


def test_accuracy_empty_mask_rejected():
    with pytest.raises(ValueError, match="no rows"):
        accuracy(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), np.zeros(3, dtype=bool))


@pytest.mark.parametrize("m", [2, 4])
def test_accuracy_mask_length_must_match_rows(m):
    with pytest.raises(ValueError, match="entries for 3 rows"):
        accuracy(np.zeros((3, 2)), np.zeros(3, dtype=np.int64), np.ones(m, dtype=bool))


def _dataset(rows=4, labels=4, mask=4):
    ops = er_ops(np.random.default_rng(0), 4)
    train_mask = np.zeros(mask, dtype=bool)
    return Dataset(ops, np.zeros((rows, 2)), np.zeros(labels, dtype=np.int64),
                   train_mask, np.zeros(4, dtype=bool), np.zeros(4, dtype=bool))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: _dataset(rows=3), "features/labels must cover every node"),
        (lambda: _dataset(labels=5), "features/labels must cover every node"),
        (lambda: _dataset(mask=3), "train_mask must be a length-4 boolean vector"),
        (lambda: UgdgnnParams.init(np.random.default_rng(0), 2, 2, 2, alpha0=1.0),
         r"alpha0 must lie strictly in \(0, 1\)"),
        (lambda: TrainConfig(epochs=0), "epochs and patience must be >= 1, K >= 0"),
        (lambda: TrainConfig(patience=0), "epochs and patience must be >= 1, K >= 0"),
        (lambda: TrainConfig(k=-1), "epochs and patience must be >= 1, K >= 0"),
        (lambda: TrainConfig(alpha0=0.0), r"alpha0 must lie strictly in \(0, 1\)"),
        (lambda: TrainConfig(feature_dropout=1.0), r"feature_dropout must lie in \[0, 1\)"),
        (lambda: sbm_generate(n=20, blocks=2, p_in=0.1, p_out=0.1, d=2, noise_sigma=1.0,
                              seed=0), "need p_in > p_out >= 0"),
    ],
    ids=["feature-rows", "label-count", "mask-length", "init-alpha0", "epochs", "patience",
         "k", "config-alpha0", "dropout", "sbm-p-out"],
)
def test_invalid_dataset_params_or_config_is_rejected_with_its_message(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class _GapStub:
    """A generator whose geometric gaps all equal ``gap``; counts its calls."""

    def __init__(self, gap):
        self.gap, self.calls = gap, 0

    def geometric(self, p, size):
        self.calls += 1
        return np.full(size, self.gap, dtype=np.int64)


def test_bernoulli_successes_carry_the_running_sum_across_chunks():
    # p = 1e-9 sizes a chunk at 16 gaps, so unit gaps take 63 chunks to
    # reach 1,000 trials, each starting after the last success of the one before
    stub = _GapStub(1)
    got = bilevel_trainer._bernoulli_successes(stub, 1000, 1e-9)
    np.testing.assert_array_equal(got, np.arange(1000))
    assert stub.calls == 63


def test_bernoulli_successes_of_saturated_gaps_do_not_wrap():
    stub = _GapStub(np.iinfo(np.int64).max)
    got = bilevel_trainer._bernoulli_successes(stub, 2**62, 1e-18)
    assert got.size == 0 and got.dtype == np.int64
