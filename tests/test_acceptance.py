"""Top-level acceptance checks, one test per shipped guarantee.

Each test prints a single summary line with the measured quantity so a
verbose run reads as a checklist. Tolerances are the contractual ones;
none of them are tuned to the current implementation.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import er_graph, er_ops, random_signal, random_spd
from gsdnn.bilevel_trainer import TrainConfig, UgdgnnParams, backward, depth_sweep, feature_powers
from gsdnn.bilevel_trainer import forward_logits as trainer_forward
from gsdnn.bilevel_trainer import (
    cross_entropy_masked,
    karate_dataset,
    sbm_generate,
    softmax_rows,
    train,
)
from gsdnn.graph_core import Graph, add_self_loops, normalize, spmm
from gsdnn.gsd_problem import (
    GsdSpec,
    NonNegIndicator,
    RidgeComplement,
    RowL21,
    closed_form_ppnp,
    gradient_smooth,
    objective,
)
from gsdnn.iter_solvers import SolveConfig, gd_run, proxgd_run, row_shrink
from gsdnn.spectral_filters import (
    appnp_exact_expansion,
    apply_polynomial_filter,
    gcnii_filter_weights,
    gcnii_linearized_apply,
    sgc_implied_theta,
    theta_to_ugdgnn,
)
from gsdnn.unrolled_gnn import (
    MODEL_KINDS,
    Appnp,
    equivalence_check,
    forward,
    sample_model,
)


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


# ---------------------------------------------------------------------------
# 1. every supported scheme equals its unrolled descent path


def test_criterion_1_unrolling_equivalence_suite():
    trials = 50
    tol = 1e-9
    started = time.perf_counter()
    worst = 0.0
    for mi, kind in enumerate(MODEL_KINDS):
        for t in range(trials):
            rng = np.random.default_rng((1202, mi, t))
            n = int(rng.integers(10, 51))
            ops = er_ops(rng, n, p=0.2)
            d = int(rng.integers(1, 5))
            model = sample_model(kind, rng, d)
            x = random_signal(rng, n, d)
            res = equivalence_check(model, ops, x, tol)
            worst = max(worst, res["max_abs_diff"])
            assert res["pass"], f"{kind} trial {t}: diff {res['max_abs_diff']:.3e}"
    elapsed = time.perf_counter() - started
    assert worst < tol
    assert elapsed < 30.0
    report(
        f"criterion 1 PASS: 7 schemes x {trials} instances, "
        f"worst diff {worst:.3e} < {tol:g}, {elapsed:.1f}s"
    )


# ---------------------------------------------------------------------------
# 2. the restart iteration converges to the closed form


def test_criterion_2_appnp_reaches_ppnp_limit():
    gamma = 0.1
    k = 400
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng((1203, seed))
        ops = er_ops(rng, 30, p=0.2)
        x = random_signal(rng, 30, 3)
        iterated = forward(Appnp(k=k, gamma=gamma), ops, x)
        exact = closed_form_ppnp(ops, x, gamma)
        worst = max(worst, float(np.max(np.abs(iterated - exact))))
    assert worst < 1e-8
    report(f"criterion 2 PASS: K={k} restart vs closed form, worst {worst:.3e} < 1e-8")


# ---------------------------------------------------------------------------
# 3. arbitrary polynomial filters are representable


def test_criterion_3_polynomial_filter_expressiveness():
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng((1204, trial))
        order = int(rng.integers(0, 7))
        theta = tuple(rng.uniform(-1.0, 1.0, size=order + 1))
        n = int(rng.integers(8, 30))
        ops = er_ops(rng, n, p=0.25)
        x = random_signal(rng, n, 2)
        model = theta_to_ugdgnn(theta)
        diff = float(
            np.max(np.abs(forward(model, ops, x) - apply_polynomial_filter(theta, ops, x)))
        )
        worst = max(worst, diff)
        assert diff < 1e-8, f"trial {trial}, order {order}: diff {diff:.3e}"
    assert theta_to_ugdgnn((1.0,)).gammas == (1.0,)
    assert theta_to_ugdgnn((0.0, 1.0)).gammas == (1.0, -1.0)
    report(f"criterion 3 PASS: 100 random filters (order <= 6), worst {worst:.3e} < 1e-8")


# ---------------------------------------------------------------------------
# 4. the fixed-scheme filter identities


def test_criterion_4_implied_and_constructed_filters():
    rng = np.random.default_rng(1205)
    ops = er_ops(rng, 25, p=0.25)
    x = random_signal(rng, 25, 2)

    worst_sgc = 0.0
    for k in (1, 2, 3):
        powered = x
        for _ in range(k):
            powered = spmm(ops, powered)
        via_theta = apply_polynomial_filter(sgc_implied_theta(k), ops, x)
        worst_sgc = max(worst_sgc, float(np.max(np.abs(via_theta - powered))))
    assert worst_sgc < 1e-10

    worst_appnp = 0.0
    for k, gamma in ((3, 0.2), (6, 0.1), (10, 0.5)):
        coeffs = appnp_exact_expansion(k, gamma)
        acc = np.zeros_like(x)
        p = x
        for j, c in enumerate(coeffs):
            if j > 0:
                p = spmm(ops, p)
            acc += c * p
        ref = forward(Appnp(k=k, gamma=gamma), ops, x)
        worst_appnp = max(worst_appnp, float(np.max(np.abs(acc - ref))))
    assert worst_appnp < 1e-12

    worst_gcnii = 0.0
    reproduced = 0
    trial = 0
    while reproduced < 10:
        trial += 1
        assert trial < 500, "rejection sampling stalled"
        rng2 = np.random.default_rng((1206, trial))
        order = int(rng2.integers(1, 5))
        theta = tuple(rng2.uniform(-1.0, 1.0, size=order + 1))
        try:
            plan = gcnii_filter_weights(theta)
        except ValueError:
            continue
        got = gcnii_linearized_apply(plan, ops, x)
        want = apply_polynomial_filter(theta, ops, x)
        worst_gcnii = max(worst_gcnii, float(np.max(np.abs(got - want))))
        reproduced += 1
    assert worst_gcnii < 1e-8
    report(
        "criterion 4 PASS: hop-power filters "
        f"{worst_sgc:.3e} < 1e-10, restart expansion {worst_appnp:.3e} < 1e-12, "
        f"constructed layer weights {worst_gcnii:.3e} < 1e-8"
    )


# ---------------------------------------------------------------------------
# 5. analytic gradients vs central finite differences


def _rel_gap(analytic: float, fd: float) -> float:
    if abs(fd) < 1e-12 and abs(analytic) < 1e-12:
        return 0.0
    return abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8)


def _objective_fd_worst(spec, h, x, ops, h_step=1e-6) -> float:
    grad = gradient_smooth(spec, h, x, ops)
    worst = 0.0
    for i in range(h.shape[0]):
        for j in range(h.shape[1]):
            hp = h.copy(); hp[i, j] += h_step
            hm = h.copy(); hm[i, j] -= h_step
            fd = (objective(spec, hp, x, ops) - objective(spec, hm, x, ops)) / (2 * h_step)
            worst = max(worst, _rel_gap(grad[i, j], fd))
    return worst


def _trainer_fd_worst(seed: int, tie: bool, with_pre: bool, h_step=1e-6) -> float:
    rng = np.random.default_rng((1207, seed))
    ops = er_ops(rng, 5, p=0.4)
    c = 2
    d_in = 4 if with_pre else c
    x = random_signal(rng, 5, d_in)
    labels = rng.integers(0, c, size=5)
    labels[:c] = np.arange(c)
    mask = np.array([True, True, True, False, True])
    params = UgdgnnParams.init(rng, k=2, d_in=d_in, num_classes=c, alpha0=0.3, tie_xi=tie)
    params.gammas[:] = rng.uniform(-0.5, 1.0, size=3)
    params.zetas[:] = rng.uniform(0.2, 0.8, size=3)
    params.xis[:] = rng.uniform(0.1, 0.9, size=3)
    q = feature_powers(params, ops, x)
    logits, p = trainer_forward(params, q)
    _, glog = cross_entropy_masked(softmax_rows(logits), labels, mask)
    grads = backward(params, q, p, glog)

    def full_loss():
        lg, _ = trainer_forward(params, q)
        return cross_entropy_masked(softmax_rows(lg), labels, mask)[0]

    pairs = [(params.gammas, grads.gammas), (params.zetas, grads.zetas)]
    if not tie:
        pairs.append((params.xis, grads.xis))
    pairs.extend((params.w[i], grads.w[i]) for i in range(3))
    if with_pre:
        pairs.extend([(params.pre_w, grads.pre_w), (params.pre_b, grads.pre_b)])

    worst = 0.0
    for arr, ganal in pairs:
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h_step
            fp = full_loss()
            arr[idx] = orig - h_step
            fm = full_loss()
            arr[idx] = orig
            worst = max(worst, _rel_gap(ganal[idx], (fp - fm) / (2 * h_step)))
    return worst


def test_criterion_5_gradients_match_finite_differences():
    worst = 0.0
    instances = 0
    for seed in range(12):
        rng = np.random.default_rng((1208, seed))
        n, d = 5, 2
        ops = er_ops(rng, n, p=0.4)
        x = random_signal(rng, n, d)
        h = random_signal(rng, n, d)
        reg = (None, RidgeComplement())[seed % 2]
        spec = GsdSpec(
            alpha=float(rng.uniform(0.0, 2.0)),
            beta=float(rng.uniform(0.0, 2.0)),
            t_alpha=random_spd(rng, d) / d,
            t_beta=random_spd(rng, d) / d,
            regularizer=reg,
        )
        worst = max(worst, _objective_fd_worst(spec, h, x, ops))
        instances += 1
    for seed in range(12):
        tie = seed % 2 == 0
        with_pre = (seed // 2) % 2 == 0
        worst = max(worst, _trainer_fd_worst(seed, tie, with_pre))
        instances += 1
    assert instances >= 20
    assert worst < 1e-5
    report(
        f"criterion 5 PASS: {instances} instances, worst relative gradient "
        f"error {worst:.3e} < 1e-5"
    )


# ---------------------------------------------------------------------------
# 6. solver behavior: descent, proximal map, feasibility


def test_criterion_6_solver_properties():
    worst_rise = -np.inf
    for trial in range(100):
        rng = np.random.default_rng((1209, trial))
        n = int(rng.integers(8, 31))
        d = int(rng.integers(1, 4))
        ops = er_ops(rng, n, p=0.25)
        x = random_signal(rng, n, d)
        kind = trial % 4
        reg = (None, RidgeComplement(), NonNegIndicator(), RowL21(weight=0.3))[kind]
        spec = GsdSpec(
            alpha=float(rng.uniform(0.1, 2.0)),
            beta=float(rng.uniform(0.1, 2.0)),
            t_alpha=random_spd(rng, d) / d,
            t_beta=random_spd(rng, d) / d,
            regularizer=reg,
        )
        runner = proxgd_run if kind >= 2 else gd_run
        h0 = np.abs(x) if kind == 2 else x
        rep = runner(spec, x, h0, ops, SolveConfig(max_iters=40, rel_tol=0.0))
        trace = [v for v in rep.objective_trace if math.isfinite(v)]
        rises = [b - a for a, b in zip(trace, trace[1:])]
        if rises:
            worst_rise = max(worst_rise, max(rises))
        assert all(r <= 1e-12 for r in rises), f"trial {trial}: rise {max(rises):.3e}"

    worst_prox = 0.0
    for trial in range(12):
        rng = np.random.default_rng((1210, trial))
        beta = float(rng.uniform(0.15, 0.85))
        x = rng.standard_normal((1, 2))
        v = rng.standard_normal((1, 2))

        def f(y, beta=beta, x=x, v=v):
            return (1 - beta) * np.linalg.norm(y - x[0]) + beta * np.sum((y - v[0]) ** 2)

        lo = np.minimum(x[0], v[0]) - 1.0
        hi = np.maximum(x[0], v[0]) + 1.0
        best, best_val = None, np.inf
        for a in np.linspace(lo[0], hi[0], 41):
            for b in np.linspace(lo[1], hi[1], 41):
                val = f(np.array([a, b]))
                if val < best_val:
                    best, best_val = np.array([a, b]), val
        refined = minimize(
            f, best, method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000},
        )
        got = row_shrink(v, x, (1 - beta) / (2 * beta))[0]
        worst_prox = max(worst_prox, float(np.linalg.norm(got - refined.x)))
    assert worst_prox < 1e-6

    min_entry = np.inf
    for trial in range(10):
        rng = np.random.default_rng((1211, trial))
        n = int(rng.integers(8, 25))
        ops = er_ops(rng, n, p=0.25)
        x = random_signal(rng, n, 2)
        spec = GsdSpec(
            alpha=1.0, beta=1.0, t_alpha=np.eye(2), t_beta=np.eye(2),
            regularizer=NonNegIndicator(),
        )
        rep = proxgd_run(
            spec, x, x, ops,
            SolveConfig(max_iters=25, rel_tol=0.0, capture_trajectory=True),
        )
        for h in rep.trajectory[1:]:
            min_entry = min(min_entry, float(h.min()))
    assert min_entry >= 0.0
    report(
        f"criterion 6 PASS: descent (worst rise {worst_rise:.3e} <= 1e-12), "
        f"proximal map vs oracle {worst_prox:.3e} < 1e-6, "
        f"projected iterates min {min_entry:.3e} >= 0"
    )


# ---------------------------------------------------------------------------
# 7. toy training beats the linear baseline


def _diffused_features(ds, k: int, alpha0: float) -> np.ndarray:
    acc = alpha0 * ds.x
    p = ds.x
    for j in range(1, k + 1):
        p = spmm(ds.ops, p)
        acc += alpha0 * (1.0 - alpha0) ** j * p
    return acc


def _logreg_oracle_acc(ds, k: int = 5, alpha0: float = 0.1) -> float:
    feats = _diffused_features(ds, k, alpha0)
    n, d = feats.shape
    c = ds.num_classes
    tr = ds.train_mask
    onehot = np.zeros((int(tr.sum()), c))
    onehot[np.arange(int(tr.sum())), ds.labels[tr]] = 1.0
    f_tr = feats[tr]
    lam = 5e-4

    def fun(flat):
        w = flat[: d * c].reshape(d, c)
        b = flat[d * c :]
        logits = f_tr @ w + b
        probs = softmax_rows(logits)
        loss = -np.mean(np.log(np.clip(probs[onehot.astype(bool)], 1e-300, None)))
        loss += lam * float(np.sum(w * w))
        g_logits = (probs - onehot) / f_tr.shape[0]
        gw = f_tr.T @ g_logits + 2 * lam * w
        gb = g_logits.sum(axis=0)
        return loss, np.concatenate([gw.ravel(), gb])

    x0 = np.zeros(d * c + c)
    sol = minimize(fun, x0, jac=True, method="L-BFGS-B", options={"maxiter": 500})
    w = sol.x[: d * c].reshape(d, c)
    b = sol.x[d * c :]
    preds = np.argmax(feats @ w + b, axis=1)
    te = ds.test_mask
    return float(np.mean(preds[te] == ds.labels[te]))


def test_criterion_7_sbm_training_beats_linear_oracle():
    ds = sbm_generate(n=200, blocks=2, p_in=0.1, p_out=0.01, d=2, noise_sigma=1.0, seed=0)
    cfg = TrainConfig()  # lr 5e-3, K=5, 500 epochs, patience 100
    rep = train(ds, cfg)
    oracle = _logreg_oracle_acc(ds, k=cfg.k, alpha0=cfg.alpha0)
    assert not rep.diverged
    assert len(rep.train_losses) <= 500
    assert rep.wall_clock_seconds < 60.0
    assert rep.test_acc_at_best >= 0.90
    assert rep.test_acc_at_best >= oracle - 0.02
    report(
        f"criterion 7 PASS: trained {rep.test_acc_at_best:.3f} >= 0.90 and >= "
        f"oracle {oracle:.3f} - 0.02, {len(rep.train_losses)} epochs, "
        f"{rep.wall_clock_seconds:.1f}s"
    )


# ---------------------------------------------------------------------------
# 8. no catastrophic degradation with depth


def test_criterion_8_depth_sweep_stays_flat():
    ds = sbm_generate(n=200, blocks=2, p_in=0.1, p_out=0.01, d=2, noise_sigma=1.0, seed=0)
    rows = depth_sweep(ds, TrainConfig(), ks=(1, 4, 5, 6, 7, 8, 9, 10), n_seeds=10)
    base = rows[0]["mean_acc"]
    deep = {r["k"]: r["mean_acc"] for r in rows[1:]}
    for k, acc in deep.items():
        assert acc >= base - 0.02, f"K={k}: {acc:.3f} vs baseline {base:.3f}"
    report(
        f"criterion 8 PASS: K=1 mean {base:.3f}; deep means "
        + ", ".join(f"K={k}:{acc:.3f}" for k, acc in sorted(deep.items()))
    )


# ---------------------------------------------------------------------------
# 9. operator identities on every test graph


def test_criterion_9_structural_identities():
    graphs = [karate_dataset().ops.graph]
    rng = np.random.default_rng(1212)
    for _ in range(12):
        graphs.append(er_graph(rng, int(rng.integers(5, 51)), p=0.2))
    graphs.append(add_self_loops(Graph(4, ((0, 1), (1, 2), (2, 3)))))
    graphs.append(add_self_loops(Graph(6, tuple((0, i) for i in range(1, 6)))))
    graphs.append(
        add_self_loops(Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5))))
    )

    worst_factor = 0.0
    worst_band = 0.0
    for g in graphs:
        ops = normalize(g)
        a = ops.a_hat.toarray()
        b = ops.b_hat.toarray()
        lap = np.eye(g.num_nodes) - a
        worst_factor = max(worst_factor, float(np.max(np.abs(b.T @ b - lap))))
        eigs = np.linalg.eigvalsh(lap)
        worst_band = max(worst_band, float(-eigs.min()), float(eigs.max() - 2.0))
    assert worst_factor < 1e-12
    assert worst_band <= 1e-10
    report(
        f"criterion 9 PASS: {len(graphs)} graphs, incidence factorization "
        f"{worst_factor:.3e} < 1e-12, spectrum within [0,2] by {worst_band:.3e}"
    )
