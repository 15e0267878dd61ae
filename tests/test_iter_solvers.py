import math
import os
import signal
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from gsdnn import iter_solvers
from gsdnn.graph_core import Graph, add_self_loops, load_edge_list, normalize
from gsdnn.gsd_problem import (
    GsdSpec,
    NonNegIndicator,
    RidgeComplement,
    RowL21,
    _laplacian,
    _layer_of,
    _smooth_grad,
    closed_form_ppnp,
    smoothness_bound,
)
from gsdnn.iter_solvers import (
    SolveConfig,
    SolveReport,
    _layer_step,
    gd_run,
    prox_nonneg,
    proxgd_run,
    row_shrink,
)

from conftest import er_ops, random_signal, random_spd, random_symmetric


def eye_spec(d, alpha=1.0, beta=1.0, reg=None):
    return GsdSpec(alpha=alpha, beta=beta, t_alpha=np.eye(d), t_beta=np.eye(d), regularizer=reg)


class TestConfig:
    def test_zero_stepsize_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(max_iters=10, stepsize=0.0)

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(max_iters=10, stepsize="fast")

    def test_zero_iters_rejected(self):
        with pytest.raises(ValueError):
            SolveConfig(max_iters=0)


class TestGdRun:
    def test_stationary_start(self):
        rng = np.random.default_rng(0)
        ops = er_ops(rng, 5)
        x = random_signal(rng, 5, 2)
        cfg = SolveConfig(max_iters=1)
        report = gd_run(eye_spec(2, alpha=1.0, beta=0.0), x, x, ops, cfg)
        np.testing.assert_allclose(report.final, x)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (1e308, 1e308)], ids=["zero", "inf"])
    def test_auto_stepsize_needs_a_finite_nonzero_curvature_bound(self, alpha, beta):
        rng = np.random.default_rng(0)
        ops, x = er_ops(rng, 5), random_signal(rng, 5, 2)
        with pytest.raises(ValueError, match="zero or not finite; pass an explicit --stepsize"):
            gd_run(eye_spec(2, alpha, beta), x, x, ops, SolveConfig(max_iters=3))

    def test_nonsmooth_spec_rejected(self):
        rng = np.random.default_rng(1)
        ops = er_ops(rng, 4)
        x = random_signal(rng, 4, 2)
        with pytest.raises(ValueError, match="proxgd_run"):
            gd_run(eye_spec(2, reg=NonNegIndicator()), x, x, ops, SolveConfig(max_iters=1))

    def test_converges_to_ppnp_solution(self):
        rng = np.random.default_rng(2)
        ops = er_ops(rng, 12)
        x = random_signal(rng, 12, 3)
        gamma = 0.1
        spec = eye_spec(3, alpha=gamma, beta=1 - gamma)
        cfg = SolveConfig(max_iters=400, rel_tol=0.0)
        report = gd_run(spec, x, x, ops, cfg)
        target = closed_form_ppnp(ops, x, gamma)
        assert np.linalg.norm(report.final - target) < 1e-6

    def test_one_step_matches_hand_expansion(self):
        # Two-node path with loops: A_hat = [[.5,.5],[.5,.5]].
        # With alpha=0.7, beta=0.3, T=I, x=[[1],[-2]], h0=[[0.5],[1]]:
        #   (I - A_hat) h0 = [[-0.25],[0.25]]
        #   grad = 1.4*[[-0.5],[3]] + 0.6*[[-0.25],[0.25]] = [[-0.85],[4.35]]
        #   h1 = h0 - 0.2*grad = [[0.67],[0.13]]
        from gsdnn.graph_core import add_self_loops, load_edge_list, normalize

        ops = normalize(add_self_loops(load_edge_list("0 1")))
        x = np.array([[1.0], [-2.0]])
        h0 = np.array([[0.5], [1.0]])
        spec = GsdSpec(alpha=0.7, beta=0.3, t_alpha=np.eye(1), t_beta=np.eye(1))
        report = gd_run(spec, x, h0, ops, SolveConfig(max_iters=1, stepsize=0.2, rel_tol=0.0))
        np.testing.assert_allclose(report.final, [[0.67], [0.13]], atol=1e-12)

    def test_trajectory_capture(self):
        rng = np.random.default_rng(3)
        ops = er_ops(rng, 4)
        x = random_signal(rng, 4, 2)
        cfg = SolveConfig(max_iters=5, rel_tol=0.0, capture_trajectory=True)
        report = gd_run(eye_spec(2), x, np.zeros_like(x), ops, cfg)
        assert len(report.trajectory) == 6
        np.testing.assert_array_equal(report.trajectory[-1], report.final)

    def test_report_serializes(self):
        rng = np.random.default_rng(4)
        ops = er_ops(rng, 4)
        x = random_signal(rng, 4, 1)
        report = gd_run(eye_spec(1), x, x, ops, SolveConfig(max_iters=3))
        doc = report.to_json_dict()
        assert set(doc) == {"converged", "iterations", "objective_trace", "stop_reason"}
        assert doc["stop_reason"] == report.stop_reason

    def test_stop_reasons(self):
        rng = np.random.default_rng(4)
        ops = er_ops(rng, 6)
        x = random_signal(rng, 6, 2)
        budget = gd_run(eye_spec(2), x, x, ops, SolveConfig(max_iters=2, rel_tol=0.0))
        assert (budget.stop_reason, budget.converged, budget.iterations_used) == (
            "max_iters", False, 2)
        plateau = gd_run(eye_spec(2), x, x, ops, SolveConfig(max_iters=5000))
        assert (plateau.stop_reason, plateau.converged) == ("plateau", True)
        assert plateau.iterations_used < 5000


class TestProxNonneg:
    def test_fixed_point_on_nonneg(self):
        m = np.array([[0.0, 2.0], [1.0, 3.0]])
        np.testing.assert_array_equal(prox_nonneg(m), m)

    def test_clips_negatives(self):
        np.testing.assert_array_equal(prox_nonneg(np.array([[-1.0, 2.0]])), [[0.0, 2.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 3))
        once = prox_nonneg(m)
        np.testing.assert_array_equal(prox_nonneg(once), once)


class TestProxRowL21:
    def test_zero_residual_returns_anchor(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(row_shrink(x.copy(), x, (1 - 0.5) / (2 * 0.5)), x)

    def test_small_residual_fully_shrunk(self):
        # Threshold is (1-beta)/(2 beta) = 0.5 at beta = 0.5; a residual of
        # norm 0.3 sits inside it, so the row collapses onto the anchor.
        x = np.array([[1.0, 1.0]])
        v = x + np.array([[0.3, 0.0]])
        np.testing.assert_allclose(row_shrink(v, x, (1 - 0.5) / (2 * 0.5)), x)

    def test_matches_numeric_prox_oracle(self):
        # Oracle: brute-force minimization of
        #   (1-beta) ||y - x|| + beta ||y - v||^2
        # over a grid followed by simplex refinement.
        rng = np.random.default_rng(6)
        for trial in range(12):
            beta = float(rng.uniform(0.15, 0.85))
            x = rng.standard_normal((1, 2))
            v = rng.standard_normal((1, 2))

            def f(y, beta=beta, x=x, v=v):
                return (1 - beta) * np.linalg.norm(y - x[0]) + beta * np.sum((y - v[0]) ** 2)

            lo = np.minimum(x[0], v[0]) - 1.0
            hi = np.maximum(x[0], v[0]) + 1.0
            grid_a = np.linspace(lo[0], hi[0], 61)
            grid_b = np.linspace(lo[1], hi[1], 61)
            best, best_val = None, np.inf
            for a in grid_a:
                for b in grid_b:
                    val = f(np.array([a, b]))
                    if val < best_val:
                        best, best_val = np.array([a, b]), val
            refined = minimize(f, best, method="Nelder-Mead",
                               options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 2000})
            got = row_shrink(v, x, (1 - beta) / (2 * beta))[0]
            assert np.linalg.norm(got - refined.x) < 1e-6


class TestProxGdRun:
    def test_feasible_stationary_point(self):
        rng = np.random.default_rng(7)
        ops = er_ops(rng, 5)
        x = np.abs(random_signal(rng, 5, 2))
        spec = eye_spec(2, alpha=1.0, beta=0.0, reg=NonNegIndicator())
        report = proxgd_run(spec, x, x.copy(), ops, SolveConfig(max_iters=5))
        np.testing.assert_allclose(report.final, x, atol=1e-14)

    def test_smooth_spec_rejected(self):
        rng = np.random.default_rng(8)
        ops = er_ops(rng, 4)
        x = random_signal(rng, 4, 2)
        with pytest.raises(ValueError, match="gd_run"):
            proxgd_run(eye_spec(2), x, x, ops, SolveConfig(max_iters=1))
        with pytest.raises(ValueError, match="gd_run"):
            proxgd_run(eye_spec(2, reg=RidgeComplement()), x, x, ops, SolveConfig(max_iters=1))

    def test_relu_iterates_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, d = int(rng.integers(3, 20)), int(rng.integers(1, 4))
            ops = er_ops(rng, n)
            x = random_signal(rng, n, d)
            spec = GsdSpec(
                alpha=float(rng.uniform(0.1, 2)),
                beta=float(rng.uniform(0.1, 2)),
                t_alpha=random_spd(rng, d),
                t_beta=random_spd(rng, d),
                regularizer=NonNegIndicator(),
            )
            cfg = SolveConfig(max_iters=30, rel_tol=0.0, capture_trajectory=True)
            report = proxgd_run(spec, x, x.copy(), ops, cfg)
            for h in report.trajectory[1:]:
                assert np.min(h) >= 0.0

    def test_row_l21_descends(self):
        rng = np.random.default_rng(10)
        ops = er_ops(rng, 10)
        x = random_signal(rng, 10, 3)
        spec = eye_spec(3, alpha=0.0, beta=0.4, reg=RowL21(weight=0.6))
        report = proxgd_run(spec, x, x + random_signal(rng, 10, 3), ops,
                            SolveConfig(max_iters=50, rel_tol=0.0))
        trace = np.array(report.objective_trace)
        assert np.all(np.diff(trace) <= 1e-12)


class TestSharedWork:
    """A solver iteration is one unrolled layer: one A_hat product per
    iterate, shared by the objective trace and the next gradient."""

    @pytest.mark.parametrize(
        "reg", [None, RidgeComplement(), NonNegIndicator(), RowL21(weight=0.3)]
    )
    def test_one_spmm_per_iterate(self, spmm_calls, reg):
        rng = np.random.default_rng(21)
        ops = er_ops(rng, 12)
        x = random_signal(rng, 12, 2)
        spec = GsdSpec(
            alpha=0.5,
            beta=0.8,
            t_alpha=random_spd(rng, 2) / 4.0,
            t_beta=random_symmetric(rng, 2, 0.3) + np.eye(2),
            regularizer=reg,
        )
        run = proxgd_run if isinstance(reg, (NonNegIndicator, RowL21)) else gd_run
        report = run(spec, x, x, ops, SolveConfig(max_iters=30, rel_tol=1e-12))
        assert report.iterations_used > 1
        assert len(spmm_calls) == report.iterations_used + 1


class TestBufferedIterate:
    """The solvers run each iterate in buffers they own: the caller's arrays
    are never written, and no later iteration writes over what the report
    holds."""

    REGS = [(None, gd_run), (RidgeComplement(), gd_run), (NonNegIndicator(), proxgd_run),
            (RowL21(weight=0.3), proxgd_run)]

    @staticmethod
    def _problem(reg, identity):
        rng = np.random.default_rng(23)
        ops = er_ops(rng, 14)
        x = random_signal(rng, 14, 3)
        t_alpha, t_beta = (np.eye(3), np.eye(3)) if identity else (
            random_spd(rng, 3) / 4.0, random_symmetric(rng, 3, 0.3) + np.eye(3))
        spec = GsdSpec(alpha=0.5, beta=0.8, t_alpha=t_alpha, t_beta=t_beta, regularizer=reg)
        return rng, ops, x, spec

    @pytest.mark.parametrize("reg, run", REGS)
    def test_shared_x_and_h0_are_left_bit_unchanged(self, reg, run):
        _, ops, x, spec = self._problem(reg, identity=False)
        before = x.tobytes()
        report = run(spec, x, x, ops, SolveConfig(max_iters=8, rel_tol=0.0))
        assert x.tobytes() == before
        assert not np.shares_memory(report.final, x)

    @pytest.mark.parametrize("reg, run", REGS)
    def test_report_arrays_are_distinct_and_never_overwritten(self, reg, run):
        _, ops, x, spec = self._problem(reg, identity=True)
        cfg = SolveConfig(max_iters=6, rel_tol=0.0, capture_trajectory=True)
        report = run(spec, x, x, ops, cfg)
        held = [report.final, *report.trajectory]
        for i, a in enumerate(held):
            assert not any(np.shares_memory(a, b) for b in held[i + 1:])
        for k in range(1, 7):
            short = run(spec, x, x, ops, SolveConfig(max_iters=k, rel_tol=0.0))
            np.testing.assert_array_equal(report.trajectory[k], short.final)
        np.testing.assert_array_equal(report.final, report.trajectory[-1])

    @pytest.mark.parametrize("identity", [True, False], ids=["T=None", "general T"])
    @pytest.mark.parametrize("reg", [None, RidgeComplement(), NonNegIndicator(), RowL21(0.3)])
    def test_buffered_step_matches_the_allocating_formula(self, reg, identity):
        rng, ops, x, spec = self._problem(reg, identity)
        layer = _layer_of(spec, 1.0 / smoothness_bound(spec))
        assert (layer.t_alpha is None) == identity
        h = x + random_signal(rng, 14, 3, 0.5)
        lap_h = _laplacian(h, ops, layer.beta)
        want = h - layer.eta * _smooth_grad(layer, h, x, lap_h)
        if isinstance(reg, NonNegIndicator):
            want = prox_nonneg(want)
        elif isinstance(reg, RowL21):
            want = row_shrink(want, x, layer.eta * reg.weight)
        out = np.full_like(h, np.nan)  # stale contents
        h_before = h.copy()
        diff = h - x  # the solver forms later terms in the spent H - X
        got = _layer_step(layer, h, x, lap_h, diff, out=out, work=diff)
        assert got is out
        np.testing.assert_array_equal(h, h_before)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


class TestDivergence:
    # A 4-cycle at stepsize 10, far above 1/Lambda: every step multiplies
    # the error, and the objective overflows after about a hundred steps.
    def setup_method(self):
        self.ops = normalize(add_self_loops(load_edge_list("0 1\n1 2\n2 3\n3 0")))
        self.x = np.array([[1.0, 2.0], [-1.0, 0.5], [0.3, -2.0], [1.5, 1.0]])
        self.cfg = SolveConfig(max_iters=2000, stepsize=10.0, rel_tol=0.0)

    def check_stopped_at_first_overflow(self, report):
        assert not report.converged
        assert report.stop_reason == "diverged"
        assert report.iterations_used < self.cfg.max_iters
        assert len(report.objective_trace) == report.iterations_used + 1
        assert not math.isfinite(report.objective_trace[-1])
        assert all(math.isfinite(v) for v in report.objective_trace[:-1])

    def test_gd_stops_at_first_nonfinite_objective(self):
        spec = eye_spec(2, alpha=0.2, beta=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            report = gd_run(spec, self.x, self.x, self.ops, self.cfg)
        self.check_stopped_at_first_overflow(report)

    def test_divergence_on_the_last_allowed_step_is_reported_as_diverged(self):
        spec = eye_spec(2, alpha=0.2, beta=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            first = gd_run(spec, self.x, self.x, self.ops, self.cfg)
            cfg = SolveConfig(max_iters=first.iterations_used, stepsize=10.0, rel_tol=0.0)
            report = gd_run(spec, self.x, self.x, self.ops, cfg)
        assert (report.stop_reason, report.iterations_used) == ("diverged", cfg.max_iters)

    def test_proxgd_stops_at_first_nonfinite_objective(self):
        spec = eye_spec(2, alpha=0.2, beta=1.0, reg=RowL21(weight=0.05))
        with np.errstate(over="ignore", invalid="ignore"):
            report = proxgd_run(spec, self.x, self.x, self.ops, self.cfg)
        self.check_stopped_at_first_overflow(report)

    def test_infeasible_start_is_not_divergence(self):
        # x has negative entries, so the nonnegativity indicator makes the
        # starting objective inf; the run goes on from the feasible iterates
        spec = eye_spec(2, alpha=0.2, beta=1.0, reg=NonNegIndicator())
        cfg = SolveConfig(max_iters=10, rel_tol=0.0)
        report = proxgd_run(spec, self.x, self.x, self.ops, cfg)
        assert report.objective_trace[0] == math.inf
        assert report.iterations_used == 10
        assert all(math.isfinite(v) for v in report.objective_trace[1:])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_prox_operators_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 10)), int(rng.integers(1, 5))
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((n, d))
    assert np.linalg.norm(prox_nonneg(a) - prox_nonneg(b)) <= np.linalg.norm(a - b) + 1e-12
    anchor = rng.standard_normal((n, d))
    beta = float(rng.uniform(0.05, 0.95))
    pa = row_shrink(a, anchor, (1 - beta) / (2 * beta))
    pb = row_shrink(b, anchor, (1 - beta) / (2 * beta))
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), d=st.integers(1, 4))
def test_gd_monotone_descent_at_auto_stepsize(seed, n, d):
    rng = np.random.default_rng(seed)
    ops = er_ops(rng, n)
    x = random_signal(rng, n, d)
    h0 = random_signal(rng, n, d, scale=2.0)
    spec = GsdSpec(
        alpha=float(rng.uniform(0.0, 2.0)),
        beta=float(rng.uniform(0.1, 2.0)),
        t_alpha=random_spd(rng, d),
        t_beta=random_symmetric(rng, d),
    )
    report = gd_run(spec, x, h0, ops, SolveConfig(max_iters=40, rel_tol=0.0))
    trace = np.array(report.objective_trace)
    assert np.all(np.diff(trace) <= 1e-12 * np.maximum(1.0, np.abs(trace[:-1])))


def test_strict_convexity_gives_unique_limit():
    rng = np.random.default_rng(11)
    ops = er_ops(rng, 8)
    x = random_signal(rng, 8, 2)
    spec = GsdSpec(
        alpha=0.9, beta=0.7,
        t_alpha=random_spd(rng, 2),
        t_beta=random_symmetric(rng, 2),
    )
    cfg = SolveConfig(max_iters=20000, rel_tol=1e-15)
    a = gd_run(spec, x, random_signal(rng, 8, 2, scale=3.0), ops, cfg)
    b = gd_run(spec, x, random_signal(rng, 8, 2, scale=3.0), ops, cfg)
    assert np.linalg.norm(a.final - b.final) < 1e-6


def test_row_shrink_rejects_shapes_that_differ():
    with pytest.raises(ValueError, match=r"shapes differ: \(3, 2\) vs \(2, 2\)"):
        row_shrink(np.zeros((3, 2)), np.zeros((2, 2)), 0.5)


def _star_with_middle_hub(n):
    """An n-node star whose hub, node n // 2, holds A_hat's nnz midpoint."""
    hub = n // 2
    return normalize(Graph(num_nodes=n, edges=[(hub, i) for i in range(n) if i != hub]))


class TestRowSplit:
    """With the node bound at 0, a forked child steps the rows from A_hat's
    nnz midpoint on in lockstep with this process; H, the trace, the
    iteration count and the stop reason are the one process's, bit for bit."""

    REGS = TestBufferedIterate.REGS

    @pytest.fixture(autouse=True)
    def split_at_any_size(self, monkeypatch):
        monkeypatch.setattr(iter_solvers, "_DESCENT_SPLIT_MIN_NODES", 0)

    @staticmethod
    def check_split_is_serial(monkeypatch, run, spec, x, ops, cfg, h0=None):
        h0 = x if h0 is None else h0
        split = run(spec, x, h0, ops, cfg)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            serial = run(spec, x, h0, ops, cfg)
        assert split.forked_rows == ops.num_nodes - ops.row_halves[0] > 0
        assert serial.forked_rows == 0
        assert np.array_equal(split.final, serial.final)
        assert split.objective_trace == serial.objective_trace
        assert (split.iterations_used, split.stop_reason) == (
            serial.iterations_used, serial.stop_reason)
        assert split.final.flags.owndata and split.final.flags.writeable
        return split

    @pytest.mark.parametrize("reg, run", REGS)
    def test_every_regularizer(self, monkeypatch, reg, run):
        rng, ops, x, spec = TestBufferedIterate._problem(reg, identity=True)
        h0 = x + random_signal(rng, 14, 3, 0.5)
        report = self.check_split_is_serial(monkeypatch, run, spec, x, ops,
                                            SolveConfig(max_iters=60, rel_tol=1e-9), h0)
        assert report.iterations_used > 1

    @pytest.mark.parametrize("reg, run", REGS)
    def test_a_t_that_is_not_the_identity_runs_in_one_process(self, monkeypatch, reg, run):
        """Both processes would run the M T products on OpenBLAS threads."""
        rng, ops, x, _ = TestBufferedIterate._problem(reg, identity=True)
        spec = GsdSpec(0.5, 0.8, np.eye(3), random_spd(rng, 3) / 4.0, reg)
        cfg = SolveConfig(max_iters=20, rel_tol=0.0)
        report = run(spec, x, x, ops, cfg)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            serial = run(spec, x, x, ops, cfg)
        assert report.forked_rows == 0
        assert np.array_equal(report.final, serial.final)

    @pytest.mark.parametrize("cfg, stop_reason", [
        (SolveConfig(max_iters=500, rel_tol=1e-8), "plateau"),
        (SolveConfig(max_iters=7, rel_tol=0.0), "max_iters"),
        (SolveConfig(max_iters=2000, stepsize=10.0, rel_tol=0.0), "diverged"),
    ], ids=["plateau", "max-iters", "diverged"])
    def test_every_stop_reason(self, monkeypatch, cfg, stop_reason):
        rng = np.random.default_rng(31)
        ops, x = er_ops(rng, 17), random_signal(rng, 17, 2)
        report = self.check_split_is_serial(monkeypatch, gd_run, eye_spec(2, 0.2, 1.0), x, ops,
                                            cfg)
        assert report.stop_reason == stop_reason

    @pytest.mark.parametrize("ops", [
        pytest.param(er_ops(np.random.default_rng(32), 23), id="odd-n"),
        pytest.param(normalize(Graph(num_nodes=2, edges=[(0, 1)])), id="n=2"),
        pytest.param(normalize(Graph(num_nodes=2, edges=[])), id="n=2-loops-only"),
        pytest.param(_star_with_middle_hub(41), id="star-hub-at-midpoint"),
    ])
    @pytest.mark.parametrize("reg, run", [REGS[0], REGS[3]], ids=["gd", "proxgd-l21"])
    def test_graph_shapes(self, monkeypatch, ops, reg, run):
        x = random_signal(np.random.default_rng(33), ops.num_nodes, 3)
        spec = eye_spec(3, 0.2, 1.0, reg)
        self.check_split_is_serial(monkeypatch, run, spec, x, ops,
                                   SolveConfig(max_iters=40, rel_tol=1e-12))

    def test_star_hub_row_holds_the_midpoint(self):
        ops = _star_with_middle_hub(41)
        mid = ops.row_halves[0]
        hub_start, hub_stop = ops.a_hat.indptr[20:22]
        assert mid == 20 and hub_start <= ops.a_hat.nnz // 2 < hub_stop

    def test_this_process_makes_one_half_product_per_iterate(self, monkeypatch, spmm_calls):
        rng = np.random.default_rng(38)
        ops, x = er_ops(rng, 15), random_signal(rng, 15, 2)
        report = gd_run(eye_spec(2, 0.2, 1.0), x, x, ops, SolveConfig(max_iters=9, rel_tol=0.0))
        assert report.forked_rows == 15 - ops.row_halves[0]
        assert spmm_calls == [(15, 2)] * (report.iterations_used + 1)

    def test_beta_zero_needs_no_product(self, monkeypatch):
        rng = np.random.default_rng(34)
        ops, x = er_ops(rng, 9), random_signal(rng, 9, 2)
        self.check_split_is_serial(monkeypatch, gd_run, eye_spec(2, 1.0, 0.0), x, ops,
                                   SolveConfig(max_iters=5, stepsize=0.3, rel_tol=0.0),
                                   x + 1.0)

    def test_below_the_node_bound_and_with_a_trajectory_one_process_runs(self, monkeypatch):
        rng = np.random.default_rng(35)
        ops, x = er_ops(rng, 12), random_signal(rng, 12, 2)
        spec = eye_spec(2, 0.2, 1.0)
        traced = gd_run(spec, x, x, ops, SolveConfig(max_iters=5, capture_trajectory=True))
        monkeypatch.setattr(iter_solvers, "_DESCENT_SPLIT_MIN_NODES", 13)
        small = gd_run(spec, x, x, ops, SolveConfig(max_iters=5))
        assert traced.forked_rows == small.forked_rows == 0
        np.testing.assert_array_equal(traced.final, small.final)

    def test_an_h0_not_in_c_order_runs_in_one_process(self, monkeypatch):
        """The shared H is C-ordered; one process's copy of a Fortran-ordered
        h0 keeps its order, and the reductions over it differ in the last
        bits."""
        rng = np.random.default_rng(39)
        ops, x = er_ops(rng, 30), random_signal(rng, 30, 4)
        h0 = np.asfortranarray(x + random_signal(rng, 30, 4, 0.3))
        spec = eye_spec(4, 0.2, 1.0, RowL21(0.05))
        cfg = SolveConfig(max_iters=20, rel_tol=0.0)
        report = proxgd_run(spec, x, h0, ops, cfg)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            serial = proxgd_run(spec, x, h0, ops, cfg)
        assert report.forked_rows == 0
        assert np.array_equal(report.final, serial.final)
        assert report.objective_trace == serial.objective_trace

    @pytest.mark.parametrize("slow", ["child", "parent"])
    def test_a_half_that_lags_is_waited_for(self, monkeypatch, slow):
        """Each process reads the other's rows of H and (I - A_hat) H only
        once they are written, and writes its rows of H only once the other
        has read H for its objective: a half that lags by a millisecond
        before every step, product and objective changes no bit."""
        rng = np.random.default_rng(40)
        ops, x = er_ops(rng, 40), random_signal(rng, 40, 3)
        spec, cfg = eye_spec(3, 0.2, 1.0, RowL21(0.05)), SolveConfig(max_iters=15, rel_tol=0.0)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            serial = proxgd_run(spec, x, x, ops, cfg)
        parent = os.getpid()

        def lagging(real):
            def call(*args, **kwargs):
                if (os.getpid() != parent) == (slow == "child"):
                    time.sleep(0.001)
                return real(*args, **kwargs)
            return call

        for name in ("_layer_step", "spmm", "_objective_value"):
            monkeypatch.setattr(iter_solvers, name, lagging(getattr(iter_solvers, name)))
        report = proxgd_run(spec, x, x, ops, cfg)
        assert report.forked_rows > 0
        assert np.array_equal(report.final, serial.final)
        assert report.objective_trace == serial.objective_trace

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_an_error_in_either_half_reruns_the_solve_here(self, monkeypatch, where):
        rng = np.random.default_rng(36)
        ops, x = er_ops(rng, 12), random_signal(rng, 12, 2)
        spec = eye_spec(2, 0.2, 1.0)
        cfg = SolveConfig(max_iters=9, rel_tol=0.0)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            serial = gd_run(spec, x, x, ops, cfg)
        real, parent, steps, failed = iter_solvers._layer_step, os.getpid(), [], []

        def fails_once_in(*args, **kwargs):
            steps.append(os.getpid())
            if (os.getpid() != parent) == (where == "child") and len(steps) == 4 and not failed:
                failed.append(1)
                raise MemoryError("one half fails")
            return real(*args, **kwargs)

        monkeypatch.setattr(iter_solvers, "_layer_step", fails_once_in)
        report = gd_run(spec, x, x, ops, cfg)
        assert report.forked_rows == 0
        np.testing.assert_array_equal(report.final, serial.final)
        assert report.objective_trace == serial.objective_trace

    def test_a_child_that_fails_after_its_last_step_reruns_the_solve_here(self, monkeypatch):
        """Its rows are all written by then, but a child that does not exit
        with status 0 is a failed child."""
        rng = np.random.default_rng(37)
        ops, x = er_ops(rng, 12), random_signal(rng, 12, 2)
        real, parent = iter_solvers.SolveReport, os.getpid()

        def report_here_only(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError("the child fails on its way out")
            return real(*args, **kwargs)

        monkeypatch.setattr(iter_solvers, "SolveReport", report_here_only)
        report = gd_run(eye_spec(2, 0.2, 1.0), x, x, ops, SolveConfig(max_iters=6))
        assert report.forked_rows == 0 and report.iterations_used == 6

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_halves_whose_stopping_tests_disagree_rerun_in_one_process(self, monkeypatch,
                                                                        where):
        """An objective that drifts in one process only (by a hash of H, so
        that it never plateaus there) stops the halves at different
        iterates. The half that steps on meets EOF at its next barrier: the
        child's half once this process has closed its end of the socket.
        The solve then reruns here; the alarm fails a run that hangs."""
        rng = np.random.default_rng(41)
        ops, x = er_ops(rng, 20), random_signal(rng, 20, 2)
        spec, cfg = eye_spec(2, 0.2, 1.0), SolveConfig(max_iters=80, rel_tol=1e-6)
        real, parent = iter_solvers._objective_value, os.getpid()

        def drifting(layer, h, *args):
            f = real(layer, h, *args)
            if (os.getpid() != parent) == (where == "child"):
                f += zlib.crc32(h.tobytes())
            return f

        def hung(signum, frame):
            pytest.fail("the split solve hung")

        monkeypatch.setattr(iter_solvers, "_objective_value", drifting)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            serial = gd_run(spec, x, x, ops, cfg)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            report = gd_run(spec, x, x, ops, cfg)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert serial.stop_reason == ("plateau" if where == "child" else "max_iters")
        assert report.forked_rows == 0
        assert np.array_equal(report.final, serial.final)
        assert report.objective_trace == serial.objective_trace

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
    def test_no_shared_mapping_outlives_a_split_solve(self, monkeypatch):
        """H and (I - A_hat) H are anonymous shared mappings, which
        /proc/self/maps lists as /dev/zero (deleted). Each goes with its last
        view, whether the split finishes, its child fails or its half here
        raises."""
        def shared_mappings():
            with open("/proc/self/maps") as maps:
                return sum(line.rstrip().endswith("/dev/zero (deleted)") for line in maps)

        rng = np.random.default_rng(42)
        ops, x = er_ops(rng, 12), random_signal(rng, 12, 2)
        spec, cfg = eye_spec(2, 0.2, 1.0), SolveConfig(max_iters=6, rel_tol=0.0)
        real, parent, before, during = iter_solvers._layer_step, os.getpid(), shared_mappings(), []

        def counting(*args, **kwargs):
            if os.getpid() == parent:
                during.append(shared_mappings())
            return real(*args, **kwargs)

        monkeypatch.setattr(iter_solvers, "_layer_step", counting)
        assert gd_run(spec, x, x, ops, cfg).forked_rows > 0
        assert shared_mappings() == before and max(during) == before + 2
        for where in ("child", "parent"):
            failed = []

            def fails_once_in(*args, **kwargs):
                if (os.getpid() != parent) == (where == "child") and not failed:
                    failed.append(1)
                    raise MemoryError("one half fails")
                return real(*args, **kwargs)

            monkeypatch.setattr(iter_solvers, "_layer_step", fails_once_in)
            assert gd_run(spec, x, x, ops, cfg).forked_rows == 0
            assert shared_mappings() == before, where
