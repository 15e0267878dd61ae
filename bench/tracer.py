"""Outside-in layer tracing for gsdnn.

``Tracer.install`` wraps every function listed in a layer module's
``__all__`` at every ``gsdnn.*`` attribute bound to it (functions are
imported by name into other modules, so patching the defining module alone
would miss most calls), plus ``Graph`` construction and the CLI's ``cmd_*``
handlers. Each wrapper appends a span [name, layer, start, end, parent,
note] to an in-memory list; ``note`` is what a result hook extracts, such as
the iterations a solve used. Nothing is written until the run ends.

``layer_metrics`` turns the spans into the per-layer metrics. A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

LAYERS = ("graph_core", "gsd_problem", "iter_solvers", "unrolled_gnn",
          "spectral_filters", "bilevel_trainer", "cli")

NAME, LAYER, START, END, PARENT, NOTE = range(6)


def _spmm_note(args, kwargs, result):
    """Computed bytes and flops of one A_hat @ X: the CSR arrays are read
    once, X read once and the product written once (cache misses ignored)."""
    a = (*args, *kwargs.values())[0].a_hat
    d = result.shape[1] if result.ndim == 2 else 1
    n = a.shape[0]
    nbytes = (a.nnz * (a.data.itemsize + a.indices.itemsize)
              + (n + 1) * a.indptr.itemsize + 2 * n * d * 8)
    return nbytes, 2 * a.nnz * d


def _train_note(args, kwargs, report):
    return len(report.train_losses), report.best_epoch


NOTES = {
    "spmm": _spmm_note,
    "gd_run": lambda a, k, report: report.iterations_used,
    "proxgd_run": lambda a, k, report: report.iterations_used,
    "equivalence_check": lambda a, k, res: bool(res["pass"]),
    "train": _train_note,
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gsdnn.{layer}")
            if layer == "cli":
                names = [n for n in vars(mod) if n.startswith("cmd_")]
            else:
                names = mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(fn, attr, layer))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gsdnn" or n.startswith("gsdnn.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        graph = importlib.import_module("gsdnn.graph_core").Graph
        self._patch(graph, "__init__", self._wrap(graph.__init__, "Graph", "graph_core"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# from spans to metrics


def _nearest(spans, targets: set[str]) -> list[int]:
    """Index of each span's nearest ancestor named in ``targets``, or -1.
    Parents are recorded before their children, so one forward pass works."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            out[i] = p if spans[p][NAME] in targets else out[p]
    return out


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals: a function's time, counted once
    when it calls itself (directly or through another layer)."""
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e > end:
            total += e - max(s, end)
            end = e
    return total


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Counts that must repeat exactly between runs of one seed.
EXACT_COUNTERS = (
    "graph_core.graph_builds", "graph_core.spmm_calls",
    "gsd_problem.objective_calls", "gsd_problem.gradient_smooth_calls",
    "gsd_problem.closed_form_ppnp_calls",
    "iter_solvers.gd_iterations", "iter_solvers.proxgd_iterations",
    "iter_solvers.spmm_per_iter",
    "unrolled_gnn.equivalence_checks", "unrolled_gnn.spmm_per_check",
    "unrolled_gnn.checks_failed",
    "bilevel_trainer.epochs", "bilevel_trainer.spmm_per_epoch",
    "bilevel_trainer.useful_epoch_frac",
)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where a layer was not used."""
    by_name: dict[str, list[int]] = {}
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return _covered([(spans[i][START], spans[i][END]) for i in by_name.get(name, ())])

    self_by: dict[str, float] = {}
    for i, s in enumerate(spans):
        own = s[END] - s[START] - child_time[i]
        self_by[s[LAYER]] = self_by.get(s[LAYER], 0.0) + own
        if s[LAYER] == "cli":
            self_by[s[NAME]] = self_by.get(s[NAME], 0.0) + own

    m: dict[str, float] = {}
    for layer in LAYERS[:-1]:
        m[f"{layer}.self_s"] = self_by.get(layer, 0.0)
    for cmd in ("denoise", "equiv", "train", "sweep"):
        m[f"cli.{cmd}_self_s"] = self_by.get(f"cmd_{cmd}", 0.0)

    # graph_core
    for fn in ("load_edge_list", "add_self_loops", "normalize", "load_signal_csv",
               "spmm"):
        m[f"graph_core.{fn}_s"] = seconds(fn)
    m["graph_core.graph_build_s"] = seconds("Graph")
    m["graph_core.graph_builds"] = calls("Graph")
    spmm = by_name.get("spmm", [])
    m["graph_core.spmm_calls"] = len(spmm)
    nbytes = sum(spans[i][NOTE][0] for i in spmm)
    flops = sum(spans[i][NOTE][1] for i in spmm)
    m["graph_core.spmm_gbps"] = _ratio(nbytes, m["graph_core.spmm_s"]) / 1e9
    m["graph_core.spmm_bytes_per_call"] = _ratio(nbytes, len(spmm))
    m["graph_core.spmm_flop_per_byte"] = _ratio(flops, nbytes)

    # gsd_problem
    for fn in ("objective", "gradient_smooth", "closed_form_ppnp"):
        m[f"gsd_problem.{fn}_calls"] = calls(fn)
        m[f"gsd_problem.{fn}_s"] = seconds(fn)

    # iter_solvers: spmm calls inside a solve, per iteration it used
    solver_of = _nearest(spans, {"gd_run", "proxgd_run"})
    iters = {fn: sum(spans[i][NOTE] for i in by_name.get(fn, ()))
             for fn in ("gd_run", "proxgd_run")}
    m["iter_solvers.gd_iterations"] = iters["gd_run"]
    m["iter_solvers.proxgd_iterations"] = iters["proxgd_run"]
    m["iter_solvers.spmm_per_iter"] = _ratio(
        sum(1 for i in spmm if solver_of[i] >= 0), sum(iters.values()))
    for fn in ("gd_run", "proxgd_run", "row_shrink", "prox_nonneg"):
        m[f"iter_solvers.{fn}_s"] = seconds(fn)

    # unrolled_gnn: latency of the CLI's checks, spmm per check of any kind
    checks = by_name.get("equivalence_check", [])
    cmd_of = _nearest(spans, {"cmd_equiv"})
    latency = [1e3 * (spans[i][END] - spans[i][START]) for i in checks if cmd_of[i] >= 0]
    m["unrolled_gnn.equivalence_checks"] = len(checks)
    m["unrolled_gnn.equivalence_check_p50_ms"] = _percentile(latency, 50)
    m["unrolled_gnn.equivalence_check_p99_ms"] = _percentile(latency, 99)
    check_of = _nearest(spans, {"equivalence_check"})
    m["unrolled_gnn.spmm_per_check"] = _ratio(
        sum(1 for i in spmm if check_of[i] >= 0), len(checks))
    m["unrolled_gnn.checks_failed"] = sum(1 for i in checks if not spans[i][NOTE])
    for fn in ("forward", "run_unrolled", "to_unroll_plan", "sample_model"):
        m[f"unrolled_gnn.{fn}_s"] = seconds(fn)

    # spectral_filters
    for fn in ("theta_to_ugdgnn", "apply_polynomial_filter", "frequency_response"):
        m[f"spectral_filters.{fn}_s"] = seconds(fn)

    # bilevel_trainer: an epoch is the gap between successive forward passes
    # of one training run
    trains = by_name.get("train", [])
    epochs = sum(spans[i][NOTE][0] for i in trains)
    useful = sum(spans[i][NOTE][1] + 1 for i in trains)
    train_of = _nearest(spans, {"train"})
    starts: dict[int, list[float]] = {}
    for i in by_name.get("forward_logits", []):
        if train_of[i] >= 0:
            starts.setdefault(train_of[i], []).append(spans[i][START])
    gaps = [1e3 * (b - a) for run in starts.values() for a, b in zip(run, run[1:])]
    m["bilevel_trainer.sbm_generate_s"] = seconds("sbm_generate")
    m["bilevel_trainer.epochs"] = epochs
    m["bilevel_trainer.epoch_p50_ms"] = _percentile(gaps, 50)
    m["bilevel_trainer.epoch_p99_ms"] = _percentile(gaps, 99)
    for fn in ("forward_logits", "backward", "adam_step", "cross_entropy_masked"):
        m[f"bilevel_trainer.{fn}_s"] = seconds(fn)
    m["bilevel_trainer.spmm_per_epoch"] = _ratio(
        sum(1 for i in spmm if train_of[i] >= 0), epochs)
    m["bilevel_trainer.useful_epoch_frac"] = _ratio(useful, epochs)
    return m
