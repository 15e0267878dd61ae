"""Command-line front door.

Subcommands: ``denoise`` (run a solver on a graph signal), ``equiv``
(randomized propagation-vs-unrolling checks), ``filter`` (polynomial
filter to hop-coefficient mapping), ``train`` and ``sweep`` (toy node
classification). A run that writes an output also writes a
``manifest.json`` beside it, recording the command, every parsed flag,
sha256 digests of the files read, the files written, per-phase timing,
the problem sizes where the command has one graph, counters of the work
done (``denoise``: solver or conjugate-gradient iterations; ``equiv``: the
checks run; ``train`` and ``sweep``: seed-epochs; ``equiv``, ``sweep``, the
closed form, gd and proxgd: the checks, members, columns or rows run in a
forked child), the peak and private memory, and the software and machine it
ran on.

Exit codes: 0 success, 1 a requested check failed, 2 usage or input
error, 3 numeric/solver error. Handlers and loaders report a failure only
by raising: ``main`` turns a ValueError or OSError (a bad flag, input file
or --out) into ``error: <message>`` and exit 2 with no manifest, and a
FloatingPointError (a diverged solve or training, a non-finite result)
into ``numeric error: <message>`` and exit 3, with a manifest if an output
was written. Input errors and an --out that cannot be created are found
before the first output, so they leave no --out behind. All outputs are
byte-identical across reruns with the same inputs and seeds, except the
timestamp, timing and environment fields inside the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from gsdnn import __version__
from gsdnn.bilevel_trainer import (
    Dataset,
    TrainConfig,
    _split_masks,
    depth_sweep,
    karate_dataset,
    sbm_generate,
    train,
)
from gsdnn.graph_core import (
    Graph,
    NormalizedOperators,
    _loadtxt_rows,
    _on_two_cores,
    load_edge_list,
    load_signal_csv,
    normalize,
    save_signal_csv,
)
from gsdnn.gsd_problem import GsdSpec, closed_form_ppnp
from gsdnn.iter_solvers import SolveConfig, gd_run, proxgd_run
from gsdnn.spectral_filters import (
    _check_eig_size,
    apply_polynomial_filter,
    frequency_response,
    theta_to_ugdgnn,
)
from gsdnn.unrolled_gnn import MODEL_KINDS, equivalence_check, forward, sample_model

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Declared in every equiv manifest: the equivalences hold on any graph,
# so the harness picks a test distribution and says which.
EQUIV_GRAPHS = {
    "family": "erdos-renyi",
    "min_nodes": 10,
    "max_nodes": 50,
    "edge_prob": 0.2,
    "self_loops": True,
}


# ---------------------------------------------------------------------------
# the run record


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _memory() -> dict:
    """MiB: the peak resident set of this process and the largest of its
    reaped children's, and this process's private pages now (Private_Clean
    plus Private_Dirty of /proc/self/smaps_rollup; None where that file is
    absent)."""
    per_mib = 1 << (20 if sys.platform == "darwin" else 10)  # ru_maxrss: bytes on macOS

    def peak(who: int) -> float:
        return round(resource.getrusage(who).ru_maxrss / per_mib, 3)

    try:
        with open("/proc/self/smaps_rollup") as f:
            kib = sum(int(line.split()[1]) for line in f
                      if line.startswith(("Private_Clean:", "Private_Dirty:")))
        private = round(kib / 1024, 3)
    except OSError:
        private = None
    return {"peak_rss_mb": peak(resource.RUSAGE_SELF),
            "children_peak_rss_mb": peak(resource.RUSAGE_CHILDREN), "private_mb": private}


class _Run:
    """What one command read, wrote and timed. ``main`` writes it as
    ``manifest.json`` only once the handler has written an output, so a
    command that fails on its inputs or its solve leaves no --out behind."""

    def __init__(self, args: argparse.Namespace):
        self.command = args.command
        self.config = {
            k: v for k, v in vars(args).items() if k not in ("command", "out")
        }
        self.out = Path(args.out)
        # created at the first write, but checked now, before the work
        base = self.out.absolute()
        while not base.exists():
            base = base.parent
        if not (base.is_dir() and os.access(base, os.W_OK)):
            raise ValueError(f"cannot create --out {self.out}: {base} is not a writable directory")
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.timing: dict[str, float] = {}
        self.sizes: dict[str, int] | None = None
        self.counters: dict[str, int] = {}
        self._mark = time.perf_counter()

    def load(self, path: str, what: str, parse):
        """``parse(path)``, with the file recorded for the manifest. Its OSError
        becomes ValueError ``cannot read PATH: ...``, its ValueError ``bad WHAT PATH: ...``."""
        self.inputs.append(path)
        try:
            return parse(path)
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}")
        except ValueError as exc:
            raise ValueError(f"bad {what} {path}: {exc}")

    def path(self, name: str) -> Path:
        """Where output ``name`` goes; creates --out on the first call."""
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out / name

    def lap(self, phase: str) -> None:
        """Time the phase that ends here, from the end of the last one."""
        now = time.perf_counter()
        self.timing[f"{phase}_seconds"] = round(now - self._mark, 3)
        self._mark = now

    def size(self, ops: NormalizedOperators, x: np.ndarray) -> None:
        self.sizes = {"n": ops.num_nodes, "nnz": int(ops.a_hat.nnz), "d": x.shape[1]}

    def write_manifest(self) -> None:
        self.lap("write")
        uname = os.uname()
        doc = {
            "command": self.command,
            "config": self.config,
            "inputs": {p: _sha256(p) for p in self.inputs},
            "outputs": sorted(self.outputs),
            "timing": self.timing,
            "memory": _memory(),
            "env": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "system": uname.sysname,
                "release": uname.release,
                "machine": uname.machine,
                "cpu_count": os.cpu_count(),
            },
            "tool_version": __version__,
            "created_at": datetime.now(timezone.utc).isoformat(),
        }
        if self.sizes is not None:
            doc["sizes"] = self.sizes
        if self.counters:
            doc["counters"] = self.counters
        _dump_json(self.out / "manifest.json", doc)


# ---------------------------------------------------------------------------
# shared loaders


def _load_graph(run: _Run, path: str) -> Graph:
    """The parsed edge list, without its loops: a caller checks the declared
    node count against its other inputs before building anything that size."""
    return run.load(path, "edge list", lambda p: load_edge_list(Path(p).read_text()))


def _load_graph_signal(
    run: _Run, graph_path: str, feat_path: str
) -> tuple[NormalizedOperators, np.ndarray]:
    """A_hat of the edge list and its features, whose row count is checked
    against the declared node count before anything of that size is built."""
    graph = _load_graph(run, graph_path)
    x = run.load(feat_path, "feature CSV", lambda p: load_signal_csv(p, graph.num_nodes))
    return normalize(graph), x


def _random_er_ops(rng: np.random.Generator, n: int, p: float = 0.2):
    # with the loops drawn into the mask, the flat indices of its upper
    # triangle are the sorted keys u * n + v of canonical, loop-complete
    # edges: a graph that needs neither Graph's checks nor a re-sort
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, True)
    return normalize(Graph._trusted(n, *np.divmod(np.flatnonzero(np.triu(mask)), n)))


# ---------------------------------------------------------------------------
# denoise


# the denoise flags that only gd and proxgd read; --gamma only the closed form reads
_DESCENT_FLAGS = ("spec", "stepsize", "iters", "rel_tol")


def _check_solver_flags(args) -> None:
    """ValueError for a flag the chosen solver does not read, or for the one
    it needs and was not given."""
    closed = args.solver == "closed-form"
    foreign, owner = (_DESCENT_FLAGS, "gd and proxgd") if closed else (("gamma",), "closed-form")
    for name in foreign:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name.replace('_', '-')} applies only to --solver {owner}, "
                             f"not {args.solver}")
    needed = "gamma" if closed else "spec"
    if getattr(args, needed) is None:
        raise ValueError(f"--solver {args.solver} requires --{needed}")


def cmd_denoise(args, run: _Run) -> int:
    _check_solver_flags(args)
    ops, x = _load_graph_signal(run, args.graph, args.features)
    run.size(ops, x)
    run.lap("load")

    if args.solver == "closed-form":
        stats: dict = {}
        final = closed_form_ppnp(ops, x, args.gamma, stats)
        run.counters["iterations"] = stats["cg_iterations"]
        run.counters["forked_columns"] = stats.pop("forked_columns")
        report_doc = {"solver": "closed-form", "gamma": args.gamma, **stats}
    else:
        spec = run.load(args.spec, "spec JSON", lambda p: GsdSpec.from_json(Path(p).read_text()))
        for name in ("t_alpha", "t_beta"):  # an indefinite T leaves L unbounded below
            eig = np.linalg.eigvalsh(getattr(spec, name))
            if eig[0] < -1e-12 * np.abs(eig).max():
                raise ValueError(f"bad spec {args.spec}: {name} has eigenvalue {eig[0]:.3e}")
        # the defaults, recorded as the manifest's config
        iters = run.config["iters"] = 200 if args.iters is None else args.iters
        rel_tol = run.config["rel_tol"] = 0.0 if args.rel_tol is None else args.rel_tol
        stepsize = "auto" if args.stepsize is None else args.stepsize
        cfg = SolveConfig(max_iters=iters, stepsize=stepsize, rel_tol=rel_tol)
        runner = gd_run if args.solver == "gd" else proxgd_run
        report = runner(spec, x, x, ops, cfg)
        if report.stop_reason == "diverged":
            raise FloatingPointError(
                f"objective diverged at iteration {report.iterations_used}; "
                "try a smaller --stepsize"
            )
        final = report.final
        run.counters["iterations"] = report.iterations_used
        run.counters["forked_rows"] = report.forked_rows
        report_doc = {"solver": args.solver, **report.to_json_dict()}

    run.lap("solve")
    save_signal_csv(run.path("denoised.csv"), final)
    _dump_json(run.path("solve_report.json"), report_doc)
    return EXIT_OK


# ---------------------------------------------------------------------------
# equiv


def _equiv_cell(name: str, model_index: int, trial: int, seed: int, tol: float) -> float:
    """max_abs_diff of one check, seeded on its own by (seed, model index,
    trial); the check passes when it is below ``tol``."""
    rng = np.random.default_rng((seed, model_index, trial))
    n = int(rng.integers(EQUIV_GRAPHS["min_nodes"], EQUIV_GRAPHS["max_nodes"] + 1))
    ops = _random_er_ops(rng, n, EQUIV_GRAPHS["edge_prob"])
    d = int(rng.integers(1, 5))
    model = sample_model(name, rng, d)
    x = rng.standard_normal((n, d))
    return equivalence_check(model, ops, x, tol)["max_abs_diff"]


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol):
        raise ValueError(f"--tol must be finite, got {tol}")


def cmd_equiv(args, run: _Run) -> int:
    _check_tol(args.tol)
    run.config["graph_distribution"] = EQUIV_GRAPHS
    names = list(MODEL_KINDS) if args.model == "all" else [args.model]

    def cell(i: int) -> float:  # check i in --model order
        mi, trial = divmod(i, args.trials)
        return _equiv_cell(names[mi], mi, trial, args.seed, args.tol)

    cells = range(len(names) * args.trials)
    diffs, forked = _on_two_cores(lambda part: [cell(i) for i in part], cells)
    results = []
    for mi, name in enumerate(names):
        mine = diffs[mi * args.trials : (mi + 1) * args.trials]
        results.append(
            {
                "model": name,
                "trials": args.trials,
                "max_abs_diff": max(mine),
                "pass": all(diff < args.tol for diff in mine),
            }
        )
    run.lap("check")
    run.counters["checks"] = len(cells)
    run.counters["forked_checks"] = forked

    all_pass = all(r["pass"] for r in results)
    _dump_json(
        run.path("equiv_report.json"),
        {"seed": args.seed, "tol": args.tol, "results": results, "all_pass": all_pass},
    )
    for r in results:
        status = "ok" if r["pass"] else "FAIL"
        print(f"{r['model']:8s} max_abs_diff={r['max_abs_diff']:.3e} {status}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# filter


def cmd_filter(args, run: _Run) -> int:
    _check_tol(args.tol)
    theta = _parse_list(args.theta, "--theta", float)
    if not theta:
        raise ValueError("--theta must contain at least one coefficient")
    model = theta_to_ugdgnn(theta)

    if args.graph is not None:
        graph = _load_graph(run, args.graph)
        _check_eig_size(graph.num_nodes)  # before a graph too large to analyse is built
        ops = normalize(graph)
    else:
        ops = _random_er_ops(np.random.default_rng((args.seed, 101)), n=24)
    x = np.random.default_rng((args.seed, 202)).standard_normal((ops.num_nodes, 2))
    run.size(ops, x)
    run.lap("load")

    # coefficients near the float range overflow here; that is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        diff = float(
            np.max(np.abs(forward(model, ops, x) - apply_polynomial_filter(theta, ops, x)))
        )
        # the graph's size was checked on loading
        table = None if args.graph is None else frequency_response(theta, ops)
    run.lap("check")
    if not (math.isfinite(diff) and (table is None or np.isfinite(table).all())):
        raise FloatingPointError("the filter output or its frequency response is not finite")

    if table is not None:
        lines = ["lambda,response", *(f"{lam:.17g},{resp:.17g}" for lam, resp in table)]
        run.path("response.csv").write_text("\n".join(lines) + "\n")
    _dump_json(
        run.path("filter_report.json"),
        {
            "theta": list(theta),
            "gammas": list(model.gammas),
            "verification": {
                "graph": args.graph or "builtin-er-24",
                "max_abs_diff": diff,
                "tol": args.tol,
            },
        },
    )
    print(f"gamma = {list(model.gammas)}  max_abs_diff = {diff:.3e}")
    return EXIT_OK if diff < args.tol else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# train / sweep


def _load_dataset(args, run: _Run) -> Dataset:
    name = args.dataset
    if name in ("sbm", "karate"):
        for flag in ("train_per_class", "val_per_class"):
            if getattr(args, flag) is not None:
                raise ValueError(
                    f"--{flag.replace('_', '-')} applies only to --dataset files:; "
                    f"{name} has a fixed split"
                )
    if name == "sbm":
        ds = sbm_generate(
            n=args.sbm_n,
            blocks=args.sbm_blocks,
            p_in=args.sbm_p_in,
            p_out=args.sbm_p_out,
            d=args.sbm_d,
            noise_sigma=args.sbm_noise,
            seed=args.data_seed,
        )
    elif name == "karate":
        ds = karate_dataset()
    elif name.startswith("files:"):
        parts = name[len("files:") :].split(",")
        if len(parts) != 3:
            raise ValueError(
                "--dataset files: expects three comma-separated paths, "
                "edges,features,labels"
            )
        edge_path, feat_path, label_path = parts
        ops, x = _load_graph_signal(run, edge_path, feat_path)
        labels = run.load(label_path, "label file",
                          lambda p: _loadtxt_rows(p, dtype=np.int64, ndmin=1))
        per_train = 20 if args.train_per_class is None else args.train_per_class
        per_val = 30 if args.val_per_class is None else args.val_per_class
        # masks in field order: train, val, test
        ds = Dataset(ops, x, labels, *_split_masks(labels, per_train, per_val))
    else:
        raise ValueError(f"unknown dataset {name!r}; expected sbm, karate, or files:...")
    run.size(ds.ops, ds.x)
    return ds


def _train_config(args) -> TrainConfig:
    """The training flags are TrainConfig's fields, one flag per field."""
    fields = dataclasses.fields(TrainConfig)
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields})


def cmd_train(args, run: _Run) -> int:
    ds = _load_dataset(args, run)
    cfg = _train_config(args)
    run.sizes["K"] = cfg.k
    run.lap("load")
    report = train(ds, cfg)
    run.lap("train")
    run.counters["seed_epochs"] = report.seed_epochs
    _dump_json(run.path("train_report.json"), report.to_json_dict())
    if report.diverged:
        raise FloatingPointError("training diverged; last finite epoch written")
    print(
        f"best epoch {report.best_epoch}: val {report.best_val_acc:.3f}, "
        f"test {report.test_acc_at_best:.3f}"
    )
    return EXIT_OK


def cmd_sweep(args, run: _Run) -> int:
    ks = _parse_list(args.ks, "--ks", int)
    if not ks or any(k < 0 for k in ks):
        raise ValueError("--ks must list nonnegative depths")
    ds = _load_dataset(args, run)
    cfg = _train_config(args)
    run.lap("load")
    rows = depth_sweep(ds, cfg, ks, args.n_seeds)
    run.lap("train")
    run.counters["seed_epochs"] = sum(r["seed_epochs"] for r in rows)
    run.counters["forked_members"] = sum(r["forked_members"] for r in rows)
    lines = ["k,mean_acc,std_acc"]
    lines += [f"{r['k']},{r['mean_acc']:.17g},{r['std_acc']:.17g}" for r in rows]
    run.path("sweep.csv").write_text("\n".join(lines) + "\n")
    for r in rows:
        print(f"k={r['k']:3d} mean_acc={r['mean_acc']:.4f} std={r['std_acc']:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _parse_list(raw: str, flag: str, kind: type) -> tuple:
    """The entries of a comma-separated flag value, each read by ``kind``;
    () for a blank value, ValueError naming the flag for an empty entry."""
    parts = raw.split(",") if raw.strip() else []
    if not all(part.strip() for part in parts):
        raise ValueError(f"{flag} has an empty entry in {raw!r}")
    try:
        return tuple(kind(part) for part in parts)
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated {kind.__name__} list, got {raw!r}")


def _int_at_least(low: int, what: str):
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {raw!r}")
        return value
    return parse


# --seed and --data-seed: numpy takes only nonnegative seeds. The split
# counts index each class's nodes, where a negative count would count back
# from the end; --trials and --n-seeds count the items a command runs.
_seed = _int_at_least(0, "nonnegative")
_positive = _int_at_least(1, "positive")


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="sbm, karate, or files:EDGES,FEATURES,LABELS")
    p.add_argument("--sbm-n", type=int, default=200, help="SBM node count")
    p.add_argument("--sbm-blocks", type=int, default=2)
    p.add_argument("--sbm-p-in", type=float, default=0.1)
    p.add_argument("--sbm-p-out", type=float, default=0.01)
    p.add_argument("--sbm-d", type=int, default=2)
    p.add_argument("--sbm-noise", type=float, default=1.0)
    p.add_argument("--data-seed", type=_seed, default=0)
    p.add_argument("--train-per-class", type=_positive, help="files: datasets only (default 20)")
    p.add_argument("--val-per-class", type=_positive, help="files: datasets only (default 30)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field, with the field's default; each flag
    parses as the type of its default, --seed as a nonnegative integer."""
    for f in dataclasses.fields(TrainConfig):
        kind = _seed if f.name == "seed" else type(f.default)
        p.add_argument(f"--{f.name.replace('_', '-')}", type=kind, default=f.default)


class _Parser(argparse.ArgumentParser):
    """A parser, and through ``add_subparsers`` its subparsers, that raises
    ValueError on a usage error instead of printing usage and exiting, so
    that ``main`` reports it on one line like any other exit 2."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gsdnn",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="run a denoising solver on a graph signal")
    p.add_argument("--graph", required=True, help="edge list file")
    p.add_argument("--features", required=True, help="node feature CSV, row per node")
    p.add_argument("--solver", required=True, choices=["gd", "proxgd", "closed-form"])
    p.add_argument("--spec", help="objective spec JSON (gd/proxgd)")
    p.add_argument("--gamma", type=float, help="teleport probability (closed-form)")
    p.add_argument("--iters", type=int, help="iteration budget (gd/proxgd; default 200)")
    p.add_argument("--stepsize", type=float, help="gd/proxgd; default: 1/L bound")
    p.add_argument(
        "--rel-tol",
        type=float,
        help="objective plateau stop (gd/proxgd; default 0, which runs the full --iters budget)",
    )

    p = sub.add_parser("equiv", help="randomized propagation-vs-unrolling checks")
    p.add_argument("--model", default="all", choices=[*MODEL_KINDS, "all"])
    p.add_argument("--trials", type=_positive, default=50)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("filter", help="map polynomial filter coefficients to a model")
    p.add_argument("--theta", required=True, help="comma-separated coefficients")
    p.add_argument("--graph", help="edge list; adds a (lambda,response) CSV")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("train", help="train the hop-coefficient model on a dataset")
    _add_dataset_flags(p)
    _add_train_flags(p)

    p = sub.add_parser("sweep", help="train across propagation depths")
    _add_dataset_flags(p)
    _add_train_flags(p)
    p.add_argument("--ks", default="1,2,4,6,8,10")
    p.add_argument("--n-seeds", type=_positive, default=10)

    for p in sub.choices.values():
        p.add_argument("--out", default=".", help="output directory, created on first write")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every command in a process shares: building all five
    subparsers takes about 2 ms, 3% of a small ``train`` command."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version
        return int(exc.code) if exc.code is not None else EXIT_OK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        run = _Run(args)
        try:
            # looked up on each call, not bound into the shared parser, so a
            # wrapper put over a cmd_* function later is the one that runs
            code = globals()[f"cmd_{args.command}"](args, run)
        except FloatingPointError as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            code = EXIT_NUMERIC
        if run.outputs:  # a diverged training has written its report
            run.write_manifest()
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
