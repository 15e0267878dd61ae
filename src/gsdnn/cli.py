"""Command-line front door.

Subcommands: ``denoise`` (run a solver on a graph signal), ``equiv``
(randomized propagation-vs-unrolling checks), ``filter`` (polynomial
filter to hop-coefficient mapping), ``train`` and ``sweep`` (toy node
classification). Every run writes a ``manifest.json`` next to its
outputs recording the command, the resolved configuration, sha256
digests of the input files, and the output file names.

Exit codes: 0 success, 1 a requested check failed, 2 usage or input
error, 3 numeric/solver error. All outputs are byte-identical across
reruns with the same inputs and seeds, except the timestamp and timing
fields inside the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

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
    add_self_loops,
    as_signal,
    load_edge_list,
    load_signal_csv,
    normalize,
)
from gsdnn.gsd_problem import GsdSpec, closed_form_ppnp
from gsdnn.iter_solvers import SolveConfig, gd_run, proxgd_run
from gsdnn.spectral_filters import (
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


class UsageError(Exception):
    """Bad flags or unreadable/malformed input files (exit 2)."""


# ---------------------------------------------------------------------------
# shared plumbing


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _load_graph(path: str) -> Graph:
    try:
        return add_self_loops(load_edge_list(_read_text(path)))
    except ValueError as exc:
        raise UsageError(f"bad edge list {path}: {exc}")


def _load_features(path: str, num_nodes: int | None = None) -> np.ndarray:
    try:
        return load_signal_csv(path, num_nodes=num_nodes)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise UsageError(f"bad feature CSV {path}: {exc}")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict,
    input_paths: list[str],
    outputs: list[str],
    timing: dict | None = None,
) -> None:
    doc = {
        "command": command,
        "config": config,
        "inputs": {p: _sha256(p) for p in input_paths},
        "outputs": sorted(outputs),
        "tool_version": __version__,
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    if timing:
        doc["timing"] = timing
    _dump_json(out_dir / "manifest.json", doc)


def _out_dir(args) -> Path:
    """Create --out; called just before a command's first write, so a command
    that fails on its inputs or its solve leaves no empty directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _random_er_ops(rng: np.random.Generator, n: int, p: float = 0.2):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return normalize(add_self_loops(Graph(num_nodes=n, edges=np.argwhere(upper))))


# ---------------------------------------------------------------------------
# denoise


def cmd_denoise(args) -> int:
    inputs = [args.graph, args.features]
    ops = normalize(_load_graph(args.graph))
    x = _load_features(args.features, num_nodes=ops.num_nodes)

    if args.solver == "closed-form":
        if args.gamma is None:
            raise UsageError("--solver closed-form requires --gamma")
        try:
            final = closed_form_ppnp(ops, x, args.gamma)
        except ValueError as exc:
            raise UsageError(str(exc))
        except RuntimeError as exc:
            print(f"solver error: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        report_doc = {"solver": "closed-form", "gamma": args.gamma, "converged": True}
    else:
        if args.spec is None:
            raise UsageError(f"--solver {args.solver} requires --spec")
        inputs.append(args.spec)
        try:
            spec = GsdSpec.from_json(_read_text(args.spec))
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"bad spec JSON {args.spec}: {exc}")
        for name in ("t_alpha", "t_beta"):  # an indefinite T leaves L unbounded below
            eig = np.linalg.eigvalsh(getattr(spec, name))
            if eig[0] < -1e-12 * np.abs(eig).max():
                raise UsageError(f"bad spec {args.spec}: {name} has eigenvalue {eig[0]:.3e}")
        stepsize = "auto" if args.stepsize is None else args.stepsize
        try:
            cfg = SolveConfig(
                max_iters=args.iters, stepsize=stepsize, rel_tol=args.rel_tol
            )
        except ValueError as exc:
            raise UsageError(str(exc))
        runner = gd_run if args.solver == "gd" else proxgd_run
        try:
            # a divergent run overflows on its last step; it is reported below
            with np.errstate(over="ignore", invalid="ignore"):
                report = runner(spec, x, x, ops, cfg)
        except ValueError as exc:
            raise UsageError(str(exc))
        if not math.isfinite(report.objective_trace[-1]):
            print(
                f"solver error: objective diverged at iteration {report.iterations_used}; "
                "try a smaller --stepsize",
                file=sys.stderr,
            )
            return EXIT_NUMERIC
        final = report.final
        report_doc = {"solver": args.solver, **report.to_json_dict()}

    out = _out_dir(args)
    np.savetxt(out / "denoised.csv", final, delimiter=",", fmt="%.17g")
    _dump_json(out / "solve_report.json", report_doc)
    _write_manifest(
        out,
        "denoise",
        {
            "solver": args.solver,
            "gamma": args.gamma,
            "iters": args.iters,
            "stepsize": args.stepsize,
            "rel_tol": args.rel_tol,
        },
        inputs,
        ["denoised.csv", "solve_report.json"],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# equiv


def _equiv_cell(name: str, model_index: int, trial: int, seed: int, tol: float) -> dict:
    rng = np.random.default_rng((seed, model_index, trial))
    n = int(rng.integers(EQUIV_GRAPHS["min_nodes"], EQUIV_GRAPHS["max_nodes"] + 1))
    ops = _random_er_ops(rng, n, EQUIV_GRAPHS["edge_prob"])
    d = int(rng.integers(1, 5))
    model = sample_model(name, rng, d)
    x = rng.standard_normal((n, d))
    return equivalence_check(model, ops, x, tol)


def _check_tol(tol: float) -> None:
    if not math.isfinite(tol):
        raise UsageError(f"--tol must be finite, got {tol}")


def cmd_equiv(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    _check_tol(args.tol)
    names = list(MODEL_KINDS) if args.model == "all" else [args.model]
    cells = [
        (name, mi, t)
        for mi, name in enumerate(names)
        for t in range(args.trials)
    ]
    started = time.perf_counter()
    checks = [_equiv_cell(name, mi, t, args.seed, args.tol) for name, mi, t in cells]
    elapsed = time.perf_counter() - started

    results = []
    for mi, name in enumerate(names):
        own = checks[mi * args.trials : (mi + 1) * args.trials]
        results.append(
            {
                "model": name,
                "trials": args.trials,
                "max_abs_diff": max((c["max_abs_diff"] for c in own), default=0.0),
                "pass": all(c["pass"] for c in own),
            }
        )
    all_pass = all(r["pass"] for r in results)
    out = _out_dir(args)
    _dump_json(
        out / "equiv_report.json",
        {"seed": args.seed, "tol": args.tol, "results": results, "all_pass": all_pass},
    )
    _write_manifest(
        out,
        "equiv",
        {
            "model": args.model,
            "trials": args.trials,
            "seed": args.seed,
            "tol": args.tol,
            "graph_distribution": EQUIV_GRAPHS,
        },
        [],
        ["equiv_report.json"],
        timing={"seconds": round(elapsed, 3)},
    )
    for r in results:
        status = "ok" if r["pass"] else "FAIL"
        print(f"{r['model']:8s} max_abs_diff={r['max_abs_diff']:.3e} {status}")
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# filter


def _parse_theta(raw: str) -> tuple[float, ...]:
    try:
        theta = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--theta must be a comma-separated float list, got {raw!r}")
    if not theta:
        raise UsageError("--theta must contain at least one coefficient")
    return theta


def cmd_filter(args) -> int:
    _check_tol(args.tol)
    theta = _parse_theta(args.theta)
    try:
        model = theta_to_ugdgnn(theta)
    except ValueError as exc:
        raise UsageError(str(exc))

    inputs = []
    if args.graph is not None:
        inputs.append(args.graph)
        ops = normalize(_load_graph(args.graph))
        verify_graph = args.graph
    else:
        ops = _random_er_ops(np.random.default_rng((args.seed, 101)), n=24)
        verify_graph = "builtin-er-24"

    rng = np.random.default_rng((args.seed, 202))
    x = rng.standard_normal((ops.num_nodes, 2))
    diff = float(
        np.max(np.abs(forward(model, ops, x) - apply_polynomial_filter(theta, ops, x)))
    )

    outputs = ["filter_report.json"]
    lines = None
    if args.graph is not None:
        try:
            table = frequency_response(theta, ops)
        except ValueError as exc:
            raise UsageError(str(exc))
        lines = ["lambda,response"]
        lines += [f"{lam:.17g},{resp:.17g}" for lam, resp in table]
    out = _out_dir(args)
    if lines is not None:
        (out / "response.csv").write_text("\n".join(lines) + "\n")
        outputs.append("response.csv")

    _dump_json(
        out / "filter_report.json",
        {
            "theta": list(theta),
            "gammas": list(model.gammas),
            "verification": {"graph": verify_graph, "max_abs_diff": diff, "tol": args.tol},
        },
    )
    _write_manifest(
        out,
        "filter",
        {"theta": list(theta), "seed": args.seed, "tol": args.tol},
        inputs,
        outputs,
    )
    print(f"gamma = {list(model.gammas)}  max_abs_diff = {diff:.3e}")
    return EXIT_OK if diff < args.tol else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# train / sweep


def _load_dataset(args) -> tuple[Dataset, list[str]]:
    name = args.dataset
    if name == "sbm":
        try:
            ds = sbm_generate(
                n=args.sbm_n,
                blocks=args.sbm_blocks,
                p_in=args.sbm_p_in,
                p_out=args.sbm_p_out,
                d=args.sbm_d,
                noise_sigma=args.sbm_noise,
                seed=args.data_seed,
            )
        except ValueError as exc:
            raise UsageError(str(exc))
        return ds, []
    if name == "karate":
        return karate_dataset(), []
    if name.startswith("files:"):
        parts = name[len("files:") :].split(",")
        if len(parts) != 3:
            raise UsageError(
                "--dataset files: expects three comma-separated paths, "
                "edges,features,labels"
            )
        edge_path, feat_path, label_path = parts
        graph = _load_graph(edge_path)
        ops = normalize(graph)
        x = _load_features(feat_path, num_nodes=graph.num_nodes)
        try:
            labels = np.loadtxt(label_path, dtype=np.int64, ndmin=1)
        except (OSError, ValueError) as exc:
            raise UsageError(f"bad label file {label_path}: {exc}")
        try:
            train_mask, val_mask, test_mask = _split_masks(
                labels, args.train_per_class, args.val_per_class
            )
            ds = Dataset(
                ops=ops,
                x=x,
                labels=labels,
                train_mask=train_mask,
                val_mask=val_mask,
                test_mask=test_mask,
            )
        except ValueError as exc:
            raise UsageError(str(exc))
        return ds, [edge_path, feat_path, label_path]
    raise UsageError(f"unknown dataset {name!r}; expected sbm, karate, or files:...")


def _train_config(args) -> TrainConfig:
    try:
        return TrainConfig(
            lr=args.lr,
            weight_decay=args.weight_decay,
            epochs=args.epochs,
            seed=args.seed,
            k=args.k,
            alpha0=args.alpha0,
            patience=args.patience,
            feature_dropout=args.feature_dropout,
        )
    except ValueError as exc:
        raise UsageError(str(exc))


def _dataset_config(args) -> dict:
    doc = {"dataset": args.dataset}
    if args.dataset == "sbm":
        doc.update(
            n=args.sbm_n,
            blocks=args.sbm_blocks,
            p_in=args.sbm_p_in,
            p_out=args.sbm_p_out,
            d=args.sbm_d,
            noise_sigma=args.sbm_noise,
            data_seed=args.data_seed,
        )
    return doc


def cmd_train(args) -> int:
    ds, inputs = _load_dataset(args)
    cfg = _train_config(args)
    try:
        report = train(ds, cfg)
    except ValueError as exc:
        raise UsageError(str(exc))
    out = _out_dir(args)
    _dump_json(out / "train_report.json", report.to_json_dict())
    _write_manifest(
        out,
        "train",
        {**_dataset_config(args), **dataclasses.asdict(cfg)},
        inputs,
        ["train_report.json"],
        timing={"seconds": round(report.wall_clock_seconds, 3)},
    )
    if report.diverged:
        print("training diverged; last finite epoch written", file=sys.stderr)
        return EXIT_NUMERIC
    print(
        f"best epoch {report.best_epoch}: val {report.best_val_acc:.3f}, "
        f"test {report.test_acc_at_best:.3f}"
    )
    return EXIT_OK


def _parse_ks(raw: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise UsageError(f"--ks must be a comma-separated int list, got {raw!r}")
    if not ks or any(k < 0 for k in ks):
        raise UsageError("--ks must list nonnegative depths")
    return ks


def cmd_sweep(args) -> int:
    ds, inputs = _load_dataset(args)
    cfg = _train_config(args)
    ks = _parse_ks(args.ks)
    started = time.perf_counter()
    try:
        rows = depth_sweep(ds, cfg, ks=ks, n_seeds=args.n_seeds)
    except ValueError as exc:
        raise UsageError(str(exc))
    elapsed = time.perf_counter() - started
    lines = ["k,mean_acc,std_acc"]
    lines += [f"{r['k']},{r['mean_acc']:.17g},{r['std_acc']:.17g}" for r in rows]
    out = _out_dir(args)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    _write_manifest(
        out,
        "sweep",
        {**_dataset_config(args), **dataclasses.asdict(cfg), "ks": list(ks), "n_seeds": args.n_seeds},
        inputs,
        ["sweep.csv"],
        timing={"seconds": round(elapsed, 3)},
    )
    for r in rows:
        print(f"k={r['k']:3d} mean_acc={r['mean_acc']:.4f} std={r['std_acc']:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--dataset",
        required=True,
        help="sbm, karate, or files:EDGES,FEATURES,LABELS",
    )
    p.add_argument("--sbm-n", type=int, default=200)
    p.add_argument("--sbm-blocks", type=int, default=2)
    p.add_argument("--sbm-p-in", type=float, default=0.1)
    p.add_argument("--sbm-p-out", type=float, default=0.01)
    p.add_argument("--sbm-d", type=int, default=2)
    p.add_argument("--sbm-noise", type=float, default=1.0)
    p.add_argument("--data-seed", type=int, default=0)
    p.add_argument("--train-per-class", type=int, default=20)
    p.add_argument("--val-per-class", type=int, default=30)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lr", type=float, default=0.005)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--alpha0", type=float, default=0.1)
    p.add_argument("--patience", type=int, default=100)
    p.add_argument("--feature-dropout", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--iters", type=int, default=200)
    p.add_argument("--stepsize", type=float, default=None, help="default: 1/L bound")
    p.add_argument(
        "--rel-tol",
        type=float,
        default=0.0,
        help="objective plateau stop; 0 runs the full --iters budget",
    )
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_denoise)

    p = sub.add_parser("equiv", help="randomized propagation-vs-unrolling checks")
    p.add_argument("--model", default="all", choices=[*MODEL_KINDS, "all"])
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_equiv)

    p = sub.add_parser("filter", help="map polynomial filter coefficients to a model")
    p.add_argument("--theta", required=True, help="comma-separated coefficients")
    p.add_argument("--graph", help="edge list; adds a (lambda,response) CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_filter)

    p = sub.add_parser("train", help="train the hop-coefficient model on a dataset")
    _add_dataset_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("sweep", help="train across propagation depths")
    _add_dataset_flags(p)
    _add_train_flags(p)
    p.add_argument("--ks", default="1,2,4,6,8,10")
    p.add_argument("--n-seeds", type=int, default=10)
    p.add_argument("--out", default=".")
    p.set_defaults(handler=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
