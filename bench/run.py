#!/usr/bin/env python3
"""gsdnn benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload denoise-large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The run draws the workload's inputs from
the seed into .bench_work/, times the program's set-up in a few fresh
processes, then runs the workload in one worker process (PYTHONPATH=src,
PYTHONHASHSEED=0, GSDNN_THREADS unset) for the rest of --seconds, and checks every output
against the oracles in oracles.py. The last line of standard output is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: set-up time, peak RSS,
and the mean time of each of the workload's three stages. Every time is
rescaled to a nominal core speed by the ticks taken while it was measured
(see speed.py); the measured times are printed beside it. With --trace 1
they are the per-layer ones from one traced pass (see tracer.py), beside an
untraced pass that gives the tracing overhead. Exit code 0 when every check
passes, 1 when one fails, 2 when the program cannot be run at all.

``--write-env`` records the machine and toolchain in bench/environment.json
instead of running a workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads as wl  # noqa: E402

STAGE_METRICS = ("stage1_s", "stage2_s", "stage3_s")
COPY_REPEATS = 5
MIB = 1 << 20


def _worker(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "GSDNN_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every run
    return subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=root,
                          env=env, stdout=subprocess.PIPE, text=True, timeout=170)


def _check(workload: str, seed: int, work: Path, result: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages). One operation is one stage run: a CLI
    command, or one batch of library checks. A run fails on a nonzero exit,
    on outputs that differ from the stage's first run, or on an oracle miss."""
    import oracles

    record = result["record"]
    attempted = failed = 0
    messages = []
    for stage in result["stages"]:
        rec = record[stage["name"]]
        for i, (code, digest) in enumerate(zip(rec["codes"], rec["digests"])):
            attempted += 1
            if code != 0:
                failed += 1
                messages.append(f"{stage['name']} run {i + 1}: exit code {code}")
            elif digest != rec["digests"][0]:
                failed += 1
                messages.append(f"{stage['name']} run {i + 1}: outputs differ from run 1")
    if failed == 0:
        try:
            verdicts = oracles.CHECKS[workload](work, seed)
        except (OSError, ValueError, KeyError) as exc:  # missing or malformed output
            verdicts = {"outputs": [f"unreadable: {exc!r}"]}
        for name, fails in verdicts.items():
            failed += bool(fails)
            messages += [f"{name}: {f}" for f in fails]
    return attempted, failed, messages


def _end_to_end(result: dict, probes: list[dict]) -> tuple[dict, list[str]]:
    """The median rescaled set-up time over fresh processes, and each
    stage's mean rescaled time over its calls in all passes but the first
    call (speed.py)."""
    record = result["record"]
    metrics = {
        "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mib"], "unit": "MiB"},
    }
    ticks = [d for _, d in record["ticks"]]
    notes = [f"ticks: {len(ticks)} in the stage calls, median "
             f"{1e3 * statistics.median(ticks):.4g} ms "
             f"(nominal {1e3 * speed.NOMINAL_TICK_S[record['tick_kind']]:.4g} ms)",
             f"setup_s: median of {len(probes)} fresh processes; measured "
             + " ".join(f"{p['measured_s']:.4g}" for p in probes)]
    for metric, stage in zip(STAGE_METRICS, result["stages"]):
        # a stage's first call in the worker warms it up and is not counted
        spans = record[stage["name"]]["spans"][1:]
        t, measured = speed.rescaled(spans, record["ticks"], record["tick_kind"])
        metrics[metric] = {"value": t, "unit": "s"}
        if stage["checks"]:
            notes.append(f"{stage['alias']} = {stage['checks'] / t:.6g} 1/s "
                         f"({stage['checks']} checks / {metric})")
        else:
            notes.append(f"{stage['alias']} = {t:.6g} s ({metric})")
        notes.append(f"  {metric}: mean of {len(spans)} calls after the first; "
                     f"measured {measured:.4g}")
    return metrics, notes


def _unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_gbps", "GB/s"), ("_frac", "ratio"),
                         ("_per_iter", "calls/iter"), ("_per_check", "calls/check"),
                         ("_per_epoch", "calls/epoch"), ("_bytes_per_call", "B"),
                         ("_flop_per_byte", "flop/B"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def _copy_gbps(array_bytes: int) -> float:
    """np.copyto bandwidth, counting the bytes read plus the bytes written."""
    import numpy as np

    src = np.ones(array_bytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    times = []
    for _ in range(COPY_REPEATS):
        start = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - start)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def _per_layer(work: Path, result: dict) -> tuple[dict, list[str]]:
    from tracer import layer_metrics

    trace = json.loads((work / "spans.json").read_text())
    values = layer_metrics(trace["spans"])
    untraced, traced = result["record"]["wall_s"]
    values["trace.overhead_frac"] = traced / untraced - 1.0
    l3 = json.loads((BENCH / "environment.json").read_text())["machine"]["l3_cache_bytes"]
    array_bytes = 4 * l3
    values["machine.copy_gbps"] = _copy_gbps(array_bytes)
    notes = [
        f"run {trace['run_id']}: {len(trace['spans'])} spans",
        f"copy_gbps: np.copyto on two {array_bytes / MIB:.0f} MiB arrays "
        f"(4x the {l3 / MIB:.0f} MiB L3), read + written bytes",
        "spmm bytes and flop/B are computed from array sizes (CSR read once, "
        "X read once, product written once), not measured",
    ]
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}, notes


def _measure(args, root: Path, work: Path) -> int:
    spec = wl.WORKLOADS[args.workload]
    spec.generate(args.seed, work)
    common = [args.workload, str(args.seed), str(work)]

    # The set-up probes count in the measured --seconds; the worker's passes
    # take the rest.
    start = time.perf_counter()
    probes = []
    for _ in range(0 if args.trace else spec.setup_probes):
        probe = _worker(root, ["probe", *common])
        if probe.returncode != 0:
            print("set-up probe failed: the program could not be imported or built",
                  file=sys.stderr)
            return 2
        probes.append(json.loads(probe.stdout.splitlines()[-1]))
    rest = max(0.0, args.seconds - (time.perf_counter() - start))

    proc = _worker(root, ["run", *common, str(rest), str(args.trace)])
    if proc.returncode != 0:
        print(f"worker exited with {proc.returncode}; no result", file=sys.stderr)
        return 2
    result = json.loads((work / "result.json").read_text())
    attempted, failed, messages = _check(args.workload, args.seed, work, result)
    for msg in messages:
        print(f"FAIL {msg}")
    if args.trace:
        metrics, notes = _per_layer(work, result)
    else:
        metrics, notes = _end_to_end(result, probes)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(result['record']['wall_s'])} passes, {attempted} operations attempted, "
          f"{failed} failed (fail_ratio {failed / attempted:.6g})")
    for line in notes:
        print(f"  {line}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1



def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-env", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.write_env:
        import environment

        environment.write(root, BENCH / "environment.json")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = root / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
