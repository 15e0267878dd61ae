"""The benchmark's exact counters repeat across runs of one seed.

    python3 -m pytest bench/test_counters.py

Each case runs a workload's traced pass twice in fresh processes, on the
development seed and on a held-out seed, and requires every counter in
``tracer.EXACT_COUNTERS`` to come out identical. It also pins the counts that
follow from the workload definitions. About five minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402
from tracer import EXACT_COUNTERS  # noqa: E402

DEV_SEED = 1
HELD_OUT_SEED = 7919


def _traced_counters(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0
    return {name: doc["metrics"][name]["value"] for name in EXACT_COUNTERS}


def _expected(workload: str) -> dict:
    if workload == "equiv-small":
        limit_checks = wl.MID_STAGE_REPEATS * wl.LIMIT_CHECKS
        return {"unrolled_gnn.equivalence_checks": 7 * wl.EQUIV_TRIALS + limit_checks,
                "unrolled_gnn.checks_failed": 0,
                "gsd_problem.closed_form_ppnp_calls": limit_checks}
    if workload == "train-sweep":
        # the sweep, and the projected and the small training's repeats
        trainings = (len(wl.SWEEP_KS.split(",")) * wl.SWEEP_SEEDS + wl.MID_STAGE_REPEATS
                     + wl.SHORT_STAGE_REPEATS)
        return {"bilevel_trainer.epochs": trainings * wl.TRAIN_EPOCHS}
    return {"gsd_problem.closed_form_ppnp_calls": 1}


@pytest.mark.parametrize("seed", [DEV_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_counters_repeat_exactly(workload: str, seed: int) -> None:
    first = _traced_counters(workload, seed)
    assert _traced_counters(workload, seed) == first
    for name, value in _expected(workload).items():
        assert first[name] == value, name
