"""The benchmark's measured process; ``run.py`` starts it, one at a time.

    python3 bench/worker.py probe WORKLOAD SEED WORKDIR
        Times ``import gsdnn.cli`` plus the workload's program-object build in
        this fresh process, with pure-Python ticks (speed.py), and prints
        {"setup_s": <rescaled>, "measured_s": ...}.

    python3 bench/worker.py run WORKLOAD SEED WORKDIR SECONDS TRACE
        Runs passes over the workload's stages, and writes result.json (the
        span of every stage call, the ticks taken during them, exit codes,
        output digests, peak RSS) into WORKDIR. TRACE=0 runs at least two
        passes, then stops at the pass end nearest SECONDS. TRACE=1 runs one
        untraced pass, then one traced pass, both without ticks, and writes
        the spans to spans.json.

``run.py`` sets PYTHONPATH to the checkout's ``src`` so ``gsdnn`` is the
program built from source there.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

import speed
from workloads import WORKLOADS

MIN_PASSES = 2


def probe(workload: str, seed: int, work: Path) -> None:
    build = WORKLOADS[workload].setup(seed, work)
    ticker = speed.Ticker(speed.PROBE_PERIOD_S)  # before numpy is imported
    start = time.perf_counter()
    with ticker:
        import gsdnn.cli  # noqa: F401  (the import is what is timed)

        build()
    end = time.perf_counter()
    nominal, measured = speed.rescaled([(start, end)], ticker.ticks, ticker.kind)
    print(json.dumps({"setup_s": nominal, "measured_s": measured}))


def _digest(stage, work: Path, payload) -> str:
    import hashlib

    h = hashlib.sha256()
    if payload is not None:
        for key in sorted(payload):
            arr = payload[key]
            h.update(f"{key}{arr.dtype}{arr.shape}".encode())
            h.update(arr.tobytes())
    for name in stage.outputs:
        h.update((work / stage.name / name).read_bytes())
    return h.hexdigest()


def _run_pass(stages, work: Path, record: dict, ticker) -> None:
    """Run every stage once, under ``ticker`` when one is given. A stage's
    span covers the program call only, not the digest of its outputs.
    ``wall_s`` gets the sum of the pass's stage times."""
    import traceback

    import numpy as np

    busy = 0.0
    for stage in stages:
        for _ in range(stage.repeats):
            start = time.perf_counter()
            try:
                with ticker or contextlib.nullcontext():
                    code, payload = stage.run(work)
            except Exception:  # a crash in the program is a failed operation
                traceback.print_exc()
                code, payload = -1, None
            end = time.perf_counter()
            rec = record[stage.name]
            rec["spans"].append((start, end))
            rec["codes"].append(code)
            rec["digests"].append(_digest(stage, work, payload) if code == 0 else "")
            busy += end - start
        if payload is not None:
            (work / stage.name).mkdir(exist_ok=True)
            np.savez(work / stage.name / "payload.npz", **payload)
    record["wall_s"].append(busy)


def run(workload: str, seed: int, work: Path, seconds: float, trace: bool) -> None:
    import resource

    import numpy  # noqa: F401  (so that the ticks include their numpy part)

    stages = WORKLOADS[workload].stages(work, seed)
    record: dict = {st.name: {"spans": [], "codes": [], "digests": []} for st in stages}
    record["wall_s"] = []
    result = {"stages": [{"name": st.name, "alias": st.alias, "checks": st.checks}
                         for st in stages], "record": record}
    if trace:
        from tracer import Tracer

        _run_pass(stages, work, record, None)
        tracer = Tracer(f"{workload}:{seed}")
        tracer.install()
        try:
            _run_pass(stages, work, record, None)
        finally:
            tracer.uninstall()
        (work / "spans.json").write_text(json.dumps(
            {"run_id": tracer.run_id, "spans": tracer.spans}))
    else:
        ticker = speed.Ticker(speed.STAGE_PERIOD_S)
        # at least MIN_PASSES, then stop at the pass end nearest to SECONDS
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            _run_pass(stages, work, record, ticker)
            now = time.perf_counter()
            done = len(record["wall_s"]) >= MIN_PASSES
            if done and now - start + (now - pass_start) / 2 >= seconds:
                break
        record["ticks"] = ticker.ticks
        record["tick_kind"] = ticker.kind
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    mode, name, seed, workdir, *rest = sys.argv[1:]
    if mode == "probe":
        probe(name, int(seed), Path(workdir))
    else:
        run(name, int(seed), Path(workdir), float(rest[0]), rest[1] == "1")
