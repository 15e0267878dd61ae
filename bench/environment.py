"""Record the machine and toolchain a baseline was measured on.

``python3 bench/run.py --write-env`` writes bench/environment.json. Runs of a
workload do not call this: they read only inside the checkout, and this reads
/sys and /proc for the cache sizes and CPU model. The copy-bandwidth probe of
a traced run reads the L3 size back from the JSON file.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
from pathlib import Path

import workloads as wl

BLIND_SPOTS = [
    "closed_form_ppnp's conjugate-gradient matvec calls ops.a_hat @ v directly, not "
    "spmm, so graph_core.spmm_calls and spmm_gbps leave out the CG products behind "
    "denoise-large stage3_s (denoise_closed_form_s); counting them needs a counter "
    "inside the program.",
    "The GSDNN_THREADS>1 path of equiv and sweep is not measured: every run has "
    "GSDNN_THREADS unset.",
    "denoise-large's spmm touches about 20 MB per call (CSR 6.6 MB, X and A_hat X "
    "6.4 MB each, computed), which fits in the 105 MiB L3, so graph_core.spmm_gbps is "
    "an in-cache rate; an out-of-cache workload (about 1e6 nodes) waits until graph "
    "set-up stops costing minutes.",
    "train-sweep runs with --patience equal to --epochs, so the time of early-stopped "
    "training at the default patience is not measured.",
    "Per-layer metrics of a layer that a workload does not call read 0 on every run "
    "of that workload.",
    "Wall time on the 2-vCPU baseline machine is noisy: each vCPU's speed moved by up "
    "to 1.9x on its own, with no steal time reported. The time metrics are therefore "
    "rescaled by ticks, a small pure-Python and numpy task run from a timer signal "
    "while the program runs (speed.py). A change that speeds the program in a way the "
    "ticks do not share still shows in full, but a rescaled time is not a wall time "
    "on any one machine, and a change of host or Python or numpy version can move the "
    "ticks and so every time metric.",
]


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def _caches() -> list[dict]:
    out = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        out.append({key: _read(f"{index}/{key}")
                    for key in ("level", "type", "size", "shared_cpu_list")})
    return out


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    threads = None
    for lib in glob.glob(str(libdir / "libscipy_openblas*")):
        threads = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_()
    return {"name": blas["name"], "version": blas["version"], "threads": threads}


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))


def write(root: Path, path: Path) -> None:
    import numpy as np
    import scipy

    caches = _caches()
    l3 = next(c for c in caches if c["level"] == "3")
    doc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "machine": {
            "cpu": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "caches": caches,
            "l3_cache_bytes": int(l3["size"].rstrip("K")) * 1024,
        },
        "src_lines": _src_lines(root),
        "sizes": {
            "denoise-large": {
                "nodes": wl.DENOISE_NODES, "edge_lines": wl.DENOISE_EDGE_LINES,
                "features": wl.DENOISE_WIDTH,
                "a_hat_nnz_approx": 2 * wl.DENOISE_EDGE_LINES + wl.DENOISE_NODES},
            "equiv-small": {"cli_checks": 7 * wl.EQUIV_TRIALS,
                            "limit_checks": wl.LIMIT_CHECKS,
                            "filter_checks": wl.FILTER_CHECKS,
                            "nodes": [wl.ER_MIN_NODES, wl.ER_MAX_NODES]},
            "train-sweep": {"epochs_per_training": wl.TRAIN_EPOCHS,
                            "sweep_ks": wl.SWEEP_KS, "sweep_seeds": wl.SWEEP_SEEDS,
                            "small_sbm": wl.SMALL_SBM, "projected_sbm": wl.PROJ_SBM,
                            "projected_k": wl.PROJ_K},
        },
        "blind_spots": BLIND_SPOTS,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")
