"""Peak memory of the sparse paths scales with nnz and the signal, not n^2.

numpy reports its allocations to ``tracemalloc``, so the traced peak of a
call is the largest sum of its live arrays. Each case runs at n and at 4n,
on a graph built before tracing starts, and its peak is compared with a
unit that grows linearly: a dense n x n temporary anywhere on the path (an
``a_hat.toarray()`` product, say) is about 30 units at n = 1000 and grows
fourfold again at 4n. A forked child is not traced; no case here forks
but the split closed form and the split gd, whose peaks are this
process's side alone.

- The trainer path: ``feature_powers`` and a 3-epoch projected ``train``,
  with u = 8 (K+1) n (d+1) bytes, one set of projected feature powers (see
  ``feature_powers``). A 3-epoch projected depth sweep under feature
  dropout in one process, whose members all train laid out at the largest
  depth K_max, with u = 8 members n (K_max+1) (d+1) bytes, one epoch's
  dropped powers.
- The denoising path: the edge-list parse plus ``normalize``, ``gd_run``,
  ``proxgd_run`` and the conjugate-gradient ``closed_form_ppnp``, with
  u = 12 nnz + 8 n d bytes, A_hat's CSR arrays plus one signal. The
  closed form again with its columns split over two processes, whose
  working arrays here are half as wide, and gd with its rows split over
  two processes, whose H and (I - A_hat) H live in shared ``mmap``
  buffers that tracemalloc does not see.
- ``sbm_generate``, which draws its edges by geometric skipping in chunks
  sized by the expected edge count (never by the n^2 pair count), with the
  same u of the dataset it returns.
"""

import os
import tracemalloc

import numpy as np
import pytest

from gsdnn import gsd_problem, iter_solvers
from gsdnn.bilevel_trainer import (
    Dataset,
    TrainConfig,
    UgdgnnParams,
    _split_masks,
    depth_sweep,
    feature_powers,
    sbm_generate,
    train,
)
from gsdnn.graph_core import Graph, load_edge_list, normalize
from gsdnn.gsd_problem import GsdSpec, RowL21, closed_form_ppnp
from gsdnn.iter_solvers import SolveConfig, gd_run, proxgd_run

K, D, CLASSES = 3, 7, 3

# Peak over u measured at n = 1000 and 4000: feature_powers 1.77 and 1.75
# (the powers, written in place, plus [x, 1] and one power's spmm input and
# output, a quarter u each at K = 3), a 3-epoch projected train 1.85 and
# 1.82 (an epoch adds only (K+1) d' x c blocks; the run also holds the train
# rows of the powers, 60 of n, and the val and test rows' indices and labels,
# 16 bytes a node, which sit beside the powers while they are built). 2.4
# leaves 30% over the largest. Stacking a list of powers read 2.02 and 2.00,
# and a train that
# made (K+1) x n x c class-width powers and gradient terms each epoch 3.04
# and 2.89.
PEAK_PER_UNIT = 2.4

# Peak over u = 12 nnz + 8 n d measured at n = 1000 and 4000 (and the same
# to 0.01 at 5000 and 20000): parse plus normalize 1.84 and 1.84, gd 2.01
# and 1.98, proxgd 2.33 and 2.11, closed form 2.48 and 2.47. 3 leaves a fifth
# over the largest.
SPARSE_PEAK_PER_UNIT = 3.0
SIGNAL_D = 16

# Peak over the same u of the closed form split over two processes, this
# process's side: 1.77 and 1.73 at n = 1000 and 4000, against 2.49 and 2.47
# in one process. A side that receives the child's half through one
# ``pipe.read()``, which holds its bytes twice while they grow, reads 2.01
# and 1.97; 1.87 sits between the two.
SPLIT_PEAK_PER_UNIT = 1.87

# Traced peak plus the 2 n d shared floats over the same u, of gd with its
# rows split over two processes, this process's side: 1.81 and 1.75 at n =
# 1000 and 4000, against 2.02 and 1.98 in one process. A side that keeps a
# step buffer through the A_hat product reads 2.06 and 1.99, and one whose
# row block copies A_hat's arrays 2.07 and 2.00; 1.95 sits below them.
DESCENT_SPLIT_PEAK_PER_UNIT = 1.95
DESCENT_SHARED_SIGNALS = 2

# Peak over u measured at n = 1000 and 4000 (and 8000): 4.09 and 4.06
# (4.05). 6 leaves a third over 4.5, which a draw holding one row of n
# uniforms at a time reads. A draw whose geometric gaps come in chunks sized
# by the pair count, not the expected edge count, reads 13 u at n = 1000 and
# 51 u at 4000.
SBM_PEAK_PER_UNIT = 6.0


def _edges(n: int) -> np.ndarray:
    """5n random endpoint pairs: average degree about 10."""
    return np.random.default_rng(n).integers(0, n, (5 * n, 2))


def _dataset(n: int) -> Dataset:
    """A random graph of average degree about 10 and three label blocks,
    built before tracing starts so that only the traced call is measured."""
    rng = np.random.default_rng(n)
    ops = normalize(Graph(num_nodes=n, edges=_edges(n)))
    labels = (np.arange(n) * CLASSES) // n
    return Dataset(ops, rng.standard_normal((n, D)), labels, *_split_masks(labels, 20, 30))


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


CASES = {
    "feature_powers": lambda ds: feature_powers(UgdgnnParams.zeros(K, CLASSES, D), ds.ops, ds.x),
    "train": lambda ds: train(ds, TrainConfig(k=K, epochs=3, patience=3)),
}


@pytest.mark.parametrize("n", [1000, 4000])
@pytest.mark.parametrize("case", sorted(CASES))
def test_peak_memory_scales_with_feature_powers(case, n):
    ds = _dataset(n)
    unit = 8 * (K + 1) * n * (D + 1)
    peak = _traced_peak(lambda: CASES[case](ds))
    assert peak <= PEAK_PER_UNIT * unit, f"peak {peak} B is {peak / unit:.2f} u"


# Peak over u = 8 members n (K_max+1) (d+1) of a dropout sweep over depths 1
# and K, two seeds each, measured at n = 1000 and 4000 (and 8000): 2.66 and
# 2.57 (2.56). An epoch holds the members' dropped powers, u, beside the
# shared clean powers, a quarter u here, and its dropped features and one
# power's spmm input and output, about a quarter u each. One stack per depth
# held at most one depth's seeds and read 1.47 and 1.42 in these units. 3.2
# leaves a fifth over the largest; a stack that also built each member's
# clean powers would hold about one u more.
SWEEP_DROPOUT_PEAK_PER_UNIT = 3.2


@pytest.mark.parametrize("n", [1000, 4000])
def test_peak_memory_of_a_dropout_sweep_scales_with_its_members_powers(monkeypatch, n):
    monkeypatch.delattr(os, "fork")  # every member in this process, one stack
    ds = _dataset(n)
    ks, n_seeds = (1, K), 2
    unit = 8 * len(ks) * n_seeds * n * (K + 1) * (D + 1)
    cfg = TrainConfig(epochs=3, patience=3, feature_dropout=0.3)
    peak = _traced_peak(lambda: depth_sweep(ds, cfg, ks, n_seeds))
    assert peak <= SWEEP_DROPOUT_PEAK_PER_UNIT * unit, f"peak {peak} B is {peak / unit:.2f} u"


_SOLVE = SolveConfig(max_iters=50, rel_tol=0.0)
_I = np.eye(SIGNAL_D)

# case -> call on (edge-list text, operators, signal)
SPARSE_CASES = {
    "parse_normalize": lambda text, ops, x: normalize(load_edge_list(text)),
    "gd_run": lambda text, ops, x: gd_run(GsdSpec(0.2, 1.0, _I, _I), x, x, ops, _SOLVE),
    "proxgd_run": lambda text, ops, x: proxgd_run(
        GsdSpec(0.2, 1.0, _I, _I, RowL21(0.05)), x, x, ops, _SOLVE),
    "closed_form_ppnp": lambda text, ops, x: closed_form_ppnp(ops, x, 0.1),
}


def _sparse_inputs(n: int):
    """(edge-list text, operators, signal, u) of the denoising cases."""
    text = f"nodes {n}\n" + "".join(f"{u} {v}\n" for u, v in _edges(n).tolist())
    ops = normalize(load_edge_list(text))
    x = np.random.default_rng(n + 1).standard_normal((n, SIGNAL_D))
    return text, ops, x, 12 * ops.a_hat.nnz + 8 * n * SIGNAL_D


@pytest.mark.parametrize("n", [1000, 4000])
@pytest.mark.parametrize("case", sorted(SPARSE_CASES))
def test_peak_memory_of_sparse_paths_scales_with_nnz_and_signal(case, n):
    text, ops, x, unit = _sparse_inputs(n)
    peak = _traced_peak(lambda: SPARSE_CASES[case](text, ops, x))
    assert peak <= SPARSE_PEAK_PER_UNIT * unit, f"peak {peak} B is {peak / unit:.2f} u"


@pytest.mark.parametrize("n", [1000, 4000])
def test_peak_memory_of_the_split_closed_form_is_below_one_process(monkeypatch, n):
    monkeypatch.setattr(gsd_problem, "_CG_SPLIT_MIN_NODES", 0)
    _, ops, x, unit = _sparse_inputs(n)
    stats = {}
    peak = _traced_peak(lambda: closed_form_ppnp(ops, x, 0.1, stats))
    assert stats["forked_columns"] == SIGNAL_D // 2
    assert peak <= SPLIT_PEAK_PER_UNIT * unit, f"peak {peak} B is {peak / unit:.2f} u"


@pytest.mark.parametrize("n", [1000, 4000])
def test_peak_memory_of_the_split_gd_is_below_one_process(monkeypatch, n):
    monkeypatch.setattr(iter_solvers, "_DESCENT_SPLIT_MIN_NODES", 0)
    text, ops, x, unit = _sparse_inputs(n)
    reports = []
    peak = _traced_peak(lambda: reports.append(SPARSE_CASES["gd_run"](text, ops, x)))
    assert reports[0].forked_rows == n - ops.row_halves[0] > 0
    # the shared buffers are mapped by mmap, which tracemalloc does not trace
    peak += DESCENT_SHARED_SIGNALS * 8 * n * SIGNAL_D
    assert peak <= DESCENT_SPLIT_PEAK_PER_UNIT * unit, f"peak {peak} B is {peak / unit:.2f} u"


@pytest.mark.parametrize("n", [1000, 4000])
def test_peak_memory_of_sbm_generate_scales_with_n_and_edges(n):
    # average degree about 12 at every n: p_in 30 / n, p_out 3 / n
    out = []
    peak = _traced_peak(lambda: out.append(sbm_generate(
        n=n, blocks=CLASSES, p_in=30 / n, p_out=3 / n, d=D, noise_sigma=1.0, seed=n)))
    unit = 12 * out[0].ops.a_hat.nnz + 8 * n * D
    assert peak <= SBM_PEAK_PER_UNIT * unit, f"peak {peak} B is {peak / unit:.2f} u"
