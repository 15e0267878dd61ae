"""Peak memory of the trainer path scales with the feature powers, not n^2.

numpy reports its allocations to ``tracemalloc``, so the traced peak of a
call is the largest sum of its live arrays. The unit is one set of
projected feature powers, u = 8 (K+1) n (d+1) bytes (see
``feature_powers``), and each case runs at n and at 4n: a dense n x n
temporary anywhere on the path (an ``a_hat.toarray()`` product, say) is
31 u at n = 1000 and grows fourfold again at 4n.
"""

import tracemalloc

import numpy as np
import pytest

from gsdnn.bilevel_trainer import (
    Dataset,
    TrainConfig,
    UgdgnnParams,
    _split_masks,
    feature_powers,
    train,
)
from gsdnn.graph_core import Graph, normalize

K, D, CLASSES = 3, 7, 3

# Peak over u measured at n = 1000 and 4000: feature_powers 2.02 and 2.00
# (the list of powers, then their stack), a 3-epoch projected train 3.04 and
# 2.89 (the powers, then each epoch's class-width powers and gradient
# terms). 4 leaves a third over the largest.
PEAK_PER_UNIT = 4.0


def _dataset(n: int) -> Dataset:
    """A random graph of average degree about 10, built before tracing starts
    (``sbm_generate``'s 8 MiB draw blocks would set the peak instead)."""
    rng = np.random.default_rng(n)
    ops = normalize(Graph(num_nodes=n, edges=rng.integers(0, n, (5 * n, 2))))
    labels = (np.arange(n) * CLASSES) // n
    return Dataset(ops, rng.standard_normal((n, D)), labels, *_split_masks(labels, 20, 30))


CASES = {
    "feature_powers": lambda ds: feature_powers(UgdgnnParams.zeros(K, CLASSES, D), ds.ops, ds.x),
    "train": lambda ds: train(ds, TrainConfig(k=K, epochs=3, patience=3)),
}


@pytest.mark.parametrize("n", [1000, 4000])
@pytest.mark.parametrize("case", sorted(CASES))
def test_peak_memory_scales_with_feature_powers(case, n):
    ds = _dataset(n)
    unit = 8 * (K + 1) * n * (D + 1)
    tracemalloc.start()
    try:
        CASES[case](ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_PER_UNIT * unit, f"peak {peak} B is {peak / unit:.2f} u"
