"""Shared generators for randomized tests.

Every random object is drawn from an explicitly seeded numpy Generator so
failures reproduce; hypothesis-driven tests derive graphs from drawn seeds
through the same helpers.
"""

import sys

import numpy as np
import pytest

from gsdnn import graph_core
from gsdnn.graph_core import Graph, normalize


def er_graph(rng: np.random.Generator, n: int, p: float = 0.25) -> Graph:
    """Erdos-Renyi graph on n nodes with self-loops, drawn into the mask as
    ``cli._random_er_ops`` draws them."""
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, True)
    return Graph(num_nodes=n, edges=np.argwhere(np.triu(mask)))


def er_ops(rng: np.random.Generator, n: int, p: float = 0.25):
    return normalize(er_graph(rng, n, p))


def random_signal(rng: np.random.Generator, n: int, d: int, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal((n, d))


def random_symmetric(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((d, d))
    return scale * 0.5 * (m + m.T)


def random_spd(rng: np.random.Generator, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d))
    return m @ m.T + d * np.eye(d)


@pytest.fixture
def spmm_calls(monkeypatch):
    """List that gets one entry per A_hat product: spmm is wrapped wherever
    a gsdnn module bound it."""
    calls = []
    real = graph_core.spmm

    def counting(ops, x):
        calls.append(np.shape(x))
        return real(ops, x)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gsdnn") and getattr(mod, "spmm", None) is real:
            monkeypatch.setattr(mod, "spmm", counting)
    return calls
