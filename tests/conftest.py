"""Shared generators for randomized tests.

Every random object is drawn from an explicitly seeded numpy Generator so
failures reproduce; hypothesis-driven tests derive graphs from drawn seeds
through the same helpers.
"""

import numpy as np

from gsdnn.graph_core import Graph, add_self_loops, normalize


def er_graph(rng: np.random.Generator, n: int, p: float = 0.25) -> Graph:
    """Erdos-Renyi graph on n nodes with self-loops added."""
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return add_self_loops(Graph(num_nodes=n, edges=np.argwhere(upper)))


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
