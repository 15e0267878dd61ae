"""Undirected graphs with self-loops and their normalized operators.

The whole library works on a single graph representation: an undirected,
unweighted graph whose edge set is stored once in canonical form (u <= v)
as two sorted int64 arrays, plus the operators derived from it after
self-loops are added,

    A_hat = D^{-1/2} A D^{-1/2},    L_hat = I - A_hat,

where D = diag(A 1). The oriented normalized incidence matrix
B_hat = B D^{-1/2} over the non-loop edges satisfies B_hat^T B_hat = L_hat
and exists mainly so tests can assert that identity; algorithms only ever
apply A_hat.

Edge lists are parsed, canonicalized, given their self-loops and normalized
as whole arrays; no step walks the edges in Python. ``Graph.edges`` turns the
arrays into a tuple of int pairs on demand, for callers that want Python
values.

Signals are plain float64 numpy arrays of shape (num_nodes, d), validated
by :func:`as_signal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "NormalizedOperators",
    "load_edge_list",
    "add_self_loops",
    "normalize",
    "spmm",
    "as_signal",
    "load_signal_csv",
]


# Largest node count whose edge keys u * n + v (at most n * n - 1) fit in int64.
_MAX_NODES = 3_037_000_499


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Undirected unweighted graph.

    Edges are deduplicated and stored once as (u, v) with u <= v, 0-indexed,
    in two read-only int64 arrays ``us`` and ``vs`` sorted by (u, v): the
    order of the keys u * n + v. ``edges`` is a tuple of (u, v) int pairs
    built from those arrays on each access. ``has_self_loops`` is derived:
    true iff (i, i) is present for every node.

    ``edges`` may be given as (u, v) pairs in any order and orientation,
    with repeats, or as an (m, 2) integer array.
    """

    num_nodes: int
    us: np.ndarray
    vs: np.ndarray
    has_self_loops: bool

    def __init__(self, num_nodes: int, edges: Sequence[tuple[int, int]] | np.ndarray) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if num_nodes > _MAX_NODES:
            raise ValueError(f"num_nodes {num_nodes} exceeds the maximum {_MAX_NODES}")
        n = num_nodes
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        us = np.minimum(pairs[:, 0], pairs[:, 1])
        vs = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (us < 0) | (vs >= n)
        if bad.any():
            first = np.lexsort((vs[bad], us[bad]))[0]
            u, v = int(us[bad][first]), int(vs[bad][first])
            raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
        keys = us * n + vs
        if np.any(keys[1:] <= keys[:-1]):
            # sort and drop repeats; np.unique gives the same keys but is
            # about 50x slower on numpy 2.4 at 2.5e5 keys
            keys = np.sort(keys)
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            us, vs = np.divmod(keys, n)
        us.flags.writeable = False
        vs.flags.writeable = False
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "has_self_loops", int(np.count_nonzero(us == vs)) == n)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.us.tolist(), self.vs.tolist()))

    @property
    def num_edges(self) -> int:
        return self.us.size


def _parse_edge_lines(text: str) -> tuple[int | None, np.ndarray]:
    """(declared node count or None, (m, 2) int64 pairs) of an edge list.

    Raises ValueError or OverflowError on any malformed line without saying
    which; :func:`_first_bad_line` words the message.
    """
    lines = [s for s in map(str.strip, text.splitlines()) if s and not s.startswith("#")]
    declared = None
    if lines:
        head = lines[0].split()
        if len(head) == 2 and head[0] == "nodes":
            declared = int(head[1])
            del lines[0]
    if (declared is not None and declared <= 0) or not set(map(len, map(str.split, lines))) <= {2}:
        raise ValueError("malformed edge list")
    tokens = chain.from_iterable(map(str.split, lines))
    pairs = np.fromiter(map(int, tokens), dtype=np.int64, count=2 * len(lines)).reshape(-1, 2)
    if pairs.size and pairs.min() < 0:
        raise ValueError("malformed edge list")
    return declared, pairs


def _first_bad_line(text: str) -> ValueError:
    """The error naming the first line that :func:`_parse_edge_lines` rejects."""
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if first_data_line and len(parts) == 2 and parts[0] == "nodes":
            first_data_line = False
            try:
                declared = int(parts[1])
            except ValueError:
                return ValueError(f"line {lineno}: malformed node-count header {line!r}")
            if declared <= 0:
                return ValueError(f"line {lineno}: node count must be positive")
            continue
        first_data_line = False
        if len(parts) != 2:
            return ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            return ValueError(f"line {lineno}: expected two integers, got {line!r}")
        if u < 0 or v < 0:
            return ValueError(f"line {lineno}: negative node index in {line!r}")
        if max(u, v) > np.iinfo(np.int64).max:
            return ValueError(f"line {lineno}: node index too large in {line!r}")
    return ValueError("malformed edge list")


def load_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list into a Graph.

    Each non-empty, non-comment line holds two nonnegative integers "u v".
    Lines starting with '#' are comments. An optional first data line
    "nodes N" fixes the node count; otherwise it is 1 + the largest index.
    """
    try:
        declared, pairs = _parse_edge_lines(text)
    except (ValueError, OverflowError):
        raise _first_bad_line(text) from None
    if declared is None:
        if not len(pairs):
            raise ValueError("empty edge list and no 'nodes N' header")
        declared = 1 + int(pairs.max())
    else:
        over = np.flatnonzero(pairs.max(axis=1) >= declared)
        if over.size:
            u, v = pairs[over[0]].tolist()
            raise ValueError(f"edge ({u}, {v}) exceeds declared node count {declared}")
    return Graph(num_nodes=declared, edges=pairs)


def add_self_loops(g: Graph) -> Graph:
    """Return a graph with (i, i) added for every node. Idempotent.

    The missing loops are inserted at their sorted positions, so the new
    graph's edges arrive already canonical.
    """
    n = g.num_nodes
    missing = np.ones(n, dtype=bool)
    missing[g.us[g.us == g.vs]] = False
    new = np.flatnonzero(missing)
    at = np.searchsorted(g.us * n + g.vs, new * (n + 1))
    pairs = np.column_stack((np.insert(g.us, at, new), np.insert(g.vs, at, new)))
    return Graph(num_nodes=n, edges=pairs)


@dataclass
class NormalizedOperators:
    """Precomputed normalized operators of a self-looped graph.

    ``a_hat`` is stored as CSR with both triangles so row iteration never
    branches on orientation; its values are d_u^{-1/2} d_v^{-1/2}, which
    makes the stored matrix exactly symmetric (float multiplication
    commutes). ``b_hat`` is built lazily on first access.
    """

    graph: Graph
    a_hat: sp.csr_matrix
    degrees: np.ndarray
    _b_hat: sp.csr_matrix | None = field(default=None, repr=False)

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def b_hat(self) -> sp.csr_matrix:
        """Oriented normalized incidence over non-loop edges, one row per
        edge: +d_u^{-1/2} at the smaller index u, -d_v^{-1/2} at v."""
        if self._b_hat is None:
            dinv = 1.0 / np.sqrt(self.degrees)
            g = self.graph
            off = g.us != g.vs
            us, vs = g.us[off], g.vs[off]
            rows = np.repeat(np.arange(us.size), 2)
            cols = np.column_stack((us, vs)).ravel()
            vals = np.column_stack((dinv[us], -dinv[vs])).ravel()
            self._b_hat = sp.csr_matrix(
                (vals, (rows, cols)), shape=(us.size, self.num_nodes)
            )
        return self._b_hat

    def laplacian_apply(self, x: np.ndarray) -> np.ndarray:
        """Apply L_hat = I - A_hat to a signal."""
        return x - spmm(self, x)


def normalize(g: Graph) -> NormalizedOperators:
    """Build A_hat = D^{-1/2} A D^{-1/2} and degrees for a self-looped graph.

    Rejects graphs without full self-loops: a zero-degree node would make
    the normalization undefined, and every algorithm here assumes loops.
    """
    if not g.has_self_loops:
        raise ValueError("graph must have self-loops on every node; call add_self_loops first")
    n = g.num_nodes
    off = g.us != g.vs
    # Both triangles as keys row * n + col; sorted, they are the CSR order,
    # with no repeats since the canonical edges have none.
    keys = np.sort(np.concatenate([g.us * n + g.vs, g.vs[off] * n + g.us[off]]))
    rows, cols = np.divmod(keys, n)

    counts = np.bincount(rows, minlength=n)
    degrees = counts.astype(np.float64)
    if np.any(degrees <= 0):
        raise ValueError("zero-degree node encountered after normalization setup")

    dinv = 1.0 / np.sqrt(degrees)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    a_hat = sp.csr_matrix((dinv[rows] * dinv[cols], cols, indptr), shape=(n, n))
    return NormalizedOperators(graph=g, a_hat=a_hat, degrees=degrees)


def spmm(ops: NormalizedOperators, x: np.ndarray) -> np.ndarray:
    """Sparse A_hat times dense signal. Deterministic for fixed input."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != ops.num_nodes:
        raise ValueError(
            f"signal has {x.shape[0]} rows but the graph has {ops.num_nodes} nodes"
        )
    return ops.a_hat @ x


def as_signal(values: Sequence | np.ndarray, num_nodes: int | None = None) -> np.ndarray:
    """Validate and coerce a dense signal to a float64 (n, d) array.

    Rejects non-finite entries; 1-D input becomes a single-column signal.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"signal must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains NaN or Inf entries")
    if num_nodes is not None and x.shape[0] != num_nodes:
        raise ValueError(f"signal has {x.shape[0]} rows, expected {num_nodes}")
    return x


def load_signal_csv(path: str, num_nodes: int | None = None) -> np.ndarray:
    """Load a headerless CSV where row i holds the features of node i."""
    x = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    return as_signal(x, num_nodes=num_nodes)
