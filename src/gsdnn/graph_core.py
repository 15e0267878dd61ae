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
as whole arrays. The parse is one ``np.loadtxt`` pass that skips comment
and blank lines wherever they are. The grammar itself is written once, in
a line walker that also names the first bad line; it reads only the texts
loadtxt cannot take the same way: a ``#`` after data on its line, a line
break other than LF or CRLF, and malformed lines. A graph is canonicalized
once: :func:`normalize` gives it its loops through :func:`add_self_loops`,
which merges the loop keys into the already sorted edge keys and returns a
graph that already has every loop as it is, so edges drawn together with
their loops reach the operators through a single ``Graph``.
``Graph.edges`` turns the arrays into a tuple of int pairs on demand, for
callers that want Python values.

Signals are plain float64 numpy arrays of shape (num_nodes, d), validated
by :func:`as_signal`. On disk they are headerless CSV: :func:`load_signal_csv`
reads it with ``np.loadtxt`` and rejects a file with no rows before loadtxt
sees it; :func:`save_signal_csv` writes the bytes that numpy's ``savetxt``
writes with ``fmt="%.17g"``, formatting a large signal's two halves in two
processes.

The second process comes from :func:`_forked`, the one place that forks,
pipes, reaps and falls back: the CSV writer's child formats half a signal,
and the ``sweep`` command's child trains every other depth.
"""

from __future__ import annotations

import contextlib
import io
import operator
import os
import shutil
import signal
import warnings
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterator, Sequence

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
    "save_signal_csv",
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
    with repeats, or as an (m, 2) integer array; ``num_nodes`` and the
    entries of a non-empty ``edges`` must be integers, not floats.
    """

    num_nodes: int
    us: np.ndarray
    vs: np.ndarray
    has_self_loops: bool

    def __init__(self, num_nodes: int, edges: Sequence[tuple[int, int]] | np.ndarray) -> None:
        n = operator.index(num_nodes)
        if n <= 0:
            raise ValueError("num_nodes must be positive")
        if n > _MAX_NODES:
            raise ValueError(f"num_nodes {n} exceeds the maximum {_MAX_NODES}")
        pairs = np.asarray(edges)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        elif pairs.dtype.kind not in "iu":
            raise TypeError(f"edges must hold integers, got dtype {pairs.dtype}")
        pairs = pairs.astype(np.int64, copy=False)
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
        if (keys[1:] <= keys[:-1]).any():
            us, vs = np.divmod(_sorted_unique(keys), n)
        self._set_edges(n, us, vs)

    def _set_edges(self, num_nodes: int, us: np.ndarray, vs: np.ndarray) -> None:
        """Store canonical, sorted, repeat-free edge arrays that the graph
        owns; the tail of ``__init__``, shared with :func:`add_self_loops`."""
        us.flags.writeable = False
        vs.flags.writeable = False
        object.__setattr__(self, "num_nodes", num_nodes)
        object.__setattr__(self, "us", us)
        object.__setattr__(self, "vs", vs)
        object.__setattr__(self, "has_self_loops", int(np.count_nonzero(us == vs)) == num_nodes)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.us.tolist(), self.vs.tolist()))

    @property
    def num_edges(self) -> int:
        return self.us.size


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place and return them without repeats. np.unique gives
    the same keys but is about 50x slower on numpy 2.4 at 2.5e5 keys."""
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


_INT64_MAX = np.iinfo(np.int64).max


def _parse_edge_lines(text: str) -> tuple[int | None, np.ndarray]:
    """(declared node count or None, (m, 2) int64 pairs) of an edge list,
    read line by line: the edge-list grammar. Raises the ValueError that
    names the first line it rejects."""
    declared, flat, first_data_line = None, [], True
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
                raise ValueError(f"line {lineno}: malformed node-count header {line!r}") from None
            if declared <= 0:
                raise ValueError(f"line {lineno}: node count must be positive")
            continue
        first_data_line = False
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative node index in {line!r}")
        if max(u, v) > _INT64_MAX:
            raise ValueError(f"line {lineno}: node index too large in {line!r}")
        flat += (u, v)
    return declared, np.array(flat, dtype=np.int64).reshape(-1, 2)


# str.splitlines breaks a line at each of these, as at a lone \r, but
# np.loadtxt reads them as whitespace; so "1\x0c2" is two malformed lines to
# the line walker and the row [1, 2] to loadtxt.
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _loadtxt_edges(text: str) -> tuple[int | None, np.ndarray] | None:
    """What :func:`_parse_edge_lines` returns, from one ``np.loadtxt`` pass
    over the lines after an optional "nodes N" line: about 6x faster at
    2.5e5 lines. None when the text needs the line walker: a ``#`` after data
    on its line, which the walker rejects and loadtxt would cut off, a line
    break that loadtxt does not split at, or anything loadtxt rejects, such
    as ``1_0``, which ``int`` reads as 10."""
    if any(c in text for c in _SPLITLINES_ONLY) or (
        "\r" in text and text.count("\r") != text.count("\r\n")
    ):
        return None
    # the only line breaks left are \n and \r\n, and strip() takes the \r;
    # skip the blank and comment lines before the first data line
    start = 0
    while (end := text.find("\n", start)) >= 0 and (
        not (line := text[start:end].strip()) or line.startswith("#")
    ):
        start = end + 1
    body, declared = text[start:].lstrip(), None
    if body.startswith("nodes"):
        head, _, body = body.partition("\n")
        parts = head.split()
        if len(parts) != 2 or parts[0] != "nodes":
            return None
        try:
            declared = int(parts[1])
        except ValueError:
            return None
        if declared <= 0:
            return None
    # the text before a line's first "#", back to its line break, is blank on
    # a comment line; that "#" ends the first segment or one that holds a
    # line break, and a segment between two "#" on one line is comment text
    if "#" in body and any(
        p.rpartition("\n")[2].strip()
        for i, p in enumerate(body.split("#")[:-1])
        if i == 0 or "\n" in p
    ):
        return None
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        try:
            pairs = np.loadtxt(io.StringIO(body), dtype=np.int64, comments="#", ndmin=2)
        except UserWarning:  # every line is blank or a comment
            return declared, np.empty((0, 2), dtype=np.int64)
        except (ValueError, OverflowError):
            return None
    if pairs.shape[1] != 2 or pairs.min() < 0:
        return None
    return declared, pairs


def load_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list into a Graph.

    Each non-empty, non-comment line holds two nonnegative integers "u v".
    Lines starting with '#' are comments; a '#' after data on its line is
    an error. An optional first data line "nodes N" fixes the node count;
    otherwise it is 1 + the largest index. A malformed text raises the
    ValueError that names its first bad line.
    """
    parsed = _loadtxt_edges(text)
    declared, pairs = _parse_edge_lines(text) if parsed is None else parsed
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

    A graph that already has every loop is returned as it is (``Graph`` is
    frozen and its arrays are read-only). Otherwise the loop keys
    i * (n + 1) are merged into the sorted edge keys as one array, and the
    new graph takes the result without a second validation pass.
    """
    if g.has_self_loops:
        return g
    n = g.num_nodes
    keys = _sorted_unique(np.concatenate((g.us * n + g.vs, np.arange(n) * (n + 1))))
    looped = Graph.__new__(Graph)
    looped._set_edges(n, *np.divmod(keys, n))
    return looped


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
        ax = spmm(self, x)
        return np.subtract(x, ax, out=ax)


def normalize(g: Graph) -> NormalizedOperators:
    """Build A_hat = D^{-1/2} A D^{-1/2} and degrees for ``g`` with a loop on
    every node: the loops are merged in by :func:`add_self_loops`, which
    returns a loop-complete graph as it is, so every degree is at least 1.
    A_hat's ``indices`` and ``indptr`` are int32 whenever both n and nnz fit
    in int32, the dtype scipy would pick itself; handing them over in that
    dtype spares scipy its scan of int64 index contents.
    """
    g = add_self_loops(g)
    n = g.num_nodes
    off = g.us != g.vs
    # Both triangles as keys row * n + col; sorted, they are the CSR order,
    # with no repeats since the canonical edges have none.
    keys = np.concatenate([g.us * n + g.vs, g.vs[off] * n + g.us[off]])
    keys.sort()
    cols = keys % n
    rows = np.floor_divide(keys, n, out=keys)  # the keys are not needed again

    counts = np.bincount(rows, minlength=n)
    degrees = counts.astype(np.float64)

    dinv = 1.0 / np.sqrt(degrees)
    data = dinv[rows]
    data *= dinv[cols]
    index = np.int32 if max(n, cols.size) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    counts.cumsum(out=indptr[1:])
    a_hat = sp.csr_matrix((data, cols.astype(index, copy=False), indptr), shape=(n, n))
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


def _loadtxt_rows(path, **kwargs) -> np.ndarray:
    """``np.loadtxt(path, **kwargs)`` of a file that has a row. A file whose
    lines are all blank or ``#`` comments raises ValueError here; loadtxt
    would warn and return an empty array."""
    with open(path) as f:
        if not any(line.partition("#")[0].strip() for line in f):
            raise ValueError("file has no data rows")
        f.seek(0)
        return np.loadtxt(f, **kwargs)


def load_signal_csv(path: str, num_nodes: int | None = None) -> np.ndarray:
    """Load a headerless CSV where row i holds the features of node i."""
    x = _loadtxt_rows(path, delimiter=",", dtype=np.float64, ndmin=2)
    return as_signal(x, num_nodes=num_nodes)


# Rows per ``%`` of the CSV writer. 4096-row blocks raised the peak RSS of a
# 5e4 x 16 denoise by 2.5 MiB; 1024 rows cost no time against them.
_CSV_BLOCK_ROWS = 1024


def _format_csv_block(block: np.ndarray) -> bytes:
    """The rows of ``block`` as numpy's ``savetxt(fmt="%.17g", delimiter=",")``
    writes them, from one ``%`` over all their values."""
    line = ",".join(["%.17g"] * block.shape[1]) + "\n"
    return ((line * block.shape[0]) % tuple(block.ravel().tolist())).encode("ascii")


def _write_csv_rows(f, x: np.ndarray) -> None:
    for start in range(0, x.shape[0], _CSV_BLOCK_ROWS):
        f.write(_format_csv_block(x[start : start + _CSV_BLOCK_ROWS]))


class _Child:
    """A forked child's side of :func:`_forked`: ``pipe`` is the read end of
    the pipe it writes to, and ``ok`` says, once it has been reaped, whether
    it exited with status 0."""

    def __init__(self, pipe: BinaryIO) -> None:
        self.pipe = pipe
        self.ok = False


@contextlib.contextmanager
def _forked(produce: Callable[[], bytes]) -> Iterator[_Child | None]:
    """Run ``produce()`` in a forked child that writes the bytes it returns
    to a pipe; the block gets the :class:`_Child`, or None where no child
    could be forked (no ``os.fork``, or a fork ``OSError``). The one way the
    program uses a second core.

    The child produces everything in memory and only then writes it: writing
    as it goes would fill the 64 KiB pipe buffer and stall the child until
    the parent reads, so the two processes would run in turn. It leaves
    through ``os._exit``, so it runs no exit handler and flushes no inherited
    buffer: status 0 once every byte is written, 1 on any exception.

    On leaving the block the pipe is closed and the child reaped; if the
    block raised, the child is killed first, so an error or Ctrl-C never
    waits for the child's work. A block that stops reading before the end of
    the pipe makes the child fail on its write, so ``ok`` is True only when
    the child wrote all of its bytes.

    On Python 3.12 and later, ``os.fork`` warns in a process with OS threads,
    and numpy's OpenBLAS starts some; that warning is ignored around the
    call. A child may call BLAS (the depth sweep's child trains): OpenBLAS
    shuts its thread pool down in a ``pthread_atfork`` handler before every
    fork and starts a new one at its next threaded call, in the child as in
    the parent, and glibc resets malloc's locks in the child, so the child
    holds no lock taken by a thread it does not have.
    """
    if not hasattr(os, "fork"):
        yield None
        return
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        yield None
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            data = produce()
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    child = _Child(open(read_end, "rb"))
    try:
        yield child
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        child.pipe.close()
        child.ok = os.waitpid(pid, 0)[1] == 0


def _csv_bytes(x: np.ndarray) -> memoryview:
    buf = io.BytesIO()
    _write_csv_rows(buf, x)
    return buf.getbuffer()


def save_signal_csv(path: str | os.PathLike, x: np.ndarray) -> None:
    """Write an (n, d) signal as the headerless CSV that
    :func:`load_signal_csv` reads.

    The bytes are those of numpy's
    ``savetxt(path, x, delimiter=",", fmt="%.17g")``:
    each value in ``%.17g``, which round-trips every float64, values joined
    by commas, and "\\n" after every row. Rows are formatted in blocks of at
    most ``_CSV_BLOCK_ROWS``. A signal of two blocks or more is formatted by
    two processes where ``os.fork`` exists: a child forked before the file
    is opened formats the second half of the rows while this process writes
    the first half, then this process copies the child's half from a pipe.
    If the child fails, this process formats that half itself, so the bytes
    never depend on which path ran; the child is reaped before this returns
    or raises.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"signal must be 2-D, got shape {x.shape}")
    half = x.shape[0] // 2
    two = x.shape[0] >= 2 * _CSV_BLOCK_ROWS
    # the child is forked before the file is opened, and reaped after it is closed
    with _forked(lambda: _csv_bytes(x[half:])) if two else contextlib.nullcontext() as child:
        with open(path, "wb") as f:
            _write_csv_rows(f, x if child is None else x[:half])
            if child is not None:
                mark = f.tell()
                shutil.copyfileobj(child.pipe, f)
    if child is not None and not child.ok:
        with open(path, "r+b") as f:
            f.seek(mark)
            f.truncate()
            _write_csv_rows(f, x[half:])
