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
pipes, reaps and falls back to one process; its docstring names its users.
"""

from __future__ import annotations

import io
import json
import operator
import os
import shutil
import signal
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import BinaryIO, Callable, Sequence, TypeVar

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs

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
            pairs = _python_int_pairs(edges, pairs)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
        # checked in the dtype given: a cast to int64 would wrap a uint64
        # above 2**63 - 1 to a negative index
        us = np.minimum(pairs[:, 0], pairs[:, 1])
        vs = np.maximum(pairs[:, 0], pairs[:, 1])
        bad = (us < 0) | (vs >= n)
        if bad.any():
            u, v = min(zip(us[bad].tolist(), vs[bad].tolist()))
            raise ValueError(f"edge ({u}, {v}) out of range for {n} nodes")
        us, vs = us.astype(np.int64, copy=False), vs.astype(np.int64, copy=False)
        keys = us * n + vs
        if (keys[1:] <= keys[:-1]).any():
            us, vs = np.divmod(_sorted_unique(keys), n)
        self._set_edges(n, us, vs)

    @classmethod
    def _trusted(cls, num_nodes: int, us: np.ndarray, vs: np.ndarray) -> Graph:
        """The graph over int64 edge arrays that are already canonical,
        sorted and free of repeats, and that it may own, built without
        ``__init__``'s checks: for :func:`add_self_loops` and the CLI's
        random graphs, whose arrays are made that way."""
        g = cls.__new__(cls)
        g._set_edges(num_nodes, us, vs)
        return g

    def _set_edges(self, num_nodes: int, us: np.ndarray, vs: np.ndarray) -> None:
        """Store edge arrays that ``__init__`` or :meth:`_trusted` vouch for."""
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


def _python_int_pairs(edges, pairs: np.ndarray) -> np.ndarray:
    """``edges`` as an object array of Python ints where numpy gave the
    non-integer array ``pairs`` only because some ints do not fit one integer
    dtype: [(0, 2**63)] becomes float64, [(0, 2**64)] object. TypeError for
    any other non-integer input."""
    if not isinstance(edges, np.ndarray) and pairs.dtype.kind in "fO":
        wide = np.array(edges, dtype=object)
        if all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in wide.flat):
            return wide
    raise TypeError(f"edges must hold integers, got dtype {pairs.dtype}")


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
    return Graph._trusted(n, *np.divmod(keys, n))


@dataclass
class NormalizedOperators:
    """Precomputed normalized operators of a self-looped graph.

    ``a_hat`` is stored as CSR with both triangles so row iteration never
    branches on orientation; its values are d_u^{-1/2} d_v^{-1/2}, which
    makes the stored matrix exactly symmetric (float multiplication
    commutes). ``b_hat`` and ``row_halves`` are built on first access and
    cached.
    """

    graph: Graph
    a_hat: sp.csr_matrix
    degrees: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @cached_property
    def b_hat(self) -> sp.csr_matrix:
        """Oriented normalized incidence over non-loop edges, one row per
        edge: +d_u^{-1/2} at the smaller index u, -d_v^{-1/2} at v."""
        dinv = 1.0 / np.sqrt(self.degrees)
        g = self.graph
        off = g.us != g.vs
        us, vs = g.us[off], g.vs[off]
        rows = np.repeat(np.arange(us.size), 2)
        cols = np.column_stack((us, vs)).ravel()
        vals = np.column_stack((dinv[us], -dinv[vs])).ravel()
        return sp.csr_matrix((vals, (rows, cols)), shape=(us.size, self.num_nodes))

    @cached_property
    def row_halves(self) -> tuple[int, sp.csr_matrix, sp.csr_matrix]:
        """(mid, rows before mid, rows from mid on) of A_hat, split at the row
        that holds its nnz midpoint, kept within 1 <= mid <= n - 1 (so n >= 2).
        Both blocks have all n columns and are views of A_hat's ``data`` and
        ``indices``; only the upper block's ``indptr`` is a new, shifted
        array. A block's product is A_hat's product on its rows, bit for bit."""
        a, n = self.a_hat, self.num_nodes
        mid = int(np.searchsorted(a.indptr, a.nnz // 2, side="right")) - 1
        mid = min(max(mid, 1), n - 1)
        cut = a.indptr[mid]
        lower, upper = sp.csr_matrix((mid, n)), sp.csr_matrix((n - mid, n))
        # set, not passed to the constructor, which copies a view of under
        # half of its base array
        lower.data, lower.indices = a.data[:cut], a.indices[:cut]
        lower.indptr = a.indptr[: mid + 1]
        upper.data, upper.indices = a.data[cut:], a.indices[cut:]
        upper.indptr = a.indptr[mid:] - cut
        return mid, lower, upper

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


def spmm(ops: NormalizedOperators, x: np.ndarray, half: int | None = None) -> np.ndarray:
    """Sparse A_hat times dense signal, or with ``half`` 0 or 1 only the rows
    of that block of ``ops.row_halves``, which are A_hat's rows of the
    product bit for bit. Deterministic for fixed input. ``x`` may be 1-D,
    and so is the product then.

    The product is scipy's compiled ``csr_matvecs`` kernel, called here on
    a zeroed float64 output: the routine that ``csr_matrix @ x`` ends in, so
    the bits are those of ``@``. Called directly, it skips scipy's Python
    dispatch, about 40% of the time of ``@`` on a 30-node, 3-column signal
    (2 vCPUs, scipy 1.17); the equiv command makes tens of thousands of such
    products. The kernel reads ``x`` in C order, so ``x`` is copied where it
    is not C-contiguous, as ``@`` copies it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"signal must be 1-D or 2-D, got shape {x.shape}")
    a = ops.a_hat if half is None else ops.row_halves[1 + half]
    rows, n = a.shape  # the kernel reads x's rows by the column indices of a
    if x.shape[0] != n:
        raise ValueError(f"signal has {x.shape[0]} rows but the graph has {n} nodes")
    out = np.zeros((rows, *x.shape[1:]))
    d = x.shape[1] if x.ndim == 2 else 1
    _csr_matvecs(rows, n, d, a.indptr, a.indices, a.data, x.ravel(), out.ravel())
    return out


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


_T = TypeVar("_T")


def _forked(theirs: Callable[[], bytes], mine: Callable[[BinaryIO], _T]) -> _T | None:
    """``mine(pipe)``, run in this process while a forked child runs
    ``theirs()`` and writes the bytes it returns to ``pipe``; None where the
    job must run in one process instead: there is no ``os.fork``, ``os.pipe``
    or ``os.fork`` raises OSError, ``mine`` raises an Exception, or the child
    did not write all of its bytes and exit with status 0. A ``mine`` that
    stops reading before the end of the pipe makes the child fail on its
    write. The one way the program uses a second core; its users are
    :func:`save_signal_csv`, ``gsd_problem.closed_form_ppnp``,
    ``iter_solvers``' gd and proxgd, and through :func:`_on_two_cores` the
    ``equiv`` command and ``bilevel_trainer.depth_sweep``.

    The pipe is closed and the child reaped before this returns or raises.
    If ``mine`` raises, the child is killed first, so an error or Ctrl-C
    never waits for the child's work; a BaseException that is not an
    Exception, such as KeyboardInterrupt, is re-raised.

    The child produces everything in memory and only then writes it: writing
    as it goes would fill the 64 KiB pipe buffer and stall the child until
    this process reads, so the two would run in turn. It leaves through
    ``os._exit``, so it runs no exit handler and flushes no inherited
    buffer: status 0 once every byte is written, 1 on any exception.

    On Python 3.12 and later, ``os.fork`` warns in a process with OS threads,
    and numpy's OpenBLAS starts some; that warning is ignored around the
    call. A child may call BLAS (the depth sweep's child trains, and an
    equiv check multiplies small matrices): OpenBLAS
    shuts its thread pool down in a ``pthread_atfork`` handler before every
    fork and starts a new one at its next threaded call, in the child as in
    the parent, and glibc resets malloc's locks in the child, so the child
    holds no lock taken by a thread it does not have.
    """
    if not hasattr(os, "fork"):
        return None
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            data = theirs()
            with open(write_end, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    result = None
    try:
        with open(read_end, "rb") as pipe:
            result = mine(pipe)
    except BaseException as error:
        os.kill(pid, signal.SIGKILL)
        if not isinstance(error, Exception):
            raise
    finally:
        ok = os.waitpid(pid, 0)[1] == 0
    return result if ok else None


def _on_two_cores(work: Callable[[Sequence], list], items: Sequence) -> tuple[list, int]:
    """``(work(items), forked)`` for a ``work`` that maps each item on its own,
    so the results are the serial ones: a forked child runs ``work(items[1::2])``
    and sends them as JSON (exact for any float) while this process runs the rest,
    and ``forked`` counts the child's items. With fewer than two items, or where
    :func:`_forked` returns None, all run here, with one process's errors."""
    if len(items) > 1:
        def interleaved(pipe) -> list:
            results = [None] * len(items)
            results[0::2] = work(items[0::2])
            results[1::2] = json.loads(pipe.read())
            return results

        results = _forked(lambda: json.dumps(work(items[1::2])).encode(), interleaved)
        if results is not None:
            return results, len(items[1::2])
    return work(items), 0


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
    two processes through :func:`_forked`: a child formats the second half
    of the rows while this process opens the file, writes the first half and
    then copies the child's half from the pipe. Where that returns None,
    this process writes the whole file itself, so the bytes and errors never
    depend on which path ran.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"signal must be 2-D, got shape {x.shape}")
    half = x.shape[0] // 2

    def write_halves(pipe: BinaryIO) -> bool:
        with open(path, "wb") as f:
            _write_csv_rows(f, x[:half])
            shutil.copyfileobj(pipe, f)
        return True

    two = x.shape[0] >= 2 * _CSV_BLOCK_ROWS
    if not (two and _forked(lambda: _csv_bytes(x[half:]), write_halves)):
        with open(path, "wb") as f:
            _write_csv_rows(f, x)
