import io
import os
import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdnn import graph_core
from gsdnn.cli import _random_er_ops
from gsdnn.graph_core import (
    Graph,
    add_self_loops,
    as_signal,
    load_edge_list,
    load_signal_csv,
    normalize,
    save_signal_csv,
    spmm,
)

from conftest import er_graph, er_ops


class TestLoadEdgeList:
    def test_basic_parse(self):
        g = load_edge_list("0 1\n1 2")
        assert g.num_nodes == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_dedup_and_canonical_order(self):
        g = load_edge_list("1 0\n0 1")
        assert g.edges == ((0, 1),)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("0 x")

    def test_comments_and_blank_lines(self):
        g = load_edge_list("# comment\n\n0 1\n# another\n1 2\n")
        assert g.num_nodes == 3

    def test_nodes_header(self):
        g = load_edge_list("nodes 5\n0 1")
        assert g.num_nodes == 5

    def test_header_overflow_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            load_edge_list("nodes 2\n0 5")

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list("-1 0")

    def test_layout_does_not_change_the_graph(self):
        # comments, blank lines, CRLF endings, tabs and the optional header
        # are all layout; every variant parses to the same graph
        variants = [
            "0 1\n2 1\n1 0\n3 3\n",
            "# a comment\n\n0 1\n\n# another\n2 1\n1 0\n   \n3 3\n",
            "0 1\r\n2 1\r\n1 0\r\n3 3\r\n",
            "nodes 4\n0 1\n2 1\n1 0\n3 3",
            "# c\r\n\r\nnodes 4\r\n0 1\r\n  2\t1 \r\n1 0\r\n3 3",
        ]
        for text in variants:
            g = load_edge_list(text)
            assert (g.num_nodes, g.edges) == (4, ((0, 1), (1, 2), (3, 3))), text

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n1", "line 2: expected 'u v'"),
            ("# c\n\n0 1\n1 2 3", "line 4: expected 'u v'"),
            ("0 1\r\n\r\n2 x\r\n3 -1", "line 3: expected two integers"),
            ("0 1\n-1 0", "line 2: negative node index"),
            ("# c\nnodes x\n0 1", "line 2: malformed node-count header"),
            ("nodes 0\n0 1", "line 1: node count must be positive"),
            ("nodes 3\n0 1\nnodes 3", "line 3: expected two integers"),
            ("0 1\n1 99999999999999999999", "line 2: node index too large"),
        ],
    )
    def test_malformed_line_error_names_its_line(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            load_edge_list(text)


# Pieces of edge-list texts: the separators str.splitlines breaks lines at
# but np.loadtxt does not, tokens that int() and loadtxt read differently,
# and comment lines, some of which only look like comments.
_LINE_ENDS = ["\n"] * 40 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                          "\x85", "\u2028", "\u2029"]
_GAPS = [" "] * 24 + ["\t", "  ", "\xa0", "\x1f", "\u3000", "\x0c", "\x1c", "\u2028",
                      "\x00", "\ufeff"]
_ODD_TOKENS = ["+1", "1_0", "007", "-0", "-1", "x", "1.0", "#", "nodes", "٣",
               "99999999999999999999", "\x00", "\ufeff1", "2\x00"]
_COMMENTS = ["#", "# c", " # 0 1", "\t#nodes 3", "\xa0# 1 2", "## #", "# a # b", "\x1f#",
             "\ufeff# c"]


@st.composite
def _edge_texts(draw) -> str:
    token = st.sampled_from([str(i) for i in range(10)] * 6 + _ODD_TOKENS)
    gap = st.sampled_from(_GAPS)
    # a leading block of comments and blank lines, as a file header has
    lines = [draw(st.sampled_from(["", " ", "\xa0", "\ufeff", *_COMMENTS]))
             for _ in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        lines.append(f"nodes{draw(gap)}{draw(st.sampled_from(['0', '12', '+12', '1_2', 'x']))}")
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["pair"] * 12 + ["blank"] * 2 + ["comment"] * 3
                                    + ["inline", "tokens"]))
        if kind == "pair":
            line = draw(token) + draw(gap) + draw(token)
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t", "\xa0"]))
        elif kind == "comment":
            line = draw(st.sampled_from(["# " + draw(token), *_COMMENTS]))
        elif kind == "inline":  # a "#" after data on its line
            line = draw(token) + draw(gap) + draw(token) + draw(st.sampled_from(["", " "])) + "#"
        else:
            line = draw(gap).join(draw(st.lists(token, max_size=3)))
        lines.append(draw(st.sampled_from(["", " "])) + line)
    ends = [draw(st.sampled_from(_LINE_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


def _parse_outcome(text: str):
    try:
        g = load_edge_list(text)
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return g.num_nodes, g.us.tolist(), g.vs.tolist()


@settings(max_examples=400, deadline=None)
@given(text=_edge_texts())
def test_loadtxt_fast_path_matches_line_parser(text):
    """Every text parses to the same graph, or fails with the same message,
    whether or not the np.loadtxt path may take it."""
    fast = _parse_outcome(text)
    with mock.patch.object(graph_core, "_loadtxt_edges", return_value=None):
        assert _parse_outcome(text) == fast


def test_loadtxt_fast_path_takes_plain_lists_and_passes_odd_ones_on():
    assert graph_core._loadtxt_edges("nodes 4\r\n 0 1\r\n\r\n+2\t1 \n") is not None
    assert graph_core._loadtxt_edges("nodes 4\n  \n")[1].shape == (0, 2)
    declared, pairs = graph_core._loadtxt_edges("# c\n \n  # c")
    assert declared is None and pairs.shape == (0, 2)
    for text in ["0 1 # c\n", "1\x0c2", "1\r2", "1_0 2", "0 1\n-1 2", "5\n", "nodes 0"]:
        assert graph_core._loadtxt_edges(text) is None, text


@pytest.mark.parametrize("text, declared", [
    ("# header\n\n# more\r\nnodes 4\n0 1\n2 1\n1 0\n3 3\n", 4),
    ("  # header\n\t\n0 1\n2 1\n1 0\n3 3", None),
    ("nodes 4\n0 1\n# c\n2 1\n\n  # 7 7\n1 0\n3 3\n# end", 4),
    ("0 1\r\n\t#\r\n2 1\r\n1 0\r\n## #\r\n3 3\r\n", None),
    ("0 1\n# a # b\n1 2\n3 3\n", None),
])
def test_leading_comments_keep_the_loadtxt_path(monkeypatch, text, declared):
    def line_parser(text):
        raise AssertionError("the line parser ran")

    monkeypatch.setattr(graph_core, "_parse_edge_lines", line_parser)
    g = load_edge_list(text)
    assert (g.num_nodes, g.edges) == (4, ((0, 1), (1, 2), (3, 3)))
    assert graph_core._loadtxt_edges(text)[0] == declared


@pytest.mark.parametrize("text, message", [
    ("# header\n\n0 1\n# c\n1 2 3\n", "line 5: expected 'u v'"),
    ("# header\n \n0 #\n1 2\n", "line 3: expected two integers"),
])
def test_malformed_line_after_leading_comments_names_its_line(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        load_edge_list(text)


class TestGraph:
    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(num_nodes=2, edges=((0, 3),))

    @pytest.mark.parametrize("num_nodes, edges", [
        (2.5, [(0, 1)]),
        (3, [(0, 1.7)]),
        (3, np.array([[0.0, 1.0]])),
    ])
    def test_rejects_entries_that_are_not_integers(self, num_nodes, edges):
        with pytest.raises(TypeError):
            Graph(num_nodes=num_nodes, edges=edges)

    def test_takes_numpy_integers_and_empty_edges(self):
        g = Graph(num_nodes=np.int64(3), edges=np.array([[2, 1]], dtype=np.uint8))
        assert (type(g.num_nodes), g.edges) == (int, ((1, 2),))
        assert Graph(num_nodes=2, edges=[]).num_edges == 0

    def test_rejects_array_that_is_not_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            Graph(num_nodes=3, edges=np.zeros((2, 3), dtype=np.int64))

    def test_edge_arrays_are_read_only(self):
        g = Graph(num_nodes=3, edges=np.array([[2, 1], [0, 1]]))
        assert g.edges == ((0, 1), (1, 2))
        with pytest.raises(ValueError):
            g.us[0] = 2

    def test_add_self_loops_two_node_path(self):
        g = add_self_loops(load_edge_list("0 1"))
        assert g.edges == ((0, 0), (0, 1), (1, 1))
        assert g.has_self_loops

    def test_add_self_loops_idempotent(self):
        g = add_self_loops(load_edge_list("0 1\n1 2"))
        assert add_self_loops(g).edges == g.edges

    def test_loops_only_graph(self):
        g = add_self_loops(Graph(num_nodes=3, edges=()))
        assert g.edges == ((0, 0), (1, 1), (2, 2))


class TestNormalize:
    def test_adds_missing_self_loops(self):
        g = load_edge_list("0 1\n1 2\n2 2")
        got, want = normalize(g), normalize(add_self_loops(g))
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got.a_hat, name), getattr(want.a_hat, name))
        np.testing.assert_array_equal(got.degrees, want.degrees)
        assert got.graph.has_self_loops and not g.has_self_loops

    def test_single_node_with_loop(self):
        ops = normalize(add_self_loops(Graph(num_nodes=1, edges=())))
        np.testing.assert_allclose(ops.a_hat.toarray(), [[1.0]])
        np.testing.assert_allclose(ops.laplacian_apply(np.array([[2.0]])), [[0.0]])

    def test_two_node_path_hand_values(self):
        # Hand computation: A = [[1,1],[1,1]], D = diag(2,2),
        # so A_hat = [[.5,.5],[.5,.5]] and L_hat = [[.5,-.5],[-.5,.5]].
        ops = normalize(add_self_loops(load_edge_list("0 1")))
        expected_a = np.array([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(ops.a_hat.toarray(), expected_a, atol=1e-15)
        lap = np.eye(2) - ops.a_hat.toarray()
        np.testing.assert_allclose(lap, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_incidence_identity_random_graph(self):
        # Dense oracle: B_hat^T B_hat must equal I - A_hat entrywise.
        rng = np.random.default_rng(7)
        ops = er_ops(rng, 10)
        btb = (ops.b_hat.T @ ops.b_hat).toarray()
        lap = np.eye(10) - ops.a_hat.toarray()
        assert np.max(np.abs(btb - lap)) < 1e-12

    def test_a_hat_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        ops = er_ops(rng, 23)
        diff = (ops.a_hat - ops.a_hat.T).toarray()
        assert np.max(np.abs(diff)) == 0.0


class TestSpmm:
    def test_zero_signal(self):
        rng = np.random.default_rng(0)
        ops = er_ops(rng, 6)
        assert np.all(spmm(ops, np.zeros((6, 2))) == 0.0)

    def test_single_loop_node(self):
        ops = normalize(add_self_loops(Graph(num_nodes=1, edges=())))
        np.testing.assert_allclose(spmm(ops, np.array([[3.5]])), [[3.5]])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        ops = er_ops(rng, 8)
        x = rng.standard_normal((8, 3))
        dense = ops.a_hat.toarray() @ x
        assert np.max(np.abs(spmm(ops, x) - dense)) < 1e-13

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        ops = er_ops(rng, 6)
        with pytest.raises(ValueError, match="rows"):
            spmm(ops, np.zeros((5, 2)))


class TestSignalValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            as_signal(np.array([[1.0, np.nan]]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_signal(np.array([[np.inf]]))

    def test_promotes_1d(self):
        assert as_signal(np.arange(3.0)).shape == (3, 1)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_graph_matches_reference_canonicalization(n, data):
    # Pairs with repeats, both orientations and self-loops, sometimes one on
    # every node; the reference is the set-and-sort canonical form.
    node = st.integers(0, n - 1)
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=60))
    if data.draw(st.booleans()):
        pairs += [(i, i) for i in range(n)]
    pairs = data.draw(st.permutations(pairs))
    want = tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs}))
    want_loops = len({u for u, v in want if u == v}) == n
    for edges in (tuple(pairs), np.array(pairs, dtype=np.int64).reshape(-1, 2)):
        g = Graph(num_nodes=n, edges=edges)
        assert g.edges == want
        assert g.num_edges == len(want)
        assert g.has_self_loops == want_loops
    looped = add_self_loops(Graph(num_nodes=n, edges=tuple(pairs)))
    assert looped.edges == tuple(sorted(set(want) | {(i, i) for i in range(n)}))
    assert looped.has_self_loops


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50))
def test_incidence_plus_adjacency_is_identity(seed, n):
    rng = np.random.default_rng(seed)
    ops = er_ops(rng, n)
    resid = (ops.b_hat.T @ ops.b_hat).toarray() + ops.a_hat.toarray() - np.eye(n)
    assert np.max(np.abs(resid)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), d=st.integers(1, 4))
def test_spmm_matches_dense(seed, n, d):
    rng = np.random.default_rng(seed)
    ops = er_ops(rng, n)
    x = rng.standard_normal((n, d))
    dense = ops.a_hat.toarray() @ x
    scale = max(1.0, np.max(np.abs(dense)))
    assert np.max(np.abs(spmm(ops, x) - dense)) / scale < 1e-13


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_smooth_eigenvector_is_fixed(seed, n):
    # A_hat (D^{1/2} 1) = D^{1/2} 1: the normalized all-ones direction.
    rng = np.random.default_rng(seed)
    ops = er_ops(rng, n)
    v = np.sqrt(ops.degrees)[:, None]
    assert np.max(np.abs(spmm(ops, v) - v)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50))
def test_adjacency_spectrum_in_unit_interval(seed, n):
    rng = np.random.default_rng(seed)
    ops = er_ops(rng, n)
    eigs = np.linalg.eigvalsh(ops.a_hat.toarray())
    assert eigs.min() >= -1.0 - 1e-10
    assert eigs.max() <= 1.0 + 1e-10


def _reference_a_hat(n: int, pairs: list[tuple[int, int]]):
    """(A_hat, degrees) of the looped graph, built independently: scipy COO
    of both triangles plus the missing loops, then tocsr and sort_indices."""
    edges = {(min(u, v), max(u, v)) for u, v in pairs}
    edges |= {(i, i) for i in range(n)}
    rows = [u for u, v in edges] + [v for u, v in edges if u != v]
    cols = [v for u, v in edges] + [u for u, v in edges if u != v]
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    degrees = np.bincount(rows, minlength=n).astype(np.float64)
    dinv = 1.0 / np.sqrt(degrees)
    a = sp.coo_matrix((dinv[rows] * dinv[cols], (rows, cols)), shape=(n, n)).tocsr()
    a.sort_indices()
    return a, degrees


def _assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 30), loops=st.sampled_from(["none", "some", "all"]), data=st.data())
def test_looped_operators_bit_equal_scipy_reference(n, loops, data):
    node = st.integers(0, n - 1)
    pairs = [(u, v) for u, v in data.draw(st.lists(st.tuples(node, node), max_size=80)) if u != v]
    if loops == "some":
        pairs += [(i, i) for i in data.draw(st.lists(node, max_size=n))]
    elif loops == "all":
        pairs += [(i, i) for i in range(n)]
    pairs = data.draw(st.permutations(pairs))
    g = Graph(num_nodes=n, edges=np.array(pairs, dtype=np.int64).reshape(-1, 2))
    ops = normalize(add_self_loops(g))
    want, degrees = _reference_a_hat(n, pairs)
    for name in ("indptr", "indices", "data"):
        _assert_bit_equal(getattr(ops.a_hat, name), getattr(want, name))
    _assert_bit_equal(ops.degrees, degrees)


def test_add_self_loops_returns_a_loop_complete_graph_itself():
    g = add_self_loops(load_edge_list("0 1\n1 2"))
    assert g.has_self_loops
    assert add_self_loops(g) is g
    full = Graph(num_nodes=3, edges=((0, 0), (1, 1), (2, 2), (0, 2)))
    assert add_self_loops(full) is full


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 50))
def test_loop_drawn_er_mask_gives_the_added_loop_graph(seed, n):
    # the helpers draw the loops into the mask; the graph must be the one
    # that adding loops to the loop-free draw gives
    for p, drawn in ((0.25, er_graph(np.random.default_rng(seed), n)),
                     (0.2, _random_er_ops(np.random.default_rng(seed), n).graph)):
        upper = np.triu(np.random.default_rng(seed).random((n, n)) < p, k=1)
        want = add_self_loops(Graph(num_nodes=n, edges=np.argwhere(upper)))
        _assert_bit_equal(drawn.us, want.us)
        _assert_bit_equal(drawn.vs, want.vs)
        assert drawn.has_self_loops


# ---------------------------------------------------------------------------
# signal CSV files

# Values whose %.17g text is easy to get wrong: signed zero, the smallest
# subnormal, the extremes, a decimal that does not round-trip at 16 digits,
# and integer-valued floats, one above 2**53.
_CSV_VALUES = [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1, 1e16, 3.0, -7.0, 2.0**53 + 2, 123456789.0]
_BLOCK = 4


def _savetxt_bytes(x):
    buf = io.BytesIO()
    np.savetxt(buf, x, delimiter=",", fmt="%.17g")
    return buf.getvalue()


def _csv_signal(rows, width, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, width))
    flat = x.ravel()
    flat[: len(_CSV_VALUES)] = _CSV_VALUES[: flat.size]
    return x


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Small writer blocks, so that the forked path runs on small signals,
    and a list that gets one entry per fork."""
    monkeypatch.setattr(graph_core, "_CSV_BLOCK_ROWS", _BLOCK)
    calls, real = [], os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


@pytest.mark.parametrize("width", [1, 2, 16, 17])
@pytest.mark.parametrize("rows", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK,
                                  2 * _BLOCK + 1, 5 * _BLOCK + 3])
@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_save_signal_csv_writes_the_savetxt_bytes(tmp_path, monkeypatch, forks, width, rows,
                                                 fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    x = _csv_signal(rows, width)
    save_signal_csv(tmp_path / "x.csv", x)
    assert (tmp_path / "x.csv").read_bytes() == _savetxt_bytes(x)
    assert len(forks) == (fork and rows >= 2 * _BLOCK)
    _assert_no_child_left()


@pytest.mark.parametrize("failure", ["raises", "writes-then-fails"])
def test_failed_child_gives_the_same_bytes(tmp_path, monkeypatch, forks, failure):
    parent, real_format, real_exit = os.getpid(), graph_core._format_csv_block, os._exit

    def format_in_child(block):
        if os.getpid() == parent:
            return real_format(block)
        if failure == "raises":
            raise MemoryError("child fails")
        return real_format(block) * 2  # too many bytes, then a failing status

    def exit_in_child(status):
        real_exit(1 if failure == "writes-then-fails" else status)

    monkeypatch.setattr(graph_core, "_format_csv_block", format_in_child)
    monkeypatch.setattr(os, "_exit", exit_in_child)
    x = _csv_signal(7 * _BLOCK + 2, 5)
    save_signal_csv(tmp_path / "x.csv", x)
    assert (tmp_path / "x.csv").read_bytes() == _savetxt_bytes(x)
    assert forks == [parent]
    _assert_no_child_left()


def test_failed_fork_gives_the_same_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(graph_core, "_CSV_BLOCK_ROWS", _BLOCK)

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    x = _csv_signal(3 * _BLOCK, 2)
    save_signal_csv(tmp_path / "x.csv", x)
    assert (tmp_path / "x.csv").read_bytes() == _savetxt_bytes(x)


@pytest.mark.parametrize("rows", [1, 3 * _BLOCK])
def test_unwritable_path_raises_and_leaves_no_child(tmp_path, forks, rows):
    with pytest.raises(OSError):
        save_signal_csv(tmp_path / "missing" / "x.csv", _csv_signal(rows, 2))
    assert len(forks) == (rows >= 2 * _BLOCK)
    _assert_no_child_left()


def test_save_signal_csv_rejects_a_signal_that_is_not_2d(tmp_path):
    with pytest.raises(ValueError, match="2-D"):
        save_signal_csv(tmp_path / "x.csv", np.zeros(3))


def test_saved_signal_loads_back_bit_for_bit(tmp_path, forks):
    x = _csv_signal(3 * _BLOCK + 1, 4)
    save_signal_csv(tmp_path / "x.csv", x)
    np.testing.assert_array_equal(load_signal_csv(tmp_path / "x.csv", num_nodes=x.shape[0]), x)


@pytest.mark.parametrize("text", ["", "\n", "\n\n", "# header\n", " \t\n# c\r\n"])
def test_signal_file_without_rows_is_rejected_before_loadtxt(tmp_path, text):
    (tmp_path / "x.csv").write_text(text)
    with pytest.raises(ValueError, match="no data rows"):
        load_signal_csv(tmp_path / "x.csv")
    with pytest.raises(ValueError, match="no data rows"):
        load_signal_csv(tmp_path / "x.csv", num_nodes=3)
