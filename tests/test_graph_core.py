import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdnn.graph_core import (
    Graph,
    add_self_loops,
    as_signal,
    load_edge_list,
    normalize,
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


class TestGraph:
    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(num_nodes=2, edges=((0, 3),))

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
    def test_requires_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            normalize(load_edge_list("0 1"))

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
