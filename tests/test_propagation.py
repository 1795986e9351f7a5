"""Affinity propagation: recursive in-place inverse, the edge and dense
results of the one solve, direct solve, fixed-point iteration, symmetrize."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssdml
from ssdml import propagation
from ssdml.errors import ConfigError, ConvergenceError
from ssdml.graph import NeighborGraph
from ssdml.propagation import propagate_direct, propagate_iterative, symmetrize


def random_graph(rng, max_n=200):
    n = int(rng.integers(5, max_n + 1))
    k = int(rng.integers(2, min(n, 11)))
    Z = rng.standard_normal((n, 3))
    labels = rng.integers(-1, 3, size=n)
    return ssdml.build_knn(Z, k), labels


def random_instance(rng, max_n=200):
    g, labels = random_graph(rng, max_n)
    return ssdml.neighbor_matrix(g), ssdml.seed_affinity(labels)


def dense_reference(graph, labels, gamma):
    """The LAPACK reference both results are checked against: Q and W0
    materialized, then propagate_direct and symmetrize."""
    return symmetrize(propagate_direct(ssdml.neighbor_matrix(graph),
                                       ssdml.seed_affinity(labels), gamma))


def on_edges(W, graph):
    """A dense n x n matrix read at the graph's edges, as propagate() returns them."""
    return np.take_along_axis(W, graph.neighbors, axis=1)


def assert_edges_match_reference(graph, labels, gamma):
    # (1 - gamma) A^-1 is nonnegative with row sums <= 1, so every entry is
    # bounded by 1 and an absolute tolerance fits every graph
    edges = ssdml.propagate(graph, labels, gamma).edges
    assert edges.shape == (graph.n, graph.k)
    want = on_edges(dense_reference(graph, labels, gamma), graph)
    assert np.abs(edges - want).max() <= 1e-12


class TestPropagateDirect:
    def test_gamma_zero_is_identity(self):
        rng = np.random.default_rng(0)
        Q, W0 = random_instance(rng, max_n=30)
        assert np.array_equal(propagate_direct(Q, W0, 0.0), W0)

    def test_two_mutual_same_class_nodes_fixed_point(self):
        # hand-computed: (I - g*Q)^-1 = [[1, g], [g, 1]] / (1 - g^2), so
        # (1-g) * (I - g*Q)^-1 @ ones = ones for any gamma
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
        W0 = np.ones((2, 2))
        for gamma in (0.3, 0.5, 0.9, 0.99):
            Wstar = propagate_direct(Q, W0, gamma)
            assert np.abs(Wstar - 1.0).max() <= 1e-12

    def test_chain_spreads_affinity_to_unlabeled_middle(self):
        # nodes: labeled(0), unlabeled, labeled(0) on a line; k=1
        Z = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, -1, 0])
        g = ssdml.build_knn(Z, 1)
        Q = ssdml.neighbor_matrix(g)
        W0 = ssdml.seed_affinity(labels)
        W = symmetrize(propagate_direct(Q, W0, 0.9))
        assert W[1, 0] > 0 and W[1, 2] > 0

    def test_monotone_influence_of_gamma_on_chain(self):
        Z = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, -1, 0])
        Q = ssdml.neighbor_matrix(ssdml.build_knn(Z, 1))
        W0 = ssdml.seed_affinity(labels)
        prev = -np.inf
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            W = symmetrize(propagate_direct(Q, W0, gamma))
            coupling = W[1, 0] + W[1, 2]
            assert coupling > prev
            prev = coupling

    def test_gamma_out_of_range(self):
        Q = np.zeros((2, 2))
        for gamma in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                propagate_direct(Q, np.eye(2), gamma)


class TestPropagateIterative:
    def test_matches_direct_solve_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            Q, W0 = random_instance(rng)
            gamma = float(rng.choice([0.5, 0.9, 0.99]))
            direct = propagate_direct(Q, W0, gamma)
            iterative, _ = propagate_iterative(Q, W0, gamma, tol=1e-10,
                                               max_iter=100_000)
            assert np.abs(direct - iterative).max() <= 1e-8

    def test_gamma_zero_converges_first_iteration(self):
        rng = np.random.default_rng(1)
        Q, W0 = random_instance(rng, max_n=20)
        W, iters = propagate_iterative(Q, W0, 0.0)
        assert iters == 1
        assert np.array_equal(W, W0)

    def test_default_gamma_converges_and_reports_iterations(self):
        rng = np.random.default_rng(2)
        n, k = 100, 5
        Z = rng.standard_normal((n, 3))
        labels = rng.integers(-1, 4, size=n)
        Q = ssdml.neighbor_matrix(ssdml.build_knn(Z, k))
        W0 = ssdml.seed_affinity(labels)
        W, iters = propagate_iterative(Q, W0, 0.99, tol=1e-10, max_iter=100_000)
        assert iters > 1
        assert np.abs(W - propagate_direct(Q, W0, 0.99)).max() <= 1e-8

    def test_budget_exhaustion_reports_residual(self):
        rng = np.random.default_rng(3)
        Q, W0 = random_instance(rng, max_n=50)
        with pytest.raises(ConvergenceError) as err:
            propagate_iterative(Q, W0, 0.99, tol=1e-14, max_iter=3)
        assert err.value.residual > 0


class TestSymmetrize:
    def test_elementwise_average(self):
        assert symmetrize(np.array([[0.0, 2.0], [0.0, 0.0]])).tolist() == \
            [[0.0, 1.0], [1.0, 0.0]]

    def test_symmetric_input_unchanged(self):
        S = np.array([[1.0, 0.5], [0.5, 2.0]])
        assert np.array_equal(symmetrize(S), S)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 8))
        once = symmetrize(X)
        assert np.array_equal(symmetrize(once), once)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((12, 12)) * 1e6
        S = symmetrize(X)
        assert np.array_equal(S, S.T)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([0.3, 0.6, 0.9]))
def test_propagate_dispatcher_symmetric_finite(seed, gamma):
    rng = np.random.default_rng(seed)
    graph, labels = random_graph(rng, max_n=40)
    aff = ssdml.propagate(graph, labels, gamma)
    assert np.isfinite(aff.edges).all()
    assert_mutual_edges_equal(aff.edges, graph)


def assert_mutual_edges_equal(edges, graph):
    """Edge i -> j and edge j -> i carry exactly the same affinity."""
    pos = {(i, int(j)): s for i in range(graph.n)
           for s, j in enumerate(graph.neighbors[i])}
    for (i, j), s in pos.items():
        if (j, i) in pos:
            assert edges[i, s] == edges[j, pos[(j, i)]]


def dominant_matrix(rng, n, gamma):
    """I - gamma*Q for a dense Q of random sign whose absolute rows sum to 1:
    strictly row diagonally dominant with margin at least 1 - gamma."""
    Q = rng.random((n, n)) * rng.choice([-1.0, 1.0], size=(n, n))
    Q /= np.abs(Q).sum(axis=1, keepdims=True)
    return np.eye(n) - gamma * Q


def invert_in_place(A):
    A = A.copy()
    propagation._invert(A)
    return A


def solved(graph, labels, gamma):
    """X = A^-1 W0 assembled from the column blocks of the one solve."""
    X = np.full((graph.n, graph.n), np.nan)
    for cols, rows in propagation._solve(graph, labels, gamma, 0, "test"):
        assert np.isnan(X[:, cols]).all()  # every column once
        X[:, cols] = rows.T
    return X


# the hand-built lists of TestPropagate, and the same made with a bottom-half
# node listing a top-half neighbor twice and a bottom-half self edge
HAND_BUILT = [[[0, 1], [2, 2], [3, 0], [1, 2]],
              [[0, 1], [2, 0], [2, 0], [1, 1]]]


class TestRecursiveInverse:
    @pytest.mark.parametrize("leaf, n", [(64, 63), (64, 64), (64, 65), (64, 129),
                                         (3, 23), (4, 37), (1, 6)])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.99])
    def test_matches_numpy_inverse(self, monkeypatch, leaf, n, gamma):
        monkeypatch.setattr(propagation, "LEAF_SIZE", leaf)
        A = dominant_matrix(np.random.default_rng(n), n, gamma)
        want = np.linalg.inv(A)
        assert np.abs(invert_in_place(A) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("leaf", [1, 2, 5])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.99])
    def test_top_level_gather_matches_numpy_inverse(self, monkeypatch, leaf, gamma):
        # the block solve reads A12 and A21 from the neighbor lists and
        # builds only the diagonal blocks; with no labels W0 = I, so it
        # hands out the columns of A^-1
        monkeypatch.setattr(propagation, "LEAF_SIZE", leaf)
        rng = np.random.default_rng(leaf)
        graphs = [NeighborGraph(n=4, k=2, neighbors=nbrs) for nbrs in HAND_BUILT]
        graphs += [random_graph(rng, max_n=30)[0] for _ in range(5)]
        for graph in graphs:
            A = np.eye(graph.n) - gamma * ssdml.neighbor_matrix(graph)
            m = graph.n // 2
            for lo, hi in ((0, m), (m, graph.n), (0, graph.n)):
                assert np.array_equal(
                    propagation._transposed_diagonal_block(graph, gamma, lo, hi),
                    A[lo:hi, lo:hi].T)
            got = solved(graph, np.full(graph.n, -1), gamma)
            want = np.linalg.inv(A)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("leaf", [1, 2, 3, 7])
    def test_small_leaves_match_dense_reference(self, monkeypatch, leaf):
        monkeypatch.setattr(propagation, "LEAF_SIZE", leaf)
        rng = np.random.default_rng(20 + leaf)
        for nbrs in HAND_BUILT:
            graph = NeighborGraph(n=4, k=2, neighbors=nbrs)
            assert_edges_match_reference(graph, np.array([0, -1, 1, 0]), 0.7)
        for _ in range(10):
            graph, labels = random_graph(rng, max_n=60)
            assert_edges_match_reference(graph, labels, float(rng.choice([0.0, 0.5, 0.99])))


class TestPropagate:
    def test_edges_match_dense_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            graph, labels = random_graph(rng)
            gamma = float(rng.choice([0.0, 0.5, 0.9, 0.99]))
            assert_edges_match_reference(graph, labels, gamma)

    def test_hand_built_graph_with_self_loop_and_repeats(self):
        # I - gamma*Q for lists the kNN builder never makes: a self edge and
        # a neighbor listed twice
        graph = NeighborGraph(n=4, k=2, neighbors=[[0, 1], [2, 2], [3, 0], [1, 2]])
        labels = np.array([0, -1, 1, 0])
        assert_edges_match_reference(graph, labels, 0.7)

    def test_direct_solve_above_former_cutoff(self):
        # up to 2,000 nodes used to be solved directly and larger graphs by
        # fixed-point iteration; n = 2,001 (odd: unequal blocks) must match
        # the direct solve
        rng = np.random.default_rng(13)
        n = 2001
        graph = ssdml.build_knn(rng.standard_normal((n, 4)), 10)
        labels = np.where(rng.random(n) < 0.05, rng.integers(0, 5, size=n), -1)
        assert_edges_match_reference(graph, labels, 0.99)

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 40, 41])
    @pytest.mark.parametrize("labeled", ["none", "some", "all"])
    def test_small_and_odd_sizes_and_label_extremes(self, n, labeled):
        # with every node labeled the class columns span both blocks; with
        # none there are no class columns at all
        rng = np.random.default_rng(n)
        graph = ssdml.build_knn(rng.standard_normal((n, 2)), min(n - 1, 4))
        labels = {"none": np.full(n, -1),
                  "some": np.where(np.arange(n) % 3 == 0, np.arange(n) % 2, -1),
                  "all": rng.integers(0, 3, size=n)}[labeled]
        for gamma in (0.0, 0.5, 0.99):
            assert_edges_match_reference(graph, labels, gamma)
            assert_mutual_edges_equal(ssdml.propagate(graph, labels, gamma).edges,
                                      graph)

    def test_gamma_zero_is_the_seed_on_the_edges(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            graph, labels = random_graph(rng, max_n=60)
            edges = ssdml.propagate(graph, labels, 0.0).edges
            assert np.array_equal(edges, on_edges(ssdml.seed_affinity(labels), graph))

    def test_mining_matches_dense_reference(self):
        rng = np.random.default_rng(14)
        Z = rng.standard_normal((300, 5))
        labels = np.where(rng.random(300) < 0.1, rng.integers(0, 4, size=300), -1)
        graph = ssdml.build_knn(Z, 10)
        got = ssdml.mine_triplets(ssdml.propagate(graph, labels, 0.99), graph)
        want = ssdml.mine_triplets(dense_reference(graph, labels, 0.99), graph)
        assert np.array_equal(got, want)

    def test_propagate_dense_is_the_dense_reference(self):
        rng = np.random.default_rng(16)
        graph, labels = random_graph(rng, max_n=80)
        got = ssdml.propagate_dense(graph, labels, 0.9)
        assert np.abs(got - dense_reference(graph, labels, 0.9)).max() <= 1e-12
        assert np.array_equal(got, got.T)

    def test_propagate_dense_at_the_edges_is_propagate(self):
        # one solve behind both: the dense result read at the kNN edges is
        # the edge result bit for bit
        rng = np.random.default_rng(12)
        cases = [(NeighborGraph(n=4, k=2, neighbors=nbrs), np.array([0, -1, 1, 0]), 0.7)
                 for nbrs in HAND_BUILT]
        for _ in range(30):
            graph, labels = random_graph(rng)
            cases.append((graph, labels, float(rng.choice([0.0, 0.5, 0.9, 0.99]))))
        for graph, labels, gamma in cases:
            dense = ssdml.propagate_dense(graph, labels, gamma)
            assert np.array_equal(on_edges(dense, graph),
                                  ssdml.propagate(graph, labels, gamma).edges)

    def test_label_count_must_match_graph(self):
        graph = ssdml.build_knn(np.arange(6.0)[:, None], 2)
        with pytest.raises(ConfigError, match="6 node labels"):
            ssdml.propagate(graph, [0, 1, -1], 0.5)

    def test_gamma_out_of_range(self):
        graph = ssdml.build_knn(np.arange(4.0)[:, None], 1)
        with pytest.raises(ConfigError):
            ssdml.propagate(graph, [0, 0, -1, -1], 1.0)

    def test_oversized_problem_fails_before_allocating(self):
        # 300,000 nodes need about 0.8 TiB for the block inverse and 1.5 TiB
        # with the dense result's transpose copy; both checks must fire
        # before anything n x n is allocated
        n = 300_000
        graph = NeighborGraph(n=n, k=2, neighbors=np.zeros((n, 2), dtype=np.int64))
        for run in (ssdml.propagate, ssdml.propagate_dense):
            with pytest.raises(ConfigError, match=r"n=300000.*GiB.*--partition-size"):
                run(graph, np.full(n, -1), 0.99)

    def test_memory_check_counts_the_dense_arrays(self, monkeypatch):
        n = 50
        graph = ssdml.build_knn(np.arange(float(n))[:, None], 2)
        labels = np.full(n, -1)
        need = propagation._block_inverse_bytes(n, 0, 2)
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: need)
        ssdml.propagate(graph, labels, 0.5)
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ConfigError, match="n=50"):
            ssdml.propagate(graph, labels, 0.5)

    def test_memory_check_counts_the_class_columns(self, monkeypatch):
        n = 51
        graph = ssdml.build_knn(np.arange(float(n))[:, None], 2)
        labels = np.where(np.arange(n) < 9, np.arange(n) % 3, -1)
        need = propagation._block_inverse_bytes(n, 3, 2)
        width = min(propagation.CHUNK_COLUMNS, 26)
        assert need == (8 * (25 * 25 + 26 * 26 + 13 * 13 + (3 * 25 + 2 * 26) * width + n * 3
                             + 6 * n * 2)
                        + propagation.FIXED_WORKSPACE_BYTES)
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: need)
        ssdml.propagate(graph, labels, 0.5)
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ConfigError, match="n=51"):
            ssdml.propagate(graph, labels, 0.5)

    def test_dense_reference_memory_check(self, monkeypatch):
        # the in-place inverse plus the n x n copy that X += X.T makes
        n = 50
        graph = ssdml.build_knn(np.arange(float(n))[:, None], 2)
        labels = np.full(n, -1)
        need = propagation._block_inverse_bytes(n, 0, 2) + 8 * n * n
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: need)
        ssdml.propagate_dense(graph, labels, 0.5)
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ConfigError, match="n=50"):
            ssdml.propagate_dense(graph, labels, 0.5)

    @pytest.mark.parametrize("where", ["second half", "both halves"])
    def test_labels_in_one_half_or_both(self, where):
        # the class columns' seeds then sit in the bottom block alone, or in
        # both; n is odd, so the blocks differ in size
        rng = np.random.default_rng(18)
        n = 91
        graph = ssdml.build_knn(rng.standard_normal((n, 3)), 6)
        labels = np.full(n, -1)
        rows = np.arange(n // 2, n, 4) if where == "second half" else np.arange(0, n, 4)
        labels[rows] = rng.integers(0, 3, size=rows.size)
        for gamma in (0.5, 0.99):
            assert_edges_match_reference(graph, labels, gamma)
            dense = ssdml.propagate_dense(graph, labels, gamma)
            assert np.array_equal(on_edges(dense, graph),
                                  ssdml.propagate(graph, labels, gamma).edges)

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 10, 11, 12, 21])
    def test_sizes_around_the_chunk_width(self, monkeypatch, n):
        # with 5 columns per block: n below (4), at (5) and one past (6) the
        # block width; each half below (9), at (10, 11) and one past (12)
        # it; and halves of 10 and 11 columns in blocks of 5, 5 and 1 (21)
        monkeypatch.setattr(propagation, "CHUNK_COLUMNS", 5)
        rng = np.random.default_rng(n)
        graph = ssdml.build_knn(rng.standard_normal((n, 2)), min(n - 1, 3))
        for labels in (np.full(n, -1), np.where(np.arange(n) % 3 == 0, np.arange(n) % 2, -1),
                       rng.integers(0, 7, size=n)):
            assert_edges_match_reference(graph, labels, 0.9)
            dense = ssdml.propagate_dense(graph, labels, 0.9)
            assert np.abs(dense - dense_reference(graph, labels, 0.9)).max() <= 1e-12
            assert np.array_equal(on_edges(dense, graph),
                                  ssdml.propagate(graph, labels, 0.9).edges)

    @pytest.mark.parametrize("n", [1000, 1980])
    def test_traced_peak_stays_below_one_dense_array(self, n):
        # the block solve holds two half-size inverses and column blocks;
        # an in-place inverse of A alone is one n x n array
        rng = np.random.default_rng(19)
        graph = ssdml.build_knn(rng.standard_normal((n, 4)), 10)
        labels = np.where(rng.random(n) < 0.05, rng.integers(0, 10, size=n), -1)
        tracemalloc.start()
        try:
            ssdml.propagate(graph, labels, 0.99)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        assert peak <= propagation._block_inverse_bytes(n, 10, 10)

    @pytest.mark.parametrize("n_classes", [0, 3, 10])
    @pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 130, 255, 256, 257, 258,
                                   999, 1000])
    def test_memory_bound_covers_the_traced_peak(self, n, n_classes):
        # n around LEAF_SIZE (64) and CHUNK_COLUMNS (128), for the whole
        # problem and for each half, odd and even, up to 1,000; and k from
        # the default 10 to 60, since the (n, k) arrays grow with k
        rng = np.random.default_rng(n)
        points = rng.standard_normal((n, 4))
        labels = np.full(n, -1)
        if n_classes:
            labels[rng.permutation(n)[:max(n // 10, n_classes)]] = np.arange(
                max(n // 10, n_classes)) % n_classes
        for k in (10, 30, 60):
            graph = ssdml.build_knn(points, k)
            need = propagation._block_inverse_bytes(n, n_classes, k)
            tracemalloc.start()
            try:
                ssdml.propagate(graph, labels, 0.99)
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                ssdml.propagate_dense(graph, labels, 0.99)
                _, dense_peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= need, k
            assert dense_peak <= need + 8 * n * n, k

    def test_traced_peak_stays_below_two_dense_arrays(self):
        # the former single dense solve traced 3 n x n arrays (its LAPACK
        # copies are not traced) and returned one; the block solve traces
        # less than one and returns (n, k)
        rng = np.random.default_rng(17)
        n = 1000
        graph = ssdml.build_knn(rng.standard_normal((n, 4)), 10)
        labels = np.where(rng.random(n) < 0.05, rng.integers(0, 5, size=n), -1)
        tracemalloc.start()
        try:
            edges = ssdml.propagate(graph, labels, 0.99).edges
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            dense = ssdml.propagate_dense(graph, labels, 0.99)
            _, dense_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert edges.shape == (n, 10)
        assert peak <= 2 * n * n * 8
        assert peak <= propagation._block_inverse_bytes(n, 5, 10)
        # the dense result is one n x n array next to the solve, and it is
        # symmetrized in place
        assert dense.shape == (n, n)
        assert dense_peak <= propagation._block_inverse_bytes(n, 5, 10) + 8 * n * n
