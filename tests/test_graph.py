"""kNN graph construction, Q, seed affinities and the Laplacian."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssdml
from ssdml import graph as graph_mod
from ssdml.errors import ConfigError, NumericalError
from ssdml.graph import NeighborGraph, knn_adjacency, knn_laplacian_form


def brute_force_knn(Z, k):
    """Independent oracle: per-pair python loop + sort by (distance, index)."""
    n = len(Z)
    out = []
    for i in range(n):
        cand = []
        for j in range(n):
            if j == i:
                continue
            d2 = float(np.sum((np.asarray(Z[i]) - np.asarray(Z[j])) ** 2))
            cand.append((d2, j))
        cand.sort()
        out.append([j for _, j in cand[:k]])
    return np.array(out)


def row_loop_knn(Z, k):
    """Bit-exact oracle: per row, the explicit-difference distances to every
    row (einsum, as the kernel computes them) and a stable full sort."""
    Z = np.asarray(Z, dtype=np.float64)
    out = np.empty((len(Z), k), dtype=np.int64)
    for i in range(len(Z)):
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN distance
            diff = Z - Z[i]
        d2 = np.einsum("ij,ij->i", diff, diff)
        d2[i] = np.inf
        out[i] = np.argsort(d2, kind="stable")[:k]
    return out


class TestBuildKnn:
    def test_three_points_k1(self):
        Z = np.array([[0.0], [1.0], [10.0]])
        g = ssdml.build_knn(Z, 1)
        assert g.neighbors.tolist() == [[1], [0], [1]]

    def test_k2_orders_nearer_first(self):
        Z = np.array([[0.0], [1.0], [10.0]])
        g = ssdml.build_knn(Z, 2)
        assert g.neighbors.tolist() == [[1, 2], [0, 2], [1, 0]]

    def test_duplicate_points_tie_to_smaller_index(self):
        Z = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        g = ssdml.build_knn(Z, 2)
        assert g.neighbors[0].tolist() == [1, 2]
        assert g.neighbors[3].tolist() == [1, 2]

    def test_k_too_large_rejected(self):
        with pytest.raises(ConfigError):
            ssdml.build_knn(np.zeros((3, 2)), 3)

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(5, 200))
            d = int(rng.integers(1, 6))
            k = int(rng.integers(1, min(n, 11)))
            Z = rng.standard_normal((n, d))
            g = ssdml.build_knn(Z, k)
            assert np.array_equal(g.neighbors, brute_force_knn(Z, k))


class TestKnnKernelEdgeCases:
    """Ties everywhere, inputs the inner-product screen cannot separate (so
    every candidate goes through the exact recompute), and extreme k and n."""

    def check(self, Z, k):
        got = ssdml.build_knn(Z, k).neighbors
        assert np.array_equal(got, row_loop_knn(Z, k))
        assert np.array_equal(got, brute_force_knn(Z, k))

    def test_all_duplicate_rows(self):
        Z = np.tile([[0.3, -1.7]], (40, 1))
        self.check(Z, 7)
        # every row ties with every other: smallest indices, self skipped
        assert ssdml.build_knn(Z, 3).neighbors[0].tolist() == [1, 2, 3]
        assert ssdml.build_knn(Z, 3).neighbors[2].tolist() == [0, 1, 3]

    def test_integer_grid_full_of_ties(self):
        Z = np.array([[x, y] for x in range(6) for y in range(6)], dtype=float)
        for k in (1, 4, 8, 20):
            self.check(Z, k)

    def test_large_common_offset(self):
        # distance gaps down to ~2e-7 at an offset 1e8 times the spread,
        # far below the rounding of a screen on the raw rows (~1e-4)
        rng = np.random.default_rng(8)
        self.check(1e-2 * rng.standard_normal((60, 2)) + 1e6, 5)
        Z = 1e-2 * rng.standard_normal((60, 5)) + 1e6
        assert np.array_equal(ssdml.build_knn(Z, 5).neighbors, row_loop_knn(Z, 5))

    def test_k_is_n_minus_one(self):
        rng = np.random.default_rng(9)
        self.check(rng.standard_normal((17, 3)), 16)
        self.check(rng.integers(0, 2, size=(17, 2)).astype(float), 16)

    def test_two_points(self):
        assert ssdml.build_knn(np.array([[1.0], [1.0]]), 1).neighbors.tolist() == [[1], [0]]
        self.check(np.array([[0.0, 1.0], [2.0, 5.0]]), 1)

    def test_spans_several_blocks(self, monkeypatch):
        # a small block budget forces many blocks and a chunked recompute
        monkeypatch.setattr(graph_mod, "KNN_BLOCK_ENTRIES", 64)
        rng = np.random.default_rng(10)
        Z = np.vstack([rng.standard_normal((50, 3)), np.zeros((20, 3))])
        self.check(Z, 9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
    def test_non_finite_or_overflowing_row_is_refused(self, bad):
        # the inner-product screen cannot rank such a row: both users of the
        # kernel refuse it instead of ranking it
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((30, 3))
        Z[4, 1] = bad
        labels = np.arange(30) % 3
        for k in (1, 5, 29):
            with pytest.raises(NumericalError, match="distance screen"):
                ssdml.build_knn(Z, k)
            with pytest.raises(NumericalError, match="distance screen"):
                ssdml.recall_at_k(Z, labels, ks=(k,))

    def test_criterion8_shaped_blobs_over_default_blocks(self):
        # 600 l2-normalized rows of 5 signal + 45 noise dims: six blocks
        blobs = ssdml.make_blobs(10, 60, 5, 45, 6.0, 4.0, seed=3)
        Z = ssdml.encoder.l2_normalize_rows(blobs.features)
        assert len(Z) // (graph_mod.KNN_BLOCK_ENTRIES // len(Z)) >= 5
        for k in (1, 10, 40):
            assert np.array_equal(ssdml.build_knn(Z, k).neighbors, row_loop_knn(Z, k))

    def test_large_common_offset_in_fifty_dims(self):
        # at squared norms ~5e13 a screen on the raw rows rounds by ~0.1,
        # more than the ~0.03 gaps between nearest distances; on centred
        # rows the float32 screen rounds by ~1e-5 and keeps k a row
        rng = np.random.default_rng(13)
        Z = 0.1 * rng.standard_normal((300, 50)) + 1e6
        for k in (1, 10):
            assert np.array_equal(ssdml.build_knn(Z, k).neighbors, row_loop_knn(Z, k))

    def test_duplicates_straddle_a_block_boundary(self):
        n = 500
        block = graph_mod.KNN_BLOCK_ENTRIES // n
        rng = np.random.default_rng(14)
        Z = rng.standard_normal((n, 50))
        Z[block - 3:block + 3] = Z[7]  # six copies across the boundary, and row 7
        Z[2 * block - 1:2 * block + 1] = Z[block - 3]
        for k in (3, 8, 12):
            got = ssdml.build_knn(Z, k).neighbors
            assert np.array_equal(got, row_loop_knn(Z, k))
        copies = [7, *range(block - 3, block + 3), 2 * block - 1, 2 * block]
        # each copy's nearest are the other copies, smallest index first
        assert got[block].tolist()[:8] == [c for c in copies if c != block][:8]

    def test_scratch_memory_bounded_on_duplicates(self):
        n = 3000
        Z = np.ones((n, 2))
        tracemalloc.start()
        try:
            neighbors = ssdml.build_knn(Z, 5).neighbors
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert neighbors[0].tolist() == [1, 2, 3, 4, 5]
        assert neighbors[-1].tolist() == [0, 1, 2, 3, 4]
        # a fixed number of block-sized arrays, well below one n x n matrix
        assert peak < 16 * graph_mod.KNN_BLOCK_ENTRIES * 8
        assert peak < n * n * 8 / 2


def counted_knn(monkeypatch, Z, k):
    """The number of explicit distances build_knn computes, after checking
    its neighbor lists against row_loop_knn."""
    computed = []
    original = graph_mod._pair_sq_dists

    def counting(A, ia, B, ib):
        computed.append(ia.size)
        return original(A, ia, B, ib)

    monkeypatch.setattr(graph_mod, "_pair_sq_dists", counting)
    neighbors = ssdml.build_knn(Z, k).neighbors
    assert np.array_equal(neighbors, row_loop_knn(Z, k))
    return sum(computed)


@pytest.mark.parametrize("center, spread, d", [(1.0, 1e-6, 30), (1e6, 1e-2, 20)])
def test_collapsed_rows_cost_about_k_distances_per_row(monkeypatch, center, spread, d):
    # rows in a small ball far from the origin: a screen whose slack grows
    # with the rows' distance from the origin keeps every column and pays
    # about n^2 explicit distances; on centred rows it keeps about k a row
    n, k = 1000, 10
    Z = center + spread * np.random.default_rng(16).standard_normal((n, d))
    assert counted_knn(monkeypatch, Z, k) <= 2 * n * k


@pytest.mark.parametrize("rows, per_row", [
    # criterion 8's 2,000 l2-normalized blob rows: about k distances a row
    (lambda: ssdml.encoder.l2_normalize_rows(
        ssdml.make_blobs(10, 200, 5, 45, 6.0, 4.0, seed=0).features), 11),
    # 20 copies of KNN_SCREEN_GROUPS * k random rows in turn: each row's
    # 19 copies; grouping columns by a plain stride, without the scramble,
    # would put all 20 copies of a row into one group at this period
    (lambda: np.tile(np.random.default_rng(17).standard_normal(
        (graph_mod.KNN_SCREEN_GROUPS * 10, 8)), (20, 1)), 19),
], ids=["criterion8", "tiled"])
def test_group_threshold_costs_about_k_distances_per_row(monkeypatch, rows, per_row):
    Z = rows()
    assert counted_knn(monkeypatch, Z, 10) <= len(Z) * per_row


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_padded_screen_stays_finite():
    # k = 1 and n from 273 to 287: groups of 17 columns, the last ones
    # padded, in a GEMM large enough for the sgemm's packed edge kernels,
    # which form 0 * inf = NaN from +inf padding on most of these sizes
    rng = np.random.default_rng(18)
    for n in range(273, 288):
        Z = rng.standard_normal((n, 50))
        assert np.array_equal(ssdml.build_knn(Z, 1).neighbors, row_loop_knn(Z, 1))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a NaN from the padding
@settings(max_examples=100, deadline=5000)
@given(st.data())
def test_grouped_screen_matches_row_loop(data):
    # one group per k columns, so groups hold several columns even at small
    # n, over tiled rows, exact and near duplicates and padded last groups,
    # in one block or many
    if data.draw(st.booleans()):
        n = data.draw(st.integers(min_value=3, max_value=60))
        d = data.draw(st.sampled_from([1, 2, 3, 8, 50]))
        entries = data.draw(st.sampled_from([64, graph_mod.KNN_BLOCK_ENTRIES]))
    else:  # one block, big enough for the sgemm's packed edge kernels
        n, d, entries = data.draw(st.integers(130, 200)), 50, graph_mod.KNN_BLOCK_ENTRIES
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    period = data.draw(st.integers(1, n))
    Z = np.resize(rng.standard_normal((period, d)), (n, d))  # row i is row i % period
    Z += data.draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-9, 1e-3])) * rng.standard_normal((n, d))
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=10)):
        Z[a] = Z[b]
    Z += data.draw(st.sampled_from([0.0, 1e6])) * rng.standard_normal(d)
    Z *= data.draw(st.sampled_from([1.0, 1e-165]))  # the latter: the widest slack
    labels = rng.integers(0, 3, size=n)
    expected = row_loop_knn(Z, k)
    hits = np.logical_or.accumulate(labels[expected] == labels[:, None], axis=1).sum(axis=0)
    ks = sorted({1, k})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_mod, "KNN_SCREEN_GROUPS", 1)
        patch.setattr(graph_mod, "KNN_BLOCK_ENTRIES", entries)
        assert np.array_equal(ssdml.build_knn(Z, k).neighbors, expected)
        assert ssdml.recall_at_k(Z, labels, ks=ks) == {j: 100.0 * int(hits[j - 1]) / n
                                                       for j in ks}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_knn_kernel_matches_row_loop_property(data):
    n = data.draw(st.integers(min_value=2, max_value=40))
    d = data.draw(st.integers(min_value=1, max_value=4))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    # a few coordinate levels make ties common; scale and offset stress
    # the screen's rounding slack
    levels = data.draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
    scale = data.draw(st.sampled_from([1.0, 0.1, 1e-7, 1e5]))
    offset = data.draw(st.sampled_from([0.0, 1.0, 1e6]))
    Z = np.array(levels, dtype=float).reshape(n, d) * scale + offset
    assert np.array_equal(ssdml.build_knn(Z, k).neighbors, row_loop_knn(Z, k))


@settings(max_examples=300, deadline=5000)
@given(st.data())
def test_knn_kernel_matches_row_loop_at_any_scale(data):
    # clusters of near-duplicates and exact duplicates, a common offset up
    # to 1e6 times the spread, up to 200 dims, and magnitudes from 1e-170
    # (squared norms and distances subnormal or 0) to 1e150
    n = data.draw(st.integers(min_value=2, max_value=40))
    d = data.draw(st.one_of(st.integers(1, 4), st.integers(5, 200)))
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    centers = rng.standard_normal((data.draw(st.integers(1, n)), d))
    jitter = data.draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2, 1.0]))
    Z = centers[rng.integers(len(centers), size=n)] + jitter * rng.standard_normal((n, d))
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=n)):
        Z[a] = Z[b]
    Z += data.draw(st.sampled_from([0.0, 1.0, 1e3, 1e6])) * rng.standard_normal(d)
    Z *= 10.0 ** data.draw(st.integers(-170, 150)) / max(np.abs(Z).max(), 1e-300)
    expected = row_loop_knn(Z, k)
    assert np.array_equal(ssdml.build_knn(Z, k).neighbors, expected)
    labels = rng.integers(0, 3, size=n)
    hits = np.logical_or.accumulate(labels[expected] == labels[:, None], axis=1).sum(axis=0)
    ks = sorted({1, k})
    assert ssdml.recall_at_k(Z, labels, ks=ks) == {j: 100.0 * int(hits[j - 1]) / n for j in ks}


class TestNeighborMatrix:
    def test_k1_chain(self):
        g = ssdml.build_knn(np.array([[0.0], [1.0], [10.0]]), 1)
        Q = ssdml.neighbor_matrix(g)
        assert Q.tolist() == [[0, 1, 0], [1, 0, 0], [0, 1, 0]]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        g = ssdml.build_knn(rng.standard_normal((40, 3)), 7)
        Q = ssdml.neighbor_matrix(g)
        assert np.abs(Q.sum(axis=1) - 1.0).max() <= 1e-15

    def test_not_necessarily_symmetric(self):
        Q = ssdml.neighbor_matrix(ssdml.build_knn(np.array([[0.0], [1.0], [10.0]]), 1))
        assert Q[2, 1] == 1.0 and Q[1, 2] == 0.0


class TestSeedAffinity:
    def test_same_class_pair(self):
        assert ssdml.seed_affinity([0, 0]).tolist() == [[1, 1], [1, 1]]

    def test_different_class_pair(self):
        assert ssdml.seed_affinity([0, 1]).tolist() == [[1, -1], [-1, 1]]

    def test_labeled_unlabeled_pair(self):
        assert ssdml.seed_affinity([0, -1]).tolist() == [[1, 0], [0, 1]]

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        y = rng.integers(-1, 3, size=30)
        W0 = ssdml.seed_affinity(y)
        assert np.array_equal(W0, W0.T)
        assert np.all(np.diag(W0) == 1.0)


class TestLaplacian:
    def test_two_node_edge(self):
        assert ssdml.laplacian(np.array([[0.0, 1.0], [1.0, 0.0]])).tolist() == \
            [[1.0, -1.0], [-1.0, 1.0]]

    def test_row_sums_zero(self):
        rng = np.random.default_rng(3)
        W = rng.random((15, 15))
        W = (W + W.T) / 2
        Lap = ssdml.laplacian(W)
        assert np.abs(Lap.sum(axis=1)).max() <= 1e-12

    def test_ones_vector_in_null_space(self):
        rng = np.random.default_rng(4)
        W = rng.random((10, 10))
        W = (W + W.T) / 2
        x = np.ones(10)
        assert abs(x @ ssdml.laplacian(W) @ x) <= 1e-9

    def test_asymmetric_rejected(self):
        W = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(NumericalError, match="asymmetric"):
            ssdml.laplacian(W)


def test_knn_adjacency_symmetric_binary():
    rng = np.random.default_rng(6)
    g = ssdml.build_knn(rng.standard_normal((25, 2)), 3)
    A = knn_adjacency(g)
    assert np.array_equal(A, A.T)
    assert set(np.unique(A)) <= {0.0, 1.0}
    assert np.all(np.diag(A) == 0.0)
    assert A.sum() >= 25 * 3  # every directed edge is represented


class TestKnnLaplacianForm:
    """knn_laplacian_form against the dense Z^T laplacian(knn_adjacency) Z."""

    @staticmethod
    def assert_matches_dense(graph, Z):
        ref = Z.T @ ssdml.laplacian(knn_adjacency(graph)) @ Z
        got = knn_laplacian_form(graph, Z)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_knn_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 80))
        k = int(rng.integers(1, min(n, 12)))
        Z = rng.standard_normal((n, int(rng.integers(1, 9))))
        self.assert_matches_dense(ssdml.build_knn(Z, k), Z)

    @pytest.mark.parametrize("neighbors", [
        [[1, 2], [0, 2], [0, 1], [2, 0]],  # mutual edges
        [[1, 1], [2, 2], [3, 0], [0, 1]],  # a neighbor repeated in a row
        [[0, 1], [1, 2], [3, 0], [3, 3]],  # self edges
        [[0, 0], [1, 1], [2, 2], [3, 3]],  # self edges only: no term
    ])
    def test_hand_built_graphs(self, neighbors):
        # rows 0 and 3 coincide: their edge adds nothing either
        Z = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.5],
                      [-2.0, 1.0, 0.0], [0.5, -1.0, 2.0]])
        graph = NeighborGraph(n=4, k=2, neighbors=neighbors)
        self.assert_matches_dense(graph, Z)

    @pytest.mark.parametrize("edges", [3, 4, 5])
    def test_edge_counts_around_the_chunk(self, monkeypatch, edges):
        # a path listed forward (i -> i+1) with the last node pointing back:
        # edges + 1 nodes give `edges` undirected edges, one listed twice
        monkeypatch.setattr(graph_mod, "LAPLACIAN_EDGE_CHUNK", 4)
        n = edges + 1
        neighbors = np.append(np.arange(1, n), n - 2)[:, None]
        Z = np.random.default_rng(edges).standard_normal((n, 3))
        self.assert_matches_dense(NeighborGraph(n=n, k=1, neighbors=neighbors), Z)

    def test_builds_no_dense_array(self):
        # 2,000 nodes: one n x n float64 array alone would take 32 MB
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((2000, 5))
        graph = ssdml.build_knn(Z, 10)
        tracemalloc.start()
        try:
            knn_laplacian_form(graph, Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8 // 16


@pytest.mark.parametrize("neighbors", [
    [[1, -1], [0, 2], [1, 3], [2, 0]],  # -1 would read node n - 1
    [[1, 2], [0, 2], [1, 3], [2, 4]],   # past the last node
])
def test_neighbor_indices_outside_the_nodes_rejected(neighbors):
    # a negative index would silently read node n + index: propagate()
    # would return finite edges and knn_laplacian_form count {0, 3} twice
    with pytest.raises(ValueError, match=r"\[0, n\)"):
        NeighborGraph(n=4, k=2, neighbors=neighbors)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_q_spectral_radius_at_most_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    k = int(rng.integers(1, n))
    Q = ssdml.neighbor_matrix(ssdml.build_knn(rng.standard_normal((n, 2)), k))
    radius = np.abs(np.linalg.eigvals(Q)).max()
    assert radius <= 1.0 + 1e-10
