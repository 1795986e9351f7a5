"""Sorted neighborhoods, half-vs-half triplet pairing, batching."""

import numpy as np
import pytest

import ssdml
from ssdml.errors import ConfigError
from ssdml.graph import NeighborGraph
from ssdml.mining import batch_triplets, sorted_neighborhood


def graph_of(neighbors):
    neighbors = np.asarray(neighbors)
    n = int(neighbors.max()) + 1
    n = max(n, neighbors.shape[0])
    return NeighborGraph(n=neighbors.shape[0], k=neighbors.shape[1],
                         neighbors=neighbors)


def brute_force_mine(W, graph):
    """Oracle: python sort of each neighborhood, pair half i with half k/2+i."""
    out = []
    for a in range(graph.n):
        nbrs = sorted(graph.neighbors[a].tolist(),
                      key=lambda j: (-W[a][j], j))
        half = graph.k // 2
        for i in range(half):
            out.append((a, nbrs[i], nbrs[half + i]))
    return out


class TestSortedNeighborhood:
    def test_descending_affinity(self):
        W = np.zeros((10, 10))
        W[0, [5, 7, 2, 9]] = [0.1, 0.9, -0.3, 0.5]
        g = graph_of([[5, 7, 2, 9]] + [[5, 7, 2, 9]] * 9)
        assert sorted_neighborhood(W, g, 0).tolist() == [7, 9, 5, 2]

    def test_all_equal_affinities_tie_to_index(self):
        W = np.zeros((10, 10))
        g = graph_of([[9, 3, 7, 1]] * 10)
        assert sorted_neighborhood(W, g, 0).tolist() == [1, 3, 7, 9]

    def test_already_ordered_unchanged(self):
        W = np.zeros((5, 5))
        W[0, [1, 2]] = [0.9, 0.5]
        g = graph_of([[1, 2]] * 5)
        assert sorted_neighborhood(W, g, 0).tolist() == [1, 2]


class TestMineTriplets:
    def test_k4_pairing_from_sorted_ranks(self):
        W = np.zeros((5, 5))
        W[0, [1, 2, 3, 4]] = [0.9, 0.7, 0.3, 0.1]
        g = graph_of([[1, 2, 3, 4]] * 5)
        triplets = ssdml.mine_triplets(W, g)[:2]  # anchor 0's rows
        assert triplets.tolist() == [[0, 1, 3], [0, 2, 4]]

    def test_k2_single_triplet_best_vs_worst(self):
        W = np.zeros((4, 4))
        W[0, 1], W[0, 3] = -0.2, 0.4
        g = graph_of([[1, 3]] * 4)
        t = ssdml.mine_triplets(W, g)[0]  # anchor 0's one row
        assert tuple(t) == (0, 3, 1)

    def test_count_formula(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((30, 3))
        g = ssdml.build_knn(Z, 10)
        W = rng.standard_normal((30, 30))
        triplets = ssdml.mine_triplets(W, g)
        assert len(triplets) == 30 * 5

    def test_odd_k_rejected(self):
        g = graph_of([[1, 2, 3]] * 4)
        with pytest.raises(ConfigError, match="even"):
            ssdml.mine_triplets(np.zeros((4, 4)), g)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(5, 101))
            k = int(rng.integers(1, min(n, 21) // 2 + 1)) * 2
            k = min(k, n - 1 - (n % 2 == 0))
            if k < 2 or k >= n:
                k = 2
            Z = rng.standard_normal((n, 2))
            g = ssdml.build_knn(Z, k)
            W = rng.standard_normal((n, n))
            got = [tuple(t) for t in ssdml.mine_triplets(W, g).tolist()]
            assert got == brute_force_mine(W, g)

    def test_positive_affinity_at_least_negative(self):
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((40, 2))
        g = ssdml.build_knn(Z, 6)
        W = rng.standard_normal((40, 40))
        for a, p, n in ssdml.mine_triplets(W, g):
            assert W[a, p] >= W[a, n]

    def test_triplet_members_distinct_and_neighbors(self):
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((25, 2))
        g = ssdml.build_knn(Z, 4)
        W = rng.standard_normal((25, 25))
        for a, p, n in ssdml.mine_triplets(W, g):
            assert len({a, p, n}) == 3
            assert p in g.neighbors[a]
            assert n in g.neighbors[a]


class TestBatchTriplets:
    @staticmethod
    def toy_triplets(n):
        return np.arange(n)[:, None] + np.arange(3)

    def test_sizes_100_100_50(self):
        batches = batch_triplets(self.toy_triplets(250), 100, seed=0)
        assert [len(b) for b in batches] == [100, 100, 50]

    def test_same_seed_same_batches(self):
        t = self.toy_triplets(37)
        a = batch_triplets(t, 10, seed=5, epoch=2)
        b = batch_triplets(t, 10, seed=5, epoch=2)
        assert [batch.tolist() for batch in a] == [batch.tolist() for batch in b]

    def test_epochs_reshuffle(self):
        t = self.toy_triplets(64)
        a = batch_triplets(t, 64, seed=5, epoch=0)[0]
        b = batch_triplets(t, 64, seed=5, epoch=1)[0]
        assert a[:, 0].tolist() != b[:, 0].tolist()

    def test_shuffle_is_permutation(self):
        t = self.toy_triplets(33)
        batches = batch_triplets(t, 10, seed=9)
        seen = np.concatenate(batches)
        assert sorted(seen[:, 0].tolist()) == list(range(33))
        assert (seen[:, 1:] == seen[:, :1] + [1, 2]).all()  # rows move whole

    def test_empty_rejected(self):
        with pytest.raises(ConfigError, match="no triplets"):
            batch_triplets([], 10, seed=0)


def test_mine_triplets_array_layout():
    rng = np.random.default_rng(14)
    g = ssdml.build_knn(rng.standard_normal((12, 2)), 4)
    triplets = ssdml.mine_triplets(rng.standard_normal((12, 12)), g)
    assert triplets.dtype == np.int64 and triplets.shape == (12 * 2, 3)
    assert triplets[:, 0].tolist() == np.repeat(np.arange(12), 2).tolist()


def test_edge_affinities_rank_like_the_dense_matrix():
    # propagate() hands mining only W at the graph's edges; ranking must be
    # the same as from the dense matrix, ties included
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        g = ssdml.build_knn(rng.standard_normal((n, 2)), 4)
        W = rng.integers(-2, 3, size=(n, n)).astype(float)  # many ties
        aff = ssdml.EdgeAffinity(edges=np.take_along_axis(W, g.neighbors, axis=1))
        assert np.array_equal(ssdml.mine_triplets(aff, g), ssdml.mine_triplets(W, g))
        assert np.array_equal(sorted_neighborhood(aff, g, 2), sorted_neighborhood(W, g, 2))
