"""Exact kNN graph over embedded points, seed affinities and the Laplacian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNLABELED
from .errors import ConfigError, NumericalError


@dataclass(frozen=True)
class NeighborGraph:
    """Directed kNN graph: per node, k neighbor indices by ascending distance.

    Ties go to the smaller index and build_knn() never lists a node itself;
    hand-built lists may hold self edges and repeats, all within [0, n).
    """

    n: int
    k: int
    neighbors: np.ndarray  # (n, k) int64

    def __post_init__(self):
        nbrs = np.asarray(self.neighbors, dtype=np.int64)
        object.__setattr__(self, "neighbors", nbrs)
        if nbrs.shape != (self.n, self.k) or (
                nbrs.size and not 0 <= nbrs.min() <= nbrs.max() < self.n):
            raise ValueError("neighbors must be an (n, k) matrix of indices in [0, n)")


# Each block holds about this many (row, column) entries, which bounds the
# kernel's scratch memory at a few block-sized arrays.  At 512 KiB per float
# array a block stays cache-sized; larger blocks were no faster, and 1 << 18
# left the LRML benchmark's peak RSS 8 MiB higher.
KNN_BLOCK_ENTRIES = 1 << 16
# The screen ||z_i||^2 + ||z_j||^2 - 2 z_i.z_j and the explicit-difference
# distance both lie within a few d*eps*(||z_i||^2 + ||z_j||^2) of the true
# squared distance; this relative slack covers that for any d below ~1e6.
SCREEN_RTOL = 1e-9


def _candidates(Z, sq, start, stop, k):
    """(rows, cols) of the block's entries that can rank among the k nearest.

    k columns screen at or below the row's k-th smallest screened value s_k,
    so the k-th smallest explicit distance is at most s_k + slack, and every
    column that can rank in the top k (ties included) screens at most
    s_k + 2 * slack.
    """
    local = np.arange(stop - start)
    S = Z[start:stop] @ Z.T
    S *= -2.0
    S += sq[start:stop, None]
    S += sq
    S[local, start + local] = np.inf
    kth = np.partition(S, k - 1, axis=1)[:, k - 1]
    slack = SCREEN_RTOL * (sq[start:stop] + sq.max())
    return np.nonzero(S <= (kth + 2.0 * slack)[:, None])  # self stays out: +inf


def _exact_knn(Z: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of each row's k nearest other rows, nearest first.

    Rows are ranked by (squared distance, index) with distances from
    explicit row differences (no inner-product expansion), so duplicated
    points tie exactly and ties resolve to the smaller index.  Per block of
    rows, an inner-product screen with a rigorous rounding slack only
    decides which distances need computing, so the result equals a full
    per-row sort of the explicit distances.  Without a safe screen (a
    non-finite or overflowing row) every distance is computed, and a row's
    own entry counts as +inf and NaN distances rank last, as in that sort.
    Scratch memory stays a few KNN_BLOCK_ENTRIES-sized arrays whatever the
    data.
    """
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    n, d = Z.shape
    if not 1 <= k < n:
        raise ConfigError(f"k must satisfy 1 <= k < n (got k={k}, n={n})")
    sq = np.einsum("ij,ij->i", Z, Z)
    # |screen| and every distance stay below 4 * max ||z||^2: no overflow
    screen = bool(np.isfinite(4.0 * sq.max()))
    block = max(1, KNN_BLOCK_ENTRIES // n)
    chunk = max(1, KNN_BLOCK_ENTRIES // max(d, 1))
    neighbors = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        if screen:
            rows, cols = _candidates(Z, sq, start, stop, k)
        else:
            rows, cols = np.divmod(np.arange((stop - start) * n), n)
        d2 = np.empty(rows.size)
        for s in range(0, rows.size, chunk):
            diff = Z[cols[s:s + chunk]] - Z[start + rows[s:s + chunk]]
            d2[s:s + chunk] = np.einsum("ij,ij->i", diff, diff)
        d2[cols == start + rows] = np.inf
        order = np.lexsort((cols, d2, rows))  # by row, then distance, then index
        counts = np.bincount(rows, minlength=stop - start)
        first = np.cumsum(counts) - counts
        neighbors[start:stop] = cols[order[first[:, None] + np.arange(k)]]
    return neighbors


def build_knn(Z: np.ndarray, k: int) -> NeighborGraph:
    """Exact k nearest neighbors under squared Euclidean distance.

    Neighbors are ordered by (explicit-difference distance, index), so
    duplicated points tie exactly and ties go to the smaller index (see
    _exact_knn).  Rows of Z are assumed to be the current embeddings;
    callers l2-normalize beforehand when required.
    """
    neighbors = _exact_knn(Z, k)
    return NeighborGraph(n=neighbors.shape[0], k=k, neighbors=neighbors)


def neighbor_matrix(graph: NeighborGraph) -> np.ndarray:
    """Row-stochastic neighborhood matrix: 1/k on each neighbor edge."""
    Q = np.zeros((graph.n, graph.n))
    rows = np.repeat(np.arange(graph.n), graph.k)
    Q[rows, graph.neighbors.ravel()] = 1.0 / graph.k
    return Q


def knn_adjacency(graph: NeighborGraph) -> np.ndarray:
    """Symmetric 0/1 adjacency: an edge wherever either direction links."""
    A = np.zeros((graph.n, graph.n))
    rows = np.repeat(np.arange(graph.n), graph.k)
    A[rows, graph.neighbors.ravel()] = 1.0
    return np.maximum(A, A.T)


# Edges per product in knn_laplacian_form: its scratch is two
# (LAPLACIAN_EDGE_CHUNK, d) arrays whatever the number of edges.
LAPLACIAN_EDGE_CHUNK = 1 << 11


def knn_laplacian_form(graph: NeighborGraph, Z: np.ndarray) -> np.ndarray:
    """Z^T laplacian(knn_adjacency(graph)) Z without any n x n array.

    The form is the sum of (z_a - z_b)(z_a - z_b)^T over the unique
    undirected edges {a, b}: an edge listed in both directions, or twice in
    one row, counts once, as in the symmetric 0/1 adjacency, and a self
    edge adds nothing (its difference is 0), as in D - W.
    """
    Z = np.asarray(Z, dtype=np.float64)
    a = np.repeat(np.arange(graph.n, dtype=np.int64), graph.k)
    b = graph.neighbors.ravel()
    edges = np.unique(np.minimum(a, b) * graph.n + np.maximum(a, b))
    lo, hi = np.divmod(edges, graph.n)
    quad = np.zeros((Z.shape[1], Z.shape[1]))
    for s in range(0, lo.size, LAPLACIAN_EDGE_CHUNK):
        D = Z[lo[s:s + LAPLACIAN_EDGE_CHUNK]] - Z[hi[s:s + LAPLACIAN_EDGE_CHUNK]]
        quad += D.T @ D
    return quad


def seed_affinity(node_labels: np.ndarray) -> np.ndarray:
    """Initial signed affinity matrix from the partition's labels.

    Entries: +1 on the diagonal, +1 for distinct same-class labeled pairs,
    -1 for labeled pairs of different classes, 0 whenever either node is
    unlabeled.  Node order must be labeled rows first, then unlabeled.
    """
    y = np.asarray(node_labels, dtype=np.int64)
    n = y.size
    labeled = y != UNLABELED
    W0 = np.zeros((n, n))
    both = np.outer(labeled, labeled)
    same = np.equal.outer(y, y)
    W0[both & same] = 1.0
    W0[both & ~same] = -1.0
    np.fill_diagonal(W0, 1.0)
    return W0


def laplacian(W: np.ndarray) -> np.ndarray:
    """Unnormalized graph Laplacian D - W (rows of the result sum to 0)."""
    W = np.asarray(W, dtype=np.float64)
    if W.shape[0] != W.shape[1]:
        raise ValueError("W must be square")
    asym = np.abs(W - W.T).max() if W.size else 0.0
    if asym > 1e-12:  # beyond rounding
        raise NumericalError(f"W is asymmetric (max |W - W^T| = {asym:.3e})")
    return np.diag(W.sum(axis=1)) - W
