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
# evaluation._nearest's float64 screen ||c||^2 + ||z||^2 - 2 c.z is a
# (d+2)-term sum whose terms' magnitudes sum to at most 2 (||z||^2 +
# max ||c||^2), so it lies within about 2 (d+2) eps of that times the
# squared distance, and so does the explicit-difference distance.  This
# relative slack covers both for any d below ~1e6.
SCREEN_RTOL = 1e-9


# _exact_knn screens in float32.  With u = 2^-24 and c_i the rows centred at
# their float64 mean and scaled by 2^e, so that q_i = ||c_i||^2 and
# M = max q have M in [1/4, 1), the screen S_ij = q_j - 2 c_i.c_j stands for
# D_ij - q_i, with D_ij the squared distance in those units.  Its error E_ij
# comes from:
#   - the centring: every row subtracts the same mean, and a shift by any
#     one vector keeps every distance, so only each difference's own
#     rounding counts, 2^-53 |c_ik| per entry: about 4 * 2^-53 (q_i + q_j)
#     on a distance;
#   - the float32 casts of c (2u on a product) and of q_j (u), or 2^-150
#     absolute per entry where float32 underflows;
#   - the sgemm: a (d+1)-term dot product whose terms' magnitudes sum to
#     2 sum_k |c_ik c_jk| + q_j <= q_i + 2 q_j, so within gamma_{d+1} =
#     (d+1) u / (1 - (d+1) u) of that in any summation order, with or
#     without FMA (Higham, Accuracy and Stability of Numerical Algorithms,
#     2nd ed., sec. 3.1), plus 2^-150 per underflowing product;
#   - the float64 explicit distances that rank the candidates: within
#     2 (d+2) 2^-53 (q_i + q_j) of D_ij, plus d 2^-1075 per distance, in
#     original units, where squared differences underflow.
# So |E_ij| <= (3u + 2 gamma_{d+1}) (q_i + M) up to the float64 and
# underflow terms.  A column that ranks in row i's top k by explicit
# distance (ties included) screens at most kth + 2 |E|, kth the row's k-th
# smallest screened value, since k columns screen at or below kth.  The
# float32 sum kth + bar rounds down by at most u (|kth| + bar), with
# |kth| <= q_i + 2M up to E.  bar = 2 rtol (q_i + M) with rtol = 4 (d+4) u
# covers the resulting (8u + 4 gamma_{d+1}) (q_i + M) for any d below 2^22.
# The underflow terms are absolute: 2^-100 covers the float32 ones for any
# such d, and d 2^-1073 4^e the float64 one in scaled units.


def _check_screen(*sq_norms) -> None:
    """Raise NumericalError unless an inner-product screen over points with
    these squared norms stays finite (|screen| and every distance lie below
    4 * max ||z||^2, so no NaN, inf or near-overflow point passes)."""
    with np.errstate(over="ignore"):  # an overflow to inf is the answer
        if not all(np.isfinite(4.0 * sq.max()) for sq in sq_norms):
            raise NumericalError("distance screen: non-finite or overflowing points")


def _pair_sq_dists(A, ia, B, ib):
    """Explicit-difference squared distances ||A[ia] - B[ib]||^2.

    Summed like an einsum over a full difference tensor, in chunks of about
    KNN_BLOCK_ENTRIES entries.  (a - b)^2 equals (b - a)^2 in IEEE
    arithmetic, so the order of the two sides does not change a result.
    """
    out = np.empty(ia.size)
    chunk = max(1, KNN_BLOCK_ENTRIES // max(A.shape[1], 1))
    for s in range(0, ia.size, chunk):
        diff = A[ia[s:s + chunk]] - B[ib[s:s + chunk]]
        out[s:s + chunk] = np.einsum("ij,ij->i", diff, diff)
    return out


def _exact_knn(Z: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of each row's k nearest other rows, nearest first.

    Rows are ranked by (squared distance, index) with distances from
    explicit float64 row differences (no inner-product expansion), so
    duplicated points tie exactly and ties resolve to the smaller index.
    A float32 screen decides which distances need computing.  The rows are
    centred at their float64 mean and scaled by a power of two, so that the
    largest centred squared norm lies in [1/4, 1), then cast to float32.
    Per block of rows, one sgemm of [C_block, 1] against the (d+1) x n
    operand [-2 C^T; ||c||^2], built once per call, gives ||c_j||^2 -
    2 c_i.c_j, the squared distance less the row constant ||c_i||^2, which
    leaves a row's order unchanged.  Every column that can rank in the top
    k, ties included, screens within the slack derived above of the row's
    k-th smallest screened value, so the result equals a full per-row sort
    of the explicit distances.  Centring makes the slack scale with the
    spread of the rows, not with their distance from the origin.  A row's
    own screened entry is +inf, so it never ranks; points whose squared
    norms overflow a float64 screen raise NumericalError.  Scratch memory
    is the two float32 operands and a few KNN_BLOCK_ENTRIES-sized arrays.
    """
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    n, d = Z.shape
    if not 1 <= k < n:
        raise ConfigError(f"k must satisfy 1 <= k < n (got k={k}, n={n})")
    _check_screen(np.einsum("ij,ij->i", Z, Z))
    C = Z - Z.mean(axis=0)  # the one float64 temporary, scaled in place
    e = -int(np.frexp(max(C.max(initial=0.0), -C.min(initial=0.0)))[1])
    np.ldexp(C, e, out=C)  # every entry in (-1, 1)
    t = (int(np.frexp(np.einsum("ij,ij->i", C, C).max(initial=0.0))[1]) + 1) // 2
    e -= t
    np.ldexp(C, -t, out=C)  # scaled by 2^e in all
    csq = np.einsum("ij,ij->i", C, C)  # the largest in [1/4, 1), or all 0
    A = np.empty((n, d + 1), dtype=np.float32)  # [C, 1]
    A[:, :d] = C
    A[:, d] = 1.0
    P = np.empty((d + 1, n), dtype=np.float32)  # [-2 C^T; ||c||^2]
    np.multiply(C.T, -2.0, out=P[:d])
    P[d] = csq
    del C
    rtol = 4.0 * (d + 4) * 2.0 ** -24
    # the float64 underflow term is capped at 8d: screened values lie in
    # [-1, 3] up to rounding, so that keeps every column but the +inf self
    floor = 2.0 ** -100 + np.ldexp(float(d), min(2 * e - 1073, 3))
    bar = (2.0 * rtol * (csq + csq.max()) + floor).astype(np.float32)
    block = min(n, max(1, KNN_BLOCK_ENTRIES // n))
    neighbors = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        S = A[start:stop] @ P
        S.reshape(-1)[start + np.arange(stop - start) * (n + 1)] = np.inf  # self
        kth = np.partition(S, k - 1, axis=1)[:, k - 1]
        hits = np.flatnonzero(S <= (kth + bar[start:stop])[:, None])
        rows, cols = np.divmod(hits, n)  # self stays out: +inf
        d2 = _pair_sq_dists(Z, cols, Z, start + rows)
        order = np.lexsort((cols, d2, rows))  # by row, then distance, then index
        counts = np.bincount(rows, minlength=stop - start)
        first = np.cumsum(counts) - counts
        neighbors[start:stop] = cols[order[first[:, None] + np.arange(k)]]
    return neighbors


def build_knn(Z: np.ndarray, k: int) -> NeighborGraph:
    """Exact k nearest neighbors under squared Euclidean distance.

    Neighbors are ordered by (explicit-difference distance, index), so
    duplicated points tie exactly and ties go to the smaller index (see
    _exact_knn), and non-finite or overflowing points raise NumericalError.
    Rows of Z are assumed to be the current embeddings; callers l2-normalize
    beforehand when required.
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
    unlabeled.  Labeled and unlabeled nodes may come in any order.
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
