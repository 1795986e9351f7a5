"""Affinity propagation: spread seed affinities over the kNN graph.

The propagated matrix solves (I - gamma*Q) W* = (1 - gamma) W0, i.e. the
limit of the random-walk recursion W <- gamma*Q*W + (1-gamma)*W0.  Because
Q is row-stochastic its spectral radius is at most 1, so the system is
nonsingular and the iteration converges for gamma < 1.

Training only ranks each node's k graph neighbors, so propagate() returns
the symmetrized affinities on the kNN edges alone.  It inverts
A = I - gamma*Q as a 2 x 2 block matrix: A is strictly row diagonally
dominant (each diagonal entry exceeds its row's off-diagonal sum by at least
1 - gamma), so its leading block and that block's Schur complement are
nonsingular and block inversion needs no pivoting across the blocks.
propagate_dense() keeps the full n x n result of one dense solve for
`ssdml propagate`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import UNLABELED
from .errors import ConfigError, ConvergenceError, NumericalError
from .graph import NeighborGraph, neighbor_matrix, seed_affinity

# n x n float64 arrays alive at the peak of propagate_dense(): Q, W0,
# I - gamma*Q, the right-hand side, the solver's copies of the last two and
# the solution.
DENSE_REFERENCE_ARRAYS = 7
ITERATIVE_TOL = 1e-8
ITERATIVE_MAX_ITER = 10_000


@dataclass(frozen=True)
class EdgeAffinity:
    """Symmetrized propagated affinities on the kNN edges, plus the weight
    used to make them: edges[i, j] = W[i, graph.neighbors[i, j]]."""

    edges: np.ndarray  # (n, k)
    gamma: float


def _check_gamma(gamma: float):
    # gamma = 0 collapses propagation to the seed matrix; handy in tests.
    if not 0.0 <= gamma < 1.0:
        raise ConfigError(f"gamma must lie in [0, 1) (got {gamma})")


def propagate_direct(Q: np.ndarray, W0: np.ndarray, gamma: float) -> np.ndarray:
    """Dense column-wise solve of (I - gamma*Q) W* = (1 - gamma) W0."""
    _check_gamma(gamma)
    Q = np.asarray(Q, dtype=np.float64)
    W0 = np.asarray(W0, dtype=np.float64)
    n = Q.shape[0]
    A = np.eye(n) - gamma * Q
    try:
        return np.linalg.solve(A, (1.0 - gamma) * W0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"propagation solve failed: {exc}") from exc


def propagate_iterative(Q, W0, gamma, tol: float = ITERATIVE_TOL,
                        max_iter: int = ITERATIVE_MAX_ITER):
    """Fixed-point iteration W <- gamma*Q*W + (1-gamma)*W0 from W0.

    Stops when the max-abs change drops to `tol`; returns the limit and the
    iteration count.  Raises ConvergenceError with the residual when the
    budget runs out first.
    """
    _check_gamma(gamma)
    if tol <= 0:
        raise ConfigError("tol must be positive")
    Q = np.asarray(Q, dtype=np.float64)
    W = np.asarray(W0, dtype=np.float64).copy()
    source = (1.0 - gamma) * np.asarray(W0, dtype=np.float64)
    for it in range(1, max_iter + 1):
        W_next = gamma * (Q @ W) + source
        change = np.abs(W_next - W).max()
        W = W_next
        if change <= tol:
            return W, it
    raise ConvergenceError(
        f"propagation did not converge in {max_iter} iterations "
        f"(last max-abs change {change:.3e})",
        residual=change,
    )


def symmetrize(Wstar: np.ndarray) -> np.ndarray:
    """Elementwise average of a matrix and its transpose."""
    Wstar = np.asarray(Wstar, dtype=np.float64)
    if Wstar.shape[0] != Wstar.shape[1]:
        raise ValueError("expected a square matrix")
    return (Wstar + Wstar.T) / 2.0


def _physical_memory_bytes():
    """Installed physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None


def _check_fits_in_memory(need: int, task: str):
    """Raise ConfigError, before anything is allocated, when `task` needs
    more than the machine's physical memory."""
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ConfigError(
            f"{task} needs about {need / 2**30:.1f} GiB, more than the "
            f"{have / 2**30:.1f} GiB of physical memory; use a smaller --partition-size")


def _block_inverse_bytes(n: int, n_classes: int) -> int:
    """Peak bytes of propagate(): with blocks m = n // 2 and p = n - m, the
    inversion of the Schur complement holds B11 (m x m), P (m x p), S, the
    solver's two p x p copies and T (p x p each), next to the n x n_classes
    class columns.  Every other step holds less; the (n, k) edge arrays are
    left out."""
    m = n // 2
    p = n - m
    return 8 * (m * m + m * p + 4 * p * p + n * n_classes)


def _check_labels(graph: NeighborGraph, labels):
    if np.shape(labels) != (graph.n,):
        raise ConfigError(f"expected {graph.n} node labels (got shape {np.shape(labels)})")


def _a_block(graph: NeighborGraph, gamma: float, rows: slice, cols: slice) -> np.ndarray:
    """A[rows, cols] of A = I - gamma*Q, built straight from the neighbor
    lists with the float operations of np.eye(n) - gamma*Q: 0 - gamma*(1/k)
    on an edge (once for a repeated neighbor), then +1 on the diagonal
    (1 - gamma*(1/k) on a self edge)."""
    nbrs = graph.neighbors[rows]
    r, j = np.nonzero((nbrs >= cols.start) & (nbrs < cols.stop))
    block = np.zeros((rows.stop - rows.start, cols.stop - cols.start))
    block[r, nbrs[r, j] - cols.start] = 0.0 - gamma * (1.0 / graph.k)
    if rows == cols:
        block.flat[::block.shape[1] + 1] += 1.0
    return block


def _inv(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"propagation solve failed: {exc}") from exc


def propagate(graph: NeighborGraph, labels, gamma: float) -> EdgeAffinity:
    """Propagate the labels' seed affinities over the kNN graph and return
    the symmetrized result (X + X^T) / 2 on the graph's edges, where
    X = (1 - gamma) A^-1 W0, A = I - gamma*Q and W0 = seed_affinity(labels).

    A^-1 is formed one 2 x 2 block at a time from B11 = inv(A11), the Schur
    complement S = A22 - A21 B11 A12 and T = inv(S):

        A^-1 = [[B11 + B11 A12 T A21 B11, -B11 A12 T],
                [-T A21 B11,              T         ]]

    Each block is read at the edges' entries and then freed, so about
    1.5 n^2 floats are alive at the peak instead of the full A^-1.  Column j
    of W0 is the unit vector e_j for an unlabeled j; for a labeled j it is
    the signed indicator of j's class on the labeled rows (+1 same class,
    -1 other class), so only one column of A^-1 W0 per class is formed.
    The edges agree with symmetrize(propagate_direct(neighbor_matrix(graph),
    seed_affinity(labels), gamma)) to rounding.  Raises ConfigError before
    allocating anything n x n when the blocks cannot fit in physical memory.
    """
    _check_gamma(gamma)
    _check_labels(graph, labels)
    n, k = graph.n, graph.k
    y = np.asarray(labels, dtype=np.int64)
    labeled = np.flatnonzero(y != UNLABELED)
    classes, label_class = np.unique(y[labeled], return_inverse=True)
    _check_fits_in_memory(_block_inverse_bytes(n, classes.size),
                          f"propagation over n={n} nodes")
    signs = np.where(label_class[:, None] == np.arange(classes.size), 1.0, -1.0)
    col_class = np.full(n, -1)
    col_class[labeled] = label_class

    # the entries of X each edge i -> j needs: X_ij, then X_ji
    rows = np.repeat(np.arange(n), k)
    cols = graph.neighbors.ravel()
    at_r = np.concatenate([rows, cols])
    at_c = np.concatenate([cols, rows])
    inv_at = np.empty(at_r.size)  # A^-1 at those entries
    class_cols = np.zeros((n, classes.size))  # A^-1 W0 on one labeled column per class

    def take(inv_block, r: slice, c: slice):
        hit = (at_r >= r.start) & (at_r < r.stop) & (at_c >= c.start) & (at_c < c.stop)
        inv_at[hit] = inv_block[at_r[hit] - r.start, at_c[hit] - c.start]
        lo, hi = np.searchsorted(labeled, [c.start, c.stop])
        class_cols[r] += inv_block[:, labeled[lo:hi] - c.start] @ signs[lo:hi]

    m = n // 2
    top, bottom = slice(0, m), slice(m, n)
    B11 = _inv(_a_block(graph, gamma, top, top))
    P = B11 @ _a_block(graph, gamma, top, bottom)
    P *= -1.0  # -B11 A12
    A21 = _a_block(graph, gamma, bottom, top)
    S = _a_block(graph, gamma, bottom, bottom)
    S += A21 @ P
    del A21
    T = _inv(S)
    del S
    take(T, bottom, bottom)
    take(P @ T, top, bottom)
    U = T @ _a_block(graph, gamma, bottom, top)
    del T
    U *= -1.0
    inv21 = U @ B11  # -T A21 B11
    del U
    take(inv21, bottom, top)
    B11 += P @ inv21
    del P, inv21
    take(B11, top, top)
    del B11

    # A^-1 W0 is A^-1 itself on an unlabeled column and the class column on
    # a labeled one
    on_labeled = col_class[at_c] >= 0
    inv_at[on_labeled] = class_cols[at_r[on_labeled], col_class[at_c[on_labeled]]]
    X_at = (1.0 - gamma) * inv_at
    edges = (X_at[:n * k] + X_at[n * k:]) / 2.0
    return EdgeAffinity(edges=edges.reshape(n, k), gamma=gamma)


def propagate_dense(graph: NeighborGraph, labels, gamma: float) -> np.ndarray:
    """The full symmetrized n x n propagated affinity,
    symmetrize(propagate_direct(neighbor_matrix(graph), seed_affinity(labels), gamma)).

    Raises ConfigError before allocating anything n x n when its
    DENSE_REFERENCE_ARRAYS n x n arrays cannot fit in physical memory.
    """
    _check_gamma(gamma)
    _check_labels(graph, labels)
    n = graph.n
    _check_fits_in_memory(DENSE_REFERENCE_ARRAYS * n * n * 8,
                          f"dense propagation over n={n} nodes")
    return symmetrize(propagate_direct(neighbor_matrix(graph), seed_affinity(labels), gamma))
