"""Affinity propagation: spread seed affinities over the kNN graph.

The propagated matrix solves (I - gamma*Q) W* = (1 - gamma) W0, i.e. the
limit of the random-walk recursion W <- gamma*Q*W + (1-gamma)*W0.  Because
Q is row-stochastic its spectral radius is at most 1, so the system is
nonsingular and the iteration converges for gamma < 1.

Training only ranks each node's k graph neighbors, so propagate() returns
the symmetrized affinities on the kNN edges alone.  It inverts
A = I - gamma*Q in place by recursive 2 x 2 blocking.  A is strictly row
diagonally dominant (each diagonal entry exceeds its row's off-diagonal sum
by at least 1 - gamma), and so are its leading blocks and their Schur
complements, at every level of the recursion; so every block it inverts is
nonsingular and no level needs pivoting (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., sec. 13.3; Demmel, Higham and Schreiber
1995).
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
# Diagonal blocks of this size or less are inverted by np.linalg.inv; 64
# and 128 ran equally fast at n = 1,980.
LEAF_SIZE = 64
# Rows per chunk of a neighbor-list gather; its temporaries hold two chunks.
GATHER_ROWS = 32
# What propagate() holds beyond its n-sized arrays: numpy's iterator buffers
# (about 128 KiB for a ufunc call on a strided view) and one leaf's inverse.
FIXED_WORKSPACE_BYTES = 1 << 18


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
    """Bound on the peak bytes of propagate(): A (n x n, inverted in place),
    the scratch of ceil(n/2)^2 floats every product goes through, the
    n x n_classes class columns and the two temporaries of at most
    GATHER_ROWS x ceil(n/2) floats a top-level gather holds, plus
    FIXED_WORKSPACE_BYTES.  The (n, k) edge arrays are left out."""
    half = n - n // 2
    return (8 * (n * n + half * half + n * n_classes + 2 * GATHER_ROWS * half)
            + FIXED_WORKSPACE_BYTES)


def _check_labels(graph: NeighborGraph, labels):
    if np.shape(labels) != (graph.n,):
        raise ConfigError(f"expected {graph.n} node labels (got shape {np.shape(labels)})")


def _a_matrix(graph: NeighborGraph, gamma: float) -> np.ndarray:
    """A = I - gamma*Q built straight from the neighbor lists with the float
    operations of np.eye(n) - gamma*Q: 0 - gamma*(1/k) on an edge (once for
    a repeated neighbor), then +1 on the diagonal (1 - gamma*(1/k) on a
    self edge)."""
    n = graph.n
    A = np.zeros((n, n))
    A[np.repeat(np.arange(n), graph.k), graph.neighbors.ravel()] = 0.0 - gamma * (1.0 / graph.k)
    A.flat[::n + 1] += 1.0
    return A


def _inv(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"propagation solve failed: {exc}") from exc


def _product(x: np.ndarray, y: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """x @ y, written into the flat scratch `buf` as one contiguous array."""
    rows, cols = x.shape[0], y.shape[1]
    return np.matmul(x, y, out=buf[:rows * cols].reshape(rows, cols))


def _invert(a: np.ndarray, buf: np.ndarray, gather=None):
    """Invert the strictly row diagonally dominant square `a` in place.

    With m = n // 2, B = inv(A11) and T = inv(S) for the Schur complement
    S = A22 - A21 B A12 (both formed the same way, down to LEAF_SIZE):

        inv(a) = [[B + P W, P T], [W, T]],  P = -B A12,  W = -T A21 B.

    Leading blocks and Schur complements of a strictly row diagonally
    dominant matrix are strictly row diagonally dominant too, so no level
    needs pivoting.  Every product is written to the flat scratch `buf` of
    at least ceil(n/2)^2 floats, then added or copied into place.
    gather(x, out), when given, adds A21 @ x to out without reading
    A21, as the top level of propagate() does from the neighbor lists.
    """
    n = a.shape[0]
    if n <= LEAF_SIZE:
        a[...] = _inv(a)
        return
    m = n // 2
    a11, a12, a21, a22 = a[:m, :m], a[:m, m:], a[m:, :m], a[m:, m:]
    _invert(a11, buf)
    np.negative(_product(a11, a12, buf), out=a12)  # P
    if gather is None:
        a22 += _product(a21, a12, buf)
    else:
        gather(a12, a22)
    _invert(a22, buf)  # T
    if gather is None:
        a21[...] = _product(a21, a11, buf)
    else:
        a21.fill(0.0)
        gather(a11, a21)
    np.negative(_product(a22, a21, buf), out=a21)  # W
    a11 += _product(a12, a21, buf)
    a12[...] = _product(a12, a22, buf)


def _neighbor_gather(graph: NeighborGraph, gamma: float, m: int):
    """gather(x, out) for the bottom-left block A[m:, :m] of
    A = I - gamma*Q: out += A[m:, :m] @ x as k row gathers, each of
    (0 - gamma*(1/k)) * x[j] over the distinct neighbors j < m of a row.
    Going GATHER_ROWS rows at a time bounds the temporaries."""
    nbrs = graph.neighbors[m:]
    repeat = np.tril(nbrs[:, :, None] == nbrs[:, None, :], -1).any(axis=2)
    keep = (nbrs < m) & ~repeat
    weight = 0.0 - gamma * (1.0 / graph.k)

    def gather(x, out):
        for s in range(graph.k):
            rows = np.flatnonzero(keep[:, s])
            for start in range(0, rows.size, GATHER_ROWS):
                chunk = rows[start:start + GATHER_ROWS]
                got = x[nbrs[chunk, s]]
                got *= weight
                out[chunk] += got

    return gather


def propagate(graph: NeighborGraph, labels, gamma: float) -> EdgeAffinity:
    """Propagate the labels' seed affinities over the kNN graph and return
    the symmetrized result (X + X^T) / 2 on the graph's edges, where
    X = (1 - gamma) A^-1 W0, A = I - gamma*Q and W0 = seed_affinity(labels).

    A is built once and inverted in place by _invert(), next to one scratch
    of ceil(n/2)^2 floats, so about 1.25 n^2 floats are alive at the peak.
    At the top level the rows of A21 are the neighbor lists, so its products
    are row gathers.  Column j of W0 is the unit vector e_j for an unlabeled
    j; for a labeled j it is the signed indicator of j's class on the
    labeled rows (+1 same class, -1 other class), so only one column of
    A^-1 W0 per class is formed.  The edges agree with
    symmetrize(propagate_direct(neighbor_matrix(graph), seed_affinity(labels),
    gamma)) to rounding.  Raises ConfigError before allocating anything
    n x n when A and the scratch cannot fit in physical memory.
    """
    _check_gamma(gamma)
    _check_labels(graph, labels)
    n, k = graph.n, graph.k
    y = np.asarray(labels, dtype=np.int64)
    labeled = np.flatnonzero(y != UNLABELED)
    classes, label_class = np.unique(y[labeled], return_inverse=True)
    _check_fits_in_memory(_block_inverse_bytes(n, classes.size),
                          f"propagation over n={n} nodes")

    half = n - n // 2
    gather = _neighbor_gather(graph, gamma, n // 2)
    A = _a_matrix(graph, gamma)
    buf = np.empty(half * half)
    _invert(A, buf, gather)
    del buf, gather

    # A^-1 W0 on one labeled column per class, a few rows at a time
    signs = np.where(label_class[:, None] == np.arange(classes.size), 1.0, -1.0)
    class_cols = np.empty((n, classes.size))
    step = max(1, half * half // max(labeled.size, 1))
    for start in range(0, n, step):
        np.matmul(A[start:start + step, labeled], signs, out=class_cols[start:start + step])

    # the entries of X each edge i -> j needs: X_ij, then X_ji.  A^-1 W0 is
    # A^-1 itself on an unlabeled column and the class column on a labeled one
    rows = np.repeat(np.arange(n), k)
    cols = graph.neighbors.ravel()
    at_r = np.concatenate([rows, cols])
    at_c = np.concatenate([cols, rows])
    inv_at = A[at_r, at_c]
    del A
    col_class = np.full(n, -1)
    col_class[labeled] = label_class
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
