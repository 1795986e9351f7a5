"""Affinity propagation: spread seed affinities over the kNN graph.

The propagated matrix solves (I - gamma*Q) W* = (1 - gamma) W0, i.e. the
limit of the random-walk recursion W <- gamma*Q*W + (1-gamma)*W0.  Because
Q is row-stochastic its spectral radius is at most 1, so the system is
nonsingular and the iteration converges for gamma < 1.

One solve, _solve(), serves both public results.  It splits
A = I - gamma*Q at m = n // 2 into 2 x 2 blocks and builds only the two
diagonal blocks, as dense arrays of at most ceil(n/2)^2: B = inv(A11) and,
once S = A22 - A21 B A12 has been formed in the second, T = inv(S).  Each
is inverted in place by recursive 2 x 2 blocking (_invert()).  A is
strictly row diagonally dominant (each diagonal entry exceeds its row's
off-diagonal sum by at least 1 - gamma), and so are its leading blocks and
their Schur complements, at every level of the recursion; so every block
inverted is nonsingular and no level needs pivoting (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., sec. 13.3; Demmel, Higham and
Schreiber 1995).  A12 and A21 hold at most k entries per row and are
applied as gathers from the neighbor lists.  The columns of X = A^-1 W0
then come from B and T, at most CHUNK_COLUMNS at a time.  Each product and
gather is a numpy temporary; at the peak B and T are alive with n floats
per class, six (n, k) index and edge arrays, and the larger of one
ceil(n/4)^2 product of the inversions and about 2.5 n CHUNK_COLUMNS floats
of a column block (_block_inverse_bytes()), against 1.25 n^2 for an
in-place inverse of A.  propagate() reads each block at the kNN edges,
which is all that training ranks; propagate_dense() writes the blocks into
one n x n array and symmetrizes it in place for `ssdml propagate`.
propagate_direct(), propagate_iterative() and symmetrize() are the dense
references both are checked against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import UNLABELED
from .errors import ConfigError, ConvergenceError, NumericalError
from .graph import NeighborGraph

ITERATIVE_TOL = 1e-8
ITERATIVE_MAX_ITER = 10_000
# Diagonal blocks of this size or less are inverted by np.linalg.inv; 64
# and 128 ran equally fast at n = 1,980.
LEAF_SIZE = 64
# Columns of X per block; the column phase's temporaries peak at about
# 2.5 n x CHUNK_COLUMNS floats.  Wider blocks make fewer, faster products but
# hold more.
CHUNK_COLUMNS = 128
# What propagate() holds beyond its n-sized arrays: numpy's iterator buffers
# (about 128 KiB for a ufunc call on a strided view) and one leaf's inverse.
FIXED_WORKSPACE_BYTES = 1 << 18


@dataclass(frozen=True)
class EdgeAffinity:
    """Symmetrized propagated affinities on the kNN edges:
    edges[i, j] = W[i, graph.neighbors[i, j]]."""

    edges: np.ndarray  # (n, k)


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


def _block_inverse_bytes(n: int, n_classes: int, k: int) -> int:
    """Bound on the peak bytes of propagate(): B and T ((n//2)^2 and
    ceil(n/2)^2 floats), the class rows (n_classes x n), six (n, k) arrays
    of 8-byte entries alive through the column phase (propagate()'s `to`,
    `back`, `where[nbrs]` and the two hit index arrays, and the packed
    neighbor lists of A12 and A21 together), and two temporaries never
    alive together, summed: the q^2 product atop each inversion,
    q = ceil(ceil(n/2)/2), and a column block's w (3 (n//2) + 2 ceil(n/2))
    floats, w = min(CHUNK_COLUMNS, ceil(n/2)), reached twice: B v1 and y
    with the gather of A12's copy of y^T, sums and one slot, then B v1, y,
    the new top and the joined block.  The sum's slack and
    FIXED_WORKSPACE_BYTES cover the n-sized arrays, not counted."""
    m, half = n // 2, n - n // 2
    width = min(CHUNK_COLUMNS, half)
    return 8 * (m * m + half * half + n * n_classes + 6 * n * k + (half - half // 2) ** 2
                + width * (3 * m + 2 * half)) + FIXED_WORKSPACE_BYTES


def _transposed_diagonal_block(graph: NeighborGraph, gamma: float, lo: int,
                               hi: int) -> np.ndarray:
    """A[lo:hi, lo:hi]^T for A = I - gamma*Q, built straight from the
    neighbor lists with the float operations of np.eye(n) - gamma*Q:
    0 - gamma*(1/k) on an edge (once for a repeated neighbor), then +1 on
    the diagonal (1 - gamma*(1/k) on a self edge)."""
    size = hi - lo
    nbrs = graph.neighbors[lo:hi]
    inside = (nbrs >= lo) & (nbrs < hi)
    a = np.zeros((size, size))
    a[nbrs[inside] - lo, np.broadcast_to(np.arange(size)[:, None], nbrs.shape)[inside]] = (
        0.0 - gamma * (1.0 / graph.k))
    a.flat[::size + 1] += 1.0
    return a


def _invert(a: np.ndarray):
    """Invert in place the square `a`, strictly diagonally dominant by rows
    or by columns.

    With m = n // 2, B = inv(A11) and T = inv(S) for the Schur complement
    S = A22 - A21 B A12 (both formed the same way, down to LEAF_SIZE):

        inv(a) = [[B + P W, P T], [W, T]],  P = -B A12,  W = -T A21 B.

    Leading blocks and Schur complements of a strictly row diagonally
    dominant matrix are strictly row diagonally dominant too, and those of
    its transpose are their transposes, so no level needs pivoting.  Each
    product, at most ceil(n/2)^2 floats, is placed before the next is made.
    """
    n = a.shape[0]
    if n <= LEAF_SIZE:
        try:
            a[...] = np.linalg.inv(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"propagation solve failed: {exc}") from exc
        return
    m = n // 2
    a11, a12, a21, a22 = a[:m, :m], a[:m, m:], a[m:, :m], a[m:, m:]
    _invert(a11)
    np.negative(a11 @ a12, out=a12)  # P
    a22 += a21 @ a12
    _invert(a22)  # T
    a21[...] = a21 @ a11
    np.negative(a22 @ a21, out=a21)  # W
    a11 += a12 @ a21
    a12[...] = a12 @ a22


class _OffDiagonalBlock:
    """A[lo:hi, src_lo:src_hi] of A = I - gamma*Q for two disjoint ranges,
    read from the neighbor lists: row i holds `weight` = 0 - gamma*(1/k) at
    each distinct neighbor j of node lo + i with src_lo <= j < src_hi."""

    def __init__(self, graph: NeighborGraph, gamma: float, lo: int, hi: int,
                 src_lo: int, src_hi: int):
        nbrs = graph.neighbors[lo:hi]
        repeat = np.tril(nbrs[:, :, None] == nbrs[:, None, :], -1).any(axis=2)
        keep = (nbrs >= src_lo) & (nbrs < src_hi) & ~repeat
        self.weight = 0.0 - gamma * (1.0 / graph.k)
        count = keep.sum(axis=1)
        # each row's entries packed to the front, rows by descending count:
        # the rows with an s-th entry are then a prefix, and row i's entries
        # are packed[r, :count[r]] for r = unorder[i]
        order = np.argsort(-count, kind="stable")
        self.unorder = np.argsort(order)
        self.packed = np.take_along_axis(nbrs - src_lo,
                                         np.argsort(~keep, axis=1, kind="stable"), axis=1)[order]
        self.count = count[order]
        self.index = [self.packed[:np.count_nonzero(self.count > s), s]
                      for s in range(self.count.max(initial=0))]

    def times_transpose(self, rows: np.ndarray) -> np.ndarray:
        """rows @ block.T: column i is `weight` times the sum of rows[:, j]
        over row i's entries j, gathered as rows of a copy of rows.T."""
        x = np.ascontiguousarray(rows.T)
        sums = np.zeros((self.unorder.size, x.shape[1]))
        for index in self.index:
            sums[:index.size] += x[index]
        sums *= self.weight
        sums = sums[self.unorder]
        return np.ascontiguousarray(sums.T)


def _solve(graph: NeighborGraph, labels, gamma: float, extra_bytes: int, task: str):
    """An iterator of (cols, rows) with rows[t] = X[:, cols[t]] for
    X = A^-1 W0, where A = I - gamma*Q and W0 = seed_affinity(labels): every
    column of X once, at most CHUNK_COLUMNS at a time, each a new array.

    With m = n // 2, B = inv(A11), S = A22 - A21 B A12 and T = inv(S),

        A^-1 [v1; v2] = [B v1 - B A12 y; y],  y = T (v2 - A21 B v1).

    Only A11 and A22 are built, as dense transposed arrays, and inverted in
    place here, A22^T after it has been overwritten by S^T.  Column j of W0
    is the unit vector e_j for an unlabeled j, so X's column j is column j
    of A^-1: the formula with B v1 = B[:, j] (j < m) or y = T[:, j - m]
    (j >= m) read off directly.  For a labeled j it is the signed indicator
    of j's class on the labeled rows (+1 same class, -1 other class), so one
    column per class is solved and handed out for every labeled column of
    that class.  Raises ConfigError before anything ceil(n/2)^2 is
    allocated when the solve and `extra_bytes` more cannot fit in physical
    memory.
    """
    _check_gamma(gamma)
    n = graph.n
    if np.shape(labels) != (n,):
        raise ConfigError(f"expected {n} node labels (got shape {np.shape(labels)})")
    y = np.asarray(labels, dtype=np.int64)
    labeled = np.flatnonzero(y != UNLABELED)
    classes, label_class = np.unique(y[labeled], return_inverse=True)
    _check_fits_in_memory(_block_inverse_bytes(n, classes.size, graph.k) + extra_bytes, task)
    m = n // 2
    a21 = _OffDiagonalBlock(graph, gamma, m, n, 0, m)
    a12 = _OffDiagonalBlock(graph, gamma, 0, m, m, n)
    Bt = _transposed_diagonal_block(graph, gamma, 0, m)
    _invert(Bt)
    # S^T = A22^T - A12^T (A21 B)^T: row j of (A21 B)^T = (B^T A21^T)[j], a
    # gather of row j of Bt, goes to the rows of S^T that row j of A lists
    # in the bottom half
    Tt = _transposed_diagonal_block(graph, gamma, m, n)
    for start in range(0, m, CHUNK_COLUMNS):
        cols = np.arange(start, min(start + CHUNK_COLUMNS, m))
        a21_b = a21.times_transpose(Bt[cols])
        a21_b *= -a12.weight
        for r, row in zip(a12.unorder[cols], a21_b):
            Tt[a12.packed[r, :a12.count[r]]] += row
    _invert(Tt)
    return _column_blocks(a21, a12, Bt, Tt, y, labeled, label_class, classes.size)


def _column_blocks(a21, a12, Bt, Tt, labels, labeled, label_class, n_classes):
    """The generator behind _solve(), working on transposes: a block's row
    t is column cols[t] of X, so every product with Bt = B^T or Tt = T^T
    has the narrow factor on the left."""
    n, m = labels.size, Bt.shape[0]
    width = min(CHUNK_COLUMNS, n - m)

    def chunks(idx):
        """Runs of at most `width` of the sorted `idx`, none across m."""
        for part in (idx[idx < m], idx[idx >= m]):
            for start in range(0, part.size, width):
                yield part[start:start + width]

    def solved(top, bottom):
        """Rows [B v1 - B A12 y, y] of A^-1 [v1; v2], y = T (v2 - A21 B v1),
        from top = (B v1)^T and bottom = v2^T; or, for v1 = 0, from
        top = None and bottom = y^T = (T v2)^T itself."""
        if top is None:
            top, y = 0.0, bottom
        else:
            y = (bottom - a21.times_transpose(top)) @ Tt
        return np.concatenate((top - a12.times_transpose(y) @ Bt, y), axis=1)

    # W0's class columns as rows, each overwritten by X's column for its class
    F = np.zeros((n_classes, n))
    F[:, labeled] = np.where(label_class == np.arange(n_classes)[:, None], 1.0, -1.0)
    for start in range(0, n_classes, width):
        c = slice(start, start + width)
        F[c] = solved(F[c, :m] @ Bt, F[c, m:])

    done = 0
    for cols in chunks(labeled):
        yield cols, F[label_class[done:done + cols.size]]
        done += cols.size
    for cols in chunks(np.flatnonzero(labels == UNLABELED)):
        if cols[0] < m:
            yield cols, solved(Bt[cols], 0.0)
        else:
            yield cols, solved(None, Tt[cols - m])


def propagate(graph: NeighborGraph, labels, gamma: float) -> EdgeAffinity:
    """Propagate the labels' seed affinities over the kNN graph and return
    the symmetrized result (X + X^T) / 2 on the graph's edges, where
    X = (1 - gamma) A^-1 W0 from _solve(), read off each column block as
    it comes.  The edges agree with symmetrize(propagate_direct(
    neighbor_matrix(graph), seed_affinity(labels), gamma)) to rounding.
    Column j of W0 is e_j for an unlabeled node j, so on an edge whose two
    ends are unlabeled the result is (1 - gamma) (A^-1[i, j] + A^-1[j, i])
    / 2, which depends on the graph alone: there it agrees with
    propagate(graph, no labels, gamma) to rounding.
    """
    n, nbrs = graph.n, graph.neighbors
    to, back = np.empty((n, graph.k)), np.empty((n, graph.k))  # X[i, j], X[j, i]
    where = np.full(n, -1)  # a column's row in the current block
    for cols, rows in _solve(graph, labels, gamma, 0, f"propagation over n={n} nodes"):
        where[cols] = np.arange(cols.size)
        place = where[nbrs]
        hit = np.nonzero(place >= 0)
        to[hit] = rows[place[hit], hit[0]]
        back[cols] = rows[np.arange(cols.size)[:, None], nbrs[cols]]
        where[cols] = -1
        del rows  # free this block before the solve builds the next
    return EdgeAffinity(edges=((1.0 - gamma) * to + (1.0 - gamma) * back) / 2.0)


def propagate_dense(graph: NeighborGraph, labels, gamma: float) -> np.ndarray:
    """The full symmetrized n x n propagated affinity (X + X^T) / 2: the
    column blocks of propagate()'s solve written into one array, scaled and
    symmetrized in place a band at a time (X[i, j] + X[j, i] for both
    entries, the sum X += X.T forms), so it equals propagate()'s edges
    where they are read.  Raises ConfigError before allocating anything
    n x n when the solve and the n x n result cannot fit in memory.
    """
    n = graph.n
    blocks = _solve(graph, labels, gamma, 8 * n * n, f"dense propagation over n={n} nodes")
    X = np.empty((n, n))  # X^T; the symmetrized result is the same
    for cols, rows in blocks:
        X[cols] = rows
        del rows  # free this block before the solve builds the next
    X *= 1.0 - gamma
    for start in range(0, n, CHUNK_COLUMNS):
        rows = slice(start, start + CHUNK_COLUMNS)
        band = X[rows, start:] + X[start:, rows].T
        X[rows, start:] = band
        X[start:, rows] = band.T
    X /= 2.0
    return X
