"""Affinity propagation: spread seed affinities over the kNN graph.

The propagated matrix solves (I - gamma*Q) W* = (1 - gamma) W0, i.e. the
limit of the random-walk recursion W <- gamma*Q*W + (1-gamma)*W0.  Because
Q is row-stochastic its spectral radius is at most 1, so the system is
nonsingular and the iteration converges for gamma < 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, NumericalError
from .graph import NeighborGraph, seed_affinity

# n x n float64 arrays alive at the peak of propagate(): I - gamma*Q, the
# right-hand side, the solver's copies of both, and the solution.
DENSE_SOLVE_ARRAYS = 5
ITERATIVE_TOL = 1e-8
ITERATIVE_MAX_ITER = 10_000


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetrized propagated affinities plus the weight used to make them."""

    W: np.ndarray
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


def _check_fits_in_memory(n: int):
    need = DENSE_SOLVE_ARRAYS * n * n * 8
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ConfigError(
            f"propagation over n={n} nodes needs about {need / 2**30:.1f} GiB "
            f"for its dense n x n solve, more than the {have / 2**30:.1f} GiB of "
            f"physical memory; use a smaller --partition-size")


def propagate(graph: NeighborGraph, labels, gamma: float) -> AffinityMatrix:
    """Propagate the labels' seed affinities over the kNN graph, symmetrized.

    One dense direct solve of (I - gamma*Q) W* = (1 - gamma) W0, with
    I - gamma*Q built straight from the neighbor lists and every
    temporary freed before symmetrizing in place.  Each entry comes from
    the same float operations as
    symmetrize(propagate_direct(neighbor_matrix(graph), seed_affinity(labels), gamma)).
    Raises ConfigError before allocating anything n x n when the solve
    cannot fit in physical memory.
    """
    _check_gamma(gamma)
    n = graph.n
    if np.shape(labels) != (n,):
        raise ConfigError(f"expected {n} node labels (got shape {np.shape(labels)})")
    _check_fits_in_memory(n)
    A = np.zeros((n, n))
    rows = np.repeat(np.arange(n), graph.k)
    # the float operations of np.eye(n) - gamma*Q: 0 - gamma*(1/k) on an edge,
    # then +1 on the diagonal (1 - gamma*(1/k) on a self edge)
    A[rows, graph.neighbors.ravel()] = 0.0 - gamma * (1.0 / graph.k)
    A.flat[::n + 1] += 1.0
    rhs = seed_affinity(labels)
    rhs *= 1.0 - gamma
    try:
        W = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"propagation solve failed: {exc}") from exc
    del A, rhs
    W += W.T
    W /= 2.0
    return AffinityMatrix(W=W, gamma=gamma)
