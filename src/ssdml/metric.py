"""Factorized Mahalanobis metric and the angular triplet loss.

The metric is M = L L^T with L a d-by-l matrix, so the squared distance is
evaluated as ||L^T (z_i - z_j)||^2 without ever forming M.  The triplet
objective sums softplus(m) over a batch, where

    m = dist2(z, z+) - 4 tan^2(alpha) * dist2(z-, (z + z+)/2)

penalizes the angle at the negative.
"""

from __future__ import annotations

import numpy as np

SOFTPLUS_SWITCH = 30.0


def softplus(m):
    """log(1 + exp(m)), switching to m + log1p(exp(-m)) for large m."""
    m = np.asarray(m, dtype=np.float64)
    small = np.log1p(np.exp(np.minimum(m, SOFTPLUS_SWITCH)))
    large = m + np.log1p(np.exp(-np.abs(m)))
    return np.where(m > SOFTPLUS_SWITCH, large, small)


def sigmoid(m):
    m = np.asarray(m, dtype=np.float64)
    em = np.exp(-np.abs(m))
    return np.where(m >= 0, 1.0 / (1.0 + em), em / (1.0 + em))


def tan2(alpha_deg: float) -> float:
    """tan^2 of an angle given in degrees; must be a valid triplet angle."""
    if not 0.0 < alpha_deg < 90.0:
        raise ValueError(f"alpha must lie in (0, 90) degrees (got {alpha_deg})")
    return float(np.tan(np.deg2rad(alpha_deg)) ** 2)


def mahalanobis_sq(L: np.ndarray, z_i: np.ndarray, z_j: np.ndarray) -> float:
    """Squared metric distance ||L^T (z_i - z_j)||^2."""
    z_i = np.asarray(z_i, dtype=np.float64)
    z_j = np.asarray(z_j, dtype=np.float64)
    if z_i.shape != z_j.shape or z_i.shape[-1] != L.shape[0]:
        raise ValueError("dimension mismatch between L and the input vectors")
    proj = L.T @ (z_i - z_j)
    return float(proj @ proj)


def embed(L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Project rows of X through the metric factor: row i becomes L^T x_i."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != L.shape[0]:
        raise ValueError("dimension mismatch between L and X")
    return X @ L


def batch_rows(batch_idx):
    """(nodes, local): the sorted distinct rows a (T, 3) batch touches, and
    the batch re-indexed into them, so nodes[local] == batch_idx."""
    nodes, local = np.unique(batch_idx, return_inverse=True)
    return nodes, local.reshape(np.shape(batch_idx))


def triplet_diffs(embeddings, batch_idx):
    """(U, V) with rows u = z - z+ and v = z- - (z + z+)/2, one per triplet.

    The embeddings are fixed while a mini-batch's metric steps run, so the
    trainer builds (U, V) once per batch and hands them to loss_and_grad.
    """
    Z = np.asarray(embeddings, dtype=np.float64)
    batch_idx = np.asarray(batch_idx, dtype=np.int64)
    if batch_idx.size == 0:
        raise ValueError("batch must be non-empty")
    a, p, n = batch_idx[:, 0], batch_idx[:, 1], batch_idx[:, 2]
    U = Z[a] - Z[p]
    V = Z[n] - (Z[a] + Z[p]) / 2.0
    return U, V


def _margins(L, U, V, t):
    """The one margin computation behind every loss and gradient here:
    m = |L^T u|^2 - 4t |L^T v|^2, returned with UL = U L and VL = V L."""
    UL = U @ L
    VL = V @ L
    return np.einsum("ij,ij->i", UL, UL) - 4.0 * t * np.einsum("ij,ij->i", VL, VL), UL, VL


def loss_and_grad(L, U, V, alpha_deg):
    """Batch loss sum_i softplus(m_i) and its gradient with respect to L.

    d loss / dL = sum_i sigma(m_i) [2 u_i (u_i^T L) - 8 tan^2(a) v_i (v_i^T L)],
    factored through u (u^T L) so the cost stays O(d*l) per triplet.
    """
    t = tan2(alpha_deg)
    m, UL, VL = _margins(L, U, V, t)
    s = sigmoid(m)
    grad = 2.0 * U.T @ (s[:, None] * UL) - 8.0 * t * V.T @ (s[:, None] * VL)
    return float(softplus(m).sum()), grad


def embedding_grad(L, U, V, batch_idx, n_rows, alpha_deg) -> np.ndarray:
    """Gradient of the batch loss with respect to the n_rows embeddings that
    batch_idx indexes (U, V built from those rows by triplet_diffs).

    With Mu meaning L(L^T u): dm/dz = 2Mu + 4tMv, dm/dz+ = -2Mu + 4tMv,
    dm/dz- = -8tMv; each scaled by sigma(m) and accumulated over the
    triplets sharing a row.
    """
    t = tan2(alpha_deg)
    m, UL, VL = _margins(L, U, V, t)
    s = sigmoid(m)
    MU = (s[:, None] * UL) @ L.T  # sigma(m) * L L^T u per triplet
    MV = (s[:, None] * VL) @ L.T
    grad = np.zeros((n_rows, L.shape[0]))
    a, p, n = batch_idx[:, 0], batch_idx[:, 1], batch_idx[:, 2]
    np.add.at(grad, a, 2.0 * MU + 4.0 * t * MV)
    np.add.at(grad, p, -2.0 * MU + 4.0 * t * MV)
    np.add.at(grad, n, -8.0 * t * MV)
    return grad


def angular_margins(L, embeddings, batch_idx, alpha_deg):
    """Vector of margins m_i for a (T, 3) index batch."""
    U, V = triplet_diffs(embeddings, batch_idx)
    return _margins(L, U, V, tan2(alpha_deg))[0]


def angular_margin(L, z, z_pos, z_neg, alpha_deg) -> float:
    """Margin of a single triplet; the mean point is formed in input space."""
    t = tan2(alpha_deg)
    z_avg = (np.asarray(z, dtype=np.float64) + np.asarray(z_pos, dtype=np.float64)) / 2.0
    return mahalanobis_sq(L, z, z_pos) - 4.0 * t * mahalanobis_sq(L, z_neg, z_avg)


def angular_loss(L, embeddings, batch_idx, alpha_deg) -> float:
    """Sum of softplus(m_i) over the batch's triplets."""
    return float(softplus(angular_margins(L, embeddings, batch_idx, alpha_deg)).sum())


def angular_loss_grad_L(L, embeddings, batch_idx, alpha_deg) -> np.ndarray:
    """d loss / dL for a (T, 3) index batch (see loss_and_grad)."""
    return loss_and_grad(L, *triplet_diffs(embeddings, batch_idx), alpha_deg)[1]


def angular_loss_grad_embeddings(L, embeddings, batch_idx, alpha_deg) -> np.ndarray:
    """Per-node gradient of the batch loss with respect to all embeddings
    (see embedding_grad)."""
    Z = np.asarray(embeddings, dtype=np.float64)
    batch_idx = np.asarray(batch_idx, dtype=np.int64)
    U, V = triplet_diffs(Z, batch_idx)
    return embedding_grad(L, U, V, batch_idx, Z.shape[0], alpha_deg)
