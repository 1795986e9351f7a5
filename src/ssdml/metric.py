"""Factorized Mahalanobis metric and the angular triplet loss.

The metric is M = L L^T with L a d-by-l matrix, so the squared distance is
evaluated as ||L^T (z_i - z_j)||^2 without ever forming M.  The triplet
objective sums softplus(m) over a batch, where

    m = dist2(z, z+) - 4 tan^2(alpha) * dist2(z-, (z + z+)/2)

penalizes the angle at the negative.
"""

from __future__ import annotations

import numpy as np


def _softplus_sigmoid(m):
    """(softplus(m), sigmoid(m)) from one shared exp(-|m|), stable for any m."""
    e = np.exp(-np.abs(m))
    return np.maximum(m, 0.0) + np.log1p(e), np.where(m >= 0, 1.0, e) / (1.0 + e)


def softplus(m):
    """log(1 + exp(m)), evaluated as max(m, 0) + log1p(exp(-|m|))."""
    return _softplus_sigmoid(np.asarray(m, dtype=np.float64))[0]


def sigmoid(m):
    return _softplus_sigmoid(np.asarray(m, dtype=np.float64))[1]


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
    """W = [U; V], shape (2T, d): rows u_i = z - z+ of the T triplets, then
    rows v_i = z- - (z + z+)/2.

    The embeddings are fixed while a mini-batch's metric steps run, so the
    trainer builds W once per batch and hands it to loss_and_grad.
    """
    Z = np.asarray(embeddings, dtype=np.float64)
    batch_idx = np.asarray(batch_idx, dtype=np.int64)
    if batch_idx.size == 0:
        raise ValueError("batch must be non-empty")
    Za, Zp = Z[batch_idx[:, 0]], Z[batch_idx[:, 1]]
    return np.concatenate((Za - Zp, Z[batch_idx[:, 2]] - (Za + Zp) / 2.0))


def _margins(L, W, t):
    """The one margin computation behind every loss and gradient here:
    m = |L^T u|^2 - 4t |L^T v|^2, returned with WL = W L."""
    WL = W @ L
    sq = np.einsum("ij,ij->i", WL, WL)
    T = sq.size // 2
    return sq[:T] - 4.0 * t * sq[T:], WL


def _weighted_rows(L, W, t):
    """(loss, c * WL) with c = [2 sigma(m); -8t sigma(m)], so that
    d loss / d(W L) = c * WL row by row."""
    m, WL = _margins(L, W, t)
    sp, s = _softplus_sigmoid(m)
    return float(sp.sum()), np.concatenate((2.0 * s, -8.0 * t * s))[:, None] * WL


def loss_and_grad(L, W, t):
    """Batch loss sum_i softplus(m_i) and its gradient with respect to L, for
    W = triplet_diffs(...) and t = tan2(alpha).

    d loss / dL = sum_i sigma(m_i) [2 u_i (u_i^T L) - 8t v_i (v_i^T L)]
    = W^T (c * W L), so the cost stays O(d*l) per triplet in two GEMMs.
    """
    loss, cWL = _weighted_rows(L, W, t)
    return loss, W.T @ cWL


def embedding_grad(L, W, batch_idx, n_rows, t) -> np.ndarray:
    """Gradient of the batch loss with respect to the n_rows embeddings that
    batch_idx indexes (W built from those rows by triplet_diffs, t = tan2).

    With g_u, g_v the rows of (c * W L) L^T (d loss / du, d loss / dv):
    dz = g_u - g_v/2, dz+ = -g_u - g_v/2, dz- = g_v.  One bincount sums
    each row's terms in a fixed order (all anchors, then all positives,
    then all negatives, each in batch order), so the sums do not depend
    on n_rows.
    """
    G = _weighted_rows(L, W, t)[1] @ L.T
    T = G.shape[0] // 2
    Gu, half_v = G[:T], G[T:] / 2.0
    terms = np.concatenate((Gu - half_v, -Gu - half_v, G[T:]))
    d = L.shape[0]
    rows = np.asarray(batch_idx, dtype=np.int64).T.ravel()
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    grad = np.bincount(flat, weights=terms.ravel(), minlength=n_rows * d)
    return grad.reshape(n_rows, d)


def angular_margin(L, z, z_pos, z_neg, alpha_deg) -> float:
    """Margin of a single triplet; the mean point is formed in input space."""
    t = tan2(alpha_deg)
    z_avg = (np.asarray(z, dtype=np.float64) + np.asarray(z_pos, dtype=np.float64)) / 2.0
    return mahalanobis_sq(L, z, z_pos) - 4.0 * t * mahalanobis_sq(L, z_neg, z_avg)


def angular_loss(L, embeddings, batch_idx, alpha_deg) -> float:
    """Sum of softplus(m_i) over a (T, 3) index batch's triplets: the scalar
    whose gradients loss_and_grad and embedding_grad give."""
    m = _margins(L, triplet_diffs(embeddings, batch_idx), tan2(alpha_deg))[0]
    return float(softplus(m).sum())
