"""Classical semi-supervised metric baselines over a metric M = L L^T.

Two objectives are provided: an entropy-regularized pairwise likelihood
(labeled pairs fit a logistic similarity model, unlabeled pairs pay their
predictive entropy) and a min-max pairwise objective with a graph Laplacian
smoothness term.  Both are fitted with L^T L = I, under which the first
one's trace regularizer ||L||_F^2 would be the constant l, so it is left out.
Both are written as functions of the factor L, like the paper's metric,
and never form M: a pair's delta^2_M is the squared norm of its difference
row times L.  The first is minimized over L by `manifold.optimize_L`, which
`seraph_loss_and_grad` feeds its value and gradient in one pass.  The
second is linear in M, so over L^T L = I it is minimized in closed form by
the bottom eigenvectors of its gradient wrt M (`stiefel_minimizer`).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .metric import sigmoid, softplus

PLOGP_FLOOR = 1e-300


def pair_diffs(Z: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Pair-difference rows u = z_i - z_j, one per (i, j) row of `pairs`."""
    return Z[pairs[:, 0]] - Z[pairs[:, 1]]


def _entropy_terms(a: np.ndarray):
    """Entropy of the two-sided pair model and its derivative wrt a.

    a = delta^2 - eta; the two outcome probabilities are sigmoid(-a) and
    sigmoid(a).  Probabilities below the floor contribute 0 to p*log(p).
    """
    p = sigmoid(-a)
    q = 1.0 - p

    def plogp(v):
        return np.where(v > PLOGP_FLOOR, v * np.log(np.maximum(v, PLOGP_FLOOR)), 0.0)

    H = -(plogp(p) + plogp(q))
    dH_da = -a * p * q
    return H, dH_da


def seraph_loss_and_grad(L, U, y, V, *, eta, mu):
    """Value and gradient wrt L of the labeled-pair negative log-likelihood
    + mu * unlabeled entropy.

    U holds the labeled pair rows with +1/-1 same/different tags y, and V
    the unlabeled pair rows (see `pair_diffs`).  A pair's delta^2_M is the
    squared norm of its row of U L or V L, so the gradient is
    2 U^T (c * U L) + 2 mu V^T (dH * V L) with c and dH the derivatives of
    each pair's term wrt its delta^2.
    """
    UL, VL = U @ L, V @ L
    a = np.einsum("ij,ij->i", UL, UL) - eta
    H, dH = _entropy_terms(np.einsum("ij,ij->i", VL, VL) - eta)
    # -log p(y) for the logistic model is softplus(y * a)
    obj = float(softplus(y * a).sum()) + mu * float(H.sum())
    c = y * sigmoid(y * a)  # d softplus(y a)/da
    grad = 2.0 * (U.T @ (c[:, None] * UL) + mu * (V.T @ (dH[:, None] * VL)))
    return obj, grad


def lrml_objective(L, S, D, quad, *, gamma_s, gamma_d) -> float:
    """gamma_s * sum_sim delta^2 - gamma_d * sum_dis delta^2 + Tr(L^T quad L)
    at M = L L^T: Tr(L^T G L) with G = lrml_gradient(...).

    S and D hold the similar and dissimilar pair rows (see `pair_diffs`).
    `quad` is the Laplacian smoothness matrix Z^T Lap Z (X Lap X^T with
    examples as columns), or None for no Laplacian term.
    """
    obj = gamma_s * float(np.sum((S @ L) ** 2)) - gamma_d * float(np.sum((D @ L) ** 2))
    if quad is not None:
        obj += float(np.sum(L * (quad @ L)))
    return obj


def lrml_gradient(S, D, quad, *, gamma_s, gamma_d) -> np.ndarray:
    """The symmetric G with lrml_objective(L) = Tr(L^T G L): its gradient
    wrt M = L L^T, independent of M (the objective is linear in M).  The
    gradient wrt L is 2 G L."""
    grad = gamma_s * (S.T @ S) - gamma_d * (D.T @ D)
    if quad is not None:
        grad = grad + quad
    return (grad + grad.T) / 2.0


def class_pair_rows(Z: np.ndarray, y: np.ndarray):
    """Rows (S, D) with S^T S and D^T D equal to the scatter of the pair rows
    of all same-class and all different-class pairs i < j of Z, and the
    numbers of those pairs, without building one row per pair.

    With class means mu_c, class sizes n_c and N rows in all, the same-class
    scatter is sum_c n_c W_c, W_c the centred scatter of class c; the
    all-pairs scatter is N times the centred scatter of Z, so the
    different-class one is sum_c (N - n_c) W_c + N sum_c n_c (mu_c - mu)
    (mu_c - mu)^T.  S has one row per row of Z; D one more per class.
    """
    classes, inv, counts = np.unique(y, return_inverse=True, return_counts=True)
    n = len(inv)
    means = np.zeros((classes.size, Z.shape[1]))
    np.add.at(means, inv, Z)
    means /= counts[:, None]
    centred = Z - means[inv]
    S = np.sqrt(counts[inv])[:, None] * centred
    D = np.vstack([np.sqrt(n - counts[inv])[:, None] * centred,
                   np.sqrt(n * counts)[:, None] * (means - counts @ means / max(n, 1))])
    n_sim = int((counts * (counts - 1) // 2).sum())
    return S, D, n_sim, n * (n - 1) // 2 - n_sim


def stiefel_minimizer(G: np.ndarray, l: int):
    """(L, Tr(L^T G L)) for the L with L^T L = I that minimizes the trace:
    the eigenvectors of G's l smallest eigenvalues, whose sum is the minimum
    (Ky Fan).  G must be symmetric."""
    try:
        w, V = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return V[:, :l], float(w[:l].sum())

