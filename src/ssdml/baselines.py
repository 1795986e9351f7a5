"""Classical semi-supervised metric baselines over a metric M = L L^T.

Two objectives are provided: an entropy-regularized pairwise likelihood
(labeled pairs fit a logistic similarity model, unlabeled pairs pay their
predictive entropy, a trace term keeps the metric sparse in projections)
and a min-max pairwise objective with a graph Laplacian smoothness term.
Both are written as functions of M.  The first is minimized over the factor
L, like the paper's metric: `seraph_loss_and_grad_L` gives its value and
gradient wrt L for `manifold.optimize_L`.  The second is linear in M, so
over L^T L = I it is minimized in closed form by the bottom eigenvectors of
its gradient (`stiefel_minimizer`).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .metric import sigmoid, softplus

PLOGP_FLOOR = 1e-300


def pair_diffs(Z: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Pair-difference rows u = z_i - z_j, one per (i, j) row of `pairs`."""
    return Z[pairs[:, 0]] - Z[pairs[:, 1]]


def quad_forms(M: np.ndarray, U: np.ndarray) -> np.ndarray:
    """u^T M u for each row u of U: delta^2_M of the pair it came from.

    One GEMM, U M, and a row-wise dot product; a three-operand einsum would
    run them as an unblocked loop.
    """
    return np.einsum("ij,ij->i", U @ M, U)


def pair_probability(M, z_i, z_j, y: int, eta: float) -> float:
    """Logistic similarity model p = 1 / (1 + exp(y (delta^2_M - eta)))."""
    u = np.asarray(z_i, dtype=np.float64) - np.asarray(z_j, dtype=np.float64)
    d2 = float(u @ M @ u)
    return float(sigmoid(-y * (d2 - eta)))


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


def seraph_objective(M, U, y, V, *, eta, mu, lam) -> float:
    """Labeled-pair negative log-likelihood + mu * unlabeled entropy
    + lam * trace(M).

    U holds the labeled pair rows with +1/-1 same/different tags y, and V
    the unlabeled pair rows (see `pair_diffs`).
    """
    obj = lam * float(np.trace(M))
    if len(U):
        a = quad_forms(M, U) - eta
        # -log p(y) for the logistic model is softplus(y * a)
        obj += float(softplus(y * a).sum())
    if len(V):
        H, _ = _entropy_terms(quad_forms(M, V) - eta)
        obj += mu * float(H.sum())
    return obj


def seraph_gradient(M, U, y, V, *, eta, mu, lam) -> np.ndarray:
    """Analytic gradient of seraph_objective wrt M (symmetric output)."""
    grad = lam * np.eye(M.shape[0])
    if len(U):
        a = quad_forms(M, U) - eta
        coeff = y * sigmoid(y * a)  # d softplus(y a)/da
        grad += U.T @ (coeff[:, None] * U)
    if len(V):
        _, dH = _entropy_terms(quad_forms(M, V) - eta)
        grad += mu * (V.T @ (dH[:, None] * V))
    return (grad + grad.T) / 2.0


def seraph_loss_and_grad_L(L, U, y, V, **weights):
    """(J(L L^T), 2 G(L L^T) L): seraph_objective J at M = L L^T and its
    gradient wrt L, from the symmetric gradient G wrt M."""
    M = L @ L.T
    return (seraph_objective(M, U, y, V, **weights),
            2.0 * (seraph_gradient(M, U, y, V, **weights) @ L))


def lrml_objective(M, S, D, quad, *, gamma_s, gamma_d) -> float:
    """gamma_s * sum_sim delta^2 - gamma_d * sum_dis delta^2 + Tr(M quad).

    S and D hold the similar and dissimilar pair rows (see `pair_diffs`).
    `quad` is the Laplacian smoothness matrix Z^T Lap Z (X Lap X^T with
    examples as columns), or None for no Laplacian term.
    """
    obj = gamma_s * float(quad_forms(M, S).sum())
    obj -= gamma_d * float(quad_forms(M, D).sum())
    if quad is not None:
        obj += float(np.sum(M * quad))  # Tr(M quad) for symmetric quad
    return obj


def lrml_gradient(S, D, quad, *, gamma_s, gamma_d) -> np.ndarray:
    """Gradient of lrml_objective; independent of M (the objective is linear)."""
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

