"""Classical semi-supervised metric baselines over a full PSD matrix M.

Two objectives are provided: an entropy-regularized pairwise likelihood
(labeled pairs fit a logistic similarity model, unlabeled pairs pay their
predictive entropy, a trace term keeps the metric sparse in projections)
and a min-max pairwise objective with a graph Laplacian smoothness term.
Both are minimized by projected gradient descent on the PSD cone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .metric import sigmoid, softplus

PLOGP_FLOOR = 1e-300


@dataclass(frozen=True)
class SeraphConfig:
    """Entropy-baseline hyperparameters: distance threshold, unlabeled
    weight and trace weight."""

    eta: float = 1.0
    mu: float = 1.0
    lam: float = 1e-3


@dataclass(frozen=True)
class LrmlConfig:
    """Pair-loss weights for similar and dissimilar labeled pairs."""

    gamma_s: float = 1.0
    gamma_d: float = 1.0

    def __post_init__(self):
        if self.gamma_s < 0 or self.gamma_d < 0 or self.gamma_s + self.gamma_d == 0:
            raise ValueError("pair weights must be non-negative and not both zero")


def pairwise_sq_dists(M: np.ndarray, Z: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """delta^2_M(z_i, z_j) = u^T M u for each (i, j) row of `pairs`."""
    if len(pairs) == 0:
        return np.zeros(0)
    U = Z[pairs[:, 0]] - Z[pairs[:, 1]]
    return np.einsum("ij,jk,ik->i", U, M, U)


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


def seraph_objective(M, Z, labeled_pairs, labeled_y, unlabeled_pairs,
                     config: SeraphConfig) -> float:
    """Labeled-pair negative log-likelihood + mu * unlabeled entropy
    + lam * trace(M)."""
    labeled_pairs = np.asarray(labeled_pairs, dtype=np.int64).reshape(-1, 2)
    unlabeled_pairs = np.asarray(unlabeled_pairs, dtype=np.int64).reshape(-1, 2)
    labeled_y = np.asarray(labeled_y, dtype=np.float64)
    obj = config.lam * float(np.trace(M))
    if len(labeled_pairs):
        a = pairwise_sq_dists(M, Z, labeled_pairs) - config.eta
        # -log p(y) for the logistic model is softplus(y * a)
        obj += float(softplus(labeled_y * a).sum())
    if len(unlabeled_pairs):
        a = pairwise_sq_dists(M, Z, unlabeled_pairs) - config.eta
        H, _ = _entropy_terms(a)
        obj += config.mu * float(H.sum())
    return obj


def seraph_gradient(M, Z, labeled_pairs, labeled_y, unlabeled_pairs,
                    config: SeraphConfig) -> np.ndarray:
    """Analytic gradient of seraph_objective wrt M (symmetric output)."""
    labeled_pairs = np.asarray(labeled_pairs, dtype=np.int64).reshape(-1, 2)
    unlabeled_pairs = np.asarray(unlabeled_pairs, dtype=np.int64).reshape(-1, 2)
    labeled_y = np.asarray(labeled_y, dtype=np.float64)
    d = M.shape[0]
    grad = config.lam * np.eye(d)
    if len(labeled_pairs):
        U = Z[labeled_pairs[:, 0]] - Z[labeled_pairs[:, 1]]
        a = np.einsum("ij,jk,ik->i", U, M, U) - config.eta
        coeff = labeled_y * sigmoid(labeled_y * a)  # d softplus(y a)/da
        grad += U.T @ (coeff[:, None] * U)
    if len(unlabeled_pairs):
        U = Z[unlabeled_pairs[:, 0]] - Z[unlabeled_pairs[:, 1]]
        a = np.einsum("ij,jk,ik->i", U, M, U) - config.eta
        _, dH = _entropy_terms(a)
        grad += config.mu * (U.T @ (dH[:, None] * U))
    return (grad + grad.T) / 2.0


def lrml_objective(M, Z, sim_pairs, dis_pairs, quad, config: LrmlConfig) -> float:
    """gamma_s * sum_sim delta^2 - gamma_d * sum_dis delta^2 + Tr(M quad).

    `quad` is the Laplacian smoothness matrix Z^T Lap Z (X Lap X^T with
    examples as columns), or None for no Laplacian term.
    """
    sim_pairs = np.asarray(sim_pairs, dtype=np.int64).reshape(-1, 2)
    dis_pairs = np.asarray(dis_pairs, dtype=np.int64).reshape(-1, 2)
    obj = config.gamma_s * float(pairwise_sq_dists(M, Z, sim_pairs).sum())
    obj -= config.gamma_d * float(pairwise_sq_dists(M, Z, dis_pairs).sum())
    if quad is not None:
        obj += float(np.sum(M * quad))  # Tr(M quad) for symmetric quad
    return obj


def lrml_gradient(Z, sim_pairs, dis_pairs, quad, config: LrmlConfig) -> np.ndarray:
    """Gradient of lrml_objective; independent of M (the objective is linear)."""
    sim_pairs = np.asarray(sim_pairs, dtype=np.int64).reshape(-1, 2)
    dis_pairs = np.asarray(dis_pairs, dtype=np.int64).reshape(-1, 2)
    d = Z.shape[1]
    grad = np.zeros((d, d))
    if len(sim_pairs):
        U = Z[sim_pairs[:, 0]] - Z[sim_pairs[:, 1]]
        grad += config.gamma_s * (U.T @ U)
    if len(dis_pairs):
        U = Z[dis_pairs[:, 0]] - Z[dis_pairs[:, 1]]
        grad -= config.gamma_d * (U.T @ U)
    if quad is not None:
        grad = grad + quad
    return (grad + grad.T) / 2.0


def project_psd(M: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix: symmetrize, clamp negative eigenvalues to zero."""
    S = (np.asarray(M, dtype=np.float64) + np.asarray(M, dtype=np.float64).T) / 2.0
    try:
        w, V = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    w = np.maximum(w, 0.0)
    R = (V * w) @ V.T
    return (R + R.T) / 2.0


def projected_gradient_step(M, objective_fn, gradient_fn, step: float,
                            max_backtracks: int = 30):
    """One monotone projected-gradient step on the PSD cone.

    Backtracks the step until the objective does not increase; when every
    trial fails, returns M unchanged with step 0 (stalled).
    """
    J0 = objective_fn(M)
    G = gradient_fn(M)
    s = step
    for _ in range(max_backtracks):
        M_new = project_psd(M - s * G)
        if objective_fn(M_new) <= J0 + 1e-12:
            return M_new, s
        s *= 0.5
    return M, 0.0


def factor_metric(M: np.ndarray, l: int) -> np.ndarray:
    """Rank-l factor L with L L^T ~= M from the top-l eigenpairs."""
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    order = np.argsort(w)[::-1][:l]
    return V[:, order] * np.sqrt(np.maximum(w[order], 0.0))
