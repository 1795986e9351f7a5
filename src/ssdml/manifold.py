"""First-order Riemannian optimization on the Stiefel manifold.

Minimizes a smooth objective over matrices with orthonormal columns using
Polak-Ribiere conjugate directions built from tangent-projected gradients,
a Cholesky-QR retraction, and Armijo backtracking.  The no-orthogonality
ablation runs the same conjugate-gradient loop without projection or
retraction: Euclidean gradients, and the step L - t*d taken as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError

GRAD_TOL = 1e-9
ARMIJO_C = 1e-4
BACKTRACK_FACTOR = 0.5
MAX_BACKTRACKS = 30
ORTH_TOL = 1e-8
RETRACT_ORTH_TOL = 1e-10


def orthonormality_error(L: np.ndarray) -> float:
    """Frobenius norm of L^T L - I."""
    E = L.T @ L
    E.flat[::E.shape[0] + 1] -= 1.0
    return float(np.sqrt(np.vdot(E, E)))


def random_stiefel(d: int, l: int, rng) -> np.ndarray:
    """Random point with orthonormal columns (QR of a Gaussian matrix)."""
    Q, R = np.linalg.qr(rng.standard_normal((d, l)))
    return Q * np.sign(np.diag(R))


def tangent_project(L: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at L.

    xi = G - L sym(L^T G); the result satisfies L^T xi + xi^T L = 0.  G may
    be a stack of shape (k, d, l), projected matrix by matrix in one call.
    """
    LtG = L.T @ G
    return G - L @ ((LtG + np.swapaxes(LtG, -1, -2)) / 2.0)


def retract_qr(L: np.ndarray, xi: np.ndarray, step: float) -> np.ndarray:
    """QR retraction of the step Y = L - step*xi back onto the manifold,
    computed as Cholesky-QR: Y^T Y = C C^T, Q = Y C^{-T}.

    C has a positive diagonal, so Q is the Q factor of the thin QR of Y
    with diag(R) > 0, which makes the retraction continuous in its inputs
    (and the zero step an exact no-op).  For a tangent xi at an
    orthonormal L, Y^T Y = I + step^2 xi^T xi is at least I, so the Gram
    matrix is well conditioned.  Any other xi may make Y (nearly) rank
    deficient; when Q would not be orthonormal to RETRACT_ORTH_TOL the
    call raises NumericalError, which optimize_L answers with a smaller step.
    """
    if step <= 0:
        raise ConfigError("retraction step must be positive")
    if not xi.any():
        return L.copy()
    Y = L - step * xi
    try:
        C = np.linalg.cholesky(Y.T @ Y)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "rank-deficient retraction; retry with a smaller step") from None
    Q = Y @ np.linalg.inv(C).T
    if not orthonormality_error(Q) <= RETRACT_ORTH_TOL:
        raise NumericalError("ill-conditioned retraction; retry with a smaller step")
    return Q


@dataclass
class OptimizeResult:
    """Outcome of one optimize_L call.

    `objectives` lists the initial value followed by every accepted step's
    value; `step` is the last accepted step size (useful as the next call's
    step0 when optimizing batch after batch).
    """

    L: np.ndarray
    step: float
    stalled: bool = False
    n_iter: int = 0
    grad_norm: float = np.inf
    objectives: list = field(default_factory=list)

    @property
    def objective(self) -> float:
        return self.objectives[-1]


def optimize_L(L0, fun_and_grad, max_iter: int = 10, step0: float = 1.0,
               orthonormal: bool = True,
               grad_tol: float = GRAD_TOL, max_step: float = np.inf,
               callback=None) -> OptimizeResult:
    """Descend `fun_and_grad` from L0 for at most max_iter accepted steps.

    fun_and_grad(L) must return (objective, euclidean gradient).  In
    orthonormal mode gradients are tangent-projected, steps retracted by
    Cholesky-QR, and the previous conjugate direction is transported by
    re-projection at the new point (projected together with the new
    gradient, in one stacked call).  The ablation mode (orthonormal False)
    runs the same Polak-Ribiere update with identity geometry: the new
    gradient and the old direction are carried over unprojected, and a
    step moves to L - t*d; the flag picks only the start check, the
    projection and the retraction.  Accepted objective values never
    increase; a failed line search (30 halvings) returns the current
    iterate flagged as stalled.  `max_step` caps every line-search trial,
    which keeps successive mini-batch calls from leaping to each batch's
    private optimum.
    """
    L = np.array(L0, dtype=np.float64)
    if orthonormal and orthonormality_error(L) > ORTH_TOL:
        raise ConfigError("L0 must have orthonormal columns")

    J, G = fun_and_grad(L)
    g = tangent_project(L, G) if orthonormal else G
    gn2 = float(np.vdot(g, g))
    direction = g
    result = OptimizeResult(L=L, step=min(step0, max_step), objectives=[float(J)])
    pair = np.empty((2,) + L.shape)  # G_new and the old direction, projected together

    for _ in range(max_iter):
        if np.sqrt(gn2) < grad_tol:
            break
        slope = float(np.vdot(g, direction))
        if slope <= 0:  # conjugate direction lost descent; restart on gradient
            direction = g
            slope = gn2

        step = result.step
        for trial in range(MAX_BACKTRACKS):
            try:
                L_new = retract_qr(L, direction, step) if orthonormal else L - step * direction
                J_new, G_new = fun_and_grad(L_new)
                if np.isfinite(J_new) and J_new <= J - ARMIJO_C * step * slope:
                    break
            except NumericalError:
                pass
            step *= BACKTRACK_FACTOR
        else:
            result.stalled = True
            break

        if orthonormal:
            pair[0] = G_new
            pair[1] = direction
            g_new, moved = tangent_project(L_new, pair)
        else:
            g_new, moved = G_new, direction
        gn2_new = float(np.vdot(g_new, g_new))
        # Polak-Ribiere against the old gradient transported to L_new: the
        # projector is self-adjoint and g_new tangent there, so
        # <g_new, P(g)> = <g_new, g> and P(g) itself is never formed
        beta = (gn2_new - float(np.vdot(g_new, g))) / gn2 if gn2 > 0 else 0.0
        direction = g_new + max(0.0, beta) * moved

        L, J, g, gn2 = L_new, float(J_new), g_new, gn2_new
        result.L = L
        result.step = min(step * 2.0 if trial == 0 else step, max_step)
        result.n_iter += 1
        result.objectives.append(J)
        if callback is not None:
            callback(L, J)

    result.grad_norm = np.sqrt(gn2)
    return result
