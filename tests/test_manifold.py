"""Stiefel geometry and the conjugate-gradient descent loop."""

import numpy as np
import pytest

import ssdml
from ssdml import metric
from ssdml.errors import ConfigError, NumericalError
from ssdml.manifold import (ARMIJO_C, BACKTRACK_FACTOR, MAX_BACKTRACKS,
                            optimize_L, orthonormality_error, random_stiefel,
                            retract_qr, tangent_project)


def householder_retract(L, xi, step):
    """Reference retraction: thin Householder QR of L - step*xi, with the
    Q factor sign-fixed so that diag(R) > 0."""
    Q, R = np.linalg.qr(L - step * xi)
    return Q * np.sign(np.diag(R))


def three_projection_optimize_L(L0, fun_and_grad, max_iter, step0=1.0,
                                max_step=np.inf, grad_tol=1e-9, orthonormal=True):
    """Reference for optimize_L's CG loop: Householder retraction, and the
    new gradient, the old gradient and the old direction each projected at
    the new point on their own.  With orthonormal False the geometry is the
    identity: no projection, and the step L - t*d.  Returns the iterates."""
    if orthonormal:
        project, retract = tangent_project, householder_retract
    else:
        def project(L, G):
            return G

        def retract(L, xi, step):
            return L - step * xi

    L = np.array(L0, dtype=np.float64)
    J, G = fun_and_grad(L)
    g = project(L, G)
    gn2 = float(np.vdot(g, g))
    direction, step, iterates = g, min(step0, max_step), [L]
    for _ in range(max_iter):
        if np.sqrt(gn2) < grad_tol:
            break
        slope = float(np.vdot(g, direction))
        if slope <= 0:
            direction, slope = g, gn2
        trial, first_try = step, True
        for _ in range(MAX_BACKTRACKS):
            L_new = retract(L, direction, trial)
            J_new, G_new = fun_and_grad(L_new)
            if J_new <= J - ARMIJO_C * trial * slope:
                break
            trial *= BACKTRACK_FACTOR
            first_try = False
        else:
            break
        g_new = project(L_new, G_new)
        g_prev = project(L_new, g)
        beta = max(0.0, float(np.vdot(g_new, g_new - g_prev)) / gn2)
        direction = g_new + beta * project(L_new, direction)
        L, J, g, gn2 = L_new, J_new, g_new, float(np.vdot(g_new, g_new))
        step = min(trial * 2.0 if first_try else trial, max_step)
        iterates.append(L)
    return iterates


class TestTangentProject:
    def test_gradient_along_L_vanishes(self):
        rng = np.random.default_rng(0)
        L = random_stiefel(6, 3, rng)
        xi = tangent_project(L, L)
        assert np.abs(xi).max() <= 1e-12

    def test_symmetric_gradient_at_square_identity(self):
        rng = np.random.default_rng(1)
        G = rng.standard_normal((4, 4))
        G = (G + G.T) / 2
        xi = tangent_project(np.eye(4), G)
        assert np.abs(xi).max() <= 1e-12

    def test_stacked_projection_equals_one_by_one(self):
        rng = np.random.default_rng(12)
        L = random_stiefel(9, 4, rng)
        G = rng.standard_normal((3, 9, 4))
        stacked = tangent_project(L, G)
        for k in range(3):
            assert np.array_equal(stacked[k], tangent_project(L, G[k]))

    def test_projected_gradient_is_tangent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            L = random_stiefel(7, 3, rng)
            xi = tangent_project(L, rng.standard_normal((7, 3)))
            skew = L.T @ xi + xi.T @ L
            assert np.abs(skew).max() <= 1e-12


class TestRetractQr:
    def test_zero_direction_returns_L_exactly(self):
        rng = np.random.default_rng(3)
        L = random_stiefel(5, 2, rng)
        assert np.array_equal(retract_qr(L, np.zeros_like(L), 0.5), L)

    def test_output_orthonormal(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            L = random_stiefel(6, 3, rng)
            xi = tangent_project(L, rng.standard_normal((6, 3)))
            out = retract_qr(L, xi, float(rng.uniform(0.01, 2.0)))
            assert orthonormality_error(out) <= 1e-10

    def test_thousand_random_steps_never_degrade(self):
        rng = np.random.default_rng(5)
        L = random_stiefel(8, 3, rng)
        for _ in range(1000):
            xi = tangent_project(L, rng.standard_normal((8, 3)))
            L = retract_qr(L, xi, float(rng.uniform(0.001, 1.0)))
            assert orthonormality_error(L) <= 1e-10

    def test_matches_sign_fixed_householder_q(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            L = random_stiefel(50, 16, rng)
            xi = tangent_project(L, rng.standard_normal((50, 16)))
            step = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
            diff = np.abs(retract_qr(L, xi, step) - householder_retract(L, xi, step))
            assert diff.max() <= 1e-14

    def test_near_singular_non_tangent_direction_keeps_contract(self):
        # Y's first column is L's scaled by 1e-9 plus rounding noise: Cholesky
        # of Y^T Y alone would return Q with ||Q^T Q - I|| near 1e-8
        L = random_stiefel(50, 16, np.random.default_rng(14))
        step = 0.05
        xi = np.zeros_like(L)
        xi[:, 0] = L[:, 0] / step * (1 - 1e-9)
        try:
            out = retract_qr(L, xi, step)
        except NumericalError:
            return
        assert orthonormality_error(out) <= 1e-10

    def test_rank_deficient_direction_raises(self):
        L = random_stiefel(6, 3, np.random.default_rng(15))
        xi = np.zeros_like(L)
        xi[:, 1] = L[:, 1] / 0.5  # L - 0.5 xi has an exactly zero column
        with pytest.raises(NumericalError):
            retract_qr(L, xi, 0.5)

    def test_nonpositive_step_rejected(self):
        L = random_stiefel(4, 2, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            retract_qr(L, np.ones_like(L), 0.0)


def quadratic_problem(S):
    """J(L) = -Tr(L^T S L); minimum is minus the sum of top-l eigenvalues."""

    def fun_and_grad(L):
        SL = S @ L
        return -float(np.sum(L * SL)), -2.0 * SL

    return fun_and_grad


class TestOptimizeL:
    def test_zero_gradient_returns_immediately(self):
        rng = np.random.default_rng(6)
        L0 = random_stiefel(6, 2, rng)
        # A spans the orthogonal complement of span(L0)
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        basis = Q - L0 @ (L0.T @ Q)
        A, _ = np.linalg.qr(basis)
        A = A[:, :3]

        def fg(L):
            LA = L.T @ A
            return float(np.sum(LA * LA)), 2.0 * A @ (A.T @ L)

        res = optimize_L(L0, fg, max_iter=50)
        assert res.n_iter == 0
        assert np.array_equal(res.L, L0)

    def test_quadratic_reaches_top_eigenvalue_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = int(rng.integers(3, 11))
            l = int(rng.integers(1, d))
            B = rng.standard_normal((d, d))
            S = B @ B.T
            target = -float(np.sort(np.linalg.eigvalsh(S))[::-1][:l].sum())
            res = optimize_L(random_stiefel(d, l, rng), quadratic_problem(S),
                             max_iter=500)
            assert res.objective <= target + 1e-6

    def test_monotone_descent_and_orthonormal_iterates(self):
        rng = np.random.default_rng(8)
        S = rng.standard_normal((8, 8))
        S = S @ S.T
        seen = []
        res = optimize_L(random_stiefel(8, 3, rng), quadratic_problem(S),
                         max_iter=200, callback=lambda L, J: seen.append((L, J)))
        for L, _ in seen:
            assert orthonormality_error(L) <= 1e-8
        objs = res.objectives
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))

    def test_matches_three_projection_reference_on_quadratics(self):
        # Two trainer calls' worth of steps, stopped at a gradient norm of
        # 1e-4.  Longer runs amplify rounding differences: the objective is
        # flat along L -> LO, and near the optimum its decrease nears its
        # own rounding, where Armijo's verdict can flip on the last bits.
        rng = np.random.default_rng(16)
        for _ in range(20):
            d = int(rng.integers(3, 11))
            l = int(rng.integers(1, d))
            B = rng.standard_normal((d, d))
            L0 = random_stiefel(d, l, rng)
            fg = quadratic_problem(B @ B.T)
            seen = [L0]
            optimize_L(L0, fg, max_iter=20, grad_tol=1e-4,
                       callback=lambda L, J: seen.append(L))
            ref = three_projection_optimize_L(L0, fg, max_iter=20, grad_tol=1e-4)
            assert len(seen) == len(ref)
            for a, b in zip(seen, ref):
                assert np.abs(a - b).max() <= 1e-12

    def test_ablation_matches_reference_with_identity_geometry(self):
        # the same matrices S, but J(L) = Tr(L^T S L): off the manifold the
        # concave -Tr(L^T S L) has no minimum and the iterates overflow
        rng = np.random.default_rng(16)
        for _ in range(20):
            d = int(rng.integers(3, 11))
            l = int(rng.integers(1, d))
            B = rng.standard_normal((d, d))
            L0 = random_stiefel(d, l, rng)
            concave = quadratic_problem(B @ B.T)

            def fg(L, concave=concave):
                J, G = concave(L)
                return -J, -G

            seen = [L0]
            optimize_L(L0, fg, max_iter=20, grad_tol=1e-4, orthonormal=False,
                       callback=lambda L, J: seen.append(L))
            ref = three_projection_optimize_L(L0, fg, max_iter=20, grad_tol=1e-4,
                                              orthonormal=False)
            assert len(seen) == len(ref)
            for a, b in zip(seen, ref):
                assert np.abs(a - b).max() <= 1e-12

    def test_matches_three_projection_reference_on_angular_batch(self):
        rng = np.random.default_rng(17)
        Z = rng.standard_normal((120, 50))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        batch = rng.integers(0, 120, size=(100, 3))
        W, t = metric.triplet_diffs(Z, batch), metric.tan2(40.0)

        def fg(L):
            return metric.loss_and_grad(L, W, t)

        L0 = np.eye(50)[:, :16]
        seen = [L0]
        optimize_L(L0, fg, max_iter=10, step0=0.05, max_step=0.05,
                   callback=lambda L, J: seen.append(L))
        ref = three_projection_optimize_L(L0, fg, max_iter=10, step0=0.05,
                                          max_step=0.05)
        assert len(seen) == len(ref) == 11
        for a, b in zip(seen, ref):
            assert np.abs(a - b).max() <= 1e-12

    def test_non_orthonormal_ablation_descends_without_retraction(self):
        rng = np.random.default_rng(10)
        S = rng.standard_normal((5, 5))
        S = S @ S.T + 5.0 * np.eye(5)

        def fg(L):  # plain convex quadratic keeps the ablation bounded
            return float(np.sum((L - 1.0) ** 2)), 2.0 * (L - 1.0)

        L0 = random_stiefel(5, 2, rng)
        res = optimize_L(L0, fg, max_iter=100, orthonormal=False)
        objs = res.objectives
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
        assert res.objective <= 1e-10  # reaches the unconstrained minimum
        assert orthonormality_error(res.L) > 1e-6  # genuinely left the manifold

    def test_max_iter_zero_is_noop(self):
        rng = np.random.default_rng(11)
        L0 = random_stiefel(4, 2, rng)
        S = np.eye(4)
        res = optimize_L(L0, quadratic_problem(S), max_iter=0)
        assert np.array_equal(res.L, L0)
        assert len(res.objectives) == 1

    def test_non_orthonormal_start_rejected(self):
        with pytest.raises(ConfigError):
            optimize_L(np.ones((4, 2)), quadratic_problem(np.eye(4)), max_iter=1)


def first_step(L0, fun_and_grad, orthonormal, step):
    """The trial point of optimize_L's first line search at `step`: along
    the (projected) gradient at L0, retracted in orthonormal mode."""
    G = fun_and_grad(L0)[1]
    if not orthonormal:
        return L0 - step * G
    return retract_qr(L0, tangent_project(L0, G), step)


class TestLineSearchExits:
    """optimize_L's line search: it halves the step after a NumericalError
    or a non-finite or too-small decrease, and gives up after
    MAX_BACKTRACKS halvings."""

    @pytest.mark.parametrize("orthonormal", [True, False])
    @pytest.mark.parametrize("outside", ["raise", np.nan, np.inf])
    def test_halves_until_inside_the_radius(self, orthonormal, outside):
        rng = np.random.default_rng(20)
        L0 = random_stiefel(6, 2, rng)
        B = rng.standard_normal((6, 6))
        quadratic = quadratic_problem(B @ B.T / 6.0)
        # the trial at step 1/8 lies inside the radius, those at 1/4, 1/2
        # and 1 outside it
        dist = [np.linalg.norm(first_step(L0, quadratic, orthonormal, 0.5 ** j) - L0)
                for j in range(4)]
        assert dist[0] > dist[1] > dist[2] > dist[3]
        radius = (dist[2] + dist[3]) / 2.0
        trials = []

        def fg(L):
            trials.append(L)
            J, G = quadratic(L)
            if np.linalg.norm(L - L0) <= radius:
                return J, G
            if outside == "raise":
                raise NumericalError("outside the trust radius")
            return outside, G

        res = optimize_L(L0, fg, max_iter=1, step0=1.0, orthonormal=orthonormal)
        assert not res.stalled
        assert res.n_iter == 1
        assert res.step == 0.125  # the accepted step, not doubled after a halving
        assert len(trials) == 1 + 4  # the start, then steps 1, 1/2, 1/4, 1/8
        for j, L in enumerate(trials[1:]):
            assert np.array_equal(L, first_step(L0, quadratic, orthonormal, 0.5 ** j))
        assert np.array_equal(res.L, trials[-1])
        assert res.objectives == [quadratic(L0)[0], quadratic(trials[-1])[0]]

    @pytest.mark.parametrize("orthonormal", [True, False])
    def test_ascent_direction_stalls_after_max_backtracks(self, orthonormal):
        # J is smallest at L0, so no step along the claimed gradient G0
        # decreases it, however short
        rng = np.random.default_rng(21)
        L0 = random_stiefel(6, 2, rng)
        G0 = rng.standard_normal((6, 2))
        calls = []

        def uphill(L):
            calls.append(L)
            return float(np.sum((L - L0) ** 2)), G0

        res = optimize_L(L0, uphill, max_iter=5, step0=0.5, orthonormal=orthonormal)
        assert res.stalled
        assert res.n_iter == 0
        assert np.array_equal(res.L, L0)
        assert res.step == 0.5
        assert res.objectives == [0.0]
        assert len(calls) == 1 + MAX_BACKTRACKS
        g0 = tangent_project(L0, G0) if orthonormal else G0
        assert res.grad_norm == np.sqrt(float(np.vdot(g0, g0)))
