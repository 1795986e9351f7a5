"""Entropy and Laplacian pairwise baselines on the PSD cone."""

import math

import numpy as np
import pytest

import ssdml
from ssdml import gradcheck
from ssdml.baselines import (LrmlConfig, SeraphConfig, factor_metric,
                             lrml_gradient, lrml_objective, pair_probability,
                             pairwise_sq_dists, project_psd,
                             projected_gradient_step, seraph_gradient,
                             seraph_objective)


class TestPairProbability:
    def test_half_at_threshold(self):
        M = np.eye(2)
        z_i, z_j = np.zeros(2), np.array([1.0, 0.0])  # dist2 = 1 = eta
        for y in (-1, 1):
            assert pair_probability(M, z_i, z_j, y, eta=1.0) == pytest.approx(0.5)

    def test_similar_close_pair_probability_high(self):
        M = np.eye(2)
        p = pair_probability(M, np.zeros(2), np.zeros(2), y=1, eta=10.0)
        assert p > 0.99

    def test_dissimilar_close_pair_probability_low(self):
        M = np.eye(2)
        p = pair_probability(M, np.zeros(2), np.zeros(2), y=-1, eta=10.0)
        assert p < 0.01


def loop_sq_dists(M, Z, pairs):
    """Reference: u^T M u, one explicit product per pair."""
    return np.array([float((Z[i] - Z[j]) @ M @ (Z[i] - Z[j])) for i, j in pairs])


def loop_seraph(M, Z, labeled_pairs, labeled_y, unlabeled_pairs, cfg):
    """Reference objective and gradient from per-pair loops."""
    d = M.shape[0]
    obj, grad = cfg.lam * float(np.trace(M)), cfg.lam * np.eye(d)
    for (i, j), y, d2 in zip(labeled_pairs, labeled_y,
                             loop_sq_dists(M, Z, labeled_pairs)):
        u, a = Z[i] - Z[j], d2 - cfg.eta
        obj += math.log1p(math.exp(y * a))
        grad += y / (1.0 + math.exp(-y * a)) * np.outer(u, u)
    for (i, j), d2 in zip(unlabeled_pairs, loop_sq_dists(M, Z, unlabeled_pairs)):
        u, a = Z[i] - Z[j], d2 - cfg.eta
        p = 1.0 / (1.0 + math.exp(a))
        q = 1.0 - p
        obj -= cfg.mu * (p * math.log(p) + q * math.log(q))
        grad -= cfg.mu * a * p * q * np.outer(u, u)
    return obj, (grad + grad.T) / 2.0


class TestPairDistances:
    """The GEMM pair distances against an explicit u^T M u loop."""

    @staticmethod
    def problem(seed, n_labeled, n_unlabeled):
        rng = np.random.default_rng(seed)
        n, d = 12, 5
        Z = 0.4 * rng.standard_normal((n, d))
        B = rng.standard_normal((d, d - 1))  # a general PSD M, rank d - 1
        M = B @ B.T

        def pairs(m):
            return rng.integers(0, n, size=(m, 2)).astype(np.int64)

        labeled = pairs(n_labeled)
        return M, Z, labeled, rng.choice([-1, 1], size=n_labeled), pairs(n_unlabeled)

    @pytest.mark.parametrize("counts", [(0, 0), (0, 7), (9, 0), (9, 7), (40, 30)])
    def test_pairwise_sq_dists(self, counts):
        M, Z, labeled, _, unlabeled = self.problem(sum(counts), *counts)
        for pairs in (labeled, unlabeled):
            got, ref = pairwise_sq_dists(M, Z, pairs), loop_sq_dists(M, Z, pairs)
            assert got.shape == ref.shape == (len(pairs),)
            assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * ref.max(initial=0.0)

    @pytest.mark.parametrize("counts", [(0, 0), (0, 7), (9, 0), (9, 7), (40, 30)])
    def test_seraph_objective_and_gradient(self, counts):
        M, Z, labeled, y, unlabeled = self.problem(sum(counts), *counts)
        cfg = SeraphConfig(eta=1.0, mu=0.7, lam=0.1)
        obj_ref, grad_ref = loop_seraph(M, Z, labeled, y, unlabeled, cfg)
        obj = seraph_objective(M, Z, labeled, y, unlabeled, cfg)
        grad = seraph_gradient(M, Z, labeled, y, unlabeled, cfg)
        assert obj == pytest.approx(obj_ref, rel=1e-12)
        assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()


class TestSeraphObjective:
    def test_single_pair_at_threshold_gives_log_two(self):
        Z = np.array([[0.0, 0.0], [1.0, 0.0]])
        cfg = SeraphConfig(eta=1.0, mu=1.0, lam=0.0)
        obj = seraph_objective(np.eye(2), Z, [[0, 1]], [1], np.zeros((0, 2)), cfg)
        assert obj == pytest.approx(math.log(2.0), abs=1e-12)

    def test_unlabeled_pair_at_threshold_contributes_mu_log_two(self):
        # the bracketed entropy term of the objective is maximal (log 2)
        # exactly at p = 1/2
        Z = np.array([[0.0, 0.0], [1.0, 0.0]])
        cfg = SeraphConfig(eta=1.0, mu=0.7, lam=0.0)
        obj = seraph_objective(np.eye(2), Z, np.zeros((0, 2)), [], [[0, 1]], cfg)
        assert obj == pytest.approx(0.7 * math.log(2.0), abs=1e-12)

    def test_trace_term(self):
        cfg = SeraphConfig(eta=1.0, mu=1.0, lam=0.25)
        Z = np.zeros((2, 3))
        obj = seraph_objective(np.eye(3), Z, np.zeros((0, 2)), [],
                               np.zeros((0, 2)), cfg)
        assert obj == pytest.approx(0.25 * 3.0)

    def test_entropy_term_maximized_at_threshold_distance(self):
        # minimizing the objective therefore pushes unlabeled pairs away
        # from the uncertain p = 1/2 point (entropy minimization)
        cfg = SeraphConfig(eta=1.0, mu=1.0, lam=0.0)
        vals = []
        for d in np.linspace(0.0, 3.0, 31):
            Z = np.array([[0.0, 0.0], [math.sqrt(d), 0.0]]) if d > 0 else np.zeros((2, 2))
            vals.append(seraph_objective(np.eye(2), Z, np.zeros((0, 2)), [],
                                         [[0, 1]], cfg))
        assert np.argmax(vals) == 10  # dist2 = 1.0 = eta

    def test_gradient_matches_finite_differences(self):
        assert gradcheck.check_seraph_grad(seed=2, trials=25) <= 1e-5

    def test_gradient_symmetric_and_trace_only_when_no_pairs(self):
        cfg = SeraphConfig(eta=1.0, mu=1.0, lam=0.5)
        Z = np.zeros((2, 4))
        G = seraph_gradient(np.eye(4), Z, np.zeros((0, 2)), [], np.zeros((0, 2)), cfg)
        assert np.allclose(G, 0.5 * np.eye(4))
        rng = np.random.default_rng(0)
        Zr = rng.standard_normal((6, 3))
        G = seraph_gradient(np.eye(3), Zr, [[0, 1], [2, 3]], [1, -1],
                            [[4, 5]], cfg)
        assert np.abs(G - G.T).max() <= 1e-12


class TestLrml:
    def test_laplacian_quadratic_identity(self):
        # Tr(M X Lap X^T) = (1/2) sum_ij W_ij dist2_M(z_i, z_j), both sides
        # computed independently
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, d = int(rng.integers(3, 12)), int(rng.integers(2, 6))
            Z = rng.standard_normal((n, d))
            B = rng.standard_normal((d, d))
            M = B @ B.T
            W = rng.random((n, n))
            W = (W + W.T) / 2
            np.fill_diagonal(W, 0.0)
            Lap = ssdml.laplacian(W)
            lhs = float(np.trace(M @ (Z.T @ Lap @ Z)))
            rhs = 0.0
            for i in range(n):
                for j in range(n):
                    u = Z[i] - Z[j]
                    rhs += W[i, j] * float(u @ M @ u)
            rhs /= 2.0
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_zero_metric_zero_objective(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((5, 3))
        Lap = ssdml.laplacian(np.ones((5, 5)) - np.eye(5))
        cfg = LrmlConfig()
        quad = Z.T @ Lap @ Z
        obj = lrml_objective(np.zeros((3, 3)), Z, [[0, 1]], [[2, 3]], quad, cfg)
        assert obj == 0.0

    def test_similar_only_identity_metric(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4, 2))
        W = np.zeros((4, 4))
        Lap = ssdml.laplacian(W)
        cfg = LrmlConfig(gamma_s=1.0, gamma_d=0.0)
        sim = [[0, 1], [2, 3]]
        obj = lrml_objective(np.eye(2), Z, sim, np.zeros((0, 2)), Z.T @ Lap @ Z, cfg)
        expected = sum(float(np.sum((Z[i] - Z[j]) ** 2)) for i, j in sim)
        assert obj == pytest.approx(expected)

    def test_gradient_matches_finite_differences(self):
        assert gradcheck.check_lrml_grad(seed=2, trials=25) <= 1e-5

    def test_gradient_independent_of_M(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((6, 3))
        Lap = ssdml.laplacian(np.ones((6, 6)) - np.eye(6))
        cfg = LrmlConfig()
        g = lrml_gradient(Z, [[0, 1]], [[2, 3]], Z.T @ Lap @ Z, cfg)
        assert np.abs(g - g.T).max() <= 1e-12  # symmetric by construction

    def test_no_pairs_no_graph_zero_gradient(self):
        Z = np.zeros((3, 2))
        g = lrml_gradient(Z, np.zeros((0, 2)), np.zeros((0, 2)), None,
                          LrmlConfig())
        assert np.all(g == 0.0)

    def test_config_rejects_both_zero(self):
        with pytest.raises(ValueError):
            LrmlConfig(gamma_s=0.0, gamma_d=0.0)


class TestProjectPsd:
    def test_psd_input_unchanged(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((4, 4))
        M = B @ B.T
        assert np.abs(project_psd(M) - M).max() <= 1e-10

    def test_clamps_negative_eigenvalue(self):
        M = np.diag([1.0, -2.0])
        assert np.allclose(project_psd(M), np.diag([1.0, 0.0]))

    def test_output_min_eigenvalue(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            M = rng.standard_normal((5, 5))
            out = project_psd(M)
            assert np.linalg.eigvalsh(out).min() >= -1e-10


class TestProjectedGradientTraining:
    def test_seraph_monotone_objective(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((12, 3))
        y = rng.integers(0, 2, size=12)
        pairs = np.array([[i, j] for i in range(6) for j in range(i + 1, 6)])
        y_pairs = np.where(y[pairs[:, 0]] == y[pairs[:, 1]], 1, -1)
        unlab = np.array([[i, j] for i in range(6, 12) for j in range(i + 1, 12)])
        cfg = SeraphConfig()
        obj = lambda M: seraph_objective(M, Z, pairs, y_pairs, unlab, cfg)
        grad = lambda M: seraph_gradient(M, Z, pairs, y_pairs, unlab, cfg)
        M = np.eye(3)
        values = [obj(M)]
        step = 1.0
        for _ in range(40):
            M, step, _ = projected_gradient_step(M, obj, grad, step or 1e-3)
            values.append(obj(M))
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))
        assert np.linalg.eigvalsh(M).min() >= -1e-10

    def test_lrml_monotone_objective(self):
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((10, 3))
        W = rng.random((10, 10))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0.0)
        Lap = ssdml.laplacian(W)
        cfg = LrmlConfig(gamma_s=1.0, gamma_d=0.3)
        sim = np.array([[0, 1], [2, 3]])
        dis = np.array([[4, 5], [6, 7]])
        quad = Z.T @ Lap @ Z
        obj = lambda M: lrml_objective(M, Z, sim, dis, quad, cfg)
        grad = lambda M: lrml_gradient(Z, sim, dis, quad, cfg)
        M = np.eye(3)
        values = [obj(M)]
        step = 1.0
        for _ in range(40):
            M, step, _ = projected_gradient_step(M, obj, grad, step or 1e-3)
            values.append(obj(M))
        assert all(b <= a + 1e-10 for a, b in zip(values, values[1:]))


def test_factor_metric_reconstructs_top_eigenspace():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((5, 2))
    M = B @ B.T  # rank 2
    L = factor_metric(M, 2)
    assert np.abs(L @ L.T - M).max() <= 1e-10
