"""Entropy and Laplacian pairwise baselines over M = L L^T, written in L."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import ssdml
from ssdml import gradcheck
from ssdml.baselines import (class_pair_rows, lrml_gradient, lrml_objective,
                             pair_diffs, seraph_loss_and_grad, stiefel_minimizer)
from ssdml.manifold import random_stiefel
from ssdml.trainer import _initial_L


def rows(Z, pairs):
    """Pair-difference rows of Z for a (possibly empty) list of index pairs."""
    return pair_diffs(Z, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def loop_sq_dists(M, Z, pairs):
    """Reference: u^T M u, one explicit product per pair."""
    return np.array([float((Z[i] - Z[j]) @ M @ (Z[i] - Z[j])) for i, j in pairs])


def loop_seraph(M, Z, labeled_pairs, labeled_y, unlabeled_pairs, cfg):
    """Reference objective and gradient wrt M from per-pair loops."""
    obj, grad = 0.0, np.zeros_like(M)
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


def seraph_value(L, U, y, V, **weights):
    return seraph_loss_and_grad(L, U, y, V, **weights)[0]


class TestPairDistances:
    """Squared norms of the rows of U L, the pair distances the SERAPH
    kernel takes, and the kernel itself, against explicit per-pair loops at
    M = L L^T."""

    @staticmethod
    def problem(seed, n_labeled, n_unlabeled):
        rng = np.random.default_rng(seed)
        n, d = 12, 5
        Z = 0.4 * rng.standard_normal((n, d))
        L = rng.standard_normal((d, d - 1))  # a general M = L L^T, rank d - 1

        def pairs(m):
            return rng.integers(0, n, size=(m, 2)).astype(np.int64)

        labeled = pairs(n_labeled)
        return L, Z, labeled, rng.choice([-1, 1], size=n_labeled), pairs(n_unlabeled)

    @pytest.mark.parametrize("counts", [(0, 0), (0, 7), (9, 0), (9, 7), (40, 30)])
    def test_pairwise_sq_dists(self, counts):
        L, Z, labeled, _, unlabeled = self.problem(sum(counts), *counts)
        for pairs in (labeled, unlabeled):
            UL = pair_diffs(Z, pairs) @ L
            got = np.einsum("ij,ij->i", UL, UL)
            ref = loop_sq_dists(L @ L.T, Z, pairs)
            assert got.shape == ref.shape == (len(pairs),)
            assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * ref.max(initial=0.0)

    @pytest.mark.parametrize("counts", [(0, 0), (0, 7), (9, 0), (9, 7), (40, 30)])
    def test_seraph_objective_and_gradient(self, counts):
        # the kernel's value is the loop's objective at M = L L^T, and its
        # gradient the chain rule's 2 G L from the loop's gradient G wrt M
        L, Z, labeled, y, unlabeled = self.problem(sum(counts), *counts)
        cfg = SimpleNamespace(eta=1.0, mu=0.7)
        obj_ref, grad_M = loop_seraph(L @ L.T, Z, labeled, y, unlabeled, cfg)
        U, V = pair_diffs(Z, labeled), pair_diffs(Z, unlabeled)
        obj, grad = seraph_loss_and_grad(L, U, y, V, **vars(cfg))
        grad_ref = 2.0 * grad_M @ L
        assert obj == pytest.approx(obj_ref, rel=1e-12)
        assert grad.shape == L.shape
        assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()


class TestSeraphObjective:
    def test_single_pair_at_threshold_gives_log_two(self):
        Z = np.array([[0.0, 0.0], [1.0, 0.0]])
        obj = seraph_value(np.eye(2), rows(Z, [[0, 1]]), np.array([1]),
                           rows(Z, []), eta=1.0, mu=1.0)
        assert obj == pytest.approx(math.log(2.0), abs=1e-12)

    def test_unlabeled_pair_at_threshold_contributes_mu_log_two(self):
        # the bracketed entropy term of the objective is maximal (log 2)
        # exactly at p = 1/2
        Z = np.array([[0.0, 0.0], [1.0, 0.0]])
        obj = seraph_value(np.eye(2), rows(Z, []), np.array([]),
                           rows(Z, [[0, 1]]), eta=1.0, mu=0.7)
        assert obj == pytest.approx(0.7 * math.log(2.0), abs=1e-12)

    def test_entropy_term_maximized_at_threshold_distance(self):
        # minimizing the objective therefore pushes unlabeled pairs away
        # from the uncertain p = 1/2 point (entropy minimization)
        vals = []
        for d in np.linspace(0.0, 3.0, 31):
            Z = np.array([[0.0, 0.0], [math.sqrt(d), 0.0]]) if d > 0 else np.zeros((2, 2))
            vals.append(seraph_value(np.eye(2), rows(Z, []), np.array([]),
                                     rows(Z, [[0, 1]]), eta=1.0, mu=1.0))
        assert np.argmax(vals) == 10  # dist2 = 1.0 = eta

    def test_gradient_matches_finite_differences(self):
        assert gradcheck.check("seraph_grad_L", seed=2, trials=25) <= 1e-5

    def test_gradient_symmetric_and_zero_when_no_pairs(self):
        # a function of L L^T has the gradient 2 G L with G symmetric, so
        # L^T times it is symmetric; with no pairs nothing is left
        weights = dict(eta=1.0, mu=1.0)
        rng = np.random.default_rng(0)
        L = rng.standard_normal((4, 2))
        Z = np.zeros((2, 4))
        obj, grad = seraph_loss_and_grad(L, rows(Z, []), np.array([]), rows(Z, []),
                                         **weights)
        assert obj == 0.0
        assert np.array_equal(grad, np.zeros_like(L))
        Zr = rng.standard_normal((6, 4))
        _, grad = seraph_loss_and_grad(L, rows(Zr, [[0, 1], [2, 3]]), np.array([1, -1]),
                                       rows(Zr, [[4, 5]]), **weights)
        assert np.abs(L.T @ grad - grad.T @ L).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_factor_gradient_matches_finite_differences(self, seed):
        # the L-gradient SERAPH's optimize_L steps follow is that of the
        # per-pair loop's objective at M = L L^T, at orthonormal and
        # general L alike
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((10, 6))
        labeled, unlabeled = [[0, 1], [2, 3], [4, 5]], [[6, 7], [8, 9], [1, 6]]
        U, V = rows(Z, labeled), rows(Z, unlabeled)
        y = np.array([1, -1, 1])
        cfg = SimpleNamespace(eta=1.0, mu=0.7)

        def reference(Lx):
            return loop_seraph(Lx @ Lx.T, Z, labeled, y, unlabeled, cfg)[0]

        for L in (np.linalg.qr(rng.standard_normal((6, 3)))[0],
                  0.5 * rng.standard_normal((6, 3))):
            value, grad = seraph_loss_and_grad(L, U, y, V, **vars(cfg))
            assert value == pytest.approx(reference(L), rel=1e-12)
            numeric = gradcheck.finite_difference_grad(reference, L)
            assert gradcheck.relative_error(grad, numeric) <= 1e-6


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
        quad = Z.T @ Lap @ Z
        obj = lrml_objective(np.zeros((3, 2)), rows(Z, [[0, 1]]), rows(Z, [[2, 3]]),
                             quad, gamma_s=1.0, gamma_d=1.0)
        assert obj == 0.0

    def test_similar_only_identity_metric(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4, 2))
        W = np.zeros((4, 4))
        Lap = ssdml.laplacian(W)
        sim = [[0, 1], [2, 3]]
        obj = lrml_objective(np.eye(2), rows(Z, sim), rows(Z, []), Z.T @ Lap @ Z,
                             gamma_s=1.0, gamma_d=0.0)
        expected = sum(float(np.sum((Z[i] - Z[j]) ** 2)) for i, j in sim)
        assert obj == pytest.approx(expected)

    def test_gradient_matches_finite_differences(self):
        assert gradcheck.check("lrml_grad_L", seed=2, trials=25) <= 1e-5

    def test_gradient_independent_of_M(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((6, 3))
        Lap = ssdml.laplacian(np.ones((6, 6)) - np.eye(6))
        g = lrml_gradient(rows(Z, [[0, 1]]), rows(Z, [[2, 3]]), Z.T @ Lap @ Z,
                          gamma_s=1.0, gamma_d=1.0)
        assert np.abs(g - g.T).max() <= 1e-12  # symmetric by construction

    def test_no_pairs_no_graph_zero_gradient(self):
        Z = np.zeros((3, 2))
        g = lrml_gradient(rows(Z, []), rows(Z, []), None, gamma_s=1.0, gamma_d=1.0)
        assert np.all(g == 0.0)


def labeled_pair_rows(Z, y):
    """Pair-difference rows of every same-class and every different-class
    pair i < j, built one row per pair."""
    i, j = np.triu_indices(len(y), k=1)
    pairs = np.stack([i, j], axis=1)
    same = y[i] == y[j]
    return pair_diffs(Z, pairs[same]), pair_diffs(Z, pairs[~same])


class TestClassPairRows:
    @pytest.mark.parametrize("labels", [
        [0, 1, 2, 0, 1, 2, 0, 0, 3],  # several classes, one a singleton
        [0, 1, 2, 3, 4],              # no similar pair
        [5, 5, 5, 5],                 # no dissimilar pair
        [7],
    ])
    def test_same_scatters_and_counts_as_one_row_per_pair(self, labels):
        rng = np.random.default_rng(10)
        y = np.array(labels)
        Z = rng.standard_normal((y.size, 4)) + 3.0
        quad = rng.standard_normal((4, 4))
        quad = quad @ quad.T
        S_pairs, D_pairs = labeled_pair_rows(Z, y)
        S, D, n_sim, n_dis = class_pair_rows(Z, y)
        assert (n_sim, n_dis) == (len(S_pairs), len(D_pairs))
        assert S.shape[0] == y.size and D.shape[0] == y.size + np.unique(y).size
        for weights in (dict(gamma_s=1.0, gamma_d=1.0), dict(gamma_s=0.2, gamma_d=3.0)):
            want = lrml_gradient(S_pairs, D_pairs, quad, **weights)
            got = lrml_gradient(S, D, quad, **weights)
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        for rows_, pair_rows in ((S, S_pairs), (D, D_pairs)):
            assert np.abs(rows_.T @ rows_ - pair_rows.T @ pair_rows).max() \
                <= 1e-10 * max(1.0, np.abs(pair_rows.T @ pair_rows).max())


class TestStiefelMinimizer:
    def problem(self, seed=11, n=14, d=6):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((n, d))
        y = rng.integers(0, 3, size=n)
        W = rng.random((n, n))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0.0)
        quad = Z.T @ ssdml.laplacian(W) @ Z
        S, D = labeled_pair_rows(Z, y)
        weights = dict(gamma_s=1.0 / len(S), gamma_d=1.0 / len(D))
        return S, D, quad, weights

    @pytest.mark.parametrize("l", [1, 3, 6])
    def test_orthonormal_full_rank_minimizer(self, l):
        S, D, quad, weights = self.problem()
        G = lrml_gradient(S, D, quad, **weights)
        L, value = stiefel_minimizer(G, l)
        d = G.shape[0]
        assert L.shape == (d, l)
        assert np.linalg.norm(L.T @ L - np.eye(l)) <= 1e-10
        assert np.linalg.matrix_rank(L) == l

        def objective(Lx):
            return lrml_objective(Lx, S, D, quad, **weights)

        bottom = np.linalg.eigvalsh(G)[:l].sum()
        assert value == pytest.approx(bottom, rel=1e-10)
        assert objective(L) == pytest.approx(bottom, rel=1e-10)
        rng = np.random.default_rng(12)
        others = [np.linalg.qr(rng.standard_normal((d, l)))[0] for _ in range(200)]
        others.append(_initial_L(d, l))  # every method's starting point
        assert all(objective(L) <= objective(Lx) + 1e-12 for Lx in others)

    @pytest.mark.parametrize("l", [1, 3, 6])
    def test_closed_form_loss_is_the_objective_minimum(self, l):
        # training solves on class_pair_rows' compact rows and records the
        # eigenvalue sum as the loss; that is the objective over one row per
        # labeled pair at the L it keeps, and no orthonormal L scores below it
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((14, 6))
        y = rng.integers(0, 3, size=14)
        quad = Z.T @ ssdml.laplacian(np.ones((14, 14)) - np.eye(14)) @ Z
        S_cls, D_cls, n_sim, n_dis = class_pair_rows(Z, y)
        weights = dict(gamma_s=1.0 / n_sim, gamma_d=1.0 / n_dis)
        L, loss = stiefel_minimizer(lrml_gradient(S_cls, D_cls, quad, **weights), l)
        S, D = labeled_pair_rows(Z, y)
        assert lrml_objective(L, S, D, quad, **weights) == pytest.approx(loss, rel=1e-10)
        draws = [lrml_objective(random_stiefel(6, l, rng), S, D, quad, **weights)
                 for _ in range(200)]
        assert min(draws) >= loss - 1e-12 * max(1.0, abs(loss))
