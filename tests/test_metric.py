"""Factorized metric distance, angular loss, and analytic gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ssdml
from ssdml import gradcheck, metric
from ssdml.manifold import random_stiefel


class TestMahalanobisSq:
    def test_zero_on_identical_points(self):
        L = np.eye(3)
        z = np.array([1.0, -2.0, 3.0])
        assert ssdml.mahalanobis_sq(L, z, z) == 0.0

    def test_identity_factor_is_squared_euclidean(self):
        L = np.eye(2)
        assert ssdml.mahalanobis_sq(L, np.array([0.0, 0.0]),
                                    np.array([3.0, 4.0])) == 25.0

    def test_null_direction_projected_out(self):
        L = np.array([[1.0], [0.0]])
        z_i = np.array([0.0, 5.0])
        z_j = np.array([0.0, -5.0])
        assert ssdml.mahalanobis_sq(L, z_i, z_j) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ssdml.mahalanobis_sq(np.eye(3), np.zeros(2), np.zeros(2))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            L = rng.standard_normal((4, 2))
            a, b = rng.standard_normal(4), rng.standard_normal(4)
            assert ssdml.mahalanobis_sq(L, a, b) == ssdml.mahalanobis_sq(L, b, a)

    def test_triangle_inequality_of_square_root(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            L = rng.standard_normal((5, 3))
            a, b, c = rng.standard_normal((3, 5))
            dab = math.sqrt(ssdml.mahalanobis_sq(L, a, b))
            dbc = math.sqrt(ssdml.mahalanobis_sq(L, b, c))
            dac = math.sqrt(ssdml.mahalanobis_sq(L, a, c))
            assert dac <= dab + dbc + 1e-12


class TestAngularMargin:
    def test_fully_degenerate_triplet(self):
        L = np.eye(2)
        z = np.array([1.0, 2.0])
        assert ssdml.angular_margin(L, z, z, z, 40.0) == 0.0

    def test_hand_evaluated_minus_four(self):
        # tan^2(45 deg) = 1; dist2(z, z+) = 0; z_avg = origin;
        # dist2(z-, z_avg) = 1 -> m = 0 - 4*1*1 = -4
        L = np.eye(2)
        m = ssdml.angular_margin(L, np.zeros(2), np.zeros(2),
                                 np.array([1.0, 0.0]), 45.0)
        assert m == pytest.approx(-4.0, abs=1e-12)

    def test_average_formed_before_projection(self):
        rng = np.random.default_rng(2)
        L = rng.standard_normal((4, 2))
        z, zp, zn = rng.standard_normal((3, 4))
        t = metric.tan2(40.0)
        expected = (ssdml.mahalanobis_sq(L, z, zp)
                    - 4.0 * t * ssdml.mahalanobis_sq(L, zn, (z + zp) / 2.0))
        assert ssdml.angular_margin(L, z, zp, zn, 40.0) == pytest.approx(expected)

    def test_alpha_range_enforced(self):
        for bad in (0.0, 90.0, -5.0):
            with pytest.raises(ValueError):
                metric.tan2(bad)


class TestAngularLoss:
    def test_degenerate_triplet_gives_log_two(self):
        Z = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        loss = ssdml.angular_loss(np.eye(2), Z, [[0, 1, 2]], 40.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_minus_four_margin_scalar_value(self):
        Z = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        loss = ssdml.angular_loss(np.eye(2), Z, [[0, 1, 2]], 45.0)
        assert loss == pytest.approx(math.log1p(math.exp(-4.0)), abs=1e-12)

    def test_softplus_asymptote_no_overflow(self):
        assert float(metric.softplus(100.0)) == pytest.approx(100.0, abs=1e-12)
        assert float(metric.softplus(1e4)) == pytest.approx(1e4)
        assert np.isfinite(metric.softplus(np.array([-1e4, 0.0, 1e4]))).all()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ssdml.angular_loss(np.eye(2), np.zeros((3, 2)), np.zeros((0, 3)), 40.0)

    def test_monotone_in_anchor_positive_distance(self):
        # growing dist2(z, z+) with the negative term held fixed never
        # decreases the loss, and the loss stays non-negative
        t = metric.tan2(30.0)
        d_neg = 1.7
        losses = [float(metric.softplus(d_pos - 4.0 * t * d_neg))
                  for d_pos in np.linspace(0.0, 5.0, 21)]
        assert all(v >= 0.0 for v in losses)
        assert all(b >= a for a, b in zip(losses, losses[1:]))


class TestGradients:
    def test_degenerate_batch_zero_gradients(self):
        Z = np.ones((3, 4))
        idx = [[0, 1, 2]]
        L = np.random.default_rng(0).standard_normal((4, 2))
        W, t = metric.triplet_diffs(Z, idx), metric.tan2(40.0)
        assert np.all(metric.loss_and_grad(L, W, t)[1] == 0.0)
        assert np.all(metric.embedding_grad(L, W, idx, 3, t) == 0.0)

    def test_grad_L_matches_finite_differences(self):
        assert gradcheck.check("angular_loss_grad_L", seed=3, trials=25) <= 1e-5

    def test_grad_embeddings_matches_finite_differences(self):
        assert gradcheck.check("angular_loss_grad_embeddings", seed=3, trials=25) <= 1e-5

    def test_grad_single_instance_inline_oracle(self):
        # independent spot check, not via the shared harness
        rng = np.random.default_rng(9)
        d, l = 6, 3
        Z = rng.standard_normal((5, d))
        L = rng.standard_normal((d, l))
        idx = np.array([[0, 1, 2], [3, 4, 0]])
        analytic = metric.loss_and_grad(L, metric.triplet_diffs(Z, idx),
                                        metric.tan2(45.0))[1]
        h = 1e-6
        for (i, j) in [(0, 0), (3, 2), (5, 1)]:
            Lp, Lm = L.copy(), L.copy()
            Lp[i, j] += h
            Lm[i, j] -= h
            fd = (ssdml.angular_loss(Lp, Z, idx, 45.0)
                  - ssdml.angular_loss(Lm, Z, idx, 45.0)) / (2 * h)
            assert analytic[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_grad_linear_in_batch(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((8, 5))
        L = rng.standard_normal((5, 2))
        a = rng.choice(8, size=(3, 3), replace=True)
        b = rng.choice(8, size=(4, 3), replace=True)
        both = np.vstack([a, b])

        def g(idx):
            return metric.loss_and_grad(L, metric.triplet_diffs(Z, idx),
                                        metric.tan2(40.0))[1]

        np.testing.assert_allclose(g(both), g(a) + g(b), atol=1e-12)

    @staticmethod
    def random_batches(seed, count=50):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n, d = int(rng.integers(3, 40)), int(rng.integers(2, 9))
            l = int(rng.integers(1, d + 1))
            T = int(rng.integers(1, 30))
            idx = np.array([rng.choice(n, size=3, replace=False) for _ in range(T)])
            yield (rng.standard_normal((d, l)), rng.standard_normal((n, d)), idx,
                   float(rng.uniform(15.0, 75.0)))

    def test_fused_loss_and_grad_bitwise_equal_to_separate_calls(self):
        # the fused loss is the scalar gradcheck differentiates, and the
        # batch-local rows the trainer uses give the same loss and gradient
        for L, Z, idx, alpha in self.random_batches(6):
            t = metric.tan2(alpha)
            loss, grad = metric.loss_and_grad(L, metric.triplet_diffs(Z, idx), t)
            assert loss == ssdml.angular_loss(L, Z, idx, alpha)
            nodes, local = metric.batch_rows(idx)
            local_loss, local_grad = metric.loss_and_grad(
                L, metric.triplet_diffs(Z[nodes], local), t)
            assert local_loss == loss
            assert np.array_equal(local_grad, grad)

    def test_batch_local_embedding_grad_scatters_to_full_rows_grad(self):
        for L, Z, idx, alpha in self.random_batches(7):
            nodes, local = metric.batch_rows(idx)
            assert np.array_equal(nodes[local], idx)
            W = metric.triplet_diffs(Z[nodes], local)
            scattered = np.zeros_like(Z)
            scattered[nodes] = metric.embedding_grad(L, W, local, nodes.size,
                                                     metric.tan2(alpha))
            full = metric.embedding_grad(L, metric.triplet_diffs(Z, idx), idx,
                                         Z.shape[0], metric.tan2(alpha))
            assert np.array_equal(scattered, full)

    @staticmethod
    def two_gemm_reference(L, Z, idx, t):
        """The kernels as separate U and V products: loss, d loss / dL, and the
        embedding gradient scattered with one np.add.at per triplet role."""
        a, p, n = idx[:, 0], idx[:, 1], idx[:, 2]
        U, V = Z[a] - Z[p], Z[n] - (Z[a] + Z[p]) / 2.0
        UL, VL = U @ L, V @ L
        m = np.einsum("ij,ij->i", UL, UL) - 4.0 * t * np.einsum("ij,ij->i", VL, VL)
        s = np.exp(-np.logaddexp(0.0, -m))
        loss = float(np.logaddexp(0.0, m).sum())
        grad_L = 2.0 * U.T @ (s[:, None] * UL) - 8.0 * t * V.T @ (s[:, None] * VL)
        MU, MV = (s[:, None] * UL) @ L.T, (s[:, None] * VL) @ L.T
        grad_Z = np.zeros_like(Z)
        np.add.at(grad_Z, a, 2.0 * MU + 4.0 * t * MV)
        np.add.at(grad_Z, p, -2.0 * MU + 4.0 * t * MV)
        np.add.at(grad_Z, n, -8.0 * t * MV)
        return loss, grad_L, grad_Z

    def test_stacked_kernels_match_two_gemm_reference(self):
        for L, Z, idx, alpha in self.random_batches(8):
            t = metric.tan2(alpha)
            loss, grad_L, grad_Z = self.two_gemm_reference(L, Z, idx, t)
            W = metric.triplet_diffs(Z, idx)
            got_loss, got_L = metric.loss_and_grad(L, W, t)
            got_Z = metric.embedding_grad(L, W, idx, Z.shape[0], t)
            assert abs(got_loss - loss) <= 1e-13 * abs(loss)
            assert np.abs(got_L - grad_L).max() <= 1e-13 * np.abs(grad_L).max()
            assert np.abs(got_Z - grad_Z).max() <= 1e-13 * np.abs(grad_Z).max()

    def test_embedding_grads_sum_to_zero_per_triplet(self):
        # m depends only on differences, so the three role-gradients cancel
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((3, 4))
        L = rng.standard_normal((4, 2))
        idx = np.array([[0, 1, 2]])
        g = metric.embedding_grad(L, metric.triplet_diffs(Z, idx), idx, 3,
                                  metric.tan2(35.0))
        np.testing.assert_allclose(g.sum(axis=0), np.zeros(4), atol=1e-12)


class TestEmbed:
    def test_identity(self):
        X = np.random.default_rng(0).standard_normal((6, 3))
        assert np.array_equal(ssdml.embed(np.eye(3), X), X)

    def test_contraction_for_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        L = random_stiefel(8, 3, rng)
        V = rng.standard_normal((1000, 8))
        norms_in = np.linalg.norm(V, axis=1)
        norms_out = np.linalg.norm(ssdml.embed(L, V), axis=1)
        assert np.all(norms_out <= norms_in + 1e-12)

    def test_isometry_on_span(self):
        rng = np.random.default_rng(2)
        L = random_stiefel(8, 3, rng)
        C = rng.standard_normal((1000, 3))
        V = C @ L.T  # vectors inside span(L)
        norms_in = np.linalg.norm(V, axis=1)
        norms_out = np.linalg.norm(ssdml.embed(L, V), axis=1)
        assert np.abs(norms_in - norms_out).max() <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-500, max_value=500))
def test_softplus_nonnegative_and_stable(m):
    v = float(metric.softplus(m))
    assert v >= 0.0
    assert np.isfinite(v)
    big = float(metric.softplus(m + 1e-3))
    assert big >= v - 1e-9  # monotone
