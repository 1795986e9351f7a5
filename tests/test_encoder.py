"""Affine encoder forward/backward and SGD updates."""

import numpy as np
import pytest

from ssdml import gradcheck
from ssdml.encoder import (Encoder, backward, forward, forward_pass, l2_normalize_rows,
                           sgd_update)
from ssdml.errors import ConfigError, NumericalError


class TestForward:
    def test_normalized_rows_unit_norm(self):
        rng = np.random.default_rng(1)
        enc = Encoder(A=rng.standard_normal((4, 3)), b=rng.standard_normal(4))
        Z = forward(enc, rng.standard_normal((10, 3)) + 2.0)
        assert np.abs(np.linalg.norm(Z, axis=1) - 1.0).max() <= 1e-12

    def test_constant_map_collapses_to_basis_vector(self):
        enc = Encoder(A=np.zeros((3, 2)), b=np.array([1.0, 0.0, 0.0]))
        Z = forward(enc, np.random.default_rng(2).standard_normal((4, 2)))
        assert np.allclose(Z, np.array([1.0, 0.0, 0.0]))

    def test_zero_output_rejected_when_normalizing(self):
        enc = Encoder(A=np.zeros((2, 2)), b=np.zeros(2))
        with pytest.raises(NumericalError, match="degenerate"):
            forward(enc, np.ones((3, 2)))

    def test_identity_padded_init(self):
        enc = Encoder.initial(4)
        assert np.array_equal(enc.A, np.eye(4))
        assert np.array_equal(enc.b, np.zeros(4))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(3)
        enc = Encoder(A=rng.standard_normal((3, 4)), b=rng.standard_normal(3))
        X = rng.standard_normal((6, 4)) + 1.0
        dA, db = backward(enc, X, np.zeros((6, 3)), forward_pass(enc, X))
        assert np.all(dA == 0.0) and np.all(db == 0.0)

    def test_gradients_match_the_per_row_jacobian(self):
        # row i's upstream gradient g goes back through the normalization's
        # Jacobian (I - z z^T) / ||p||, p = A x + b, then the affine layer
        rng = np.random.default_rng(4)
        enc = Encoder(A=rng.standard_normal((3, 4)), b=rng.standard_normal(3))
        X = rng.standard_normal((6, 4)) + 1.0
        upstream = rng.standard_normal((6, 3))
        cache = forward_pass(enc, X)
        assert np.array_equal(cache[0], forward(enc, X))
        want_dA, want_db = np.zeros((3, 4)), np.zeros(3)
        for x, g in zip(X, upstream):
            p = enc.A @ x + enc.b
            z = p / np.linalg.norm(p)
            gp = (np.eye(3) - np.outer(z, z)) @ g / np.linalg.norm(p)
            want_dA += np.outer(gp, x)
            want_db += gp
        dA, db = backward(enc, X, upstream, cache)
        assert np.allclose(dA, want_dA, rtol=1e-12, atol=1e-12)
        assert np.allclose(db, want_db, rtol=1e-12, atol=1e-12)

    def test_end_to_end_finite_differences(self):
        assert gradcheck.check("encoder_end_to_end", seed=5, trials=25) <= 1e-5


class TestSgdUpdate:
    def test_zero_lr_unchanged(self):
        enc = Encoder.initial(3)
        out = sgd_update(enc, (np.ones((3, 3)), np.ones(3)), 0.0)
        assert np.array_equal(out.A, enc.A) and np.array_equal(out.b, enc.b)

    def test_zero_grads_unchanged(self):
        enc = Encoder.initial(3)
        out = sgd_update(enc, (np.zeros((3, 3)), np.zeros(3)), 0.1)
        assert np.array_equal(out.A, enc.A) and np.array_equal(out.b, enc.b)

    def test_step_applies(self):
        enc = Encoder.initial(2)
        dA, db = np.ones((2, 2)), np.ones(2)
        out = sgd_update(enc, (dA, db), 1e-4)
        assert np.allclose(out.A, enc.A - 1e-4 * dA)
        assert np.allclose(out.b, -1e-4 * np.ones(2))

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError):
            sgd_update(Encoder.initial(2), (np.zeros((2, 2)), np.zeros(2)), -0.1)


def test_l2_normalize_rows_rejects_near_zero():
    with pytest.raises(NumericalError):
        l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_row_whose_norm_overflows_is_rejected():
    # ||(1e200, 1e200)|| overflows to inf; dividing by it would give a zero row
    X = np.array([[1e200, 1e200], [1.0, 2.0]])
    enc = Encoder(A=np.eye(2), b=np.zeros(2))
    with np.errstate(all="raise"):  # no overflow warning reaches the caller
        with pytest.raises(NumericalError, match="not finite"):
            l2_normalize_rows(X)
        with pytest.raises(NumericalError, match="not finite"):
            forward_pass(enc, X)
    ok = X[1:]
    assert np.array_equal(l2_normalize_rows(ok), ok / np.linalg.norm(ok, axis=1, keepdims=True))
