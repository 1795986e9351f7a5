"""Shallow trainable feature map: an affine layer with l2-normalized output."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

MIN_EMBED_NORM = 1e-12


def _row_norms(Z: np.ndarray) -> np.ndarray:
    """Column of row norms; a near-zero or non-finite norm is degenerate.

    A row whose norm overflows would otherwise normalize to all zeros.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(Z, axis=1, keepdims=True)
    if np.any(norms < MIN_EMBED_NORM):
        raise NumericalError("degenerate embedding: a row has (near-)zero norm")
    if not np.isfinite(norms).all():
        raise NumericalError("degenerate embedding: a row norm is not finite")
    return norms


def l2_normalize_rows(Z: np.ndarray) -> np.ndarray:
    """Scale every row to unit norm; near-zero rows and rows whose norm
    overflows are degenerate."""
    Z = np.asarray(Z, dtype=np.float64)
    return Z / _row_norms(Z)


@dataclass
class Encoder:
    """z = (A x + b) / ||A x + b||."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.A.ndim != 2 or self.b.shape != (self.A.shape[0],):
            raise ValueError("A must be (d, d_in) and b must be (d,)")

    @property
    def d_in(self) -> int:
        return self.A.shape[1]

    @property
    def d_out(self) -> int:
        return self.A.shape[0]

    @classmethod
    def initial(cls, d_in: int):
        """Identity start: the map begins as x / ||x||."""
        return cls(A=np.eye(d_in), b=np.zeros(d_in))

    def copy(self) -> "Encoder":
        return Encoder(self.A.copy(), self.b.copy())


def forward_pass(encoder: Encoder, X: np.ndarray):
    """(Z, norms): the output rows and the (n, 1) norms of A x + b they were
    divided by, which backward() reuses."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != encoder.d_in:
        raise ValueError("input dimension does not match the encoder")
    P = X @ encoder.A.T + encoder.b
    norms = _row_norms(P)
    return P / norms, norms


def forward(encoder: Encoder, X: np.ndarray) -> np.ndarray:
    return forward_pass(encoder, X)[0]


def backward(encoder: Encoder, X: np.ndarray, upstream: np.ndarray, cache):
    """Gradients (dA, db) of a loss given per-row output gradients.

    Normalization backprops through the Jacobian (I - zhat zhat^T)/||z||
    before hitting the affine layer.  `cache` is the forward_pass() of the
    same encoder on X.
    """
    X = np.asarray(X, dtype=np.float64)
    G = np.asarray(upstream, dtype=np.float64)
    if G.shape != (X.shape[0], encoder.d_out):
        raise ValueError("upstream gradient shape does not match")
    Zhat, norms = cache
    G = (G - Zhat * np.sum(Zhat * G, axis=1, keepdims=True)) / norms
    dA = G.T @ X
    db = G.sum(axis=0)
    return dA, db


def sgd_update(encoder: Encoder, grads, lr: float) -> Encoder:
    """One plain SGD step; returns a new encoder (lr = 0 is a no-op)."""
    if lr < 0:
        raise ConfigError("learning rate must be non-negative")
    dA, db = grads
    return Encoder(encoder.A - lr * dA, encoder.b - lr * db)
