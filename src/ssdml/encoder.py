"""Shallow trainable feature map: affine layer with optional l2 output norm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError

MIN_EMBED_NORM = 1e-12


def l2_normalize_rows(Z: np.ndarray) -> np.ndarray:
    """Scale every row to unit norm; near-zero rows are degenerate."""
    Z = np.asarray(Z, dtype=np.float64)
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    if np.any(norms < MIN_EMBED_NORM):
        raise NumericalError("degenerate embedding: a row has (near-)zero norm")
    return Z / norms


@dataclass
class Encoder:
    """z = A x + b, optionally followed by l2 normalization."""

    A: np.ndarray
    b: np.ndarray
    normalize: bool = False

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
    def initial(cls, d_in: int, normalize: bool = False):
        """Identity start: the map begins as a copy of x."""
        return cls(A=np.eye(d_in), b=np.zeros(d_in), normalize=normalize)

    def copy(self) -> "Encoder":
        return Encoder(self.A.copy(), self.b.copy(), self.normalize)


def forward(encoder: Encoder, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != encoder.d_in:
        raise ValueError("input dimension does not match the encoder")
    Z = X @ encoder.A.T + encoder.b
    if encoder.normalize:
        Z = l2_normalize_rows(Z)
    return Z


def backward(encoder: Encoder, X: np.ndarray, upstream: np.ndarray):
    """Gradients (dA, db) of a loss given per-row output gradients.

    Normalization backprops through the Jacobian (I - zhat zhat^T)/||z||
    before hitting the affine layer.
    """
    X = np.asarray(X, dtype=np.float64)
    G = np.asarray(upstream, dtype=np.float64)
    if G.shape != (X.shape[0], encoder.d_out):
        raise ValueError("upstream gradient shape does not match")
    if encoder.normalize:
        P = X @ encoder.A.T + encoder.b
        norms = np.linalg.norm(P, axis=1, keepdims=True)
        if np.any(norms < MIN_EMBED_NORM):
            raise NumericalError("degenerate embedding: a row has (near-)zero norm")
        Zhat = P / norms
        G = (G - Zhat * np.sum(Zhat * G, axis=1, keepdims=True)) / norms
    dA = G.T @ X
    db = G.sum(axis=0)
    return dA, db


def sgd_update(encoder: Encoder, grads, lr: float) -> Encoder:
    """One plain SGD step; returns a new encoder (lr = 0 is a no-op)."""
    if lr < 0:
        raise ConfigError("learning rate must be non-negative")
    dA, db = grads
    return Encoder(encoder.A - lr * dA, encoder.b - lr * db, encoder.normalize)
