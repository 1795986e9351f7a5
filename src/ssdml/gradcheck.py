"""Central finite-difference verification of every analytic gradient.

Each suite is a case function, case(rng) -> (analytic, numeric), that draws
one random instance from rng.  `check` draws a suite's cases from one
generator and reports the largest relative error.
"""

from __future__ import annotations

import numpy as np

from . import baselines as bl
from . import encoder as enc_mod
from . import metric
from .errors import ConfigError
from .graph import laplacian

FD_STEP = 1e-6
REL_TOL = 1e-4


def finite_difference_grad(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of a scalar function, one coordinate at a time."""
    x = np.array(x, dtype=np.float64, order="C")  # private copy; f sees the perturbed array
    flat, g = x.reshape(-1), np.empty(x.size)
    for i, orig in enumerate(flat):  # each coordinate is restored before the next is read
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g.reshape(x.shape)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(numeric)), 1e-12)
    return float(np.linalg.norm(analytic - numeric)) / denom


def _random_triplets(rng, n: int, T: int) -> np.ndarray:
    # anchor/positive/negative are always distinct nodes
    return np.array([rng.choice(n, size=3, replace=False) for _ in range(T)])


def _random_instance(rng, max_d: int = 10, max_triplets: int = 6):
    d = int(rng.integers(2, max_d + 1))
    l = int(rng.integers(1, d + 1))
    n = int(rng.integers(3, 9))
    T = int(rng.integers(1, max_triplets + 1))
    Z = rng.standard_normal((n, d))
    L = rng.standard_normal((d, l))
    idx = _random_triplets(rng, n, T)
    alpha = float(rng.uniform(15.0, 75.0))
    return Z, L, idx, alpha


def _angular_grad_L(rng):
    Z, L, idx, alpha = _random_instance(rng)
    _, analytic = metric.loss_and_grad(L, metric.triplet_diffs(Z, idx), metric.tan2(alpha))
    return analytic, finite_difference_grad(
        lambda Lx: metric.angular_loss(Lx, Z, idx, alpha), L)


def _angular_grad_embeddings(rng):
    Z, L, idx, alpha = _random_instance(rng)
    # formed on the batch's own rows, as in training, then scattered back
    nodes, local = metric.batch_rows(idx)
    W = metric.triplet_diffs(Z[nodes], local)
    analytic = np.zeros_like(Z)
    analytic[nodes] = metric.embedding_grad(L, W, local, nodes.size, metric.tan2(alpha))
    return analytic, finite_difference_grad(
        lambda Zx: metric.angular_loss(L, Zx, idx, alpha), Z)


def _encoder_end_to_end(rng):
    """Total angular loss as a function of the encoder parameters."""
    d_in = int(rng.integers(2, 7))
    d = int(rng.integers(2, 7))
    l = int(rng.integers(1, d + 1))
    n = int(rng.integers(3, 8))
    T = int(rng.integers(1, 5))
    X = rng.standard_normal((n, d_in)) + 0.5  # keep rows away from zero norm
    L = rng.standard_normal((d, l))
    idx = _random_triplets(rng, n, T)
    alpha = float(rng.uniform(15.0, 75.0))
    enc = enc_mod.Encoder(A=rng.standard_normal((d, d_in)), b=rng.standard_normal(d))

    def total_loss(A, b):
        return metric.angular_loss(L, enc_mod.forward(enc_mod.Encoder(A=A, b=b), X), idx, alpha)

    # the training step: encoder and loss run on the batch's rows only
    nodes, local = metric.batch_rows(idx)
    encoded = enc_mod.forward_pass(enc, X[nodes])
    W = metric.triplet_diffs(encoded[0], local)
    upstream = metric.embedding_grad(L, W, local, nodes.size, metric.tan2(alpha))
    dA, db = enc_mod.backward(enc, X[nodes], upstream, encoded)
    ndA = finite_difference_grad(lambda A: total_loss(A, enc.b), enc.A)
    ndb = finite_difference_grad(lambda b: total_loss(enc.A, b), enc.b)
    # one parameter vector: a translation-invariant loss makes db exactly
    # zero, which would turn the bias-only comparison into pure FD noise
    return np.concatenate([dA.ravel(), db]), np.concatenate([ndA.ravel(), ndb])


def _random_pair_instance(rng, max_d: int = 6):
    d = int(rng.integers(2, max_d + 1))
    l = int(rng.integers(1, d + 1))
    n = int(rng.integers(4, 9))
    Z = rng.standard_normal((n, d))
    L = rng.standard_normal((d, l)) / np.sqrt(d)
    n_lab = int(rng.integers(1, 5))
    n_unlab = int(rng.integers(1, 5))
    lp = rng.integers(0, n, size=(n_lab, 2))
    up = rng.integers(0, n, size=(n_unlab, 2))
    y = rng.choice([-1, 1], size=n_lab)
    return Z, L, lp, y, up


def _seraph_grad_L(rng):
    """The L-gradient SERAPH's optimize_L steps follow."""
    weights = dict(eta=1.0, mu=0.7)
    Z, L, lp, y, up = _random_pair_instance(rng)
    U, V = bl.pair_diffs(Z, lp), bl.pair_diffs(Z, up)
    _, analytic = bl.seraph_loss_and_grad(L, U, y, V, **weights)
    return analytic, finite_difference_grad(
        lambda Lx: bl.seraph_loss_and_grad(Lx, U, y, V, **weights)[0], L)


def _lrml_grad_L(rng):
    """2 G L, G the matrix LRML's closed form decomposes."""
    weights = dict(gamma_s=1.0, gamma_d=0.5)
    Z, L, lp, y, _ = _random_pair_instance(rng)
    # random symmetric affinity -> valid Laplacian
    n = Z.shape[0]
    W = rng.random((n, n))
    W = (W + W.T) / 2.0
    np.fill_diagonal(W, 0.0)
    quad = Z.T @ laplacian(W) @ Z
    U = bl.pair_diffs(Z, lp)
    S, D = U[y > 0], U[y < 0]
    analytic = 2.0 * (bl.lrml_gradient(S, D, quad, **weights) @ L)
    return analytic, finite_difference_grad(
        lambda Lx: bl.lrml_objective(Lx, S, D, quad, **weights), L)


SUITES = {
    "angular_loss_grad_L": _angular_grad_L,
    "angular_loss_grad_embeddings": _angular_grad_embeddings,
    "encoder_end_to_end": _encoder_end_to_end,
    "seraph_grad_L": _seraph_grad_L,
    "lrml_grad_L": _lrml_grad_L,
}


def check(suite: str, seed=0, trials: int = 100) -> float:
    """Largest relative error over `trials` cases of the named suite, all
    drawn from np.random.default_rng(seed); NaN if any case reads NaN."""
    case, rng = SUITES[suite], np.random.default_rng(seed)
    errors = [relative_error(*case(rng)) for _ in range(trials)]
    return float(np.max(errors, initial=0.0))


def run_all(seed=0, trials: int = 100) -> dict:
    """Max relative error per suite, keyed by suite name."""
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    return {name: check(name, seed, trials) for name in SUITES}
