"""Central finite-difference verification of every analytic gradient."""

from __future__ import annotations

import numpy as np

from . import baselines as bl
from . import encoder as enc_mod
from . import metric
from .errors import ConfigError

FD_STEP = 1e-6
REL_TOL = 1e-4


def finite_difference_grad(f, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of a scalar function, one coordinate at a time."""
    x = np.array(x, dtype=np.float64)  # private copy; f sees the perturbed array
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        mi = it.multi_index
        orig = x[mi]
        x[mi] = orig + h
        fp = f(x)
        x[mi] = orig - h
        fm = f(x)
        x[mi] = orig
        g[mi] = (fp - fm) / (2.0 * h)
    return g


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
    return d, l, Z, L, idx, alpha


def check_angular_grad_L(seed=0, trials: int = 100) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        _, _, Z, L, idx, alpha = _random_instance(rng)
        _, analytic = metric.loss_and_grad(L, metric.triplet_diffs(Z, idx),
                                           metric.tan2(alpha))
        numeric = finite_difference_grad(
            lambda Lx: metric.angular_loss(Lx, Z, idx, alpha), L)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


def check_angular_grad_embeddings(seed=0, trials: int = 100) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        _, _, Z, L, idx, alpha = _random_instance(rng)
        # formed on the batch's own rows, as in training, then scattered back
        nodes, local = metric.batch_rows(idx)
        W = metric.triplet_diffs(Z[nodes], local)
        analytic = np.zeros_like(Z)
        analytic[nodes] = metric.embedding_grad(L, W, local, nodes.size,
                                                metric.tan2(alpha))
        numeric = finite_difference_grad(
            lambda Zx: metric.angular_loss(L, Zx, idx, alpha), Z)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


def check_encoder_end_to_end(seed=0, trials: int = 100) -> float:
    """Total angular loss as a function of the encoder parameters."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        d_in = int(rng.integers(2, 7))
        d = int(rng.integers(2, 7))
        l = int(rng.integers(1, d + 1))
        n = int(rng.integers(3, 8))
        T = int(rng.integers(1, 5))
        X = rng.standard_normal((n, d_in)) + 0.5  # keep rows away from zero norm
        L = rng.standard_normal((d, l))
        idx = _random_triplets(rng, n, T)
        alpha = float(rng.uniform(15.0, 75.0))
        enc = enc_mod.Encoder(A=rng.standard_normal((d, d_in)),
                              b=rng.standard_normal(d))

        def total_loss(A, b, X=X, L=L, idx=idx, alpha=alpha):
            e = enc_mod.Encoder(A=A, b=b)
            return metric.angular_loss(L, enc_mod.forward(e, X), idx, alpha)

        # the training step: encoder and loss run on the batch's rows only
        nodes, local = metric.batch_rows(idx)
        encoded = enc_mod.forward_pass(enc, X[nodes])
        W = metric.triplet_diffs(encoded[0], local)
        upstream = metric.embedding_grad(L, W, local, nodes.size, metric.tan2(alpha))
        dA, db = enc_mod.backward(enc, X[nodes], upstream, encoded)
        ndA = finite_difference_grad(lambda A: total_loss(A, enc.b), enc.A.copy())
        ndb = finite_difference_grad(lambda b: total_loss(enc.A, b), enc.b.copy())
        # one parameter vector: a translation-invariant loss makes db exactly
        # zero, which would turn the bias-only comparison into pure FD noise
        analytic = np.concatenate([dA.ravel(), db])
        numeric = np.concatenate([ndA.ravel(), ndb])
        worst = max(worst, relative_error(analytic, numeric))
    return worst


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


def check_seraph_grad(seed=0, trials: int = 100) -> float:
    """The L-gradient SERAPH's optimize_L steps follow."""
    rng = np.random.default_rng(seed)
    weights = dict(eta=1.0, mu=0.7, lam=1e-3)
    worst = 0.0
    for _ in range(trials):
        Z, L, lp, y, up = _random_pair_instance(rng)
        U, V = bl.pair_diffs(Z, lp), bl.pair_diffs(Z, up)
        _, analytic = bl.seraph_loss_and_grad(L, U, y, V, **weights)
        numeric = finite_difference_grad(
            lambda Lx: bl.seraph_loss_and_grad(Lx, U, y, V, **weights)[0], L)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


def check_lrml_grad(seed=0, trials: int = 100) -> float:
    """2 G L, G the matrix LRML's closed form decomposes."""
    rng = np.random.default_rng(seed)
    weights = dict(gamma_s=1.0, gamma_d=0.5)
    worst = 0.0
    for _ in range(trials):
        Z, L, lp, y, _ = _random_pair_instance(rng)
        # random symmetric affinity -> valid Laplacian
        n = Z.shape[0]
        W = rng.random((n, n))
        W = (W + W.T) / 2.0
        np.fill_diagonal(W, 0.0)
        Lap = np.diag(W.sum(axis=1)) - W
        quad = Z.T @ Lap @ Z
        U = bl.pair_diffs(Z, lp)
        S, D = U[y > 0], U[y < 0]
        analytic = 2.0 * (bl.lrml_gradient(S, D, quad, **weights) @ L)
        numeric = finite_difference_grad(
            lambda Lx: bl.lrml_objective(Lx, S, D, quad, **weights), L)
        worst = max(worst, relative_error(analytic, numeric))
    return worst


SUITES = {
    "angular_loss_grad_L": check_angular_grad_L,
    "angular_loss_grad_embeddings": check_angular_grad_embeddings,
    "encoder_end_to_end": check_encoder_end_to_end,
    "seraph_grad_L": check_seraph_grad,
    "lrml_grad_L": check_lrml_grad,
}


def run_all(seed=0, trials: int = 100) -> dict:
    """Max relative error per suite, keyed by suite name."""
    if seed < 0:
        raise ConfigError("seed must be non-negative")
    return {name: fn(seed=seed, trials=trials) for name, fn in SUITES.items()}
