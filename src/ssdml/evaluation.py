"""Clustering and retrieval evaluation of embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import _exact_knn

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100
DEFAULT_RECALL_KS = (1, 2, 4, 8)


@dataclass(frozen=True)
class EvalReport:
    """Clustering quality (nmi in [0, 1]) and retrieval recall percentages."""

    nmi: float
    recall_at: dict
    n_test: int

    def as_json_dict(self) -> dict:
        out = {"nmi": round(self.nmi, 4)}
        for k in sorted(self.recall_at):
            out[f"r@{k}"] = round(self.recall_at[k], 1)
        return out


def _sq_dists_to(Z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = Z[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _kmeanspp_init(Z: np.ndarray, n_clusters: int, rng) -> np.ndarray:
    n = Z.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((Z - Z[chosen[0]]) ** 2, axis=1)
    for _ in range(1, n_clusters):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            # all remaining mass is zero: grab the smallest unchosen index
            remaining = np.setdiff1d(np.arange(n), np.array(chosen))
            idx = int(remaining[0])
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((Z - Z[idx]) ** 2, axis=1))
    return Z[chosen].copy()


def kmeans(Z: np.ndarray, n_clusters: int, seed=0):
    """Lloyd's algorithm with k-means++ seeding.

    Runs until the assignment reaches a fixed point or KMEANS_MAX_ITER; empty
    clusters are reseeded to the point farthest from its current center.
    Returns (assignments, inertia).
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = Z.shape[0]
    if n_clusters > n:
        raise ConfigError(f"n_clusters {n_clusters} exceeds point count {n}")
    if int(seed) < 0:
        raise ConfigError("seed must be non-negative")
    rng = np.random.default_rng(int(seed))
    centers = _kmeanspp_init(Z, n_clusters, rng)
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        d2 = _sq_dists_to(Z, centers)
        new_assign = d2.argmin(axis=1)
        dist_to_own = d2[np.arange(n), new_assign]
        for c in range(n_clusters):
            if not np.any(new_assign == c):
                far = int(dist_to_own.argmax())
                centers[c] = Z[far]
                new_assign[far] = c
                dist_to_own[far] = 0.0
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(n_clusters):
            members = Z[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    d2 = _sq_dists_to(Z, centers)
    inertia = float(d2[np.arange(n), assign].sum())
    return assign, inertia


def kmeans_best(Z, n_clusters, seed=0):
    """Best-inertia assignment over KMEANS_RESTARTS seed-derived restarts."""
    if int(seed) < 0:
        raise ConfigError("seed must be non-negative")
    seeds = np.random.SeedSequence(int(seed)).generate_state(KMEANS_RESTARTS)
    best_assign, best_inertia = None, np.inf
    for s in seeds:
        assign, inertia = kmeans(Z, n_clusters, seed=int(s))
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return best_assign, best_inertia


def nmi(assignments, labels) -> float:
    """Mutual information normalized by the mean of the two entropies.

    Natural logs; 0 when the normalizer vanishes or the partitions carry
    no shared information.
    """
    a = np.asarray(assignments).ravel()
    y = np.asarray(labels).ravel()
    if a.shape != y.shape:
        raise ValueError("assignments and labels differ in length")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, yi = np.unique(y, return_inverse=True)
    contingency = np.zeros((ai.max() + 1, yi.max() + 1))
    np.add.at(contingency, (ai, yi), 1.0)
    pa = contingency.sum(axis=1) / n
    py = contingency.sum(axis=0) / n
    pxy = contingency / n
    mask = pxy > 0
    mi = float((pxy[mask] * np.log(pxy[mask] / np.outer(pa, py)[mask])).sum())
    h_a = float(-(pa[pa > 0] * np.log(pa[pa > 0])).sum())
    h_y = float(-(py[py > 0] * np.log(py[py > 0])).sum())
    denom = (h_a + h_y) / 2.0
    if denom <= 0.0 or mi <= 0.0:
        return 0.0
    return mi / denom


def recall_at_k(Z, labels, ks=DEFAULT_RECALL_KS) -> dict:
    """Percentage of points with a same-class neighbor among their K nearest.

    Euclidean distances in embedding space, self excluded, distance ties
    broken toward the smaller index.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = np.asarray(labels)
    n = Z.shape[0]
    ks = sorted(int(k) for k in ks)
    if not ks or ks[0] < 1 or ks[-1] >= n:
        raise ConfigError(f"recall Ks must lie in [1, n-1] (n={n}, Ks={ks})")
    same = y[_exact_knn(Z, ks[-1])] == y[:, None]
    # hits[k - 1]: points with a same-class neighbor among their k nearest
    hits = np.logical_or.accumulate(same, axis=1).sum(axis=0)
    return {k: 100.0 * int(hits[k - 1]) / n for k in ks}


def evaluate_embeddings(Z, labels, n_classes=None, ks=DEFAULT_RECALL_KS,
                        seed=0) -> EvalReport:
    """Full report: NMI of restarted k-means plus Recall@K retrieval."""
    y = np.asarray(labels)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    assign, _ = kmeans_best(Z, n_classes, seed=seed)
    return EvalReport(
        nmi=nmi(assign, y),
        recall_at=recall_at_k(Z, y, ks=ks),
        n_test=len(y),
    )
