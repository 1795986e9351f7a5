"""Clustering and retrieval evaluation of embeddings."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .graph import (KNN_BLOCK_ENTRIES, SCREEN_RTOL, _check_screen, _exact_knn,
                    _pair_sq_dists)

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 100
DEFAULT_RECALL_KS = (1, 2, 4, 8)


@dataclass(frozen=True)
class EvalReport:
    """Clustering quality (nmi in [0, 1]) and retrieval recall percentages."""

    nmi: float
    recall_at: dict

    def as_json_dict(self) -> dict:
        out = {"nmi": round(self.nmi, 4)}
        for k in sorted(self.recall_at):
            out[f"r@{k}"] = round(self.recall_at[k], 1)
        return out


def _sq_dists(Z, centers, r, i, c):
    """Explicit-difference squared distances ||Z[i] - centers[r, c]||^2."""
    R, C, l = centers.shape
    return _pair_sq_dists(Z, i, centers.reshape(R * C, l), r * C + c)


def _choose(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of p, the index Generator.choice(n, p=row) picks when its
    uniform draw is u: the same normalized cumulative-sum search."""
    cdf = p.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)  # searchsorted(u, side="right")


def _sq_dists_to_rows(Z, idx):
    """(R, n) squared distances of every row to row idx[r], summed as
    np.sum((Z - Z[idx[r]]) ** 2, axis=1) does."""
    with np.errstate(over="ignore"):  # _kmeanspp_init rejects an overflow
        diff = Z - Z[idx, None]
        diff *= diff
        return diff.sum(axis=2)


def _kmeanspp_init(Z: np.ndarray, n_clusters: int, rngs) -> np.ndarray:
    """(R, C, l) k-means++ centers, one restart per generator.

    Each restart draws rng.choice(n, p=d2 / d2.sum()) from its own generator
    (see _choose); when all its remaining mass is zero it takes the
    smallest unchosen index instead.
    """
    n = Z.shape[0]
    R = len(rngs)
    runs = np.arange(R)
    chosen = np.empty((R, n_clusters), dtype=np.int64)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    taken = np.zeros((R, n), dtype=bool)
    taken[runs, chosen[:, 0]] = True
    d2 = _sq_dists_to_rows(Z, chosen[:, 0])
    for j in range(1, n_clusters):
        with np.errstate(over="ignore"):  # rejected just below
            total = d2.sum(axis=1)
        draw = np.flatnonzero(total > 0)
        if not np.isfinite(total[draw]).all():
            raise NumericalError("k-means++ seeding: squared distances overflow")
        idx = taken.argmin(axis=1)  # the smallest unchosen index
        if draw.size:
            u = np.array([rngs[r].random() for r in draw])
            idx[draw] = _choose(d2[draw] / total[draw, None], u)
        chosen[:, j] = idx
        taken[runs, idx] = True
        d2 = np.minimum(d2, _sq_dists_to_rows(Z, idx))
    return Z[chosen]


def _nearest(Z, sq, centers):
    """(R, n) index of each row's nearest center, ties to the smaller index.

    One float64 GEMM screen with the relative rounding slack SCREEN_RTOL
    decides which explicit distances can be the smallest; a row with more
    than one such center has them recomputed from explicit differences, so
    the result equals the argmin of the explicit distances.
    Points or centers the screen cannot take raise NumericalError.
    """
    C = centers.shape[1]
    csq = np.einsum("rcj,rcj->rc", centers, centers)
    _check_screen(sq, csq)
    S = centers @ Z.T  # (R, C, n)
    S *= -2.0
    S += sq
    S += csq[..., None]
    slack = SCREEN_RTOL * (sq + csq.max(axis=1)[:, None])
    near = S <= (S.min(axis=1) + 2.0 * slack)[:, None, :]
    S[...] = near  # the screen is done with: reuse it for near as floats
    # per row, the number of centers at or below the bar and their index
    # sum: the nearest center's index wherever the count is 1
    count, best = (np.array([np.ones(C), np.arange(C)]) @ S).transpose(1, 0, 2)
    best = best.astype(np.int64)
    tied = np.flatnonzero(count > 1)
    block = max(1, KNN_BLOCK_ENTRIES // (C * Z.shape[1]))
    for s in range(0, tied.size, block):
        rows = tied[s:s + block]
        r, i = np.divmod(rows, Z.shape[0])
        k, c = np.nonzero(near[r, :, i])
        D = np.full((rows.size, C), np.inf)
        D[k, c] = _sq_dists(Z, centers, r[k], i[k], c)
        best.reshape(-1)[rows] = D.argmin(axis=1)
    return best


def _own_sq_dists(Z, centers, assign):
    """(R, n) explicit squared distance of each row to its assigned center."""
    r, i = np.divmod(np.arange(assign.size), Z.shape[0])
    return _sq_dists(Z, centers, r, i, assign.ravel()).reshape(assign.shape)


def _counts(assign, n_clusters):
    """(R, C) member counts and each row's flat (restart, cluster) bin."""
    R = assign.shape[0]
    bins = (assign + n_clusters * np.arange(R)[:, None]).ravel()
    return np.bincount(bins, minlength=R * n_clusters).reshape(R, n_clusters), bins


def _reseed_empty(Z, centers, assign):
    """In every restart with an empty cluster, each empty cluster in index
    order takes the row farthest from its center (that row's distance
    becomes 0), as a per-restart loop would."""
    counts, _ = _counts(assign, centers.shape[1])
    runs = np.flatnonzero((counts == 0).any(axis=1))
    if not runs.size:
        return
    cen, own, counts = centers[runs], assign[runs], counts[runs]
    dist_to_own = _own_sq_dists(Z, cen, own)
    for c in range(counts.shape[1]):
        empty = np.flatnonzero(counts[:, c] == 0)
        if empty.size:
            far = dist_to_own[empty].argmax(axis=1)
            np.subtract.at(counts, (empty, own[empty, far]), 1)
            counts[empty, c] = 1
            cen[empty, c] = Z[far]
            own[empty, far] = c
            dist_to_own[empty, far] = 0.0
    centers[runs], assign[runs] = cen, own


def _move_to_means(Zt, centers, assign):
    """Move each nonempty cluster's center to its members' mean; Zt is Z.T
    tiled at least R times.

    Each column's sums run over the rows in order, as mean(axis=0) of a
    member matrix does.  A one-column member matrix sums pairwise instead,
    so l = 1 sums each cluster by itself.
    """
    R, n = assign.shape
    C = centers.shape[1]
    counts, bins = _counts(assign, C)
    if Zt.shape[0] == 1:
        sums = np.zeros(R * C)
        for b in np.flatnonzero(counts):
            r, c = divmod(int(b), C)
            sums[b] = Zt[0, :n][assign[r] == c].sum()
    else:
        sums = np.column_stack([np.bincount(bins, weights=col[:R * n], minlength=R * C)
                                for col in Zt])
    filled = counts > 0
    centers[filled] = sums.reshape(R, C, -1)[filled] / counts[filled, None]


def _kmeans_runs(Z, n_clusters: int, seeds):
    """Lloyd's algorithm from k-means++ seeding, all restarts at once.

    Each restart runs until its assignment reaches a fixed point or
    KMEANS_MAX_ITER steps; empty clusters are reseeded to the point farthest
    from its current center.  Returns (assignments (R, n), inertias (R,)).
    """
    Z = np.ascontiguousarray(Z, dtype=np.float64)
    centers = _kmeanspp_init(Z, n_clusters, [np.random.default_rng(int(s)) for s in seeds])
    sq = np.einsum("ij,ij->i", Z, Z)
    Zt = np.tile(Z.T, len(seeds))
    assign = np.full((len(seeds), Z.shape[0]), -1, dtype=np.int64)
    live = np.arange(len(seeds))  # restarts whose assignment still moves
    for _ in range(KMEANS_MAX_ITER):
        cen = centers[live]
        new = _nearest(Z, sq, cen)
        _reseed_empty(Z, cen, new)
        centers[live] = cen
        moved = (new != assign[live]).any(axis=1)
        live, new = live[moved], new[moved]
        if not live.size:
            break
        assign[live] = new
        cen = centers[live]
        _move_to_means(Zt, cen, new)
        centers[live] = cen
    return assign, _own_sq_dists(Z, centers, assign).sum(axis=1)


def _check_kmeans_args(Z, n_clusters, seed) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or 0 in Z.shape:
        raise ConfigError("k-means needs at least one point, as an (n, l) matrix with l >= 1")
    if not np.isfinite(Z).all():
        raise ConfigError("k-means needs finite points (the input holds NaN or inf)")
    if not 1 <= n_clusters <= Z.shape[0]:
        raise ConfigError(f"n_clusters must lie in [1, {Z.shape[0]}] (got {n_clusters})")
    if int(seed) < 0:
        raise ConfigError("seed must be non-negative")
    return Z


def kmeans(Z: np.ndarray, n_clusters: int, seed=0):
    """Lloyd's algorithm with k-means++ seeding.

    Runs until the assignment reaches a fixed point or KMEANS_MAX_ITER; empty
    clusters are reseeded to the point farthest from its current center.
    Returns (assignments, inertia).
    """
    Z = _check_kmeans_args(Z, n_clusters, seed)
    assign, inertia = _kmeans_runs(Z, n_clusters, [seed])
    return assign[0], float(inertia[0])


def kmeans_best(Z, n_clusters, seed=0):
    """Best-inertia assignment over KMEANS_RESTARTS seed-derived restarts
    (the first one on ties)."""
    Z = _check_kmeans_args(Z, n_clusters, seed)
    seeds = np.random.SeedSequence(int(seed)).generate_state(KMEANS_RESTARTS)
    assign, inertia = _kmeans_runs(Z, n_clusters, seeds)
    best_assign, best_inertia = None, np.inf
    for a, i in zip(assign, inertia.tolist()):
        if i < best_inertia:
            best_assign, best_inertia = a, i
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
    if a.size == 0:
        raise ValueError("assignments and labels are empty")
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


def _check_labels(Z, labels) -> np.ndarray:
    """labels as an array, one entry per row of Z, or a ConfigError."""
    y = np.asarray(labels)
    if y.shape != (len(Z),):
        raise ConfigError(f"labels must hold one per row (got {y.size} labels for {len(Z)} rows)")
    return y


def recall_at_k(Z, labels, ks=DEFAULT_RECALL_KS) -> dict:
    """Percentage of points with a same-class neighbor among their K nearest.

    Euclidean distances in embedding space, self excluded, distance ties
    broken toward the smaller index.
    """
    Z = np.asarray(Z, dtype=np.float64)
    y = _check_labels(Z, labels)
    n = Z.shape[0]
    ks = sorted(int(k) for k in ks)
    if not ks or ks[0] < 1 or ks[-1] >= n:
        raise ConfigError(f"recall Ks must lie in [1, n-1] (n={n}, Ks={ks})")
    same = y[_exact_knn(Z, ks[-1])] == y[:, None]
    # hits[k - 1]: points with a same-class neighbor among their k nearest
    hits = np.logical_or.accumulate(same, axis=1).sum(axis=0)
    return {k: 100.0 * int(hits[k - 1]) / n for k in ks}


def evaluate_embeddings(Z, labels, ks=DEFAULT_RECALL_KS, seed=0) -> EvalReport:
    """Full report: NMI of restarted k-means, one cluster per distinct label
    in `labels`, plus Recall@K retrieval."""
    y = _check_labels(Z, labels)
    assign, _ = kmeans_best(Z, np.unique(y).size, seed=seed)
    return EvalReport(
        nmi=nmi(assign, y),
        recall_at=recall_at_k(Z, y, ks=ks),
    )
