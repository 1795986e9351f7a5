"""Clustering and retrieval metrics against brute-force references."""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import ssdml
from ssdml import evaluation
from ssdml.errors import ConfigError, NumericalError
from ssdml.evaluation import (KMEANS_MAX_ITER, KMEANS_RESTARTS, evaluate_embeddings,
                              kmeans, kmeans_best)


def nmi_reference(assignments, labels):
    """Direct-definition NMI with Counter and math.log; no shared code."""
    n = len(labels)
    ca = Counter(assignments)
    cy = Counter(labels)
    cj = Counter(zip(assignments, labels))
    mi = 0.0
    for (a, y), c in cj.items():
        mi += (c / n) * math.log((c / n) / ((ca[a] / n) * (cy[y] / n)))
    ha = -sum((c / n) * math.log(c / n) for c in ca.values())
    hy = -sum((c / n) * math.log(c / n) for c in cy.values())
    denom = (ha + hy) / 2.0
    if denom <= 0.0 or mi <= 0.0:
        return 0.0
    return mi / denom


def recall_reference(Z, labels, ks):
    """Per-query python loop sorted by (distance, index), self excluded."""
    n = len(Z)
    out = {k: 0 for k in ks}
    for i in range(n):
        cand = sorted((float(np.sum((Z[i] - Z[j]) ** 2)), j)
                      for j in range(n) if j != i)
        neighbor_labels = [labels[j] for _, j in cand]
        for k in ks:
            if any(l == labels[i] for l in neighbor_labels[:k]):
                out[k] += 1
    return {k: 100.0 * v / n for k, v in out.items()}


# The one-restart-at-a-time k-means that the batched kernel replaced, kept
# verbatim (names aside) as the bit-exact reference.

def _reference_sq_dists_to(Z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = Z[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _reference_kmeanspp_init(Z: np.ndarray, n_clusters: int, rng) -> np.ndarray:
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


def reference_kmeans(Z: np.ndarray, n_clusters: int, seed=0):
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
    centers = _reference_kmeanspp_init(Z, n_clusters, rng)
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        d2 = _reference_sq_dists_to(Z, centers)
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
    d2 = _reference_sq_dists_to(Z, centers)
    inertia = float(d2[np.arange(n), assign].sum())
    return assign, inertia


def reference_kmeans_best(Z, n_clusters, seed=0):
    """Best-inertia assignment over KMEANS_RESTARTS seed-derived restarts."""
    if int(seed) < 0:
        raise ConfigError("seed must be non-negative")
    seeds = np.random.SeedSequence(int(seed)).generate_state(KMEANS_RESTARTS)
    best_assign, best_inertia = None, np.inf
    for s in seeds:
        assign, inertia = reference_kmeans(Z, n_clusters, seed=int(s))
        if inertia < best_inertia:
            best_assign, best_inertia = assign, inertia
    return best_assign, best_inertia


KMEANS_CASES = ("gaussian", "rounded", "duplicated", "zero_rows", "all_zero",
                "one_column", "offset")


def kmeans_instance(rng, case):
    """(Z, n_clusters) of one kind; n_clusters is 1, n or in between."""
    # duplicated rows keep reseeding emptied clusters to the step limit: fewer rows
    n = int(rng.integers(1, 30 if case == "duplicated" else 60))
    l = 1 if case == "one_column" else int(rng.integers(1, 6))
    if case == "rounded":  # coarse grid: duplicates and exact distance ties
        Z = np.round(2.0 * rng.standard_normal((n, l))) / 2.0
    elif case == "duplicated":  # few distinct rows: identical centers, empty clusters
        Z = rng.standard_normal((int(rng.integers(1, 5)), l))
        Z = Z[rng.integers(0, len(Z), size=n)]
    elif case == "zero_rows":
        Z = rng.standard_normal((n, l))
        Z[rng.random(n) < 0.5] = 0.0
    elif case == "all_zero":
        Z = np.zeros((n, l))
    elif case == "offset":  # large common offset: the screen's slack matters
        Z = 1e6 + 1e-3 * np.round(rng.standard_normal((n, l)), 1)
    else:
        Z = rng.standard_normal((n, l))
    pick = int(rng.integers(3))
    n_clusters = 1 if pick == 0 else n if pick == 1 else int(rng.integers(1, n + 1))
    return Z, n_clusters


class TestKmeansMatchesReference:
    """The batched kernel against the one-restart-at-a-time reference."""

    @pytest.mark.parametrize("case", KMEANS_CASES)
    def test_bit_identical_on_random_instances(self, case, monkeypatch):
        had_empty = []
        reseed = evaluation._reseed_empty

        def spy(Z, centers, assign):
            n_clusters = centers.shape[1]
            had_empty.append(any(np.unique(a).size < n_clusters for a in assign))
            reseed(Z, centers, assign)

        monkeypatch.setattr(evaluation, "_reseed_empty", spy)
        rng = np.random.default_rng(KMEANS_CASES.index(case))
        for _ in range(30):
            Z, n_clusters = kmeans_instance(rng, case)
            seed = int(rng.integers(2**32))
            a, i = kmeans(Z, n_clusters, seed=seed)
            ra, ri = reference_kmeans(Z, n_clusters, seed=seed)
            assert np.array_equal(a, ra) and i == ri
            a, i = kmeans_best(Z, n_clusters, seed=seed)
            ra, ri = reference_kmeans_best(Z, n_clusters, seed=seed)
            assert np.array_equal(a, ra) and i == ri
        if case in ("duplicated", "all_zero"):
            assert any(had_empty)  # clusters went empty and were reseeded

    def test_blobs_past_the_screen(self):
        rng = np.random.default_rng(12)
        for n, l, C in ((300, 16, 10), (200, 2, 25), (150, 40, 3)):
            Z = rng.standard_normal((n, l)) + 3.0 * rng.integers(0, 4, size=(n, 1))
            for seed in (0, 5):
                a, i = kmeans_best(Z, C, seed=seed)
                ra, ri = reference_kmeans_best(Z, C, seed=seed)
                assert np.array_equal(a, ra) and i == ri

    def test_unsafe_screen_is_refused(self):
        # ||z||^2 near the float64 limit: k-means++ seeding stays finite, but
        # the inner-product screen would overflow, so the first assignment
        # step refuses the points
        rng = np.random.default_rng(13)
        Z = 8e153 * (1.0 + 1e-3 * rng.standard_normal((40, 1)))
        for C in (1, 3, 7):
            with pytest.raises(NumericalError, match="distance screen"):
                kmeans_best(Z, C, seed=C)

    def test_seeding_matches_reference(self):
        rng = np.random.default_rng(18)
        for case in KMEANS_CASES * 6:
            Z, n_clusters = kmeans_instance(rng, case)
            seeds = rng.integers(2**32, size=4)
            got = evaluation._kmeanspp_init(Z, n_clusters,
                                            [np.random.default_rng(s) for s in seeds])
            for centers, s in zip(got, seeds):
                want = _reference_kmeanspp_init(Z, n_clusters, np.random.default_rng(s))
                assert np.array_equal(centers, want)

    def test_reseeding_matches_reference_loop(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n, l = int(rng.integers(2, 25)), int(rng.integers(1, 4))
            C = int(rng.integers(2, n + 1))
            Z = np.round(rng.standard_normal((n, l)), 1)
            # half the centers near rows, the rest far away: empty clusters,
            # and rows alone in a cluster far from its center
            near_rows = Z[rng.integers(n, size=(3, C))] + 0.5 * rng.standard_normal((3, C, l))
            centers = np.where(rng.random((3, C, 1)) < 0.5, near_rows,
                               50.0 * rng.standard_normal((3, C, l)))
            assign = np.stack([_reference_sq_dists_to(Z, c).argmin(axis=1) for c in centers])
            want_centers, want_assign = centers.copy(), assign.copy()
            for cen, new_assign in zip(want_centers, want_assign):
                dist_to_own = _reference_sq_dists_to(Z, cen)[np.arange(n), new_assign]
                for c in range(C):  # the reference's loop
                    if not np.any(new_assign == c):
                        far = int(dist_to_own.argmax())
                        cen[c] = Z[far]
                        new_assign[far] = c
                        dist_to_own[far] = 0.0
            evaluation._reseed_empty(Z, centers, assign)
            assert np.array_equal(centers, want_centers)
            assert np.array_equal(assign, want_assign)

    def test_overflowing_seeding_raises_like_the_reference(self):
        Z = np.random.default_rng(15).standard_normal((12, 3))
        Z[3] = 1e155
        with pytest.raises(ValueError), np.errstate(all="ignore"):
            reference_kmeans(Z, 4, seed=1)
        with pytest.raises(NumericalError):
            kmeans(Z, 4, seed=1)

    def test_choose_matches_generator_choice(self):
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(1, 50))
            p = rng.random(n) * (rng.random(n) < 0.6)
            p[int(rng.integers(n))] += 1e-3  # at least one nonzero entry
            p /= p.sum()
            seeds = rng.integers(2**32, size=3)
            u = np.array([np.random.default_rng(s).random() for s in seeds])
            got = evaluation._choose(np.tile(p, (3, 1)), u)
            want = [np.random.default_rng(s).choice(n, p=p) for s in seeds]
            assert got.tolist() == want

    def test_scratch_stays_a_few_restart_blocks(self):
        n, l, C = 4000, 16, 10
        Z = np.random.default_rng(17).standard_normal((n, l))
        tracemalloc.start()
        try:
            kmeans_best(Z, C, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * KMEANS_RESTARTS * n * max(C, l) * 8


class TestKmeans:
    def test_one_cluster_per_point(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((6, 2))
        assign, inertia = kmeans(Z, 6, seed=1)
        assert len(set(assign.tolist())) == 6
        assert inertia == pytest.approx(0.0, abs=1e-24)

    def test_two_separated_pairs(self):
        Z = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        assign, _ = kmeans(Z, 2, seed=0)
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert assign[0] != assign[2]

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((40, 3))
        a1, i1 = kmeans(Z, 5, seed=9)
        a2, i2 = kmeans(Z, 5, seed=9)
        assert np.array_equal(a1, a2) and i1 == i2

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ConfigError):
            kmeans(np.zeros((3, 2)), 4)

    @pytest.mark.parametrize("fn", [kmeans, kmeans_best])
    @pytest.mark.parametrize("n_clusters", [0, -1])
    def test_fewer_than_one_cluster_rejected(self, fn, n_clusters):
        with pytest.raises(ConfigError, match="n_clusters"):
            fn(np.ones((3, 2)), n_clusters)

    @pytest.mark.parametrize("fn", [kmeans, kmeans_best])
    @pytest.mark.parametrize("n_clusters", [0, 1])
    def test_empty_input_rejected(self, fn, n_clusters):
        with pytest.raises(ConfigError, match="at least one point"):
            fn(np.zeros((0, 2)), n_clusters)

    def test_non_finite_points_rejected(self):
        # a NaN makes every restart's inertia NaN, so kmeans_best would have
        # no restart to return and evaluate_embeddings would fail inside nmi
        for bad in (np.nan, np.inf, -np.inf):
            Z = np.random.default_rng(14).standard_normal((12, 3))
            Z[5, 1] = bad
            for fn in (lambda: kmeans(Z, 3), lambda: kmeans_best(Z, 3),
                       lambda: evaluate_embeddings(Z, np.arange(12) % 3)):
                with pytest.raises(ConfigError, match="finite points"):
                    fn()

    def test_restarts_never_worse(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((50, 2))
        _, single = kmeans(Z, 6, seed=int(np.random.SeedSequence(7).generate_state(1)[0]))
        _, best = kmeans_best(Z, 6, seed=7)
        assert best <= single + 1e-12


class TestNmi:
    def test_equal_partitions_give_one(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        assert ssdml.nmi(y, y) == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        relabeled = np.array([2, 2, 0, 0, 1, 1])
        assert ssdml.nmi(relabeled, y) == pytest.approx(1.0, abs=1e-12)

    def test_single_cluster_vs_balanced_labels(self):
        assert ssdml.nmi(np.zeros(8, dtype=int), np.array([0, 1] * 4)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ssdml.nmi([0, 1], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ssdml.nmi([], [])

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            a = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n)
            y = rng.integers(0, int(rng.integers(1, 8)) + 1, size=n)
            got = ssdml.nmi(a, y)
            want = nmi_reference(a.tolist(), y.tolist())
            assert got == pytest.approx(want, abs=1e-12)
            assert -1e-12 <= got <= 1.0 + 1e-12


class TestRecallAtK:
    def test_coincident_same_class_pairs(self):
        Z = np.array([[0.0], [0.0], [5.0], [5.0]])
        y = np.array([0, 0, 1, 1])
        assert ssdml.recall_at_k(Z, y, ks=(1,))[1] == 100.0

    def test_alternating_line_hand_table(self):
        # classes 0,1,0,1 at x = 0,1,2,3: every nearest neighbor (ties to
        # the smaller index) has the other class, so R@1 = 0
        Z = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        r = ssdml.recall_at_k(Z, y, ks=(1, 2, 3))
        assert r[1] == 0.0
        assert r[3] == 100.0  # every class has >= 2 members

    def test_full_horizon_is_total_recall(self):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((20, 2))
        y = np.array([0, 1] * 10)
        assert ssdml.recall_at_k(Z, y, ks=(19,))[19] == 100.0

    def test_k_bounds_enforced(self):
        with pytest.raises(ConfigError):
            ssdml.recall_at_k(np.zeros((3, 1)), [0, 0, 1], ks=(3,))

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 120))
            Z = rng.standard_normal((n, int(rng.integers(1, 4))))
            y = rng.integers(0, 3, size=n)
            ks = sorted(set(int(k) for k in rng.integers(1, n, size=3)))
            got = ssdml.recall_at_k(Z, y, ks=ks)
            want = recall_reference(Z, y.tolist(), ks)
            for k in ks:
                assert got[k] == pytest.approx(want[k], abs=1e-12)

    @pytest.mark.parametrize("case", ["duplicates", "grid", "offset", "k_n_minus_1", "two"])
    def test_kernel_edge_cases_match_reference(self, case):
        rng = np.random.default_rng(11)
        if case == "duplicates":
            Z, ks = np.zeros((30, 2)), (1, 2, 4, 29)
        elif case == "grid":
            Z = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
            ks = (1, 3, 4, 8)
        elif case == "offset":
            Z, ks = 1e-2 * rng.standard_normal((40, 2)) + 1e6, (1, 2, 5)
        elif case == "k_n_minus_1":
            Z, ks = rng.integers(0, 2, size=(15, 2)).astype(float), (1, 14)
        else:
            Z, ks = np.array([[0.0], [0.0]]), (1,)
        y = rng.integers(0, 3, size=len(Z))
        got = ssdml.recall_at_k(Z, y, ks=ks)
        want = recall_reference(Z, y.tolist(), ks)
        assert got == want

    def test_monotone_in_k(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 60))
            Z = rng.standard_normal((n, 2))
            y = rng.integers(0, 4, size=n)
            r = ssdml.recall_at_k(Z, y, ks=range(1, n))
            vals = [r[k] for k in range(1, n)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestEvaluateEmbeddings:
    def test_report_fields_and_json_keys(self):
        rng = np.random.default_rng(8)
        Z = np.vstack([rng.standard_normal((10, 2)),
                       rng.standard_normal((10, 2)) + 8.0])
        y = np.array([0] * 10 + [1] * 10)
        report = evaluate_embeddings(Z, y, ks=(1, 2, 4, 8), seed=0)
        assert 0.0 <= report.nmi <= 1.0 + 1e-12
        assert list(report.as_json_dict()) == ["nmi", "r@1", "r@2", "r@4", "r@8"]

    def test_separated_clusters_score_high(self):
        rng = np.random.default_rng(9)
        Z = np.vstack([rng.standard_normal((15, 3)) + 20.0 * np.eye(3)[c]
                       for c in range(3)])
        y = np.repeat(np.arange(3), 15)
        report = evaluate_embeddings(Z, y, seed=3)
        assert report.nmi > 0.95
        assert report.recall_at[1] == 100.0


@pytest.mark.parametrize("fn", [ssdml.recall_at_k, evaluate_embeddings],
                         ids=["recall", "evaluate"])
@pytest.mark.parametrize("n_labels", [11, 13], ids=["short", "long"])
def test_labels_of_another_length_rejected(fn, n_labels):
    Z = np.random.default_rng(16).standard_normal((12, 2))
    with pytest.raises(ConfigError, match=f"got {n_labels} labels for 12 rows"):
        fn(Z, np.arange(n_labels) % 3, ks=(1,))
