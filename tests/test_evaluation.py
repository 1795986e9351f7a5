"""Clustering and retrieval metrics against brute-force references."""

import math
from collections import Counter

import numpy as np
import pytest

import ssdml
from ssdml.errors import ConfigError
from ssdml.evaluation import evaluate_embeddings, kmeans, kmeans_best


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
        assert report.n_test == 20
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
