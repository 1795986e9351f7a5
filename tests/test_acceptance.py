"""Acceptance suite: one test per release criterion, stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 8 (the end-to-end synthetic benchmark) is implemented
exactly as specified and is expected to fail on principle at the prescribed
noise level; scripts/run_synthetic_benchmark.py --diagnostics prints the
pipeline statistics behind that outcome.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

import ssdml
from ssdml import evaluation, gradcheck, metric
from ssdml.data import split_validation
from ssdml.manifold import (optimize_L, orthonormality_error, random_stiefel)
from ssdml.propagation import propagate_direct, propagate_iterative
from ssdml.trainer import TrainConfig, train


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} — {detail}")


# ----------------------------------------------------------------------
# criterion 1: propagation oracle equivalence
# ----------------------------------------------------------------------

def test_criterion_1_propagation_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(10, 201))
        k = int(rng.integers(2, 11))
        gamma = float(rng.choice([0.5, 0.9, 0.99]))
        Z = rng.standard_normal((n, 3))
        labels = rng.integers(-1, 4, size=n)
        Q = ssdml.neighbor_matrix(ssdml.build_knn(Z, min(k, n - 1)))
        W0 = ssdml.seed_affinity(labels)
        direct = propagate_direct(Q, W0, gamma)
        iterative, _ = propagate_iterative(Q, W0, gamma, tol=1e-10,
                                           max_iter=100_000)
        worst = max(worst, float(np.abs(direct - iterative).max()))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, ok, f"50 instances, max |direct - iterative| = {worst:.2e}, "
                  f"{elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# criterion 2: gradient suites vs central finite differences
# ----------------------------------------------------------------------

def test_criterion_2_gradient_suites():
    t0 = time.monotonic()
    errors = gradcheck.run_all(seed=202, trials=100)
    elapsed = time.monotonic() - t0
    worst = max(errors.values())
    ok = worst <= 1e-4 and elapsed < 30.0
    detail = ", ".join(f"{k}={v:.1e}" for k, v in errors.items())
    report(2, ok, f"{detail}, {elapsed:.1f}s")
    assert worst <= 1e-4, errors
    assert elapsed < 30.0


# ----------------------------------------------------------------------
# criterion 3: orthogonality preservation over 1000 optimizer steps
# ----------------------------------------------------------------------

def test_criterion_3_orthogonality_preservation():
    rng = np.random.default_rng(303)
    steps = 0
    worst_orth = 0.0
    worst_increase = -np.inf
    starts = 0
    while steps < 1000 and starts < 200:
        starts += 1
        B = rng.standard_normal((8, 8))
        S = B @ B.T

        def fun_and_grad(L, S=S):
            SL = S @ L
            return -float(np.sum(L * SL)), -2.0 * SL

        iterates = []
        res = optimize_L(random_stiefel(8, 3, rng), fun_and_grad,
                         max_iter=100,
                         callback=lambda L, J: iterates.append(L))
        for L in iterates:
            worst_orth = max(worst_orth, orthonormality_error(L))
        for a, b in zip(res.objectives, res.objectives[1:]):
            worst_increase = max(worst_increase, b - a)
        steps += res.n_iter
    ok = steps >= 1000 and worst_orth <= 1e-8 and worst_increase <= 1e-12
    report(3, ok, f"{steps} accepted steps over {starts} starts, "
                  f"max ||L^T L - I|| = {worst_orth:.2e}, "
                  f"max objective increase = {worst_increase:.2e}")
    assert steps >= 1000
    assert worst_orth <= 1e-8
    assert worst_increase <= 1e-12


# ----------------------------------------------------------------------
# criterion 4: Laplacian quadratic-form identity
# ----------------------------------------------------------------------

def test_criterion_4_laplacian_identity():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 15))
        d = int(rng.integers(2, 7))
        Z = rng.standard_normal((n, d))
        B = rng.standard_normal((d, d))
        M = B @ B.T
        W = rng.random((n, n))
        W = (W + W.T) / 2
        np.fill_diagonal(W, 0.0)
        Lap = ssdml.laplacian(W)
        lhs = float(np.trace(M @ (Z.T @ Lap @ Z)))
        rhs = 0.0
        for i in range(n):
            for j in range(n):
                u = Z[i] - Z[j]
                rhs += W[i, j] * float(u @ M @ u)
        rhs /= 2.0
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    ok = worst <= 1e-9
    report(4, ok, f"50 instances, max relative gap = {worst:.2e}")
    assert worst <= 1e-9


# ----------------------------------------------------------------------
# criterion 5: mining matches brute-force construction exactly
# ----------------------------------------------------------------------

def test_criterion_5_mining_oracle():
    rng = np.random.default_rng(505)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(5, 101))
        k = 2 * int(rng.integers(1, 11))
        if k >= n:
            k = (n - 1) // 2 * 2
        if k < 2:
            continue
        Z = rng.standard_normal((n, 2))
        graph = ssdml.build_knn(Z, k)
        W = rng.standard_normal((n, n))
        got = [tuple(t) for t in ssdml.mine_triplets(W, graph).tolist()]
        want = []
        for a in range(n):
            nbrs = sorted(graph.neighbors[a].tolist(),
                          key=lambda j: (-W[a][j], j))
            for i in range(k // 2):
                want.append((a, nbrs[i], nbrs[k // 2 + i]))
        assert got == want
        checked += 1
    ok = checked == 100
    report(5, ok, f"{checked}/100 random graphs matched exactly")
    assert checked == 100


# ----------------------------------------------------------------------
# criterion 6: evaluation metrics vs brute-force references
# ----------------------------------------------------------------------

def _nmi_reference(assignments, labels):
    n = len(labels)
    ca, cy = Counter(assignments), Counter(labels)
    cj = Counter(zip(assignments, labels))
    mi = sum((c / n) * math.log((c / n) / ((ca[a] / n) * (cy[y] / n)))
             for (a, y), c in cj.items())
    ha = -sum((c / n) * math.log(c / n) for c in ca.values())
    hy = -sum((c / n) * math.log(c / n) for c in cy.values())
    denom = (ha + hy) / 2.0
    return 0.0 if denom <= 0.0 or mi <= 0.0 else mi / denom


def _recall_reference(Z, labels, ks):
    n = len(Z)
    out = {k: 0 for k in ks}
    for i in range(n):
        cand = sorted((float(np.sum((Z[i] - Z[j]) ** 2)), j)
                      for j in range(n) if j != i)
        lab = [labels[j] for _, j in cand]
        for k in ks:
            out[k] += any(l == labels[i] for l in lab[:k])
    return {k: 100.0 * v / n for k, v in out.items()}


def test_criterion_6_eval_oracles():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 201))
        a = rng.integers(0, int(rng.integers(2, 7)), size=n)
        y = rng.integers(0, int(rng.integers(2, 7)), size=n)
        got = ssdml.nmi(a, y)
        worst = max(worst, abs(got - _nmi_reference(a.tolist(), y.tolist())))
        # permutation invariance
        perm = rng.permutation(int(a.max()) + 1)
        assert abs(ssdml.nmi(perm[a], y) - got) <= 1e-12

        Z = rng.standard_normal((n, 2))
        ks = sorted(set(int(v) for v in rng.integers(1, n, size=3)))
        r = ssdml.recall_at_k(Z, y, ks=ks)
        ref = _recall_reference(Z, y.tolist(), ks)
        for k in ks:
            worst = max(worst, abs(r[k] - ref[k]))
        vals = [r[k] for k in ks]
        assert all(b >= a2 for a2, b in zip(vals, vals[1:]))  # monotone
    ok = worst <= 1e-12
    report(6, ok, f"100 instances, max |impl - reference| = {worst:.2e}")
    assert worst <= 1e-12


# ----------------------------------------------------------------------
# criterion 7: Stiefel quadratic benchmark vs eigendecomposition oracle
# ----------------------------------------------------------------------

def test_criterion_7_stiefel_quadratic_benchmark():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(3, 11))
        l = int(rng.integers(1, d))
        B = rng.standard_normal((d, d))
        S = B @ B.T

        def fun_and_grad(L, S=S):
            SL = S @ L
            return -float(np.sum(L * SL)), -2.0 * SL

        res = optimize_L(random_stiefel(d, l, rng), fun_and_grad, max_iter=500)
        target = -float(np.sort(np.linalg.eigvalsh(S))[::-1][:l].sum())
        worst = max(worst, res.objective - target)
    ok = worst <= 1e-6
    report(7, ok, f"20 instances, max gap to top-l eigenvalue sum = {worst:.2e}")
    assert worst <= 1e-6


# ----------------------------------------------------------------------
# criteria 8-10 share the expensive synthetic trainings
# ----------------------------------------------------------------------

BENCH_SEEDS = (0, 1, 2)


def _benchmark_dataset(seed):
    blobs = ssdml.make_blobs(10, 200, 5, 45, 6.0, 4.0, seed=seed)
    return ssdml.strip_labels(blobs, 10, seed=seed)


@pytest.fixture(scope="module")
def synthetic_runs():
    runs = {"train_seconds": 0.0}
    for seed in BENCH_SEEDS:
        semi = _benchmark_dataset(seed)
        state = np.random.SeedSequence(seed).generate_state(4)
        _, val = split_validation(semi, TrainConfig().val_fraction,
                                  int(state[0]))
        oracle_r1 = evaluation.recall_at_k(val.features, val.labels,
                                           ks=(1,))[1]
        assign, _ = evaluation.kmeans_best(val.features,
                                           min(semi.n_classes, val.n),
                                           seed=int(state[2]))
        oracle_nmi = evaluation.nmi(assign, val.labels)
        t0 = time.monotonic()
        model = train(semi, TrainConfig(seed=seed))
        runs["train_seconds"] += time.monotonic() - t0
        runs[seed] = {"oracle_r1": oracle_r1, "oracle_nmi": oracle_nmi,
                      "model": model}
    return runs


def test_criterion_8_end_to_end_synthetic(synthetic_runs):
    oracle_r1 = [synthetic_runs[s]["oracle_r1"] for s in BENCH_SEEDS]
    oracle_nmi = [synthetic_runs[s]["oracle_nmi"] for s in BENCH_SEEDS]
    best = [max(synthetic_runs[s]["model"].history,
                key=lambda h: h["val_r1"]) for s in BENCH_SEEDS]
    trained_r1 = [b["val_r1"] for b in best]
    trained_nmi = [b["val_nmi"] for b in best]
    gain = float(np.median(trained_r1)) - float(np.median(oracle_r1))
    nmi_improves = float(np.median(trained_nmi)) > float(np.median(oracle_nmi))
    elapsed = synthetic_runs["train_seconds"]
    ok = gain >= 10.0 and nmi_improves and elapsed < 300.0
    detail = (f"identity R@1 per seed {oracle_r1}, trained best {trained_r1}, "
              f"median gain {gain:+.1f} (need >= +10), NMI medians "
              f"{np.median(oracle_nmi):.3f} -> {np.median(trained_nmi):.3f}, "
              f"{elapsed:.0f}s for 3 seeds")
    report(8, ok, detail)
    assert elapsed < 300.0
    assert nmi_improves, detail
    assert gain >= 10.0, detail


def test_criterion_9_orthogonality_ablation_harness(synthetic_runs):
    with_orth = synthetic_runs[0]["model"]
    semi = _benchmark_dataset(0)
    without = train(semi, TrainConfig(seed=0, orth=False))
    rows = []
    for tag, model in (("w/ orth", with_orth), ("w/o orth", without)):
        rec = max(model.history, key=lambda h: h["val_r1"])
        rows.append({"config": tag, "best_val_r1": rec["val_r1"],
                     "best_val_nmi": round(rec["val_nmi"], 4),
                     "best_epoch": rec["epoch"]})
        print(json.dumps(rows[-1]))
    finite = all(np.isfinite([r["best_val_r1"], r["best_val_nmi"]]).all()
                 for r in rows)
    ok = finite and len(rows) == 2
    report(9, ok, f"side-by-side emitted: {rows[0]} vs {rows[1]} "
                  "(no ordering asserted)")
    assert finite


def test_criterion_10_determinism(synthetic_runs):
    first = synthetic_runs[0]["model"]
    repeat = train(_benchmark_dataset(0), TrainConfig(seed=0))
    identical_history = json.dumps(first.history) == json.dumps(repeat.history)
    identical_L = np.array_equal(first.L, repeat.L)
    ok = identical_history and identical_L
    report(10, ok, f"bit-identical history: {identical_history}, "
                   f"bit-identical metric factor: {identical_L}")
    assert identical_history
    assert identical_L
