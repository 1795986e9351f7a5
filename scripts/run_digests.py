#!/usr/bin/env python3
"""Digests of fixed training runs, for checking that a change keeps results
bit-identical.

    python3 scripts/run_digests.py

Prints one ``name digest`` line per run.  The digest is the first 16 hex
digits of sha256 over the run's ``history`` as sorted-key JSON, then the
bytes of ``L`` and, when the model has an encoder, of its ``A`` and ``b``.
Each perfbench run also prints a ``-eval`` line that hashes the exact NMI and
Recall@K ``evaluate_checkpoint`` gives the trained model on the workload's
test CSV (what ``ssdml eval`` prints, before rounding).  Each run also prints a
``triplets-<name>`` line: the same kind of digest over the triplet arrays
``mine_triplets`` hands training, one per distinct partition, in order (a
run that mines nothing hashes no bytes).  It shows directly whether a
change to the graph, propagation or mining stages moved training's input.
Three lines follow the runs.  ``propagation-criterion8-k10-k30`` hashes
the bytes of ``propagate()``'s edges and of ``propagate_dense()`` at gamma
0.99 over the kNN graphs (k = 10, then 30) of criterion 8's 2,000 seed-0
blob rows, l2-normalized, with the labels ``strip_labels(..., 10, seed=0)``
leaves, and then over one hand-built 150-node list with a self edge and a
repeated neighbor.  Mining only sees the ranking of the affinities, so a
last-bit change to the propagation solve shows on this line alone.
``knn-kernel`` hashes the neighbor lists ``build_knn`` gives on the same
blob rows (k = 10, then 30), on two collapsed sets (1,000 rows at
1 + 1e-6 N(0, I_30) and at 1e6 + 1e-2 N(0, I_20), k = 10) and on a set with
exact duplicate rows, then the float64 bytes of ``recall_at_k`` at
K = 1, 2, 4, 8, 16, 32 on a 1,900 x 16 embedding (the first 16 coordinates
of 1,900 l2-normalized blob rows, the test split's shape), so it shows
whether a change to the kNN kernel moved a neighbor list.  The last line,
``gradcheck-202``, hashes the float64 bytes of the largest relative errors
``gradcheck.run_all(seed=202, trials=100)`` reports, suite by suite in
order (acceptance criterion 2's call), so it shows whether a change to a
gradient, a suite or the harness moved the checks.  Runs on one
BLAS thread, as the benchmark does, so that the digests do not depend on
the machine's core count.  The perfbench runs use the CSV files that
``perfbench/workloads.make_inputs`` writes to a temporary directory;
``perfbench/`` is only read (no bytecode is written there).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

import ssdml  # noqa: E402
from ssdml import gradcheck, trainer  # noqa: E402
from ssdml.encoder import l2_normalize_rows  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


def digest(model) -> str:
    h = hashlib.sha256(json.dumps(model.history, sort_keys=True).encode())
    h.update(model.L.tobytes())
    if model.encoder is not None:
        h.update(model.encoder.A.tobytes())
        h.update(model.encoder.b.tobytes())
    return h.hexdigest()[:16]


def report_digest(report) -> str:
    scores = {"nmi": report.nmi, "recall_at": report.recall_at}
    return hashlib.sha256(json.dumps(scores, sort_keys=True).encode()).hexdigest()[:16]


def perfbench_run(workload, seed):
    """Train on the workload's train CSV and score the model on its test CSV."""
    def run():
        with tempfile.TemporaryDirectory() as tmp:
            inputs = make_inputs(WORKLOADS[workload], seed, Path(tmp))
            dataset = ssdml.load_csv(inputs.train_csv)
            test = ssdml.load_csv(inputs.test_csv)
        config = ssdml.TrainConfig(seed=seed, **WORKLOADS[workload].config)
        model = ssdml.train(dataset, config)
        return model, ssdml.evaluate_checkpoint(model, test)
    return run


def criterion8_run(**config):
    """Criterion 8's seed-0 blobs: 10x200 rows, 5 signal + 45 noise dims."""
    def run():
        blobs = ssdml.make_blobs(10, 200, 5, 45, 6.0, 4.0, seed=0)
        semi = ssdml.strip_labels(blobs, 10, seed=0)
        return ssdml.train(semi, ssdml.TrainConfig(**config)), None
    return run


RUNS = {
    "perfbench-ours-encoder-141": perfbench_run("ours-encoder", 141),
    "perfbench-ours-encoder-142": perfbench_run("ours-encoder", 142),
    "perfbench-lrml-141": perfbench_run("lrml", 141),
    "perfbench-lrml-142": perfbench_run("lrml", 142),
    "criterion8-default": criterion8_run(),
    "criterion8-encoder-5": criterion8_run(encoder=True, max_epochs=5),
    "criterion8-seraph-5": criterion8_run(method="seraph", max_epochs=5),
    "criterion8-no-orth-5": criterion8_run(orth=False, max_epochs=5),
    "criterion8-seraph-20": criterion8_run(method="seraph", max_epochs=20),
    "criterion8-lrml-50": criterion8_run(method="lrml", max_epochs=50),
    # partition_size 300 samples two distinct partitions
    "criterion8-seraph-p300-20": criterion8_run(method="seraph", partition_size=300,
                                                max_epochs=20),
    "criterion8-lrml-p300-20": criterion8_run(method="lrml", partition_size=300,
                                              max_epochs=20),
    "criterion8-ours-p300-20": criterion8_run(partition_size=300, max_epochs=20),
}


def with_mined_triplets(run):
    """run()'s result and the digest of every triplet array mined during it."""
    mined = []
    original = trainer.mine_triplets

    def recording(*args, **kwargs):
        mined.append(original(*args, **kwargs))
        return mined[-1]

    trainer.mine_triplets = recording
    try:
        result = run()
    finally:
        trainer.mine_triplets = original
    h = hashlib.sha256()
    for triplets in mined:
        h.update(np.ascontiguousarray(triplets).tobytes())
    return result, h.hexdigest()[:16]


def gradcheck_digest(seed: int) -> str:
    errors = gradcheck.run_all(seed=seed, trials=100)
    return hashlib.sha256(np.array(list(errors.values())).tobytes()).hexdigest()[:16]


def propagation_digest() -> str:
    blobs = ssdml.make_blobs(10, 200, 5, 45, 6.0, 4.0, seed=0)
    semi = ssdml.strip_labels(blobs, 10, seed=0)
    Z = l2_normalize_rows(semi.features)
    cases = [(ssdml.build_knn(Z, k), semi.labels) for k in (10, 30)]
    n = 150  # both halves over LEAF_SIZE, so each is inverted recursively
    neighbors = (np.arange(n)[:, None] + [1, 2, 3, n // 2]) % n
    neighbors[0, 0] = 0  # a self edge
    neighbors[1, 1] = neighbors[1, 0]  # a repeated neighbor
    labels = np.where(np.arange(n) % 10 == 0, np.arange(n) // 10 % 3, -1)
    cases.append((ssdml.NeighborGraph(n=n, k=4, neighbors=neighbors), labels))
    h = hashlib.sha256()
    for graph, labels in cases:
        h.update(ssdml.propagate(graph, labels, 0.99).edges.tobytes())
        h.update(ssdml.propagate_dense(graph, labels, 0.99).tobytes())
    return h.hexdigest()[:16]


def knn_digest() -> str:
    blobs = ssdml.make_blobs(10, 200, 5, 45, 6.0, 4.0, seed=0)
    Z = l2_normalize_rows(ssdml.strip_labels(blobs, 10, seed=0).features)
    rng = np.random.default_rng(31)
    duplicated = rng.standard_normal((300, 8))
    duplicated[100:250] = duplicated[rng.integers(0, 100, size=150)]
    cases = [(Z, 10), (Z, 30),
             (1.0 + 1e-6 * rng.standard_normal((1000, 30)), 10),
             (1e6 + 1e-2 * rng.standard_normal((1000, 20)), 10),
             (duplicated, 10)]
    h = hashlib.sha256()
    for rows, k in cases:
        h.update(ssdml.build_knn(rows, k).neighbors.tobytes())
    test = ssdml.make_blobs(10, 190, 5, 45, 6.0, 4.0, seed=1)
    ks = (1, 2, 4, 8, 16, 32)
    recall = ssdml.recall_at_k(l2_normalize_rows(test.features)[:, :16], test.labels, ks=ks)
    h.update(np.array([recall[k] for k in ks]).tobytes())
    return h.hexdigest()[:16]


def main():
    for name, run in RUNS.items():
        (model, report), triplets = with_mined_triplets(run)
        print(name, digest(model), flush=True)
        if report is not None:
            print(f"{name}-eval", report_digest(report), flush=True)
        print(f"triplets-{name}", triplets, flush=True)
    print("propagation-criterion8-k10-k30", propagation_digest(), flush=True)
    print("knn-kernel", knn_digest(), flush=True)
    print("gradcheck-202", gradcheck_digest(202), flush=True)


if __name__ == "__main__":
    main()
