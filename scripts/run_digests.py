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
The last line, ``gradcheck-202``, hashes the float64 bytes of the largest
relative errors ``gradcheck.run_all(seed=202, trials=100)`` reports, suite
by suite in order (acceptance criterion 2's call), so it shows whether a
change to a gradient, a suite or the harness moved the checks.  Runs on one
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


def main():
    for name, run in RUNS.items():
        (model, report), triplets = with_mined_triplets(run)
        print(name, digest(model), flush=True)
        if report is not None:
            print(f"{name}-eval", report_digest(report), flush=True)
        print(f"triplets-{name}", triplets, flush=True)
    print("gradcheck-202", gradcheck_digest(202), flush=True)


if __name__ == "__main__":
    main()
