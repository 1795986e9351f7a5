"""The experiment scripts: one training run per seed, scored by one function."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ssdml
from ssdml import trainer
from ssdml.manifold import orthonormality_error
from ssdml.trainer import Model, TrainConfig, evaluate_checkpoint

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

_spec = importlib.util.spec_from_file_location("run_synthetic_benchmark",
                                               SCRIPTS / "run_synthetic_benchmark.py")
benchmark = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchmark)

# every per-seed key the scoreboard prints
PER_SEED_KEYS = {
    "seed", "identity_val_r1", "identity_val_nmi", "trained_val_r1", "trained_val_nmi",
    "epoch0_val_r1", "best_epoch", "heldout_r1", "heldout_nmi", "heldout_r1_start",
    "heldout_r1_laplacian", "heldout_r1_final", "final_L_sv_min", "final_L_sv_max",
    "final_L_orth_error",
}

FAST = dict(k=4, embed_dim=4, batch_triplets=50, max_epochs=4,
            epochs_per_partition=2, inner_l_iters=5)


def small_blobs():
    """(blobs, semi): 4 classes of 40 rows, 20 labels kept per class (3
    validation rows per class, so train() does not warn)."""
    blobs = ssdml.make_blobs(4, 40, 3, 5, 6.0, 1.5, seed=1)
    return blobs, ssdml.strip_labels(blobs, 20, seed=1)


@pytest.mark.parametrize("run", [dict(method="ours"), dict(method="ours", encoder=True),
                                 dict(method="seraph"), dict(method="lrml"),
                                 dict(method="ours", orth=False)],
                         ids=["ours", "ours-encoder", "seraph", "lrml", "ours-no-orth"])
def test_score_seed_reads_one_run(monkeypatch, run):
    blobs, semi = small_blobs()
    config = TrainConfig(seed=3, **run, **FAST)
    runs = []
    epochs = trainer._epochs

    def counted(*args, **kwargs):
        runs.append(args)
        return epochs(*args, **kwargs)

    monkeypatch.setattr(trainer, "_epochs", counted)
    figures, model = benchmark.score_seed(blobs, semi, config)
    assert len(runs) == 1
    assert set(figures) == PER_SEED_KEYS
    assert figures["seed"] == 3

    monkeypatch.setattr(trainer, "_epochs", epochs)
    best, (L, encoder) = trainer._run(semi, config)
    assert model.history == best.history
    heldout = blobs.subset(semi.unlabeled_indices)
    final = evaluate_checkpoint(Model(L, encoder, None), heldout, ks=(1,))
    assert figures["heldout_r1_final"] == final.recall_at[1]
    assert figures["heldout_r1"] == evaluate_checkpoint(best, heldout, ks=(1,)).recall_at[1]
    singular = np.linalg.svd(L, compute_uv=False)
    assert figures["final_L_sv_min"] == singular.min()
    assert figures["final_L_sv_max"] == singular.max()
    assert figures["final_L_orth_error"] == orthonormality_error(L)
    if config.orth:  # every method but the ablation keeps L on the manifold
        assert np.abs(singular - 1.0).max() <= 1e-12
        assert figures["final_L_orth_error"] <= 1e-12
    else:
        assert figures["final_L_orth_error"] > 1e-6


def test_rounded_keeps_validation_r1_and_rounds_nmi_and_heldout_r1():
    figures = {"trained_val_r1": 12.345, "heldout_nmi": 0.123456, "heldout_r1_final": 12.345,
               "final_L_sv_max": 7.123456, "final_L_orth_error": 3.14159e-15}
    assert benchmark.rounded(figures) == {"trained_val_r1": 12.345, "heldout_nmi": 0.1235,
                                          "heldout_r1_final": 12.3, "final_L_sv_max": 7.123,
                                          "final_L_orth_error": 3.142e-15}


@pytest.fixture()
def digests(monkeypatch):
    """scripts/run_digests.py, loaded as the scoreboard is.  Loading it sets
    the BLAS thread variables, puts src/ and perfbench/ on sys.path and
    stops bytecode writes; all of that is undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("run_digests", SCRIPTS / "run_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("partition_size, distinct", [(30, 2), (0, 1)])
def test_with_mined_triplets_hashes_each_distinct_partition_once(monkeypatch, digests,
                                                                  partition_size, distinct):
    # two partitions of 30 sampled unlabeled rows differ; two of all rows are equal
    _, semi = small_blobs()
    config = TrainConfig(seed=3, partition_size=partition_size,
                         **{**FAST, "max_epochs": 2, "epochs_per_partition": 1})
    model, digest = digests.with_mined_triplets(lambda: ssdml.train(semi, config))

    mined = []
    mine = trainer.mine_triplets

    def recording(*args, **kwargs):
        mined.append(mine(*args, **kwargs))
        return mined[-1]

    monkeypatch.setattr(trainer, "mine_triplets", recording)
    assert ssdml.train(semi, config).history == model.history
    assert len(mined) == distinct
    if distinct == 2:
        assert mined[0].tobytes() != mined[1].tobytes()
    want = hashlib.sha256(b"".join(triplets.tobytes() for triplets in mined))
    assert digest == want.hexdigest()[:16]


def test_with_mined_triplets_restores_the_miner_when_the_run_raises(digests):
    _, semi = small_blobs()
    mine = trainer.mine_triplets

    def failing():
        ssdml.train(semi, TrainConfig(seed=3, **FAST))
        assert trainer.mine_triplets is not mine  # the run went through the recorder
        raise RuntimeError("run failed")

    with pytest.raises(RuntimeError, match="run failed"):
        digests.with_mined_triplets(failing)
    assert trainer.mine_triplets is mine


@pytest.mark.parametrize("script", ["run_orth_ablation.py", "run_synthetic_benchmark.py"])
def test_script_help_exits_zero(script):
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
