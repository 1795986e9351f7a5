"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import math
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ssdml  # noqa: E402

import bench  # noqa: E402
from layer_trace import LayerTracer  # noqa: E402
from workloads import Workload, draw_blobs, keep_labels, make_inputs  # noqa: E402

TINY = Workload("tiny", 20, {"partition_size": 50, "epochs_per_partition": 1,
                             "max_epochs": 2, "inner_l_iters": 2})


def _tiny_dataset(seed=0):
    rng = np.random.default_rng(seed)
    X, y = draw_blobs(rng, TINY.per_class)
    return ssdml.Dataset(X, np.where(keep_labels(rng, y), y, -1), 10)


def test_layer_self_times_add_up_to_the_traced_train_span():
    tracer = LayerTracer("ssdml")
    original = ssdml.train
    dataset, config = _tiny_dataset(), ssdml.TrainConfig(seed=0, **TINY.config)
    with tracer.segment() as seg:
        start = time.perf_counter()
        ssdml.train(dataset, config)
        span = time.perf_counter() - start
    assert ssdml.train is original
    assert abs(sum(seg.self_s.values()) - span) <= 0.01 * span
    assert seg.calls["trainer"] == 1
    for layer in ("metric", "manifold", "graph", "propagation", "mining", "evaluation"):
        assert seg.self_s[layer] > 0, layer
    # 80 labeled training rows + 50 sampled, k/2 = 5 triplets per node
    assert seg.maxima["graph.nodes"] == 130
    assert seg.counters["mining.triplets"] == 2 * 130 * 5
    steps = seg.counters["manifold.steps"]
    assert 0 < steps <= seg.counters["manifold.trials"]
    assert seg.counters["baselines.steps"] == 0


def test_tracer_discovers_functions_and_passes_same_layer_calls_through(tmp_path):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .outer import run\n")
    (pkg / "outer.py").write_text(textwrap.dedent("""
        from . import inner
        from .inner import nap

        def run():
            return helper() + nap() + inner.nap()

        def helper():
            return 1
    """))
    (pkg / "inner.py").write_text(textwrap.dedent("""
        import time

        def nap():
            time.sleep(0.01)
            return 1
    """))
    sys.path.insert(0, str(tmp_path))
    try:
        import toypkg

        tracer = LayerTracer("toypkg")
        with tracer.segment() as seg:
            assert toypkg.run() == 3
        assert seg.calls == {"outer": 1, "inner": 2}
        assert seg.self_s["inner"] >= 0.015
        assert seg.self_s["outer"] < seg.self_s["inner"]
        assert seg.counters["manifold.steps"] == 0
        # helper() is found too, though nothing names it: called from
        # outside its layer it opens a span of its own
        with tracer.segment() as direct:
            assert toypkg.outer.helper() == 1
        assert direct.calls == {"outer": 1}
    finally:
        sys.path.remove(str(tmp_path))
        for name in [n for n in sys.modules if n.split(".")[0] == "toypkg"]:
            del sys.modules[name]


def _model(L, losses):
    return ssdml.Model(L=L, encoder=None, config=None,
                       history=[{"epoch": i, "loss": v, "val_r1": 0.0}
                                for i, v in enumerate(losses)])


def test_checks_reject_a_corrupted_model():
    good = _model(np.eye(6)[:, :3], [None, 0.3, 0.2])
    for model, expect in ((good, 0),
                          (_model(1.001 * np.eye(6)[:, :3], [None, 0.3]), 1),
                          (_model(np.eye(6)[:, :3], [None, 0.3, math.nan]), 1),
                          (_model(np.eye(6)[:, :3], [None]), 1)):
        ledger = bench.Ledger()
        bench.check_model(ledger, model, orthonormal=True)
        assert len(ledger.failures) == expect, ledger.failures


@pytest.mark.parametrize("corrupt, message", [
    (lambda m: replace(m, L=m.L * 1.5), "||L^T L - I||"),
    (lambda m: replace(m, history=m.history + [dict(m.history[-1], loss=math.nan)]),
     "history losses finite"),
])
def test_a_corrupted_training_result_fails_the_run(tmp_path, monkeypatch, corrupt, message):
    train = ssdml.train
    monkeypatch.setattr(ssdml, "train", lambda ds, cfg: corrupt(train(ds, cfg)))
    ledger, run = bench.run_workload(ssdml, TINY, seed=3, seconds=0, trace=False,
                                     workdir=tmp_path)
    assert ledger.failures
    assert all(message in f for f in ledger.failures), ledger.failures
    error_rate = bench.end_to_end_metrics(ledger, run)["error_rate"]["value"]
    assert error_rate == len(ledger.failures) / ledger.attempted > 0


def test_an_uncorrupted_tiny_run_passes_every_check(tmp_path):
    ledger, run = bench.run_workload(ssdml, TINY, seed=3, seconds=0, trace=True,
                                     workdir=tmp_path)
    assert ledger.failures == []
    assert len(run.train_s) == len(run.traced_train_s) == 1
    # the traced train segment holds train() alone, not the save/reload
    assert run.train_segments[0].calls["trainer"] == 1
    metrics = bench.per_layer_metrics(run)
    assert metrics["graph.nodes"]["value"] == 130
    assert metrics["baselines.steps"]["value"] == 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        make_inputs(TINY, seed, d)
    read = [(d / "train.csv").read_bytes() + (d / "test.csv").read_bytes() for d in dirs]
    assert read[0] == read[1] != read[2]
