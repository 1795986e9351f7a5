"""The ssdml benchmark: one workload per process, run as a user would.

One repetition follows ``ssdml train`` then ``ssdml eval``: ``load_csv``
of the train and test CSVs (set-up, done INGESTS_PER_REP times), ``train()``
on the ingested train CSV, ``save_model`` and a reload, then reload plus
``evaluate_checkpoint()`` on the held-out test CSV.  The loop is closed:
one repetition at a time, at least two, and more while the next one fits
in ``--seconds``.  Times are medians over repetitions.

With ``--trace 1`` every other repetition runs under the layer tracer and
the per-layer metrics are printed instead; the repetitions in between
give the untraced baseline for ``trace.overhead_pct``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from layer_trace import LayerTracer
from workloads import WORKLOADS, make_inputs

# Set-up takes 0.1-0.3 s, so each repetition ingests a few times: the
# set-up median then rests on at least 3 * MIN_REPS samples spread over
# the whole run, like the train median.
INGESTS_PER_REP = 3
MIN_REPS = 2
# The Stiefel optimizer's own tolerance on ||L^T L - I||_F.
ORTH_TOL = 1e-8

END_TO_END = {"setup_s": "s", "train_s": "s", "eval_s": "s", "peak_rss_mb": "MiB",
              "test_r1": "%", "test_nmi": "1", "final_loss": "1", "error_rate": "1"}
# The metrics BENCHMARK.json bounds; the others are printed but not in the
# result line.  Across seeds, checkpoint selection flips between epoch 0
# and a trained epoch: on lrml, whose trained metric collapses to M = 0,
# that makes eval_s (about 0.3 s or 1.5 s) and test_nmi (0.001 or 0.01)
# bimodal, and on ours-encoder test_r1 (about 12 or 82).
# final_loss is exactly 0 on lrml, and error_rate on every passing run.
BOUNDED = ("setup_s", "train_s", "peak_rss_mb")

LAYER_SELF_S = ("metric", "manifold", "graph", "propagation", "mining",
                "encoder", "baselines", "trainer")
LAYER_CALLS = ("metric", "graph", "propagation", "encoder")
COUNTERS = ("manifold.optimize_calls", "manifold.steps", "manifold.trials",
            "manifold.stalled", "mining.triplets", "baselines.steps",
            "baselines.trials", "baselines.stalled")


class WorkloadAborted(Exception):
    """An operation failed, so the rest of the workload cannot run."""


class Ledger:
    """Operations and checks attempted in a run, and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok: bool, detail="") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {name} ({detail})")

    def op(self, name: str, fn, *args):
        """Run and time one operation; returns (result, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the workload's boundary: record and stop
            self.failures.append(f"{name} raised {type(exc).__name__}: {exc}")
            raise WorkloadAborted(name) from exc
        return result, time.perf_counter() - start


def orthonormality_error(L) -> float:
    return float(np.linalg.norm(L.T @ L - np.eye(L.shape[1])))


def history_digest(history) -> str:
    return hashlib.sha256(json.dumps(history, sort_keys=True).encode()).hexdigest()


def check_model(ledger: Ledger, model, orthonormal: bool) -> None:
    """Correctness checks on one trained model."""
    if orthonormal:
        err = orthonormality_error(model.L)
        ledger.check("||L^T L - I||_F <= 1e-8", err <= ORTH_TOL, f"{err:.3e}")
    losses = [h.get("loss") for h in model.history]
    losses = [v for v in losses if v is not None]
    ledger.check("history losses finite", bool(losses) and all(map(math.isfinite, losses)),
                 f"losses {losses}")


def check_report(ledger: Ledger, report) -> None:
    r1, nmi = report.recall_at[1], report.nmi
    ledger.check("test_r1 in [0, 100]", 0.0 <= r1 <= 100.0, r1)
    ledger.check("test_nmi in [0, 1]", 0.0 <= nmi <= 1.0, nmi)


def _check_loaded(ledger, name, ds, features, labels):
    labeled = np.flatnonzero(labels >= 0)
    ok = (np.array_equal(ds.features, features)
          and np.array_equal(ds.labeled_indices, labeled)
          and np.array_equal(ds.labels[labeled], labels[labeled]))
    ledger.check(f"{name} loads bit-exactly", ok)


def _ingest(ledger, ssdml, inputs):
    """One set-up repetition: load the train and test CSVs."""
    train_ds, train_s = ledger.op("load_csv train", ssdml.load_csv, inputs.train_csv)
    _check_loaded(ledger, "train CSV", train_ds, *inputs.train)
    test_ds, test_s = ledger.op("load_csv test", ssdml.load_csv, inputs.test_csv)
    _check_loaded(ledger, "test CSV", test_ds, *inputs.test)
    return train_ds, test_ds, train_s + test_s


def _save_and_reload(ledger, ssdml, model, model_path):
    ledger.op("save_model", ssdml.save_model, model, model_path)
    reloaded, _ = ledger.op("load_model", ssdml.load_model, model_path)
    ledger.check("reloaded L is bit-exact",
                 reloaded.L.dtype == model.L.dtype and np.array_equal(reloaded.L, model.L))


def _evaluate(ledger, ssdml, model_path, test_ds):
    """Reload the saved model and score it on the held-out set."""
    def reload_and_evaluate():
        return ssdml.evaluate_checkpoint(ssdml.load_model(model_path), test_ds)

    report, seconds = ledger.op("evaluate", reload_and_evaluate)
    check_report(ledger, report)
    return report, seconds


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def _best_epoch(history) -> int:
    # max() keeps the first maximum, as the trainer's strict ">" does
    return int(max(history, key=lambda h: h["val_r1"])["epoch"])


class Run:
    """Samples gathered by one run of one workload."""

    def __init__(self):
        self.setup_s, self.setup_segments = [], []  # segments: traced reps only
        self.train_s, self.traced_train_s, self.train_segments = [], [], []
        self.eval_s, self.eval_segments = [], []
        self.digests = []
        self.model = None
        self.report = None


def run_workload(ssdml, workload, seed: int, seconds: float, trace: bool,
                 workdir: Path):
    """Run one workload; returns (ledger, Run)."""
    ledger, run = Ledger(), Run()
    tracer = LayerTracer("ssdml") if trace else None

    def segment(traced):
        return tracer.segment() if traced else contextlib.nullcontext()

    try:
        inputs = make_inputs(workload, seed, workdir)
        config = ssdml.TrainConfig(seed=seed, **workload.config)
        model_path = workdir / "model.txt"
        deadline = time.perf_counter() + seconds
        rep = 0
        while True:
            started = time.perf_counter()
            traced = trace and rep % 2 == 1
            for _ in range(INGESTS_PER_REP):
                with segment(traced) as seg:
                    train_ds, test_ds, setup_s = _ingest(ledger, ssdml, inputs)
                run.setup_s.append(setup_s)
                if traced:
                    run.setup_segments.append(seg)
            with segment(traced) as seg:
                model, train_s = ledger.op("train", ssdml.train, train_ds, config)
            check_model(ledger, model, workload.orthonormal)
            _save_and_reload(ledger, ssdml, model, model_path)
            run.digests.append(history_digest(model.history))
            run.model = model
            with segment(traced) as eval_seg:
                run.report, eval_s = _evaluate(ledger, ssdml, model_path, test_ds)
            if traced:
                run.traced_train_s.append(train_s)
                run.train_segments.append(seg)
                run.eval_segments.append(eval_seg)
            else:
                run.train_s.append(train_s)
                run.eval_s.append(eval_s)
            rep += 1
            now = time.perf_counter()
            if rep >= MIN_REPS and now + (now - started) > deadline:
                break
        ledger.check("repetitions give an identical history",
                     len(set(run.digests)) == 1, f"{len(set(run.digests))} digests")
    except WorkloadAborted:
        pass
    return ledger, run


def end_to_end_metrics(ledger, run) -> dict:
    """Every end-to-end metric of an untraced run, bounded or not; only
    error_rate when a check or an operation failed."""
    error_rate = len(ledger.failures) / ledger.attempted
    if ledger.failures:
        return {"error_rate": {"value": error_rate, "unit": END_TO_END["error_rate"]}}
    report = run.report
    values = {
        "setup_s": _median(run.setup_s),
        "train_s": _median(run.train_s),
        "eval_s": _median(run.eval_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_r1": float(report.recall_at[1]),
        "test_nmi": float(report.nmi),
        "final_loss": float(run.model.history[-1]["loss"]),
        "error_rate": error_rate,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(run) -> dict:
    """Per-layer metrics of a traced run."""
    train_segs = run.train_segments
    last = train_segs[-1]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYER_SELF_S:
        put(f"{layer}.self_s", _median([s.self_s[layer] for s in train_segs]), "s")
    for layer in LAYER_CALLS:
        put(f"{layer}.calls", last.calls[layer], "count")
    for name in COUNTERS:
        put(name, last.counters[name], "count")
    trials = last.counters["manifold.trials"]
    put("manifold.accept_ratio",
        last.counters["manifold.steps"] / trials if trials else 0.0, "1")
    put("graph.nodes", last.maxima["graph.nodes"], "count")
    put("evaluation.val_s", _median([s.self_s["evaluation"] for s in train_segs]), "s")
    put("evaluation.test_s",
        _median([s.self_s["evaluation"] for s in run.eval_segments]), "s")
    put("data.self_s", _median([s.self_s["data"] for s in run.setup_segments]), "s")
    put("trainer.best_epoch", _best_epoch(run.model.history), "epoch")
    put("trainer.final_loss", float(run.model.history[-1]["loss"]), "1")
    put("evaluation.test_r1", float(run.report.recall_at[1]), "%")
    put("evaluation.test_nmi", float(run.report.nmi), "1")
    put("trace.overhead_pct",
        100.0 * (_median(run.traced_train_s) / _median(run.train_s) - 1.0), "%")
    return metrics


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # not a git checkout
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
    }


def _run_all(args, root: Path) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(description="ssdml benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        import ssdml
    except ImportError as exc:
        print(f"cannot import ssdml from {root / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(ssdml.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"ssdml was imported from {ssdml.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, root)

    workload = WORKLOADS[args.workload]
    work_root = root / "perfbench" / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        ledger, run = run_workload(ssdml, workload, args.seed, args.seconds,
                                   bool(args.trace), Path(workdir))
    correct = not ledger.failures
    if args.trace:
        metrics = per_layer_metrics(run) if correct else {}
    else:
        metrics = end_to_end_metrics(ledger, run)
    result = metrics if args.trace else {k: v for k, v in metrics.items() if k in BOUNDED}
    info = {"workload": workload.name, "trace": args.trace,
            "environment": environment(root, args.seed),
            "repetitions": len(run.digests), "failures": ledger.failures,
            "samples": {"setup_s": run.setup_s, "train_s": run.train_s,
                        "traced_train_s": run.traced_train_s, "eval_s": run.eval_s}}
    for name, m in metrics.items():
        print(f"{workload.name:18s} {name:26s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": result}))
    return 0 if correct else 1
