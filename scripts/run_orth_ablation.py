#!/usr/bin/env python3
"""Orthogonality ablation on the synthetic benchmark.

Runs the default configuration twice per seed, with the Stiefel constraint
on and off, and emits the two validation trajectories side by side as JSON
lines.  Each line also scores the selected checkpoint on the held-out rows
(the unlabeled rows with their true labels); a last line per configuration
gives the held-out figures' min-max across seeds.  No ordering between the
two is asserted; the output is for inspection.
"""

import argparse
import json

import ssdml
from ssdml.trainer import TrainConfig, evaluate_checkpoint, train


def run_once(seed, orth, noise_sigma, labeled_per_class):
    blobs = ssdml.make_blobs(10, 200, 5, 45, 6.0, noise_sigma, seed=seed)
    semi = ssdml.strip_labels(blobs, labeled_per_class, seed=seed)
    model = train(semi, TrainConfig(seed=seed, orth=orth))
    best = max(model.history, key=lambda h: h["val_r1"])
    held = evaluate_checkpoint(model, blobs.subset(semi.unlabeled_indices), ks=(1,))
    return {
        "config": "w/ orth" if orth else "w/o orth",
        "seed": seed,
        "best_val_r1": best["val_r1"],
        "best_val_nmi": round(best["val_nmi"], 4),
        "best_epoch": best["epoch"],
        "heldout_r1": round(held.recall_at[1], 1),
        "heldout_nmi": round(held.nmi, 4),
        "final_val_r1": model.history[-1]["val_r1"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--noise-sigma", type=float, default=4.0)
    ap.add_argument("--labeled-per-class", type=int, default=10)
    args = ap.parse_args()

    rows = []
    for seed in (int(s) for s in args.seeds.split(",")):
        for orth in (True, False):
            rows.append(run_once(seed, orth, args.noise_sigma, args.labeled_per_class))
            print(json.dumps(rows[-1]))
    for config in ("w/ orth", "w/o orth"):
        mine = [r for r in rows if r["config"] == config]
        print(json.dumps({
            "summary": config,
            "best_epochs": [r["best_epoch"] for r in mine],
            "heldout_r1_min_max": [min(r["heldout_r1"] for r in mine),
                                   max(r["heldout_r1"] for r in mine)],
            "heldout_nmi_min_max": [min(r["heldout_nmi"] for r in mine),
                                    max(r["heldout_nmi"] for r in mine)],
        }))


if __name__ == "__main__":
    main()
