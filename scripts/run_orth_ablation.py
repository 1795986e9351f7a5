#!/usr/bin/env python3
"""Orthogonality ablation on the synthetic benchmark.

Runs the default configuration twice per seed, with the Stiefel constraint
on and off, and prints one JSON line per run: the synthetic benchmark's
per-seed figures (``score_seed``), the kept epoch's named ``best_val_*``,
plus the last epoch's validation R@1.  A last line per configuration gives
the held-out figures' min-max across seeds, and the range of the last
epoch's singular values (``final_L_sv_min`` to ``final_L_sv_max``) with the
largest ``final_L_orth_error``: how far the run without the constraint
left the manifold.  No ordering between the two is asserted; the output is
for inspection.
"""

import argparse
import json

from run_synthetic_benchmark import rounded, score_seed, seed_data
from ssdml.trainer import TrainConfig

RENAMED = {"trained_val_r1": "best_val_r1", "trained_val_nmi": "best_val_nmi"}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0")
    ap.add_argument("--noise-sigma", type=float, default=4.0)
    ap.add_argument("--labeled-per-class", type=int, default=10)
    args = ap.parse_args()

    rows = []
    for seed in (int(s) for s in args.seeds.split(",")):
        blobs, semi, _ = seed_data(seed, args.noise_sigma, args.labeled_per_class)
        for orth in (True, False):
            figures, model = score_seed(blobs, semi, TrainConfig(seed=seed, orth=orth))
            rows.append({"config": "w/ orth" if orth else "w/o orth",
                         **{RENAMED.get(k, k): v for k, v in rounded(figures).items()},
                         "final_val_r1": model.history[-1]["val_r1"]})
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
            "final_L_sv_min_max": [min(r["final_L_sv_min"] for r in mine),
                                   max(r["final_L_sv_max"] for r in mine)],
            "final_L_orth_error_max": max(r["final_L_orth_error"] for r in mine),
        }))


if __name__ == "__main__":
    main()
