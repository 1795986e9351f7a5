#!/usr/bin/env python3
"""End-to-end synthetic benchmark.

Generates the 10-class blob dataset (5 signal dims, 45 noise dims at per-dim
std 4.0), keeps 10 labels per class, measures the identity-metric baseline on
the validation split, trains one method (``--method``, default the paper's
graph-based ``ours``) with default settings, and reports both per seed plus
medians.  The checkpoint train() selects is also scored on the held-out rows
(the unlabeled rows with their true labels); the summary gives those
figures' median and min-max across seeds.  Each seed also reports the
validation R@1 of epoch 0, the method's starting metric on l2-normalized
inputs, and the summary the median gain over it: the identity baseline
scores raw features, so its "gain" also credits what the starting metric
already does before any training step.  Every method starts from the same
metric L0 (the first l coordinates); each seed's line also gives its
held-out R@1.  ``--rotate`` multiplies the blobs by a seeded random
orthogonal matrix, so that L0 no longer sees the signal dimensions.

Also prints the pipeline diagnostics that explain the observed behaviour at
this noise level: kNN purity of the l2-normalized inputs, the fraction of
mined triplets whose (positive, negative) ordering agrees/disagrees with the
true classes, and the batch loss evaluated on the pure-signal vs pure-noise
subspaces.
"""

import argparse
import json
import time

import numpy as np

import ssdml
from ssdml import evaluation, metric
from ssdml.data import Dataset, split_validation
from ssdml.encoder import l2_normalize_rows
from ssdml.manifold import random_stiefel
from ssdml.trainer import (METHODS, Model, TrainConfig, _initial_L,
                           evaluate_checkpoint, train)


def identity_oracle(semi, seed):
    """Raw-feature metrics on the same validation split train() will use."""
    state = np.random.SeedSequence(seed).generate_state(4)
    _, val = split_validation(semi, TrainConfig().val_fraction, int(state[0]))
    report = evaluation.evaluate_embeddings(val.features, val.labels,
                                            min(semi.n_classes, val.n), ks=(1,),
                                            seed=int(state[2]))
    return report.nmi, report.recall_at[1]


def rotate(blobs, seed):
    """(blobs times a random orthogonal d x d matrix Q, Q), Q drawn from
    `seed` on a stream apart from make_blobs'."""
    Q = random_stiefel(blobs.dim, blobs.dim, np.random.default_rng([seed, 1]))
    return Dataset(blobs.features @ Q, blobs.labels, blobs.n_classes), Q


def pipeline_diagnostics(blobs, semi, config, rotation):
    """Graph and triplet quality; the signal and noise subspaces are the
    first 5 and the next 5 input coordinates, carried through `rotation`."""
    part = ssdml.sample_partition(semi, semi.unlabeled_indices.size, seed=1)
    rows = part.node_rows
    Z = l2_normalize_rows(semi.features[rows])
    y_true = blobs.labels[rows]
    graph = ssdml.build_knn(Z, config.k)
    purity = float((y_true[graph.neighbors] == y_true[:, None]).mean())
    aff = ssdml.propagate(graph, semi.labels[rows], config.gamma)
    idx = ssdml.mine_triplets(aff, graph)
    pos_ok = y_true[idx[:, 0]] == y_true[idx[:, 1]]
    neg_ok = y_true[idx[:, 0]] == y_true[idx[:, 2]]

    def span(dims):
        return rotation.T[:, list(dims)]

    loss_signal = metric.angular_loss(span(range(5)), Z, idx,
                                      config.alpha_deg) / len(idx)
    loss_noise = metric.angular_loss(span(range(5, 10)), Z, idx,
                                     config.alpha_deg) / len(idx)
    return {
        "knn_purity": round(purity, 4),
        "triplet_correctly_ordered": round(float((pos_ok & ~neg_ok).mean()), 4),
        "triplet_inverted": round(float((~pos_ok & neg_ok).mean()), 4),
        "loss_per_triplet_signal_subspace": round(float(loss_signal), 4),
        "loss_per_triplet_noise_subspace": round(float(loss_noise), 4),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--method", choices=METHODS, default="ours")
    ap.add_argument("--noise-sigma", type=float, default=4.0)
    ap.add_argument("--labeled-per-class", type=int, default=10)
    ap.add_argument("--rotate", action="store_true",
                    help="multiply the blobs by a seeded random orthogonal matrix")
    ap.add_argument("--diagnostics", action="store_true",
                    help="also print graph/triplet quality for the first seed")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    oracle_r1, oracle_nmi, best_r1, best_nmi, epoch0_r1 = [], [], [], [], []
    held_r1, held_nmi, start_r1 = [], [], []
    t0 = time.monotonic()
    for seed in seeds:
        blobs = ssdml.make_blobs(10, 200, 5, 45, 6.0, args.noise_sigma,
                                 seed=seed)
        rotation = np.eye(blobs.dim)
        if args.rotate:
            blobs, rotation = rotate(blobs, seed)
        semi = ssdml.strip_labels(blobs, args.labeled_per_class, seed=seed)
        config = TrainConfig(seed=seed, method=args.method)
        if args.diagnostics and seed == seeds[0]:
            print(json.dumps({"diagnostics":
                              pipeline_diagnostics(blobs, semi, config, rotation)}))
        o_nmi, o_r1 = identity_oracle(semi, seed)
        model = train(semi, config)
        rec = max(model.history, key=lambda h: h["val_r1"])
        heldout = blobs.subset(semi.unlabeled_indices)
        held = evaluate_checkpoint(model, heldout, ks=(1,))
        start = evaluate_checkpoint(Model(_initial_L(semi.dim, config.embed_dim), None, None),
                                    heldout, ks=(1,))
        oracle_r1.append(o_r1)
        oracle_nmi.append(o_nmi)
        best_r1.append(rec["val_r1"])
        best_nmi.append(rec["val_nmi"])
        epoch0_r1.append(model.history[0]["val_r1"])
        held_r1.append(held.recall_at[1])
        held_nmi.append(held.nmi)
        start_r1.append(start.recall_at[1])
        print(json.dumps({
            "seed": seed,
            "identity_val_r1": o_r1,
            "identity_val_nmi": round(o_nmi, 4),
            "trained_val_r1": rec["val_r1"],
            "trained_val_nmi": round(rec["val_nmi"], 4),
            "epoch0_val_r1": model.history[0]["val_r1"],
            "best_epoch": rec["epoch"],
            "heldout_r1": round(held.recall_at[1], 1),
            "heldout_nmi": round(held.nmi, 4),
            "heldout_r1_start": round(start.recall_at[1], 1),
        }))

    med = lambda v: float(np.median(v))
    span = lambda v, digits: [round(float(min(v)), digits), round(float(max(v)), digits)]
    print(json.dumps({
        "median_identity_r1": med(oracle_r1),
        "median_trained_r1": med(best_r1),
        "median_r1_gain": med(best_r1) - med(oracle_r1),
        "median_epoch0_r1": med(epoch0_r1),
        "median_gain_over_epoch0": med(best_r1) - med(epoch0_r1),
        "median_identity_nmi": round(med(oracle_nmi), 4),
        "median_trained_nmi": round(med(best_nmi), 4),
        "median_heldout_r1": round(med(held_r1), 1),
        "heldout_r1_min_max": span(held_r1, 1),
        "median_heldout_nmi": round(med(held_nmi), 4),
        "heldout_nmi_min_max": span(held_nmi, 4),
        "median_heldout_r1_start": round(med(start_r1), 1),
        "runtime_seconds": round(time.monotonic() - t0, 1),
    }))


if __name__ == "__main__":
    main()
