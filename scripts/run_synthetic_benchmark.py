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
held-out R@1, and ``heldout_r1_final`` that of the last epoch's metric,
from the same training run.  That last L's smallest and largest singular
value and ||L^T L - I||_F (``final_L_sv_min``, ``final_L_sv_max``,
``final_L_orth_error``) show how far it left the Stiefel manifold; all
three are 1, 1 and about 0 when ``orth`` is on.  ``--rotate`` multiplies the
blobs by a seeded random orthogonal matrix, so that L0 no longer sees the
signal dimensions.

Each seed also gives a label-free reference, ``heldout_r1_laplacian``: the
held-out R@1 of the L of the l smallest eigenvectors of the kNN smoothness
form Z^T (D - W) Z, over the l2-normalized train rows of train()'s own
validation split.  It uses no label and is rotation-invariant, so
``--rotate`` leaves it unchanged; a method that reads below it does worse
than this label-free fit.

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
from ssdml.baselines import stiefel_minimizer
from ssdml.data import Dataset
from ssdml.encoder import l2_normalize_rows
from ssdml.graph import knn_laplacian_form
from ssdml.manifold import orthonormality_error, random_stiefel
from ssdml.trainer import (METHODS, TrainConfig, _initial_L, _represent, _run, _split,
                           evaluate_checkpoint)


def score_seed(blobs, semi, config):
    """(figures, model) of one training run: the seed's figures, unrounded,
    and the model train() returns.  The identity baseline scores raw
    features on train()'s validation split; the label-free reference is the
    L of the l smallest eigenvectors of Z^T (D - W) Z over train()'s
    l2-normalized train rows Z.  Only the kept checkpoint's held-out NMI is
    printed, so the other held-out figures skip evaluate_checkpoint's
    k-means and score R@1 alone.  The last epoch's L is also described by
    its smallest and largest singular value and ||L^T L - I||_F, which
    show how far an orth=False run has left the manifold."""
    train_ds, val, (_, eval_seed, _, _) = _split(semi, config)
    identity = evaluation.evaluate_embeddings(val.features, val.labels, ks=(1,),
                                              seed=eval_seed)
    Z = l2_normalize_rows(train_ds.features)
    laplacian_L, _ = stiefel_minimizer(knn_laplacian_form(ssdml.build_knn(Z, config.k), Z),
                                       config.embed_dim)
    model, (L, encoder) = _run(semi, config)
    rec = max(model.history, key=lambda h: h["val_r1"])
    heldout = blobs.subset(semi.unlabeled_indices)

    def held_r1(L, encoder=None):
        E = metric.embed(L, _represent(encoder, heldout.features))
        return evaluation.recall_at_k(E, heldout.labels, ks=(1,))[1]

    kept = evaluate_checkpoint(model, heldout, ks=(1,))
    singular = np.linalg.svd(L, compute_uv=False)
    return {
        "seed": config.seed,
        "identity_val_r1": identity.recall_at[1],
        "identity_val_nmi": identity.nmi,
        "trained_val_r1": rec["val_r1"],
        "trained_val_nmi": rec["val_nmi"],
        "epoch0_val_r1": model.history[0]["val_r1"],
        "best_epoch": rec["epoch"],
        "heldout_r1": kept.recall_at[1],
        "heldout_nmi": kept.nmi,
        "heldout_r1_start": held_r1(_initial_L(semi.dim, config.embed_dim)),
        "heldout_r1_laplacian": held_r1(laplacian_L),
        "heldout_r1_final": held_r1(L, encoder),
        "final_L_sv_min": float(singular.min()),
        "final_L_sv_max": float(singular.max()),
        "final_L_orth_error": orthonormality_error(L),
    }, model


def rounded(figures):
    """score_seed's figures as printed: NMI to 4 digits, held-out R@1 to 1,
    the last L's figures to 4 significant digits."""
    return {k: round(v, 4) if k.endswith("nmi") else round(v, 1) if k.startswith("heldout_r1")
            else float(f"{v:.4g}") if k.startswith("final_L") else v
            for k, v in figures.items()}


def seed_data(seed, noise_sigma, labeled_per_class, rotated=False):
    """(blobs, semi, rotation) of one seed: the 10-class blobs, times a
    random orthogonal matrix when `rotated` (else the identity), and the
    same rows with `labeled_per_class` labels kept per class."""
    blobs = ssdml.make_blobs(10, 200, 5, 45, 6.0, noise_sigma, seed=seed)
    rotation = np.eye(blobs.dim)
    if rotated:
        blobs, rotation = rotate(blobs, seed)
    return blobs, ssdml.strip_labels(blobs, labeled_per_class, seed=seed), rotation


def rotate(blobs, seed):
    """(blobs times a random orthogonal d x d matrix Q, Q), Q drawn from
    `seed` on a stream apart from make_blobs'."""
    Q = random_stiefel(blobs.dim, blobs.dim, np.random.default_rng([seed, 1]))
    return Dataset(blobs.features @ Q, blobs.labels, blobs.n_classes), Q


def pipeline_diagnostics(blobs, semi, config, rotation):
    """Graph and triplet quality; the signal and noise subspaces are the
    first 5 and the next 5 input coordinates, carried through `rotation`."""
    rows = ssdml.sample_partition(semi, 0, seed=1)
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

    rows = []
    t0 = time.monotonic()
    for seed in seeds:
        blobs, semi, rotation = seed_data(seed, args.noise_sigma, args.labeled_per_class,
                                          args.rotate)
        config = TrainConfig(seed=seed, method=args.method)
        if args.diagnostics and seed == seeds[0]:
            print(json.dumps({"diagnostics":
                              pipeline_diagnostics(blobs, semi, config, rotation)}))
        rows.append(score_seed(blobs, semi, config)[0])
        print(json.dumps(rounded(rows[-1])))

    def med(key):
        return float(np.median([r[key] for r in rows]))

    def span(key, digits):
        return [round(float(f(r[key] for r in rows)), digits) for f in (min, max)]

    print(json.dumps({
        "median_identity_r1": med("identity_val_r1"),
        "median_trained_r1": med("trained_val_r1"),
        "median_r1_gain": med("trained_val_r1") - med("identity_val_r1"),
        "median_epoch0_r1": med("epoch0_val_r1"),
        "median_gain_over_epoch0": med("trained_val_r1") - med("epoch0_val_r1"),
        "median_identity_nmi": round(med("identity_val_nmi"), 4),
        "median_trained_nmi": round(med("trained_val_nmi"), 4),
        "median_heldout_r1": round(med("heldout_r1"), 1),
        "heldout_r1_min_max": span("heldout_r1", 1),
        "median_heldout_nmi": round(med("heldout_nmi"), 4),
        "heldout_nmi_min_max": span("heldout_nmi", 4),
        "median_heldout_r1_start": round(med("heldout_r1_start"), 1),
        "median_heldout_r1_laplacian": round(med("heldout_r1_laplacian"), 1),
        "heldout_r1_laplacian_min_max": span("heldout_r1_laplacian", 1),
        "median_heldout_r1_final": round(med("heldout_r1_final"), 1),
        "heldout_r1_final_min_max": span("heldout_r1_final", 1),
        "runtime_seconds": round(time.monotonic() - t0, 1),
    }))


if __name__ == "__main__":
    main()
