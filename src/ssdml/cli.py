"""Command-line front end.

Subcommands: train, eval, propagate, mine, blobs, gradcheck.  Results go
to stdout (or --out) as JSON lines or CSV.  Exit codes: 0 success, 1 usage
error, 2 data or numeric error or a refused allocation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from . import gradcheck as gc
from .data import (load_csv, make_blobs, parse_idx, sample_partition, strip_labels,
                   write_csv)
from .encoder import l2_normalize_rows
from .errors import SsdmlError
from .graph import build_knn
from .mining import mine_triplets
from .propagation import propagate, propagate_dense
from .trainer import (METHODS, TrainConfig, evaluate_checkpoint, load_model,
                      save_model, train)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract here is exit 1
    def error(self, message):
        raise _UsageError(message)


@contextlib.contextmanager
def _out_stream(path):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _add_data_flags(p):
    p.add_argument("--data", help="dataset CSV (features f0.., optional label column)")
    p.add_argument("--images-idx", help="IDX image file (use with --labels-idx)")
    p.add_argument("--labels-idx", help="IDX label file (use with --images-idx)")


# Help text for each TrainConfig field that `train` exposes, in --help order.
# The flag's name, type and default come from the field; `val_fraction`
# stays library-only.
_TRAIN_HELP = {
    "method": "graph-triplet method or a classical pairwise baseline",
    "gamma": "affinity propagation weight",
    "k": "kNN graph degree",
    "alpha_deg": "angular loss angle in degrees",
    "embed_dim": "embedding dimension l",
    "lr": "encoder SGD learning rate",
    "batch_triplets": "mini-batch size in triplets (pairs for baselines)",
    "partition_size": "unlabeled rows per partition (0 = all)",
    "epochs_per_partition": None,
    "max_epochs": "total training epochs across partitions",
    "inner_l_iters": "metric optimizer steps per batch (ours only: seraph takes "
                     "one step per batch, lrml solves in closed form)",
    "seed": "run seed (drives every RNG stream)",
    "orth": "keep the metric factor orthonormal (Stiefel steps); lrml requires it",
    "encoder": "train the affine encoder alongside the metric",
    "seraph_eta": "entropy baseline distance threshold",
    "seraph_mu": "entropy baseline unlabeled weight",
    "seraph_lambda": "entropy baseline trace weight (acts only with --no-orth)",
    "lrml_gamma_s": "Laplacian baseline similar-pair weight",
    "lrml_gamma_d": "Laplacian baseline dissimilar-pair weight",
}


def _add_config_flags(p, names):
    defaults = TrainConfig()
    for name in names:
        default = getattr(defaults, name)
        if isinstance(default, bool):
            kind = dict(action=argparse.BooleanOptionalAction)
        elif name == "method":
            kind = dict(choices=METHODS)
        else:
            kind = dict(type=type(default))
        p.add_argument("--" + name.replace("_", "-"), default=default,
                       help=_TRAIN_HELP[name], **kind)


def _add_partition_flags(p):
    """Partition, graph and output flags shared by propagate and mine."""
    _add_config_flags(p, ("gamma", "k", "partition_size"))
    p.add_argument("--seed", type=int, default=0, help="partition sampling seed")
    p.add_argument("--out", help="CSV path (default stdout)")


def _load_dataset(args):
    if args.data:
        return load_csv(args.data)
    if args.images_idx and args.labels_idx:
        return parse_idx(args.images_idx, args.labels_idx)
    raise _UsageError("provide --data or both --images-idx and --labels-idx")


def _cmd_train(args) -> int:
    dataset = _load_dataset(args)
    config = TrainConfig(**{name: getattr(args, name) for name in _TRAIN_HELP})
    model = train(dataset, config)
    if args.model:
        save_model(model, args.model)
    with _out_stream(args.out) as out:
        for rec in model.history:
            out.write(json.dumps(rec) + "\n")
    return 0


def _cmd_eval(args) -> int:
    try:
        ks = tuple(int(v) for v in args.recall_ks.split(","))
    except ValueError:
        raise _UsageError(f"--recall-ks must be comma-separated integers, "
                          f"got {args.recall_ks!r}") from None
    if min(ks) < 1:  # a K >= n depends on the data, so it stays a data error
        raise _UsageError(f"--recall-ks must be >= 1, got {args.recall_ks!r}")
    dataset = _load_dataset(args)
    model = load_model(args.model)
    report = evaluate_checkpoint(model, dataset, ks=ks, seed=args.seed)
    with _out_stream(args.out) as out:
        out.write(json.dumps(report.as_json_dict()) + "\n")
    return 0


def _partition_graph(args):
    dataset = _load_dataset(args)
    rows = sample_partition(dataset, args.partition_size, args.seed)
    Z = l2_normalize_rows(dataset.features[rows])
    return build_knn(Z, args.k), dataset.labels[rows]


def _cmd_propagate(args) -> int:
    graph, labels = _partition_graph(args)
    W = propagate_dense(graph, labels, args.gamma)
    with _out_stream(args.out) as out:
        np.savetxt(out, W, fmt="%.17g", delimiter=",")
    return 0


def _cmd_mine(args) -> int:
    graph, labels = _partition_graph(args)
    triplets = mine_triplets(propagate(graph, labels, args.gamma), graph)
    with _out_stream(args.out) as out:
        np.savetxt(out, triplets, fmt="%d", delimiter=",",
                   header="anchor,positive,negative", comments="")
    return 0


def _cmd_blobs(args) -> int:
    dataset = make_blobs(args.classes, args.per_class, args.signal_dims,
                         args.noise_dims, args.sep, args.noise_sigma, args.seed)
    if args.labeled_per_class is not None:
        dataset = strip_labels(dataset, args.labeled_per_class, seed=args.seed)
    with _out_stream(args.out) as out:
        write_csv(dataset, out)
    return 0


def _cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise _UsageError(f"--trials must be >= 1, got {args.trials}")
    errors = gc.run_all(seed=args.seed, trials=args.trials)
    ok = True
    for name, err in errors.items():
        status = "ok" if err <= gc.REL_TOL else "FAIL"
        print(f"{name}: max relative error {err:.3e} [{status}]")
        ok = ok and err <= gc.REL_TOL
    return 0 if ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="ssdml", description=__doc__,
                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = dict(formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    p = sub.add_parser("train", help="learn a metric (and optional encoder)", **fmt)
    _add_data_flags(p)
    _add_config_flags(p, _TRAIN_HELP)
    p.add_argument("--model", help="where to write the trained model")
    p.add_argument("--out", help="history JSON-lines path (default stdout)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model on a labeled dataset", **fmt)
    _add_data_flags(p)
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--recall-ks", default="1,2,4,8",
                   help="comma-separated Recall@K cutoffs")
    p.add_argument("--seed", type=int, default=0, help="evaluation k-means seed")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("propagate", help="dump the propagated affinity matrix", **fmt)
    _add_data_flags(p)
    _add_partition_flags(p)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("mine", help="dump mined triplets as CSV", **fmt)
    _add_data_flags(p)
    _add_partition_flags(p)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("blobs", help="generate a synthetic blob dataset", **fmt)
    p.add_argument("--classes", type=int, required=True, help="class count")
    p.add_argument("--per-class", type=int, required=True,
                   help="points per class")
    p.add_argument("--signal-dims", type=int, default=5,
                   help="class-separated leading dimensions")
    p.add_argument("--noise-dims", type=int, default=45,
                   help="class-independent nuisance dimensions")
    p.add_argument("--sep", type=float, default=6.0,
                   help="class mean magnitude in the signal block")
    p.add_argument("--noise-sigma", type=float, default=4.0,
                   help="per-dimension noise standard deviation")
    p.add_argument("--labeled-per-class", type=int, default=None,
                   help="keep this many labels per class (default: keep all)")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_blobs)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of all analytic gradients",
                       **fmt)
    p.add_argument("--seed", type=int, default=0, help="instance generator seed")
    p.add_argument("--trials", type=int, default=100,
                   help="random instances per gradient suite")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SsdmlError, OSError, MemoryError) as exc:
        # OSError: unreadable input, unwritable output; MemoryError: a
        # refused allocation, which may carry no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
