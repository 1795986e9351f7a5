"""Training orchestration: one driver, one epoch generator per method.

`train()`'s one run, `_run`, is the only loop that validates, records the
history, keeps the checkpoint with the best validation Recall@1 and
attaches the history to a `TrainingDiverged`; it also hands back the last
epoch's checkpoint.  It scores a checkpoint only when L or the encoder
differs bit for bit from the previous epoch's; a repeat records the
previous report again.  `_epochs` yields every method's start, the first l
coordinates (`_initial_L`) and the identity encoder when it is on, then
one `(partition, loss, L, encoder)` per epoch from the method's generator,
over the partitions and epochs that `_schedule` hands out.  The paper's
method samples a partition of the unlabeled data, builds a kNN graph over
its representations Z (the l2-normalized inputs, or the encoder's output)
before the metric L is applied, propagates seed affinities, mines triplets,
and then alternates per batch between metric steps and an SGD step on the
encoder.  SERAPH takes one `optimize_L` step per batch of the partition's
labeled and unlabeled pairs instead; LRML solves for an orthonormal L in
closed form once per partition.  Every method fits M = L L^T through L
alone.  Every partition starts with the labeled rows, so work that reads
only them is done once per run.  A partition whose rows (and, for the
paper's method, Z) equal the previous partition's reuses its triplets or
LRML's L: with `partition_size = 0` every partition holds the same rows.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import ClassVar

import numpy as np

from . import baselines as bl
from . import encoder as enc_mod
from . import evaluation, metric
from .data import Dataset, sample_partition, split_validation
from .errors import ConfigError, NumericalError
from .graph import build_knn, knn_laplacian_form
from .manifold import optimize_L
from .mining import batch_triplets, mine_triplets, require_even_k
from .propagation import propagate

METHODS = ("ours", "seraph", "lrml")

MODEL_MAGIC = "ssdml-model"
MODEL_VERSION = "v1"

# Cap on the metric optimizer's line-search step during mini-batch training.
# Batches are small and noisy; unbounded Armijo steps let every batch drag L
# to its private optimum, erasing the consensus built by earlier batches.
METRIC_MAX_STEP = 0.05

# train() warns when some class has fewer validation rows than this: with
# 2 rows per class, each query's Recall@1 hinges on one same-class row.
VAL_MIN_PER_CLASS = 3

# LRML weighs per-pair means of its similar and dissimilar terms against
# this multiple of the kNN smoothness form's mean over n k / 2 edges (the
# undirected edge count were every kNN link mutual).  On the criterion-8
# blobs, seeds 0-2, the solved L reads held-out R@1 75-78, against 22-26
# with plain pair and edge sums.
LRML_LAPLACIAN_WEIGHT = 10.0


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run (defaults follow the small-
    dataset protocol: gamma 0.99, k 10, alpha 40 deg, 100-triplet batches,
    lr 1e-4, 10 epochs per partition, 50 epochs total, 10 metric steps
    per batch; `inner_l_iters` acts on `ours` only: seraph takes one step
    per batch and lrml solves for L in closed form).  `encoder` and
    `orth=False` are options of `ours` only: both baselines fit an
    orthonormal L.  LRML has no weight to set: its similar- and
    dissimilar-pair terms are per-pair means, weighed against the kNN
    term by `LRML_LAPLACIAN_WEIGHT`.  Every field is a `train` flag; the
    validation share `val_fraction` is a class constant."""

    method: str = "ours"
    gamma: float = 0.99
    k: int = 10
    alpha_deg: float = 40.0
    embed_dim: int = 16
    encoder: bool = False
    orth: bool = True
    lr: float = 1e-4
    batch_triplets: int = 100
    partition_size: int = 0  # 0 = use the whole unlabeled set
    epochs_per_partition: int = 10
    max_epochs: int = 50
    inner_l_iters: int = 10
    seed: int = 0
    val_fraction: ClassVar[float] = 0.15
    seraph_eta: float = 1.0
    seraph_mu: float = 1.0


@dataclass
class Model:
    """Learned metric factor, optional encoder, and the run that made them."""

    L: np.ndarray
    encoder: enc_mod.Encoder | None
    config: TrainConfig | None
    history: list = field(default_factory=list)


class TrainingDiverged(NumericalError):
    """Loss became non-finite; carries the history up to the failure."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


def _validate(config: TrainConfig, dataset: Dataset):
    for name, value in asdict(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite (got {value})")
    if config.method not in METHODS:
        raise ConfigError(f"unknown method {config.method!r}; expected one of {METHODS}")
    if not 0.0 <= config.gamma < 1.0:
        raise ConfigError("gamma must lie in [0, 1)")
    if config.k < 2:
        raise ConfigError("k must be >= 2")
    if config.method == "ours":
        require_even_k(config.k)
    if not 0.0 < config.alpha_deg < 90.0:
        raise ConfigError("alpha must lie in (0, 90) degrees")
    if not 1 <= config.embed_dim <= dataset.dim:
        raise ConfigError(
            f"embed_dim must lie in [1, {dataset.dim}] (got {config.embed_dim})"
        )
    if config.lr < 0:
        raise ConfigError("lr must be non-negative")
    if min(config.batch_triplets, config.epochs_per_partition, config.max_epochs) < 1:
        raise ConfigError("batch size and epoch counts must be >= 1")
    if config.inner_l_iters < 0 or config.partition_size < 0:
        raise ConfigError("inner_l_iters and partition_size must be >= 0")
    if config.method != "ours" and (config.encoder or not config.orth):
        raise ConfigError("the trainable encoder and orth=False are options of "
                          "method='ours' only; the baselines fit an orthonormal L")
    if config.seed < 0:
        raise ConfigError("seed must be non-negative")
    if dataset.labeled_indices.size == 0:
        raise ConfigError("dataset has no labeled rows")


def _initial_L(d: int, l: int) -> np.ndarray:
    """Every method's start: the first l coordinates, L^T L = I."""
    L = np.zeros((d, l))
    L[:l, :l] = np.eye(l)
    return L


def _represent(encoder, X):
    """Loss-space representations: encoder output, or l2-normalized rows."""
    if encoder is not None:
        return enc_mod.forward(encoder, X)
    return enc_mod.l2_normalize_rows(X)


def _all_labeled_pairs(y_labeled: np.ndarray):
    """All labeled-node pairs (i < j) with +1/-1 same/different-class tags."""
    i, j = np.triu_indices(y_labeled.size, k=1)
    pairs = np.stack([i, j], axis=1)
    y = np.where(y_labeled[i] == y_labeled[j], 1, -1)
    return pairs, y


def train(dataset: Dataset, config: TrainConfig) -> Model:
    """Run the configured method and return the best-validation model: the
    first epoch (0 = the start) with the highest validation Recall@1."""
    return _run(dataset, config)[0]


def _run(dataset, config):
    """train()'s one run: (the best-validation model, the last epoch's
    (L, encoder))."""
    _validate(config, dataset)
    train_ds, val_ds, seeds = _split(dataset, config)
    if val_ds.n < 2:
        raise ConfigError("validation split has fewer than 2 rows; add labeled data")
    classes = dataset.classes  # the ids the data holds, which may be sparse
    val_counts = np.bincount(np.searchsorted(classes, val_ds.labels[val_ds.labeled_indices]),
                             minlength=classes.size)
    if val_counts.min() < VAL_MIN_PER_CLASS:
        warnings.warn(
            f"validation split has fewer than {VAL_MIN_PER_CLASS} rows in class(es) "
            f"{classes[val_counts < VAL_MIN_PER_CLASS].tolist()}; its Recall@1 "
            "moves in coarse steps, so the kept checkpoint is a noisy pick",
            stacklevel=3,
        )
    epochs = _epochs(config, train_ds, seeds)

    history, best, scored = [], None, None
    try:
        for epoch, (partition, loss, L, encoder) in enumerate(epochs):
            # an epoch that left L and the encoder as they were, bit for bit,
            # would score the same: record the previous report again
            key = _bits(L) if encoder is None else _bits(L, encoder.A, encoder.b)
            if key != scored:
                scored = key
                report = evaluate_checkpoint(Model(L, encoder, None), val_ds,
                                             ks=(1,), seed=seeds[1])
            v_r1 = report.recall_at[1]
            _record(history, epoch, partition, loss, report.nmi, v_r1)
            if best is None or v_r1 > best[0]:
                best = (v_r1, L.copy(), None if encoder is None else encoder.copy())
    except TrainingDiverged as exc:
        exc.history = history
        raise
    return Model(L=best[1], encoder=best[2], config=config, history=history), (L, encoder)


def _split(dataset, config):
    """(train_ds, val_ds, seeds) as train() draws them: the stratified
    validation split, then the batch, eval and pair seeds and the list of
    per-partition seeds, all from one SeedSequence(config.seed)."""
    n_partitions = math.ceil(config.max_epochs / config.epochs_per_partition)
    state = np.random.SeedSequence(config.seed).generate_state(4 + n_partitions).tolist()
    train_ds, val_ds = split_validation(dataset, config.val_fraction, state[0])
    return train_ds, val_ds, (*state[1:4], state[4:])


def _epochs(config, train_ds, seeds):
    """Every method's start, then the configured method's epochs over
    `_schedule`'s partitions."""
    batch_seed, _, pair_seed, partition_seeds = seeds
    L = _initial_L(train_ds.dim, config.embed_dim)
    encoder = enc_mod.Encoder.initial(train_ds.dim) if config.encoder else None
    yield None, None, L, encoder

    schedule = _schedule(config, train_ds, partition_seeds)
    if config.method == "ours":
        yield from _ours_epochs(config, train_ds, schedule, batch_seed, L, encoder)
    elif config.method == "seraph":
        yield from _seraph_epochs(config, train_ds, schedule, batch_seed, pair_seed, L)
    else:
        yield from _lrml_epochs(config, train_ds, schedule)


def _bits(*arrays):
    """The arrays as (shape, bytes) pairs: equal exactly when bit-identical."""
    return tuple((a.shape, a.tobytes()) for a in arrays)


def _record(history, epoch, partition, loss, v_nmi, v_r1):
    history.append({
        "epoch": int(epoch),
        "partition": None if partition is None else int(partition),
        "loss": None if loss is None else float(loss),
        "val_nmi": float(v_nmi),
        "val_r1": float(v_r1),
    })


def _schedule(config, train_ds, partition_seeds):
    """Yield (p, rows, epochs): each partition's node rows and 1-based epoch
    numbers, epochs_per_partition of them, cut off at max_epochs."""
    per = config.epochs_per_partition
    for p, part_seed in enumerate(partition_seeds):
        epochs = range(p * per + 1, min((p + 1) * per, config.max_epochs) + 1)
        yield p, sample_partition(train_ds, config.partition_size, part_seed), epochs


def _ours_epochs(config, train_ds, schedule, batch_seed, L, encoder):
    """The paper's method from (L, encoder): per partition, a kNN graph over
    the partition's representations Z, propagated affinities and mined
    triplets; per batch, Stiefel steps on L and (with the encoder on) one
    SGD step on the encoder."""
    t = metric.tan2(config.alpha_deg)
    step_carry = METRIC_MAX_STEP
    mined, triplets = None, None  # the rows and Z last mined, and their triplets
    for p, rows, epochs in schedule:
        X = train_ds.features[rows]
        y = train_ds.labels[rows]
        Z = _represent(encoder, X)
        if _bits(rows, Z) != mined:  # the same rows and Z give the same triplets
            mined = _bits(rows, Z)
            graph = build_knn(Z, config.k)
            triplets = mine_triplets(propagate(graph, y, config.gamma), graph)

        for epoch in epochs:
            epoch_loss = 0.0
            for batch in batch_triplets(triplets, config.batch_triplets,
                                        seed=batch_seed, epoch=epoch):
                # batch-local step: only the rows this batch's triplets touch
                nodes, local = metric.batch_rows(batch)
                if encoder is None:
                    Zb = Z[nodes]
                else:
                    Xb = X[nodes]
                    encoded = enc_mod.forward_pass(encoder, Xb)
                    Zb = encoded[0]
                W = metric.triplet_diffs(Zb, local)

                def fun_and_grad(Lm, W=W):
                    return metric.loss_and_grad(Lm, W, t)

                res = optimize_L(L, fun_and_grad, max_iter=config.inner_l_iters,
                                 step0=step_carry, orthonormal=config.orth,
                                 max_step=METRIC_MAX_STEP)
                L, step_carry = res.L, res.step
                epoch_loss += res.objective
                if not np.isfinite(epoch_loss):
                    raise TrainingDiverged("angular loss became non-finite")
                if encoder is not None and config.lr > 0:
                    upstream = metric.embedding_grad(L, W, local, nodes.size, t)
                    grads = enc_mod.backward(encoder, Xb, upstream, encoded)
                    encoder = enc_mod.sgd_update(encoder, grads, config.lr)
            yield p, epoch_loss / len(triplets), L, encoder


def _seraph_epochs(config, train_ds, schedule, batch_seed, pair_seed, L):
    """SERAPH from L: per batch of the shuffled labeled pairs and random
    unlabeled pairs of the partition, one Stiefel `optimize_L` step on L."""
    weights = dict(eta=config.seraph_eta, mu=config.seraph_mu)
    step_carry = METRIC_MAX_STEP
    labeled = train_ds.labeled_indices  # every partition's first rows
    pairs, y_pairs = _all_labeled_pairs(train_ds.labels[labeled])
    for p, rows, epochs in schedule:
        Z = _represent(None, train_ds.features[rows])
        unlab_nodes = np.arange(labeled.size, rows.size)

        for epoch in epochs:
            rng = np.random.default_rng(
                np.random.SeedSequence([pair_seed, batch_seed, epoch]))
            order = rng.permutation(len(pairs))
            n_batches = max(1, math.ceil(len(pairs) / config.batch_triplets))
            epoch_loss = 0.0
            for b in range(n_batches):
                sel = order[b * config.batch_triplets:(b + 1) * config.batch_triplets]
                U, by = bl.pair_diffs(Z, pairs[sel]), y_pairs[sel]
                if unlab_nodes.size >= 2:
                    up = np.stack([rng.choice(unlab_nodes, size=len(sel)),
                                   rng.choice(unlab_nodes, size=len(sel))], axis=1)
                    V = bl.pair_diffs(Z, up[up[:, 0] != up[:, 1]])
                else:
                    V = np.zeros((0, train_ds.dim))

                def fun_and_grad(Lm, U=U, by=by, V=V):
                    return bl.seraph_loss_and_grad(Lm, U, by, V, **weights)

                res = optimize_L(L, fun_and_grad, max_iter=1, step0=step_carry,
                                 max_step=METRIC_MAX_STEP)
                L, step_carry = res.L, res.step
                epoch_loss += res.objective
                if not np.isfinite(epoch_loss):
                    raise TrainingDiverged("baseline objective became non-finite")
            yield p, epoch_loss / n_batches, L, None


def _lrml_epochs(config, train_ds, schedule):
    """LRML over M = L L^T with L^T L = I: per partition, one symmetric G, the
    gradient of the objective, which is linear in M, and the L of G's l
    smallest eigenvalues, the minimizer of Tr(L^T G L) = objective(L L^T).
    Every epoch of the partition yields that L."""
    labeled = train_ds.labeled_indices  # every partition's first rows
    S, D, n_sim, n_dis = bl.class_pair_rows(_represent(None, train_ds.features[labeled]),
                                            train_ds.labels[labeled])
    solved = None  # the rows of the last partition solved
    for p, rows, epochs in schedule:
        if _bits(rows) != solved:  # the same rows give the same G and L
            solved = _bits(rows)
            Z = _represent(None, train_ds.features[rows])
            quad = knn_laplacian_form(build_knn(Z, config.k), Z) \
                * (2.0 * LRML_LAPLACIAN_WEIGHT / (rows.size * config.k))
            G = bl.lrml_gradient(S, D, quad, gamma_s=1.0 / max(n_sim, 1),
                                 gamma_d=1.0 / max(n_dis, 1))
            if not np.isfinite(G).all():
                raise TrainingDiverged("LRML objective became non-finite")
            L, loss = bl.stiefel_minimizer(G, config.embed_dim)
        for _ in epochs:
            yield p, loss, L, None


def evaluate_checkpoint(model: Model, dataset: Dataset,
                        ks=evaluation.DEFAULT_RECALL_KS, seed=0):
    """Embed a labeled dataset through the model and score it."""
    rows = dataset.labeled_indices
    if rows.size < 2:
        raise ConfigError("evaluation needs at least 2 labeled rows")
    X = dataset.features[rows]
    y = dataset.labels[rows]
    if X.shape[1] != (model.L.shape[0] if model.encoder is None else model.encoder.d_in):
        raise ConfigError("dataset dimension does not match the model")
    E = metric.embed(model.L, _represent(model.encoder, X))
    return evaluation.evaluate_embeddings(E, y, ks=ks, seed=seed)


def save_model(model: Model, path) -> None:
    """Text format: header, row-major matrices at 17 significant digits,
    then one JSON line for the config and one per history record.  The
    header's last field is always 1: inputs reach L l2-normalized."""
    has_enc = model.encoder is not None
    d, l = model.L.shape
    with open(path, "w") as fh:
        fh.write(f"{MODEL_MAGIC} {MODEL_VERSION} {d} {l} {int(has_enc)} 1\n")
        np.savetxt(fh, model.L, fmt="%.17g")
        if has_enc:
            np.savetxt(fh, model.encoder.A, fmt="%.17g")
            np.savetxt(fh, model.encoder.b[None], fmt="%.17g")
        if model.config is not None:
            fh.write(json.dumps({"config": asdict(model.config)}) + "\n")
        for rec in model.history:
            fh.write(json.dumps(rec) + "\n")


def load_model(path) -> Model:
    """Inverse of save_model; matrices reload bit-exactly.  A config record
    must agree with the header: its `encoder` flag with the encoder block,
    its `embed_dim` with l."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise ConfigError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 6 or head[0] != MODEL_MAGIC or head[1] != MODEL_VERSION:
        raise ConfigError(f"{path}: not a {MODEL_MAGIC} {MODEL_VERSION} file")
    try:
        d, l, has_enc, norm = (int(v) for v in head[2:])
    except ValueError:
        raise ConfigError(f"{path}: header fields must be integers") from None
    if min(d, l) < 1 or has_enc not in (0, 1) or norm != 1:
        raise ConfigError(f"{path}: header needs d, l >= 1, a 0/1 encoder flag "
                          "and 1 (l2-normalized inputs)")
    pos = 1

    def take_matrix(rows, cols):
        nonlocal pos
        block = lines[pos:pos + rows]
        if len(block) != rows:
            raise ConfigError(f"{path}: truncated matrix block")
        pos += rows
        try:
            mat = np.array([[float(v) for v in ln.split()] for ln in block])
        except ValueError as exc:
            raise ConfigError(f"{path}: bad matrix entry ({exc})") from None
        if mat.shape != (rows, cols):
            raise ConfigError(f"{path}: bad matrix shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ConfigError(f"{path}: non-finite matrix entry")
        return mat

    L = take_matrix(d, l)
    encoder = None
    if has_enc:
        A = take_matrix(d, d)
        b = take_matrix(1, d)[0]
        encoder = enc_mod.Encoder(A=A, b=b)
    config = None
    history = []
    for lineno, ln in enumerate(lines[pos:], start=pos + 1):
        if not ln.strip():
            continue
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {lineno}: bad JSON record ({exc.msg})") from None
        if not isinstance(rec, dict):
            raise ConfigError(f"{path}: line {lineno}: record is not a JSON object")
        if "config" in rec:
            fields = rec["config"]
            # older files record "normalize": true, the only mode left,
            # SERAPH's trace weight, a constant under L^T L = I, LRML's pair
            # weights, now fixed per-pair means, and the validation share
            if isinstance(fields, dict):
                for retired in ("seraph_lambda", "lrml_gamma_s", "lrml_gamma_d", "val_fraction"):
                    fields.pop(retired, None)
                if fields.pop("normalize", True) is not True:
                    raise ConfigError(f"{path}: line {lineno}: "
                                      "raw-feature models are not supported")
            try:
                config = TrainConfig(**fields)
            except TypeError as exc:
                raise ConfigError(f"{path}: line {lineno}: bad config ({exc})") from None
            if config.encoder != bool(has_enc) or config.embed_dim != l:
                raise ConfigError(f"{path}: line {lineno}: config record (encoder "
                                  f"{config.encoder}, embed_dim {config.embed_dim}) "
                                  f"disagrees with the header (encoder {bool(has_enc)}, "
                                  f"l {l})")
        else:
            history.append(rec)
    return Model(L=L, encoder=encoder, config=config, history=history)
