"""Orchestration: alternation, model selection, serialization, determinism."""

import warnings

import numpy as np
import pytest

import ssdml
from ssdml import encoder as enc_mod
from ssdml import metric, trainer
from ssdml.baselines import _entropy_terms
from ssdml.data import Dataset, sample_partition
from ssdml.errors import ConfigError
from ssdml.evaluation import EvalReport
from ssdml.trainer import (Model, TrainConfig, TrainingDiverged,
                           evaluate_checkpoint, load_model, save_model, train)


def small_semi_dataset(seed=1, noise=1.5):
    blobs = ssdml.make_blobs(4, 40, 3, 5, 6.0, noise, seed=seed)
    return ssdml.strip_labels(blobs, 8, seed=seed)


def shuffled_signal_dataset(seed=1):
    """Signal columns moved to the end so the initial projection is blind."""
    blobs = ssdml.make_blobs(4, 60, 3, 17, 5.0, 2.0, seed=seed)
    perm = np.roll(np.arange(20), -3)
    shuffled = Dataset(blobs.features[:, perm], blobs.labels, blobs.n_classes)
    return ssdml.strip_labels(shuffled, 10, seed=seed)


FAST = dict(k=4, embed_dim=4, batch_triplets=50, max_epochs=4,
            epochs_per_partition=2, inner_l_iters=5)


def full_rows_train_ours(dataset, config):
    """Oracle for train(method="ours", encoder=True): the same alternation,
    but the loss, the embedding gradient and the encoder run on every row
    of the partition, and the rows are re-encoded after each encoder step.

    Returns (history, L, encoder) of the best-validation checkpoint.
    """
    train_ds, val_ds, (batch_seed, eval_seed, _, partition_seeds) = \
        trainer._split(dataset, config)
    L = trainer._initial_L(train_ds.dim, config.embed_dim)
    encoder = enc_mod.Encoder.initial(train_ds.dim)
    t = metric.tan2(config.alpha_deg)

    def validate(epoch, partition, loss):
        report = evaluate_checkpoint(Model(L, encoder, None), val_ds, ks=(1,),
                                     seed=eval_seed)
        trainer._record(history, epoch, partition, loss, report.nmi, report.recall_at[1])
        return report.recall_at[1]

    history = []
    best = (validate(0, None, None), L.copy(), encoder.copy())
    epoch, step = 0, trainer.METRIC_MAX_STEP
    for p, part_seed in enumerate(partition_seeds):
        rows = sample_partition(train_ds, config.partition_size, part_seed)
        X = train_ds.features[rows]
        Z = enc_mod.forward(encoder, X)
        graph = ssdml.build_knn(Z, config.k)
        aff = ssdml.propagate(graph, train_ds.labels[rows], config.gamma)
        triplets = ssdml.mine_triplets(aff, graph)
        for _ in range(config.epochs_per_partition):
            if epoch >= config.max_epochs:
                break
            epoch += 1
            epoch_loss = 0.0
            for idx in ssdml.batch_triplets(triplets, config.batch_triplets,
                                            seed=batch_seed, epoch=epoch):
                W = metric.triplet_diffs(Z, idx)

                def fun_and_grad(Lm, W=W):
                    return metric.loss_and_grad(Lm, W, t)

                res = ssdml.optimize_L(L, fun_and_grad, max_iter=config.inner_l_iters,
                                       step0=step, max_step=trainer.METRIC_MAX_STEP)
                L, step = res.L, res.step
                epoch_loss += res.objective
                upstream = metric.embedding_grad(L, W, idx, Z.shape[0], t)
                grads = enc_mod.backward(encoder, X, upstream,
                                         enc_mod.forward_pass(encoder, X))
                encoder = enc_mod.sgd_update(encoder, grads, config.lr)
                Z = enc_mod.forward(encoder, X)
            r1 = validate(epoch, p, epoch_loss / len(triplets))
            if r1 > best[0]:
                best = (r1, L.copy(), encoder.copy())
    return history, best[1], best[2]


def test_protocol_defaults_pinned():
    cfg = TrainConfig()
    assert cfg.gamma == 0.99
    assert cfg.k == 10
    assert cfg.alpha_deg == 40.0
    assert cfg.batch_triplets == 100
    assert cfg.lr == 1e-4
    assert cfg.epochs_per_partition == 10
    assert cfg.max_epochs == 50
    assert cfg.inner_l_iters == 10
    assert cfg.val_fraction == 0.15
    assert cfg.method == "ours" and cfg.orth and not cfg.encoder


def test_val_fraction_is_a_class_constant_not_a_field():
    from dataclasses import asdict

    assert "val_fraction" not in asdict(TrainConfig())
    with pytest.raises(TypeError, match="val_fraction"):
        TrainConfig(val_fraction=0.2)


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="method"):
            train(small_semi_dataset(), TrainConfig(method="??", **FAST))

    def test_odd_k_for_ours(self):
        cfg = dict(FAST)
        cfg["k"] = 5
        with pytest.raises(ConfigError, match="even"):
            train(small_semi_dataset(), TrainConfig(**cfg))

    def test_embed_dim_beyond_input(self):
        cfg = dict(FAST)
        cfg["embed_dim"] = 99
        with pytest.raises(ConfigError, match="embed_dim"):
            train(small_semi_dataset(), TrainConfig(**cfg))

    def test_encoder_only_for_ours(self):
        with pytest.raises(ConfigError, match="encoder"):
            train(small_semi_dataset(),
                  TrainConfig(method="lrml", encoder=True, **FAST))

    @pytest.mark.parametrize("method", ["lrml", "seraph"])
    def test_baselines_have_no_orth_false_mode(self, method):
        # LRML's closed form is orthonormal by construction, and SERAPH is
        # fitted on the Stiefel manifold like the paper's metric
        with pytest.raises(ConfigError, match="orth"):
            train(small_semi_dataset(), TrainConfig(method=method, orth=False, **FAST))

    def test_no_labeled_rows(self):
        ds = Dataset(np.random.default_rng(0).standard_normal((10, 8)),
                     np.full(10, -1), 0)
        with pytest.raises(ConfigError, match="labeled"):
            train(ds, TrainConfig(**FAST))


class TestTrainOurs:
    def test_learning_beats_blind_initial_projection(self):
        ds = shuffled_signal_dataset()
        cfg = TrainConfig(seed=1, k=6, embed_dim=5, batch_triplets=60,
                          max_epochs=20, epochs_per_partition=10)
        model = train(ds, cfg)
        r1 = [h["val_r1"] for h in model.history]
        assert max(r1) > r1[0] + 20.0
        assert max(h["val_r1"] for h in model.history[1:]) > r1[0]

    def test_noop_training_returns_initial_L(self):
        ds = small_semi_dataset()
        cfg = TrainConfig(encoder=False, orth=False, inner_l_iters=0,
                          k=4, embed_dim=3, batch_triplets=50,
                          max_epochs=2, epochs_per_partition=1)
        model = train(ds, cfg)
        L0 = np.zeros((ds.dim, 3))
        L0[:3, :3] = np.eye(3)
        assert np.array_equal(model.L, L0)

    def test_history_record_shape(self):
        model = train(small_semi_dataset(), TrainConfig(**FAST))
        assert len(model.history) == 1 + 4  # epoch 0 + max_epochs
        for rec in model.history:
            assert set(rec) == {"epoch", "partition", "loss", "val_nmi", "val_r1"}
        assert model.history[0]["loss"] is None
        assert all(rec["loss"] > 0 for rec in model.history[1:])

    def test_orthonormal_metric_factor(self):
        model = train(small_semi_dataset(), TrainConfig(**FAST))
        l = model.L.shape[1]
        assert np.linalg.norm(model.L.T @ model.L - np.eye(l)) <= 1e-8

    def test_no_orth_ablation_leaves_manifold_allowed(self):
        cfg = dict(FAST)
        model = train(small_semi_dataset(), TrainConfig(orth=False, **cfg))
        assert np.isfinite(model.L).all()

    def test_encoder_training_runs_and_keeps_unit_norm_outputs(self):
        from ssdml.encoder import forward

        ds = small_semi_dataset()
        model = train(ds, TrainConfig(encoder=True, lr=1e-3, **FAST))
        assert model.encoder is not None
        Z = forward(model.encoder, ds.features)
        assert np.abs(np.linalg.norm(Z, axis=1) - 1.0).max() <= 1e-12

    def test_batch_local_step_matches_full_rows_oracle(self):
        # only the float summation order of the encoder step differs
        ds = shuffled_signal_dataset()
        cfg = TrainConfig(encoder=True, lr=1e-3, seed=1, k=6, embed_dim=5,
                          batch_triplets=60, max_epochs=4, epochs_per_partition=2,
                          inner_l_iters=5)
        model = train(ds, cfg)
        history, L, encoder = full_rows_train_ours(ds, cfg)
        # the checkpoint compared below is a trained one, not the start
        assert max(history, key=lambda h: h["val_r1"])["epoch"] > 0
        assert len(model.history) == len(history) == 5
        for got, want in zip(model.history, history):
            assert got.keys() == want.keys()
            for key, value in want.items():
                assert got[key] == (value if value is None or isinstance(value, int)
                                    else pytest.approx(value, rel=1e-9)), key
        np.testing.assert_allclose(model.L, L, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(model.encoder.A, encoder.A, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(model.encoder.b, encoder.b, rtol=1e-9, atol=1e-12)

    def test_frozen_encoder_equals_linear_training_on_raw(self):
        # identity encoder at lr 0  ==  plain linear metric learning on the
        # (l2-normalized) raw features
        ds = small_semi_dataset()
        frozen = train(ds, TrainConfig(encoder=True, lr=0.0, **FAST))
        linear = train(ds, TrainConfig(encoder=False, **FAST))
        assert frozen.history == linear.history
        assert np.array_equal(frozen.L, linear.L)

    def test_divergence_aborts_with_history(self, monkeypatch):
        loss_and_grad = metric.loss_and_grad

        def nan_loss(L, W, t):
            return np.nan, loss_and_grad(L, W, t)[1]

        monkeypatch.setattr(metric, "loss_and_grad", nan_loss)
        with pytest.raises(TrainingDiverged) as err:
            train(small_semi_dataset(), TrainConfig(**FAST))
        history = err.value.history
        assert isinstance(history, list) and history
        assert [rec["epoch"] for rec in history] == list(range(len(history)))


# five epochs over partitions of two: the last partition is cut to one
DRIVER = dict(FAST, max_epochs=5, epochs_per_partition=2)
DRIVER_RUNS = {m: dict(method=m) for m in trainer.METHODS}
DRIVER_RUNS["ours-encoder"] = dict(method="ours", encoder=True, lr=1e-3)


class TestDriver:
    @pytest.mark.parametrize("method", trainer.METHODS)
    def test_epoch_and_partition_schedule(self, method):
        model = train(small_semi_dataset(), TrainConfig(method=method, **DRIVER))
        got = [(rec["epoch"], rec["partition"]) for rec in model.history]
        assert got == [(0, None), (1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]

    @pytest.mark.parametrize("run", DRIVER_RUNS.values(), ids=list(DRIVER_RUNS))
    def test_keeps_first_best_checkpoint(self, run, monkeypatch):
        scripted = [10.0, 30.0, 20.0, 30.0, 5.0, 0.0]  # by epoch
        seen = record_checkpoints(monkeypatch)

        def scripted_report(model, dataset, ks, seed):
            # scored right after its epoch's yield: the latest checkpoint
            assert same_checkpoint((model.L, model.encoder), seen[-1])
            return EvalReport(nmi=0.5, recall_at={1: scripted[len(seen) - 1]})

        monkeypatch.setattr(trainer, "evaluate_checkpoint", scripted_report)
        # partitions of 100 of the 128 unlabeled rows differ, and so do the
        # checkpoints of LRML, which repeats one solution within a partition
        model = train(small_semi_dataset(), TrainConfig(**run, **DRIVER, partition_size=100))
        assert len(seen) == 6
        # an epoch that repeats the previous checkpoint repeats its record
        expected = scripted[:1]
        for e in range(1, 6):
            repeat = same_checkpoint(seen[e], seen[e - 1])
            expected.append(expected[-1] if repeat else scripted[e])
        assert [rec["val_r1"] for rec in model.history] == expected
        # the tie at epoch 3 (partition 1) is between distinct checkpoints;
        # the earlier, epoch 1 (partition 0), wins
        assert expected[1] == expected[3] == max(expected)
        (L1, enc1), (L3, _) = seen[1], seen[3]
        assert not np.array_equal(L1, L3)
        assert np.array_equal(model.L, L1)
        if enc1 is None:
            assert model.encoder is None
        else:
            assert np.array_equal(model.encoder.A, enc1.A)
            assert np.array_equal(model.encoder.b, enc1.b)

    @pytest.mark.parametrize("run", [dict(method="lrml"), dict(method="ours", inner_l_iters=0)],
                             ids=["lrml", "ours-frozen"])
    def test_unchanged_checkpoint_is_scored_once(self, run, monkeypatch):
        seen = record_checkpoints(monkeypatch)
        calls = count_calls(monkeypatch, ["evaluate_checkpoint"])
        dataset = small_semi_dataset()
        config = TrainConfig(**{**DRIVER, **run})
        model = train(dataset, config)
        # every partition holds the same rows: LRML solves one L, and the
        # frozen run never moves its start
        distinct = 1 + sum(not same_checkpoint(a, b) for a, b in zip(seen[1:], seen))
        assert distinct == (2 if run["method"] == "lrml" else 1)
        assert calls["evaluate_checkpoint"] == distinct
        assert len(seen) == len(model.history) == 6
        _, val_ds, (_, eval_seed, _, _) = trainer._split(dataset, config)
        for (L, enc), rec in zip(seen, model.history):
            fresh = evaluate_checkpoint(Model(L, enc, None), val_ds, ks=(1,), seed=eval_seed)
            assert (rec["val_r1"], rec["val_nmi"]) == (fresh.recall_at[1], fresh.nmi)

    @pytest.mark.parametrize("run", DRIVER_RUNS.values(), ids=list(DRIVER_RUNS))
    def test_history_scores_are_evaluate_checkpoint(self, run):
        # the kept checkpoint's record is its held-out-style report on the
        # validation split, bit for bit
        dataset = small_semi_dataset()
        config = TrainConfig(**run, **DRIVER)
        model = train(dataset, config)
        _, val_ds, (_, eval_seed, _, _) = trainer._split(dataset, config)
        report = evaluate_checkpoint(model, val_ds, ks=(1,), seed=eval_seed)
        kept = max(model.history, key=lambda rec: rec["val_r1"])
        assert (kept["val_r1"], kept["val_nmi"]) == (report.recall_at[1], report.nmi)


class TestRunCheckpoints:
    """_run() makes train()'s one run and hands back its last checkpoint
    too."""

    @pytest.mark.parametrize("run", [dict(method="ours", encoder=True, lr=1e-3),
                                     dict(method="seraph"), dict(method="lrml")],
                             ids=["ours-encoder", "seraph", "lrml"])
    def test_last_checkpoint_is_the_epoch_generators_last(self, run):
        dataset, config = small_semi_dataset(), TrainConfig(**run, **FAST)
        model, last = trainer._run(dataset, config)
        train_ds, _, seeds = trainer._split(dataset, config)
        *_, (_, loss, L, encoder) = trainer._epochs(config, train_ds, seeds)
        assert same_checkpoint(last, (L, encoder))
        assert model.history[-1]["loss"] == float(loss)
        assert model.history == train(dataset, config).history


class TestPartitionReuse:
    """A partition whose rows (and, for `ours`, representations Z) equal the
    previous partition's reuses its graph, affinities and triplets, or its
    LRML solution."""

    @pytest.mark.parametrize("run, partition_size, distinct", [
        (dict(method="ours"), 0, 1),
        (dict(method="ours"), 100, 3),
        (dict(method="ours", encoder=True, lr=1e-3), 0, 3),  # Z moves each partition
        (dict(method="lrml"), 0, 1),
        (dict(method="lrml"), 100, 3),
    ], ids=["ours-same-rows", "ours-sampled", "ours-encoder", "lrml-same-rows",
            "lrml-sampled"])
    def test_one_graph_per_distinct_partition(self, monkeypatch, run, partition_size,
                                              distinct):
        calls = count_calls(monkeypatch, ["build_knn", "propagate"])
        config = TrainConfig(**run, **DRIVER, partition_size=partition_size)
        model = train(small_semi_dataset(), config)
        assert sorted({rec["partition"] for rec in model.history[1:]}) == [0, 1, 2]
        assert calls == {"build_knn": distinct,
                         "propagate": distinct if run["method"] == "ours" else 0}

    @pytest.mark.parametrize("method, module, name", [
        ("seraph", trainer, "_all_labeled_pairs"),
        ("lrml", ssdml.baselines, "class_pair_rows"),
    ], ids=["seraph", "lrml"])
    def test_label_only_work_runs_once(self, monkeypatch, method, module, name):
        # every partition starts with the same labeled rows
        calls = count_calls(monkeypatch, [name], module)
        config = TrainConfig(method=method, **FAST, partition_size=100)
        model = train(small_semi_dataset(), config)
        assert sorted({rec["partition"] for rec in model.history[1:]}) == [0, 1]
        assert calls == {name: 1}

    @pytest.mark.parametrize("run", [dict(method="ours"), dict(method="lrml"),
                                     dict(method="ours", encoder=True, lr=1e-3)],
                             ids=["ours", "lrml", "ours-encoder"])
    def test_reuse_changes_no_bit(self, monkeypatch, run):
        dataset, config = small_semi_dataset(), TrainConfig(**run, **DRIVER)
        reused = train(dataset, config)
        # no two keys compare equal: every partition is built and every
        # epoch scored afresh
        monkeypatch.setattr(trainer, "_bits", lambda *arrays: object())
        fresh = train(dataset, config)
        assert reused.history == fresh.history
        assert np.array_equal(reused.L, fresh.L)
        if reused.encoder is not None:
            assert np.array_equal(reused.encoder.A, fresh.encoder.A)
            assert np.array_equal(reused.encoder.b, fresh.encoder.b)


class TestValidationSizeWarning:
    def test_two_rows_per_class_warn(self):
        # criterion 8's split: 10 labels per class leave 2 per class
        blobs = ssdml.make_blobs(4, 40, 3, 5, 6.0, 1.5, seed=1)
        with pytest.warns(UserWarning) as caught:
            train(ssdml.strip_labels(blobs, 10, seed=1), TrainConfig(**FAST))
        assert [str(w.message).split(";")[0] for w in caught] == [
            "validation split has fewer than 3 rows in class(es) [0, 1, 2, 3]"]
        assert caught[0].filename == __file__  # train()'s caller

    def test_three_rows_per_class_are_quiet(self):
        blobs = ssdml.make_blobs(4, 40, 3, 5, 6.0, 1.5, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train(ssdml.strip_labels(blobs, 20, seed=1), TrainConfig(**FAST))


class TestTrainBaselines:
    @pytest.mark.parametrize("method", ["seraph", "lrml"])
    def test_baseline_runs_and_improves_on_easy_data(self, method):
        ds = small_semi_dataset()
        model = train(ds, TrainConfig(method=method, **FAST))
        r1 = [h["val_r1"] for h in model.history]
        assert max(r1) >= r1[0]
        assert np.isfinite(model.L).all()
        assert model.encoder is None

    def test_baseline_metric_psd_factorization_shape(self):
        model = train(small_semi_dataset(), TrainConfig(method="lrml", **FAST))
        assert model.L.shape == (8, 4)

    @pytest.mark.parametrize("method", trainer.METHODS)
    def test_inner_l_iters_acts_on_ours_only(self, method):
        # seraph takes one optimize_L step per batch and lrml solves in
        # closed form: neither reads inner_l_iters
        ds = small_semi_dataset()
        one, ten = (train(ds, TrainConfig(method=method, **dict(FAST, inner_l_iters=n)))
                    for n in (1, 10))
        same = one.history == ten.history and np.array_equal(one.L, ten.L)
        assert same == (method != "ours")


def record_checkpoints(monkeypatch):
    """Make train() record the (L, encoder) its epoch generator yields, as
    copies, one per epoch; returns the list they go to."""
    epochs = trainer._epochs
    seen = []

    def recording(*args, **kwargs):
        for partition, loss, L, encoder in epochs(*args, **kwargs):
            seen.append((L.copy(), None if encoder is None else encoder.copy()))
            yield partition, loss, L, encoder

    monkeypatch.setattr(trainer, "_epochs", recording)
    return seen


def count_calls(monkeypatch, names, module=trainer):
    """Count train()'s calls to these functions of `module`; returns the
    name -> count dict the counts go to."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def same_checkpoint(a, b):
    """Whether two (L, encoder) checkpoints are bit-identical."""
    (La, enc_a), (Lb, enc_b) = a, b
    if (enc_a is None) != (enc_b is None):
        return False
    arrays = [(La, Lb)] if enc_a is None else [(La, Lb), (enc_a.A, enc_b.A), (enc_a.b, enc_b.b)]
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in arrays)


def criterion8_dataset(seed=0):
    """Criterion 8's blobs: 10 classes of 200 rows, 5 signal and 45 noise
    dimensions, 10 labels kept per class."""
    blobs = ssdml.make_blobs(10, 200, 5, 45, 6.0, 4.0, seed=seed)
    return ssdml.strip_labels(blobs, 10, seed=seed)


class TestLrmlClosedForm:
    CONFIG = TrainConfig(method="lrml", max_epochs=20)  # two partitions

    def test_every_epoch_of_a_partition_yields_one_orthonormal_rank_l_metric(
            self, monkeypatch):
        seen = record_checkpoints(monkeypatch)
        dataset = criterion8_dataset()
        model = train(dataset, self.CONFIG)
        l = self.CONFIG.embed_dim
        assert len(seen) == len(model.history) == 21
        for L, _ in seen[1:]:
            assert L.shape == (dataset.dim, l) and np.abs(L).max() > 0
            assert np.linalg.matrix_rank(L) == l
            assert np.linalg.norm(L.T @ L - np.eye(l)) <= 1e-10
        for first in (1, 11):  # each partition's epochs repeat its solution
            part = range(first, first + 10)
            assert all(np.array_equal(seen[e][0], seen[first][0]) for e in part)
            assert len({model.history[e]["loss"] for e in part}) == 1

        # the start is every method's first l coordinates, scored on the
        # validation split
        start_L = trainer._initial_L(dataset.dim, l)
        assert np.array_equal(seen[0][0], start_L)
        _, val_ds, (_, eval_seed, _, _) = trainer._split(dataset, self.CONFIG)
        start = evaluate_checkpoint(Model(start_L, None, None), val_ds, ks=(1,), seed=eval_seed)
        assert model.history[0] == {"epoch": 0, "partition": None, "loss": None,
                                    "val_nmi": start.nmi, "val_r1": start.recall_at[1]}

    def test_reruns_are_bit_identical(self):
        dataset = criterion8_dataset()
        a, b = train(dataset, self.CONFIG), train(dataset, self.CONFIG)
        assert a.history == b.history
        assert np.array_equal(a.L, b.L)


def heldout_r1(L, blobs, semi):
    """Recall@1 of the unlabeled rows, scored with their true labels."""
    rows = semi.unlabeled_indices
    Z = enc_mod.l2_normalize_rows(blobs.features[rows])
    return ssdml.recall_at_k(metric.embed(L, Z), blobs.labels[rows], ks=(1,))[1]


def mspace_seraph(L, U, y, V, *, eta, mu):
    """SERAPH's value and L-gradient through M = L L^T: each u^T M u from
    U M, and the chain rule 2 G L from the symmetric gradient G wrt M."""
    M = L @ L.T
    a = np.einsum("ij,ij->i", U @ M, U) - eta
    H, dH = _entropy_terms(np.einsum("ij,ij->i", V @ M, V) - eta)
    obj = float(metric.softplus(y * a).sum()) + mu * float(H.sum())
    G = U.T @ ((y * metric.sigmoid(y * a))[:, None] * U) + mu * (V.T @ (dH[:, None] * V))
    return obj, 2.0 * (((G + G.T) / 2.0) @ L)


class TestSeraphOnStiefel:
    """SERAPH fits M = L L^T by one optimize_L step on L per batch."""

    CONFIG = TrainConfig(method="seraph", max_epochs=10)

    def test_every_yielded_L_is_orthonormal(self, monkeypatch):
        seen = record_checkpoints(monkeypatch)
        train(criterion8_dataset(), self.CONFIG)
        l = self.CONFIG.embed_dim
        assert len(seen) == 11
        assert not np.array_equal(seen[0][0], seen[-1][0])
        for L, _ in seen:
            assert np.linalg.norm(L.T @ L - np.eye(l)) <= 1e-10

    def test_summation_order_moves_heldout_r1_at_most_one_point(self, monkeypatch):
        # the same objective and gradient, summed in another order (through
        # M = L L^T): a chaotic trajectory would amplify the last-digit
        # differences into different metrics
        blobs = ssdml.make_blobs(10, 200, 5, 45, 6.0, 4.0, seed=0)
        semi = ssdml.strip_labels(blobs, 10, seed=0)
        seen = record_checkpoints(monkeypatch)
        train(semi, self.CONFIG)
        gemm = [heldout_r1(L, blobs, semi) for L, _ in seen]
        seen.clear()
        monkeypatch.setattr(ssdml.baselines, "seraph_loss_and_grad", mspace_seraph)
        train(semi, self.CONFIG)
        reordered = [heldout_r1(L, blobs, semi) for L, _ in seen]
        assert len(gemm) == len(reordered) == 11
        assert max(abs(a - b) for a, b in zip(gemm, reordered)) <= 1.0


def test_every_method_starts_from_the_same_checkpoint():
    dataset = small_semi_dataset()
    starts = [train(dataset, TrainConfig(method=m, **FAST)).history[0]
              for m in trainer.METHODS]
    assert starts[0]["epoch"] == 0 and starts[0]["loss"] is None
    assert all(start == starts[0] for start in starts)


class TestDeterminism:
    def test_identical_runs_bit_identical_history(self):
        ds = small_semi_dataset()
        cfg = TrainConfig(seed=7, **FAST)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert a.history == b.history
        assert np.array_equal(a.L, b.L)

    def test_seed_changes_trajectory(self):
        ds = small_semi_dataset()
        a = train(ds, TrainConfig(seed=1, **FAST))
        b = train(ds, TrainConfig(seed=2, **FAST))
        assert a.history != b.history


class TestModelIO:
    def test_round_trip_without_encoder(self, tmp_path):
        model = train(small_semi_dataset(), TrainConfig(**FAST))
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.L, model.L)
        assert back.encoder is None
        assert back.config == model.config
        assert back.history == model.history

    def test_round_trip_with_encoder(self, tmp_path):
        model = train(small_semi_dataset(),
                      TrainConfig(encoder=True, lr=1e-3, **FAST))
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.L, model.L)
        assert np.array_equal(back.encoder.A, model.encoder.A)
        assert np.array_equal(back.encoder.b, model.encoder.b)

    def test_header_line_format(self, tmp_path):
        model = train(small_semi_dataset(), TrainConfig(**FAST))
        path = tmp_path / "m.model"
        save_model(model, path)
        head = path.read_text().splitlines()[0].split()
        assert head[:2] == ["ssdml-model", "v1"]
        assert [int(v) for v in head[2:]] == [8, 4, 0, 1]

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_text("something else\n")
        with pytest.raises(ConfigError):
            load_model(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text('ssdml-model v1 2 1 0 1\n1\n0\n'
                        '{"config": {"seed": 0, "bogus_knob": 3}}\n')
        with pytest.raises(ConfigError, match="line 4.*bogus_knob"):
            load_model(path)


class TestEvaluateCheckpoint:
    def test_identity_model_equals_raw_feature_metrics(self):
        # every model sees the raw features l2-normalized
        ds = ssdml.make_blobs(3, 20, 2, 2, 8.0, 1.0, seed=4)
        model = Model(L=np.eye(4), encoder=None, config=None)
        report = evaluate_checkpoint(model, ds, seed=11)
        raw = ssdml.evaluate_embeddings(enc_mod.l2_normalize_rows(ds.features),
                                        ds.labels, seed=11)
        assert report.nmi == raw.nmi
        assert report.recall_at == raw.recall_at

    def test_report_keys(self):
        ds = ssdml.make_blobs(3, 20, 2, 2, 8.0, 1.0, seed=4)
        model = Model(L=np.eye(4), encoder=None, config=None)
        report = evaluate_checkpoint(model, ds, seed=0)
        assert list(report.as_json_dict()) == ["nmi", "r@1", "r@2", "r@4", "r@8"]

    def test_deterministic(self):
        ds = ssdml.make_blobs(3, 15, 2, 2, 8.0, 1.0, seed=5)
        model = train(ssdml.strip_labels(ds, 6, seed=0), TrainConfig(**FAST))
        a = evaluate_checkpoint(model, ds, seed=3)
        b = evaluate_checkpoint(model, ds, seed=3)
        assert a == b

    def test_dimension_mismatch(self):
        ds = ssdml.make_blobs(3, 10, 2, 0, 8.0, 1.0, seed=6)
        model = Model(L=np.eye(7), encoder=None, config=None)
        with pytest.raises(ConfigError):
            evaluate_checkpoint(model, ds)
