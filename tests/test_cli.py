"""Command-line interface: subcommands, outputs, exit codes."""

import csv
import json
import time

import numpy as np
import pytest

import ssdml
from ssdml import cli, propagation
from ssdml import gradcheck as gc
from ssdml.cli import build_parser, run
from ssdml.encoder import l2_normalize_rows
from ssdml.graph import build_knn
from ssdml.mining import mine_triplets


def run_cli(args):
    return run([str(a) for a in args])


def partition_graph(csv_path, k):
    """The graph `propagate` and `mine` build at their default partition."""
    dataset = ssdml.load_csv(csv_path)
    rows = ssdml.sample_partition(dataset, 0, 0)
    return build_knn(l2_normalize_rows(dataset.features[rows]), k), dataset.labels[rows]


@pytest.fixture()
def blob_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    code = run_cli(["blobs", "--classes", 3, "--per-class", 20,
                    "--signal-dims", 2, "--noise-dims", 3, "--sep", 8.0,
                    "--noise-sigma", 1.0, "--labeled-per-class", 6,
                    "--seed", 1, "--out", path])
    assert code == 0
    return path


class TestBlobs:
    def test_writes_loadable_csv(self, blob_csv):
        ds = ssdml.load_csv(blob_csv)
        assert (ds.n, ds.dim, ds.n_classes) == (60, 5, 3)
        assert ds.labeled_indices.size == 18

    def test_stdout_when_no_out(self, capsys):
        assert run_cli(["blobs", "--classes", 2, "--per-class", 3,
                        "--signal-dims", 2, "--noise-dims", 0]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "f0,f1,label"


class TestTrainEval:
    def test_pipeline_smoke(self, blob_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        code = run_cli(["train", "--data", blob_csv, "--method", "ours",
                        "--k", 4, "--embed-dim", 3, "--batch-triplets", 40,
                        "--max-epochs", 2, "--epochs-per-partition", 1,
                        "--inner-l-iters", 3, "--model", model_path])
        assert code == 0
        history = [json.loads(ln) for ln in
                   capsys.readouterr().out.strip().splitlines()]
        assert len(history) == 3  # epoch 0 + 2 epochs
        assert model_path.exists()

        code = run_cli(["eval", "--data", blob_csv, "--model", model_path])
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert list(report) == ["nmi", "r@1", "r@2", "r@4", "r@8"]

    def test_eval_custom_ks(self, blob_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        run_cli(["train", "--data", blob_csv, "--k", 4, "--embed-dim", 3,
                 "--batch-triplets", 40, "--max-epochs", 1,
                 "--epochs-per-partition", 1, "--model", model_path])
        capsys.readouterr()
        assert run_cli(["eval", "--data", blob_csv, "--model", model_path,
                        "--recall-ks", "1,3"]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert list(report) == ["nmi", "r@1", "r@3"]

    def test_sparse_class_ids_train_like_dense_ones(self, tmp_path, capsys):
        # ids 0 and 100,000,000 make n_classes 100,000,001; only the two
        # classes the data holds may be looped over, counted or clustered.
        # An id past int64 numbers the labels by first appearance instead.
        features = np.random.default_rng(23).standard_normal((60, 4))
        outputs = []
        for second in (100_000_000, 1, 10**20 - 1):
            path, model = tmp_path / f"{second}.csv", tmp_path / f"{second}.model"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["f0", "f1", "f2", "f3", "label"])
                for i, row in enumerate(features):
                    label = "" if i % 3 else 0 if i < 30 else second
                    writer.writerow([*map(repr, row.tolist()), label])
            start = time.perf_counter()
            assert run_cli(["train", "--data", path, "--k", 4, "--embed-dim", 2,
                            "--max-epochs", 1, "--model", model]) == 0
            assert run_cli(["eval", "--data", path, "--model", model]) == 0
            assert time.perf_counter() - start < 30.0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_no_orth_flag(self, blob_csv, capsys):
        code = run_cli(["train", "--data", blob_csv, "--no-orth", "--k", 4,
                        "--embed-dim", 3, "--batch-triplets", 40,
                        "--max-epochs", 1, "--epochs-per-partition", 1])
        assert code == 0

    def test_identical_argv_identical_output(self, blob_csv, capsys):
        args = ["train", "--data", blob_csv, "--k", 4, "--embed-dim", 3,
                "--batch-triplets", 40, "--max-epochs", 2,
                "--epochs-per-partition", 1, "--seed", 5]
        assert run_cli(args) == 0
        first = capsys.readouterr().out
        assert run_cli(args) == 0
        assert capsys.readouterr().out == first


class TestMethodsViaCli:
    def test_baseline_method_with_flags_and_out_file(self, blob_csv, tmp_path):
        out = tmp_path / "history.jsonl"
        code = run_cli(["train", "--data", blob_csv, "--method", "seraph",
                        "--seraph-eta", 0.5, "--seraph-mu", 0.5,
                        "--k", 4, "--embed-dim", 3, "--batch-triplets", 40,
                        "--max-epochs", 2, "--epochs-per-partition", 1,
                        "--out", out])
        assert code == 0
        records = [json.loads(ln) for ln in out.read_text().splitlines()]
        assert len(records) == 3
        assert all(np.isfinite(r["val_r1"]) for r in records)

    def test_encoder_model_round_trips_through_eval(self, blob_csv, tmp_path,
                                                    capsys):
        model_path = tmp_path / "enc.model"
        code = run_cli(["train", "--data", blob_csv, "--encoder",
                        "--lr", 1e-3, "--k", 4, "--embed-dim", 3,
                        "--batch-triplets", 40, "--max-epochs", 2,
                        "--epochs-per-partition", 1, "--model", model_path])
        assert code == 0
        head = model_path.read_text().splitlines()[0].split()
        assert head[4] == "1"  # encoder flag set in the header
        capsys.readouterr()
        assert run_cli(["eval", "--data", blob_csv, "--model", model_path]) == 0
        report = json.loads(capsys.readouterr().out.strip())
        assert 0.0 <= report["nmi"] <= 1.0
        assert 0.0 <= report["r@1"] <= 100.0


class TestPropagateMine:
    def test_propagate_dumps_square_csv(self, blob_csv, tmp_path):
        out = tmp_path / "W.csv"
        code = run_cli(["propagate", "--data", blob_csv, "--k", 4,
                        "--gamma", 0.9, "--out", out])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().strip().splitlines()]
        assert len(rows) == 60 and all(len(r) == 60 for r in rows)
        W = np.array([[float(v) for v in r] for r in rows])
        assert np.abs(W - W.T).max() <= 1e-12
        # %.17g reloads bit-exactly: the CSV is the solve's own matrix
        expected = propagation.propagate_dense(*partition_graph(blob_csv, 4), 0.9)
        assert W.tobytes() == expected.tobytes()

    def test_mine_dumps_triplet_rows(self, blob_csv, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(["mine", "--data", blob_csv, "--k", 4, "--out", out])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "anchor,positive,negative"
        assert len(lines) - 1 == 60 * 2  # n * k/2
        a, p, n = (int(v) for v in lines[1].split(","))
        assert len({a, p, n}) == 3
        graph, labels = partition_graph(blob_csv, 4)
        expected = mine_triplets(propagation.propagate(graph, labels, 0.99), graph)
        rows = [[int(v) for v in ln.split(",")] for ln in lines[1:]]
        assert np.array_equal(rows, expected)

    @pytest.mark.parametrize("command", ["propagate", "mine"])
    def test_size_zero_is_every_unlabeled_row(self, blob_csv, tmp_path, command):
        outputs = []
        for size in (0, ssdml.load_csv(blob_csv).unlabeled_indices.size):
            out = tmp_path / f"{size}.csv"
            assert run_cli([command, "--data", blob_csv, "--k", 4,
                            "--partition-size", size, "--seed", 3, "--out", out]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestGradcheck:
    def test_exit_zero_and_five_suites(self, capsys):
        assert run_cli(["gradcheck", "--seed", 3, "--trials", 10]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        assert all("max relative error" in ln for ln in out)

    def test_one_line_per_suite_in_order(self, capsys):
        assert run_cli(["gradcheck", "--seed", 3, "--trials", 2]) == 0
        out = capsys.readouterr().out.splitlines()
        assert [ln.split(":")[0] for ln in out] == list(gc.SUITES)
        assert list(gc.SUITES) == ["angular_loss_grad_L", "angular_loss_grad_embeddings",
                                   "encoder_end_to_end", "seraph_grad_L", "lrml_grad_L"]
        assert all(ln.endswith("[ok]") for ln in out)

    def test_a_nan_case_fails_its_suite(self, capsys, monkeypatch):
        # one NaN among finite errors must not vanish from the maximum
        analytic = iter([1.0, np.nan, 1.0])

        def case(rng):
            return np.array([next(analytic)]), np.array([1.0])

        monkeypatch.setattr(gc, "SUITES", {"nan_case": case})
        assert run_cli(["gradcheck", "--trials", 3]) == 2
        assert capsys.readouterr().out == "nan_case: max relative error nan [FAIL]\n"

    @pytest.mark.parametrize("trials", [0, -2])
    def test_no_trials_is_one(self, capsys, trials):
        # zero instances would print five vacuous "ok" lines
        assert run_cli(["gradcheck", "--trials", trials]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "--trials" in err


class TestIdxInput:
    def test_train_from_idx_pair(self, tmp_path, capsys):
        import struct

        rng = np.random.default_rng(0)
        n = 40
        images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
        labels = np.repeat(np.arange(4, dtype=np.uint8), 10)
        ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, n, 28, 28) + images.tobytes())
        lp.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
        code = run_cli(["train", "--images-idx", ip, "--labels-idx", lp,
                        "--k", 4, "--embed-dim", 8, "--batch-triplets", 40,
                        "--max-epochs", 1, "--epochs-per-partition", 1,
                        "--inner-l-iters", 2])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # epoch 0 + 1 epoch


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert run_cli(["train"]) == 1  # no data source
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_one(self, capsys):
        assert run_cli(["blobs", "--classes", 2, "--per-class", 2,
                        "--bogus", 1]) == 1

    def test_data_error_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1\n1.0\n")
        assert run_cli(["train", "--data", bad]) == 2
        assert "error" in capsys.readouterr().err

    def test_config_error_is_two(self, blob_csv):
        assert run_cli(["train", "--data", blob_csv, "--k", 5]) == 2

    def test_negative_seed_is_two(self, blob_csv):
        assert run_cli(["train", "--data", blob_csv, "--seed", -3]) == 2

    def test_bad_recall_ks_is_one(self, blob_csv, tmp_path, capsys):
        model_path = tmp_path / "m.model"
        run_cli(["train", "--data", blob_csv, "--k", 4, "--embed-dim", 3,
                 "--batch-triplets", 40, "--max-epochs", 1,
                 "--epochs-per-partition", 1, "--model", model_path])
        capsys.readouterr()
        assert run_cli(["eval", "--data", blob_csv, "--model", model_path,
                        "--recall-ks", "1,x"]) == 1

    @pytest.mark.parametrize("ks, code", [("0", 1), ("-1", 1), ("1,0", 1), ("1,100000", 2)])
    def test_recall_k_below_one_is_one_and_k_past_n_is_two(self, blob_csv, tmp_path,
                                                           capsys, ks, code):
        # a K below 1 is wrong for any data; whether a K reaches n depends on it
        model_path = tmp_path / "m.model"
        run_cli(["train", "--data", blob_csv, "--k", 4, "--embed-dim", 3,
                 "--batch-triplets", 40, "--max-epochs", 1,
                 "--epochs-per-partition", 1, "--model", model_path])
        capsys.readouterr()
        assert run_cli(["eval", "--data", blob_csv, "--model", model_path,
                        "--recall-ks", ks]) == code
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error:" if code == 1 else "error:")

    @pytest.mark.parametrize("encoder", [False, True], ids=["linear", "encoder"])
    def test_eval_on_data_of_another_width_is_two(self, blob_csv, tmp_path, capsys,
                                                  encoder):
        # the model was trained on 5 columns; the CSV has 4
        model_path = tmp_path / "m.model"
        args = ["train", "--data", blob_csv, "--k", 4, "--embed-dim", 3,
                "--batch-triplets", 40, "--max-epochs", 1, "--epochs-per-partition", 1,
                "--model", model_path]
        assert run_cli(args + (["--encoder", "--lr", 1e-3] if encoder else [])) == 0
        narrow = tmp_path / "narrow.csv"
        assert run_cli(["blobs", "--classes", 3, "--per-class", 20, "--signal-dims", 2,
                        "--noise-dims", 2, "--seed", 1, "--out", narrow]) == 0
        capsys.readouterr()
        assert run_cli(["eval", "--data", narrow, "--model", model_path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip() == "error: dataset dimension does not match the model"

    def test_corrupt_model_matrix_is_two(self, blob_csv, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("ssdml-model v1 2 1 0 1\n0.5\nnot-a-number\n")
        assert run_cli(["eval", "--data", blob_csv, "--model", bad]) == 2

    @pytest.mark.parametrize("text", [
        "ssdml-model v1 x 2 0 1\n0.5 0.5\n",
        "ssdml-model v1 5 1 0 1\n0.5\nnan\n0.5\n0.5\n0.5\n",
        "ssdml-model v1 5 1 0 1\n0.5\n0.5\n0.5\n0.5\n-inf\n",
        "ssdml-model v1 5 0 0 1\n\n\n\n\n\n",
        "ssdml-model v1 5 1 0 3\n0.5\n0.5\n0.5\n0.5\n0.5\n",
    ], ids=["header", "nan", "inf", "zero-width", "flag"])
    def test_corrupt_model_header_or_entry_is_two(self, blob_csv, tmp_path,
                                                  capsys, text):
        bad = tmp_path / "bad.model"
        bad.write_text(text)
        assert run_cli(["eval", "--data", blob_csv, "--model", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_seraph_lambda_flag_is_one(self, blob_csv, capsys):
        # SERAPH has no trace weight: on the Stiefel manifold it is a constant
        assert run_cli(["train", "--data", blob_csv, "--method", "seraph",
                        "--seraph-lambda", 0.1]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_lrml_gamma_flag_is_one(self, blob_csv, capsys):
        # LRML's pair terms are per-pair means: there is no weight to set
        assert run_cli(["train", "--data", blob_csv, "--method", "lrml",
                        "--lrml-gamma-s", 1]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_odd_k_mine_is_two_before_propagating(self, blob_csv, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("propagate ran for an odd k")

        monkeypatch.setattr(cli, "propagate", refuse)
        assert run_cli(["mine", "--data", blob_csv, "--k", 5]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip() == "error: triplet mining needs an even k (got 5)"

    def test_threads_flag_is_one(self, blob_csv, capsys):
        # the flag was parsed and ignored; it is gone, so it is a usage error
        assert run_cli(["--threads", 1, "train", "--data", blob_csv]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_data_file_is_two(self, tmp_path, capsys):
        assert run_cli(["train", "--data", tmp_path / "absent.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.csv" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_undecodable_data_is_two(self, tmp_path, capsys, command):
        bad = tmp_path / "latin.csv"
        bad.write_bytes(b"f0,f1,label\n1.0,2.0,0\n3.0,4.0,\xff\n")
        args = [command, "--data", bad]
        if command == "eval":
            args += ["--model", tmp_path / "unused.model"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "latin.csv" in err
        assert len(err.strip().splitlines()) == 1

    def test_over_long_cell_is_two(self, tmp_path, capsys):
        bad = tmp_path / "long.csv"
        bad.write_text("f0,label\n" + "0" * csv.field_size_limit() + "1,0\n")
        assert run_cli(["train", "--data", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "long.csv" in err
        assert len(err.strip().splitlines()) == 1

    def test_unwritable_out_is_two(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "blobs.csv"
        assert run_cli(["blobs", "--classes", 2, "--per-class", 3,
                        "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("record", ['{"epoch": 0,', "5"])
    def test_corrupt_model_json_line_is_two(self, blob_csv, tmp_path, capsys,
                                            record):
        bad = tmp_path / "bad.model"
        bad.write_text(f"ssdml-model v1 2 1 0 1\n0.5\n0.5\n{record}\n")
        assert run_cli(["eval", "--data", blob_csv, "--model", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 4" in err

    @pytest.mark.parametrize("command", ["propagate", "mine", "train"])
    def test_oversized_propagation_is_two(self, blob_csv, monkeypatch, capsys,
                                          command):
        # pretend the machine has 32 KiB: the block solve over the ~60
        # blob nodes (about 300 KiB, most of it the fixed workspace), and
        # for `propagate` that plus the n x n result, no longer fit, so the
        # run stops before them
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: 2**15)
        args = [command, "--data", blob_csv, "--k", 4]
        if command == "train":
            args += ["--embed-dim", 3, "--max-epochs", 1]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--partition-size" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_model_whose_embeddings_overflow_k_means_is_two(self, blob_csv, tmp_path,
                                                            capsys):
        # finite entries, but the embeddings' squared distances overflow
        model_path = tmp_path / "m.model"
        assert run_cli(["train", "--data", blob_csv, "--k", 4, "--embed-dim", 2,
                        "--max-epochs", 2, "--model", model_path]) == 0
        capsys.readouterr()
        lines = model_path.read_text().splitlines(keepends=True)
        d = int(lines[0].split()[2])
        huge = tmp_path / "huge.model"
        huge.write_text(lines[0] + "1e200 1e200\n" * d + "".join(lines[d + 1:]))
        assert run_cli(["eval", "--data", blob_csv, "--model", huge]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.strip() == "error: k-means++ seeding: squared distances overflow"

    @pytest.mark.parametrize("command, target, message, shown", [
        (["blobs", "--classes", 2, "--per-class", 3], "make_blobs",
         "Unable to allocate 36.4 TiB", "Unable to allocate 36.4 TiB"),
        (["train", "--embed-dim", 3], "train", "", "MemoryError"),
    ], ids=["blobs", "train-no-message"])
    def test_refused_allocation_is_two(self, blob_csv, monkeypatch, capsys, command,
                                       target, message, shown):
        # a stand-in for the refusal: asking for a real oversized array would
        # be granted and then touched on a host that always overcommits
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(f"ssdml.cli.{target}", refuse)
        if command[0] == "train":
            command = command + ["--data", blob_csv]
        assert run_cli(command) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.strip() == f"error: {shown}"

    # each case names its own id (the one pytest first gave it by position),
    # so removing a case renames no other
    @pytest.mark.parametrize("args", [
        pytest.param(["mine", "--k", 4, "--partition-size", -1], id="args0"),
        pytest.param(["propagate", "--k", 4, "--partition-size", -1], id="args1"),
        pytest.param(["blobs", "--classes", 2, "--per-class", 3, "--labeled-per-class", -1],
                     id="args2"),
        pytest.param(["train", "--encoder", "--embed-dim", 3, "--lr", "nan"], id="args3"),
        pytest.param(["train", "--encoder", "--embed-dim", 3, "--lr", "inf"], id="args4"),
        pytest.param(["train", "--method", "seraph", "--embed-dim", 3, "--seraph-eta", "nan"],
                     id="args5"),
        pytest.param(["gradcheck", "--seed", -1], id="args6"),
        pytest.param(["blobs", "--classes", 3, "--per-class", 20, "--sep", "nan"], id="args7"),
        pytest.param(["blobs", "--classes", 3, "--per-class", 20, "--noise-sigma", "inf"],
                     id="args8"),
        pytest.param(["blobs", "--classes", 11, "--per-class", 2, "--sep", "1e308"],
                     id="args9"),  # mean 2e308
        pytest.param(["blobs", "--classes", 3, "--per-class", 20, "--noise-sigma", "1e308"],
                     id="args10"),
        pytest.param(["train", "--embed-dim", 3, "--data", "overflow.csv"], id="args11"),
        pytest.param(["train", "--method", "lrml", "--embed-dim", 3, "--no-orth"],
                     id="args12"),  # always orthonormal
        pytest.param(["train", "--method", "seraph", "--embed-dim", 3, "--no-orth"],
                     id="args13"),  # likewise
    ])
    def test_bad_weight_or_count_is_two(self, blob_csv, tmp_path, capsys, args):
        # each must stop on one error line, not a ValueError traceback
        non_finite = "nan" in args or "inf" in args
        if "overflow.csv" in args:
            # finite cells, but every row's norm overflows to inf
            huge = tmp_path / "overflow.csv"
            assert run_cli(["blobs", "--classes", 3, "--per-class", 20,
                            "--sep", "1e308", "--out", huge]) == 0
            args = [huge if a == "overflow.csv" else a for a in args]
        elif args[0] not in ("blobs", "gradcheck"):
            args = args + ["--data", blob_csv]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        if non_finite:  # rejected up front, not after a diverged run
            assert "must be finite" in err

    def test_lrml_trains_where_no_dense_array_fits(self, blob_csv, monkeypatch,
                                                   capsys):
        # LRML sums its Laplacian term over the kNN edges and builds nothing
        # n x n, so the 32 KiB that stops propagation does not stop it
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: 2**15)
        assert run_cli(["train", "--data", blob_csv, "--method", "lrml",
                        "--embed-dim", 3, "--max-epochs", 1]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [json.loads(line)["epoch"] for line in out.splitlines()] == [0, 1]


def older_model_text(model_path):
    """The file as written before raw-feature mode was dropped: the same,
    except that its config record holds "normalize": true after "encoder"."""
    lines = model_path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.startswith('{"config"'):
            config = {}
            for key, value in json.loads(line)["config"].items():
                config[key] = value
                if key == "encoder":
                    config["normalize"] = True
            lines[i] = json.dumps({"config": config}) + "\n"
    return "".join(lines)


class TestOlderModelFiles:
    @pytest.fixture(params=[False, True], ids=["linear", "encoder"])
    def model_path(self, request, blob_csv, tmp_path, capsys):
        path = tmp_path / "m.model"
        args = ["train", "--data", blob_csv, "--k", 4, "--embed-dim", 3,
                "--batch-triplets", 40, "--max-epochs", 2,
                "--epochs-per-partition", 1, "--model", path]
        if request.param:
            args += ["--encoder", "--lr", 1e-3]
        assert run_cli(args) == 0
        capsys.readouterr()
        return path

    def test_normalize_true_loads_and_evaluates_the_same(self, blob_csv, model_path,
                                                         tmp_path, capsys):
        older = tmp_path / "older.model"
        older.write_text(older_model_text(model_path))
        assert '"normalize": true, "orth"' in older.read_text()
        assert ssdml.load_model(older).config == ssdml.load_model(model_path).config
        reports = []
        for path in (model_path, older):
            assert run_cli(["eval", "--data", blob_csv, "--model", path]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and json.loads(reports[0])["r@1"] >= 0

    def test_seraph_lambda_loads_with_the_rest_of_the_config(self, model_path, tmp_path):
        # files written while SERAPH had a trace weight record it
        text = model_path.read_text()
        assert '"seraph_mu": 1.0}' in text
        older = tmp_path / "older.model"
        older.write_text(text.replace('"seraph_mu": 1.0}',
                                      '"seraph_mu": 1.0, "seraph_lambda": 0.001}'))
        assert ssdml.load_model(older).config == ssdml.load_model(model_path).config

    def test_lrml_weights_load_with_the_rest_of_the_config(self, model_path, tmp_path):
        # files written while LRML's pair weights were settable record both
        text = model_path.read_text()
        assert '"seraph_mu": 1.0}' in text
        older = tmp_path / "older.model"
        older.write_text(text.replace(
            '"seraph_mu": 1.0}',
            '"seraph_mu": 1.0, "lrml_gamma_s": 1.0, "lrml_gamma_d": 1.0}'))
        assert ssdml.load_model(older).config == ssdml.load_model(model_path).config

    def test_val_fraction_loads_with_the_rest_of_the_config(self, model_path, tmp_path):
        # files written while the validation share was a field record it
        text = model_path.read_text()
        assert '"seed": 0, "seraph_eta"' in text
        older = tmp_path / "older.model"
        older.write_text(text.replace('"seed": 0, "seraph_eta"',
                                      '"seed": 0, "val_fraction": 0.15, "seraph_eta"'))
        assert ssdml.load_model(older).config == ssdml.load_model(model_path).config

    @pytest.mark.parametrize("raw", ["header-flag", "config"])
    def test_raw_feature_model_is_two(self, blob_csv, model_path, tmp_path, capsys,
                                      raw):
        text = older_model_text(model_path)
        if raw == "header-flag":
            head, rest = text.split("\n", 1)
            assert head.endswith(" 1")
            text = head[:-1] + "0\n" + rest
        else:
            text = text.replace('"normalize": true', '"normalize": false')
        bad = tmp_path / "raw.model"
        bad.write_text(text)
        assert run_cli(["eval", "--data", blob_csv, "--model", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1


class TestConfigRecordAgreesWithMatrices:
    @pytest.fixture()
    def linear_model(self, blob_csv, tmp_path, capsys):
        path = tmp_path / "m.model"
        assert run_cli(["train", "--data", blob_csv, "--k", 4, "--embed-dim", 2,
                        "--max-epochs", 1, "--model", path]) == 0
        capsys.readouterr()
        return path

    @staticmethod
    def edited(path, tmp_path, *replacements):
        text = path.read_text()
        for old, new in replacements:
            assert old in text
            text = text.replace(old, new)
        edited = tmp_path / "edited.model"
        edited.write_text(text)
        return edited

    @pytest.mark.parametrize("old, new", [
        ('"encoder": false', '"encoder": true'),  # the header has no encoder
        ('"embed_dim": 2', '"embed_dim": 3'),  # L has 2 columns
    ], ids=["encoder", "embed-dim"])
    def test_disagreeing_record_is_two(self, blob_csv, linear_model, tmp_path, capsys,
                                       old, new):
        bad = self.edited(linear_model, tmp_path, (old, new))
        assert run_cli(["eval", "--data", blob_csv, "--model", bad]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "disagrees with the header" in err

    def test_older_seraph_file_without_orth_loads(self, blob_csv, linear_model,
                                                  tmp_path, capsys):
        # train() refuses this method and orth pair now, but files written
        # before it did still load: train()'s rules are not the file's
        older = self.edited(linear_model, tmp_path, ('"method": "ours"', '"method": "seraph"'),
                            ('"orth": true', '"orth": false'))
        config = ssdml.load_model(older).config
        assert config.method == "seraph" and not config.orth
        reports = []
        for path in (linear_model, older):
            assert run_cli(["eval", "--data", blob_csv, "--model", path]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]


def test_every_train_flag_has_a_help_text():
    assert all(isinstance(text, str) and text for text in cli._TRAIN_HELP.values())
    train_help = build_parser()._subparsers._group_actions[0].choices["train"]
    text = train_help.format_help().split("options:")[1]
    entry = text[text.index("--epochs-per-partition"):text.index("--max-epochs")]
    assert "(default: 10)" in entry


def test_train_flag_defaults_equal_train_config():
    from dataclasses import fields

    from ssdml.trainer import TrainConfig

    args = build_parser().parse_args(["train", "--data", "x.csv"])
    cfg = TrainConfig()
    exposed = {f.name for f in fields(TrainConfig) if hasattr(args, f.name)}
    assert exposed == {f.name for f in fields(TrainConfig)}  # every field is a flag
    assert exposed == {
        "method", "gamma", "k", "alpha_deg", "embed_dim", "lr", "batch_triplets",
        "partition_size", "epochs_per_partition", "max_epochs", "inner_l_iters",
        "seed", "orth", "encoder", "seraph_eta", "seraph_mu"}
    assert set(vars(args)) - exposed == {"command", "func", "data", "images_idx",
                                         "labels_idx", "model", "out"}
    for name in exposed:
        assert getattr(args, name) == getattr(cfg, name), name


def test_every_subcommand_help_lists_defaults():
    parser = build_parser()
    sub_actions = [a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0]))]
    subparsers = parser._subparsers._group_actions[0].choices
    assert set(subparsers) == {"train", "eval", "propagate", "mine", "blobs",
                               "gradcheck"}
    for name, sp in subparsers.items():
        text = sp.format_help()
        assert "default" in text  # ArgumentDefaultsHelpFormatter active
