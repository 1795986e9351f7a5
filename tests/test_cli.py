"""Command-line interface: subcommands, outputs, exit codes."""

import json

import numpy as np
import pytest

import ssdml
from ssdml import propagation
from ssdml.cli import build_parser, run


def run_cli(args):
    return run([str(a) for a in args])


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

    def test_mine_dumps_triplet_rows(self, blob_csv, tmp_path):
        out = tmp_path / "t.csv"
        code = run_cli(["mine", "--data", blob_csv, "--k", 4, "--out", out])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "anchor,positive,negative"
        assert len(lines) - 1 == 60 * 2  # n * k/2
        a, p, n = (int(v) for v in lines[1].split(","))
        assert len({a, p, n}) == 3


class TestGradcheck:
    def test_exit_zero_and_five_suites(self, capsys):
        assert run_cli(["gradcheck", "--seed", 3, "--trials", 10]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        assert all("max relative error" in ln for ln in out)


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

    def test_corrupt_model_matrix_is_two(self, blob_csv, tmp_path):
        bad = tmp_path / "bad.model"
        bad.write_text("ssdml-model v1 2 1 0 1\n0.5\nnot-a-number\n")
        assert run_cli(["eval", "--data", blob_csv, "--model", bad]) == 2

    def test_threads_flag_is_one(self, blob_csv, capsys):
        # the flag was parsed and ignored; it is gone, so it is a usage error
        assert run_cli(["--threads", 1, "train", "--data", blob_csv]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_data_file_is_two(self, tmp_path, capsys):
        assert run_cli(["train", "--data", tmp_path / "absent.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "absent.csv" in err
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
        # pretend the machine has 32 KiB: the block inverse over the ~60
        # blob nodes (about 44 KiB) and the dense solve `propagate` prints
        # (about 200 KiB) no longer fit, so the run stops before them
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: 2**15)
        args = [command, "--data", blob_csv, "--k", 4]
        if command == "train":
            args += ["--embed-dim", 3, "--max-epochs", 1]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "--partition-size" in err

    def test_oversized_lrml_laplacian_is_two(self, blob_csv, monkeypatch, capsys):
        # LRML's kNN adjacency and Laplacian hold 3 n x n arrays (about
        # 76 KiB here); the same check stops it before they are built
        monkeypatch.setattr(propagation, "_physical_memory_bytes", lambda: 2**15)
        assert run_cli(["train", "--data", blob_csv, "--method", "lrml",
                        "--embed-dim", 3, "--max-epochs", 1]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "LRML" in err and "--partition-size" in err


def test_train_flag_defaults_equal_train_config():
    from dataclasses import fields

    from ssdml.trainer import TrainConfig

    args = build_parser().parse_args(["train", "--data", "x.csv"])
    cfg = TrainConfig()
    covered = 0
    for f in fields(TrainConfig):
        if hasattr(args, f.name):
            assert getattr(args, f.name) == getattr(cfg, f.name), f.name
            covered += 1
    assert covered >= 15  # every exposed flag mirrors the config default


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
