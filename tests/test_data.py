"""Dataset construction, file round trips, and sampling."""

import csv
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ssdml
from ssdml import data
from ssdml.data import UNLABELED, Dataset, _parse_label_cells, strip_labels
from ssdml.errors import ConfigError, DataFormatError


LONG_CELL = "0" * csv.field_size_limit() + "1"


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestLoadCsv:
    def test_labels_with_empty_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["f0,f1,label", "1.0,2.0,0", "3.0,4.0,", "5.0,6.0,1"])
        ds = ssdml.load_csv(p)
        assert ds.n == 3
        assert ds.labeled_indices.tolist() == [0, 2]
        assert ds.unlabeled_indices.tolist() == [1]
        assert ds.n_classes == 2

    def test_no_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["f0,f1", "1.0,2.0", "3.0,4.0"])
        ds = ssdml.load_csv(p)
        assert ds.labeled_indices.size == 0
        assert ds.n_classes == 0

    def test_ragged_row_names_row_number(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["f0,f1", "1.0,2.0", "1.0"])
        with pytest.raises(DataFormatError, match="row 2"):
            ssdml.load_csv(p)

    def test_bad_cell_names_coordinates(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["f0,f1", "1.0,2.0", "1.0,abc"])
        with pytest.raises(DataFormatError, match="row 2.*f1"):
            ssdml.load_csv(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_coordinates(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        write_lines(p, ["f0,f1,label", "1.0,2.0,0", f"3.0,{cell},1", "nan,1.0,"])
        with pytest.raises(DataFormatError, match="row 2, column 'f1'.*non-finite"):
            ssdml.load_csv(p)

    def test_string_labels_first_appearance_order(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["f0,label", "1.0,cat", "2.0,dog", "3.0,cat"])
        ds = ssdml.load_csv(p)
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.n_classes == 2

    @pytest.mark.parametrize("big, labels, n_classes", [
        (2**63 - 1, [2**63 - 1, 0, 2**63 - 1, UNLABELED], 2**63),
        (2**63, [0, 1, 0, UNLABELED], 2),
        (10**20 - 1, [0, 1, 0, UNLABELED], 2),
    ])
    def test_ids_stay_verbatim_up_to_int64_max(self, tmp_path, big, labels, n_classes):
        # an id past int64 numbers the labels by first appearance, as a
        # non-integer cell does
        p = tmp_path / "d.csv"
        write_lines(p, ["f0,label", f"1.0,{big}", "2.0,0", f"3.0,{big}", "4.0,"])
        ds = ssdml.load_csv(p)
        assert ds.labels.tolist() == labels
        assert ds.n_classes == n_classes

    def test_custom_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_lines(p, ["f0,target,f1", "1.0,0,2.0", "3.0,1,4.0"])
        ds = ssdml.load_csv(p, label_column="target")
        assert ds.dim == 2
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(features=hnp.arrays(
               np.float64, st.tuples(st.integers(1, 20), st.integers(1, 5)),
               elements=st.floats(allow_nan=False, allow_infinity=False)),
           label_codes=st.lists(st.integers(UNLABELED, 4), min_size=20, max_size=20))
    @example(features=np.random.default_rng(5).standard_normal((20, 4)) * 1e3,
             label_codes=[0, 1, UNLABELED, 2] * 5)
    @example(features=np.array([[5e-324, -0.0, 1.7976931348623157e308],
                                [-1.7976931348623157e308, 2.2250738585072014e-308, 0.0]]),
             label_codes=[UNLABELED] * 20)
    def test_roundtrip_bit_exact(self, tmp_path, features, label_codes):
        labels = np.array(label_codes[:features.shape[0]])
        n_classes = max(labels.max() + 1, 2) if labels.max() >= 0 else 0
        ds = Dataset(features, labels, n_classes)
        p = tmp_path / "rt.csv"
        ssdml.write_csv(ds, p)
        back = ssdml.load_csv(p)
        assert back.features.tobytes() == ds.features.tobytes()  # -0.0 too
        assert back.features.shape == ds.features.shape
        assert np.array_equal(back.labels, ds.labels)
        assert back.n_classes == ds.n_classes

    @pytest.mark.parametrize("raw", [b"f0,f1\n1.0,2\xff\n", b"f\xff0,f1\n1.0,2.0\n"],
                             ids=["data", "header"])
    def test_undecodable_bytes_name_the_file(self, tmp_path, raw):
        p = tmp_path / "latin.csv"
        p.write_bytes(raw)
        with pytest.raises(DataFormatError, match="latin.csv: not valid utf-8 text"):
            ssdml.load_csv(p)

    @pytest.mark.parametrize("text, where", [
        ("f0,label\n1,0\n" + LONG_CELL + ",0\n", "row 2"),
        ("f0," + LONG_CELL + "\n1,2\n", "header"),
    ], ids=["data", "header"])
    def test_over_long_cell_names_the_file(self, tmp_path, text, where):
        # csv refuses a cell over csv.field_size_limit()
        p = tmp_path / "long.csv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=f"long.csv: {where}: field larger"):
            ssdml.load_csv(p)


def reference_load_csv(path, label_column="label"):
    """The per-cell loader that numpy's reader replaced, copied verbatim."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        label_pos = None
        if label_column is not None and label_column in header:
            label_pos = header.index(label_column)
        feature_cols = [j for j in range(len(header)) if j != label_pos]

        rows, label_cells = [], []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DataFormatError(
                    f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
                )
            values = []
            for j in feature_cols:
                try:
                    values.append(float(row[j]))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: row {i}, column {header[j]!r}: "
                        f"cannot parse {row[j]!r} as a number"
                    ) from None
            rows.append(values)
            label_cells.append(row[label_pos].strip() if label_pos is not None else "")

    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    if not feature_cols:
        raise DataFormatError(f"{path}: no feature columns")
    features = np.array(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, j = bad[0]
        raise DataFormatError(
            f"{path}: row {i + 1}, column {header[feature_cols[j]]!r}: "
            f"non-finite value {features[i, j]!r}"
        )
    labels, n_classes = _parse_label_cells(label_cells)
    return Dataset(features, labels, n_classes)


def load_outcome(loader, path, label_column):
    """Everything a caller can observe: the dataset's bytes or the error."""
    try:
        ds = loader(path, label_column)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc), str(exc)
    return (ds.features.shape, ds.features.tobytes(), ds.labels.tobytes(),
            ds.n_classes)


PARITY_CORPUS = {
    "plain": "f0,f1,label\n1.5,-2,0\n3,4e-3,\n5,6,1\n",
    "quoted cells": 'f0,f1,label\n"1.5",2,"3"\n4,"5",""\n',
    "quoted label with comma": 'f0,label\n1,"a,b"\n2,c\n3,"a,b"\n',
    "doubled quotes in label": 'f0,label\n1,"say ""hi"""\n2,x\n',
    "doubled quotes in feature": 'f0,label\n"1""2",0\n',
    "quote inside a cell": 'f0,label\n1"2",0\n',
    "text after a closing quote": 'f0,label\n"1"2,0\n',
    "quoted line break in label": 'f0,label\n1,"a\nb"\n2,c\n',
    "quoted line break in feature": 'f0,label\n"1\n",0\n',
    "crlf": "f0,f1,label\r\n1,2,0\r\n3,4,1\r\n",
    "bare cr": "f0,f1,label\r1,2,0\r3,4,1\r",
    "mixed line ends": "f0,label\n1,0\r\n2,1\r3,0",
    "blank line mid-file": "f0,label\n1,0\n\n2,1\n",
    "blank line at the end": "f0,label\n1,0\n2,1\n\n",
    "blank crlf line at the end": "f0,label\r\n1,0\r\n\r\n",
    "blank first data line": "f0,label\n\n1,0\n",
    "blank lines only": "f0,label\n\n\n",
    "whitespace line": "f0,f1\n1,2\n   \n",
    "trailing comma": "f0,f1\n1,2,\n",
    "trailing comma in header too": "f0,f1,\n1,2,\n",
    "every row short": "f0,f1,f2\n1,2\n3,4\n",
    "every row long": "f0\n1,2\n3,4\n",
    "spaces around cells": "f0,f1,label\n 1.5 , 2\t, 1 \n3,4, 0\n",
    "spaces around string labels": "f0,label\n1,cat\n2, cat \n3,dog\n",
    "underscore digits": "f0,label\n1_000,0\n2,1\n",
    "non-ascii digits": "f0,label\n\u0661\u0662,0\n\uff13,1\n",
    "no-break space": "f0\n\xa01.5\n",
    "separator control": "f0\n\x1c1\n",
    "nul": "f0\n1\x00\n",
    "nan feature": "f0,f1,label\n1,2,0\n3,nan,1\n",
    "inf feature": "f0,f1\n1,-infinity\n",
    "overflowing feature": "f0,f1\n1,1e309\n",
    "subnormal and negative zero": "f0,f1\n4.9e-324,-0\n-0.0,2.2250738585072011e-308\n",
    "nan and inf labels": "f0,label\n1,nan\n2,inf\n3,nan\n",
    "negative label": "f0,label\n1,-1\n2,3\n",
    "unparsable feature after a bad row": "f0,f1\n1,x\n1\n",
    "label first": "label,f0,f1\n0,1,2\n1,3,4\n",
    "label middle": "f0,label,f1\n1,0,2\n3,1,4\n",
    "label absent": "f0,f1\n1,2\n3,4\n",
    "label only": "label\n0\n1\n",
    "one row one feature": "f0\n3.5\n",
    "one row with label": "f0,label\n3.5,1\n",
    "header only": "f0,f1,label\n",
    "header without line end": "f0,f1,label",
    "empty file": "",
    "utf-8 bom": "\ufefff0,label\n1,0\n2,1\n",
    "utf-8 bom before label": "\ufefflabel,f0\n0,1\n1,2\n",
}


# cases numpy's reader decides itself (with the label column in place)
NUMPY_READ = {"plain", "quoted cells", "quoted label with comma", "doubled quotes in label",
              "text after a closing quote", "crlf", "bare cr", "mixed line ends",
              "spaces around cells", "spaces around string labels", "no-break space", "nan feature",
              "subnormal and negative zero", "label first", "one row one feature", "utf-8 bom"}


@pytest.fixture()
def took_numpy(monkeypatch):
    """Per load, whether numpy's reader gave the rows (else the cell scan)."""
    took = []
    read_block = data._read_block

    def spy(*args):
        block = read_block(*args)
        took.append(block is not None)
        return block

    monkeypatch.setattr(data, "_read_block", spy)
    return took


@pytest.mark.filterwarnings("error")
class TestLoadCsvParity:
    """numpy's reader plus its fallback against the per-cell reference."""

    @pytest.mark.parametrize("label_column", ["label", None])
    @pytest.mark.parametrize("name", list(PARITY_CORPUS))
    def test_corpus_matches_reference(self, tmp_path, took_numpy, name, label_column):
        p = tmp_path / "d.csv"
        p.write_bytes(PARITY_CORPUS[name].encode("utf-8"))
        assert load_outcome(ssdml.load_csv, p, label_column) == \
            load_outcome(reference_load_csv, p, label_column)
        if label_column and name in NUMPY_READ:
            assert took_numpy == [True]

    def test_random_corpus_matches_reference(self, tmp_path, took_numpy):
        tokens = ["1", "-2.5", "-0", "1e309", "5e-324", "nan", "-inf", "1_0",
                  "\u0661", "\x1c", "\x00", "\xa0", " ", "a", '"', '""', '"1"',
                  '"a,b"', ",", ",", "\n", "\n", "\r", "\r\n", "7", "+.5"]
        rng = random.Random(13)
        p = tmp_path / "d.csv"
        for _ in range(400):
            width = rng.randint(1, 3)
            header = [f"f{j}" for j in range(width)]
            header.insert(rng.randint(0, width), "label")
            eol = rng.choice(["\n", "\r\n", "\r"])
            rows = [",".join(rng.choice(["1", "-0.5", "3", '"2"', "", "a", " 4 "])
                             + (rng.choice(tokens) if rng.random() < 0.15 else "")
                             for _ in header)
                    for _ in range(rng.randint(0, 5))]
            text = eol.join([",".join(header)] + rows) + eol
            p.write_bytes(text.encode("utf-8"))
            assert load_outcome(ssdml.load_csv, p, "label") == \
                load_outcome(reference_load_csv, p, "label"), repr(text)
        assert any(took_numpy) and not all(took_numpy)


class TestParseIdx:
    @staticmethod
    def idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                 label_count=None):
        import struct
        n, r, c = images.shape
        ip = tmp_path / "img.idx"
        lp = tmp_path / "lab.idx"
        ip.write_bytes(struct.pack(">IIII", image_magic, n, r, c) +
                       images.astype(np.uint8).tobytes())
        lp.write_bytes(struct.pack(">II", label_magic,
                                   n if label_count is None else label_count) +
                       labels.astype(np.uint8).tobytes())
        return ip, lp

    def test_well_formed(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(10, 28, 28))
        labels = np.arange(10)
        ip, lp = self.idx_pair(tmp_path, images, labels)
        ds = ssdml.parse_idx(ip, lp)
        assert (ds.n, ds.dim, ds.n_classes) == (10, 784, 10)

    def test_n_classes_from_max_label(self, tmp_path):
        images = np.zeros((3, 28, 28))
        ip, lp = self.idx_pair(tmp_path, images, np.array([0, 4, 2]))
        assert ssdml.parse_idx(ip, lp).n_classes == 5

    def test_wrong_image_magic(self, tmp_path):
        ip, lp = self.idx_pair(tmp_path, np.zeros((2, 28, 28)), np.zeros(2),
                               image_magic=0x801)
        with pytest.raises(DataFormatError, match="magic for images"):
            ssdml.parse_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = self.idx_pair(tmp_path, np.zeros((2, 28, 28)), np.zeros(2),
                               label_count=3)
        with pytest.raises(DataFormatError, match="does not match"):
            ssdml.parse_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        import struct
        ip = tmp_path / "img.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, 2, 28, 28) + b"\x00" * 10)
        lp = tmp_path / "lab.idx"
        lp.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x00")
        with pytest.raises(DataFormatError, match="truncated"):
            ssdml.parse_idx(ip, lp)

    def test_pixel_scaling(self, tmp_path):
        images = np.full((1, 28, 28), 255)
        ip, lp = self.idx_pair(tmp_path, images, np.zeros(1))
        ds = ssdml.parse_idx(ip, lp)
        assert ds.features.max() == 1.0 and ds.features.min() == 1.0


class TestMakeBlobs:
    def test_two_cluster_separation(self):
        ds = ssdml.make_blobs(2, 5, 2, 0, 10.0, seed=3)
        assert (ds.n, ds.dim) == (10, 2)
        m0 = ds.features[ds.labels == 0].mean(axis=0)
        m1 = ds.features[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) == pytest.approx(10.0 * np.sqrt(2), rel=0.25)

    def test_deterministic(self):
        a = ssdml.make_blobs(3, 4, 2, 2, 5.0, 1.0, seed=11)
        b = ssdml.make_blobs(3, 4, 2, 2, 5.0, 1.0, seed=11)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_distinct_class_means_beyond_signal_dims(self):
        ds = ssdml.make_blobs(10, 50, 5, 0, 6.0, seed=2)
        means = np.array([ds.features[ds.labels == c].mean(axis=0)
                          for c in range(10)])
        gaps = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        gaps[np.diag_indices(10)] = np.inf
        assert gaps.min() > 4.0  # all ten means separated

    def test_noise_dims_swamp_full_space_purity(self):
        # frozen from a brute-force nearest-neighbor run over the same data:
        # purity 0.309 in the full space vs 0.999 on the 5 signal dims
        ds = ssdml.make_blobs(10, 200, 5, 45, 6.0, 4.0, seed=7)

        def nn_purity(Z, y):
            hits = 0
            for i in range(len(Z)):
                d2 = np.sum((Z - Z[i]) ** 2, axis=1)
                d2[i] = np.inf
                hits += y[np.argmin(d2)] == y[i]
            return hits / len(Z)

        p_full = nn_purity(ds.features, ds.labels)
        p_signal = nn_purity(ds.features[:, :5], ds.labels)
        assert p_full == pytest.approx(0.309, abs=1e-12)
        assert p_signal == pytest.approx(0.999, abs=1e-12)
        assert p_full < p_signal - 0.2


class TestSamplePartition:
    def test_all_labeled_plus_sample(self):
        ds = strip_labels(ssdml.make_blobs(2, 60, 2, 0, 8.0, seed=0), 10, seed=0)
        rows = ssdml.sample_partition(ds, 30, seed=4)
        assert rows.dtype == np.int64 and rows.size == 50
        # every labeled row, ascending, then 30 distinct unlabeled rows, ascending
        assert np.array_equal(rows[:20], ds.labeled_indices)
        assert np.all(np.diff(rows[20:]) > 0)
        assert np.all(ds.labels[rows[20:]] == UNLABELED)

    def test_zero_means_every_unlabeled_row(self):
        ds = strip_labels(ssdml.make_blobs(3, 20, 2, 0, 8.0, seed=0), 4, seed=0)
        whole = np.concatenate([ds.labeled_indices, ds.unlabeled_indices])
        for seed in (0, 1, 7, 123):
            rows = ssdml.sample_partition(ds, 0, seed=seed)
            assert rows.dtype == np.int64
            assert np.array_equal(rows, whole)
            assert np.array_equal(rows, ssdml.sample_partition(
                ds, ds.unlabeled_indices.size, seed=seed))

    def test_no_labeled_rows_rejected(self):
        ds = Dataset(np.zeros((4, 2)), np.full(4, UNLABELED), 0)
        with pytest.raises(ConfigError, match="no labeled"):
            ssdml.sample_partition(ds, 2, seed=0)

    def test_oversized_request_rejected(self):
        ds = strip_labels(ssdml.make_blobs(2, 5, 2, 0, 8.0, seed=0), 2, seed=0)
        with pytest.raises(ConfigError):
            ssdml.sample_partition(ds, ds.unlabeled_indices.size + 1, seed=0)

    def test_negative_counts_rejected(self):
        # numpy would raise a bare ValueError ("negative dimensions")
        ds = ssdml.make_blobs(2, 5, 2, 0, 8.0, seed=0)
        with pytest.raises(ConfigError, match="labels kept per class"):
            strip_labels(ds, -1, seed=0)
        with pytest.raises(ConfigError, match="partition size"):
            ssdml.sample_partition(strip_labels(ds, 2, seed=0), -1, seed=0)

    def test_negative_seed_rejected(self):
        ds = strip_labels(ssdml.make_blobs(2, 5, 2, 0, 8.0, seed=0), 2, seed=0)
        with pytest.raises(ConfigError, match="seed"):
            ssdml.sample_partition(ds, 1, seed=-1)
        with pytest.raises(ConfigError, match="seed"):
            ssdml.make_blobs(2, 5, 2, 0, 8.0, seed=-1)

    def test_uniform_inclusion_over_seeds(self):
        ds = strip_labels(ssdml.make_blobs(2, 12, 2, 0, 8.0, seed=1), 2, seed=1)
        unlabeled = ds.unlabeled_indices
        n_u, n_p, trials = unlabeled.size, 5, 10_000
        counts = {int(i): 0 for i in unlabeled}
        for s in range(trials):
            for i in ssdml.sample_partition(ds, n_p, seed=s)[ds.labeled_indices.size:]:
                counts[int(i)] += 1
        p = n_p / n_u
        sigma = np.sqrt(p * (1 - p) / trials)
        freqs = np.array([counts[int(i)] / trials for i in unlabeled])
        assert np.all(np.abs(freqs - p) < 3 * sigma + 1e-9)


class TestSplitValidation:
    def test_fifteen_percent_of_twenty(self):
        ds = ssdml.make_blobs(10, 20, 3, 0, 6.0, seed=0)
        train, val = ssdml.split_validation(ds, 0.15, seed=0)
        assert val.n == 30  # ceil(0.15*20)=3 per class
        counts = np.bincount(val.labels, minlength=10)
        assert np.all(counts == 3)

    def test_half_of_two(self):
        ds = ssdml.make_blobs(2, 2, 2, 0, 6.0, seed=0)
        train, val = ssdml.split_validation(ds, 0.5, seed=0)
        assert np.all(np.bincount(val.labels, minlength=2) == 1)
        assert np.all(np.bincount(train.labels[train.labels >= 0], minlength=2) == 1)

    def test_unlabeled_rows_stay_in_train(self):
        ds = strip_labels(ssdml.make_blobs(2, 20, 2, 0, 6.0, seed=0), 10, seed=0)
        train, val = ssdml.split_validation(ds, 0.2, seed=0)
        assert (val.labels == UNLABELED).sum() == 0
        assert (train.labels == UNLABELED).sum() == 20

    def test_partition_of_rows_exact(self):
        ds = strip_labels(ssdml.make_blobs(3, 15, 2, 1, 6.0, seed=2), 8, seed=2)
        train, val = ssdml.split_validation(ds, 0.3, seed=5)
        # blob rows are distinct, so the split is traced through its rows
        rows = np.concatenate([train.features, val.features])
        assert np.array_equal(np.unique(rows, axis=0), np.unique(ds.features, axis=0))
        assert len(rows) == ds.n == len(np.unique(ds.features, axis=0))

    def test_tiny_class_warns_and_stays(self):
        features = np.zeros((3, 2))
        ds = Dataset(features, np.array([0, 0, 1]), 2)
        with pytest.warns(UserWarning, match="class 1"):
            train, val = ssdml.split_validation(ds, 0.5, seed=0)
        assert 1 in train.labels.tolist()
        assert 1 not in val.labels.tolist()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=2, max_value=5),
       st.integers(min_value=2, max_value=8))
def test_blobs_shape_and_label_invariants(seed, classes, per_class):
    ds = ssdml.make_blobs(classes, per_class, 2, 3, 4.0, 1.0, seed=seed)
    assert ds.n == classes * per_class
    assert ds.dim == 5
    assert ds.labels.min() >= 0 and ds.labels.max() == classes - 1
    assert np.isfinite(ds.features).all()
