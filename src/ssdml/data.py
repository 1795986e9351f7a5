"""Dataset containers, file ingestion and sampling utilities.

A dataset is an (N, d_in) float64 feature matrix with an optional integer
class id per row.  Unlabeled rows carry the sentinel -1 internally; on disk
(CSV) the sentinel is an empty label cell.
"""

from __future__ import annotations

import csv
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError

UNLABELED = -1

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus per-row optional labels.

    `labels` holds class ids in [0, n_classes) or UNLABELED.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must have one entry per feature row")
        present = labels[labels != UNLABELED]
        if present.size:
            if present.min() < 0 or present.max() >= self.n_classes:
                raise ValueError("labels must lie in [0, n_classes)")
            if self.n_classes < 2:
                raise ValueError("n_classes must be >= 2 when any label is present")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def labeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels != UNLABELED)

    @property
    def classes(self) -> np.ndarray:
        """The class ids the labeled rows carry, ascending.  Ids may be
        sparse, so there can be far fewer than n_classes."""
        return np.unique(self.labels[self.labeled_indices])

    @property
    def unlabeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == UNLABELED)

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            features=self.features[rows],
            labels=self.labels[rows],
            n_classes=self.n_classes,
        )


def _rng(seed):
    if int(seed) < 0:
        raise ConfigError(f"seed must be non-negative (got {seed})")
    return np.random.default_rng(int(seed))


def _class_count(labels) -> int:
    """n_classes for class ids `labels`: the largest id + 1, at least 2 (the
    Dataset invariant), or 0 when no row is labeled."""
    present = labels[labels != UNLABELED]
    return max(int(present.max()) + 1, 2) if present.size else 0


def _parse_label_cells(cells):
    """(labels, n_classes) from raw label strings; empty cells stay unlabeled.
    When every non-empty cell is an integer in [0, 2^63) the ids are kept
    verbatim; otherwise each distinct cell is numbered by first appearance."""
    labels = np.full(len(cells), UNLABELED, dtype=np.int64)
    rows = [i for i, c in enumerate(cells) if c != ""]
    try:
        ids = np.array([int(cells[i]) for i in rows], dtype=np.int64)
        verbatim = (ids >= 0).all()
    except (ValueError, OverflowError):  # not an integer, or not an int64
        verbatim = False
    if not verbatim:
        first = {}
        ids = [first.setdefault(cells[i], len(first)) for i in rows]
    labels[rows] = ids
    return labels, _class_count(labels)


_BLANK_LINES = ("\n", "\r\n", "\r")
# Characters numpy's number parser skips as whitespace but float() rejects.
_FLOAT_REJECTS = "\x1c\x1d\x1e\x1f"


def _read_block(lines, n_cols, label_pos):
    """Parse the data lines with numpy's C reader: (features, label cells).

    numpy reads numbers with the routine behind float() and splits quoted
    cells as csv.reader does, but it skips blank lines, takes \\x1c-\\x1f
    for whitespace and has no field size limit.  Returns None for those
    inputs and for any numpy rejects, so that `_scan_cells` decides them.
    """
    if not lines or lines[0] in _BLANK_LINES:  # numpy warns on all-blank input
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    text = "".join(lines)
    if any(c in text for c in _FLOAT_REJECTS):
        return None
    label_cells = []

    def keep_label(cell):
        label_cells.append(cell.strip())
        return 0.0

    try:
        block = np.loadtxt(
            lines, dtype=np.float64, delimiter=",", comments=None, quotechar='"',
            ndmin=2, converters=None if label_pos is None else {label_pos: keep_label},
        )
    except ValueError:
        return None
    # fewer rows than lines: numpy skipped a blank line or joined the lines
    # of a quoted cell; another column count: no row matches the header
    if block.shape != (len(lines), n_cols):
        return None
    if label_pos is None:
        return block, [""] * len(lines)
    return np.delete(block, label_pos, axis=1), label_cells


def _scan_cells(path, lines, header, label_pos, feature_cols):
    """Parse the data lines one cell at a time with csv and float()."""
    rows, label_cells = [], []
    try:
        for i, row in enumerate(csv.reader(lines), start=1):
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
    except csv.Error as exc:  # a cell over csv.field_size_limit()
        raise DataFormatError(f"{path}: row {len(rows) + 1}: {exc}") from None
    return rows, label_cells


def load_csv(path, label_column: str | None = "label") -> Dataset:
    """Load a dataset from a headered CSV file.

    Every column except `label_column` is a feature column; an absent label
    column yields a fully unlabeled dataset with n_classes = 0.

    The dialect is `csv`'s default: comma-separated cells, '"' quoting with
    doubled quotes inside a quoted cell, and \\n, \\r\\n or \\r line ends.
    A feature cell is any text float() reads, surrounding whitespace
    included.  The file is read in the default text encoding.  Raises
    DataFormatError, naming the path, for an empty file, a file with no
    data rows or no feature columns, a row whose cell count differs from
    the header's (a blank line is a row of 0 cells), a feature cell float()
    cannot read, a non-finite feature value, a cell longer than
    csv.field_size_limit(), and bytes that do not decode.

    numpy's reader parses the data; any input it might read differently
    from csv.reader plus float() is scanned one cell at a time instead, so
    both give the same dataset or the same error.
    """
    try:
        with open(path, newline="") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataFormatError(f"{path}: empty file") from None
            except csv.Error as exc:
                raise DataFormatError(f"{path}: header: {exc}") from None
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not valid {exc.encoding} text ({exc.reason})"
        ) from None
    header = [h.strip() for h in header]
    label_pos = None
    if label_column is not None and label_column in header:
        label_pos = header.index(label_column)
    feature_cols = [j for j in range(len(header)) if j != label_pos]

    parsed = _read_block(lines, len(header), label_pos)
    if parsed is None:
        parsed = _scan_cells(path, lines, header, label_pos, feature_cols)
    rows, label_cells = parsed
    if not label_cells:
        raise DataFormatError(f"{path}: no data rows")
    if not feature_cols:
        raise DataFormatError(f"{path}: no feature columns")
    features = np.asarray(rows, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(features))
    if bad.size:
        i, j = bad[0]
        raise DataFormatError(
            f"{path}: row {i + 1}, column {header[feature_cols[j]]!r}: "
            f"non-finite value {features[i, j]!r}"
        )
    labels, n_classes = _parse_label_cells(label_cells)
    return Dataset(features, labels, n_classes)


def write_csv(dataset: Dataset, path_or_file) -> None:
    """Write a dataset as CSV with f0..f{d-1} columns and a trailing label.

    Features are printed with 17 significant digits so a reload is
    bit-exact; unlabeled rows get an empty label cell.  Accepts a path or
    an open text stream.
    """
    own = not hasattr(path_or_file, "write")
    fh = open(path_or_file, "w", newline="") if own else path_or_file
    try:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(dataset.dim)] + ["label"])
        for x, y in zip(dataset.features, dataset.labels):
            cells = [f"{v:.17g}" for v in x]
            cells.append("" if y == UNLABELED else str(int(y)))
            writer.writerow(cells)
    finally:
        if own:
            fh.close()


def _read_idx(path, magic, what, n_dims):
    """An IDX file's `n_dims` big-endian u32 sizes, after its magic number,
    and its payload."""
    with open(path, "rb") as fh:
        head, payload = fh.read(4 * (1 + n_dims)), fh.read()
    if len(head) >= 4 and (got := int.from_bytes(head[:4], "big")) != magic:
        raise DataFormatError(
            f"{path}: wrong magic for {what} (got 0x{got:08x}, want 0x{magic:08x})"
        )
    if len(head) != 4 * (1 + n_dims):
        raise DataFormatError(f"{path}: truncated header")
    return struct.unpack(f">{n_dims}I", head[4:]), payload


def parse_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label file pair.

    Pixels are flattened row-major and scaled to [0, 1] by dividing by 255.
    """
    (n, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, "images", 3)
    if len(pixels) != n * rows * cols:
        raise DataFormatError(
            f"{images_path}: truncated payload "
            f"(got {len(pixels)} bytes, want {n * rows * cols})"
        )
    (n_labels,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, "labels", 1)
    if n_labels != n:
        raise DataFormatError(
            f"label count {n_labels} does not match image count {n}"
        )
    if len(labels) != n_labels:
        raise DataFormatError(f"{labels_path}: truncated payload")

    features = np.frombuffer(pixels, dtype=np.uint8).reshape(n, rows * cols) / 255.0
    labels = np.frombuffer(labels, dtype=np.uint8).astype(np.int64)
    return Dataset(features, labels, _class_count(labels))


def _blob_mean(c: int, d_signal: int, signal_sep: float) -> np.ndarray:
    """Class mean: a scaled one-hot in the signal block.

    Classes cycle through the signal axes; each full cycle flips the sign,
    then grows the magnitude, so any class count gets a distinct mean.
    """
    cycle, axis = divmod(c, d_signal)
    sign = -1.0 if cycle % 2 else 1.0
    magnitude = float(1 + cycle // 2)
    mean = np.zeros(d_signal)
    mean[axis] = sign * magnitude * signal_sep
    return mean


def make_blobs(n_classes, per_class, d_signal, d_noise, signal_sep,
               noise_sigma=1.0, seed=0) -> Dataset:
    """Synthetic labeled blobs: class-separated signal dims + nuisance dims.

    Signal dims get unit-variance isotropic noise around the class mean;
    the d_noise trailing dims are N(0, noise_sigma^2) independent of class.
    Deterministic for a fixed seed.
    """
    if n_classes < 2 or min(per_class, d_signal) < 1 or d_noise < 0:
        raise ConfigError("need n_classes >= 2, positive counts (d_noise may be 0)")
    rng = _rng(seed)
    n = n_classes * per_class
    signal = rng.standard_normal((n, d_signal))
    for c in range(n_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        signal[block] += _blob_mean(c, d_signal, signal_sep)
    with np.errstate(over="ignore"):  # an overflowing scale is rejected below
        noise = noise_sigma * rng.standard_normal((n, d_noise))
    features = np.hstack([signal, noise])
    if not np.isfinite(features).all():
        raise ConfigError(f"blob features must be finite (signal_sep {signal_sep}, "
                          f"noise_sigma {noise_sigma})")
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), per_class)
    return Dataset(features, labels, int(n_classes))


def strip_labels(dataset: Dataset, keep_per_class: int, seed=0) -> Dataset:
    """Keep `keep_per_class` labels per class, blank the rest.

    Used to turn a fully labeled synthetic dataset into a semi-supervised
    one; the kept rows are sampled uniformly per class.
    """
    if keep_per_class < 0:
        raise ConfigError(f"labels kept per class must be >= 0 (got {keep_per_class})")
    rng = _rng(seed)
    labels = np.full_like(dataset.labels, UNLABELED)
    for c in dataset.classes:
        rows = np.flatnonzero(dataset.labels == c)
        keep = min(keep_per_class, rows.size)
        chosen = np.sort(rng.choice(rows, size=keep, replace=False))
        labels[chosen] = c
    return Dataset(dataset.features, labels, dataset.n_classes)


def sample_partition(dataset: Dataset, n_unlabeled: int, seed=0) -> np.ndarray:
    """A partition's node rows: every labeled row, ascending, then
    n_unlabeled unlabeled rows sampled without replacement, ascending
    (0 = every unlabeled row).  The trainer relies on that order: SERAPH
    draws its unlabeled pairs from rows labeled.size onwards, and SERAPH
    and LRML read the labeled rows as every partition's first rows."""
    labeled = dataset.labeled_indices
    unlabeled = dataset.unlabeled_indices
    if labeled.size == 0:
        raise ConfigError("dataset has no labeled rows")
    if n_unlabeled < 0:
        raise ConfigError(f"partition size must be >= 0 (got {n_unlabeled})")
    if n_unlabeled > unlabeled.size:
        raise ConfigError(
            f"requested {n_unlabeled} unlabeled rows, only {unlabeled.size} available"
        )
    rng = _rng(seed)
    chosen = np.sort(rng.choice(unlabeled, size=n_unlabeled or unlabeled.size, replace=False))
    return np.concatenate([labeled, chosen])


def split_validation(dataset: Dataset, fraction: float, seed=0):
    """Stratified split of the labeled rows: ceil(fraction * count) per class
    moves to validation.  Unlabeled rows always stay in train.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError("fraction must lie strictly between 0 and 1")
    rng = _rng(seed)
    val_rows = []
    for c in dataset.classes:
        rows = np.flatnonzero(dataset.labels == c)
        if rows.size < 2:
            warnings.warn(f"class {c} has fewer than 2 labeled rows; kept whole in train",
                          stacklevel=2)
            continue
        n_val = math.ceil(fraction * rows.size)
        val_rows.append(rng.choice(rows, size=n_val, replace=False))
    val_rows = np.sort(np.concatenate(val_rows)) if val_rows else np.array([], dtype=np.int64)
    mask = np.ones(dataset.n, dtype=bool)
    mask[val_rows] = False
    return dataset.subset(np.flatnonzero(mask)), dataset.subset(val_rows)
