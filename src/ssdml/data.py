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
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError

UNLABELED = -1

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus per-row optional labels.

    `labels` holds class ids in [0, n_classes) or UNLABELED.  `ids` are
    stable row identifiers that survive subsetting, so a validation split
    can be traced back to the original rows.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    ids: np.ndarray = field(default=None)

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must have one entry per feature row")
        ids = self.ids
        if ids is None:
            ids = np.arange(features.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (features.shape[0],):
                raise ValueError("ids must have one entry per feature row")
        present = labels[labels != UNLABELED]
        if present.size:
            if present.min() < 0 or present.max() >= self.n_classes:
                raise ValueError("labels must lie in [0, n_classes)")
            if self.n_classes < 2:
                raise ValueError("n_classes must be >= 2 when any label is present")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", ids)

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
    def unlabeled_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == UNLABELED)

    def subset(self, rows) -> "Dataset":
        rows = np.asarray(rows, dtype=np.int64)
        return Dataset(
            features=self.features[rows],
            labels=self.labels[rows],
            n_classes=self.n_classes,
            ids=self.ids[rows],
        )


@dataclass(frozen=True)
class Partition:
    """Node set for one round of graph construction.

    Nodes are ordered labeled rows first, then the sampled unlabeled rows;
    downstream affinity seeding relies on that order.
    """

    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labeled_idx", np.asarray(self.labeled_idx, dtype=np.int64))
        object.__setattr__(self, "unlabeled_idx", np.asarray(self.unlabeled_idx, dtype=np.int64))
        if np.intersect1d(self.labeled_idx, self.unlabeled_idx).size:
            raise ValueError("labeled and unlabeled index sets overlap")

    @property
    def node_rows(self) -> np.ndarray:
        return np.concatenate([self.labeled_idx, self.unlabeled_idx])

    @property
    def n(self) -> int:
        return self.labeled_idx.size + self.unlabeled_idx.size


def _rng(seed):
    if int(seed) < 0:
        raise ConfigError(f"seed must be non-negative (got {seed})")
    return np.random.default_rng(int(seed))


def _parse_label_cells(cells):
    """Map raw label strings to dense ids; empty cells stay unlabeled.

    Non-negative integer labels are kept verbatim; anything else is mapped
    by first-appearance order.
    """
    nonempty = [c for c in cells if c != ""]
    all_int = True
    for c in nonempty:
        try:
            if int(c) < 0:
                all_int = False
                break
        except ValueError:
            all_int = False
            break
    labels = np.full(len(cells), UNLABELED, dtype=np.int64)
    if all_int:
        for i, c in enumerate(cells):
            if c != "":
                labels[i] = int(c)
    else:
        mapping = {}
        for i, c in enumerate(cells):
            if c == "":
                continue
            if c not in mapping:
                mapping[c] = len(mapping)
            labels[i] = mapping[c]
    # C >= 2 whenever any label is present (Dataset invariant)
    n_classes = max(int(labels.max()) + 1, 2) if (labels != UNLABELED).any() else 0
    return labels, n_classes


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
    cannot read, a non-finite feature value, and bytes that do not decode.

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


def _read_be_u32(fh, path, what):
    raw = fh.read(4)
    if len(raw) != 4:
        raise DataFormatError(f"{path}: truncated {what}")
    return struct.unpack(">I", raw)[0]


def parse_idx(images_path, labels_path) -> Dataset:
    """Parse a big-endian IDX image/label file pair.

    Pixels are flattened row-major and scaled to [0, 1] by dividing by 255.
    """
    with open(images_path, "rb") as fh:
        magic = _read_be_u32(fh, images_path, "header")
        if magic != IDX_IMAGE_MAGIC:
            raise DataFormatError(
                f"{images_path}: wrong magic for images "
                f"(got 0x{magic:08x}, want 0x{IDX_IMAGE_MAGIC:08x})"
            )
        n = _read_be_u32(fh, images_path, "header")
        rows = _read_be_u32(fh, images_path, "header")
        cols = _read_be_u32(fh, images_path, "header")
        payload = fh.read()
        if len(payload) != n * rows * cols:
            raise DataFormatError(
                f"{images_path}: truncated payload "
                f"(got {len(payload)} bytes, want {n * rows * cols})"
            )
        pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols)

    with open(labels_path, "rb") as fh:
        magic = _read_be_u32(fh, labels_path, "header")
        if magic != IDX_LABEL_MAGIC:
            raise DataFormatError(
                f"{labels_path}: wrong magic for labels "
                f"(got 0x{magic:08x}, want 0x{IDX_LABEL_MAGIC:08x})"
            )
        n_labels = _read_be_u32(fh, labels_path, "header")
        if n_labels != n:
            raise DataFormatError(
                f"label count {n_labels} does not match image count {n}"
            )
        payload = fh.read()
        if len(payload) != n_labels:
            raise DataFormatError(f"{labels_path}: truncated payload")
        labels = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)

    features = pixels.astype(np.float64) / 255.0
    n_classes = max(int(labels.max()) + 1, 2) if labels.size else 0
    return Dataset(features, labels, n_classes)


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
    noise = noise_sigma * rng.standard_normal((n, d_noise))
    features = np.hstack([signal, noise])
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
    for c in range(dataset.n_classes):
        rows = np.flatnonzero(dataset.labels == c)
        if rows.size == 0:
            continue
        keep = min(keep_per_class, rows.size)
        chosen = np.sort(rng.choice(rows, size=keep, replace=False))
        labels[chosen] = c
    return Dataset(dataset.features, labels, dataset.n_classes, ids=dataset.ids)


def sample_partition(dataset: Dataset, n_unlabeled: int, seed=0) -> Partition:
    """All labeled rows plus n_unlabeled rows sampled without replacement.

    n_unlabeled = 0 gives the labeled-only (supervised) degenerate case.
    """
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
    chosen = np.sort(rng.choice(unlabeled, size=n_unlabeled, replace=False))
    return Partition(labeled_idx=labeled, unlabeled_idx=chosen)


def split_validation(dataset: Dataset, fraction: float, seed=0):
    """Stratified split of the labeled rows: ceil(fraction * count) per class
    moves to validation.  Unlabeled rows always stay in train.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError("fraction must lie strictly between 0 and 1")
    rng = _rng(seed)
    val_rows = []
    for c in range(dataset.n_classes):
        rows = np.flatnonzero(dataset.labels == c)
        if rows.size < 2:
            if rows.size:
                warnings.warn(
                    f"class {c} has fewer than 2 labeled rows; kept whole in train",
                    stacklevel=2,
                )
            continue
        n_val = math.ceil(fraction * rows.size)
        val_rows.append(rng.choice(rows, size=n_val, replace=False))
    val_rows = np.sort(np.concatenate(val_rows)) if val_rows else np.array([], dtype=np.int64)
    mask = np.ones(dataset.n, dtype=bool)
    mask[val_rows] = False
    return dataset.subset(np.flatnonzero(mask)), dataset.subset(val_rows)
