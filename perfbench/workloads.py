"""Benchmark workloads and the inputs they are generated from.

Every workload trains on the criterion-8 blob recipe: 10 classes, 5 signal
dimensions at separation 6.0, 45 noise dimensions at standard deviation
4.0, and 10 labels kept per class.  The recipe is reimplemented here with
plain numpy, so a change to ``ssdml.data`` cannot silently change what a
workload feeds the program; the program only ever sees the CSV files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_CLASSES = 10
D_SIGNAL = 5
D_NOISE = 45
SEPARATION = 6.0
NOISE_STD = 4.0
KEEP_PER_CLASS = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `config` holds the ``TrainConfig`` fields that differ from the
    defaults (the seed always comes from the command line).
    """

    name: str
    per_class: int
    config: dict = field(default_factory=dict)

    @property
    def orthonormal(self) -> bool:
        return self.config.get("method", "ours") == "ours"


# max_epochs is cut from the defaults so that several repetitions fit in
# one run; epochs_per_partition is kept, so each workload keeps its layer
# mix (one graph, propagation and mining pass per partition).
WORKLOADS = {w.name: w for w in (
    Workload("ours-encoder", 200, {"encoder": True, "max_epochs": 5}),
    Workload("lrml", 200, {"method": "lrml", "max_epochs": 10}),
)}


def class_means() -> np.ndarray:
    """Scaled one-hot class means; classes cycle through the signal axes,
    each full cycle flipping the sign and then growing the magnitude."""
    means = np.zeros((N_CLASSES, D_SIGNAL))
    for c in range(N_CLASSES):
        cycle, axis = divmod(c, D_SIGNAL)
        sign = -1.0 if cycle % 2 else 1.0
        means[c, axis] = sign * (1 + cycle // 2) * SEPARATION
    return means


def draw_blobs(rng: np.random.Generator, per_class: int):
    """(features, labels) for `per_class` rows of every class."""
    labels = np.repeat(np.arange(N_CLASSES, dtype=np.int64), per_class)
    signal = rng.standard_normal((labels.size, D_SIGNAL)) + class_means()[labels]
    noise = NOISE_STD * rng.standard_normal((labels.size, D_NOISE))
    return np.hstack([signal, noise]), labels


def keep_labels(rng: np.random.Generator, labels: np.ndarray) -> np.ndarray:
    """Boolean mask of KEEP_PER_CLASS rows per class, sampled uniformly."""
    kept = np.zeros(labels.size, dtype=bool)
    for c in range(N_CLASSES):
        rows = np.flatnonzero(labels == c)
        kept[rng.choice(rows, size=KEEP_PER_CLASS, replace=False)] = True
    return kept


def write_csv(path: Path, features: np.ndarray, labels) -> None:
    """Headered CSV (f0..f{d-1}, label); None labels become empty cells.

    17 significant digits make the program's reload bit-exact.
    """
    lines = [",".join([f"f{j}" for j in range(features.shape[1])] + ["label"])]
    for row, label in zip(features, labels):
        cells = [f"{v:.17g}" for v in row]
        cells.append("" if label is None else str(int(label)))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Inputs:
    """Generated files plus the arrays written to them (for load checks)."""

    train_csv: Path
    test_csv: Path
    train: tuple  # (features, labels with -1 for unlabeled)
    test: tuple   # (features, labels)


def make_inputs(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's train CSV and held-out test CSV for `seed`.

    The test CSV holds the true labels of the train file's unlabeled rows.
    """
    rng = np.random.default_rng(seed)
    X, y = draw_blobs(rng, workload.per_class)
    kept = keep_labels(rng, y)
    directory = Path(directory)
    inputs = Inputs(directory / "train.csv", directory / "test.csv",
                    (X, np.where(kept, y, -1)), (X[~kept], y[~kept]))
    write_csv(inputs.train_csv, X, [int(v) if k else None for v, k in zip(y, kept)])
    write_csv(inputs.test_csv, *inputs.test)
    return inputs
