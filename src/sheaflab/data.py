"""Dataset files, per-class splits, and synthetic SBM generation.

On-disk layout of a dataset directory:
    nodes.csv   header "id,f_0,...,f_{p-1},label"
    edges.csv   header "u,v"
    splits.json array of {"train": [...], "val": [...], "test": [...]}
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import Graph, from_edge_list

TRAIN_FRACTION = 0.48
VAL_FRACTION = 0.32
N_SPLITS = 10
_SBM_CHUNK = 1 << 18  # candidate node pairs per rng.random call in synth_sbm


@dataclass(eq=False)
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass(eq=False)
class Dataset:
    graph: Graph
    splits: list[Split]
    name: str


def _validate_split(split: Split, n: int) -> None:
    parts = [split.train, split.val, split.test]
    combined = np.concatenate(parts)
    if np.unique(combined).size != combined.size:
        raise DataError("split overlap")
    if not np.array_equal(np.sort(combined), np.arange(n)):
        raise DataError("split does not cover every node exactly once")


def generate_splits(labels, seed: int) -> list[Split]:
    """Ten independent per-class splits from sub-seeds seed+0 .. seed+9.

    Per class with n_c members: floor(0.48 n_c) train, floor(0.32 n_c) val,
    remainder test.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    counts = {int(c): int(np.sum(labels == c)) for c in classes}
    small = [c for c, k in counts.items() if k < 3]
    if small:
        raise ValueError(f"class too small for splitting: {small}")
    splits = []
    for k in range(N_SPLITS):
        rng = np.random.default_rng(seed + k)
        train, val, test = [], [], []
        for c in classes:
            members = np.flatnonzero(labels == c)
            perm = rng.permutation(members)
            n_tr = int(np.floor(TRAIN_FRACTION * members.size))
            n_va = int(np.floor(VAL_FRACTION * members.size))
            train.append(perm[:n_tr])
            val.append(perm[n_tr:n_tr + n_va])
            test.append(perm[n_tr + n_va:])
        splits.append(
            Split(
                train=np.sort(np.concatenate(train)),
                val=np.sort(np.concatenate(val)),
                test=np.sort(np.concatenate(test)),
            )
        )
    return splits


def synth_sbm(
    n: int,
    n_classes: int,
    p_in: float,
    p_out: float,
    feature_dim: int,
    separation: float,
    seed: int,
    name: str | None = None,
) -> Dataset:
    """Balanced stochastic block model with class-conditional Gaussian features.

    Class means sit at mutual Euclidean distance `separation` with unit
    covariance; labels are the blocks; splits come from generate_splits.
    Expected homophily is p_in / (p_in + (C-1) p_out) for balanced classes.
    """
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must lie in [0, 1]")
    if n_classes < 1 or n < n_classes:
        raise ValueError("degenerate parameters: need n >= n_classes >= 1")
    if feature_dim < n_classes:
        raise ValueError("degenerate parameters: need feature_dim >= n_classes")
    if separation < 0:
        raise ValueError("degenerate parameters: separation must be >= 0")

    sizes = np.full(n_classes, n // n_classes, dtype=np.int64)
    sizes[: n % n_classes] += 1
    labels = np.repeat(np.arange(n_classes), sizes)

    rng = np.random.default_rng(seed)
    # one draw per candidate pair (i, j), i < j, in row-major order, taken in
    # chunks of _SBM_CHUNK pairs; row i's pairs start at flat index first[i]
    rows = np.arange(n)
    first = rows * (2 * n - rows - 1) // 2
    total = int(first[-1])  # n (n - 1) / 2
    pairs = [np.zeros((0, 2), dtype=np.int64)]
    for lo in range(0, total, _SBM_CHUNK):
        flat = np.arange(lo, min(lo + _SBM_CHUNK, total))
        iu = np.searchsorted(first, flat, side="right") - 1
        ju = flat - first[iu] + iu + 1
        keep = rng.random(flat.size) < np.where(labels[iu] == labels[ju], p_in, p_out)
        pairs.append(np.stack([iu[keep], ju[keep]], axis=1))
    edges = np.concatenate(pairs)

    # scaled standard basis vectors sit at mutual distance `separation` exactly
    means = np.zeros((n_classes, feature_dim))
    means[np.arange(n_classes), np.arange(n_classes)] = separation / np.sqrt(2.0)
    features = rng.standard_normal((n, feature_dim)) + means[labels]

    graph = from_edge_list(n, edges, features, labels)
    splits = generate_splits(labels, seed)
    if name is None:
        name = f"sbm-n{n}-c{n_classes}-pi{p_in}-po{p_out}-s{seed}"
    return Dataset(graph=graph, splits=splits, name=name)


def save_dataset(ds: Dataset, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    g = ds.graph
    p = g.feature_dim
    with open(os.path.join(directory, "nodes.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f_{k}" for k in range(p)] + ["label"])
        for i in range(g.n):
            row = [i] + [repr(float(x)) for x in g.features[i]] + [int(g.labels[i])]
            writer.writerow(row)
    with open(os.path.join(directory, "edges.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v"])
        for u, v in g.edges:
            writer.writerow([int(u), int(v)])
    payload = [
        {
            "train": [int(i) for i in s.train],
            "val": [int(i) for i in s.val],
            "test": [int(i) for i in s.test],
        }
        for s in ds.splits
    ]
    with open(os.path.join(directory, "splits.json"), "w") as fh:
        json.dump(payload, fh)


def load_dataset(directory) -> Dataset:
    """Validated Dataset from a directory; node ids must be 0..n-1 contiguous."""
    for fname in ("nodes.csv", "edges.csv", "splits.json"):
        if not os.path.exists(os.path.join(directory, fname)):
            raise DataError(f"missing file: {fname}")

    with open(os.path.join(directory, "nodes.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if (
            header is None
            or len(header) < 3
            or header[0] != "id"
            or header[-1] != "label"
            or header[1:-1] != [f"f_{k}" for k in range(len(header) - 2)]
        ):
            raise DataError("malformed nodes.csv header")
        p = len(header) - 2
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != p + 2:
                raise DataError(f"malformed nodes.csv row: {row!r}")
            try:
                rows.append(
                    (int(row[0]), [float(x) for x in row[1:-1]], int(row[-1]))
                )
            except ValueError as exc:
                raise DataError(f"malformed nodes.csv row: {row!r}") from exc
    if not rows:
        raise DataError("nodes.csv has no rows")
    rows.sort(key=lambda r: r[0])
    ids = [r[0] for r in rows]
    n = len(rows)
    if ids != list(range(n)):
        raise DataError("node ids must be contiguous 0..n-1")
    features = np.array([r[1] for r in rows], dtype=np.float64)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        raise DataError(f"non-finite feature in nodes.csv at node {int(np.argmin(finite))}")
    labels = np.array([r[2] for r in rows], dtype=np.int64)

    with open(os.path.join(directory, "edges.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["u", "v"]:
            raise DataError("malformed edges.csv header")
        raw_edges = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"malformed edges.csv row: {row!r}")
            try:
                raw_edges.append((int(row[0]), int(row[1])))
            except ValueError as exc:
                raise DataError(f"malformed edges.csv row: {row!r}") from exc

    with open(os.path.join(directory, "splits.json")) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError("malformed splits.json") from exc
    if not isinstance(payload, list) or not payload:
        raise DataError("splits.json must be a non-empty array")
    splits = []
    for item in payload:
        try:
            split = Split(
                train=np.asarray(item["train"], dtype=np.int64),
                val=np.asarray(item["val"], dtype=np.int64),
                test=np.asarray(item["test"], dtype=np.int64),
            )
        except (KeyError, TypeError) as exc:
            raise DataError("malformed splits.json entry") from exc
        _validate_split(split, n)
        splits.append(split)

    try:
        graph = from_edge_list(n, raw_edges, features, labels)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    return Dataset(graph=graph, splits=splits, name=os.path.basename(os.path.normpath(directory)))
