"""Dataset files, splits, SBM synthesis, and the reader and writer of every package text file.

On-disk layout of a dataset directory:
    nodes.csv   header "id,f_0,...,f_{p-1},label"
    edges.csv   header "u,v"
    splits.json array of {"train": [...], "val": [...], "test": [...]}
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .graph import Graph, from_edge_list

TRAIN_FRACTION = 0.48
VAL_FRACTION = 0.32
N_SPLITS = 10
_CSV_CHUNK = 4096     # values per step of the text writers; bounds their buffers


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
    combined = np.sort(np.concatenate([split.train, split.val, split.test]))
    if (combined[1:] == combined[:-1]).any():
        raise DataError("split overlap")
    if not np.array_equal(combined, np.arange(n)):
        raise DataError("split does not cover every node exactly once")


def _trainable_split(ds: Dataset, index: int) -> Split:
    """Split `index`; ValueError if out of range, DataError if a part is empty or a label too big.

    n nodes use at most n class ids, so a label of n or more is refused before
    any build, and before a decoder of that many classes is allocated.
    """
    if not 0 <= index < len(ds.splits):
        raise ValueError(f"split out of range: {index} (dataset has {len(ds.splits)})")
    labels, n = ds.graph.labels, ds.graph.n
    if labels is not None and labels.max(initial=-1) >= n:
        raise DataError(f"label {labels.max()} is not below the node count {n}")
    for part, ids in vars(ds.splits[index]).items():
        if not ids.size:
            raise DataError(f"split {index} has no {part} nodes")
    return ds.splits[index]


def generate_splits(labels, seed: int) -> list[Split]:
    """Ten independent per-class splits from sub-seeds seed+0 .. seed+9.

    Per class with n_c members: floor(0.48 n_c) train, floor(0.32 n_c) val,
    remainder test. Every class needs 3 members and one class 4, for a val node.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes, counts = np.unique(labels, return_counts=True)
    small = classes[counts < 3].tolist()
    if small:
        raise ValueError(f"class too small for splitting: {small}")
    if counts.max(initial=0) < 4:
        raise ValueError("no class has the 4 members a validation node needs")
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
    if not (np.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be finite and >= 0, got {separation}")

    sizes = np.full(n_classes, n // n_classes, dtype=np.int64)
    sizes[: n % n_classes] += 1
    labels = np.repeat(np.arange(n_classes), sizes)

    rng = np.random.default_rng(seed)
    # one draw per candidate pair (i, j), i < j, in row-major order: row i's n - 1 - i in one call
    tails = [i + 1 + np.flatnonzero(
        rng.random(n - 1 - i) < np.where(labels[i + 1:] == labels[i], p_in, p_out)
    ) for i in range(n)]
    heads = np.repeat(np.arange(n), [t.size for t in tails])
    edges = np.stack([heads, np.concatenate(tails)], axis=1)

    # scaled standard basis vectors sit at mutual distance `separation` exactly
    means = np.zeros((n_classes, feature_dim))
    means[np.arange(n_classes), np.arange(n_classes)] = separation / np.sqrt(2.0)
    features = rng.standard_normal((n, feature_dim)) + means[labels]

    graph = from_edge_list(n, edges, features, labels)
    splits = generate_splits(labels, seed)
    if name is None:
        name = f"sbm-n{n}-c{n_classes}-pi{p_in}-po{p_out}-s{seed}"
    return Dataset(graph=graph, splits=splits, name=name)


def _labels(count: int) -> np.ndarray:
    """The decimal text of 0 .. count-1 as a fixed-width bytes array."""
    return np.arange(count).astype(f"S{len(str(count))}")


def _reprs(values: np.ndarray) -> np.ndarray:
    """Flat S24 array of each float64's repr (24 bytes fit every one), filled chunk by chunk."""
    flat = values.ravel()
    out = np.empty(flat.size, dtype="S24")
    for lo in range(0, flat.size, _CSV_CHUNK):
        out[lo:lo + _CSV_CHUNK] = list(map(repr, flat[lo:lo + _CSV_CHUNK].tolist()))
    return out


def _write_lines(path, header: str, count: int, cells, sep: bytes, width: int) -> None:
    """Write the line `header`, then `count` LF-ended lines of `width` values each, to path.

    cells(lo, hi) returns the fields of lines lo .. hi-1 (about _CSV_CHUNK values) as fixed-width
    bytes arrays over those lines; one uint8 matrix joins them with `sep`, one mask drops NULs.
    """
    chunk = max(1, _CSV_CHUNK // width)
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode())
        for lo in range(0, count, chunk):
            k = min(chunk, count - lo)
            parts = []
            for a in cells(lo, lo + k):
                a = a.view(np.uint8).reshape(k, -1, a.itemsize)
                parts.append(np.dstack([a, np.full(a.shape[:2], sep[0], np.uint8)]).reshape(k, -1))
            text = np.hstack(parts)
            text[:, -1] = ord("\n")
            fh.write(text[text != 0])


def save_dataset(ds: Dataset, directory) -> None:
    """The dataset's three files in `directory`; floats as their repr, LF line ends."""
    g = ds.graph
    if g.labels is None:  # before any file or directory is made
        raise ValueError("dataset has no labels")
    os.makedirs(directory, exist_ok=True)
    ids, p = _labels(g.n), g.feature_dim
    header = ",".join(["id", *(f"f_{k}" for k in range(p)), "label"])
    _write_lines(
        os.path.join(directory, "nodes.csv"), header, g.n,
        # labels have no upper bound, so they are formatted per chunk, never through _labels
        lambda lo, hi: [ids[lo:hi], _reprs(g.features[lo:hi]), g.labels[lo:hi].astype("S20")],
        b",", p + 2,
    )
    _write_lines(os.path.join(directory, "edges.csv"), "u,v", g.num_edges,
                 lambda lo, hi: [ids[g.edges[lo:hi]]], b",", 2)
    payload = [{k: np.asarray(v).tolist() for k, v in vars(s).items()} for s in ds.splits]
    with open(os.path.join(directory, "splits.json"), "w") as fh:
        json.dump(payload, fh)


_NUMPY_ROW = re.compile(r" at row \d+(, )?|; use .*")  # numpy's row number and usecols advice
_loadtxt = functools.partial(np.loadtxt, delimiter=",", comments=None, ndmin=1)


def _read_rows(fh, fname: str, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The rows after fh's header line as one structured array, and each row's 1-based line.

    The rest of fh is read once and split at "\\n" only (a form feed stays a parse error), and
    one loadtxt call parses plain numerals, skipping empty lines; a failed call is followed by
    one call per line to name the first bad one. numpy sets up every field even for an empty
    body, so a row type wider than 8 bytes per body character is never parsed.
    """
    body = fh.read()
    lines = body.split("\n")
    numbers = np.flatnonzero(np.fromiter(map(len, lines), np.int64, len(lines))) + 2
    if np.dtype(dtype).itemsize > 8 * len(body):
        for no in numbers[:1]:
            raise DataError(f"malformed {fname} row at line {no}: too few fields for the header")
        return np.zeros(0, dtype), numbers
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return _loadtxt(lines, dtype), numbers
        except ValueError as exc:
            for no in numbers:
                try:
                    _loadtxt([lines[no - 2]], dtype)
                except ValueError as bad:
                    reason = _NUMPY_ROW.sub(lambda m: " in " if m[1] else "", str(bad))
                    raise DataError(f"malformed {fname} row at line {no}: {reason}") from exc
            raise DataError(f"malformed {fname}: {exc}") from exc


def _check_rows(fname: str, numbers: np.ndarray, checks: dict) -> None:
    """DataError at the line of the first row failing a check; checks maps reasons to row masks."""
    for what, mask in checks.items():
        if mask.any():
            raise DataError(f"{fname} line {numbers[np.argmax(mask)]}: {what}")


@contextlib.contextmanager
def _open(path):
    """The file at `path` as UTF-8 text; a byte that does not decode raises DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{os.path.basename(path)} is not UTF-8 text: {exc.reason}") from exc


def load_dataset(directory) -> Dataset:
    """Validated Dataset from a directory; node ids must be 0..n-1 contiguous."""
    for fname in ("nodes.csv", "edges.csv", "splits.json"):
        if not os.path.exists(os.path.join(directory, fname)):
            raise DataError(f"missing file: {fname}")

    with _open(os.path.join(directory, "nodes.csv")) as fh:
        header = fh.readline().rstrip("\n").split(",")
        p = len(header) - 2
        if p < 1 or header != ["id", *(f"f_{k}" for k in range(p)), "label"]:
            raise DataError("malformed nodes.csv header")
        row = [("id", "i8"), ("f", "f8", (p,)), ("label", "i8")]
        rows, numbers = _read_rows(fh, "nodes.csv", row)
    if not rows.size:
        raise DataError("nodes.csv has no rows")
    n = rows.size
    ids, first = np.unique(rows["id"], return_index=True)  # first: the first row of each id
    repeat = np.ones(n, dtype=bool)
    repeat[first] = False
    _check_rows("nodes.csv", numbers, {
        "repeated node id (ids must be contiguous 0..n-1)": repeat,
        "non-finite feature": ~np.isfinite(rows["f"]).all(axis=1),
        "label out of class range": rows["label"] < 0,
    })
    if not np.array_equal(ids, np.arange(n)):  # n distinct ids: one of 0..n-1 is absent
        missing = np.flatnonzero(~np.isin(np.arange(n), ids))[0]
        raise DataError(f"nodes.csv: node id {missing} is missing (ids must be contiguous 0..n-1)")
    features, labels = rows["f"][first], rows["label"][first]

    with _open(os.path.join(directory, "edges.csv")) as fh:
        if fh.readline().rstrip("\n") != "u,v":
            raise DataError("malformed edges.csv header")
        rows, numbers = _read_rows(fh, "edges.csv", [("uv", "i8", (2,))])
    raw_edges = rows["uv"]
    _check_rows("edges.csv", numbers,
                {"edge endpoint out of range": ((raw_edges < 0) | (raw_edges >= n)).any(axis=1)})

    with _open(os.path.join(directory, "splits.json")) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError("malformed splits.json") from exc
    if not isinstance(payload, list) or not payload:
        raise DataError("splits.json must be a non-empty array")
    splits = []
    for item in payload:
        try:
            parts = [item[k] for k in ("train", "val", "test")]
            # lists of JSON integers only: np.int64 would truncate a float and cast a bool
            if not all(isinstance(ids, list) and set(map(type, ids)) <= {int} for ids in parts):
                raise TypeError
            split = Split(*(np.asarray(ids, dtype=np.int64) for ids in parts))
        except (KeyError, TypeError, OverflowError) as exc:
            raise DataError("malformed splits.json entry: need lists of int64 ids") from exc
        _validate_split(split, n)
        splits.append(split)

    graph = from_edge_list(n, raw_edges, features, labels)  # every check it makes has passed
    return Dataset(graph=graph, splits=splits, name=os.path.basename(os.path.normpath(directory)))
