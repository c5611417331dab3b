"""Undirected attributed graphs with canonical edge storage.

Edges are kept in one canonical form throughout the package: each undirected
edge is stored once as (u, v) with u < v, the edge list sorted
lexicographically, self-loops dropped and duplicates collapsed. This fixes
the row ordering of every operator assembled downstream, so identical inputs
produce byte-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class Graph:
    """Simple undirected graph with per-node features and optional labels.

    Treated as immutable after construction; safe to share across workers.
    """

    n: int
    edges: np.ndarray                 # (m, 2) int64, canonical
    features: np.ndarray              # (n, p) float64
    labels: np.ndarray | None = None  # (n,) int64 class ids

    def __post_init__(self):
        # degrees[i] counts node i's neighbours, listed only by sheaf.neighbourhood_with_padding
        self.degrees = np.bincount(self.edges.ravel(), minlength=self.n)
        self.degrees.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges}, p={self.feature_dim})"


def from_edge_list(n: int, raw_edges, features, labels=None) -> Graph:
    """Build a canonical Graph from a possibly messy edge list.

    Both orientations of a pair collapse to one undirected edge, self-loops
    are dropped, and edges come out lexicographically sorted.
    """
    features = np.array(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] != n:
        raise ValueError(
            f"feature row count mismatch: expected {n} rows, got shape {features.shape}"
        )
    raw = np.asarray(raw_edges if isinstance(raw_edges, np.ndarray) else list(raw_edges), np.int64)
    if raw.size and (raw.ndim != 2 or raw.shape[1] != 2):
        raise ValueError("raw_edges must be a sequence of (u, v) pairs")
    raw = raw.reshape(-1, 2)
    if raw.size and (raw.min() < 0 or raw.max() >= n):
        raise ValueError("edge endpoint out of range")
    # the key lo * n + hi orders edges lexicographically; self-loops dropped, repeats collapsed
    lo, hi = raw.min(axis=1), raw.max(axis=1)
    key = np.sort((lo * n + hi)[lo != hi])
    edges = np.stack(np.divmod(key[np.diff(key, prepend=-1) != 0], n), axis=1)
    if labels is not None:
        labels = np.asarray(labels)
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        labels = labels.astype(np.int64)
        if labels.shape != (n,):
            raise ValueError(f"labels must have length {n}")
        if labels.size and labels.min() < 0:
            raise ValueError("label out of class range")
    features.setflags(write=False)
    edges.setflags(write=False)
    return Graph(n=n, edges=edges, features=features, labels=labels)


def homophily(g: Graph) -> float:
    """Fraction of edges whose endpoints carry the same class label."""
    if g.labels is None:
        raise ValueError("missing labels")
    if g.num_edges == 0:
        raise ValueError("empty edge set")
    us, vs = g.edges[:, 0], g.edges[:, 1]
    return float(np.mean(g.labels[us] == g.labels[vs]))
