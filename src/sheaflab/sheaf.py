"""Discrete O(d)-bundles over attributed graphs.

The connection sheaf is built in two stages. First, every node gets an
orthonormal tangent-space basis, a (p, d) array, from a local PCA of its
neighbours' centred feature vectors, where the neighbourhood is the 1-hop
set padded with feature-space nearest non-neighbours whenever it is smaller
than the stalk dimension; nodes whose neighbourhoods have one length share
one batched SVD, the sign fix and the tie order run over the whole group,
and only a node of rank < d is completed on its own. `Sheaf.bases` stacks
the bases into one (n, p, d) array. Second, each edge gets the orthogonal
map that best aligns the two endpoint bases in Frobenius norm (the
orthogonal Procrustes solution, the polar factor of the basis cross-Gram);
all edges share one batched SVD.

Trivial and Haar-random bundles are provided as baselines. All
constructions are deterministic functions of their inputs and seeds.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox  # numpy loads numpy.random lazily: load it with sheaflab

from .data import _check_rows, _labels, _loadtxt, _open, _read_rows, _reprs, _write_lines
from .errors import DataError, GuardError
from .graph import Graph

# Reproducibility thresholds. Left singular vectors are defined only up to
# sign (and up to rotation inside a tied singular block), so builds pin a
# canonical gauge; these tolerances decide when the degenerate branches fire.
_TIE_TOL = 1e-10       # singular values closer than this are one tied group
_RANK_TOL = 1e-10      # relative cutoff below which a singular value is zero
_GS_TOL = 1e-8         # Gram-Schmidt residual below this is near-dependent
_SINGULAR_TOL = 1e-10  # cross-Gram smallest singular value: alignment flagged
_ORTHO_TOL = 1e-10     # max |O^T O - I| a transport read from CSV may have


@dataclass(frozen=True)
class BuildDiagnostics:
    """Counters for the degenerate branches hit during a connection build."""

    padded_nodes: int = 0
    rank_completed_bases: int = 0
    singular_alignments: int = 0


@dataclass(eq=False)
class Sheaf:
    """A discrete O(d)-bundle: one orthogonal transport per canonical edge."""

    d: int
    n: int
    kind: str                   # connection | trivial | rand-edge | rand-node
    edges: np.ndarray           # (m, 2); a built sheaf shares the graph's read-only array
    transports: np.ndarray      # (m, d, d); transports[e] maps u-stalk to v-stalk
    bases: np.ndarray | None = None  # (n, p, d) connection bases, sign-canonical
    diagnostics: BuildDiagnostics = BuildDiagnostics()  # frozen, so one shared default is safe

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def __repr__(self) -> str:
        return f"Sheaf(kind={self.kind!r}, n={self.n}, d={self.d}, m={self.num_edges})"


def _sign_canonical(cols: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-|entry| coordinate (first on ties) is >= 0.

    `cols` is one matrix or a stack of them; each column runs along axis -2.
    """
    idx = np.argmax(np.abs(cols), axis=-2)[..., None, :]
    signs = np.sign(np.take_along_axis(cols, idx, axis=-2))
    signs[signs == 0] = 1.0
    return cols * signs


def _complete_basis(cols: list[np.ndarray], p: int, d: int) -> list[np.ndarray]:
    """Extend orthonormal columns to d of them by Gram-Schmidt on e_1, e_2, ..."""
    for k in range(p):
        if len(cols) == d:
            break
        cand = np.zeros(p)
        cand[k] = 1.0
        for c in cols:
            cand = cand - (c @ cand) * c
        nrm = float(np.linalg.norm(cand))
        if nrm > _GS_TOL:
            cols.append(cand / nrm)
    return cols


def _pca_bases(features: np.ndarray, centres: np.ndarray, neighbours: np.ndarray, d: int):
    """Canonical top-d PCA bases of a group of nodes whose (G, N) neighbour lists have one length.

    One batched SVD covers the group, and the gauge is fixed on all of it at
    once: every left singular vector is sign-fixed, then the columns of each
    tied run of singular values are sorted lexicographically (the identity
    for a node without ties). A node of rank < d keeps its rank columns and
    is completed by Gram-Schmidt. Returns the (G, p, d) bases and the (G,)
    rank-completed flags.
    """
    xhat = np.swapaxes(features[neighbours] - features[centres][:, None, :], 1, 2)  # (G, p, N)
    u, s, _ = np.linalg.svd(xhat, full_matrices=False)
    u = _sign_canonical(u)
    breaks = s[:, :-1] - s[:, 1:] > _TIE_TOL * np.maximum(1.0, s[:, :1])
    group = np.cumsum(np.concatenate((np.ones_like(s[:, :1], bool), breaks), axis=1), axis=1)
    # stable: by tied run, then as `sorted` orders tuple(u[:, k]), first row first
    order = np.lexsort((*np.swapaxes(u[:, ::-1], 0, 1), group), axis=-1)
    u = np.take_along_axis(u, order[:, None, :], axis=2)
    s = np.take_along_axis(s, order, axis=1)
    rank = np.count_nonzero(s > _RANK_TOL * np.maximum(1.0, s[:, :1]), axis=1)
    bases = u[:, :, :d]
    for k in np.flatnonzero(rank < d):
        # contiguous columns: Gram-Schmidt's dot products round by memory layout
        cols = _complete_basis(list(u[k, :, :rank[k]].T.copy()), u.shape[1], d)
        bases[k] = _sign_canonical(np.column_stack(cols))
    return bases, rank < d


def neighbourhood_with_padding(g: Graph, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every node's 1-hop neighbours, padded up to length d with nearest non-neighbours.

    Returns (flat, starts): node i's neighbourhood is flat[starts[i]:starts[i + 1]],
    its ascending neighbours, then for a node of degree below d the padding:
    every node other than i and its neighbours, in ascending order of
    Euclidean feature distance to node i, ties broken by lower node id.
    """
    if d < 1:
        raise ValueError("stalk dimension must be >= 1")
    if g.n <= d:
        raise GuardError(f"cannot pad neighbourhoods: need n > d, got n={g.n}, d={d}")
    starts = np.concatenate(([0], np.cumsum(np.maximum(g.degrees, d))))
    flat = np.empty(starts[-1], dtype=np.int64)
    # sorting head * n + tail over both orientations puts each node's ascending
    # neighbours in one run; node i's run moves right by the padding before it
    us, vs = g.edges.astype(np.int64).T  # n * n overflows int32 above n = 46,340
    heads, tails = np.divmod(np.sort(np.concatenate([us * g.n + vs, vs * g.n + us])), g.n)
    shift = starts - np.concatenate(([0], np.cumsum(g.degrees)))
    flat[np.arange(tails.size) + shift[heads]] = tails
    for i in np.flatnonzero(g.degrees < d):
        lo, hi = starts[i], starts[i] + g.degrees[i]  # node i's neighbours: flat[lo:hi]
        cand = np.delete(np.arange(g.n), np.append(flat[lo:hi], i))  # ascending
        dists = np.linalg.norm(g.features[cand] - g.features[i], axis=1)
        order = np.lexsort((cand, dists))  # distance first, node id on ties
        flat[hi:starts[i + 1]] = cand[order[: starts[i + 1] - hi]]
    return flat, starts


def _polar(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar factors U V^T of a stack of matrices, plus their smallest singular values."""
    u, s, vt = np.linalg.svd(m)
    return np.matmul(u, vt), s[..., -1]


def align(bi: np.ndarray, bj: np.ndarray) -> np.ndarray:
    """Orthogonal O minimising ||Bi O - Bj||_F for (p, d) bases (Procrustes polar factor)."""
    if bi.shape != bj.shape:
        raise ValueError(f"dimension mismatch: {bi.shape} vs {bj.shape}")
    return _polar(bi.T @ bj)[0]


def transports_from_bases(edges: np.ndarray, bases: np.ndarray):
    """Per-edge u-to-v transport maps from (n, p, d) node bases, plus a singular count.

    The transport stored for canonical edge (u, v) is the polar factor of
    B_v^T B_u. This orientation makes a change of basis B_i -> B_i Q_i act
    on every transport as Q_v^T O Q_u, i.e. as a block-diagonal orthogonal
    conjugation of the assembled Laplacian, which keeps the spectrum
    gauge-invariant.
    """
    cross = np.matmul(np.transpose(bases[edges[:, 1]], (0, 2, 1)), bases[edges[:, 0]])
    transports, smin = _polar(cross)
    return transports, int(np.count_nonzero(smin < _SINGULAR_TOL))


def build_connection_sheaf(g: Graph, d: int) -> Sheaf:
    """Local PCA bases at every node, Procrustes transport on every edge.

    Pure function of (graph, features, d): identical inputs give
    bit-identical sheaves. Diagnostics count padded neighbourhoods,
    rank-completed bases and near-singular alignments.
    """
    p = g.feature_dim
    if d > p:
        raise GuardError("stalk dimension exceeds feature dimension")
    flat, starts = neighbourhood_with_padding(g, d)
    sizes = np.diff(starts)
    bases = np.empty((g.n, p, d), dtype=np.float64)
    completed = 0
    # one batched SVD per neighbourhood length; np.unique here would import numpy.ma
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        ids = np.flatnonzero(sizes == size)
        nbrs = flat[starts[ids, None] + np.arange(size)]
        bases[ids], flags = _pca_bases(g.features, ids, nbrs, d)
        completed += int(np.count_nonzero(flags))

    transports, singular = transports_from_bases(g.edges, bases)
    padded = int(np.count_nonzero(g.degrees < d))
    return Sheaf(
        d=d,
        n=g.n,
        kind="connection",
        edges=g.edges,
        transports=transports,
        bases=bases,
        diagnostics=BuildDiagnostics(padded, completed, singular),
    )


def trivial_sheaf(g: Graph, d: int) -> Sheaf:
    """Identity transport on every edge; recovers the graph Laplacian at d=1."""
    if d < 1:
        raise ValueError("stalk dimension must be >= 1")
    transports = np.tile(np.eye(d), (g.num_edges, 1, 1))
    return Sheaf(d=d, n=g.n, kind="trivial", edges=g.edges, transports=transports)


def haar_orthogonal(gaussians: np.ndarray) -> np.ndarray:
    """Haar-distributed orthogonal matrices from a (..., d, d) stack of standard Gaussians.

    QR of each Gaussian matrix with the R-diagonal sign correction (each Q
    column scaled by sign(R_kk)), which makes the distribution exactly Haar
    rather than QR-convention dependent. The whole stack is one batched QR,
    bitwise equal to one QR per matrix.
    """
    a = np.asarray(gaussians, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"need a (..., d, d) stack with d >= 1, got shape {a.shape}")
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def _standard_normals(seed: int, count: int, size: int) -> np.ndarray:
    """(count, size) standard Gaussians; row k is a function of (seed, k) alone.

    The words come from one `np.random.Philox(key=seed)` stream, seed in [0, 2**128): row k
    takes its b = ceil(size / 4) four-word counter blocks k b + 1 .. k b + b. A word w gives
    u = (w >> 11) * 2**-53, and Box-Muller turns each pair (u_2i, u_2i+1) into r cos t, r sin t
    with r = sqrt(-2 log1p(-u_2i)) and t = 2 pi u_2i+1; the first `size` are kept.
    """
    seed = operator.index(seed)  # numpy's own key check would take 1.5 or "3"
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    width = 4 * -(-size // 4)  # whole blocks; explicit, so count = 0 reshapes too
    words = Philox(key=seed).random_raw(count * width).reshape(count, width)
    u = (words >> np.uint64(11)) * 2.0**-53
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    t = (2.0 * np.pi) * u[:, 1::2]
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1).reshape(count, width)[:, :size]


def _haar_stack(d: int, seed: int, count: int) -> np.ndarray:
    """`count` Haar matrices; item k's Gaussians are row k of `_standard_normals`.

    One `haar_orthogonal` call does every QR.
    """
    if d < 1:
        raise ValueError("stalk dimension must be >= 1")
    return haar_orthogonal(_standard_normals(seed, count, d * d).reshape(count, d, d))


def random_edge_sheaf(g: Graph, d: int, seed: int) -> Sheaf:
    """Independent Haar transport per edge, in canonical edge order."""
    transports = _haar_stack(d, seed, g.num_edges)
    return Sheaf(d=d, n=g.n, kind="rand-edge", edges=g.edges, transports=transports)


def node_sheaf_from_matrices(g: Graph, matrices: np.ndarray) -> Sheaf:
    """Flat bundle from per-node orthogonal matrices Q_i: edge (u, v) gets Q_u^T Q_v."""
    matrices = np.asarray(matrices, dtype=np.float64)
    if matrices.shape[0] != g.n:
        raise ValueError("need one matrix per node")
    us, vs = g.edges[:, 0], g.edges[:, 1]
    transports = np.matmul(np.transpose(matrices[us], (0, 2, 1)), matrices[vs])
    return Sheaf(
        d=matrices.shape[1], n=g.n, kind="rand-node", edges=g.edges, transports=transports
    )


def random_node_sheaf(g: Graph, d: int, seed: int) -> Sheaf:
    """Haar matrix per node, transports composed from endpoint pairs."""
    return node_sheaf_from_matrices(g, _haar_stack(d, seed, g.n))


def write_sheaf_csv(s: Sheaf, path) -> None:
    """One record per edge: u, v, then d*d row-major transport entries."""
    labels = _labels(s.n)
    _write_lines(
        path, f"n={s.n},d={s.d},kind={s.kind}", s.num_edges,
        lambda lo, hi: [labels[s.edges[lo:hi]], _reprs(s.transports[lo:hi])],
        b",", 2 + s.d * s.d,
    )


def read_sheaf_csv(path) -> Sheaf:
    """The sheaf in a write_sheaf_csv file, read as load_dataset reads its CSVs.

    Edges must be canonical (0 <= u < v < n, strictly increasing) and every transport
    orthogonal to within _ORTHO_TOL; a DataError names the file and the 1-based line.
    """
    name = os.path.basename(path)
    with _open(path) as fh:
        header = fh.readline().strip()
        try:
            meta = dict(item.split("=", 1) for item in header.split(","))
            n, d = _loadtxt([f"{meta['n']},{meta['d']}"], np.int64).tolist()  # as in a row
            kind = meta["kind"]
            if n < 0 or d < 1:
                raise ValueError
            row = np.dtype([("uv", "i8", (2,)), ("t", "f8", (d, d))])  # ValueError: d >= 16384
        except (KeyError, ValueError) as exc:
            raise DataError(f"{name} line 1: bad header {header!r} (n>=0, d>=1, kind)") from exc
        rows, numbers = _read_rows(fh, name, row)
    edges, transports = np.ascontiguousarray(rows["uv"]), np.ascontiguousarray(rows["t"])
    us, vs = edges[:, 0], edges[:, 1]
    bad = (us < 0) | (us >= vs) | (vs >= n)
    bad[1:] |= (us[1:] < us[:-1]) | ((us[1:] == us[:-1]) & (vs[1:] <= vs[:-1]))
    gram = np.matmul(np.transpose(transports, (0, 2, 1)), transports)
    ortho = np.max(np.abs(gram - np.eye(d)), axis=(1, 2)) <= _ORTHO_TOL
    _check_rows(name, numbers,
                {"edge not canonical or out of order": bad, "transport not orthogonal": ~ortho})
    return Sheaf(d=d, n=n, kind=kind, edges=edges, transports=transports)
