"""Loop-based reference implementations that only the tests use.

Each is kept in its straightforward per-node / per-edge / per-block form,
independent of the vectorised package code it checks:

- `Coboundary`, `coboundary` and `laplacian_from_coboundary`: the sheaf
  Laplacian as the dense product delta^T delta;
- `graph_laplacian`: the classical dense L = D - A;
- `read_laplacian_coo`: a dense matrix back from a COO export;
- `one_hop_neighbourhood` and `loop_neighbourhood_with_padding`: one
  node's neighbours, read from the canonical edge list by a scan of both
  columns and one sort, and its padded neighbourhood with its own distance
  sort, one node per call;
- `loop_to_dense` and `loop_write_laplacian_coo`: block-by-block versions
  of `BlockLaplacian.to_dense` and `write_laplacian_coo`, each diagonal
  block rebuilt as a full d x d matrix;
- `addat_apply`: `laplacian.apply` with one matmul of every full d x d
  diagonal block and one multi-dimensional `np.add.at` of whole (d, f)
  blocks per pass;
- `encode`: the diffusion model's linear encoder, one matrix-vector
  product W_in x_v per node, where `model.forward` lifts all nodes with one
  product;
- `two_pass_cross_entropy`: the masked loss and its gradient each from a
  masked softmax of its own, where `model.cross_entropy_grad` takes one;
- `euler_diffusion`: explicit unit-step Euler diffusion (I - L)^steps x0,
  which as many identity-weight diffusion layers reproduce (criterion 09);
- `sheaf_layer`: one diffusion layer X - act(L (I kron W1) X W2) with one
  stacked W1 product per node and one W2 product, where `model.forward`
  multiplies by kron(W1, W2^T) once; its activations `_ACTIVATIONS` and
  their derivatives `_ACTIVATION_GRADS`, stated apart from the package's
  table;
- `loop_write_sheaf_csv`: the per-edge version of `write_sheaf_csv`;
- `loop_read_sheaf_csv`: the sheaf CSV reader with one `int()` or `float()`
  per field and the line numbers kept in a list;
- `loop_transports_from_bases` and `loop_node_sheaf_from_matrices`: one
  SVD or matrix product per edge;
- `_pca_basis`: one node's canonical PCA basis from its own SVD, with the
  tie order (`_reorder_ties`, a `sorted` per tied run in a `while` loop)
  and the rank completion (`_complete_basis`, Gram-Schmidt on e_1, e_2,
  ...) applied node by node, where the package's `_pca_bases` sorts a
  whole group with one `np.lexsort`;
- `loop_build_sheaf`: every sheaf kind with per-node bases (one
  `_pca_basis` call per node), per-node padding
  (`loop_neighbourhood_with_padding`), a per-node padding count and, per
  Haar draw, a numpy `np.random.Philox` of the item's own, started at the
  item's first counter block (`philox_item_words`), Box-Muller on that
  item alone (`philox_item_normals`) and one QR;
- `all_pairs_synth_sbm`: the SBM sampler that draws all n(n-1)/2
  candidate pairs in one call, the reference for `synth_sbm`, which draws
  them row by row;
- `loop_validate_split` and `loop_load_dataset`: the dataset reader with
  the csv module, one `int()` or `float()` per field, and a split check
  through `np.unique`;
- `loop_save_dataset`: the dataset writer with the csv module, which ends
  every line in CRLF.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from sheaflab.data import Dataset, Split, generate_splits
from sheaflab.errors import DataError, GuardError
from sheaflab.graph import Graph, from_edge_list
from sheaflab.laplacian import BlockLaplacian, _check_match, apply
from sheaflab.sheaf import (
    _GS_TOL,
    _ORTHO_TOL,
    _RANK_TOL,
    _SINGULAR_TOL,
    _TIE_TOL,
    BuildDiagnostics,
    Sheaf,
    _sign_canonical,
    trivial_sheaf,
)


@dataclass(eq=False)
class Coboundary:
    """Block-sparse edge-disagreement operator.

    Block row e for edge (u, v) holds the identity at the head column and
    minus the transport at the tail column; `orientations[e]` = +1 means
    the canonical orientation u -> v, -1 the reverse.
    """

    n: int
    d: int
    edges: np.ndarray        # (m, 2) canonical
    transports: np.ndarray   # (m, d, d), u-stalk to v-stalk
    orientations: np.ndarray  # (m,) values in {+1, -1}

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Per-edge disagreements of a 0-cochain; x is (nd,) or (nd, f)."""
        vec = x.ndim == 1
        xb = (x[:, None] if vec else x).reshape(self.n, self.d, -1)
        m, d = self.num_edges, self.d
        out = np.empty((m, d, xb.shape[2]), dtype=np.float64)
        for e, (u, v) in enumerate(self.edges):
            if self.orientations[e] > 0:
                out[e] = xb[v] - self.transports[e] @ xb[u]
            else:
                out[e] = xb[u] - self.transports[e].T @ xb[v]
        out = out.reshape(m * d, -1)
        return out[:, 0] if vec else out

    def to_dense(self) -> np.ndarray:
        m, n, d = self.num_edges, self.n, self.d
        delta = np.zeros((m * d, n * d), dtype=np.float64)
        eye = np.eye(d)
        for e, (u, v) in enumerate(self.edges):
            rows = slice(e * d, (e + 1) * d)
            if self.orientations[e] > 0:
                delta[rows, v * d:(v + 1) * d] = eye
                delta[rows, u * d:(u + 1) * d] = -self.transports[e]
            else:
                delta[rows, u * d:(u + 1) * d] = eye
                delta[rows, v * d:(v + 1) * d] = -self.transports[e].T
        return delta


def coboundary(s: Sheaf, g: Graph, orientations=None) -> Coboundary:
    """Coboundary operator of the sheaf over g.

    `orientations` overrides the per-edge orientation (+1 canonical u -> v);
    the induced Laplacian is orientation-independent.
    """
    _check_match(s, g)
    m = s.num_edges
    if orientations is None:
        orientations = np.ones(m, dtype=np.int64)
    else:
        orientations = np.asarray(orientations, dtype=np.int64)
        if orientations.shape != (m,) or not np.all(np.abs(orientations) == 1):
            raise ValueError("orientations must be one of +1/-1 per edge")
    return Coboundary(
        n=g.n,
        d=s.d,
        edges=s.edges.copy(),
        transports=s.transports.copy(),
        orientations=orientations,
    )


def laplacian_from_coboundary(c: Coboundary) -> BlockLaplacian:
    """Oracle path: dense delta^T delta, re-blocked on the edge pattern.

    A diagonal block is kept as its diagonal; its other entries must vanish
    (to 1e-10, as they do for orthogonal transports), else ValueError.
    """
    delta = c.to_dense()
    dense = delta.T @ delta
    n, d = c.n, c.d
    diag = np.empty((n, d), dtype=np.float64)
    for v in range(n):
        block = dense[v * d:(v + 1) * d, v * d:(v + 1) * d]
        if np.max(np.abs(block - np.diag(np.diag(block)))) > 1e-10:
            raise ValueError(f"diagonal block {v} is not diagonal")
        diag[v] = np.diag(block)
    off = np.empty((c.num_edges, d, d), dtype=np.float64)
    for e, (u, v) in enumerate(c.edges):
        off[e] = dense[v * d:(v + 1) * d, u * d:(u + 1) * d]
    return BlockLaplacian(n=n, d=d, edges=c.edges.copy(), diag=diag, off=off)


def graph_laplacian(g: Graph) -> np.ndarray:
    """Classical L = D - A as a dense symmetric n x n matrix."""
    lap = np.zeros((g.n, g.n), dtype=np.float64)
    if g.num_edges:
        us, vs = g.edges[:, 0], g.edges[:, 1]
        lap[us, vs] = -1.0
        lap[vs, us] = -1.0
        deg = np.bincount(g.edges.ravel(), minlength=g.n)
        lap[np.arange(g.n), np.arange(g.n)] = deg
    return lap


def one_hop_neighbourhood(g: Graph, i: int) -> np.ndarray:
    """Ascending ids of the nodes adjacent to i (i itself excluded)."""
    if not 0 <= i < g.n:
        raise ValueError(f"node index {i} out of range [0, {g.n})")
    us, vs = g.edges[:, 0], g.edges[:, 1]
    return np.sort(np.concatenate([vs[us == i], us[vs == i]]))


def loop_neighbourhood_with_padding(g: Graph, features, i: int, d: int) -> np.ndarray:
    """1-hop neighbours of i, padded up to length d with nearest non-neighbours.

    Padding candidates are every node other than i and its neighbours, taken
    in ascending order of Euclidean feature distance to node i, ties broken
    by lower node id.
    """
    if d < 1:
        raise ValueError("stalk dimension must be >= 1")
    if g.n <= d:
        raise GuardError(f"cannot pad neighbourhoods: need n > d, got n={g.n}, d={d}")
    features = np.asarray(features, dtype=np.float64)
    hop = one_hop_neighbourhood(g, i)
    if hop.size >= d:
        return hop
    mask = np.ones(g.n, dtype=bool)
    mask[i] = False
    mask[hop] = False
    cand = np.flatnonzero(mask)
    dists = np.linalg.norm(features[cand] - features[i], axis=1)
    order = np.lexsort((cand, dists))  # distance first, node id on ties
    pad = cand[order[: d - hop.size]]
    return np.concatenate([hop, pad])


def loop_to_dense(lap: BlockLaplacian) -> np.ndarray:
    n, d = lap.n, lap.d
    dense = np.zeros((n * d, n * d), dtype=np.float64)
    for v in range(n):
        dense[v * d:(v + 1) * d, v * d:(v + 1) * d] = np.diag(lap.diag[v])
    for e, (u, v) in enumerate(lap.edges):
        dense[v * d:(v + 1) * d, u * d:(u + 1) * d] = lap.off[e]
        dense[u * d:(u + 1) * d, v * d:(v + 1) * d] = lap.off[e].T
    return dense


def loop_write_laplacian_coo(lap: BlockLaplacian, path) -> None:
    """Sorted 'i j value' triplets of the nonzero entries, with a size header."""
    entries: list[tuple[int, int, float]] = []
    d = lap.d
    for v in range(lap.n):
        block = np.diag(lap.diag[v])
        for a in range(d):
            for b in range(d):
                val = float(block[a, b])
                if val != 0.0:
                    entries.append((v * d + a, v * d + b, val))
    for e, (u, v) in enumerate(lap.edges):
        block = lap.off[e]
        for a in range(d):
            for b in range(d):
                val = float(block[a, b])
                if val != 0.0:
                    entries.append((v * d + a, u * d + b, val))
                    entries.append((u * d + b, v * d + a, val))
    entries.sort()
    flag = "true" if lap.normalised else "false"
    with open(path, "w") as fh:
        fh.write(f"nd={lap.dim} d={lap.d} normalised={flag}\n")
        for i, j, val in entries:
            fh.write(f"{i} {j} {repr(val)}\n")


def addat_apply(lap: BlockLaplacian, x: np.ndarray) -> np.ndarray:
    """Block-sparse product L x for x of shape (nd,) or (nd, f)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != lap.dim:
        raise ValueError(f"row count {x.shape[0]} does not match nd={lap.dim}")
    vec = x.ndim == 1
    xb = (x[:, None] if vec else x).reshape(lap.n, lap.d, -1)
    out = np.matmul(lap.diag[:, :, None] * np.eye(lap.d), xb)
    if lap.num_edges:
        us, vs = lap.edges[:, 0], lap.edges[:, 1]
        np.add.at(out, vs, np.matmul(lap.off, xb[us]))
        np.add.at(out, us, np.matmul(np.transpose(lap.off, (0, 2, 1)), xb[vs]))
    out = out.reshape(lap.dim, -1)
    return out[:, 0] if vec else out


def encode(features: np.ndarray, w_in: np.ndarray, d: int) -> np.ndarray:
    """The (nd, f) stalk state of (n, p) features: node v's d x f block is W_in x_v, row-major."""
    return np.concatenate([(w_in @ row).reshape(d, -1) for row in features])


def two_pass_cross_entropy(logits: np.ndarray, labels: np.ndarray, mask):
    """(loss, gradient): the full log-softmax of the masked rows, then the softmax again."""
    mask = np.asarray(mask, dtype=np.int64)
    sub, lab = logits[mask], np.asarray(labels)[mask]
    shifted = sub - sub.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-logp[np.arange(mask.size), lab].mean())
    shifted = sub - sub.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    soft = expz / expz.sum(axis=1, keepdims=True)
    soft[np.arange(mask.size), lab] -= 1.0
    grad = np.zeros_like(logits)
    grad[mask] = soft / mask.size
    return loss, grad


def euler_diffusion(lap: BlockLaplacian, x0: np.ndarray, steps: int) -> np.ndarray:
    """`steps` unit-step explicit Euler applications of (I - L)."""
    if steps < 0:
        raise ValueError("step count must be >= 0")
    x = np.array(x0, dtype=np.float64)
    for _ in range(steps):
        x = x - apply(lap, x)
    return x


_ACTIVATIONS = {"relu": lambda y: np.maximum(y, 0.0), "tanh": np.tanh, "identity": lambda y: y}
# each map's derivative at the pre-activation y: the step (0 at y = 0), sech^2 y = 1 - tanh^2 y, 1
_ACTIVATION_GRADS = {
    "relu": lambda y: np.where(y > 0, 1.0, 0.0),
    "tanh": lambda y: 1.0 - np.tanh(y) ** 2,
    "identity": lambda y: np.ones(np.shape(y)),
}


def sheaf_layer(lap: BlockLaplacian, x: np.ndarray, w1, w2, activation: str) -> np.ndarray:
    """One diffusion step X - act( L (I kron W1) X W2 ) of an (nd, f) state."""
    lin = np.matmul(w1, x.reshape(lap.n, lap.d, -1))  # (I kron W1) X, per-node blocks
    pre = apply(lap, lin.reshape(x.shape) @ w2)
    return x - _ACTIVATIONS[activation](pre)


def loop_write_sheaf_csv(s: Sheaf, path) -> None:
    """One record per edge: u, v, then d*d row-major transport entries."""
    lines = [f"n={s.n},d={s.d},kind={s.kind}"]
    for (u, v), o in zip(s.edges, s.transports):
        entries = [repr(float(x)) for x in o.ravel()]
        lines.append(",".join([str(int(u)), str(int(v))] + entries))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def loop_read_sheaf_csv(path) -> Sheaf:
    """The sheaf in a write_sheaf_csv file; a malformed line raises DataError.

    Edges must be canonical (0 <= u < v < n, strictly increasing) and every transport
    orthogonal to within _ORTHO_TOL; errors name the 1-based line.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            meta = dict(item.split("=", 1) for item in header.split(","))
            n, d, kind = int(meta["n"]), int(meta["d"]), meta["kind"]
            if n < 0 or d < 1:
                raise ValueError
        except (KeyError, ValueError) as exc:
            raise DataError(f"line 1: bad header {header!r}, need n >= 0, d >= 1, kind") from exc
        edges, entries, line_nos = [], [], []
        for no, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if parts == [""]:
                continue
            if len(parts) != 2 + d * d:
                raise DataError(f"line {no}: expected {2 + d * d} fields, got {len(parts)}")
            try:
                edges.append((int(parts[0]), int(parts[1])))
                entries.append([float(x) for x in parts[2:]])
            except ValueError as exc:
                raise DataError(f"line {no}: {exc}") from exc
            line_nos.append(no)
    edges_arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    transports = np.array(entries, dtype=np.float64).reshape(-1, d, d)
    us, vs = edges_arr[:, 0], edges_arr[:, 1]
    bad = (us < 0) | (us >= vs) | (vs >= n)
    bad[1:] |= (us[1:] < us[:-1]) | ((us[1:] == us[:-1]) & (vs[1:] <= vs[:-1]))
    if bad.any():
        raise DataError(f"line {line_nos[np.argmax(bad)]}: edge not canonical or out of order")
    gram = np.matmul(np.transpose(transports, (0, 2, 1)), transports)
    ortho = np.max(np.abs(gram - np.eye(d)), axis=(1, 2)) <= _ORTHO_TOL
    if not ortho.all():
        raise DataError(f"line {line_nos[np.argmin(ortho)]}: transport not orthogonal")
    return Sheaf(d=d, n=n, kind=kind, edges=edges_arr, transports=transports)


def loop_transports_from_bases(edges: np.ndarray, bases):
    """Polar factor of B_v^T B_u per canonical edge (u, v), plus a singular count."""
    m = edges.shape[0]
    d = bases[0].shape[1]
    transports = np.empty((m, d, d), dtype=np.float64)
    singular = 0
    for e, (u, v) in enumerate(edges):
        left, s, vt = np.linalg.svd(bases[v].T @ bases[u])
        singular += int(s[-1] < _SINGULAR_TOL)
        transports[e] = left @ vt
    return transports, singular


def loop_node_sheaf_from_matrices(g: Graph, matrices: np.ndarray) -> Sheaf:
    """Flat bundle from per-node orthogonal matrices Q_i: edge (u, v) gets Q_u^T Q_v."""
    matrices = np.asarray(matrices, dtype=np.float64)
    d = matrices.shape[1]
    m = g.num_edges
    transports = np.empty((m, d, d), dtype=np.float64)
    for e, (u, v) in enumerate(g.edges):
        transports[e] = matrices[u].T @ matrices[v]
    return Sheaf(d=d, n=g.n, kind="rand-node", edges=g.edges.copy(), transports=transports)


def philox_item_words(seed: int, k: int, size: int) -> np.ndarray:
    """Item k's first `size` raw words, from a numpy Philox4x64-10 of its own with key `seed`.

    Each item of `size` words owns b = ceil(size / 4) four-word blocks of the package's
    one stream, so item k's stream starts at counter (k b, 0, 0, 0): its first block
    encrypts k b + 1. The words depend on (seed, k, size) alone.
    """
    counter = np.array([k * -(-size // 4), 0, 0, 0], dtype=np.uint64)
    return np.random.Philox(key=seed, counter=counter).random_raw(size)


def philox_item_normals(seed: int, k: int, size: int) -> np.ndarray:
    """Item k's first `size` Gaussians: Box-Muller on its own words, one item at a time."""
    pairs = -(-size // 2)
    u = (philox_item_words(seed, k, 2 * pairs) >> np.uint64(11)) * 2.0**-53
    rad = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    t = (2.0 * np.pi) * u[1::2]
    return np.column_stack([rad * np.cos(t), rad * np.sin(t)]).ravel()[:size]


def _loop_haar(d: int, seed: int, count: int) -> np.ndarray:
    """One QR per item, with the R-diagonal sign fix, from item k's own Philox stream."""
    out = np.empty((count, d, d), dtype=np.float64)
    for k in range(count):
        q, r = np.linalg.qr(philox_item_normals(seed, k, d * d).reshape(d, d))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        out[k] = q * signs
    return out


def _reorder_ties(u: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort columns inside tied singular-value groups lexicographically."""
    if s.size < 2:
        return u, s
    tol = _TIE_TOL * max(1.0, float(s[0]))
    order = list(range(s.size))
    start = 0
    while start < s.size:
        stop = start + 1
        while stop < s.size and s[stop - 1] - s[stop] <= tol:
            stop += 1
        if stop - start > 1:
            order[start:stop] = sorted(order[start:stop], key=lambda k: tuple(u[:, k]))
        start = stop
    return u[:, order], s[order]


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


def _pca_basis(features: np.ndarray, centre: int, neighbours, d: int):
    """Canonical top-d PCA basis at `centre`, and whether it was rank-completed; unchecked."""
    xhat = (features[neighbours] - features[centre]).T  # (p, N)
    p = xhat.shape[0]
    u, s, _ = np.linalg.svd(xhat, full_matrices=False)
    u = _sign_canonical(u)
    u, s = _reorder_ties(u, s)
    rank_tol = _RANK_TOL * max(1.0, float(s[0]) if s.size else 0.0)
    rank = int(np.sum(s > rank_tol))
    cols = [u[:, k] for k in range(min(d, rank))]
    completed = rank < d
    if completed:
        cols = _complete_basis(cols, p, d)
    basis = _sign_canonical(np.column_stack(cols))
    return basis, completed


def loop_build_sheaf(g: Graph, kind: str, d: int, seed: int) -> Sheaf:
    """The sheaf of `kind`, with bases and diagnostics for a connection sheaf."""
    if kind == "trivial":
        return trivial_sheaf(g, d)
    if kind == "rand-edge":
        transports = _loop_haar(d, seed, g.num_edges)
        return Sheaf(d=d, n=g.n, kind=kind, edges=g.edges.copy(), transports=transports)
    if kind == "rand-node":
        return loop_node_sheaf_from_matrices(g, _loop_haar(d, seed, g.n))
    padded = completed = 0
    bases = []
    for i in range(g.n):
        nbrs = loop_neighbourhood_with_padding(g, g.features, i, d)
        if one_hop_neighbourhood(g, i).size < d:
            padded += 1
        bases.append(_pca_basis(g.features, i, nbrs, d)[0])
        sv = np.linalg.svd((g.features[nbrs] - g.features[i]).T, compute_uv=False)
        completed += int(np.sum(sv > _RANK_TOL * max(1.0, sv[0])) < d)
    transports, singular = loop_transports_from_bases(g.edges, bases)
    return Sheaf(
        d=d,
        n=g.n,
        kind=kind,
        edges=g.edges.copy(),
        transports=transports,
        bases=np.stack(bases),
        diagnostics=BuildDiagnostics(padded, completed, singular),
    )


def read_laplacian_coo(path) -> tuple[np.ndarray, int, bool]:
    """Dense matrix, block size and normalised flag from a triplet file."""
    with open(path) as fh:
        header = fh.readline().strip()
        meta = dict(item.split("=", 1) for item in header.split())
        nd = int(meta["nd"])
        d = int(meta["d"])
        normalised = meta["normalised"] == "true"
        dense = np.zeros((nd, nd), dtype=np.float64)
        for line in fh:
            line = line.strip()
            if not line:
                continue
            i_s, j_s, v_s = line.split()
            dense[int(i_s), int(j_s)] = float(v_s)
    return dense, d, normalised


def all_pairs_synth_sbm(
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
    iu, ju = np.triu_indices(n, k=1)
    probs = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = rng.random(iu.size) < probs
    edges = np.stack([iu[keep], ju[keep]], axis=1)

    # scaled standard basis vectors sit at mutual distance `separation` exactly
    means = np.zeros((n_classes, feature_dim))
    means[np.arange(n_classes), np.arange(n_classes)] = separation / np.sqrt(2.0)
    features = rng.standard_normal((n, feature_dim)) + means[labels]

    graph = from_edge_list(n, edges, features, labels)
    splits = generate_splits(labels, seed)
    if name is None:
        name = f"sbm-n{n}-c{n_classes}-pi{p_in}-po{p_out}-s{seed}"
    return Dataset(graph=graph, splits=splits, name=name)


def loop_validate_split(split: Split, n: int) -> None:
    parts = [split.train, split.val, split.test]
    combined = np.concatenate(parts)
    if np.unique(combined).size != combined.size:
        raise DataError("split overlap")
    if not np.array_equal(np.sort(combined), np.arange(n)):
        raise DataError("split does not cover every node exactly once")


def loop_save_dataset(ds: Dataset, directory) -> None:
    """`save_dataset` with the csv module: CRLF line ends, one str() per field."""
    g = ds.graph
    if g.labels is None:  # before any file or directory is made
        raise ValueError("dataset has no labels")
    os.makedirs(directory, exist_ok=True)
    header = ["id", *(f"f_{k}" for k in range(g.feature_dim)), "label"]
    rows = zip(range(g.n), g.features.tolist(), g.labels.tolist())
    with open(os.path.join(directory, "nodes.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows([header, *([i, *f, c] for i, f, c in rows)])
    with open(os.path.join(directory, "edges.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows([["u", "v"], *g.edges.tolist()])
    payload = [{k: np.asarray(v).tolist() for k, v in vars(s).items()} for s in ds.splits]
    with open(os.path.join(directory, "splits.json"), "w") as fh:
        json.dump(payload, fh)


def loop_load_dataset(directory) -> Dataset:
    """`load_dataset` with the csv module: one int()/float() call per field."""
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
        loop_validate_split(split, n)
        splits.append(split)

    try:
        graph = from_edge_list(n, raw_edges, features, labels)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    return Dataset(graph=graph, splits=splits, name=os.path.basename(os.path.normpath(directory)))
