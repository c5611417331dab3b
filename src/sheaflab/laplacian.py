"""The block Laplacian L = delta^T delta of a sheaf.

The Laplacian is stored block-sparse: n diagonal blocks, each as its d
diagonal entries, plus one off-diagonal d x d block per canonical edge
(u, v), holding the block at block-row v / block-column u; the mirrored
block is its transpose. For an orthogonal sheaf the diagonal block at v
is deg(v) * I and the stored off-diagonal block is minus the u-to-v
transport. Spectra fall back to a dense symmetric eigensolver; the dense
matrix, O((nd)^2) memory, sits behind a size guard.

`apply` runs block-sparse through a row plan that it builds on an
operator's first call and caches on it. The plan groups the nodes by degree
and stores each node's block row [D_v | B_vu_1 | ... | B_vu_k] as one
contiguous d x (k + 1) d matrix: the diagonal block, then its off-diagonal
contributions in edge order (each edge's (v, u) block, then the mirrored
transposes), beside the k + 1 source nodes. For each chunk of one degree
group, `apply` gathers the sources into a reused buffer and runs one stacked
matrix product, one BLAS call per node, and writes each of its nodes once;
a row longer than `_CHUNK` terms (a hub's) is a chunk of its own. Each
output entry of node v is thus one dot product of length (deg_v + 1) d,
within (deg_v + 1) d eps (|L| |x|) of a block-by-block sum (eps the float64
machine epsilon, |L| and |x| entrywise), and exact where every product and
sum is, as with integer values. Results are bitwise deterministic on one
BLAS kernel at any thread count. The plan copies the blocks, so the first
`apply` makes `diag` and `off` read-only: a later write raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _labels, _reprs, _write_lines
from .errors import GuardError
from .graph import Graph
from .sheaf import Sheaf

DENSE_EIG_LIMIT = 5000  # nd beyond this refuses `to_dense`, so the dense eigensolver too
_CHUNK = 2048  # terms per `apply` product of short rows; a longer row is a product of its own


@dataclass(eq=False)
class BlockLaplacian:
    """Symmetric nd x nd operator stored as d x d blocks.

    `diag[v]` is the (v, v) block's diagonal, its only nonzeros. `off[e]` is the
    block at (block-row v, block-column u) for canonical edge (u, v); the
    (u, v) block is implied as its transpose. Both are read-only from the first `apply` on.
    """

    n: int
    d: int
    edges: np.ndarray       # (m, 2) canonical; an assembled operator shares the graph's
    diag: np.ndarray        # (n, d): the diagonal blocks' diagonals
    off: np.ndarray         # (m, d, d)
    normalised: bool = False
    _plan: list | None = field(default=None, init=False, repr=False)  # see _row_plan

    @property
    def dim(self) -> int:
        return self.n * self.d

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def to_dense(self) -> np.ndarray:
        """The nd x nd matrix, refused (GuardError) for nd > DENSE_EIG_LIMIT before allocating."""
        check_dense_size(self.dim)
        dense = np.zeros((self.dim, self.dim), dtype=np.float64)
        rows, cols, vals = _entries(self)
        dense[rows, cols] = vals
        return dense

    def __repr__(self) -> str:
        return (
            f"BlockLaplacian(n={self.n}, d={self.d}, m={self.num_edges}, "
            f"normalised={self.normalised})"
        )


def check_dense_size(dim: int) -> None:
    """Refuse (GuardError) an nd x nd dense matrix for nd = `dim` > DENSE_EIG_LIMIT."""
    if dim > DENSE_EIG_LIMIT:
        raise GuardError(f"dense size guard: nd={dim} exceeds limit {DENSE_EIG_LIMIT}")


def _check_match(s: Sheaf, g: Graph) -> None:
    if s.n != g.n or not np.array_equal(s.edges, g.edges):
        raise ValueError("sheaf does not match graph (node count or edge list differ)")


def _entries(lap: BlockLaplacian) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar (rows, cols, vals) of every stored entry, zeros included.

    The nd diagonal entries come first, then the (v, u) block of each edge,
    then its mirrored transpose at (u, v); each block is listed row-major.
    """
    d = lap.d
    a, b = np.divmod(np.arange(d * d), d)  # in-block row and column, row-major
    us, vs = lap.edges[:, :1] * d, lap.edges[:, 1:] * d
    rows = np.concatenate([np.arange(lap.dim), (vs + a).ravel(), (us + b).ravel()])
    cols = np.concatenate([np.arange(lap.dim), (us + b).ravel(), (vs + a).ravel()])
    off = lap.off.ravel()
    return rows, cols, np.concatenate([lap.diag.ravel(), off, off])


def sheaf_laplacian(s: Sheaf, g: Graph) -> BlockLaplacian:
    """Direct block assembly: deg(v) * I diagonal, minus-transport off-diagonal."""
    _check_match(s, g)
    n, d = g.n, s.d
    diag = np.repeat(g.degrees.astype(np.float64)[:, None], d, axis=1)
    off = -s.transports
    return BlockLaplacian(n=n, d=d, edges=g.edges, diag=diag, off=off)


def normalise(lap: BlockLaplacian) -> BlockLaplacian:
    """Symmetric degree normalisation D^{-1/2} L D^{-1/2}.

    D is the block diagonal of L (deg(v) * I for orthogonal sheaves).
    Isolated nodes keep their zero rows: their D block is treated as the
    identity instead of inverting zero.
    """
    if lap.normalised:
        raise ValueError("Laplacian is already normalised")
    deg = lap.diag.sum(1) / lap.d
    scale = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 1.0)
    diag = lap.diag * (scale ** 2)[:, None]
    us, vs = lap.edges[:, 0], lap.edges[:, 1]
    off = lap.off * (scale[us] * scale[vs])[:, None, None]
    return BlockLaplacian(n=lap.n, d=lap.d, edges=lap.edges, diag=diag, off=off, normalised=True)


def _row_plan(lap: BlockLaplacian) -> list:
    """The chunks of `apply`, one (rows, src, nodes) per stacked product.

    `rows` stacks the block rows [D_v | B_vu_1 | ... | B_vu_k] of the c nodes `nodes`,
    all of one degree k, as a (c, d, (k + 1) d) array; `src` holds their c (k + 1)
    source nodes, row by row. A chunk holds at most max(`_CHUNK`, k + 1) terms: rows
    of up to `_CHUNK` terms share a chunk, and a longer row (a hub's) is one chunk.
    """
    n, d = lap.n, lap.d
    deg = np.bincount(lap.edges.ravel(), minlength=n)
    dst = np.concatenate([np.arange(n), lap.edges[:, 1], lap.edges[:, 0]])
    # the terms by degree and node, then diagonal, pass and edge: rows grouped by degree
    order = np.argsort(deg[dst] * n + dst, kind="stable")
    del dst
    src = np.concatenate([np.arange(n), lap.edges[:, 0], lap.edges[:, 1]])[order]
    blocks = np.concatenate([
        lap.diag[:, :, None] * np.eye(d), lap.off, np.transpose(lap.off, (0, 2, 1))
    ])
    plan, lo = [], 0
    counts = np.bincount(deg)  # counts[k]: the nodes of degree k
    for k in np.flatnonzero(counts).tolist():
        c, t = int(counts[k]), k + 1
        hi = lo + c * t
        rows = blocks[order[lo:hi]].reshape(c, t, d, d).transpose(0, 2, 1, 3).reshape(c, d, t * d)
        nodes = src[lo:hi:t]  # a row's first term is its node's diagonal block
        step = max(1, _CHUNK // t)
        for a in range(0, c, step):
            b = min(a + step, c)
            plan.append((rows[a:b], src[lo + a * t:lo + b * t], nodes[a:b]))
        lo = hi
    return plan


def apply(lap: BlockLaplacian, x: np.ndarray) -> np.ndarray:
    """Block-sparse product L x, x of shape (nd,) or (nd, f), run through the row plan."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != lap.dim:
        raise ValueError(f"row count {x.shape[0]} does not match nd={lap.dim}")
    vec = x.ndim == 1
    xb = (x[:, None] if vec else x).reshape(lap.n, lap.d, -1)
    if lap._plan is None:
        lap._plan = _row_plan(lap)
        lap.diag.setflags(write=False)  # the plan holds copies: a later write would go unseen
        lap.off.setflags(write=False)
    out = np.empty(xb.shape)
    # the largest chunk: at most _CHUNK terms, or one hub row of deg + 1 <= n terms
    gathered = np.empty((max(src.size for _, src, _ in lap._plan),) + xb.shape[1:])
    product = np.empty((min(_CHUNK, lap.n),) + xb.shape[1:])
    for rows, src, nodes in lap._plan:
        c = rows.shape[0]
        # every index is valid; "clip" fills the buffer in place, "raise" would copy it
        terms = np.take(xb, src, axis=0, out=gathered[:src.size], mode="clip")
        out[nodes] = np.matmul(rows, terms.reshape(c, -1, xb.shape[2]), out=product[:c])
    out = out.reshape(lap.dim, -1)
    return out[:, 0] if vec else out


def dirichlet_energy(lap: BlockLaplacian, x: np.ndarray) -> float:
    """trace(x^T L x) = sum(x * L x) for an (nd,) or (nd, f) x; |delta x|^2 if unnormalised."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[0] != lap.dim:
        raise ValueError(f"expected an (nd,) or (nd, f) array with nd={lap.dim}")
    return float(x.reshape(-1) @ apply(lap, x).reshape(-1))  # a strided vector stays a view


def spectrum(lap: BlockLaplacian) -> np.ndarray:
    """Ascending eigenvalues via a dense symmetric solve, refused by `to_dense`'s size guard."""
    return np.linalg.eigvalsh(lap.to_dense())  # exactly symmetric: each value at both mirrors


def write_laplacian_coo(lap: BlockLaplacian, path) -> None:
    """Sorted 'i j value' triplets of the nonzero entries, with a size header."""
    # line k prints key[k] = i * nd + j, then text[src[k]]: each stored value is formatted
    # once, a mirrored entry reusing its block's text. Full-length arrays go once used.
    rows, cols, vals = _entries(lap)
    src = np.flatnonzero(vals != 0.0)
    del vals
    key = rows[src] * lap.dim
    del rows
    key += cols[src]
    del cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    src = src[order]
    del order
    src[src >= lap.diag.size + lap.off.size] -= lap.off.size
    text = _reprs(np.concatenate([lap.diag.ravel(), lap.off.ravel()]))
    labels = _labels(lap.dim)
    flag = "true" if lap.normalised else "false"
    _write_lines(
        path, f"nd={lap.dim} d={lap.d} normalised={flag}", key.size,
        lambda lo, hi: [labels[np.stack(np.divmod(key[lo:hi], lap.dim), 1)], text[src[lo:hi]]],
        b" ", 3,
    )
