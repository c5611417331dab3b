"""The block Laplacian L = delta^T delta of a sheaf.

The Laplacian is stored block-sparse: n diagonal blocks, each as its d
diagonal entries, plus one off-diagonal d x d block per canonical edge
(u, v), holding the block at block-row v / block-column u; the mirrored
block is its transpose. For an orthogonal sheaf the diagonal block at v
is deg(v) * I and the stored off-diagonal block is minus the u-to-v
transport. Spectra fall back to a dense symmetric eigensolver behind a
size guard.

`apply` runs block-sparse through a slot plan that it builds on an
operator's first call and caches on it. The plan numbers the nodes by
descending degree (a stable sort) and ranks the 2m off-diagonal
contributions inside their destination (each edge's (v, u) block in edge
order, then the mirrored transposes). Slot k holds every node's k-th
contribution, so its destinations are the positions [0, c_k) of the c_k
nodes of degree > k. Slots smaller than `_MIN_SLOT` (a hub's long run) form
one `np.add.at` tail. Every entry thus sums the same terms in the same order
as a block-by-block loop, bitwise equal to it at width f >= 2 and at d = 1
(up to the sign of a zero, as at an isolated node, whose diagonal is 0).
The plan copies the blocks (mirrored ones transposed), so an operator must
not be mutated after its first `apply`; at width 1 and d >= 2 numpy's
matrix-vector product rounds differently for a mirrored block, by at most
2d eps (|L| |x|) per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _labels, _reprs, _write_lines
from .errors import GuardError
from .graph import Graph
from .sheaf import Sheaf

DENSE_EIG_LIMIT = 5000  # nd beyond this refuses the dense eigensolver
_MIN_SLOT = 256  # slots with fewer contributions join the np.add.at tail


@dataclass(eq=False)
class BlockLaplacian:
    """Symmetric nd x nd operator stored as d x d blocks.

    `diag[v]` is the (v, v) block's diagonal, its only nonzeros. `off[e]` is the
    block at (block-row v, block-column u) for canonical edge (u, v); the
    (u, v) block is implied as its transpose.
    """

    n: int
    d: int
    edges: np.ndarray       # (m, 2) canonical
    diag: np.ndarray        # (n, d): the diagonal blocks' diagonals
    off: np.ndarray         # (m, d, d)
    normalised: bool = False
    _plan: tuple | None = field(default=None, init=False, repr=False)  # see _slot_plan

    @property
    def dim(self) -> int:
        return self.n * self.d

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim), dtype=np.float64)
        rows, cols, vals = _entries(self)
        dense[rows, cols] = vals
        return dense

    def __repr__(self) -> str:
        return (
            f"BlockLaplacian(n={self.n}, d={self.d}, m={self.num_edges}, "
            f"normalised={self.normalised})"
        )


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
    return BlockLaplacian(n=n, d=d, edges=s.edges.copy(), diag=diag, off=off)


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
    return BlockLaplacian(
        n=lap.n, d=lap.d, edges=lap.edges.copy(), diag=diag, off=off, normalised=True
    )


def _slot_plan(lap: BlockLaplacian) -> tuple:
    """(perm, pos, diag, sizes, blocks, src, tail_dst): the nodes by degree, their positions,
    the (n, d, 1) diagonals in `perm` order, the slot sizes, every contribution's block and
    source node in slot-major order (slots sorted by position, then the tail), and the
    tail's destination positions.
    """
    m = lap.num_edges
    deg = np.bincount(lap.edges.ravel(), minlength=lap.n)
    perm = np.argsort(-deg, kind="stable")
    pos = np.argsort(perm)
    dst = pos[np.concatenate([lap.edges[:, 1], lap.edges[:, 0]])]
    order = np.argsort(dst, kind="stable")  # by destination, then pass and edge
    dst = dst[order]
    rank = np.arange(2 * m) - (np.cumsum(deg[perm]) - deg[perm])[dst]
    sizes = np.bincount(rank)  # non-increasing: slot k holds the c_k nodes of degree > k
    slot_of = np.empty_like(order)
    slot_of[order] = (np.cumsum(sizes) - sizes)[rank] + dst
    del order, dst, rank
    blocks = np.empty((2 * m, lap.d, lap.d))
    blocks[slot_of[:m]] = lap.off
    blocks[slot_of[m:]] = np.transpose(lap.off, (0, 2, 1))
    src = np.empty_like(slot_of)
    src[slot_of] = lap.edges.T.ravel()
    slots, tail = sizes[sizes >= _MIN_SLOT], sizes[sizes < _MIN_SLOT]
    tail_dst = np.arange(tail.sum()) - np.repeat(np.cumsum(tail) - tail, tail)
    return perm, pos, lap.diag[perm, :, None], slots.tolist(), blocks, src, tail_dst


def apply(lap: BlockLaplacian, x: np.ndarray) -> np.ndarray:
    """Block-sparse product L x, x of shape (nd,) or (nd, f), run through the slot plan."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != lap.dim:
        raise ValueError(f"row count {x.shape[0]} does not match nd={lap.dim}")
    vec = x.ndim == 1
    xb = (x[:, None] if vec else x).reshape(lap.n, lap.d, -1)
    if lap._plan is None:
        lap._plan = _slot_plan(lap)
    perm, pos, diag, sizes, blocks, src, tail_dst = lap._plan
    out = diag * xb[perm]
    lo = 0
    gathered, product = np.empty((2, sizes[0] if sizes else 0) + xb.shape[1:])
    for size in sizes:
        hi = lo + size
        # every index is valid; "clip" fills the buffer in place, "raise" would copy it
        np.take(xb, src[lo:hi], axis=0, out=gathered[:size], mode="clip")
        out[:size] += np.matmul(blocks[lo:hi], gathered[:size], out=product[:size])
        lo = hi
    del gathered, product  # before the tail's and the reordering's temporaries
    k = lap.d * xb.shape[2]
    idx = np.multiply(tail_dst[:, None], k, out=np.empty((tail_dst.size, k), dtype=np.intp))
    idx += np.arange(k)
    np.add.at(out.reshape(-1), idx.ravel(), np.matmul(blocks[lo:], xb[src[lo:]]).reshape(-1))
    out = out[pos].reshape(lap.dim, -1)
    return out[:, 0] if vec else out


def dirichlet_energy(lap: BlockLaplacian, x: np.ndarray) -> float:
    """x^T L x, the squared coboundary norm for the unnormalised Laplacian."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != lap.dim:
        raise ValueError(f"expected a vector of length nd={lap.dim}")
    return float(x @ apply(lap, x))


def spectrum(lap: BlockLaplacian) -> np.ndarray:
    """Ascending eigenvalues via a dense symmetric solve, refused for nd > DENSE_EIG_LIMIT."""
    if lap.dim > DENSE_EIG_LIMIT:
        raise GuardError(f"dense eigensolver guard: nd={lap.dim} exceeds limit {DENSE_EIG_LIMIT}")
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
