"""The block Laplacian L = delta^T delta of a sheaf.

The Laplacian is stored block-sparse: n diagonal d x d blocks plus one
off-diagonal block per canonical edge (u, v), holding the block at
block-row v / block-column u; the mirrored block is its transpose. For an
orthogonal sheaf the diagonal block at v is deg(v) * I and the stored
off-diagonal block is minus the u-to-v transport. Spectra fall back to a
dense symmetric eigensolver behind a size guard.

`apply` runs block-sparse through a slot plan that it builds on an
operator's first call and caches on it. The 2m off-diagonal contributions
(each edge's (v, u) block in edge order, then the mirrored transposes in
edge order) are stable-sorted by destination node; slot k holds every
node's k-th contribution, so no destination repeats inside a slot. Slots
smaller than `_MIN_SLOT` (a hub's long run) form one `np.add.at` tail.
Every output entry thus sums the same terms in the same order as a
block-by-block loop. Bitwise equality also needs each block product to
take numpy's code path for the full-length product: the transposed blocks
stay a transposed view of contiguous blocks (a contiguous copy takes
another path at width 1). The plan copies the blocks, so an operator must
not be mutated after its first `apply`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GuardError
from .graph import Graph
from .sheaf import _CSV_CHUNK, Sheaf

DENSE_EIG_LIMIT = 5000  # nd beyond this refuses the dense eigensolver
_MIN_SLOT = 256  # slots with fewer contributions join the np.add.at tail


@dataclass(eq=False)
class BlockLaplacian:
    """Symmetric nd x nd operator stored as d x d blocks.

    `off[e]` is the block at (block-row v, block-column u) for canonical
    edge (u, v); the (u, v) block is implied as its transpose.
    """

    n: int
    d: int
    edges: np.ndarray       # (m, 2) canonical
    diag: np.ndarray        # (n, d, d)
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

    The diagonal blocks come first, then the (v, u) block of each edge, then
    its mirrored transpose at (u, v); each block is listed row-major.
    """
    d = lap.d
    a, b = np.divmod(np.arange(d * d), d)  # in-block row and column, row-major
    nodes, us, vs = np.arange(lap.n)[:, None] * d, lap.edges[:, :1] * d, lap.edges[:, 1:] * d
    rows = np.concatenate([(nodes + a).ravel(), (vs + a).ravel(), (us + b).ravel()])
    cols = np.concatenate([(nodes + b).ravel(), (us + b).ravel(), (vs + a).ravel()])
    off = lap.off.ravel()
    return rows, cols, np.concatenate([lap.diag.ravel(), off, off])


def sheaf_laplacian(s: Sheaf, g: Graph) -> BlockLaplacian:
    """Direct block assembly: deg(v) * I diagonal, minus-transport off-diagonal."""
    _check_match(s, g)
    n, d = g.n, s.d
    diag = g.degrees.astype(np.float64)[:, None, None] * np.eye(d)[None, :, :]
    off = -s.transports.copy()
    return BlockLaplacian(n=n, d=d, edges=s.edges.copy(), diag=diag, off=off)


def normalise(lap: BlockLaplacian) -> BlockLaplacian:
    """Symmetric degree normalisation D^{-1/2} L D^{-1/2}.

    D is the block diagonal of L (deg(v) * I for orthogonal sheaves).
    Isolated nodes keep their zero rows: their D block is treated as the
    identity instead of inverting zero.
    """
    if lap.normalised:
        raise ValueError("Laplacian is already normalised")
    deg = np.trace(lap.diag, axis1=1, axis2=2) / lap.d
    scale = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 1.0)
    diag = lap.diag * (scale ** 2)[:, None, None]
    us, vs = lap.edges[:, 0], lap.edges[:, 1]
    off = lap.off * (scale[us] * scale[vs])[:, None, None]
    return BlockLaplacian(
        n=lap.n, d=lap.d, edges=lap.edges.copy(), diag=diag, off=off, normalised=True
    )


def _slot_plan(lap: BlockLaplacian) -> tuple[list[tuple], tuple]:
    """(slots, tail) of the module docstring's plan.

    Slots are in order, each sorted by destination; the tail is in slot
    order. Each group is (blocks, sources, destinations) of its pass-1
    items, then of its pass-2 items, whose blocks are transposed views.
    """
    m = lap.num_edges
    us, vs = lap.edges[:, 0], lap.edges[:, 1]
    dst = np.concatenate([vs, us])
    order = np.argsort(dst, kind="stable")
    counts = np.bincount(dst, minlength=lap.n)
    rank = np.empty(2 * m, dtype=np.intp)
    rank[order] = np.arange(2 * m) - (np.cumsum(counts) - counts)[dst[order]]
    items = order[np.argsort(rank[order], kind="stable")]  # by slot, then destination
    sizes = np.bincount(rank)  # non-increasing: slot k holds the nodes of degree > k
    *slots, tail = np.split(items, np.cumsum(sizes[sizes >= _MIN_SLOT]))

    def group(ix):
        p1, p2 = ix[ix < m], ix[ix >= m] - m
        return (
            lap.off[p1], us[p1], vs[p1],
            np.transpose(lap.off[p2], (0, 2, 1)), vs[p2], us[p2],
        )

    return [group(ix) for ix in slots], group(tail)


def apply(lap: BlockLaplacian, x: np.ndarray) -> np.ndarray:
    """Block-sparse product L x for x of shape (nd,) or (nd, f).

    The diagonal products come first, then one stacked block product and
    one `out[dst] += ...` per slot of the operator's plan, then the tail's
    1-D `np.add.at` (see the module docstring).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != lap.dim:
        raise ValueError(f"row count {x.shape[0]} does not match nd={lap.dim}")
    vec = x.ndim == 1
    xb = (x[:, None] if vec else x).reshape(lap.n, lap.d, -1)
    out = np.matmul(lap.diag, xb)
    if lap.num_edges:
        if lap._plan is None:
            lap._plan = _slot_plan(lap)
        slots, tail = lap._plan
        for b1, s1, d1, b2, s2, d2 in slots:
            out[d1] += np.matmul(b1, xb[s1])
            out[d2] += np.matmul(b2, xb[s2])
        k = lap.d * xb.shape[2]
        flat, offs = out.reshape(-1), np.arange(k)
        for blocks, src, dst in (tail[:3], tail[3:]):
            idx = np.multiply(dst[:, None], k, out=np.empty((dst.size, k), dtype=np.intp))
            idx += offs
            np.add.at(flat, idx.ravel(), np.matmul(blocks, xb[src]).reshape(-1))
    out = out.reshape(lap.dim, -1)
    return out[:, 0] if vec else out


def dirichlet_energy(lap: BlockLaplacian, x: np.ndarray) -> float:
    """x^T L x, the squared coboundary norm for the unnormalised Laplacian."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != lap.dim:
        raise ValueError(f"expected a vector of length nd={lap.dim}")
    return float(x @ apply(lap, x))


def spectrum(lap: BlockLaplacian, max_dim: int = DENSE_EIG_LIMIT) -> np.ndarray:
    """Ascending eigenvalues via a dense symmetric solve, size-guarded."""
    if lap.dim > max_dim:
        raise GuardError(
            f"dense eigensolver guard: nd={lap.dim} exceeds limit {max_dim}"
        )
    dense = lap.to_dense()
    return np.linalg.eigvalsh(0.5 * (dense + dense.T))


def euler_diffusion(lap: BlockLaplacian, x0: np.ndarray, steps: int) -> np.ndarray:
    """`steps` unit-step explicit Euler applications of (I - L)."""
    if steps < 0:
        raise ValueError("step count must be >= 0")
    x = np.array(x0, dtype=np.float64)
    for _ in range(steps):
        x = x - apply(lap, x)
    return x


def write_laplacian_coo(lap: BlockLaplacian, path) -> None:
    """Sorted 'i j value' triplets of the nonzero entries, with a size header."""
    # rebinding one array at a time frees each full-length input as its copy lands
    rows, cols, vals = _entries(lap)
    nz = vals != 0.0
    rows = rows[nz]
    cols = cols[nz]
    vals = vals[nz]
    del nz
    order = np.lexsort((cols, rows))
    rows = rows[order]
    cols = cols[order]
    vals = vals[order]
    del order
    flag = "true" if lap.normalised else "false"
    with open(path, "w") as fh:
        fh.write(f"nd={lap.dim} d={lap.d} normalised={flag}\n")
        for lo in range(0, vals.size, _CSV_CHUNK):
            hi = lo + _CSV_CHUNK
            fh.writelines(
                f"{i} {j} {val!r}\n"
                for i, j, val in zip(
                    rows[lo:hi].tolist(), cols[lo:hi].tolist(), vals[lo:hi].tolist()
                )
            )
