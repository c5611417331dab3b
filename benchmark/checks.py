"""Correctness checks on a workload's outputs, run outside the timed region.

Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib

import numpy as np

ORTHO_TOL = 1e-10
SYM_TOL = 1e-10      # |x.Ly - y.Lx| relative to |x||y|
RANGE_TOL = 1e-12    # slack on the Rayleigh-quotient range [0, 2]
N_PROBES = 4


def transports_sha256(transports: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(transports, dtype=np.float64).tobytes()).hexdigest()


def orthogonal(transports: np.ndarray) -> list[str]:
    d = transports.shape[1]
    gram = np.matmul(np.transpose(transports, (0, 2, 1)), transports)
    err = float(np.max(np.abs(gram - np.eye(d)))) if transports.size else 0.0
    return [] if err <= ORTHO_TOL else [f"transport not orthogonal: max |O^T O - I| = {err:.3e}"]


def operator(lap, apply, seed: int) -> list[str]:
    """Symmetry by x.Ly = y.Lx and Rayleigh quotients in [0, 2] on random probes."""
    rng = np.random.default_rng(seed)
    failures = []
    for _ in range(N_PROBES):
        x = rng.standard_normal(lap.dim)
        y = rng.standard_normal(lap.dim)
        lx, ly = apply(lap, x), apply(lap, y)
        gap = abs(float(x @ ly) - float(y @ lx))
        if gap > SYM_TOL * float(np.linalg.norm(x) * np.linalg.norm(y)):
            failures.append(f"operator not symmetric: |x.Ly - y.Lx| = {gap:.3e}")
        for v, lv in ((x, lx), (y, ly)):
            r = float(v @ lv) / float(v @ v)
            if not -RANGE_TOL <= r <= 2.0 + RANGE_TOL:
                failures.append(f"Rayleigh quotient {r!r} outside [0, 2]")
    return failures


def sheaf_roundtrip(sheaf, path, read_sheaf_csv) -> list[str]:
    back = read_sheaf_csv(path)
    same = (
        (back.n, back.d, back.kind) == (sheaf.n, sheaf.d, sheaf.kind)
        and np.array_equal(back.edges, sheaf.edges)
        and back.transports.shape == sheaf.transports.shape
        and np.array_equal(back.transports, sheaf.transports)
    )
    return [] if same else ["read_sheaf_csv does not reproduce the exported sheaf bit-for-bit"]


def coo_file(lap, path) -> list[str]:
    nnz = int(np.count_nonzero(lap.diag)) + 2 * int(np.count_nonzero(lap.off))
    flag = "true" if lap.normalised else "false"
    want = f"nd={lap.dim} d={lap.d} normalised={flag}"
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\n")
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    failures = []
    if header != want:
        failures.append(f"COO header {header!r}, expected {want!r}")
    if lines != nnz:
        failures.append(f"COO has {lines} entries, operator has {nnz} nonzeros")
    return failures


def training(history, kind: str, floor: float) -> list[str]:
    failures = []
    if not np.all(np.isfinite(history["train_loss"])):
        failures.append(f"{kind}: non-finite train loss")
    acc = history["test_acc_at_best"]
    if not acc > floor:
        failures.append(f"{kind}: test_acc_at_best {acc:.4f} not above floor {floor}")
    return failures
