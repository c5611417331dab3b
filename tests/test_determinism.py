"""The scope of the determinism promise: any BLAS thread count on one machine.

Bit-identical results hold for one machine, one BLAS kernel and one numpy
SIMD dispatch. Changing the thread count must not change a bit; a libm in
place of numpy's SIMD transcendentals moves the Gaussians by about 1e-15,
and another OpenBLAS kernel moves transports and logits in the last bits.
"""

import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sheaflab as sl
from oracles import philox_item_words

_HASH_RUN = """
import hashlib
import numpy as np
import sheaflab as sl
from sheaflab.model import TrainConfig, train

def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()

ds = sl.synth_sbm(600, 2, 0.03, 0.006, 8, 2.0, seed=3)
print(digest([sl.random_edge_sheaf(ds.graph, 2, seed=5).transports]))
print(digest([sl.build_connection_sheaf(ds.graph, 2).transports]))
print(digest(train(ds, "connection", TrainConfig(epochs=5, patience=0), 0)[0]))
"""


_CORE_RUN = """
import sys
import numpy as np
import sheaflab as sl
from sheaflab.model import BaselineModel, TrainConfig, gcn_propagation_matrix, train

ds = sl.synth_sbm(600, 2, 0.03, 0.006, 8, 2.0, seed=3)
arrays, _ = train(ds, "gcn", TrainConfig(epochs=5, patience=0), 0)
gcn = BaselineModel(gcn_propagation_matrix(ds.graph), arrays, "relu")
np.savez(
    sys.argv[1],
    connection=sl.build_connection_sheaf(ds.graph, 2).transports,
    rand_edge=sl.random_edge_sheaf(ds.graph, 2, seed=5).transports,
    gcn_logits=gcn.forward(ds.graph.features)[0],
)
"""


def _run(script: str, *args: str, threads: int = 1, coretype: str | None = None) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(sl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_thread_count_leaves_sheaves_and_weights_bitwise_equal():
    one, two = _run(_HASH_RUN, threads=1).split(), _run(_HASH_RUN, threads=2).split()
    assert len(one) == 3  # rand-edge and connection transports, 5-epoch connection weights
    assert one == two


_HUB_RUN = """
import hashlib
import numpy as np
import sheaflab as sl
from sheaflab.model import build_sheaf_by_kind

n = 2 * sl.laplacian._CHUNK + 101  # the hub's row, longer than _CHUNK, is a product of its own
g = sl.from_edge_list(n, [(0, v) for v in range(1, n)], np.zeros((n, 2)))
x = np.random.default_rng(0).standard_normal((2 * n, 8))
lap = sl.normalise(sl.sheaf_laplacian(build_sheaf_by_kind(g, "rand-edge", 2, seed=2), g))
for _ in range(2):  # the first call builds the plan, the second runs it cached
    print(hashlib.sha256(sl.apply(lap, x).tobytes()).hexdigest())
"""


def test_thread_count_leaves_hub_apply_bitwise_equal():
    one, two = _run(_HUB_RUN, threads=1).split(), _run(_HUB_RUN, threads=2).split()
    assert len(one) == 2
    assert one == two


def _openblas_on_x86() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        return False
    return "openblas" in blas.get("name", "").lower() and platform.machine() in ("x86_64", "AMD64")


@pytest.mark.skipif(not _openblas_on_x86(), reason="needs numpy on OpenBLAS on x86-64")
def test_openblas_core_type_moves_results_within_tolerance(tmp_path):
    # the run-time kernel against the oldest x86-64 one; measured gaps on a
    # SkylakeX host: connection transports 8.7e-14, rand-edge 1.1e-16, logits 3e-16
    default, prescott = tmp_path / "default.npz", tmp_path / "prescott.npz"
    _run(_CORE_RUN, str(default))
    _run(_CORE_RUN, str(prescott), coretype="Prescott")
    a, b = np.load(default), np.load(prescott)
    for key in ("connection", "rand_edge"):
        np.testing.assert_allclose(a[key], b[key], rtol=0, atol=1e-12)
    np.testing.assert_allclose(a["gcn_logits"], b["gcn_logits"], rtol=1e-10)


def _math_normals(seed: int, k: int, size: int) -> list[float]:
    """Item k's Gaussians with libm's log1p, cos and sin, one scalar at a time."""
    words = philox_item_words(seed, k, 2 * -(-size // 2))
    u = [(int(w) >> 11) * 2.0**-53 for w in words]
    z = []
    for a, b in zip(u[0::2], u[1::2]):
        r = math.sqrt(-2.0 * math.log1p(-a))
        z += [r * math.cos(math.tau * b), r * math.sin(math.tau * b)]
    return z[:size]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_libm_box_muller_within_tolerance(d):
    for seed in (0, 9, 3 * 2**64 + 5):
        z = sl.sheaf._standard_normals(seed, 200, d * d)
        expected = np.array([_math_normals(seed, k, d * d) for k in range(200)])
        np.testing.assert_allclose(z, expected, rtol=0, atol=1e-13)
