"""The scope of the determinism promise: any BLAS thread count on one machine.

Bit-identical results hold for one machine, one BLAS kernel and one numpy
SIMD dispatch. Changing the thread count must not change a bit; a libm in
place of numpy's SIMD transcendentals moves the Gaussians by about 1e-15.
"""

import math
import os
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


def _hashes(threads: int) -> list[str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    src = str(Path(sl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _HASH_RUN], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_thread_count_leaves_sheaves_and_weights_bitwise_equal():
    one, two = _hashes(1), _hashes(2)
    assert len(one) == 3  # rand-edge and connection transports, 5-epoch connection weights
    assert one == two


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
