import numpy as np
from hypothesis import settings

import sheaflab as sl

# the fuzz tests (tests/test_fuzz.py) set no example budget of their own: they take
# Hypothesis' default, and a larger one under `pytest --hypothesis-profile=ci`
settings.register_profile("ci", max_examples=1000)

# floats whose reprs the text writers must reproduce: the signed zero, the smallest
# subnormal, the longest repr (24 characters), the largest finite, and both sides of
# repr's switches between fixed and exponent notation
REPR_EDGE_VALUES = [
    -0.0, 5e-324, -2.2250738585072014e-308, -1.7976931348623157e+308,
    1e16, 9999999999999998.0, 1e-05, 0.0001,
]


def random_graph(rng, n=None, p_feat=4, edge_prob=0.3, with_labels=False):
    """Erdos-Renyi-style test graph with Gaussian features."""
    if n is None:
        n = int(rng.integers(5, 25))
    raw = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                raw.append((u, v))
    features = rng.standard_normal((n, p_feat))
    labels = rng.integers(0, 3, size=n) if with_labels else None
    return sl.from_edge_list(n, raw, features, labels)


def random_orthonormal_basis(rng, p, d):
    """Random p x d matrix with orthonormal columns."""
    q, _ = np.linalg.qr(rng.standard_normal((p, d)))
    return q[:, :d]
