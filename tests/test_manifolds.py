"""A positive control for the connection sheaf's alignment: manifolds of known spectrum.

Local PCA plus Procrustes alignment is the construction of vector diffusion
maps (Singer & Wu, 2012), whose connection Laplacian converges to the
manifold's. On S^2 that operator's eigenvalues l(l+1) - 1 have multiplicities
2(2l+1) = 6, 10, 14, ..., and none is zero: S^2 has no nowhere-zero vector
field. The flat Clifford torus has two parallel fields, so its kernel has
dimension 2. The rand-edge sheaf on the same graphs shows neither.

Every case: n = 600 seeded points, an epsilon-graph of mean degree 18-23
(no node is padded), the coordinates as features, d = 2, and the dense
spectrum of the normalised Laplacian. The margins quoted are this fixture's.
Six seeded draws of each manifold, each from a generator of its own, gave
sphere gaps x2.86-x3.11 after lambda_6, sphere minima 9.8e-3-1.1e-2, torus
gaps x264-x373 after lambda_2, and rand-edge gaps of at most x1.05.
"""

import numpy as np
import pytest

import sheaflab as sl

N = 600


def epsilon_graph(points, eps):
    """Nodes at `points`, which are also their features, and an edge per pair closer than eps."""
    dist = np.linalg.norm(points[:, None] - points[None, :], axis=-1)  # exact, no Gram form
    edges = np.argwhere(np.triu(dist < eps, k=1))
    return sl.from_edge_list(len(points), edges, points)


@pytest.fixture(scope="module")
def manifolds():
    """The unit sphere in R^3 and the Clifford torus (cos a, sin a, cos b, sin b)/sqrt 2 in R^4."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((N, 3))
    sphere = x / np.linalg.norm(x, axis=1, keepdims=True)
    a, b = rng.uniform(0.0, 2.0 * np.pi, (2, N))
    torus = np.stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)], axis=1) / np.sqrt(2.0)
    graphs = {"sphere": epsilon_graph(sphere, 0.37), "torus": epsilon_graph(torus, 0.46)}
    for g in graphs.values():
        assert 18 <= 2 * g.num_edges / N <= 23 and g.degrees.min() >= 2  # mean 20.5 and 20.7
    return sphere, graphs


def spectrum_of(g, kind):
    sheaf = sl.model.build_sheaf_by_kind(g, kind, 2, seed=0)
    assert sheaf.diagnostics.padded_nodes == 0
    return sl.spectrum(sl.normalise(sl.sheaf_laplacian(sheaf, g)))


def largest_gap(lam, count=36):
    """(k, lam[k] / lam[k - 1]) for the largest ratio among lambda_1 .. lambda_count."""
    ratios = lam[1:count] / lam[:count - 1]
    k = int(np.argmax(ratios))
    return k + 1, float(ratios[k])


def test_connection_spectrum_recovers_sphere_and_torus(manifolds):
    _, graphs = manifolds
    sphere = spectrum_of(graphs["sphere"], "connection")
    k, gap = largest_gap(sphere)
    assert k == 6 and gap >= 2.5  # measured x2.86: the l = 1 cluster of multiplicity 6
    assert sphere[0] >= 5e-3  # measured 1.10e-2: no zero eigenvalue (hairy-ball theorem)

    torus = spectrum_of(graphs["torus"], "connection")
    assert np.count_nonzero(torus < 1e-3) == 2  # measured 1.0e-4 twice, then 3.6e-2
    assert torus[2] / torus[1] >= 50  # measured x352

    for g in graphs.values():  # rand-edge: minima 0.51 and 0.52, gaps x1.03, x1.04
        lam = spectrum_of(g, "rand-edge")
        assert largest_gap(lam)[1] < 1.5 and np.count_nonzero(lam < 1e-3) == 0


def test_sphere_spectrum_is_invariant_under_orthogonal_embedding(manifolds):
    # the bases rotate with the features and B_v^T B_u does not change; the same
    # graph, so only the PCA and the alignment see the embedding
    sphere, graphs = manifolds
    base = spectrum_of(graphs["sphere"], "connection")
    rng = np.random.default_rng(1)
    for p in range(3, 9):
        q = np.linalg.qr(rng.standard_normal((p, p)))[0][:, :3]  # orthonormal columns
        g = sl.from_edge_list(N, graphs["sphere"].edges, sphere @ q.T)
        lam = spectrum_of(g, "connection")
        assert np.max(np.abs(lam - base)) <= 1e-12  # measured at most 8.3e-15, p = 3 .. 8
