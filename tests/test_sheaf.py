import os
import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import sheaflab as sl
from sheaflab.errors import DataError, GuardError
from sheaflab.sheaf import _RANK_TOL, _TIE_TOL, _pca_bases
from conftest import REPR_EDGE_VALUES, random_graph, random_orthonormal_basis
from oracles import (
    loop_build_sheaf,
    loop_neighbourhood_with_padding,
    loop_read_sheaf_csv,
    loop_write_sheaf_csv,
    philox_item_normals,
    philox_item_words,
    one_hop_neighbourhood,
)


def padded(g, i, d):
    """Node i's slice of the whole-graph `neighbourhood_with_padding`."""
    flat, starts = sl.neighbourhood_with_padding(g, d)
    return flat[starts[i]:starts[i + 1]]


class TestNeighbourhoodWithPadding:
    def test_no_padding_when_enough(self):
        feats = np.zeros((4, 2))
        g = sl.from_edge_list(4, [(0, 1), (0, 2)], feats)
        assert_array_equal(padded(g, 0, 1), [1, 2])

    def test_forced_pad(self):
        # node 0 has one neighbour; nearest non-neighbour is node 7
        feats = np.full((8, 2), 10.0)
        feats[0] = 0.0
        feats[7] = (1.0, 0.0)
        g = sl.from_edge_list(8, [(0, 1)], feats)
        assert_array_equal(padded(g, 0, 2), [1, 7])

    def test_isolated_node_distance_sort(self):
        # brute-force distance sorting oracle on an isolated node
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((9, 3))
        g = sl.from_edge_list(9, [(1, 2), (3, 4)], feats)
        got = padded(g, 0, 4)
        cand = np.arange(1, 9)
        dists = np.linalg.norm(feats[cand] - feats[0], axis=1)
        expected = cand[np.argsort(dists, kind="stable")][:4]
        assert_array_equal(got, expected)

    def test_tie_break_lower_id(self):
        feats = np.zeros((5, 2))
        feats[0] = 0.0
        feats[[1, 2, 3, 4]] = 1.0  # all pad candidates equidistant
        g = sl.from_edge_list(5, [], feats)
        assert_array_equal(padded(g, 0, 2), [1, 2])

    def test_cannot_pad(self):
        feats = np.zeros((3, 4))
        g = sl.from_edge_list(3, [(0, 1)], feats)
        with pytest.raises(GuardError, match="cannot pad"):
            sl.neighbourhood_with_padding(g, 3)

    def test_bad_stalk_dimension(self):
        g = sl.from_edge_list(3, [(0, 1)], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="stalk dimension"):
            sl.neighbourhood_with_padding(g, 0)

    @pytest.mark.parametrize(
        "name, n, edges, ties",
        [
            ("isolated nodes", 12, [(0, 1), (1, 2), (2, 3), (5, 6)], False),
            ("distance ties", 10, [(0, 1), (2, 3), (3, 4)], True),
            ("n = d + 1", None, [(0, 1)], False),
            ("no edges", 7, [], True),
            ("complete", 5, [(u, v) for u in range(5) for v in range(u + 1, 5)], False),
        ],
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_node_oracle(self, name, n, edges, ties, d):
        n = d + 1 if n is None else n
        rng = np.random.default_rng(n)
        # integer features on few values make equal distances common
        feats = rng.integers(0, 2, (n, 2)).astype(float) if ties else rng.standard_normal((n, 3))
        g = sl.from_edge_list(n, edges, feats)
        flat, starts = sl.neighbourhood_with_padding(g, d)
        assert flat.dtype == np.int64 and starts.shape == (n + 1,) and starts[-1] == flat.size
        for i in range(n):
            want = loop_neighbourhood_with_padding(g, feats, i, d)
            assert np.array_equal(flat[starts[i]:starts[i + 1]], want), (name, i)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4))
    def test_random_graphs_match_per_node_oracle(self, seed, d):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n=int(rng.integers(d + 1, 30)), edge_prob=0.08)
        flat, starts = sl.neighbourhood_with_padding(g, d)
        got = [flat[starts[i]:starts[i + 1]] for i in range(g.n)]
        want = [loop_neighbourhood_with_padding(g, g.features, i, d) for i in range(g.n)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def pca_basis(feats, centre, neighbours, d):
    """`_pca_bases` on a group of one: the (p, d) basis at `centre`."""
    feats = np.asarray(feats, dtype=np.float64)
    return _pca_bases(feats, np.array([centre]), np.asarray(neighbours)[None, :], d)[0][0]


class TestLocalPca:
    def test_rank_one_axis(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        tb = pca_basis(feats, 0, [1, 2], 1)
        assert_allclose(tb, [[1.0], [0.0]], atol=1e-14)

    def test_equal_singular_values_tie_rule(self):
        # dense SVD oracle: columns of [[1,0],[0,1]] both carry singular
        # value one, so the deterministic tie rule fixes the order
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tb = pca_basis(feats, 0, [1, 2], 2)
        u, s, _ = np.linalg.svd(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert_allclose(s, [1.0, 1.0], atol=1e-14)
        assert_allclose(np.abs(np.linalg.det(tb)), 1.0, atol=1e-12)
        assert_allclose(tb, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_degenerate_neighbourhood_completed(self):
        feats = np.zeros((3, 2))
        tb = pca_basis(feats, 0, [1, 2], 1)
        assert_allclose(tb, [[1.0], [0.0]])

    def test_rank_deficit_partial_completion(self):
        feats = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        tb = pca_basis(feats, 0, [1, 2], 2)
        assert_allclose(tb, np.eye(3)[:, :2], atol=1e-14)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((10, 5))
        tb = pca_basis(feats, 0, np.arange(1, 10), 3)
        assert_allclose(tb.T @ tb, np.eye(3), atol=1e-10)

    def test_sign_canonical(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((8, 4))
        basis = pca_basis(feats, 0, np.arange(1, 8), 2)
        idx = np.argmax(np.abs(basis), axis=0)
        assert np.all(basis[idx, np.arange(2)] >= 0)


class TestAlign:
    def test_identity_alignment(self):
        b = random_orthonormal_basis(np.random.default_rng(0), 5, 2)
        assert_allclose(sl.align(b, b), np.eye(2), atol=1e-12)

    def test_rotation_recovered(self):
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        bi = np.eye(2)
        bj = rot
        assert_allclose(sl.align(bi, bj), rot, atol=1e-12)

    def test_one_dimensional_sign(self):
        bi = np.array([[1.0], [0.0]])
        bj = np.array([[1.0], [1.0]]) / np.sqrt(2)
        assert_allclose(sl.align(bi, bj), [[1.0]], atol=1e-12)

    def test_dimension_mismatch(self):
        bi = np.eye(3)[:, :1]
        bj = np.eye(3)[:, :2]
        with pytest.raises(ValueError, match="mismatch"):
            sl.align(bi, bj)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_transpose_consistency(self, seed):
        rng = np.random.default_rng(seed)
        bu = random_orthonormal_basis(rng, 6, 3)
        bv = random_orthonormal_basis(rng, 6, 3)
        cross = bu.T @ bv
        if np.linalg.cond(cross) >= 1e6:
            return
        assert_allclose(sl.align(bv, bu), sl.align(bu, bv).T, atol=1e-8)

    def test_procrustes_optimality(self):
        rng = np.random.default_rng(11)
        bu = random_orthonormal_basis(rng, 7, 3)
        bv = random_orthonormal_basis(rng, 7, 3)
        o = sl.align(bu, bv)
        best = np.linalg.norm(bu @ o - bv)
        for _ in range(100):
            q = sl.haar_orthogonal(rng.standard_normal((3, 3)))
            assert best <= np.linalg.norm(bu @ q - bv) + 1e-9

    def test_gauge_covariance_row_sign_flip(self):
        rng = np.random.default_rng(12)
        bu = random_orthonormal_basis(rng, 6, 3)
        bv = random_orthonormal_basis(rng, 6, 3)
        o = sl.align(bu, bv)
        flipped = bu.copy()
        flipped[:, 1] *= -1
        o_flipped = sl.align(flipped, bv)
        expected = o.copy()
        expected[1, :] *= -1
        assert_allclose(o_flipped, expected, atol=1e-10)


class TestBuildConnectionSheaf:
    def test_identical_local_geometry_gives_identity(self):
        # all nodes share one feature value: every basis completes to the
        # same standard frame, so every transport is the identity
        feats = np.ones((4, 3))
        g = sl.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], feats)
        s = sl.build_connection_sheaf(g, 2)
        bases = s.bases
        assert_allclose(bases, np.tile(bases[0], (4, 1, 1)), atol=1e-14)
        assert_allclose(s.transports, np.tile(np.eye(2), (6, 1, 1)), atol=1e-12)

    def test_alternating_positions_identity_transports(self):
        # even cycle with two alternating feature positions: every node sees
        # the same 1-dimensional difference direction, bases coincide
        pos = np.array([[0.0, 0.0], [3.0, 4.0]])
        feats = pos[[0, 1, 0, 1]]
        g = sl.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)], feats)
        s = sl.build_connection_sheaf(g, 1)
        bases = s.bases
        assert_allclose(bases, np.tile([[0.6], [0.8]], (4, 1, 1)), atol=1e-12)
        assert_allclose(s.transports, np.ones((4, 1, 1)), atol=1e-12)

    def test_collinear_features_path(self):
        direction = np.array([2.0, -1.0, 2.0]) / 3.0
        feats = np.outer([0.0, 1.0, 2.5], direction)
        g = sl.from_edge_list(3, [(0, 1), (1, 2)], feats)
        s = sl.build_connection_sheaf(g, 1)
        assert_allclose(s.transports, np.ones((2, 1, 1)), atol=1e-12)

    def test_d1_transports_are_signs(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, n=12, p_feat=3, edge_prob=0.4)
        s = sl.build_connection_sheaf(g, 1)
        assert_allclose(np.abs(s.transports), 1.0, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=10, p_feat=4)
        s1 = sl.build_connection_sheaf(g, 2)
        s2 = sl.build_connection_sheaf(g, 2)
        assert np.array_equal(s1.transports, s2.transports)
        for a, b in zip(s1.bases, s2.bases):
            assert np.array_equal(a, b)

    def test_global_rotation_isospectral(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, n=10, p_feat=4, edge_prob=0.5)
        rot = sl.haar_orthogonal(rng.standard_normal((4, 4)))
        g_rot = sl.from_edge_list(g.n, g.edges, g.features @ rot.T)
        lap = sl.normalise(sl.sheaf_laplacian(sl.build_connection_sheaf(g, 2), g))
        lap_rot = sl.normalise(
            sl.sheaf_laplacian(sl.build_connection_sheaf(g_rot, 2), g_rot)
        )
        assert_allclose(sl.spectrum(lap), sl.spectrum(lap_rot), atol=1e-8)

    def test_per_node_gauge_isospectral(self):
        from sheaflab.sheaf import transports_from_bases

        rng = np.random.default_rng(8)
        g = random_graph(rng, n=12, p_feat=5, edge_prob=0.4)
        s = sl.build_connection_sheaf(g, 3)
        gauged = np.stack([b @ sl.haar_orthogonal(rng.standard_normal((3, 3))) for b in s.bases])
        transports, _ = transports_from_bases(g.edges, gauged)
        s_gauged = sl.Sheaf(
            d=3, n=g.n, kind="connection", edges=g.edges.copy(), transports=transports
        )
        sp = sl.spectrum(sl.sheaf_laplacian(s, g))
        sp_gauged = sl.spectrum(sl.sheaf_laplacian(s_gauged, g))
        assert_allclose(sp, sp_gauged, atol=1e-8)

    def test_diagnostics_counts(self):
        feats = np.zeros((5, 3))
        g = sl.from_edge_list(5, [(0, 1)], feats)
        s = sl.build_connection_sheaf(g, 2)
        assert s.diagnostics.padded_nodes == 5  # everyone has < 2 neighbours
        assert s.diagnostics.rank_completed_bases == 5  # all-zero differences

    def test_d_exceeds_p(self):
        g = sl.from_edge_list(4, [(0, 1)], np.zeros((4, 2)))
        with pytest.raises(GuardError, match="exceeds"):
            sl.build_connection_sheaf(g, 3)


class TestTrivialSheaf:
    def test_d1(self):
        g = sl.from_edge_list(3, [(0, 1), (1, 2)], np.zeros((3, 2)))
        s = sl.trivial_sheaf(g, 1)
        assert_array_equal(s.transports, np.ones((2, 1, 1)))

    def test_d3(self):
        g = sl.from_edge_list(3, [(0, 1)], np.zeros((3, 2)))
        s = sl.trivial_sheaf(g, 3)
        assert_array_equal(s.transports, np.tile(np.eye(3), (1, 1, 1)))

    def test_empty_edges(self):
        g = sl.from_edge_list(3, [], np.zeros((3, 2)))
        assert sl.trivial_sheaf(g, 2).num_edges == 0


class TestHaarOrthogonal:
    def test_d1_uniform_signs(self):
        rng = np.random.default_rng(0)
        vals = np.array(
            [sl.haar_orthogonal(rng.standard_normal((1, 1)))[0, 0] for _ in range(400)]
        )
        assert set(np.unique(vals)) == {-1.0, 1.0}
        assert abs(vals.mean()) < 3 / np.sqrt(400)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_orthogonal(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            q = sl.haar_orthogonal(rng.standard_normal((d, d)))
            assert np.linalg.norm(q.T @ q - np.eye(d)) < 1e-10

    def test_entry_second_moment(self):
        # Monte-Carlo estimate of E[Q_11^2] = 1/d for d=2
        rng = np.random.default_rng(42)
        samples = np.array(
            [sl.haar_orthogonal(rng.standard_normal((2, 2)))[0, 0] ** 2 for _ in range(100_000)]
        )
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(samples.mean() - 0.5) < 3 * se


class TestRandomSheaves:
    def test_edge_sheaf_deterministic(self):
        g = random_graph(np.random.default_rng(1), n=8)
        s1 = sl.random_edge_sheaf(g, 2, seed=9)
        s2 = sl.random_edge_sheaf(g, 2, seed=9)
        assert np.array_equal(s1.transports, s2.transports)

    def test_edge_sheaf_d1_signs(self):
        g = random_graph(np.random.default_rng(2), n=10, edge_prob=0.5)
        s = sl.random_edge_sheaf(g, 1, seed=0)
        assert set(np.unique(s.transports)) <= {-1.0, 1.0}

    def test_edge_sheaf_orthogonal(self):
        g = random_graph(np.random.default_rng(3), n=10, edge_prob=0.5)
        s = sl.random_edge_sheaf(g, 3, seed=1)
        for o in s.transports:
            assert np.linalg.norm(o.T @ o - np.eye(3)) < 1e-10

    def test_node_sheaf_identity_hook(self):
        g = random_graph(np.random.default_rng(4), n=6, edge_prob=0.6)
        s = sl.node_sheaf_from_matrices(g, np.tile(np.eye(2), (6, 1, 1)))
        assert_allclose(s.transports, np.tile(np.eye(2), (g.num_edges, 1, 1)))

    def test_node_sheaf_deterministic(self):
        g = random_graph(np.random.default_rng(5), n=8)
        s1 = sl.random_node_sheaf(g, 3, seed=2)
        s2 = sl.random_node_sheaf(g, 3, seed=2)
        assert np.array_equal(s1.transports, s2.transports)

    def test_node_sheaf_flat_on_triangles(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=10, edge_prob=0.6)
        s = sl.random_node_sheaf(g, 2, seed=3)
        omap = {(int(u), int(v)): o for (u, v), o in zip(g.edges, s.transports)}

        def transport(a, b):
            return omap[(a, b)] if (a, b) in omap else omap[(b, a)].T

        found = 0
        for u in range(g.n):
            for v in range(u + 1, g.n):
                for w in range(v + 1, g.n):
                    if (u, v) in omap and (v, w) in omap and (u, w) in omap:
                        ring = transport(u, v) @ transport(v, w) @ transport(w, u)
                        assert_allclose(ring, np.eye(2), atol=1e-10)
                        found += 1
        assert found > 0


@pytest.mark.parametrize("kind", ["connection", "trivial", "rand-edge", "rand-node"])
def test_transport_orthogonality_all_kinds(kind):
    from sheaflab.model import build_sheaf_by_kind

    rng = np.random.default_rng(13)
    g = random_graph(rng, n=12, p_feat=4, edge_prob=0.4)
    s = build_sheaf_by_kind(g, kind, 2, seed=0)
    for o in s.transports:
        assert np.linalg.norm(o.T @ o - np.eye(2)) <= 1e-9


def test_sheaf_csv_round_trip(tmp_path):
    g = random_graph(np.random.default_rng(14), n=7, edge_prob=0.5)
    s = sl.build_connection_sheaf(g, 2)
    path = tmp_path / "sheaf.csv"
    sl.write_sheaf_csv(s, path)
    loaded = sl.read_sheaf_csv(path)
    assert loaded.kind == "connection"
    assert loaded.n == s.n and loaded.d == s.d
    assert_array_equal(loaded.edges, s.edges)
    assert np.array_equal(loaded.transports, s.transports)


def test_read_sheaf_csv_from_a_pipe():
    # a pipe has no size to check the header's row type against; a valid file still reads
    r, w = os.pipe()
    os.write(w, b"n=3,d=1,kind=x\n0,1,1.0\n1,2,-1.0\n")
    os.close(w)
    s = sl.read_sheaf_csv(f"/dev/fd/{r}")
    os.close(r)
    assert_array_equal(s.edges, [[0, 1], [1, 2]])
    assert s.transports.ravel().tolist() == [1.0, -1.0]


@pytest.mark.parametrize("kind", ["connection", "trivial", "rand-edge", "rand-node"])
@pytest.mark.parametrize("edge_prob", [0.0, 0.5])
def test_sheaf_csv_round_trip_every_kind(tmp_path, kind, edge_prob):
    from sheaflab.model import build_sheaf_by_kind

    g = random_graph(np.random.default_rng(15), n=9, edge_prob=edge_prob)
    s = build_sheaf_by_kind(g, kind, 3, seed=2)
    path = tmp_path / "sheaf.csv"
    sl.write_sheaf_csv(s, path)
    loaded = sl.read_sheaf_csv(path)
    assert (loaded.n, loaded.d, loaded.kind) == (s.n, s.d, s.kind)
    assert loaded.edges.dtype == np.int64 and loaded.edges.shape == s.edges.shape
    assert_array_equal(loaded.edges, s.edges)
    assert loaded.transports.shape == s.transports.shape
    assert np.array_equal(loaded.transports, s.transports)


@pytest.mark.parametrize("kind", ["connection", "trivial", "rand-edge", "rand-node"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("chunk", [None, 7])
def test_write_sheaf_csv_matches_loop_oracle(tmp_path, monkeypatch, kind, d, chunk):
    from sheaflab.model import build_sheaf_by_kind

    if chunk is not None:  # several chunks per file, the last one partial
        monkeypatch.setattr(sl.data, "_CSV_CHUNK", chunk)
    rng = np.random.default_rng(16)
    graphs = (
        random_graph(rng, n=12, edge_prob=0.4),
        sl.from_edge_list(5, [], rng.standard_normal((5, 4))),  # m = 0
        sl.from_edge_list(1, [], rng.standard_normal((1, 4))),  # n = 1
    )
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    for g in graphs:
        if kind == "connection" and g.n <= d:
            continue  # padding needs n > d
        s = build_sheaf_by_kind(g, kind, d, seed=3)
        sl.write_sheaf_csv(s, new)
        loop_write_sheaf_csv(s, old)
        assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("chunk", [None, 3])
def test_write_sheaf_csv_edge_values_match_loop_oracle(tmp_path, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(sl.data, "_CSV_CHUNK", chunk)
    edges = np.array([[0, 1], [1, 12], [3, 12]])
    values_2, values_1 = REPR_EDGE_VALUES + REPR_EDGE_VALUES[2:6], REPR_EDGE_VALUES[5:]
    for d, values in ((2, values_2), (1, values_1)):
        s = sl.Sheaf(d=d, n=13, kind="connection", edges=edges,
                     transports=np.array(values).reshape(3, d, d))
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        sl.write_sheaf_csv(s, new)
        loop_write_sheaf_csv(s, old)
        assert new.read_bytes() == old.read_bytes()
        assert all(repr(v).encode() in new.read_bytes() for v in values)


def test_write_sheaf_csv_memory_peak(tmp_path):
    # the benchmark's n = 4000, d = 2 connection sheaf; one chunk's buffers are
    # small next to its edge and transport arrays
    g = sl.synth_sbm(4000, 2, 14.4 / 4000, 3.6 / 4000, 4, 2.0, seed=1).graph
    s = sl.build_connection_sheaf(g, 2)
    sheaf_bytes = s.edges.nbytes + s.transports.nbytes
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sl.write_sheaf_csv(s, tmp_path / "sheaf.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sheaf_bytes


def oracle_gate_graphs():
    """Criterion 02's random graphs, then isolated nodes, m = 0 and degenerate bases."""
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 21))
        rng.integers(1, 4)  # criterion 02 draws d here
        yield random_graph(rng, n=n, p_feat=4, edge_prob=0.4)
    rng = np.random.default_rng(17)
    yield sl.from_edge_list(6, [(0, 1), (1, 2), (0, 4)], rng.standard_normal((6, 4)))  # 3, 5
    yield sl.from_edge_list(5, [], rng.standard_normal((5, 4)))  # m = 0
    # nodes 0, 1, 2 share one feature vector: bases at 0 and 1 are rank-completed
    feats = rng.standard_normal((8, 4))
    feats[1] = feats[2] = feats[0]
    yield sl.from_edge_list(8, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (5, 6)], feats)
    # at d = 1 node 1's basis is e_1 and node 0's is e_2: edge (0, 1) aligns singularly
    feats = np.zeros((4, 4))
    feats[[0, 2, 3], :2] = [[1.0, 0.0], [-1.0, 0.0], [1.0, 5.0]]
    yield sl.from_edge_list(4, [(0, 1), (1, 2), (0, 3)], feats)


@pytest.mark.parametrize("kind", ["connection", "trivial", "rand-edge", "rand-node"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_build_matches_loop_oracle(kind, d):
    from sheaflab.model import build_sheaf_by_kind

    totals = np.zeros(3, dtype=np.int64)
    for seed, g in enumerate(oracle_gate_graphs()):
        if g.n <= d:
            continue
        s = build_sheaf_by_kind(g, kind, d, seed=seed)
        old = loop_build_sheaf(g, kind, d, seed)
        assert np.array_equal(s.transports, old.transports)
        assert s.transports.shape == (g.num_edges, d, d)
        assert s.diagnostics == old.diagnostics
        if kind == "connection":
            assert s.bases.shape == (g.n, g.feature_dim, d)
            assert np.array_equal(s.bases, old.bases)
            totals += astuple(s.diagnostics)
        else:
            assert s.bases is None and old.bases is None
    if kind == "connection":  # every degenerate branch was exercised
        padded, completed, singular = totals
        assert padded > 0 and completed > 0 and (singular > 0 or d > 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_haar_draws_use_per_item_seed_streams(d):
    small = random_graph(np.random.default_rng(18), n=8, edge_prob=0.4)
    large = random_graph(np.random.default_rng(19), n=14, edge_prob=0.5)
    assert small.num_edges < large.num_edges

    for seed in (11, 3 * 2**64 + 5):  # the second sets the key's upper word
        def draw(k):
            return sl.haar_orthogonal(philox_item_normals(seed, k, d * d).reshape(d, d))

        for g in (small, large):
            expected = np.stack([draw(k) for k in range(g.num_edges)])
            assert np.array_equal(sl.random_edge_sheaf(g, d, seed).transports, expected)
            qs = np.stack([draw(k) for k in range(g.n)])
            expected = sl.node_sheaf_from_matrices(g, qs).transports
            assert np.array_equal(sl.random_node_sheaf(g, d, seed).transports, expected)
        # draw k does not depend on how many items the graph has
        m = small.num_edges
        assert np.array_equal(
            sl.random_edge_sheaf(large, d, seed).transports[:m],
            sl.random_edge_sheaf(small, d, seed).transports,
        )


class TestPhiloxDraws:
    """The counter-based stream behind every Haar draw, and the Gaussians it gives."""

    @pytest.mark.parametrize("seed", [0, 3 * 2**64 + 5, 2**128 - 1])
    def test_rows_match_per_item_oracle(self, seed):
        for d in (1, 2, 3, 4):  # b = ceil(d * d / 4) blocks per item: 1, 1, 3, 4
            z = sl.sheaf._standard_normals(seed, 9, d * d)
            assert z.shape == (9, d * d) and z.dtype == np.float64
            for k, row in enumerate(z):
                assert np.array_equal(row, philox_item_normals(seed, k, d * d))

    def test_items_tile_one_numpy_philox_stream(self):
        # item k of b blocks starts where item k - 1 ended: blocks k b + 1 .. k b + b
        stream = np.random.Philox(key=7).random_raw(5 * 12)
        for k in range(5):
            assert np.array_equal(philox_item_words(7, k, 12), stream[12 * k:12 * k + 12])

    @pytest.mark.parametrize("seed", [1.5, "3", -1, 2**128])
    def test_seed_must_be_an_integer_in_range(self, seed):
        # numpy's Philox would take 1.5 (as 1) and "3" as keys
        g = random_graph(np.random.default_rng(26), n=6)
        for build in (sl.random_edge_sheaf, sl.random_node_sheaf):
            with pytest.raises((TypeError, ValueError)):
                build(g, 2, seed)

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**200])
    def test_seed_out_of_range(self, seed):
        g = random_graph(np.random.default_rng(26), n=6)
        for build in (sl.random_edge_sheaf, sl.random_node_sheaf):
            with pytest.raises(ValueError, match="seed"):
                build(g, 2, seed)

    def test_largest_seed_accepted(self):
        g = random_graph(np.random.default_rng(26), n=6)
        assert np.array_equal(
            sl.random_edge_sheaf(g, 2, 2**128 - 1).transports,
            loop_build_sheaf(g, "rand-edge", 2, 2**128 - 1).transports,
        )

    def test_gaussian_moments(self):
        z = sl.sheaf._standard_normals(3, 50_000, 4).ravel()  # 200k draws
        assert z.size == 200_000
        assert abs(z.mean()) < 5 / np.sqrt(z.size)
        assert abs(z.var() - 1.0) < 5 * np.sqrt(2 / z.size)

    @staticmethod
    def _path(m):
        return sl.from_edge_list(m + 1, [(i, i + 1) for i in range(m)], np.zeros((m + 1, 1)))

    def test_d1_transport_signs_balanced(self):
        t = sl.random_edge_sheaf(self._path(40_000), 1, seed=7).transports.ravel()
        assert set(np.unique(t)) == {-1.0, 1.0}
        assert abs(np.mean(t == 1.0) - 0.5) < 5 * 0.5 / np.sqrt(t.size)

    def test_d2_entry_moment_and_reflections(self):
        t = sl.random_edge_sheaf(self._path(40_000), 2, seed=8).transports
        m = t.shape[0]
        # O_00 = cos(theta), theta uniform: E[cos^2] = 1/2, Var[cos^2] = 1/8
        assert abs(np.mean(t[:, 0, 0] ** 2) - 0.5) < 5 * np.sqrt(1 / 8 / m)
        assert abs(np.mean(np.linalg.det(t) < 0) - 0.5) < 5 * 0.5 / np.sqrt(m)


def test_pca_group_with_degenerate_nodes_matches_loop_oracle():
    # nodes 0 (tied), 5 (rank-deficient) and 10-14 (ordinary) all have four
    # neighbours, so one batched SVD covers them; the tie order swaps 0's
    # columns and 5 is rank-completed inside that group
    rng = np.random.default_rng(23)
    feats = rng.standard_normal((15, 3))
    feats[0] = 0.0
    # centred +-e2, +-e1: the SVD returns e1 before e2, the tie rule swaps them
    feats[1:5] = [[0, 1, 0], [0, -1, 0], [1, 0, 0], [-1, 0, 0]]
    feats[6:10] = feats[5] + np.outer([1.0, 2.0, -1.0, 3.0], [0.6, 0.0, 0.8])  # one line
    edges = [(0, k) for k in range(1, 5)] + [(5, k) for k in range(6, 10)]
    edges += [(u, v) for u in range(10, 15) for v in range(u + 1, 15)]  # 5-clique
    g = sl.from_edge_list(15, edges, feats)
    assert all(g.degrees[[0, 5, 10, 11, 12, 13, 14]] == 4)
    sv = np.linalg.svd(feats[1:5].T, compute_uv=False)
    assert sv[0] - sv[1] <= 1e-10 * sv[0]

    s = sl.build_connection_sheaf(g, 2)
    old = loop_build_sheaf(g, "connection", 2, 0)
    assert np.array_equal(s.bases, old.bases)
    assert np.array_equal(s.transports, old.transports)
    assert s.diagnostics == old.diagnostics
    assert s.diagnostics.rank_completed_bases >= 1
    for i in (0, 5, 10):  # the same routine on a group of one
        basis = pca_basis(feats, i, one_hop_neighbourhood(g, i), 2)
        assert np.array_equal(basis, old.bases[i])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_discrete_feature_graphs_match_loop_oracle(d):
    # binary and ternary features tie singular values and lower ranks often;
    # the batched gauge must equal the per-node `_pca_basis` bitwise. Each
    # graph also holds a star whose d + 1 leaves sit at e_0 .. e_d around a
    # zero centre: one tied run across column d
    rng = np.random.default_rng(40 + d)
    tied = straddling = completed = 0
    for values in ([0.0, 1.0], [-1.0, 0.0, 1.0]):
        for _ in range(6):
            shape = random_graph(rng, n=int(rng.integers(d + 2, 30)), edge_prob=0.15)
            n = shape.n
            feats = np.vstack([rng.choice(values, size=(n, 5)), np.zeros(5), np.eye(5)[:d + 1]])
            star = [(n, n + 1 + k) for k in range(d + 1)]
            g = sl.from_edge_list(n + d + 2, [*shape.edges.tolist(), *star], feats)
            s = sl.build_connection_sheaf(g, d)
            old = loop_build_sheaf(g, "connection", d, 0)
            assert np.array_equal(s.bases, old.bases)
            assert np.array_equal(s.transports, old.transports)
            assert s.diagnostics == old.diagnostics
            completed += s.diagnostics.rank_completed_bases
            flat, starts = sl.neighbourhood_with_padding(g, d)
            for i in range(g.n):
                nbrs = flat[starts[i]:starts[i + 1]]
                sv = np.linalg.svd((g.features[nbrs] - g.features[i]).T, compute_uv=False)
                scale = max(1.0, sv[0])
                tie = sv[:-1] - sv[1:] <= _TIE_TOL * scale  # tie[k]: columns k, k + 1
                tie &= sv[1:] > _RANK_TOL * scale  # among nonzero singular values
                tied += bool(tie.any())
                straddling += bool(sv.size > d and tie[d - 1])  # column d - 1 with d
    assert tied > 0 and straddling > 0 and completed > 0


@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_connection_sheaf_is_flat_only_when_p_equals_d(p):
    # at p = d every basis B_v is square orthogonal, so the Procrustes factor
    # of B_v^T B_u is B_v^T B_u itself: the sheaf is a gauge transform of the
    # trivial one and shares its spectrum. At p > d the alignment does work
    g = sl.synth_sbm(200, 2, 0.01, 0.1, p, 2.0, seed=100).graph  # heterophilic
    s = sl.build_connection_sheaf(g, 2)
    us, vs = g.edges[:, 0], g.edges[:, 1]
    flat = np.matmul(np.transpose(s.bases[vs], (0, 2, 1)), s.bases[us])
    transport_gap = np.max(np.abs(s.transports - flat))
    spectrum = sl.spectrum(sl.normalise(sl.sheaf_laplacian(s, g)))
    trivial = sl.spectrum(sl.normalise(sl.sheaf_laplacian(sl.trivial_sheaf(g, 2), g)))
    spectrum_gap = np.max(np.abs(spectrum - trivial))
    if p == 2:
        assert transport_gap <= 1e-12 and spectrum_gap <= 1e-12
    else:
        assert transport_gap > 0.5 and spectrum_gap > 0.1


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_connection_build_pads_each_node_once(monkeypatch):
    # one whole-graph call pads every node, through the module global
    g = random_graph(np.random.default_rng(24), n=30, p_feat=4, edge_prob=0.1)
    calls = _count_calls(monkeypatch, sl.sheaf, "neighbourhood_with_padding")
    sl.build_connection_sheaf(g, 2)
    assert len(calls) == 1


@pytest.mark.parametrize("build", [sl.random_edge_sheaf, sl.random_node_sheaf])
def test_haar_sheaf_makes_one_haar_call(monkeypatch, build):
    g = random_graph(np.random.default_rng(25), n=30, p_feat=4, edge_prob=0.3)
    calls = _count_calls(monkeypatch, sl.sheaf, "haar_orthogonal")
    build(g, 3, seed=4)
    assert len(calls) == 1


@pytest.mark.parametrize("shape", [(2, 3), (4,), (3, 0, 0)])
def test_haar_orthogonal_rejects_non_square_stack(shape):
    with pytest.raises(ValueError, match="stack"):
        sl.haar_orthogonal(np.ones(shape))


class TestReadSheafCsvRejects:
    """Malformed sheaf files raise DataError naming the 1-based line."""

    ROWS = ["0,1,1.0,0.0,0.0,1.0", "0,2,0.0,1.0,1.0,0.0", "1,2,-1.0,0.0,0.0,1.0"]

    def read(self, tmp_path, header="n=3,d=2,kind=trivial", rows=ROWS):
        path = tmp_path / "sheaf.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        return sl.read_sheaf_csv(path)

    def test_valid_file_reads(self, tmp_path):
        s = self.read(tmp_path)
        assert_array_equal(s.edges, [[0, 1], [0, 2], [1, 2]])
        assert_array_equal(s.transports[2], [[-1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "header",
        [
            "d=2,kind=trivial", "n=3,kind=trivial", "n=3,d=2",
            "n=3,d=two,kind=x", "n=3,d=0,kind=x", "x",
            f"n=3,d={10**5},kind=x",  # a row type numpy cannot make
            "n=1_0,d=2,kind=x", "n=3,d=\u0662,kind=x",  # plain numerals only, as in a row
        ],
    )
    def test_header_missing_or_bad_field(self, tmp_path, header):
        with pytest.raises(DataError, match="line 1:"):
            self.read(tmp_path, header=header)

    @pytest.mark.parametrize("row", ["0,1,1.0,0.0,0.0", "0,1,1.0,0.0,0.0,1.0,0.0", "0,1"])
    def test_wrong_field_count(self, tmp_path, row):
        with pytest.raises(DataError, match="line 3: .*requires 6 columns"):
            self.read(tmp_path, rows=[self.ROWS[0], row.replace("0,1", "0,2", 1)])

    @pytest.mark.parametrize("row", ["0,2,1.0,0.0,zero,1.0", "0,2.5,1,0,0,1", "x,2,1,0,0,1"])
    def test_unparsable_field(self, tmp_path, row):
        with pytest.raises(DataError, match="line 3:"):
            self.read(tmp_path, rows=[self.ROWS[0], row])

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,1,1,0,0,1", "2,1,1,0,0,1"],  # u > v
            ["0,1,1,0,0,1", "2,2,1,0,0,1"],  # self-loop
            ["0,1,1,0,0,1", "0,1,1,0,0,1"],  # repeated edge
            ["0,2,1,0,0,1", "0,1,1,0,0,1"],  # out of order
            ["0,1,1,0,0,1", "1,3,1,0,0,1"],  # endpoint >= n
        ],
    )
    def test_non_canonical_edges(self, tmp_path, rows):
        with pytest.raises(DataError, match="line 3: edge not canonical"):
            self.read(tmp_path, rows=rows)

    @pytest.mark.parametrize("entries", ["1,0,0,1.000001", "1,1,0,1", "nan,0,0,1", "2,0,0,0.5"])
    def test_non_orthogonal_transport(self, tmp_path, entries):
        rows = [self.ROWS[0], "0,2," + entries, self.ROWS[2]]
        with pytest.raises(DataError, match="line 3: transport not orthogonal"):
            self.read(tmp_path, rows=rows)

    @pytest.mark.parametrize("d", [99, 2000])
    def test_header_too_wide_for_the_file(self, tmp_path, d):
        # no row of 2 + d*d fields fits: the body must be empty, and no row type is set up
        with pytest.raises(DataError, match="line 3: too few fields"):
            self.read(tmp_path, header=f"n=3,d={d},kind=x", rows=["", self.ROWS[0]])
        s = self.read(tmp_path, header=f"n=3,d={d},kind=x", rows=["", ""])
        assert s.edges.shape == (0, 2) and s.transports.shape == (0, d, d)


def read_through_pipe(text):
    """read_sheaf_csv of `text` written to a pipe, which cannot seek."""
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "w") as fh:
        fh.write(text)
    try:
        return sl.read_sheaf_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


@pytest.mark.parametrize(
    "rows, line",
    [(["0,1,x"], 2), (["0,1,1", "", "1,0,1"], 4), (["0,1,1", "0,2,-1", "1,2,2"], 4)],
)
def test_sheaf_csv_from_a_pipe_names_its_line(rows, line):
    with pytest.raises(DataError, match=f"line {line}: "):
        read_through_pipe("\n".join(["n=3,d=1,kind=x", *rows]) + "\n")


def test_valid_sheaf_csv_reads_from_a_pipe():
    s = read_through_pipe("n=3,d=1,kind=x\n0,1,1.0\n1,2,-1.0\n")
    assert_array_equal(s.edges, [[0, 1], [1, 2]])
    assert_array_equal(s.transports.ravel(), [1.0, -1.0])


def write_lines(path, lines, end="\n"):
    path.write_bytes("".join(line + end for line in lines).encode())


def sheaf_csv_variants(s, tmp_path):
    """A written sheaf CSV as saved, with CRLF endings and with empty lines around every row."""
    path = tmp_path / "sheaf.csv"
    sl.write_sheaf_csv(s, path)
    lines = path.read_text().splitlines()
    yield path
    write_lines(path, lines, end="\r\n")
    yield path
    write_lines(path, [lines[0], "", *(x for line in lines[1:] for x in (line, "", "")), ""])
    yield path


def assert_same_sheaf(a, b):
    assert (a.n, a.d, a.kind) == (b.n, b.d, b.kind)
    for x, y in ((a.edges, b.edges), (a.transports, b.transports)):
        assert x.dtype == y.dtype and x.shape == y.shape and x.flags.c_contiguous
        assert x.tobytes() == y.tobytes()  # bitwise, the sign of zero included


@pytest.mark.parametrize("kind", ["connection", "trivial", "rand-edge", "rand-node"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("edge_prob", [0.0, 0.4])
def test_reader_matches_loop_oracle(tmp_path, kind, d, edge_prob):
    from sheaflab.model import build_sheaf_by_kind

    g = random_graph(np.random.default_rng(30 + d), n=11, p_feat=4, edge_prob=edge_prob)
    s = build_sheaf_by_kind(g, kind, d, seed=3)
    for path in sheaf_csv_variants(s, tmp_path):
        loaded = sl.read_sheaf_csv(path)
        assert_same_sheaf(loaded, loop_read_sheaf_csv(path))
        assert_same_sheaf(loaded, s)


def test_reader_matches_loop_oracle_on_edge_values(tmp_path):
    # orthogonal to 1e-10 with the writers' edge values off the diagonal, -0.0 among them
    tiny = [-0.0, 5e-324, -2.2250738585072014e-308, 1e-17]
    transports = np.array([[[1.0, x], [-x, -1.0 if x else 1.0]] for x in tiny])
    s = sl.Sheaf(d=2, n=5, kind="x", edges=np.array([[0, 1], [0, 4], [1, 2], [3, 4]]),
                 transports=transports)
    for path in sheaf_csv_variants(s, tmp_path):
        assert_same_sheaf(sl.read_sheaf_csv(path), loop_read_sheaf_csv(path))
        assert_same_sheaf(sl.read_sheaf_csv(path), s)


# body lines of a malformed n=4, d=2 sheaf CSV, each raising DataError at the marked line
GOOD = ["0,1,1,0,0,1", "0,2,0,1,1,0", "1,3,-1,0,0,1"]
MALFORMED_SHEAFS = {
    "short-row": [GOOD[0], "", "0,2,0,1,1"],
    "long-row": [GOOD[0], "0,2,0,1,1,0,0"],
    "endpoints-only": [GOOD[0], "", "", "0,2"],
    "unparsable-entry": [GOOD[0], "0,2,0,1,x,0"],
    "float-endpoint": [GOOD[0], "0,2.0,0,1,1,0"],
    "empty-field": [GOOD[0], "0,2,0,,1,0"],
    "quoted-field": [GOOD[0], '0,"2",0,1,1,0'],
    "u-after-v": [GOOD[0], "", "2,0,0,1,1,0"],
    "self-loop": [GOOD[0], "2,2,0,1,1,0"],
    "repeated-edge": [GOOD[0], GOOD[0]],
    "out-of-order": [GOOD[1], "", GOOD[0]],
    "endpoint-n": [GOOD[0], "1,4,1,0,0,1"],
    "negative-endpoint": ["-1,1,1,0,0,1"],
    "not-orthogonal": [GOOD[0], "", "", "0,2,1,1,0,1"],
    "nan-entry": [GOOD[0], GOOD[1], "1,2,nan,0,0,1"],
    "scaled": ["", "0,1,2,0,0,2"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SHEAFS))
@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_malformed_sheaf_same_line_from_both_readers(tmp_path, case, end):
    rows = MALFORMED_SHEAFS[case]
    line = 1 + len(rows)  # the last row is the bad one
    path = tmp_path / "sheaf.csv"
    write_lines(path, ["n=4,d=2,kind=x", *rows, GOOD[2] if case != "out-of-order" else ""], end)
    for reader in (sl.read_sheaf_csv, loop_read_sheaf_csv):
        with pytest.raises(DataError, match=f"line {line}: ") as info:
            reader(path)
        assert re.findall(r"line (\d+)", str(info.value)) == [str(line)]
    with pytest.raises(DataError, match=rf"sheaf\.csv (row at )?line {line}: "):
        sl.read_sheaf_csv(path)


# the deliberate tightenings: plain numerals as in the dataset files, and DataError in place
# of UnicodeDecodeError and OverflowError; each bad field sits on line 3
TIGHTENED = {
    "whitespace-line": (b"   ", None),
    "digit-separator": (b"0,1_0,1,0,0,1", None),
    "arabic-indic-digit": ("0,\u0662,0,1,1,0".encode(), None),
    "non-utf8-byte": (b"0,2,0,1,\xff,0", UnicodeDecodeError),
    "beyond-int64": (b"0,9223372036854775808,0,1,1,0", OverflowError),
}


@pytest.mark.parametrize("case", sorted(TIGHTENED))
def test_tightenings_against_loop_oracle(tmp_path, case):
    row, oracle_error = TIGHTENED[case]
    path = tmp_path / "sheaf.csv"
    path.write_bytes(b"n=11,d=2,kind=x\n" + GOOD[0].encode() + b"\n" + row + b"\n")
    if oracle_error is None:
        loop_read_sheaf_csv(path)  # the oracle skipped the line or read int("1_0") as 10
    else:
        with pytest.raises(oracle_error):
            loop_read_sheaf_csv(path)
    match = "sheaf.csv is not UTF-8" if case == "non-utf8-byte" else "line 3: "
    with pytest.raises(DataError, match=match):
        sl.read_sheaf_csv(path)
