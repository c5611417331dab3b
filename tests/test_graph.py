import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import sheaflab as sl
from conftest import random_graph
from oracles import graph_laplacian, one_hop_neighbourhood


def feats(n, p=2):
    return np.zeros((n, p))


class TestFromEdgeList:
    def test_reversed_pair_dedup(self):
        g = sl.from_edge_list(2, [(0, 1), (1, 0)], feats(2))
        assert_array_equal(g.edges, [[0, 1]])

    def test_self_loop_dropped(self):
        g = sl.from_edge_list(3, [(0, 0), (0, 1)], feats(3))
        assert_array_equal(g.edges, [[0, 1]])

    def test_lexicographic_order(self):
        g = sl.from_edge_list(3, [(2, 0), (1, 2)], feats(3))
        assert_array_equal(g.edges, [[0, 2], [1, 2]])

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sl.from_edge_list(2, [(0, 2)], feats(2))

    def test_feature_row_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            sl.from_edge_list(3, [(0, 1)], feats(2))

    def test_negative_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            sl.from_edge_list(2, [(0, 1)], feats(2), labels=[0, -1])

    def test_empty_edges(self):
        g = sl.from_edge_list(2, [], feats(2))
        assert g.num_edges == 0

    @pytest.mark.parametrize("raw", [[(1, 1)], np.zeros((0, 2), dtype=np.int64)])
    def test_no_edge_left(self, raw):
        g = sl.from_edge_list(2, raw, feats(2))
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64
        assert_array_equal(g.degrees, [0, 0])

    def test_edge_pairs_shape_checked(self):
        with pytest.raises(ValueError, match="pairs"):
            sl.from_edge_list(3, [(0, 1, 2)], feats(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_unique_and_lexsort_references(self, seed):
        # messy input: both orientations, repeats and self-loops, in random order
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        raw = rng.integers(0, n, size=(int(rng.integers(0, 4 * n)), 2))
        raw = np.concatenate([raw, raw[: raw.shape[0] // 3, ::-1], raw[:5]])
        rng.shuffle(raw)
        lo, hi = raw.min(axis=1), raw.max(axis=1)
        pairs = np.stack([lo[lo != hi], hi[lo != hi]], axis=1).reshape(-1, 2)
        expected = np.unique(pairs, axis=0)
        heads = np.concatenate([expected[:, 0], expected[:, 1]])
        tails = np.concatenate([expected[:, 1], expected[:, 0]])
        for g in (
            sl.from_edge_list(n, raw, feats(n)),
            sl.from_edge_list(n, [tuple(e) for e in raw.tolist()], feats(n)),
        ):
            assert g.edges.dtype == np.int64
            assert_array_equal(g.edges, expected.reshape(-1, 2))
            assert_array_equal(g.degrees, np.bincount(heads, minlength=n))
            # the padding oracle's neighbour lists, node by node, against one lexsort
            hops = [one_hop_neighbourhood(g, i) for i in range(n)]
            assert_array_equal(np.concatenate(hops), tails[np.lexsort((tails, heads))])


class TestNeighbourhood:
    def test_path_middle(self):
        g = sl.from_edge_list(3, [(0, 1), (1, 2)], feats(3))
        assert_array_equal(one_hop_neighbourhood(g, 1), [0, 2])

    def test_path_end(self):
        g = sl.from_edge_list(3, [(0, 1), (1, 2)], feats(3))
        assert_array_equal(one_hop_neighbourhood(g, 0), [1])

    def test_isolated(self):
        g = sl.from_edge_list(3, [(0, 1)], feats(3))
        assert_array_equal(one_hop_neighbourhood(g, 2), [])

    def test_out_of_range(self):
        g = sl.from_edge_list(2, [(0, 1)], feats(2))
        with pytest.raises(ValueError):
            one_hop_neighbourhood(g, 5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_symmetry(self, seed):
        g = random_graph(np.random.default_rng(seed))
        for i in range(g.n):
            for j in one_hop_neighbourhood(g, i):
                assert i in one_hop_neighbourhood(g, int(j))


class TestDegree:
    def test_triangle(self):
        g = sl.from_edge_list(3, [(0, 1), (1, 2), (0, 2)], feats(3))
        assert all(g.degrees[i] == 2 for i in range(3))

    def test_star_centre(self):
        g = sl.from_edge_list(4, [(0, 1), (0, 2), (0, 3)], feats(4))
        assert g.degrees[0] == 3

    def test_isolated(self):
        g = sl.from_edge_list(2, [], feats(2))
        assert g.degrees[0] == 0


class TestHomophily:
    def test_triangle_one_match(self):
        g = sl.from_edge_list(3, [(0, 1), (1, 2), (0, 2)], feats(3), labels=[0, 0, 1])
        assert sl.homophily(g) == pytest.approx(1 / 3)

    def test_all_same(self):
        g = sl.from_edge_list(3, [(0, 1), (1, 2)], feats(3), labels=[1, 1, 1])
        assert sl.homophily(g) == 1.0

    def test_bipartite_cross(self):
        g = sl.from_edge_list(4, [(0, 2), (0, 3), (1, 2)], feats(4), labels=[0, 0, 1, 1])
        assert sl.homophily(g) == 0.0

    def test_empty_edges_error(self):
        g = sl.from_edge_list(2, [], feats(2), labels=[0, 1])
        with pytest.raises(ValueError, match="empty edge set"):
            sl.homophily(g)

    def test_missing_labels_error(self):
        g = sl.from_edge_list(2, [(0, 1)], feats(2))
        with pytest.raises(ValueError, match="missing labels"):
            sl.homophily(g)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_class_relabelling_invariance(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, with_labels=True)
        if g.num_edges == 0:
            return
        perm = rng.permutation(3)  # bijection on class ids
        relabelled = sl.from_edge_list(g.n, g.edges, g.features, perm[g.labels])
        assert sl.homophily(g) == sl.homophily(relabelled)


class TestGraphLaplacian:
    def test_single_edge(self):
        g = sl.from_edge_list(2, [(0, 1)], feats(2))
        assert_array_equal(graph_laplacian(g), [[1, -1], [-1, 1]])

    def test_triangle(self):
        g = sl.from_edge_list(3, [(0, 1), (1, 2), (0, 2)], feats(3))
        expected = 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3))
        assert_array_equal(graph_laplacian(g), expected)

    def test_single_node(self):
        g = sl.from_edge_list(1, [], feats(1))
        assert_array_equal(graph_laplacian(g), [[0.0]])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 50))
    def test_symmetric_psd_zero_row_sums(self, seed, n):
        g = random_graph(np.random.default_rng(seed), n=n)
        lap = graph_laplacian(g)
        assert_allclose(lap, lap.T, atol=1e-12)
        assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        assert np.linalg.eigvalsh(lap).min() >= -1e-12
