import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import sheaflab as sl
from sheaflab.errors import GuardError
from sheaflab.model import build_sheaf_by_kind, gcn_propagation_matrix
from conftest import REPR_EDGE_VALUES, random_graph
from oracles import (
    addat_apply,
    coboundary,
    euler_diffusion,
    graph_laplacian,
    laplacian_from_coboundary,
    loop_to_dense,
    loop_write_laplacian_coo,
    read_laplacian_coo,
)


def path2(d=1):
    g = sl.from_edge_list(2, [(0, 1)], np.zeros((2, 2)))
    return g, sl.trivial_sheaf(g, d)


def sign_sheaf():
    # single edge carrying the 1x1 transport [-1]
    g = sl.from_edge_list(2, [(0, 1)], np.zeros((2, 2)))
    s = sl.trivial_sheaf(g, 1)
    s.transports = -s.transports
    return g, s


def random_instance(seed, max_n=20, max_d=3, kind=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    g = random_graph(rng, n=n, p_feat=max_d + 1, edge_prob=0.4)
    if kind is None:
        kind = ("connection", "trivial", "rand-edge", "rand-node")[seed % 4]
    return g, build_sheaf_by_kind(g, kind, d, seed=seed)


class TestCoboundary:
    def test_trivial_path(self):
        g, s = path2()
        cob = coboundary(s, g)
        assert_allclose(cob.apply(np.array([1.0, 2.0])), [1.0])

    def test_constant_harmonic(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, n=8, edge_prob=0.5)
        s = sl.trivial_sheaf(g, 1)
        cob = coboundary(s, g)
        assert_allclose(cob.apply(np.ones(8)), 0.0, atol=1e-15)

    def test_negated_transport(self):
        g, s = sign_sheaf()
        cob = coboundary(s, g)
        assert_allclose(cob.apply(np.array([1.0, 1.0])), [2.0])

    def test_two_blocks_per_row(self):
        g, s = random_instance(3)
        dense = coboundary(s, g).to_dense()
        d = s.d
        for e in range(s.num_edges):
            rows = dense[e * d:(e + 1) * d]
            nonzero_blocks = {
                v for v in range(g.n) if np.any(rows[:, v * d:(v + 1) * d] != 0)
            }
            assert len(nonzero_blocks) == 2

    def test_mismatch_rejected(self):
        g, s = path2()
        other = sl.from_edge_list(3, [(0, 1)], np.zeros((3, 2)))
        with pytest.raises(ValueError, match="match"):
            coboundary(s, other)


class TestSheafLaplacian:
    def test_trivial_path(self):
        g, s = path2()
        assert_array_equal(
            sl.sheaf_laplacian(s, g).to_dense(), [[1.0, -1.0], [-1.0, 1.0]]
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_trivial_recovers_graph_laplacian(self, seed):
        g = random_graph(np.random.default_rng(seed), n=int(seed % 28) + 3)
        lap = sl.sheaf_laplacian(sl.trivial_sheaf(g, 1), g)
        assert_allclose(lap.to_dense(), graph_laplacian(g), atol=1e-12)

    def test_negated_transport_dense(self):
        g, s = sign_sheaf()
        delta = coboundary(s, g).to_dense()
        assert_allclose(delta.T @ delta, [[1.0, 1.0], [1.0, 1.0]], atol=1e-15)
        assert_allclose(
            sl.sheaf_laplacian(s, g).to_dense(), [[1.0, 1.0], [1.0, 1.0]], atol=1e-15
        )


class TestLaplacianFromCoboundary:
    def test_path(self):
        g, s = path2()
        lap = laplacian_from_coboundary(coboundary(s, g))
        assert_allclose(lap.to_dense(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_direct_assembly(self, seed):
        g, s = random_instance(seed)
        direct = sl.sheaf_laplacian(s, g).to_dense()
        oracle = laplacian_from_coboundary(coboundary(s, g)).to_dense()
        assert_allclose(direct, oracle, atol=1e-10)

    def test_empty_edges(self):
        g = sl.from_edge_list(3, [], np.zeros((3, 2)))
        s = sl.trivial_sheaf(g, 2)
        lap = laplacian_from_coboundary(coboundary(s, g))
        assert_allclose(lap.to_dense(), np.zeros((6, 6)))

    @pytest.mark.parametrize("seed", range(8))
    def test_orientation_independence(self, seed):
        g, s = random_instance(seed, kind="rand-edge")
        rng = np.random.default_rng(seed)
        flips = rng.choice([-1, 1], size=s.num_edges)
        base = coboundary(s, g).to_dense()
        flipped = coboundary(s, g, orientations=flips).to_dense()
        assert_allclose(base.T @ base, flipped.T @ flipped, atol=1e-12)


class TestNormalise:
    def test_path_degrees_one(self):
        g, s = path2()
        lap = sl.normalise(sl.sheaf_laplacian(s, g))
        assert_allclose(lap.to_dense(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle_spectrum(self):
        g = sl.from_edge_list(3, [(0, 1), (1, 2), (0, 2)], np.zeros((3, 2)))
        lap = sl.normalise(sl.sheaf_laplacian(sl.trivial_sheaf(g, 1), g))
        dense = lap.to_dense()
        assert_allclose(np.diag(dense), 1.0)
        assert_allclose(dense[0, 1], -0.5)
        assert_allclose(sl.spectrum(lap), [0.0, 1.5, 1.5], atol=1e-12)

    def test_isolated_node_rows_zero(self):
        g = sl.from_edge_list(3, [(0, 1)], np.zeros((3, 2)))
        lap = sl.normalise(sl.sheaf_laplacian(sl.trivial_sheaf(g, 2), g))
        dense = lap.to_dense()
        assert_allclose(dense[4:, :], 0.0)
        assert_allclose(dense[:, 4:], 0.0)

    def test_double_normalise_rejected(self):
        g, s = path2()
        lap = sl.normalise(sl.sheaf_laplacian(s, g))
        with pytest.raises(ValueError, match="already"):
            sl.normalise(lap)


class TestApply:
    def test_no_edges_zero(self):
        g = sl.from_edge_list(3, [], np.zeros((3, 2)))
        lap = sl.sheaf_laplacian(sl.trivial_sheaf(g, 2), g)
        assert_allclose(sl.apply(lap, np.ones(6)), 0.0)

    def test_path_vector(self):
        g, s = path2()
        lap = sl.sheaf_laplacian(s, g)
        assert_allclose(sl.apply(lap, np.array([1.0, 0.0])), [1.0, -1.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense(self, seed):
        g, s = random_instance(seed)
        lap = sl.sheaf_laplacian(s, g)
        rng = np.random.default_rng(seed + 1)
        x = rng.standard_normal((lap.dim, 3))
        assert_allclose(sl.apply(lap, x), lap.to_dense() @ x, atol=1e-12)

    def test_shape_mismatch(self):
        g, s = path2()
        lap = sl.sheaf_laplacian(s, g)
        with pytest.raises(ValueError, match="row count"):
            sl.apply(lap, np.ones(5))


class TestDirichletEnergy:
    def test_constant_trivial_zero(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, n=9, edge_prob=0.4)
        lap = sl.sheaf_laplacian(sl.trivial_sheaf(g, 1), g)
        assert sl.dirichlet_energy(lap, np.ones(9)) == pytest.approx(0.0, abs=1e-12)

    def test_path_unit(self):
        g, s = path2()
        lap = sl.sheaf_laplacian(s, g)
        assert sl.dirichlet_energy(lap, np.array([1.0, 0.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_squared_coboundary_and_psd(self, seed):
        g, s = random_instance(seed)
        lap = sl.sheaf_laplacian(s, g)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lap.dim)
        energy = sl.dirichlet_energy(lap, x)
        dx = coboundary(s, g).apply(x)
        assert energy == pytest.approx(float(dx @ dx), abs=1e-10)
        assert energy >= -1e-12

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("normalised", [False, True])
    def test_state_matrix_equals_dense_trace(self, seed, normalised):
        g, s = random_instance(seed)
        lap = sl.sheaf_laplacian(s, g)
        lap = sl.normalise(lap) if normalised else lap
        x = np.random.default_rng(seed).standard_normal((lap.dim, 3))
        expected = np.trace(x.T @ lap.to_dense() @ x)
        assert abs(sl.dirichlet_energy(lap, x) - expected) <= 1e-12 * abs(expected)
        v = x[:, 0]  # a vector's energy is still the one dot product x . L x, bitwise
        assert sl.dirichlet_energy(lap, v) == float(v @ sl.apply(lap, v))

    @pytest.mark.parametrize("shape", [(4,), (6, 2, 1)])
    def test_rejects_other_shapes(self, shape):
        g, s = path2(d=3)
        with pytest.raises(ValueError, match=r"\(nd,\) or \(nd, f\)"):
            sl.dirichlet_energy(sl.sheaf_laplacian(s, g), np.ones(shape))


class TestSpectrum:
    def test_path_normalised(self):
        g, s = path2()
        lap = sl.normalise(sl.sheaf_laplacian(s, g))
        assert_allclose(sl.spectrum(lap), [0.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_normalised_range(self, seed):
        g, s = random_instance(seed)
        lap = sl.normalise(sl.sheaf_laplacian(s, g))
        eigs = sl.spectrum(lap)
        assert eigs.min() >= -1e-9
        assert eigs.max() <= 2.0 + 1e-9

    @staticmethod
    def above_dense_limit():
        n, d = 2501, 2  # nd = 5002 > DENSE_EIG_LIMIT; no edges, so the operator is small
        return sl.BlockLaplacian(
            n=n, d=d, edges=np.empty((0, 2), dtype=np.int64),
            diag=np.zeros((n, d)), off=np.empty((0, d, d)),
        )

    def test_size_guard(self):
        with pytest.raises(GuardError, match="guard"):
            sl.spectrum(self.above_dense_limit())

    def test_to_dense_size_guard_refuses_before_allocating(self):
        lap = self.above_dense_limit()
        tracemalloc.start()
        try:
            with pytest.raises(GuardError, match="guard: nd=5002 exceeds limit 5000"):
                lap.to_dense()  # the dense matrix would take 200 MB
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestEulerDiffusion:
    def test_zero_steps_identity(self):
        g, s = path2()
        lap = sl.normalise(sl.sheaf_laplacian(s, g))
        x0 = np.array([3.0, -1.0])
        assert_array_equal(euler_diffusion(lap, x0, 0), x0)

    def test_path_swap(self):
        g, s = path2()
        lap = sl.normalise(sl.sheaf_laplacian(s, g))
        x0 = np.array([1.0, 0.0])
        assert_allclose(x0 - sl.apply(lap, x0), [0.0, 1.0])

    def test_constant_fixed_point(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, n=7, edge_prob=0.6)
        lap = sl.normalise(sl.sheaf_laplacian(sl.trivial_sheaf(g, 1), g))
        const = np.sqrt(np.bincount(g.edges.ravel(), minlength=g.n).astype(float))
        # D^{1/2} 1 is harmonic for the normalised trivial Laplacian
        x = const
        for _ in range(5):
            x = x - sl.apply(lap, x)
        assert_allclose(x, const, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_energy_monotone(self, seed):
        g, s = random_instance(seed)
        lap = sl.normalise(sl.sheaf_laplacian(s, g))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lap.dim)
        prev = sl.dirichlet_energy(lap, x)
        for _ in range(100):
            x = x - sl.apply(lap, x)
            cur = sl.dirichlet_energy(lap, x)
            assert cur <= prev + 1e-10
            prev = cur


def test_gauge_isospectral_block_conjugation():
    rng = np.random.default_rng(9)
    g, s = random_instance(2, kind="connection")
    lap = sl.sheaf_laplacian(s, g)
    d = s.d
    blocks = [sl.haar_orthogonal(rng.standard_normal((d, d))) for _ in range(g.n)]
    gmat = np.zeros((lap.dim, lap.dim))
    for i, q in enumerate(blocks):
        gmat[i * d:(i + 1) * d, i * d:(i + 1) * d] = q
    conj = gmat.T @ lap.to_dense() @ gmat
    assert_allclose(
        np.linalg.eigvalsh(conj), sl.spectrum(lap), atol=1e-8
    )


def test_laplacian_coo_round_trip(tmp_path):
    g, s = random_instance(4)
    lap = sl.normalise(sl.sheaf_laplacian(s, g))
    path = tmp_path / "lap.txt"
    sl.write_laplacian_coo(lap, path)
    dense, d, normalised = read_laplacian_coo(path)
    assert d == s.d and normalised
    assert np.array_equal(dense, lap.to_dense())
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == f"nd={lap.dim} d={lap.d} normalised=true"
    coords = [tuple(map(int, ln.split()[:2])) for ln in lines[1:]]
    assert coords == sorted(coords)


def oracle_gate_laplacians():
    """Acceptance-suite random sheaves (d in 1..3, every kind) and edge cases."""
    kinds = ("connection", "trivial", "rand-edge", "rand-node")
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 21))
        d = int(rng.integers(1, 4))
        g = random_graph(rng, n=n, p_feat=4, edge_prob=0.4)
        yield sl.sheaf_laplacian(build_sheaf_by_kind(g, kinds[seed % 4], d, seed=seed), g)
    isolated = sl.from_edge_list(6, [(0, 1), (1, 2), (0, 4)], np.zeros((6, 2)))  # 3, 5 isolated
    no_edges = sl.from_edge_list(4, [], np.zeros((4, 2)))
    single = sl.from_edge_list(1, [], np.zeros((1, 2)))
    for g in (isolated, no_edges, single):
        for d in (1, 2, 3):
            yield sl.sheaf_laplacian(sl.trivial_sheaf(g, d), g)
    yield sl.sheaf_laplacian(build_sheaf_by_kind(isolated, "rand-edge", 2, seed=1), isolated)
    # d = 2 trivial sheaf: exact zeros inside every block
    g = random_graph(np.random.default_rng(7), n=15, edge_prob=0.3)
    yield sl.sheaf_laplacian(sl.trivial_sheaf(g, 2), g)


@pytest.mark.parametrize("normalised", [False, True])
def test_to_dense_matches_loop_oracle(normalised):
    for lap in oracle_gate_laplacians():
        lap = sl.normalise(lap) if normalised else lap
        assert np.array_equal(lap.to_dense(), loop_to_dense(lap))


def test_to_dense_is_exactly_symmetric():
    # each off-diagonal value is written at both mirrored positions, so
    # `spectrum` hands to_dense() to eigvalsh with no symmetrising pass
    isolated = sl.from_edge_list(6, [(0, 1), (1, 2), (0, 4)], np.zeros((6, 2)))
    random = random_graph(np.random.default_rng(6), n=30, edge_prob=0.2)
    gcn = [gcn_propagation_matrix(g) for g in (random, isolated)]
    for lap in [*oracle_gate_laplacians(), *gcn]:
        for op in (lap,) if lap.normalised else (lap, sl.normalise(lap)):
            dense = op.to_dense()
            assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("normalised", [False, True])
def test_write_laplacian_coo_matches_loop_oracle(tmp_path, normalised):
    new, old = tmp_path / "new.coo", tmp_path / "old.coo"
    for lap in oracle_gate_laplacians():
        lap = sl.normalise(lap) if normalised else lap
        sl.write_laplacian_coo(lap, new)
        loop_write_laplacian_coo(lap, old)
        assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("normalised", [False, True])
def test_write_laplacian_coo_chunked_matches_loop_oracle(tmp_path, monkeypatch, normalised):
    monkeypatch.setattr(sl.data, "_CSV_CHUNK", 7)  # two 3-value lines per chunk, several chunks
    new, old = tmp_path / "new.coo", tmp_path / "old.coo"
    for lap in oracle_gate_laplacians():
        lap = sl.normalise(lap) if normalised else lap
        sl.write_laplacian_coo(lap, new)
        loop_write_laplacian_coo(lap, old)
        assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("normalised", [False, True])
def test_write_laplacian_coo_edge_values_match_loop_oracle(
    tmp_path, monkeypatch, chunk, normalised
):
    values = REPR_EDGE_VALUES  # its -0.0 counts as a zero: no line
    if chunk is not None:
        monkeypatch.setattr(sl.data, "_CSV_CHUNK", chunk)
    diag = np.array(values[:4] + [0.0, 2.0]).reshape(3, 2)
    off = np.array(values[::-1]).reshape(2, 2, 2)
    lap = sl.BlockLaplacian(3, 2, np.array([[0, 1], [1, 2]]), diag, off, normalised=normalised)
    new, old = tmp_path / "new.coo", tmp_path / "old.coo"
    sl.write_laplacian_coo(lap, new)
    loop_write_laplacian_coo(lap, old)
    assert new.read_bytes() == old.read_bytes()
    assert all(repr(v).encode() in new.read_bytes() for v in values[1:])


def apply_bound(op, x):
    """(deg_v + 1) d eps (|L| |x|) entrywise: the laplacian module's tolerance for `apply`."""
    abs_op = sl.BlockLaplacian(op.n, op.d, op.edges, np.abs(op.diag), np.abs(op.off))
    terms = np.repeat(np.bincount(op.edges.ravel(), minlength=op.n) + 1, op.d)
    terms = terms if x.ndim == 1 else terms[:, None]
    return terms * op.d * np.finfo(np.float64).eps * addat_apply(abs_op, np.abs(x))


def assert_matches_addat(op, x):
    got, want = sl.apply(op, x), addat_apply(op, x)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= apply_bound(op, x))


@pytest.mark.parametrize("normalised", [False, True])
def test_apply_matches_addat_oracle(normalised):
    rng = np.random.default_rng(5)
    for lap in oracle_gate_laplacians():
        lap = sl.normalise(lap) if normalised else lap
        for shape in ((lap.dim,), (lap.dim, 1), (lap.dim, 3), (lap.dim, 8)):
            assert_matches_addat(lap, rng.standard_normal(shape))


def test_apply_gcn_operator_matches_addat_oracle():
    rng = np.random.default_rng(6)
    isolated = sl.from_edge_list(6, [(0, 1), (1, 2), (0, 4)], np.zeros((6, 2)))  # 3, 5 isolated
    for g in (random_graph(rng, n=30, edge_prob=0.2), isolated):
        prop = gcn_propagation_matrix(g)
        for f in (2, 4, 32):
            assert_matches_addat(prop, rng.standard_normal((prop.dim, f)))


def star_laplacians():
    """Hub graphs: a pure star, and a star whose 1,200 leaves also form a sparse random graph."""
    rng = np.random.default_rng(8)
    n = 1201
    star = sl.from_edge_list(n, [(0, v) for v in range(1, n)], np.zeros((n, 2)))
    raw = [(0, v) for v in range(1, n)]
    raw += [tuple(e) for e in rng.integers(1, n, size=(3 * n, 2)) if e[0] != e[1]]
    hub = sl.from_edge_list(n, raw, np.zeros((n, 2)))
    for g in (star, hub):
        yield gcn_propagation_matrix(g)
        for d in (1, 2, 3):
            yield sl.sheaf_laplacian(build_sheaf_by_kind(g, "rand-edge", d, seed=d), g)


def long_hub_laplacians():
    """A star whose hub row holds 2 _CHUNK + 101 terms: its sheaf Laplacians and GCN operator."""
    n = 2 * sl.laplacian._CHUNK + 101
    g = sl.from_edge_list(n, [(0, v) for v in range(1, n)], np.zeros((n, 2)))
    for d in (1, 2, 3):
        yield sl.normalise(sl.sheaf_laplacian(build_sheaf_by_kind(g, "rand-edge", d, seed=d), g))
    yield gcn_propagation_matrix(g)


CHUNKS = pytest.mark.parametrize(
    "chunk", [1, 4, None], ids=["one-node-per-product", "few-nodes-per-product", "default"]
)


@CHUNKS
def test_apply_row_plan_matches_addat_oracle(monkeypatch, chunk):
    # _CHUNK = 1 makes every row a product of its own; 4 packs the shortest rows a
    # few nodes per product and leaves each row of more than 4 terms on its own
    if chunk is not None:
        monkeypatch.setattr(sl.laplacian, "_CHUNK", chunk)
    rng = np.random.default_rng(9)
    stars = star_laplacians() if chunk != 1 else ()  # 1 would be slow
    for lap in (*oracle_gate_laplacians(), *stars):
        for op in (lap, sl.normalise(lap)):
            for shape in ((op.dim,), (op.dim, 1), (op.dim, 3), (op.dim, 8)):
                assert_matches_addat(op, rng.standard_normal(shape))


@pytest.mark.parametrize("f", [1, 8, 32])
def test_apply_hub_row_longer_than_a_chunk_matches_addat_oracle(f):
    rng = np.random.default_rng(11)
    for op in long_hub_laplacians():
        # the hub's row, all n = deg + 1 terms, is one chunk, and the only one over _CHUNK
        chunks = [(src.size, nodes.tolist()) for _, src, nodes in sl.laplacian._row_plan(op)]
        assert [c for c in chunks if c[0] > sl.laplacian._CHUNK] == [(op.n, [0])]
        assert_matches_addat(op, rng.standard_normal((op.dim, f)))


def integer_valued(lap, rng):
    """`lap`'s pattern with integer blocks in [-4, 4]: every product and sum is exact."""
    diag = rng.integers(-4, 5, lap.diag.shape).astype(np.float64)
    off = rng.integers(-4, 5, lap.off.shape).astype(np.float64)
    return sl.BlockLaplacian(lap.n, lap.d, lap.edges, diag, off)


@CHUNKS
def test_apply_is_exact_on_integer_values(monkeypatch, chunk):
    # exact arithmetic leaves no rounding to differ in: a wrong source, block or
    # transpose shows bitwise, whatever order either side sums in
    if chunk is not None:
        monkeypatch.setattr(sl.laplacian, "_CHUNK", chunk)
    rng = np.random.default_rng(12)
    stars = star_laplacians() if chunk != 1 else ()
    hubs = long_hub_laplacians() if chunk is None else ()
    for lap in (*oracle_gate_laplacians(), *stars, *hubs):
        op = integer_valued(lap, rng)
        for shape in ((op.dim,), (op.dim, 1), (op.dim, 3), (op.dim, 8)):
            x = rng.integers(-8, 9, shape).astype(np.float64)
            assert np.array_equal(sl.apply(op, x), addat_apply(op, x))


def contributions(lap):
    """Each node's off-diagonal (block, source) terms in the oracle's order, pass 1 first."""
    terms = [[] for _ in range(lap.n)]
    for block, (u, v) in zip(lap.off, lap.edges):
        terms[v].append((block, u))
    for block, (u, v) in zip(lap.off, lap.edges):
        terms[u].append((block.T, v))
    return terms


@CHUNKS
def test_row_plan_structure(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(sl.laplacian, "_CHUNK", chunk)
    hubs = long_hub_laplacians() if chunk is None else ()
    for lap in (*oracle_gate_laplacians(), *star_laplacians(), *hubs):
        check_row_plan(lap)


def check_row_plan(lap):
    d, cap = lap.d, sl.laplacian._CHUNK
    rows, srcs = [None] * lap.n, [None] * lap.n
    for block_rows, src, nodes in sl.laplacian._row_plan(lap):
        c, _, width = block_rows.shape
        assert block_rows.shape[1] == d and width % d == 0 and src.size == c * (width // d)
        assert src.size <= max(cap, width // d) and nodes.size == c  # a long row stands alone
        for v, row, terms in zip(nodes, block_rows, src.reshape(c, -1)):
            assert rows[v] is None  # each node is written by exactly one chunk
            rows[v], srcs[v] = row, terms.tolist()
    terms = contributions(lap)
    for v in range(lap.n):
        # the whole row, in order: [D_v | B_vu_1 | ... | B_vu_k] and [v, u_1, ..., u_k]
        want = [np.diag(lap.diag[v])] + [block for block, _ in terms[v]]
        assert np.array_equal(rows[v], np.concatenate(want, axis=1))
        assert srcs[v] == [v] + [u for _, u in terms[v]]


def test_row_plan_is_built_on_first_apply_and_cached(monkeypatch):
    g = random_graph(np.random.default_rng(10), n=30, edge_prob=0.2)
    lap = sl.sheaf_laplacian(sl.trivial_sheaf(g, 2), g)
    built = []
    original = sl.laplacian._row_plan
    monkeypatch.setattr(sl.laplacian, "_row_plan", lambda op: built.append(op) or original(op))
    assert lap._plan is None
    x = np.ones(lap.dim)
    sl.apply(lap, x)
    sl.apply(lap, x[:, None])
    assert built == [lap] and lap._plan is not None


def _apply_peak(fn, lap, x):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(lap, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_apply_memory_peak_within_oracle():
    # n = 4000 SBM as in the benchmark: d = 2, f = 8 connection Laplacian, GCN at f = 32
    g = sl.synth_sbm(4000, 2, 14.4 / 4000, 3.6 / 4000, 4, 2.0, seed=1).graph
    lap = sl.normalise(sl.sheaf_laplacian(sl.build_connection_sheaf(g, 2), g))
    rng = np.random.default_rng(0)
    for op, f in ((lap, 8), (gcn_propagation_matrix(g), 32)):
        x = rng.standard_normal((op.dim, f))
        assert _apply_peak(sl.apply, op, x) <= 1.05 * _apply_peak(addat_apply, op, x)


def test_apply_memory_peak_within_output_and_chunk_buffers():
    # the output, the gather buffer of max(_CHUNK, deg + 1) (d, f) terms (a hub's whole
    # row, never more than x) and the product buffer of at most _CHUNK nodes; the
    # slack covers numpy's small temporaries and views
    g = sl.synth_sbm(4000, 2, 14.4 / 4000, 3.6 / 4000, 4, 2.0, seed=1).graph
    lap = sl.normalise(sl.sheaf_laplacian(sl.build_connection_sheaf(g, 2), g))
    rng = np.random.default_rng(0)
    cases = [(lap, 8), (lap, 1), (gcn_propagation_matrix(g), 32)]
    for op, f in cases + [(hub, 8) for hub in long_hub_laplacians()]:
        x = rng.standard_normal((op.dim, f))
        sl.apply(op, x)  # the plan is built once, outside the measured call
        longest = np.bincount(op.edges.ravel(), minlength=op.n).max() + 1  # terms in a row
        buffers = (max(sl.laplacian._CHUNK, longest) + sl.laplacian._CHUNK) * op.d * f * 8
        assert _apply_peak(sl.apply, op, x) <= op.dim * f * 8 + buffers + 16_384


def test_write_laplacian_coo_memory_peak(tmp_path):
    # the benchmark's n = 4000, d = 2 connection Laplacian; the Python objects
    # of one chunk are small next to the (rows, cols, vals) entry arrays
    g = sl.synth_sbm(4000, 2, 14.4 / 4000, 3.6 / 4000, 4, 2.0, seed=1).graph
    lap = sl.normalise(sl.sheaf_laplacian(sl.build_connection_sheaf(g, 2), g))
    entry_bytes = 3 * 8 * (lap.n + 2 * lap.num_edges) * lap.d ** 2
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sl.write_laplacian_coo(lap, tmp_path / "lap.coo")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * entry_bytes
