"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Stated runtime bounds are asserted alongside the
numerical tolerances.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.testing import assert_allclose

import sheaflab as sl
from sheaflab.cli import main as cli_main
from sheaflab.data import generate_splits, save_dataset, synth_sbm
from sheaflab.model import (
    BaselineModel,
    DiffusionModel,
    TrainConfig,
    build_sheaf_by_kind,
    cross_entropy_grad,
    gcn_propagation_matrix,
    init_params,
    train,
)
from sheaflab.sheaf import transports_from_bases
from conftest import random_graph, random_orthonormal_basis
from oracles import coboundary, euler_diffusion, graph_laplacian, laplacian_from_coboundary
from test_model import layer_states, max_rel_err, numeric_model_grads


@contextmanager
def criterion(num, name, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {num:02d} FAIL: {name}")
        raise
    elapsed = time.perf_counter() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {num} exceeded its runtime budget: "
            f"{elapsed:.2f}s >= {budget_seconds}s"
        )
    print(f"[acceptance] criterion {num:02d} PASS: {name} ({elapsed:.2f}s)")


def test_criterion_01_trivial_sheaf_recovery():
    with criterion(1, "trivial-sheaf recovery equals graph Laplacian", 1.0):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            g = random_graph(rng, n=int(rng.integers(2, 51)), edge_prob=0.25)
            lap = sl.sheaf_laplacian(sl.trivial_sheaf(g, 1), g)
            assert np.max(np.abs(lap.to_dense() - graph_laplacian(g))) <= 1e-12


def test_criterion_02_coboundary_oracle_and_orientation():
    with criterion(2, "delta^T delta oracle and orientation independence", 5.0):
        kinds = ("connection", "trivial", "rand-edge", "rand-node")
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(4, 21))
            d = int(rng.integers(1, 4))
            g = random_graph(rng, n=n, p_feat=4, edge_prob=0.4)
            s = build_sheaf_by_kind(g, kinds[seed % 4], d, seed=seed)
            direct = sl.sheaf_laplacian(s, g).to_dense()
            cob = coboundary(s, g)
            oracle = laplacian_from_coboundary(cob).to_dense()
            delta = cob.to_dense()
            assert np.max(np.abs(direct - oracle)) <= 1e-10
            assert np.max(np.abs(direct - delta.T @ delta)) <= 1e-10
            flips = rng.choice([-1, 1], size=s.num_edges)
            flipped = coboundary(s, g, orientations=flips).to_dense()
            assert np.max(np.abs(delta.T @ delta - flipped.T @ flipped)) <= 1e-12


def test_criterion_03_spectral_range_all_kinds():
    with criterion(3, "spectral range and PSD for all sheaf kinds", 10.0):
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            g = random_graph(rng, n=int(rng.integers(5, 26)), p_feat=4, edge_prob=0.35)
            d = int(rng.integers(1, 4))
            for kind in ("connection", "trivial", "rand-edge", "rand-node"):
                s = build_sheaf_by_kind(g, kind, d, seed=seed)
                lap = sl.sheaf_laplacian(s, g)
                assert sl.spectrum(lap).min() >= -1e-9
                eigs = sl.spectrum(sl.normalise(lap))
                assert eigs.min() >= -1e-9
                assert eigs.max() <= 2.0 + 1e-9


def test_criterion_04_procrustes_optimality():
    with criterion(4, "Procrustes alignment beats Haar candidates", 5.0):
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            p = int(rng.integers(3, 8))
            d = int(rng.integers(1, min(p, 4)))
            bu = random_orthonormal_basis(rng, p, d)
            bv = random_orthonormal_basis(rng, p, d)
            o = sl.align(bu, bv)
            err = np.linalg.norm(bu @ o - bv)
            for _ in range(100):
                q = sl.haar_orthogonal(rng.standard_normal((d, d)))
                assert err <= np.linalg.norm(bu @ q - bv) + 1e-9


def test_criterion_05_transpose_consistency():
    with criterion(5, "align transpose consistency on well-conditioned pairs"):
        checked = 0
        for seed in range(40):
            rng = np.random.default_rng(4000 + seed)
            bu = random_orthonormal_basis(rng, 6, 3)
            bv = random_orthonormal_basis(rng, 6, 3)
            if np.linalg.cond(bu.T @ bv) >= 1e6:
                continue
            assert_allclose(sl.align(bv, bu), sl.align(bu, bv).T, atol=1e-8)
            checked += 1
        assert checked >= 20


def test_criterion_06_gauge_isospectrality():
    with criterion(6, "per-node gauge changes leave the spectrum invariant"):
        for seed in range(10):
            rng = np.random.default_rng(5000 + seed)
            g = random_graph(rng, n=int(rng.integers(6, 16)), p_feat=5, edge_prob=0.4)
            d = int(rng.integers(1, 4))
            s = sl.build_connection_sheaf(g, d)
            gauged = np.stack(
                [b @ sl.haar_orthogonal(rng.standard_normal((d, d))) for b in s.bases]
            )
            transports, _ = transports_from_bases(g.edges, gauged)
            s_gauged = sl.Sheaf(
                d=d, n=g.n, kind="connection", edges=g.edges.copy(), transports=transports
            )
            sp = sl.spectrum(sl.sheaf_laplacian(s, g))
            sp_gauged = sl.spectrum(sl.sheaf_laplacian(s_gauged, g))
            assert np.max(np.abs(sp - sp_gauged)) <= 1e-8


def test_criterion_07_energy_monotonicity():
    with criterion(7, "Euler diffusion never increases Dirichlet energy"):
        kinds = ("connection", "trivial", "rand-edge", "rand-node")
        for seed in range(8):
            rng = np.random.default_rng(6000 + seed)
            g = random_graph(rng, n=int(rng.integers(5, 20)), p_feat=4, edge_prob=0.4)
            d = int(rng.integers(1, 4))
            s = build_sheaf_by_kind(g, kinds[seed % 4], d, seed=seed)
            lap = sl.normalise(sl.sheaf_laplacian(s, g))
            x = rng.standard_normal(lap.dim)
            prev = sl.dirichlet_energy(lap, x)
            for _ in range(100):
                x = x - sl.apply(lap, x)
                cur = sl.dirichlet_energy(lap, x)
                assert cur <= prev + 1e-10
                prev = cur


def test_criterion_08_gradient_gate():
    with criterion(8, "analytic gradients match central finite differences", 30.0):
        for seed in range(20):
            rng = np.random.default_rng(7000 + seed)
            n, p, d, f = 6, 3, 2, 2
            feats = rng.standard_normal((n, p))
            raw = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            g = sl.from_edge_list(n, raw, feats, labels)
            sheaf = sl.build_connection_sheaf(g, d)
            lap = sl.normalise(sl.sheaf_laplacian(sheaf, g))
            prop = gcn_propagation_matrix(g)
            mask = np.arange(n)
            for act in ("relu", "tanh", "identity"):
                cfg = TrainConfig(d=d, f=f, layers=2, activation=act)
                w_rng = np.random.default_rng(seed)
                arrays = init_params(cfg, p, 2, w_rng)
                ws = [w_rng.standard_normal((p, 4)), w_rng.standard_normal((4, 2))]
                models = {
                    "diffusion": DiffusionModel(lap, arrays, cfg.layers, act),
                    "gcn": BaselineModel(prop, ws, act),
                    "mlp": BaselineModel(None, ws, act),
                }
                for name, model in models.items():
                    logits, cache = model.forward(feats)
                    grads = model.backward(
                        cache, cross_entropy_grad(logits, g.labels, mask)[1]
                    )
                    numeric = numeric_model_grads(model, feats, g.labels, mask, h=1e-5)
                    rel = max_rel_err(grads, numeric)
                    assert rel < 1e-5, f"seed={seed} act={act} model={name} rel={rel}"


def test_criterion_09_reduction_to_euler():
    with criterion(9, "identity-weight layers reproduce Euler diffusion"):
        for seed in range(10):
            rng = np.random.default_rng(8000 + seed)
            g = random_graph(rng, n=int(rng.integers(5, 15)), p_feat=4, edge_prob=0.4)
            d = int(rng.integers(1, 4))
            s = build_sheaf_by_kind(g, ("connection", "rand-edge")[seed % 2], d, seed=seed)
            lap = sl.normalise(sl.sheaf_laplacian(s, g))
            x0 = rng.standard_normal((lap.dim, 3))
            steps = 4
            x = layer_states(lap, x0, [(np.eye(d), np.eye(3))] * steps, "identity")[-1]
            assert np.max(np.abs(x - euler_diffusion(lap, x0, steps))) <= 1e-12


def test_criterion_10_end_to_end_learning():
    with criterion(10, "SBM learning sanity: homophilic bar and random-sheaf ordering", 300.0):
        homo = []
        for k in range(5):
            ds = synth_sbm(200, 2, 0.1, 0.01, 2, 2.0, seed=500 + k)
            _, hist = train(ds, "connection", TrainConfig(seed=k), 0)
            homo.append(hist["test_acc_at_best"])
        homo_mean = float(np.mean(homo))
        print(f"  homophilic connection-sheaf mean test acc over 5 seeds: {homo_mean:.4f}")
        assert homo_mean >= 0.90

        het = {"connection": [], "rand-edge": [], "rand-node": []}
        for k in range(10):
            ds = synth_sbm(200, 2, 0.01, 0.1, 2, 2.0, seed=100 + k)
            for kind in het:
                _, hist = train(ds, kind, TrainConfig(seed=k), 0)
                het[kind].append(hist["test_acc_at_best"])
        means = {kind: float(np.mean(v)) for kind, v in het.items()}
        print(f"  heterophilic means over 10 seeds: {means}")
        assert means["connection"] >= means["rand-edge"]
        assert means["connection"] >= means["rand-node"]


def test_criterion_11_split_protocol_shape():
    with criterion(11, "ten splits with exact per-class 48/32/20 floor counts"):
        rng = np.random.default_rng(9000)
        labels = np.concatenate(
            [np.full(n_c, c) for c, n_c in enumerate((100, 37, 10, 23))]
        )
        labels = labels[rng.permutation(labels.size)]
        splits = generate_splits(labels, seed=13)
        assert len(splits) == 10
        for s in splits:
            combined = np.concatenate([s.train, s.val, s.test])
            assert np.array_equal(np.sort(combined), np.arange(labels.size))
            for c, n_c in enumerate((100, 37, 10, 23)):
                members = np.flatnonzero(labels == c)
                tr = np.intersect1d(s.train, members).size
                va = np.intersect1d(s.val, members).size
                te = np.intersect1d(s.test, members).size
                assert tr == int(np.floor(0.48 * n_c))
                assert va == int(np.floor(0.32 * n_c))
                assert te == n_c - tr - va


def _bench_record(dataset_dir, epochs, capsys_out):
    cfg_path = dataset_dir + "-cfg.json"
    with open(cfg_path, "w") as fh:
        json.dump({"epochs": epochs, "d": 2}, fh)
    code = cli_main(
        ["bench", "--dataset", dataset_dir, "--config", cfg_path, "--kind", "connection"]
    )
    assert code == 0
    lines = capsys_out().out.strip().splitlines()
    return json.loads(lines[-1])


def test_criterion_12_bench_trends_and_stated_gaps(tmp_path, capsys):
    with criterion(12, "bench trends; published-table reproduction explicitly out of reach"):
        print(
            "  note: published accuracy tables and the learned-sheaf runtime "
            "comparison are not reproducible here (no table bodies, learned "
            "variants out of scope); substituting learning sanity (criterion 10) "
            "and the bench trend checks below."
        )
        dirs = {}
        for n in (300, 1200):
            ds = synth_sbm(n, 2, 16.0 / n, 2.0 / n, 3, 2.0, seed=21)
            target = str(tmp_path / f"sbm{n}")
            save_dataset(ds, target)
            dirs[n] = target

        # sheaf build cost must not depend on the epoch count
        builds_small = [
            _bench_record(dirs[300], epochs, lambda: capsys.readouterr())[
                "sheaf_build_seconds"
            ]
            for epochs in (20, 60, 20, 60)
        ]
        short = min(builds_small[0], builds_small[2])
        long = min(builds_small[1], builds_small[3])
        assert long < 3.0 * short + 0.05
        assert short < 3.0 * long + 0.05

        # sheaf build cost grows with n (monotone trend only)
        t_small = min(
            _bench_record(dirs[300], 20, lambda: capsys.readouterr())[
                "sheaf_build_seconds"
            ]
            for _ in range(3)
        )
        t_large = min(
            _bench_record(dirs[1200], 20, lambda: capsys.readouterr())[
                "sheaf_build_seconds"
            ]
            for _ in range(3)
        )
        print(f"  sheaf build seconds: n=300 -> {t_small:.4f}, n=1200 -> {t_large:.4f}")
        assert t_large > t_small
