import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import sheaflab as sl
from sheaflab.errors import GuardError
from sheaflab.model import (
    BaselineModel,
    DiffusionModel,
    ForwardCache,
    TrainConfig,
    accuracy,
    backward,
    build_operator,
    build_sheaf_by_kind,
    cross_entropy,
    cross_entropy_grad,
    forward,
    gcn_propagation_matrix,
    init_params,
    train,
)
from conftest import random_graph
from oracles import (
    _ACTIVATION_GRADS,
    _ACTIVATIONS,
    encode,
    euler_diffusion,
    graph_laplacian,
    sheaf_layer,
    two_pass_cross_entropy,
)


def small_instance(seed, n=6, p=3, d=2, f=2, layers=2, activation="relu", kind="connection"):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, p))
    raw = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    labels = rng.integers(0, 2, size=n)
    labels[:2] = [0, 1]  # both classes present
    g = sl.from_edge_list(n, raw, feats, labels)
    sheaf = build_sheaf_by_kind(g, kind, d, seed=seed)
    lap = sl.normalise(sl.sheaf_laplacian(sheaf, g))
    cfg = TrainConfig(d=d, f=f, layers=layers, activation=activation, seed=seed)
    arrays = init_params(cfg, p, 2, np.random.default_rng(seed + 1))
    return g, lap, DiffusionModel(lap, arrays, layers, activation), feats, g.labels


def layer_states(lap, x0, pairs, activation):
    """`forward`'s T + 1 states from the (nd, f) state x0, one (W1, W2) pair per layer.

    The model gets the identity encoder and the features x0.reshape(n, d f),
    so its first state is x0.
    """
    n, d = lap.n, lap.d
    df = d * x0.shape[1]
    arrays = [np.eye(df)] + [w for pair in pairs for w in pair] + [np.zeros((1, df))]
    _, cache = forward(DiffusionModel(lap, arrays, len(pairs), activation), x0.reshape(n, df))
    return cache.xs


def numeric_model_grads(model, feats, labels, mask, h=1e-5):
    """Central differences of the masked loss in every entry of `model.arrays`."""

    def loss():
        logits, _ = model.forward(feats)
        return cross_entropy(logits, labels, mask)

    out = []
    for arr in model.arrays:
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            up = loss()
            arr[idx] = orig - h
            down = loss()
            arr[idx] = orig
            grad[idx] = (up - down) / (2 * h)
        out.append(grad)
    return out


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, b in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        worst = max(worst, float(np.max(np.abs(a - b) / denom)))
    return worst


def first_state(feats, w_in, d):
    """`forward`'s cached first state x_0: the encoder's lift of `feats` by `w_in`."""
    n, df = feats.shape[0], w_in.shape[0]
    g = sl.from_edge_list(n, [], feats)
    lap = sl.sheaf_laplacian(sl.trivial_sheaf(g, d), g)
    arrays = [w_in, np.eye(d), np.eye(df // d), np.zeros((1, df))]
    return forward(DiffusionModel(lap, arrays, 1, "relu"), feats)[1].xs[0]


class TestEncode:
    def test_zero_encoder(self):
        feats = np.random.default_rng(0).standard_normal((4, 3))
        assert_array_equal(first_state(feats, np.zeros((6, 3)), 2), np.zeros((8, 3)))

    def test_scalar(self):
        assert_array_equal(first_state(np.array([[3.0]]), np.array([[2.0]]), 1), [[6.0]])

    def test_linear_composition_oracle(self):
        # decoder applied straight after the encoder is the dense product
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((5, 4))
        w_in = rng.standard_normal((6, 4))   # d=2, f=3
        w_out = rng.standard_normal((2, 6))
        z = first_state(feats, w_in, 2).reshape(5, 6)
        assert_allclose(z @ w_out.T, feats @ (w_out @ w_in).T, atol=1e-12)

    @pytest.mark.parametrize("d,f", [(1, 1), (1, 4), (2, 3), (3, 2)])
    def test_node_blocks_equal_the_per_node_oracle(self, d, f):
        # integer values make every product exact: a block of f rows and d columns,
        # or one filled column-major, cannot pass
        rng = np.random.default_rng(10 * d + f)
        feats = rng.integers(-3, 4, (7, 4)) * 1.0
        w_in = rng.integers(-3, 4, (d * f, 4)) * 1.0
        assert_array_equal(first_state(feats, w_in, d), encode(feats, w_in, d))


class TestSheafLayer:
    def setup_method(self):
        self.g, self.lap, self.model, self.feats, self.labels = small_instance(0)
        self.x = encode(self.feats, self.model.arrays[0], 2)

    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    def test_zero_w1_identity_layer(self, act):
        out = layer_states(self.lap, self.x, [(np.zeros((2, 2)), np.eye(2))], act)[1]
        assert_array_equal(out, self.x)

    def test_identity_weights_euler_step(self):
        out = layer_states(self.lap, self.x, [(np.eye(2), np.eye(2))], "identity")[1]
        assert_allclose(out, euler_diffusion(self.lap, self.x, 1), atol=1e-14)

    def test_dense_kronecker_oracle(self):
        rng = np.random.default_rng(2)
        w1 = rng.standard_normal((2, 2))
        w2 = rng.standard_normal((2, 2))
        got = layer_states(self.lap, self.x, [(w1, w2)], "tanh")[1]
        kron = np.kron(np.eye(self.g.n), w1)
        expected = self.x - np.tanh(self.lap.to_dense() @ kron @ self.x @ w2)
        assert_allclose(got, expected, atol=1e-12)


class TestForward:
    def test_zero_params_uniform_logits(self):
        g, lap, model, feats, labels = small_instance(3)
        for arr in model.arrays:
            arr[...] = 0.0
        logits, _ = forward(model, feats)
        assert_array_equal(logits, np.zeros_like(logits))

    def test_single_linear_layer_oracle(self):
        g, lap, model, feats, labels = small_instance(4, layers=1, activation="identity")
        model.arrays[1][...] = np.eye(2)
        model.arrays[2][...] = np.eye(2)
        logits, _ = forward(model, feats)
        x0 = encode(feats, model.arrays[0], 2)
        x1 = (np.eye(lap.dim) - lap.to_dense()) @ x0
        assert_allclose(logits, x1.reshape(g.n, -1) @ model.arrays[-1].T, atol=1e-12)

    @pytest.mark.parametrize("tied", [False, True])
    def test_each_step_uses_its_pair_of_arrays(self, tied):
        g, lap, _, feats, labels = small_instance(15)
        cfg = TrainConfig(d=2, f=2, layers=3, tied_weights=tied, activation="tanh")
        arrays = init_params(cfg, 3, 2, np.random.default_rng(15))
        logits, _ = forward(DiffusionModel(lap, arrays, cfg.layers, cfg.activation), feats)
        x = encode(feats, arrays[0], 2)
        for t in range(cfg.layers):
            k = 1 if tied else 1 + 2 * t  # [W_in, W1_0, W2_0, W1_1, ..., W_out]
            x = sheaf_layer(lap, x, arrays[k], arrays[k + 1], "tanh")
        # forward's Kronecker product sums each channel map in another order than the
        # per-node oracle: a stated tolerance, max |difference| over max |logit|
        expected = x.reshape(g.n, -1) @ arrays[-1].T
        assert np.abs(logits - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("d,f", [(1, 1), (2, 8), (3, 2)])
    def test_integer_valued_layers_equal_the_oracle(self, d, f, tied):
        # integer weights, states and Laplacian blocks in -3..3: every product and sum
        # is exact, so the logits must equal the per-node oracle's, whatever the order
        # of summation; a swapped Kronecker order or a missing transpose changes them
        rng = np.random.default_rng(100 * d + f)
        g = random_graph(rng, n=12, edge_prob=0.4)
        lap = sl.BlockLaplacian(
            n=g.n, d=d, edges=g.edges,
            diag=rng.integers(-3, 4, (g.n, d)).astype(np.float64),
            off=rng.integers(-3, 4, (g.num_edges, d, d)).astype(np.float64),
        )
        steps = 3
        pairs = [
            (rng.integers(-3, 4, (d, d)) * 1.0, rng.integers(-3, 4, (f, f)) * 1.0)
            for _ in range(1 if tied else steps)
        ]
        w_out = rng.integers(-3, 4, (2, d * f)) * 1.0
        x = rng.integers(-3, 4, (g.n * d, f)) * 1.0
        arrays = [np.eye(d * f)] + [w for pair in pairs for w in pair] + [w_out]
        logits, _ = forward(DiffusionModel(lap, arrays, steps, "relu"), x.reshape(g.n, -1))
        for t in range(steps):
            x = sheaf_layer(lap, x, *pairs[t % len(pairs)], "relu")
        assert np.abs(x).max() < 2.0 ** 40  # far inside float64's exact integers
        assert_array_equal(logits, x.reshape(g.n, -1) @ w_out.T)

    def test_permutation_equivariance(self):
        g, lap, model, feats, labels = small_instance(5)
        logits, _ = forward(model, feats)
        rng = np.random.default_rng(5)
        pos = rng.permutation(g.n)  # pos[old] = new index
        new_edges, new_transports = [], []
        sheaf = build_sheaf_by_kind(g, "connection", 2, seed=5)
        for (u, v), o in zip(g.edges, sheaf.transports):
            a, b = int(pos[u]), int(pos[v])
            if a < b:
                new_edges.append((a, b))
                new_transports.append(o)
            else:
                new_edges.append((b, a))
                new_transports.append(o.T)
        order = np.lexsort(
            (np.array(new_edges)[:, 1], np.array(new_edges)[:, 0])
        )
        inv = np.argsort(pos)
        g_perm = sl.from_edge_list(g.n, np.array(new_edges), feats[inv])
        s_perm = sl.Sheaf(
            d=2,
            n=g.n,
            kind="connection",
            edges=np.array(new_edges)[order],
            transports=np.stack(new_transports)[order],
        )
        lap_perm = sl.normalise(sl.sheaf_laplacian(s_perm, g_perm))
        model_perm = DiffusionModel(lap_perm, model.arrays, model.steps, model.activation)
        logits_perm, _ = forward(model_perm, feats[inv])
        assert_allclose(logits_perm, logits[inv], atol=1e-10)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 5))
        labels = np.array([0, 1, 2, 3])
        got = cross_entropy(logits, labels, np.arange(4))
        assert got == pytest.approx(np.log(5))

    def test_hand_computed(self):
        logits = np.array([[0.0, np.log(3.0)]])
        assert cross_entropy(logits, np.array([0]), [0]) == pytest.approx(np.log(4.0))

    def test_margin_drives_loss_to_zero(self):
        labels = np.array([1])
        losses = [
            cross_entropy(np.array([[0.0, m]]), labels, [0]) for m in (1.0, 10.0, 100.0)
        ]
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-40

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty mask"):
            cross_entropy(np.zeros((2, 2)), np.array([0, 1]), [])

    @pytest.mark.parametrize("classes", [1, 2, 5])
    def test_one_pass_equals_the_two_pass_oracle(self, classes):
        # the loss and the gradient bitwise, NaN where NaN, on rows with huge, infinite
        # and NaN logits too; the loss is also `cross_entropy`'s
        rng = np.random.default_rng(classes)
        special = np.array([0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan, 1e-310])
        for case in range(200):
            n = int(rng.integers(1, 12))
            logits = rng.standard_normal((n, classes)) * 10.0 ** rng.integers(-3, 4)
            if case % 2:
                picks = rng.random(logits.shape) < 0.3
                logits[picks] = rng.choice(special, size=int(picks.sum()))
            labels = rng.integers(0, classes, n)
            mask = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=bool(case % 3))
            with np.errstate(all="ignore"):
                loss, grad = cross_entropy_grad(logits, labels, mask)
                want_loss, want_grad = two_pass_cross_entropy(logits, labels, mask)
                assert np.array_equal(cross_entropy(logits, labels, mask), loss, equal_nan=True)
            assert np.array_equal(loss, want_loss, equal_nan=True)
            assert np.signbit(loss) == np.signbit(want_loss)
            assert np.array_equal(grad, want_grad, equal_nan=True)

    @pytest.mark.parametrize("label", [-1, 2], ids=["negative", "C"])
    @pytest.mark.parametrize("fn", [cross_entropy, cross_entropy_grad, sl.accuracy],
                             ids=lambda fn: fn.__name__)
    def test_label_out_of_range(self, fn, label):
        # every masked-label function rejects labels outside [0, C), here C = 2
        with pytest.raises(ValueError, match="label"):
            fn(np.zeros((2, 2)), np.array([0, label]), [0, 1])


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        g, lap, model, feats, labels = small_instance(6)
        _, cache = forward(model, feats)
        grads = backward(model, cache, np.zeros((g.n, 2)))
        for arr in grads:
            assert_array_equal(arr, np.zeros_like(arr))

    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    def test_finite_difference(self, act):
        g, lap, model, feats, labels = small_instance(7, activation=act)
        mask = np.arange(g.n)
        logits, cache = forward(model, feats)
        grads = backward(model, cache, cross_entropy_grad(logits, labels, mask)[1])
        numeric = numeric_model_grads(model, feats, labels, mask)
        assert max_rel_err(grads, numeric) < 1e-5

    @pytest.mark.parametrize("d,f", [(3, 1), (1, 4)])
    def test_finite_difference_stalk_shapes(self, d, f):
        # d != f, so a swapped Kronecker order or dW1/dW2 contraction cannot pass
        g, lap, model, feats, labels = small_instance(16, d=d, f=f, activation="tanh")
        mask = np.arange(g.n)
        logits, cache = forward(model, feats)
        grads = backward(model, cache, cross_entropy_grad(logits, labels, mask)[1])
        numeric = numeric_model_grads(model, feats, labels, mask)
        assert max_rel_err(grads, numeric) < 1e-5

    def test_finite_difference_tied_weights(self):
        g, lap, _, feats, labels = small_instance(8)
        cfg = TrainConfig(d=2, f=2, layers=3, tied_weights=True)
        arrays = init_params(cfg, 3, 2, np.random.default_rng(8))
        model = DiffusionModel(lap, arrays, cfg.layers, cfg.activation)
        assert len(arrays) == 4 and model.steps == 3  # W_in, one (W1, W2) pair, W_out
        mask = np.arange(g.n)
        logits, cache = forward(model, feats)
        grads = backward(model, cache, cross_entropy_grad(logits, labels, mask)[1])
        numeric = numeric_model_grads(model, feats, labels, mask)
        assert max_rel_err(grads, numeric) < 1e-5

    def test_finite_difference_fixed_dropout_mask(self):
        g, lap, model, feats, labels = small_instance(13)
        keep = np.random.default_rng(13).random(feats.shape) >= 0.5
        dropped = feats * keep / 0.5
        mask = np.arange(g.n)
        logits, cache = model.forward(dropped)
        grads = model.backward(cache, cross_entropy_grad(logits, labels, mask)[1])
        numeric = numeric_model_grads(model, dropped, labels, mask)
        assert max_rel_err(grads, numeric) < 1e-5

    @pytest.mark.parametrize("kind", ["gcn", "mlp"])
    @pytest.mark.parametrize("act", ["relu", "tanh", "identity"])
    def test_finite_difference_baselines(self, kind, act):
        g, _, _, feats, labels = small_instance(14)
        rng = np.random.default_rng(14)
        ws = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]
        model = BaselineModel(gcn_propagation_matrix(g) if kind == "gcn" else None, ws, act)
        mask = np.arange(g.n)
        logits, cache = model.forward(feats)
        grads = model.backward(cache, cross_entropy_grad(logits, labels, mask)[1])
        numeric = numeric_model_grads(model, feats, labels, mask)
        assert max_rel_err(grads, numeric) < 1e-5

    def test_w2_closed_form_linear_case(self):
        # T=1, identity activation: X1 = X0 - L (I kron W1) X0 W2 is linear
        # in W2, so dW2 = -A^T (L G) with A = (I kron W1) X0
        g, lap, model, feats, labels = small_instance(9, layers=1, activation="identity")
        logits, cache = forward(model, feats)
        dlogits = np.random.default_rng(9).standard_normal(logits.shape)
        grads = backward(model, cache, dlogits)
        x0 = encode(feats, model.arrays[0], 2)
        a = np.kron(np.eye(g.n), model.arrays[1]) @ x0
        gmat = (dlogits @ model.arrays[-1]).reshape(lap.dim, -1)
        expected = -a.T @ (lap.to_dense() @ gmat)
        assert_allclose(grads[2], expected, atol=1e-10)

    def test_stale_cache_rejected(self):
        g, lap, model, feats, labels = small_instance(10)
        _, cache = forward(model, feats)
        cache.acts.pop()
        with pytest.raises(ValueError, match="stale"):
            backward(model, cache, np.zeros((g.n, 2)))

    def test_cache_missing_its_last_state_rejected(self):
        # the decoder's input is the last state: without it W_out's gradient is wrong
        g, lap, model, feats, labels = small_instance(10)
        _, cache = forward(model, feats)
        cache.xs.pop()
        with pytest.raises(ValueError, match="stale"):
            backward(model, cache, np.zeros((g.n, 2)))


class TestAccuracyEvaluate:
    def test_perfect_logits(self):
        labels = np.array([0, 1, 1, 0])
        logits = np.eye(2)[labels] * 5.0
        assert sl.accuracy(logits, labels, np.arange(4)) == 1.0

    def test_exact_fraction(self):
        labels = np.array([0, 1, 1, 1])
        logits = np.tile([5.0, 0.0], (4, 1))  # predicts class 0 everywhere
        assert sl.accuracy(logits, labels, np.arange(4)) == 0.25

    def test_tie_break_lowest_class(self):
        labels = np.array([0, 0, 1, 1])
        logits = np.zeros((4, 2))
        assert sl.accuracy(logits, labels, np.arange(4)) == 0.5

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty mask"):
            sl.accuracy(np.zeros((2, 2)), np.array([0, 1]), [])


class TestGcnMlp:
    def test_gcn_single_node(self):
        g = sl.from_edge_list(1, [], np.zeros((1, 2)))
        h = np.array([[2.0, -1.0]])
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = BaselineModel(gcn_propagation_matrix(g), [w, np.eye(2)], "relu")
        assert_allclose(model.forward(h)[0], np.maximum(h, 0.0))

    @staticmethod
    def dense_gcn(g):
        ahat = np.eye(g.n)
        for u, v in g.edges:
            ahat[u, v] = ahat[v, u] = 1.0
        return np.diag(ahat.sum(1) ** -0.5) @ ahat @ np.diag(ahat.sum(1) ** -0.5)

    def test_gcn_constant_fixed_point_four_cycle(self):
        g = sl.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)], np.zeros((4, 2)))
        h = np.full((4, 2), 1.7)
        got = sl.apply(gcn_propagation_matrix(g), h)
        dense = self.dense_gcn(g)
        assert_allclose(got, dense @ h, atol=1e-12)
        assert_allclose(got, h, atol=1e-12)
        # irregular random graphs whose last two nodes are isolated, and n = 1
        rng = np.random.default_rng(3)
        for n in (1, 5, 9, 14):
            raw = [(u, v) for u in range(n - 2) for v in range(u + 1, n - 2) if rng.random() < 0.4]
            g = sl.from_edge_list(n, raw, np.zeros((n, 2)))
            h = rng.standard_normal((n, 3))
            got = sl.apply(gcn_propagation_matrix(g), h)
            assert_allclose(got, self.dense_gcn(g) @ h, atol=1e-12)

    def test_gcn_zero_weights(self):
        g = sl.from_edge_list(3, [(0, 1), (1, 2)], np.zeros((3, 2)))
        h = np.random.default_rng(0).standard_normal((3, 4))
        ws = [np.zeros((4, 5)), np.ones((5, 2))]
        model = BaselineModel(gcn_propagation_matrix(g), ws, "relu")
        assert_array_equal(model.forward(h)[0], np.zeros((3, 2)))

    def test_gcn_propagates_each_features_object_once(self, monkeypatch):
        rng = np.random.default_rng(4)
        g = random_graph(rng, n=12, edge_prob=0.3)
        prop = gcn_propagation_matrix(g)
        ws = [rng.standard_normal((4, 5)), rng.standard_normal((5, 3))]
        model = BaselineModel(prop, ws, "relu")
        x = g.features
        expected = sl.apply(prop, np.maximum(sl.apply(prop, x) @ ws[0], 0.0) @ ws[1])
        calls = []
        monkeypatch.setattr(sl.model, "apply", lambda *a: calls.append(1) or sl.apply(*a))
        for _ in range(2):
            assert_array_equal(model.forward(x)[0], expected)
        assert len(calls) == 3  # P X once, P (H W2) per forward
        assert_array_equal(model.forward(x.copy())[0], expected)  # a new object: P X again
        assert len(calls) == 5

    def test_gcn_propagates_a_writable_features_array_every_forward(self):
        # P X is reused only for a read-only array: one mutated in place is propagated anew
        rng = np.random.default_rng(6)
        g = random_graph(rng, n=30, edge_prob=0.2)
        prop = gcn_propagation_matrix(g)
        ws = [rng.standard_normal((4, 5)), rng.standard_normal((5, 3))]
        model = BaselineModel(prop, ws, "tanh")
        x = np.array(g.features)
        before = model.forward(x)[0]
        x *= 3.0
        after = model.forward(x)[0]
        assert_array_equal(after, BaselineModel(prop, ws, "tanh").forward(x)[0])
        assert not np.array_equal(after, before)

    @pytest.mark.parametrize("activation", ["relu", "tanh", "identity"])
    def test_gcn_forward_and_gradients_match_dense_oracle(self, activation):
        # irregular random graphs whose last two nodes are isolated, and n = 1
        rng = np.random.default_rng(8)
        for n in (1, 5, 9, 14):
            raw = [(u, v) for u in range(n - 2) for v in range(u + 1, n - 2) if rng.random() < 0.4]
            g = sl.from_edge_list(n, raw, rng.standard_normal((n, 3)))
            w1, w2 = rng.standard_normal((3, 6)), rng.standard_normal((6, 2))
            model = BaselineModel(gcn_propagation_matrix(g), [w1, w2], activation)
            logits, cache = model.forward(g.features)
            dlogits = rng.standard_normal(logits.shape)
            grad_w1, grad_w2 = model.backward(cache, dlogits)

            dense = self.dense_gcn(g)
            px = dense @ g.features
            pre = px @ w1
            hidden = _ACTIVATIONS[activation](pre)
            d_pre = (dense @ dlogits @ w2.T) * _ACTIVATION_GRADS[activation](pre)
            assert_allclose(logits, dense @ hidden @ w2, rtol=1e-12)
            assert_allclose(grad_w1, px.T @ d_pre, rtol=1e-12)
            assert_allclose(grad_w2, hidden.T @ dense @ dlogits, rtol=1e-12)

    def test_mlp_zero_weights_uniform(self):
        feats = np.random.default_rng(1).standard_normal((5, 3))
        ws = [np.zeros((3, 4)), np.zeros((4, 2))]
        logits = BaselineModel(None, ws, "relu").forward(feats)[0]
        assert_array_equal(logits, np.zeros((5, 2)))

    def test_mlp_monotone_in_feature(self):
        feats = np.array([[0.5], [1.0], [2.0]])
        ws = [np.array([[1.0]]), np.array([[1.0]])]
        logits = BaselineModel(None, ws, "relu").forward(feats)[0]
        assert logits[0, 0] < logits[1, 0] < logits[2, 0]

    def test_mlp_dense_oracle(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((6, 3))
        w1 = rng.standard_normal((3, 4))
        w2 = rng.standard_normal((4, 2))
        assert_allclose(
            BaselineModel(None, [w1, w2], "tanh").forward(feats)[0], np.tanh(feats @ w1) @ w2
        )


def test_trivial_sheaf_d1_propagation_matches_normalised_graph_laplacian():
    rng = np.random.default_rng(11)
    raw = [(u, v) for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.4]
    g = sl.from_edge_list(9, raw, rng.standard_normal((9, 3)))
    delta = sl.normalise(sl.sheaf_laplacian(sl.trivial_sheaf(g, 1), g)).to_dense()
    deg = np.bincount(g.edges.ravel(), minlength=g.n).astype(float)
    droot = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 1.0)
    expected = droot[:, None] * graph_laplacian(g) * droot[None, :]
    assert_allclose(delta, expected, atol=1e-12)
    assert_allclose(np.eye(g.n) - delta, np.eye(g.n) - expected, atol=1e-12)


def test_multi_step_identity_layers_match_euler():
    g, lap, model, feats, labels = small_instance(12, layers=3, activation="identity")
    x0 = encode(feats, model.arrays[0], 2)
    x = layer_states(lap, x0, [(np.eye(2), np.eye(2))] * 3, "identity")[-1]
    assert_allclose(x, euler_diffusion(lap, x0, 3), atol=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize("key, value, want", [
        ("d", 2.5, "int"), ("epochs", "3", "int"), ("epochs", True, "int"),
        ("seed", 1.5, "int"), ("lr", True, "float"), ("use_normalised", "no", "bool"),
    ])
    def test_value_of_wrong_type(self, key, value, want):
        with pytest.raises(ValueError, match=re.escape(f"config key {key} must be {want}, got ")):
            TrainConfig(**{key: value}).validate()

    def test_numpy_scalars_are_numbers(self):
        ds = sl.synth_sbm(60, 2, 0.2, 0.05, 2, 2.0, seed=0)
        runs = [
            train(ds, "rand-edge", TrainConfig(epochs=3, seed=seed, lr=lr), 0)[1]["train_loss"]
            for seed, lr in ((np.int64(4), np.float64(0.05)), (4, 0.05))
        ]
        assert runs[0] == runs[1]

    def test_train_checks_types(self):
        ds = sl.synth_sbm(60, 2, 0.2, 0.05, 2, 2.0, seed=0)
        with pytest.raises(ValueError, match="config key d must be int, got 2.5"):
            train(ds, "gcn", TrainConfig(d=2.5), 0)


@pytest.mark.parametrize("kind", ["diffusion", "gcn", "mlp"])
def test_unknown_activation_is_a_value_error(kind):
    g, lap, model, feats, _ = small_instance(0)
    with pytest.raises(ValueError, match="unknown activation 'gelu'"):
        if kind == "diffusion":
            built = DiffusionModel(lap, model.arrays, model.steps, "gelu")
        else:
            prop = gcn_propagation_matrix(g) if kind == "gcn" else None
            built = BaselineModel(prop, [np.ones((3, 4)), np.ones((4, 2))], "gelu")
        built.forward(feats)


@pytest.mark.parametrize("name", ["relu", "tanh", "identity"])
def test_derivative_on_the_output_equals_the_oracle_at_the_pre_activation(name):
    # the package states each derivative on a = act(y), the oracle on y itself;
    # both must agree bitwise, NaN where NaN, on every class of float64
    tiny = np.finfo(np.float64).smallest_subnormal
    y = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-310, -1e-310,
                  1e300, -1e300, 0.5, -2.0, 3.75, 1e-3, -20.0, 7e-9])
    act, act_grad = sl.model._ACTIVATIONS[name]
    assert np.array_equal(act_grad(act(y)), _ACTIVATION_GRADS[name](y), equal_nan=True)


@pytest.mark.parametrize("kind", [*sl.model.SHEAF_KINDS, "gcn"])
def test_operators_share_the_graphs_read_only_edges(kind):
    g = sl.synth_sbm(60, 2, 0.2, 0.05, 2, 2.0, seed=0).graph
    arrays = [build_operator(g, kind, TrainConfig(use_normalised=flag, seed=0))[0].edges
              for flag in (True, False)]
    if kind != "gcn":
        arrays.append(build_sheaf_by_kind(g, kind, 2, seed=0).edges)
    for edges in arrays:
        assert not edges.flags.writeable and np.shares_memory(edges, g.edges)


class TestTrain:
    def _dataset(self, seed=0):
        return sl.synth_sbm(60, 2, 0.2, 0.05, 2, 2.0, seed=seed)

    def test_lr_zero_keeps_params(self):
        ds = self._dataset()
        cfg = TrainConfig(lr=0.0, epochs=3, seed=1)
        arrays, _ = train(ds, "trivial", cfg, 0)
        fresh = init_params(cfg, 2, 2, np.random.default_rng(1))
        for a, b in zip(arrays, fresh):
            assert_array_equal(a, b)

    def test_determinism_excluding_timing(self):
        ds = self._dataset(1)
        cfg = TrainConfig(epochs=15, seed=3)
        p1, h1 = train(ds, "connection", cfg, 0)
        p2, h2 = train(ds, "connection", TrainConfig(epochs=15, seed=3), 0)
        for key in ("epoch", "train_loss", "train_acc", "val_acc", "test_acc"):
            assert h1[key] == h2[key]
        assert h1["best_epoch"] == h2["best_epoch"]
        assert h1["test_acc_at_best"] == h2["test_acc_at_best"]
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)

    def test_loss_decreases_early(self):
        ds = sl.synth_sbm(200, 2, 0.1, 0.01, 2, 2.0, seed=500)
        _, hist = train(ds, "connection", TrainConfig(seed=0), 0)
        losses = hist["train_loss"][:10]
        assert all(losses[i + 1] < losses[i] for i in range(9))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            train(self._dataset(), "nope", TrainConfig(epochs=1), 0)

    def test_split_out_of_range(self):
        with pytest.raises(ValueError, match="split out of range"):
            train(self._dataset(), "trivial", TrainConfig(epochs=1), 99)

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_empty_split_part_is_data_error_before_the_build(self, monkeypatch, part):
        ds = self._dataset()
        split = ds.splits[2]
        setattr(split, part, np.zeros(0, dtype=np.int64))
        calls = []
        monkeypatch.setattr(sl.model, "build_operator", lambda *a: calls.append(a))
        with pytest.raises(sl.DataError, match=f"^split 2 has no {part} nodes$"):
            train(ds, "connection", TrainConfig(epochs=1), 2)
        assert calls == []

    def test_baseline_runs_and_reports(self):
        ds = self._dataset(2)
        for kind in ("gcn", "mlp"):
            _, hist = train(ds, kind, TrainConfig(epochs=10, seed=0), 0)
            assert len(hist["epoch"]) == 10
            assert 0.0 <= hist["test_acc_at_best"] <= 1.0
            assert hist["sheaf_build_seconds"] >= 0.0

    @pytest.mark.parametrize("kind", ["connection", "trivial", "rand-edge", "gcn", "mlp"])
    def test_non_finite_loss_raises_guard_error(self, kind):
        cfg = TrainConfig(optimiser="sgd", lr=1e6, seed=0)
        with np.errstate(all="ignore"), pytest.raises(GuardError, match="training loss is"):
            train(self._dataset(), kind, cfg, 0)

    @pytest.mark.parametrize("kind", ["connection", "gcn", "mlp"])
    def test_diverging_finite_loss_raises_guard_error(self, kind):
        # Adam at lr = 1e6 keeps the loss finite, at 1e13 to 4e38 times ln 2 from epoch 2
        # on; the magnitude bound stops it there, after one finished epoch
        cfg = TrainConfig(lr=1e6, seed=0)
        with np.errstate(all="ignore"), pytest.raises(GuardError, match="training loss is") as err:
            train(self._dataset(), kind, cfg, 0)
        assert err.value.history["epoch"] == [1]

    @pytest.mark.parametrize("kind", ["connection", "gcn"])
    def test_one_class_loss_is_zero_within_the_guard(self, kind):
        # C = 1: ln C = 0 makes the bound 0, and the log-softmax of one logit is exactly 0
        ds = self._dataset()
        g = ds.graph
        ds.graph = sl.from_edge_list(g.n, g.edges, g.features, np.zeros(g.n, dtype=np.int64))
        _, hist = train(ds, kind, TrainConfig(epochs=5, patience=0, seed=0), 0)
        assert hist["train_loss"] == [0.0] * 5

    @pytest.mark.parametrize("kind", ["gcn", "mlp", "trivial"])
    def test_dropout_changes_training(self, kind):
        ds = self._dataset(4)
        losses = [
            train(ds, kind, TrainConfig(epochs=5, dropout=rate, seed=0), 0)[1]["train_loss"]
            for rate in (0.0, 0.5)
        ]
        assert losses[0] != losses[1]

    @pytest.mark.parametrize("kind,dropout,forwards,applies", [
        ("connection", 0.0, 5 + 1, 4 * 5 + 2),
        ("gcn", 0.0, 0, 2 * 5 + 2),
        ("connection", 0.3, 2 * 5, 6 * 5),
        ("gcn", 0.3, 0, 5 * 5),
    ], ids=["connection", "gcn", "connection-dropout", "gcn-dropout"])
    def test_forward_and_apply_calls(self, monkeypatch, kind, dropout, forwards, applies):
        # 5 epochs at T = 2; at dropout 0 the evaluation forward doubles as the
        # next epoch's training forward, so only epoch 1 runs a forward of its own.
        # No forward follows the last epoch: the results at the best epoch are read
        # from the history. GCN propagates a features array once: at dropout 0 every
        # forward after the first reuses P X; with dropout every training and
        # evaluation forward sees a new array. Each epoch takes its loss and gradient
        # from one masked softmax, and the train, val and test accuracies
        counts = dict.fromkeys(["forward", "apply", "cross_entropy", "cross_entropy_grad",
                                "accuracy"], 0)
        for name in counts:
            original = getattr(sl.model, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sl.model, name, counted)
        cfg = TrainConfig(epochs=5, layers=2, patience=0, dropout=dropout, seed=0)
        train(self._dataset(5), kind, cfg, 0)
        assert counts == {"forward": forwards, "apply": applies, "cross_entropy": 0,
                          "cross_entropy_grad": 5, "accuracy": 3 * 5}

    @pytest.mark.parametrize("kind", ["connection", "gcn"])
    def test_one_row_plan_per_train(self, monkeypatch, kind):
        built, original = [], sl.laplacian._row_plan

        def counted(op):
            built.append(op)
            return original(op)

        monkeypatch.setattr(sl.laplacian, "_row_plan", counted)
        train(self._dataset(5), kind, TrainConfig(epochs=5, patience=0, seed=0), 0)
        assert len(built) == 1

    def test_one_forward_cache_alive_during_training(self):
        # the benchmark's n = 4000 data and connection model: a 7.39 MB peak, and 9.95 MB
        # when the last epoch's forward cache stays alive through the evaluation forward;
        # the bound leaves 1.1 MB of margin above the first
        ds = sl.synth_sbm(4000, 2, 14.4 / 4000, 3.6 / 4000, 4, 2.0, seed=1)
        cfg = TrainConfig(epochs=3, seed=0)
        built = build_operator(ds.graph, "connection", cfg)
        tracemalloc.start()
        try:
            train(ds, "connection", cfg, 0, built)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5e6

    def test_unlabelled_dataset(self):
        ds = self._dataset()
        g = ds.graph
        ds.graph = sl.from_edge_list(g.n, g.edges, g.features)
        with pytest.raises(ValueError, match="dataset has no labels"):
            train(ds, "trivial", TrainConfig(epochs=1), 0)

    def test_early_stopping_patience(self):
        ds = self._dataset(3)
        cfg = TrainConfig(epochs=300, patience=5, seed=0)
        _, hist = train(ds, "trivial", cfg, 0)
        best = hist["best_epoch"]
        assert hist["epoch"] == list(range(1, best + 5 + 1))
        assert max(hist["val_acc"][best:]) <= hist["best_val_acc"] == hist["val_acc"][best - 1]

    @pytest.mark.parametrize("patience", [0, 5])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("kind", [*sl.model.SHEAF_KINDS, *sl.model.BASELINE_KINDS])
    def test_run_results_are_the_history_at_best_epoch(self, kind, dropout, patience):
        ds = self._dataset(3)
        cfg = TrainConfig(epochs=12, patience=patience, dropout=dropout, seed=1)
        built = build_operator(ds.graph, kind, cfg)
        arrays, hist = train(ds, kind, cfg, 0, built)
        val, best = hist["val_acc"], hist["best_epoch"]
        assert hist["best_val_acc"] == max(val) and best == val.index(max(val)) + 1
        assert hist["test_acc_at_best"] == hist["test_acc"][best - 1]
        if kind in sl.model.SHEAF_KINDS:
            model = DiffusionModel(built[0], arrays, cfg.layers, cfg.activation)
        else:
            model = BaselineModel(built[0], arrays, cfg.activation)
        g = ds.graph
        logits = model.forward(g.features)[0]
        assert accuracy(logits, g.labels, ds.splits[0].test) == hist["test_acc_at_best"]
