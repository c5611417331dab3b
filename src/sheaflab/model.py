"""Fixed-sheaf diffusion node classifier with exact reverse-mode gradients.

The network lifts each node's raw features x_v into stalk space as the
row-major d x f block W_in x_v (the linear encoder), runs T diffusion layers

    X_{t+1} = X_t - act( L (I_n kron W1_t) X_t W2_t )

against a precomputed (constant) sheaf Laplacian L, then reads class logits
out of the flattened stalk state with a linear decoder. `forward`'s loop is
the one implementation of that layer. On a node's row-major d x f block,
vec(W1 X_v W2) = (W1 kron W2^T) vec(X_v): with K = kron(W1, W2^T) a layer's
channel work is one (n, df) @ (df, df) product M = X K^T. Backward views
dK = dM^T X as (d, f, d, f) entries [i, a, j, b]: dW1[i, j] = sum dK W2[b, a]
and dW2[b, a] = sum dK W1[i, j]. L never changes during training, so
backpropagation only traverses the weights; its adjoint reuses L (symmetry).

`build_operator` builds any kind's fixed operator once. Every model keeps
its weights in a flat list `arrays`, with `forward(features) -> (logits,
cache)` and `backward(cache, dlogits)` returning gradients in that order,
so the baseline (GCN, or MLP when there is no operator) trains through
the same full-batch loop. Both models look up act and its derivative
`act_grad`, stated on act's output, in the one table `_ACTIVATIONS` when
built, and cache that output. At dropout 0 the evaluation forward ending
one epoch is the next epoch's training forward (same features, same
weights), so each later epoch runs one forward; with dropout > 0, two.
Each epoch takes the training loss and its gradient from one masked softmax,
`cross_entropy_grad`; `cross_entropy` returns that same pass's loss.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import _trainable_split
from .errors import GuardError
from .graph import Graph
from .laplacian import BlockLaplacian, apply, normalise, sheaf_laplacian
from .sheaf import (
    BuildDiagnostics,
    Sheaf,
    build_connection_sheaf,
    random_edge_sheaf,
    random_node_sheaf,
    trivial_sheaf,
)

SHEAF_KINDS = ("connection", "trivial", "rand-edge", "rand-node")
BASELINE_KINDS = ("gcn", "mlp")
# per-epoch history lists, one entry per finished epoch
EPOCH_KEYS = ("epoch", "train_loss", "train_acc", "val_acc", "test_acc", "epoch_seconds")
_LOSS_LIMIT = 1e6  # a training loss above this times ln C (C classes) has diverged
# each activation's (map of the pre-activation y, derivative stated on its output a = act(y))
_ACTIVATIONS = {
    "relu": (lambda y: np.maximum(y, 0.0), lambda a: (a > 0).astype(np.float64)),
    "tanh": (np.tanh, lambda a: 1.0 - a ** 2),
    "identity": (lambda y: y, np.ones_like),
}


def _activation(name: str):
    """`name`'s (map, derivative) pair from `_ACTIVATIONS`; ValueError for an unknown name."""
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return _ACTIVATIONS[name]


@dataclass
class TrainConfig:
    """Hyper-parameters for training; every field is addressable from config files."""

    d: int = 2                    # stalk dimension
    f: int = 8                    # feature channels in stalk space
    layers: int = 2               # diffusion steps T
    lr: float = 0.01
    epochs: int = 200
    weight_decay: float = 5e-4
    optimiser: str = "adam"       # adam | sgd
    seed: int = 0
    use_normalised: bool = True
    patience: int = 50            # epochs without val improvement; <= 0 disables
    activation: str = "relu"      # a key of _ACTIVATIONS: relu | tanh | identity
    tied_weights: bool = False    # share one (W1, W2) pair across layers
    dropout: float = 0.0          # input-feature dropout, train-time only
    hidden: int = 32              # hidden width for the gcn/mlp baselines

    def validate(self) -> None:
        """Raise ValueError for a field of the wrong type (a bool is never a number) or range."""
        for f in fields(self):
            want, value = type(f.default), getattr(self, f.name)
            kind = {int: numbers.Integral, float: numbers.Real}.get(want, want)
            if not isinstance(value, kind) or (isinstance(value, bool) and want is not bool):
                raise ValueError(f"config key {f.name} must be {want.__name__}, got {value!r}")
        if self.d < 1 or self.f < 1 or self.layers < 1 or self.hidden < 1:
            raise ValueError("d, f, layers and hidden must all be >= 1")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError(f"weight decay must be finite and >= 0, got {self.weight_decay}")
        if self.optimiser not in ("adam", "sgd"):
            raise ValueError(f"unknown optimiser {self.optimiser!r}")
        _activation(self.activation)
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not 0 <= self.seed < 1 << 128:  # the Haar sheaves' Philox key range, for every kind
            raise ValueError(f"seed must lie in [0, 2**128), got {self.seed}")


@dataclass
class ForwardCache:
    """Per-layer tensors retained for the backward pass."""

    features: np.ndarray
    xs: list[np.ndarray] = field(default_factory=list)     # T+1 states, (nd, f)
    acts: list[np.ndarray] = field(default_factory=list)   # act's outputs, per layer
    krons: dict[int, np.ndarray] = field(default_factory=dict)  # kron(W1, W2^T) by W1 index


def forward(model: DiffusionModel, features: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Logits (n, C) plus the cache for backward(); each pair's K is built once per call."""
    lap, ws = model.lap, model.arrays
    n = features.shape[0]
    d, f = ws[1].shape[0], ws[2].shape[0]
    if lap.n != n or lap.d != d:
        raise ValueError("Laplacian shape does not match features/weights")
    x = (features @ ws[0].T).reshape(n * d, f)  # the encoder: node blocks of d rows, f columns
    cache = ForwardCache(features=features)
    cache.krons = {k: np.kron(ws[k], ws[k + 1].T) for k in range(1, len(ws) - 1, 2)}
    cache.xs.append(x)
    for t in range(model.steps):
        kron = cache.krons[model.pair_index(t)]
        act = model.act(apply(lap, (x.reshape(n, -1) @ kron.T).reshape(x.shape)))
        x = x - act
        cache.acts.append(act)
        cache.xs.append(x)
    return x.reshape(n, -1) @ ws[-1].T, cache


def _masked(logits: np.ndarray, labels: np.ndarray, mask):
    """(mask, logits[mask], labels[mask]); rejects an empty mask and labels outside [0, C)."""
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ValueError("empty mask")
    lab = np.asarray(labels)[mask]
    if lab.min() < 0 or lab.max() >= logits.shape[1]:
        raise ValueError("label out of range")
    return mask, logits[mask], lab


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray, mask):
    """(loss, d(loss)/d(logits)) from one masked softmax, its row max, exp and row sum.

    The loss is the mean negative log-softmax of the true class over `mask` nodes, the
    gradient (softmax - onehot)/|mask| on masked rows and zero elsewhere.
    """
    mask, sub, lab = _masked(logits, labels, mask)
    rows = np.arange(mask.size)
    shifted = sub - sub.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    total = expz.sum(axis=1, keepdims=True)
    loss = float(-(shifted[rows, lab] - np.log(total[:, 0])).mean())
    soft = expz / total
    soft[rows, lab] -= 1.0
    grad = np.zeros_like(logits)
    grad[mask] = soft / mask.size
    return loss, grad


def cross_entropy(logits: np.ndarray, labels: np.ndarray, mask) -> float:
    """The masked mean negative log-softmax: `cross_entropy_grad`'s loss."""
    return cross_entropy_grad(logits, labels, mask)[0]


def backward(
    model: DiffusionModel, cache: ForwardCache, logits_grad: np.ndarray
) -> list[np.ndarray]:
    """Exact gradients of every weight, in `model.arrays` order.

    Per layer, dM = L d_pre as (n, df) (L^T = L) gives dK = dM^T X_t, one (df, n) @
    (n, df) product, which contracts into dW1 and dW2; dM K is the state's gradient.
    """
    if len(cache.acts) != model.steps or len(cache.xs) != model.steps + 1:
        raise ValueError("stale or incomplete forward cache")
    ws = model.arrays
    n = cache.features.shape[0]
    d, f = ws[1].shape[0], ws[2].shape[0]

    grads = [np.zeros_like(w) for w in ws]  # tied steps accumulate into one pair
    grads[-1] = logits_grad.T @ cache.xs[-1].reshape(n, -1)
    g = (logits_grad @ ws[-1]).reshape(n * d, f)

    for t in reversed(range(model.steps)):
        k = model.pair_index(t)
        d_pre = -g * model.act_grad(cache.acts[t])
        d_mid = apply(model.lap, d_pre).reshape(n, -1)
        dk = (d_mid.T @ cache.xs[t].reshape(n, -1)).reshape(d, f, d, f)
        grads[k] += np.einsum("iajb,ba->ij", dk, ws[k + 1])
        grads[k + 1] += np.einsum("iajb,ij->ba", dk, ws[k])
        g = g + (d_mid @ cache.krons[k]).reshape(n * d, f)

    grads[0] = g.reshape(n, -1).T @ cache.features
    return grads


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    a = np.sqrt(1.0 / fan_in)
    return rng.uniform(-a, a, size=shape)


def init_params(
    cfg: TrainConfig, feature_dim: int, n_classes: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """[W_in, W1_0, W2_0, ..., W_out], seeded uniform(-a, a) with a = sqrt(1/fan_in).

    The arrays are drawn in list order. Tied weights give a single
    (W1: d x d, W2: f x f) pair; otherwise there is one pair per step.
    """
    d, f = cfg.d, cfg.f
    arrays = [_uniform(rng, (d * f, feature_dim), feature_dim)]
    for _ in range(1 if cfg.tied_weights else cfg.layers):
        arrays += [_uniform(rng, (d, d), d), _uniform(rng, (f, f), f)]
    arrays.append(_uniform(rng, (n_classes, d * f), d * f))
    return arrays


def accuracy(logits: np.ndarray, labels: np.ndarray, mask) -> float:
    """Masked argmax accuracy; ties resolve to the lowest class id."""
    _, sub, lab = _masked(logits, labels, mask)
    return float(np.mean(np.argmax(sub, axis=1) == lab))


# ---------------------------------------------------------------------------
# optimisers

def _step(arrays, grads, cfg: TrainConfig, moments, t: int):
    """One update of `arrays` in place; Adam's (m, v) `moments` too, at step count t >= 1."""
    wd = cfg.weight_decay
    if cfg.optimiser == "sgd":
        for a, g in zip(arrays, grads):
            a -= cfg.lr * (g + wd * a)
        return
    b1, b2, eps = 0.9, 0.999, 1e-8
    for a, g, m, v in zip(arrays, grads, *moments):
        g = g + wd * a
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        a -= cfg.lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)


# ---------------------------------------------------------------------------
# GCN propagation

def gcn_propagation_matrix(g: Graph) -> BlockLaplacian:
    """GCN propagation D^{-1/2} (A + I) D^{-1/2} as a d = 1 block operator.

    D is the degree matrix of A + I, so the diagonal holds 1/(deg+1) and
    edge (u, v) holds 1/sqrt((deg_u+1)(deg_v+1)) (Kipf & Welling, 2017).
    It is applied with `apply`, like every sheaf Laplacian.
    """
    scale = 1.0 / np.sqrt(g.degrees + 1.0)
    us, vs = g.edges[:, 0], g.edges[:, 1]
    return BlockLaplacian(
        n=g.n,
        d=1,
        edges=g.edges,
        diag=(scale ** 2)[:, None],
        off=(scale[us] * scale[vs])[:, None, None],
    )


# ---------------------------------------------------------------------------
# models

class DiffusionModel:
    """The diffusion classifier against one fixed Laplacian; `arrays` is from `init_params`.

    All `steps` layers share the (W1, W2) pair when there is only one (tied weights).
    """

    def __init__(self, lap: BlockLaplacian, arrays, steps: int, activation: str):
        self.lap, self.arrays = lap, arrays
        self.steps, self.activation = steps, activation
        self.act, self.act_grad = _activation(activation)

    def pair_index(self, t: int) -> int:
        """Index of step t's W1 in `arrays`; its W2 follows."""
        return 1 + 2 * (t % (len(self.arrays) // 2 - 1))

    def forward(self, features):
        return forward(self, features)

    def backward(self, cache, dlogits):
        return backward(self, cache, dlogits)


class BaselineModel:
    """Two layers H = act(P X W1) then logits P (H W2); `arrays` is the list [W1, W2].

    P is the GCN propagation matrix, or the identity when `prop` is None,
    which makes this the MLP. P X is reused while the features array is the last one
    and read-only (a dataset's); every other propagation runs at the class width.
    """

    def __init__(self, prop: BlockLaplacian | None, arrays, activation: str):
        self.prop, self.arrays, self.activation = prop, arrays, activation
        self.act, self.act_grad = _activation(activation)
        self._propagated = (None, None)  # (features, P features)

    def _propagate(self, x):
        return x if self.prop is None else apply(self.prop, x)

    def forward(self, features):
        w1, w2 = self.arrays
        if features.flags.writeable or self._propagated[0] is not features:
            self._propagated = (features, self._propagate(features))
        hidden = self.act(self._propagated[1] @ w1)
        return self._propagate(hidden @ w2), (self._propagated[1], hidden)

    def backward(self, cache, dlogits):
        px, hidden = cache
        d_out = self._propagate(dlogits)                        # P^T = P
        d_pre = (d_out @ self.arrays[1].T) * self.act_grad(hidden)
        return [px.T @ d_pre, hidden.T @ d_out]                 # X^T P d_pre = (P X)^T d_pre


# ---------------------------------------------------------------------------
# training loop

def build_sheaf_by_kind(g: Graph, kind: str, d: int, seed: int) -> Sheaf:
    if kind == "connection":
        return build_connection_sheaf(g, d)
    if kind == "trivial":
        return trivial_sheaf(g, d)
    if kind == "rand-edge":
        return random_edge_sheaf(g, d, seed)
    if kind == "rand-node":
        return random_node_sheaf(g, d, seed)
    raise ValueError(f"unknown sheaf kind {kind!r}")


def build_operator(g: Graph, kind: str, cfg: TrainConfig):
    """The fixed operator a model kind trains against: (operator, diagnostics, seconds).

    A sheaf kind gives its sheaf Laplacian, normalised when
    `cfg.use_normalised`; gcn gives the GCN propagation matrix and mlp None.
    The diagnostics are the sheaf build's counters, all zero for every kind
    but connection; `seconds` times the whole build.
    """
    t0 = time.perf_counter()
    op, diagnostics = None, BuildDiagnostics()
    if kind in SHEAF_KINDS:
        sheaf = build_sheaf_by_kind(g, kind, cfg.d, cfg.seed)
        op = sheaf_laplacian(sheaf, g)
        op = normalise(op) if cfg.use_normalised else op
        diagnostics = sheaf.diagnostics
    elif kind == "gcn":
        op = gcn_propagation_matrix(g)
    elif kind != "mlp":
        raise ValueError(f"unknown model kind {kind!r}")
    return op, diagnostics, time.perf_counter() - t0


def train(dataset, kind: str, cfg: TrainConfig, split_index: int = 0, built=None):
    """Train one model on one split; returns (best-val weight arrays, history).

    `kind` selects the sheaf for the diffusion model (connection, trivial,
    rand-edge, rand-node) or one of the baselines (gcn, mlp). `built` is
    `build_operator(dataset.graph, kind, cfg)`'s result, which several
    splits can share; without it `train` builds the operator itself. The
    history carries the build's `sheaf_build_seconds` and `diagnostics`;
    `best_val_acc` and `test_acc_at_best` are its entries at `best_epoch`,
    the first epoch of highest val accuracy, whose weights `train` returns.
    The weights are the model's `arrays`, for every kind. A split with an
    empty part or a label not below the node count raises DataError, a
    training loss that is NaN or above `_LOSS_LIMIT` ln C GuardError.
    """
    cfg.validate()
    g = dataset.graph
    if kind not in SHEAF_KINDS + BASELINE_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if g.labels is None:
        raise ValueError("dataset has no labels")
    split, labels = _trainable_split(dataset, split_index), g.labels
    n_classes = int(labels.max()) + 1

    op, diagnostics, build_seconds = build_operator(g, kind, cfg) if built is None else built
    rng = np.random.default_rng(cfg.seed)
    p, h = g.feature_dim, cfg.hidden
    if kind in SHEAF_KINDS:
        model = DiffusionModel(op, init_params(cfg, p, n_classes, rng), cfg.layers, cfg.activation)
    else:
        ws = [_uniform(rng, (p, h), p), _uniform(rng, (h, n_classes), h)]
        model = BaselineModel(op, ws, cfg.activation)
    moments = [[np.zeros_like(a) for a in model.arrays] for _ in range(2)]  # Adam's m and v

    history = {key: [] for key in EPOCH_KEYS}
    best_epoch, best_arrays = 0, None
    evaluated = None  # (logits, cache) of the last evaluation forward
    for epoch in range(1, cfg.epochs + 1):
        tic = time.perf_counter()
        if cfg.dropout > 0.0:
            keep = rng.random(g.features.shape) >= cfg.dropout
            logits, cache = model.forward(g.features * keep / (1.0 - cfg.dropout))
        elif evaluated is not None:
            logits, cache = evaluated  # same features, same weights: no second forward
        else:
            logits, cache = model.forward(g.features)
        loss, dlogits = cross_entropy_grad(logits, labels, split.train)
        if not loss <= _LOSS_LIMIT * np.log(n_classes):  # also fails NaN; C = 1 gives 0 <= 0
            err = GuardError(f"{kind}: training loss is {loss} at epoch {epoch}")
            err.history = history
            raise err
        grads = model.backward(cache, dlogits)
        _step(model.arrays, grads, cfg, moments, epoch)

        del logits, cache, dlogits, grads, evaluated  # one forward cache alive at a time
        evaluated = model.forward(g.features)
        eval_logits = evaluated[0]
        masks = (split.train, split.val, split.test)
        tr, va, te = (accuracy(eval_logits, labels, m) for m in masks)
        for key, value in zip(EPOCH_KEYS, (epoch, loss, tr, va, te, time.perf_counter() - tic)):
            history[key].append(value)

        if epoch == 1 or va > history["val_acc"][best_epoch - 1]:
            best_epoch, best_arrays = epoch, [a.copy() for a in model.arrays]
        elif 0 < cfg.patience <= epoch - best_epoch:
            break

    for a, b in zip(model.arrays, best_arrays):
        a[...] = b
    history.update(
        best_epoch=best_epoch,
        best_val_acc=history["val_acc"][best_epoch - 1],
        test_acc_at_best=history["test_acc"][best_epoch - 1],
        sheaf_build_seconds=build_seconds,
        mean_epoch_seconds=float(np.mean(history["epoch_seconds"])),
        diagnostics=asdict(diagnostics),
    )
    return model.arrays, history
