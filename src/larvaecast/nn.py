"""Minimal feed-forward network engine for the larvae abundance regressor.

Everything is plain numpy: Xavier-uniform initialization, a forward pass
with inverted dropout between the dense layers, analytic gradients of
the mean squared error, and a training step for ``optim.fit``. The production
architecture is six hidden layers of 64 relu units feeding one linear
output (21,313 parameters for 6 input features).

Arrays are column-oriented: a batch is a matrix of shape
(features, batch) so a single example can be passed as a 1-D vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .optim import TrainConfig, fit

ABUNDANCE_LAYER_DIMS = (6, 64, 64, 64, 64, 64, 64, 1)
DEFAULT_DROPOUT = 0.2


@dataclass
class DenseNetwork:
    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: tuple[str, ...]
    dropout_rate: float

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list, alternating weight and bias per layer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())


@dataclass
class ForwardCache:
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    masks: list[np.ndarray | None]
    squeeze: bool


def xavier(rng: np.random.Generator, fan_out: int, fan_in: int, blocks: int = 1) -> np.ndarray:
    """Glorot-uniform weights in +/- sqrt(6 / (fan_in + fan_out)), shaped
    (blocks * fan_out, fan_in): ``blocks`` same-bound blocks drawn one
    after another."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(blocks * fan_out, fan_in))


def check_dense(layer_dims: tuple[int, ...], activations, dropout_rate: float) -> None:
    """Raise ConfigError unless ``forward`` can run this architecture."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ConfigError("layer_dims needs at least two positive entries")
    if not (0.0 <= dropout_rate < 1.0):
        raise ConfigError("dropout_rate must lie in [0, 1)")
    if len(activations) != len(layer_dims) - 1:
        raise ConfigError("one activation per weight layer required")
    if any(a not in ("relu", "identity") for a in activations):
        raise ConfigError("activations must be 'relu' or 'identity'")


def xavier_init(
    layer_dims,
    seed: int,
    dropout_rate: float = DEFAULT_DROPOUT,
    activations: tuple[str, ...] | None = None,
) -> DenseNetwork:
    """``xavier`` weights, zero biases."""
    layer_dims = tuple(int(d) for d in layer_dims)
    if activations is None:
        activations = ("relu",) * (len(layer_dims) - 2) + ("identity",)
    check_dense(layer_dims, activations, dropout_rate)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(xavier(rng, fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return DenseNetwork(
        layer_dims=layer_dims,
        weights=weights,
        biases=biases,
        activations=tuple(activations),
        dropout_rate=float(dropout_rate),
    )


def _lift(x, width: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != width:
        raise ShapeError(f"{what} must have {width} rows, got shape {x.shape}")
    return x, squeeze


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator | None):
    """Inverted dropout: ``x`` with each entry kept with probability
    1 - ``rate`` and scaled by 1 / (1 - rate), and the 0/1 mask drawn."""
    if rng is None:
        raise ConfigError("train mode with dropout needs an rng")
    mask = (rng.random(x.shape) >= rate).astype(float)
    return x * mask / (1.0 - rate), mask


def forward(
    net: DenseNetwork,
    x,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the network; in train mode hidden activations get inverted dropout.

    Accepts a single example (1-D) or a batch as a (features, batch)
    matrix, returning the prediction in the matching shape.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode: {mode!r}")
    a, squeeze = _lift(x, net.layer_dims[0], "input")
    train = mode == "train" and net.dropout_rate > 0
    pre_activations, activations_out, masks = [], [a], []
    n_layers = len(net.weights)
    for layer, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        z = w @ a + b[:, None]
        a = np.maximum(z, 0.0) if act == "relu" else z
        pre_activations.append(z)
        if layer < n_layers - 1:
            mask = None
            if train:
                a, mask = dropout(a, net.dropout_rate, rng)
            masks.append(mask)
        activations_out.append(a)
    cache = ForwardCache(pre_activations, activations_out, masks, squeeze)
    prediction = a[:, 0] if squeeze else a
    return prediction, cache


def mse_loss(pred, target) -> float:
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.size == 0:
        raise ShapeError(
            f"loss needs matching nonempty shapes, got {pred.shape} and {target.shape}"
        )
    diff = pred - target
    return float(np.mean(diff * diff))


def mse_grad(pred: np.ndarray, target) -> np.ndarray:
    """Gradient of mse_loss w.r.t. a (rows, batch) prediction; a 1-D
    target is lifted to one column."""
    target, _ = _lift(target, pred.shape[0], "target")
    if target.shape != pred.shape:
        raise ShapeError(
            f"target shape {target.shape} does not match prediction {pred.shape}"
        )
    return 2.0 * (pred - target) / pred.size


def backward(net: DenseNetwork, cache: ForwardCache, target) -> list[np.ndarray]:
    """Gradients of mse_loss w.r.t. every parameter, in parameters() order.

    Dropout masks recorded during the forward pass are replayed exactly.
    """
    keep = 1.0 - net.dropout_rate
    n_layers = len(net.weights)
    grads: list[np.ndarray | None] = [None] * (2 * n_layers)
    delta = mse_grad(cache.activations[-1], target)
    if net.activations[-1] == "relu":
        delta = delta * (cache.pre_activations[-1] > 0)
    for layer in range(n_layers - 1, -1, -1):
        a_prev = cache.activations[layer]
        grads[2 * layer] = delta @ a_prev.T
        grads[2 * layer + 1] = delta.sum(axis=1)
        if layer == 0:
            break
        da = net.weights[layer].T @ delta
        mask = cache.masks[layer - 1]
        if mask is not None:
            da = da * mask / keep
        if net.activations[layer - 1] == "relu":
            delta = da * (cache.pre_activations[layer - 1] > 0)
        else:
            delta = da
    return grads  # type: ignore[return-value]


def train_abundance(
    features,
    targets,
    cfg: TrainConfig,
    layer_dims=ABUNDANCE_LAYER_DIMS,
    dropout_rate: float = DEFAULT_DROPOUT,
) -> DenseNetwork:
    """Train the regressor on standardized features and log-scaled targets.

    ``optim.fit`` runs mini-batches of ``cfg.batch_size`` with a seeded
    per-epoch shuffle until the plateau rule fires or ``cfg.max_epochs``.
    Deterministic for a fixed seed and dataset.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2 or features.shape[1] != layer_dims[0]:
        raise ShapeError(
            f"features must be (n, {layer_dims[0]}), got {features.shape}"
        )
    if targets.shape != (features.shape[0],):
        raise ShapeError("targets must be a vector matching the feature rows")
    n = features.shape[0]
    if n == 0:
        raise ConfigError("cannot train on an empty dataset")
    if n < cfg.batch_size:
        raise ConfigError(f"need at least {cfg.batch_size} examples, got {n}")

    net = xavier_init(layer_dims, cfg.seed, dropout_rate)
    x_all = features.T
    y_all = targets[None, :]

    def step(idx, rng):
        yb = y_all[:, idx]
        pred, cache = forward(net, x_all[:, idx], mode="train", rng=rng)
        return mse_loss(pred, yb) * idx.size, backward(net, cache, yb)

    fit(net.parameters(), step, n, cfg, "abundance network")
    return net
