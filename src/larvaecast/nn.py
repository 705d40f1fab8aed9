"""Minimal feed-forward network engine for the larvae abundance regressor.

Everything is plain numpy: Xavier-uniform initialization, a forward pass
with inverted dropout between the dense layers, analytic gradients of
the mean squared error, and a training step for ``optim.fit``. The production
architecture is six hidden layers of 64 relu units feeding one linear
output (21,313 parameters for 6 input features), held in one flat vector
``params`` that ``weights`` and ``biases`` view (see ``FlatParameters``).

Arrays are column-oriented: the one input shape is a (features, batch)
matrix, so one example is a single column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .errors import ConfigError, ShapeError
from .optim import TrainConfig, fit

ABUNDANCE_LAYER_DIMS = (6, 64, 64, 64, 64, 64, 64, 1)
DEFAULT_DROPOUT = 0.2


class FlatParameters:
    """Base of a dataclass model whose parameter arrays are views into one flat
    vector ``params``, end to end in ``shapes()`` order; the layout is worked
    out once, when the constructor packs the arrays into a new vector, which
    pickling and copying go through too."""

    def _pack(self, arrays) -> list[np.ndarray]:
        self.params = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
        shapes = self.shapes()
        bounds = [0, *accumulate(map(math.prod, shapes))]
        self._layout = list(zip(bounds, bounds[1:], shapes))
        return self.unpack(self.params)

    def unpack(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views into ``flat``, a vector laid out like ``params``, one per shape."""
        return [flat[a:b].reshape(s) for a, b, s in self._layout]

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class DenseNetwork(FlatParameters):
    layer_dims: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    dropout_rate: float

    def __post_init__(self):
        views = self._pack(a for layer in zip(self.weights, self.biases) for a in layer)
        self.weights, self.biases = tuple(views[0::2]), tuple(views[1::2])

    def shapes(self) -> list[tuple[int, ...]]:
        """Weight then bias shape per layer."""
        dims = self.layer_dims
        return [s for n, m in zip(dims[:-1], dims[1:]) for s in ((m, n), (m,))]


@dataclass
class ForwardCache:
    activations: list[np.ndarray]
    masks: list[np.ndarray | None]


def xavier(rng: np.random.Generator, fan_out: int, fan_in: int, blocks: int = 1) -> np.ndarray:
    """Glorot-uniform weights in +/- sqrt(6 / (fan_in + fan_out)), shaped
    (blocks * fan_out, fan_in): ``blocks`` same-bound blocks drawn one
    after another."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(blocks * fan_out, fan_in))


def dense_activations(layer_dims) -> list[str]:
    """The activation of each weight layer, the one pattern ``forward`` runs:
    relu on every hidden layer, identity on the output."""
    return ["relu"] * (len(layer_dims) - 2) + ["identity"]


def check_dense(layer_dims: tuple[int, ...], dropout_rate: float) -> None:
    """Raise ConfigError unless ``forward`` can run this architecture."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ConfigError("layer_dims needs at least two positive entries")
    if 8 * sum(m * (n + 1) for n, m in zip(layer_dims, layer_dims[1:])) > np.iinfo(np.intp).max:
        raise ConfigError(f"layer_dims {layer_dims}: too many float64 parameters for numpy")
    if not (0.0 <= dropout_rate < 1.0):
        raise ConfigError("dropout_rate must lie in [0, 1)")


def xavier_init(layer_dims, seed: int, dropout_rate: float = DEFAULT_DROPOUT) -> DenseNetwork:
    """``xavier`` weights, zero biases."""
    layer_dims = tuple(int(d) for d in layer_dims)
    check_dense(layer_dims, dropout_rate)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(xavier(rng, fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return DenseNetwork(
        layer_dims=layer_dims,
        weights=weights,
        biases=biases,
        dropout_rate=float(dropout_rate),
    )


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
    """Run the network: relu on each hidden layer, whose activations get
    inverted dropout in train mode, and a linear output.

    ``x`` is a (features, batch) matrix; the prediction is (outputs, batch).
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode: {mode!r}")
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != net.layer_dims[0]:
        raise ShapeError(f"input must be ({net.layer_dims[0]}, batch), got shape {a.shape}")
    train = mode == "train" and net.dropout_rate > 0
    activations, masks = [a], []
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.maximum(w @ a + b[:, None], 0.0)
        mask = None
        if train:
            a, mask = dropout(a, net.dropout_rate, rng)
        masks.append(mask)
        activations.append(a)
    a = net.weights[-1] @ a + net.biases[-1][:, None]
    activations.append(a)
    return a, ForwardCache(activations, masks)


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
    """Gradient of mse_loss w.r.t. a (rows, batch) prediction and a
    target of the same shape."""
    target = np.asarray(target, dtype=float)
    if pred.ndim != 2 or target.shape != pred.shape:
        raise ShapeError(
            f"prediction and target must share one (rows, batch) shape, "
            f"got {pred.shape} and {target.shape}"
        )
    return 2.0 * (pred - target) / pred.size


def backward(net: DenseNetwork, cache: ForwardCache, target) -> np.ndarray:
    """The gradient of mse_loss in ``params``, as one vector laid out like it.

    Dropout masks recorded during the forward pass are replayed exactly.
    relu's derivative is taken from the kept activation: a kept unit's
    ``relu(z) / keep`` is positive exactly when ``z`` is, and a dropped
    unit's ``da * 0 / keep`` is zero either way.
    """
    keep = 1.0 - net.dropout_rate
    grad = np.empty_like(net.params)
    views = net.unpack(grad)  # weight then bias per layer
    delta = mse_grad(cache.activations[-1], target)
    for layer in range(len(net.weights) - 1, -1, -1):
        np.matmul(delta, cache.activations[layer].T, out=views[2 * layer])
        delta.sum(axis=1, out=views[2 * layer + 1])
        if layer == 0:
            break
        da = net.weights[layer].T @ delta
        mask = cache.masks[layer - 1]
        if mask is not None:
            da = da * mask / keep
        delta = da * (cache.activations[layer] > 0)
    return grad


def train_abundance(
    features,
    targets,
    cfg: TrainConfig,
    layer_dims=ABUNDANCE_LAYER_DIMS,
    dropout_rate: float = DEFAULT_DROPOUT,
) -> tuple[DenseNetwork, int]:
    """Train the regressor on standardized features and log-scaled targets;
    returns the network and the number of epochs run.

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
    if n < cfg.batch_size:
        raise ConfigError(f"training set of {n} rows is below the batch size of {cfg.batch_size}")

    net = xavier_init(layer_dims, cfg.seed, dropout_rate)
    x_all = features.T
    y_all = targets[None, :]

    def step(idx, rng):
        yb = y_all[:, idx]
        pred, cache = forward(net, x_all[:, idx], mode="train", rng=rng)
        return mse_loss(pred, yb) * idx.size, backward(net, cache, yb)

    return net, fit(net.params, step, n, cfg, "abundance network")
