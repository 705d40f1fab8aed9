"""Minimal feed-forward network engine for the larvae abundance regressor.

Everything is plain numpy: Xavier-uniform initialization, a forward pass
with inverted dropout between the dense layers, analytic gradients of
the mean squared error, and an Adam training loop. The production
architecture is six hidden layers of 64 relu units feeding one linear
output (21,313 parameters for 6 input features).

Arrays are column-oriented: a batch is a matrix of shape
(features, batch) so a single example can be passed as a 1-D vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .optim import (
    AdamState,
    PlateauDetector,
    TrainConfig,
    adam_step,
    dropout_stream,
    epoch_order,
    finite_loss,
    init_adam,
)

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

    def copy(self) -> "DenseNetwork":
        return DenseNetwork(
            layer_dims=self.layer_dims,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            activations=self.activations,
            dropout_rate=self.dropout_rate,
        )


@dataclass
class ForwardCache:
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    masks: list[np.ndarray | None]
    squeeze: bool


def xavier_init(
    layer_dims,
    seed: int,
    dropout_rate: float = DEFAULT_DROPOUT,
    activations: tuple[str, ...] | None = None,
) -> DenseNetwork:
    """Glorot-uniform weights in +/- sqrt(6 / (fan_in + fan_out)), zero biases."""
    layer_dims = tuple(int(d) for d in layer_dims)
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ConfigError("layer_dims needs at least two positive entries")
    if not (0.0 <= dropout_rate < 1.0):
        raise ConfigError("dropout_rate must lie in [0, 1)")
    if activations is None:
        activations = ("relu",) * (len(layer_dims) - 2) + ("identity",)
    if len(activations) != len(layer_dims) - 1:
        raise ConfigError("one activation per weight layer required")
    if any(a not in ("relu", "identity") for a in activations):
        raise ConfigError("activations must be 'relu' or 'identity'")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
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
    train = mode == "train"
    if train and net.dropout_rate > 0 and rng is None:
        raise ConfigError("train mode with dropout needs an rng")
    keep = 1.0 - net.dropout_rate
    pre_activations, activations_out, masks = [], [a], []
    n_layers = len(net.weights)
    for layer, (w, b, act) in enumerate(zip(net.weights, net.biases, net.activations)):
        z = w @ a + b[:, None]
        a = np.maximum(z, 0.0) if act == "relu" else z
        pre_activations.append(z)
        if layer < n_layers - 1:
            if train and net.dropout_rate > 0:
                mask = (rng.random(a.shape) >= net.dropout_rate).astype(float)
                a = a * mask / keep
                masks.append(mask)
            else:
                masks.append(None)
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


def backward(net: DenseNetwork, cache: ForwardCache, target) -> list[np.ndarray]:
    """Gradients of mse_loss w.r.t. every parameter, in parameters() order.

    Dropout masks recorded during the forward pass are replayed exactly.
    """
    pred = cache.activations[-1]
    target, _ = _lift(target, net.layer_dims[-1], "target")
    if target.shape != pred.shape:
        raise ShapeError(
            f"target shape {target.shape} does not match prediction {pred.shape}"
        )
    keep = 1.0 - net.dropout_rate
    n_layers = len(net.weights)
    grads: list[np.ndarray | None] = [None] * (2 * n_layers)
    delta = 2.0 * (pred - target) / pred.size
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

    Mini-batches of ``cfg.batch_size`` with a seeded per-epoch shuffle;
    stops on the plateau rule or at ``cfg.max_epochs``. Deterministic
    for a fixed seed and dataset.
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
    params = net.parameters()
    state = init_adam(params)
    mask_rng = dropout_stream(cfg.seed)
    detector = PlateauDetector(cfg.plateau_patience, cfg.plateau_tolerance)

    x_all = features.T
    y_all = targets[None, :]
    for epoch in range(cfg.max_epochs):
        order = epoch_order(cfg.seed, epoch, n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = x_all[:, idx]
            yb = y_all[:, idx]
            pred, cache = forward(net, xb, mode="train", rng=mask_rng)
            epoch_loss += mse_loss(pred, yb) * idx.size
            grads = backward(net, cache, yb)
            adam_step(params, grads, state, cfg)
        if detector.update(finite_loss(epoch_loss / n, "abundance network", epoch)):
            break
    return net
