"""Adam, convergence detection and ``fit``, the one epoch loop of both trainers.

Parameters travel as flat lists of numpy arrays so the dense regressor
and the LSTM share one loop. Training stops when the relative
improvement of the epoch loss over ``plateau_patience`` epochs falls
below ``PLATEAU_TOLERANCE``, or at ``max_epochs``; a non-finite epoch
loss stops it with ``DivergenceError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
PLATEAU_TOLERANCE = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    batch_size: int = 8
    learning_rate: float = 1e-3
    max_epochs: int = 5000
    plateau_patience: int = 50

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.max_epochs < 1 or self.plateau_patience < 1:
            raise ConfigError("max_epochs and plateau_patience must be >= 1")


@dataclass
class AdamState:
    """Adam's moments for a parameter list. ``first_moment`` and
    ``second_moment`` are per-parameter views into rows 0 and 1 of
    ``buffers``; rows 2-4 are scratch for the gradient, the update and its
    denominator, so a step runs on whole rows and allocates nothing."""

    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    buffers: np.ndarray  # (5, total parameter count)
    update: list[np.ndarray]  # per-parameter views into buffers[3]
    step_count: int = 0


def _views(flat: np.ndarray, params: list[np.ndarray]) -> list[np.ndarray]:
    """``flat`` split into one view per parameter, shaped like it."""
    bounds = np.cumsum([0] + [p.size for p in params])
    return [flat[a:b].reshape(p.shape) for a, b, p in zip(bounds[:-1], bounds[1:], params)]


def init_adam(params: list[np.ndarray]) -> AdamState:
    buffers = np.zeros((5, sum(p.size for p in params)))
    return AdamState(
        first_moment=_views(buffers[0], params),
        second_moment=_views(buffers[1], params),
        buffers=buffers,
        update=_views(buffers[3], params),
    )


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place.

    The arithmetic is the per-parameter textbook form, in the same order
    (``(1 - beta2) * g * g``, ``lr * m_hat / (sqrt(v_hat) + eps)``), run
    once over the concatenated gradient."""
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError("parameter, gradient, and state lists must align")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match parameter shape {p.shape}"
            )
    state.step_count += 1
    t = state.step_count
    m, v, g, update, denominator = state.buffers
    np.concatenate([grad.ravel() for grad in grads], out=g)
    m *= BETA1
    np.multiply(g, 1.0 - BETA1, out=update)
    m += update
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=update)
    update *= g
    v += update
    np.divide(m, 1.0 - BETA1**t, out=update)
    update *= cfg.learning_rate
    np.divide(v, 1.0 - BETA2**t, out=denominator)
    np.sqrt(denominator, out=denominator)
    denominator += EPSILON
    update /= denominator
    for p, step in zip(params, state.update):
        p -= step


class PlateauDetector:
    """Halts when the loss improved by less than ``tolerance`` (relative)
    over the last ``patience`` epochs."""

    def __init__(self, patience: int, tolerance: float):
        self.patience = patience
        self.tolerance = tolerance
        self._history: list[float] = []

    def update(self, loss: float) -> bool:
        self._history.append(loss)
        if len(self._history) <= self.patience:
            return False
        reference = self._history[-self.patience - 1]
        improvement = (reference - loss) / max(abs(reference), 1e-300)
        return improvement < self.tolerance


def finite_loss(loss: float, model: str, epoch: int) -> float:
    """The mean epoch loss, checked: a diverged run fails instead of
    training on to ``max_epochs`` and saving a non-finite model."""
    if not math.isfinite(loss):
        raise DivergenceError(
            f"{model} training diverged: mean loss is {loss} at epoch {epoch + 1}"
        )
    return loss


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic per-epoch shuffle, reseeded by epoch index."""
    return np.random.default_rng([seed, 1, epoch]).permutation(n)


def dropout_stream(seed: int) -> np.random.Generator:
    """Dedicated RNG stream for dropout masks during training."""
    return np.random.default_rng([seed, 2])


def fit(params: list[np.ndarray], step, n: int, cfg: TrainConfig, model: str) -> int:
    """Train ``params`` in place with Adam over seeded mini-batches of ``n``
    rows until the plateau rule fires or ``cfg.max_epochs``; returns the
    number of epochs run.

    ``step(idx, rng)`` returns the summed loss of the rows ``idx`` and the
    gradients of their mean loss in ``params`` order; ``rng`` is the
    dropout stream. ``model`` names the network in a ``DivergenceError``.
    """
    state = init_adam(params)
    rng = dropout_stream(cfg.seed)
    detector = PlateauDetector(cfg.plateau_patience, PLATEAU_TOLERANCE)
    for epoch in range(cfg.max_epochs):
        order = epoch_order(cfg.seed, epoch, n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            loss, grads = step(order[start : start + cfg.batch_size], rng)
            epoch_loss += loss
            adam_step(params, grads, state, cfg)
        if detector.update(finite_loss(epoch_loss / n, model, epoch)):
            break
    return epoch + 1
