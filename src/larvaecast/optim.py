"""Adam, convergence detection and ``fit``, the one epoch loop of both trainers.

Parameters and gradients travel as one flat vector per model, so both
networks share one loop and Adam runs on whole vectors. Training stops
when the relative improvement of the epoch loss over ``PLATEAU_PATIENCE``
epochs falls below ``PLATEAU_TOLERANCE`` (``plateaued``), or at
``max_epochs``; a loss that turns non-finite stops it with
``DivergenceError`` at that batch, before Adam takes the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
PLATEAU_PATIENCE = 50
PLATEAU_TOLERANCE = 1e-4


@dataclass(frozen=True)
class TrainConfig:
    """One training run's settings and the one statement of their rules."""

    seed: int
    batch_size: int = 8
    learning_rate: float = 1e-3
    max_epochs: int = 5000

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer: {self.seed}")
        if self.batch_size < 1:
            raise ConfigError(f"--batch-size must be >= 1: {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:  # false for NaN too
            raise ConfigError(
                f"--learning-rate must be a positive finite number: {self.learning_rate}"
            )
        if self.max_epochs < 1:
            raise ConfigError(f"--max-epochs must be >= 1: {self.max_epochs}")


@dataclass
class AdamState:
    """Adam's two moments of one parameter vector in rows 0 and 1 of ``buffers``;
    rows 2 and 3 are scratch for the update and its denominator."""

    buffers: np.ndarray  # (4, parameter count)
    step_count: int = 0


def init_adam(params: np.ndarray) -> AdamState:
    return AdamState(np.zeros((4, params.size)))


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place.

    The arithmetic is the per-parameter textbook form, in the same order
    (``(1 - beta2) * g * g``, ``lr * m_hat / (sqrt(v_hat) + eps)``), run
    once over the whole vector."""
    if grad.shape != params.shape or state.buffers.shape[1:] != params.shape:
        raise ShapeError(f"gradient {grad.shape} and state must match parameters {params.shape}")
    state.step_count += 1
    t = state.step_count
    m, v, update, denominator = state.buffers
    m *= BETA1
    np.multiply(grad, 1.0 - BETA1, out=update)
    m += update
    v *= BETA2
    np.multiply(grad, 1.0 - BETA2, out=update)
    update *= grad
    v += update
    np.divide(m, 1.0 - BETA1**t, out=update)
    update *= cfg.learning_rate
    np.divide(v, 1.0 - BETA2**t, out=denominator)
    np.sqrt(denominator, out=denominator)
    denominator += EPSILON
    update /= denominator
    params -= update


def plateaued(losses: list[float]) -> bool:
    """Whether the last epoch loss improved on the one ``PLATEAU_PATIENCE``
    epochs before it by less than ``PLATEAU_TOLERANCE`` (relative)."""
    if len(losses) <= PLATEAU_PATIENCE:
        return False
    reference = losses[-PLATEAU_PATIENCE - 1]
    improvement = (reference - losses[-1]) / max(abs(reference), 1e-300)
    return improvement < PLATEAU_TOLERANCE


def epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    """Deterministic per-epoch shuffle, reseeded by epoch index."""
    return np.random.default_rng([seed, 1, epoch]).permutation(n)


def dropout_stream(seed: int) -> np.random.Generator:
    """Dedicated RNG stream for dropout masks during training."""
    return np.random.default_rng([seed, 2])


def fit(params: np.ndarray, step, n: int, cfg: TrainConfig, model: str) -> int:
    """Train the flat vector ``params`` in place with Adam over seeded
    mini-batches of ``n`` rows until the plateau rule fires or
    ``cfg.max_epochs``; returns the number of epochs run.

    ``step(idx, rng)`` returns the summed loss of the rows ``idx`` and the
    gradient of their mean loss, laid out like ``params``; ``rng`` is the
    dropout stream. ``model`` names the network in a ``DivergenceError``.
    """
    state = init_adam(params)
    rng = dropout_stream(cfg.seed)
    losses: list[float] = []  # the mean loss of each epoch
    # A diverging run overflows; the DivergenceError below reports it, not numpy.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.max_epochs):
            order = epoch_order(cfg.seed, epoch, n)
            epoch_loss = 0.0
            for batch, start in enumerate(range(0, n, cfg.batch_size), 1):
                loss, grad = step(order[start : start + cfg.batch_size], rng)
                epoch_loss += loss
                if not math.isfinite(epoch_loss):
                    raise DivergenceError(
                        f"{model} training diverged: loss is {epoch_loss} "
                        f"at batch {batch} of epoch {epoch + 1}"
                    )
                adam_step(params, grad, state, cfg)
            losses.append(epoch_loss / n)
            if plateaued(losses):
                break
    return epoch + 1
