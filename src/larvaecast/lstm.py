"""Univariate LSTM sequence model with backpropagation through time.

A standard LSTM cell (no peepholes) unrolled over a lookback window,
with a dense head mapping the final hidden state to a block of future
steps. The production configuration is 32 units, a 20-step lookback and
a 10-step prediction head: 4,682 parameters. Inverted dropout is applied
to the input sequence in train mode.

The gates are fused: one (4 * hidden, input + hidden) weight matrix acts
on the stacked column [x_t; h_prev], plus one (4 * hidden,) bias, in row
blocks of gate order i, f, o, g (``GATES``). A step is one matmul forward
and one ``U^T @ d_pre`` backward; ``LstmModel.gate`` returns one gate's
(w, u, b) views, which the per-gate document fields are written from.
All four arrays view one flat ``params`` (see ``nn.FlatParameters``).

The model is univariate, and its one input shape is a (steps, batch)
matrix: one window per column. Training windows are the raw stride-1
windows of an annual series; ``train_lstm`` z-scores each by its inputs
through ``preprocess.standardize_rows``, as the forecast roll does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .forecast import require_window
from .nn import FlatParameters, dropout, mse_grad, mse_loss, xavier
from .optim import TrainConfig, fit
from .preprocess import standardize_rows

GATES = ("i", "f", "o", "g")

FORECAST_HIDDEN_SIZE = 32
FORECAST_LOOKBACK = 20
FORECAST_HORIZON = 10


@dataclass
class LstmModel(FlatParameters):
    hidden_size: int
    output_len: int
    lookback: int  # window length the model was trained on
    input_dropout_rate: float
    weights: np.ndarray  # (4 * hidden, 1 + hidden), acts on [x_t; h_prev]
    bias: np.ndarray  # (4 * hidden,)
    head_w: np.ndarray  # (output_len, hidden)
    head_b: np.ndarray  # (output_len,)

    def __post_init__(self):
        arrays = (self.weights, self.bias, self.head_w, self.head_b)
        self.weights, self.bias, self.head_w, self.head_b = self._pack(arrays)

    def shapes(self) -> list[tuple[int, ...]]:
        n, out = self.hidden_size, self.output_len
        return [(4 * n, 1 + n), (4 * n,), (out, n), (out,)]

    def gate(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of one gate's w (hidden, 1), u (hidden, hidden) and b (hidden,)."""
        k = GATES.index(name)
        block = self.weights.reshape(len(GATES), self.hidden_size, -1)[k]
        bias = self.bias.reshape(len(GATES), self.hidden_size)[k]
        return block[:, :1], block[:, 1:], bias


def check_lstm(hidden_size: int, output_len: int, lookback: int, input_dropout_rate: float):
    """Raise ConfigError unless sizes are positive and dropout lies in [0, 1)."""
    if min(hidden_size, output_len, lookback) < 1:
        raise ConfigError("model dimensions must be positive")
    if not (0.0 <= input_dropout_rate < 1.0):
        raise ConfigError("input_dropout_rate must lie in [0, 1)")


def lstm_init(
    seed: int,
    hidden_size: int = FORECAST_HIDDEN_SIZE,
    output_len: int = FORECAST_HORIZON,
    input_dropout_rate: float = 0.2,
    lookback: int = FORECAST_LOOKBACK,
) -> LstmModel:
    """Xavier-uniform gate and head weights; forget bias 1, other biases 0."""
    check_lstm(hidden_size, output_len, lookback, input_dropout_rate)
    rng = np.random.default_rng(seed)
    gates = len(GATES)
    return LstmModel(
        hidden_size=hidden_size,
        output_len=output_len,
        lookback=lookback,
        input_dropout_rate=float(input_dropout_rate),
        weights=np.hstack(
            [xavier(rng, hidden_size, 1, gates),
             xavier(rng, hidden_size, hidden_size, gates)]
        ),
        bias=np.repeat([1.0 if gate == "f" else 0.0 for gate in GATES], hidden_size),
        head_w=xavier(rng, output_len, hidden_size),
        head_b=np.zeros(output_len),
    )


def lstm_cell(model: LstmModel, x_t, h_prev, c_prev):
    """One step of the standard LSTM cell on (1, batch) inputs and
    (hidden, batch) states: h, c and the backprop cache (xh, c_prev,
    gates, tanh_c), with xh = [x_t; h_prev] and gates the activated
    (4 * hidden, batch) i, f, o, g blocks."""
    n = model.hidden_size
    xh = np.concatenate((x_t, h_prev))
    gates = model.weights @ xh
    gates += model.bias[:, None]
    gates[: 3 * n] *= 0.5  # sigmoid(z) = 0.5 * (1 + tanh(z / 2)): one tanh for all
    np.tanh(gates, out=gates)
    gates[: 3 * n] += 1.0
    gates[: 3 * n] *= 0.5
    i, f, o, g = gates.reshape(len(GATES), n, -1)
    c = f * c_prev + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    return h, c, (xh, c_prev, gates, tanh_c)


@dataclass
class LstmCache:
    steps: list[tuple] | None  # per-step lstm_cell caches; None in eval mode
    h_final: np.ndarray
    prediction: np.ndarray


def lstm_forward(
    model: LstmModel,
    window,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, LstmCache]:
    """Unroll the cell over standardized windows and predict the next block.

    ``window`` is a (steps, batch) matrix, one sequence per column; the
    prediction is (output_len, batch). Train mode applies inverted dropout
    to the input sequence before the recurrence and keeps the per-step
    activations for ``lstm_backward``; eval mode keeps none.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode: {mode!r}")
    xs = np.asarray(window, dtype=float)
    if xs.ndim != 2:
        raise ShapeError(f"window must be (steps, batch), got shape {xs.shape}")
    train = mode == "train"
    if train and model.input_dropout_rate > 0:
        xs = dropout(xs, model.input_dropout_rate, rng)[0]
    h = np.zeros((model.hidden_size, xs.shape[1]))
    c = np.zeros_like(h)
    steps = [] if train else None
    for x_t in xs:
        h, c, step = lstm_cell(model, x_t[None, :], h, c)
        if train:
            steps.append(step)
    prediction = model.head_w @ h + model.head_b[:, None]
    return prediction, LstmCache(steps=steps, h_final=h, prediction=prediction)


def lstm_backward(model: LstmModel, cache: LstmCache, target) -> np.ndarray:
    """The gradient of mse_loss(prediction, target) in ``params`` via BPTT,
    as one vector laid out like it, from a train-mode cache; an eval-mode
    cache is a ConfigError."""
    if cache.steps is None:
        raise ConfigError("lstm_backward needs the cache of a train-mode forward")
    d_pred = mse_grad(cache.prediction, target)

    n = model.hidden_size
    u_t = model.weights[:, 1:].T
    grad = np.zeros_like(model.params)
    g_weights, g_bias, g_head_w, g_head_b = model.unpack(grad)
    np.matmul(d_pred, cache.h_final.T, out=g_head_w)
    d_pred.sum(axis=1, out=g_head_b)
    dh = model.head_w.T @ d_pred
    dc = np.zeros_like(dh)
    for xh, c_prev, gates, tanh_c in reversed(cache.steps):
        i, f, o, g = gates.reshape(len(GATES), n, -1)
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        d_pre = np.concatenate((dc * g, dc * c_prev, dh * tanh_c, dc * i))
        d_pre[: 3 * n] *= gates[: 3 * n] * (1.0 - gates[: 3 * n])
        d_pre[3 * n :] *= 1.0 - g * g
        g_weights += d_pre @ xh.T
        g_bias += d_pre.sum(axis=1)
        dh = u_t @ d_pre
        dc = dc * f
    return grad


def make_windows(series, width: int) -> np.ndarray:
    """The raw stride-1 windows of ``width`` values over a series' values,
    as an (n, width) array; a series shorter than ``width`` is a DataError
    naming its region and variable (see ``forecast.require_window``)."""
    require_window(series, width)
    return np.lib.stride_tricks.sliding_window_view(
        np.asarray(series.values, dtype=float), width
    )


def train_lstm(
    windows,
    cfg: TrainConfig,
    horizon: int = FORECAST_HORIZON,
    hidden_size: int = FORECAST_HIDDEN_SIZE,
    input_dropout_rate: float = 0.2,
) -> tuple[LstmModel, int]:
    """Train through ``optim.fit``, the dense trainer's loop, on raw
    (n, lookback + horizon) windows: each row's first ``lookback`` values
    are the input and its last ``horizon`` the target, both z-scored by
    the input's statistics. Returns the model and the number of epochs
    run. Deterministic for a fixed seed."""
    if len(windows) == 0:
        raise ConfigError("cannot train on an empty window set")
    lookback = np.shape(windows)[1] - horizon
    model = lstm_init(
        cfg.seed,
        hidden_size=hidden_size,
        output_len=horizon,
        input_dropout_rate=input_dropout_rate,
        lookback=lookback,
    )
    z = standardize_rows(windows, lookback)[0]
    xs = z[:, :lookback].T  # (lookback, n)
    ys = z[:, lookback:].T  # (horizon, n)

    def step(idx, rng):
        yb = ys[:, idx]
        pred, cache = lstm_forward(model, xs[:, idx], mode="train", rng=rng)
        return mse_loss(pred, yb) * idx.size, lstm_backward(model, cache, yb)

    return model, fit(model.params, step, len(z), cfg, "LSTM")
