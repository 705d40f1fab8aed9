"""Univariate LSTM sequence model with backpropagation through time.

A standard LSTM cell (no peepholes) unrolled over a lookback window,
with a dense head mapping the final hidden state to a block of future
steps. The production configuration is 32 units, a 20-step lookback and
a 10-step prediction head: 4,682 parameters. Inverted dropout is applied
to the input sequence in train mode.

The gates are fused: one (4 * hidden, input + hidden) weight matrix acts
on the stacked column [x_t; h_prev], plus one (4 * hidden,) bias, in row
blocks of gate order i, f, o, g (``GATES``). ``LstmModel.gate`` returns
one gate's (w, u, b) views, which the per-gate document fields are
written from. All four arrays view one flat ``params`` (see
``nn.FlatParameters``), and their shapes are the model's only sizes: the
``hidden_size`` and ``output_len`` properties read ``head_w``'s shape.

The step loops allocate no array memory: ``lstm_forward`` writes every
step into (steps, rows, batch) stacks made once per call (eval mode
reuses one step's slot), and ``lstm_backward`` forms the weight and bias
gradients from its stack of gate gradients after its loop. The arithmetic
is that of a plain step-by-step cell, bit for bit (``tests/conftest.py``
keeps one as the oracle).

The model is univariate, and its one input shape is a (steps, batch)
matrix: one window per column. Training windows are the raw stride-1
windows of an annual series; ``train_lstm`` z-scores each by its inputs
through ``preprocess.standardize_rows``, as the forecast roll does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

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
FORECAST_INPUT_DROPOUT = 0.2


@dataclass
class LstmModel(FlatParameters):
    lookback: int  # window length the model was trained on
    input_dropout_rate: float
    weights: np.ndarray  # (4 * hidden, 1 + hidden), acts on [x_t; h_prev]
    bias: np.ndarray  # (4 * hidden,)
    head_w: np.ndarray  # (output_len, hidden)
    head_b: np.ndarray  # (output_len,)

    def __post_init__(self):
        arrays = (self.weights, self.bias, self.head_w, self.head_b)
        self.weights, self.bias, self.head_w, self.head_b = self._pack(arrays)

    @property
    def hidden_size(self) -> int:
        return self.head_w.shape[1]

    @property
    def output_len(self) -> int:
        return self.head_w.shape[0]

    def gate(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of one gate's w (hidden, 1), u (hidden, hidden) and b (hidden,)."""
        k = GATES.index(name)
        block = self.weights.reshape(len(GATES), self.hidden_size, -1)[k]
        bias = self.bias.reshape(len(GATES), self.hidden_size)[k]
        return block[:, :1], block[:, 1:], bias


def check_lstm(hidden_size: int, output_len: int, lookback: int, input_dropout_rate: float):
    """Raise ConfigError unless sizes are positive and addressable and dropout lies in [0, 1)."""
    if min(hidden_size, output_len, lookback) < 1:
        raise ConfigError(f"sizes must be positive: {hidden_size=}, {output_len=}, {lookback=}")
    count = 4 * hidden_size * (hidden_size + 2) + output_len * (hidden_size + 1)
    if 8 * count > np.iinfo(np.intp).max:
        raise ConfigError(f"{hidden_size=}, {output_len=}: too many float64 parameters for numpy")
    if not (0.0 <= input_dropout_rate < 1.0):
        raise ConfigError("input_dropout_rate must lie in [0, 1)")


def lstm_init(
    seed: int,
    hidden_size: int = FORECAST_HIDDEN_SIZE,
    output_len: int = FORECAST_HORIZON,
    input_dropout_rate: float = FORECAST_INPUT_DROPOUT,
    lookback: int = FORECAST_LOOKBACK,
) -> LstmModel:
    """Xavier-uniform gate and head weights; forget bias 1, other biases 0."""
    check_lstm(hidden_size, output_len, lookback, input_dropout_rate)
    rng = np.random.default_rng(seed)
    gates = len(GATES)
    return LstmModel(
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


@dataclass
class LstmCache:
    """What ``lstm_forward`` leaves for ``lstm_backward``: stacks over the
    steps in train mode, one step's slot in eval mode.

    ``xh[t]`` is the cell input ``[x_t; h_{t-1}]`` and ``xh[-1, 1:]`` the
    final hidden state; ``c[t]`` is the cell state before step ``t`` and
    ``c[-1]`` the final one; ``gates[t]`` holds the activated i, f, o, g
    blocks and ``tanh_c[t]`` the tanh of the new cell state. Train mode
    keeps ``steps + 1`` slots of ``xh`` and ``c`` and ``steps`` of the
    rest; eval mode overwrites one slot of each."""

    train: bool
    xh: np.ndarray  # (slots, 1 + hidden, batch)
    c: np.ndarray  # (slots, hidden, batch)
    gates: np.ndarray  # (slots, 4 * hidden, batch)
    tanh_c: np.ndarray  # (slots, hidden, batch)
    prediction: np.ndarray

    @property
    def h_final(self) -> np.ndarray:
        return self.xh[-1, 1:]


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
        xs = dropout(xs, model.input_dropout_rate, rng)
    steps, batch = xs.shape
    n = model.hidden_size
    # sigmoid(z) = 0.5 * (1 + tanh(z / 2)): halving the i, f, o rows of the
    # weights and bias (exact in binary) lets one tanh activate all four gates.
    weights = model.weights.copy()
    weights[: 3 * n] *= 0.5
    bias = np.repeat(model.bias[:, None], batch, axis=1)
    bias[: 3 * n] *= 0.5
    slots = steps if train else 1
    xh = np.zeros((slots + train, 1 + n, batch))
    c = np.zeros((slots + train, n, batch))
    gates = np.empty((slots, 4 * n, batch))
    tanh_c = np.empty((slots, n, batch))
    # Each step's slots, with h and c written to the next step's; eval
    # mode keeps one slot and overwrites it in place.
    stacks = (xh, xh[train:, 1:], c, c[train:], gates, gates[:, : 3 * n],
              gates.reshape(slots, len(GATES), n, batch), tanh_c)
    slot_views = zip(*stacks) if train else repeat(tuple(a[0] for a in stacks))
    scratch = np.empty((n, batch))
    for x_t, (xh_t, h_t, c_prev, c_t, gates_t, sigmoids, (i, f, o, g), tanh_c_t) in zip(
        xs, slot_views
    ):
        xh_t[0] = x_t
        np.matmul(weights, xh_t, out=gates_t)
        gates_t += bias
        np.tanh(gates_t, out=gates_t)
        sigmoids += 1.0
        sigmoids *= 0.5
        np.multiply(f, c_prev, out=c_t)
        np.multiply(i, g, out=scratch)
        c_t += scratch
        np.tanh(c_t, out=tanh_c_t)
        np.multiply(o, tanh_c_t, out=h_t)
    prediction = model.head_w @ xh[-1, 1:] + model.head_b[:, None]
    return prediction, LstmCache(train, xh, c, gates, tanh_c, prediction)


def lstm_backward(model: LstmModel, cache: LstmCache, target) -> np.ndarray:
    """The gradient of mse_loss(prediction, target) in ``params`` via BPTT,
    as one vector laid out like it, from a train-mode cache; an eval-mode
    cache is a ConfigError.

    The weight and bias gradients are summed from the stack of gate
    gradients after the loop, latest step first from ``initial=0.0``, as a
    per-step accumulation into zeros adds them, down to the sign of a zero."""
    if not cache.train:
        raise ConfigError("lstm_backward needs the cache of a train-mode forward")
    d_pred = mse_grad(cache.prediction, target)

    n = model.hidden_size
    xh, c, gates, tanh_c = cache.xh, cache.c, cache.gates, cache.tanh_c
    steps, _, batch = gates.shape
    grad = np.zeros_like(model.params)
    g_weights, g_bias, g_head_w, g_head_b = model.unpack(grad)
    np.matmul(d_pred, cache.h_final.T, out=g_head_w)
    d_pred.sum(axis=1, out=g_head_b)

    # d_pre starts as every step's activation derivatives, sigmoid' =
    # a * (1 - a) on the i, f, o rows and tanh' = 1 - g * g on the g rows;
    # the loop multiplies each step's slot by the gradient reaching it.
    d_pre = 1.0 - gates
    d_pre[:, : 3 * n] *= gates[:, : 3 * n]
    np.multiply(gates[:, 3 * n :], gates[:, 3 * n :], out=d_pre[:, 3 * n :])
    np.subtract(1.0, d_pre[:, 3 * n :], out=d_pre[:, 3 * n :])
    d_tanh_c = tanh_c * tanh_c
    np.subtract(1.0, d_tanh_c, out=d_tanh_c)

    u_t = model.weights[:, 1:].T
    dh = model.head_w.T @ d_pred
    dc = np.zeros_like(dh)
    d_cell = np.empty_like(dh)
    d_gates = np.empty((4 * n, batch))
    d_i, d_f, d_o, d_g = d_gates.reshape(len(GATES), n, batch)
    latest_first = zip(d_pre[::-1], gates.reshape(steps, len(GATES), n, batch)[::-1],
                       c[-2::-1], tanh_c[::-1], d_tanh_c[::-1])
    for d_pre_t, (i, f, o, g), c_prev, tanh_c_t, d_tanh_c_t in latest_first:
        np.multiply(dh, o, out=d_cell)
        d_cell *= d_tanh_c_t
        dc += d_cell
        np.multiply(dc, g, out=d_i)
        np.multiply(dc, c_prev, out=d_f)
        np.multiply(dh, tanh_c_t, out=d_o)
        np.multiply(dc, i, out=d_g)
        d_pre_t *= d_gates
        np.matmul(u_t, d_pre_t, out=dh)
        dc *= f
    np.add.reduce(np.matmul(d_pre, xh[:-1].transpose(0, 2, 1))[::-1], axis=0,
                  initial=0.0, out=g_weights)
    np.add.reduce(d_pre.sum(axis=2)[::-1], axis=0, initial=0.0, out=g_bias)
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
    input_dropout_rate: float = FORECAST_INPUT_DROPOUT,
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
