"""Univariate LSTM sequence model with backpropagation through time.

A standard LSTM cell (no peepholes) unrolled over a lookback window,
with a dense head mapping the final hidden state to a block of future
steps. The production configuration is 32 units, a 20-step lookback and
a 10-step prediction head: 4,682 parameters. Inverted dropout is applied
to the input sequence in train mode.

Training windows slide over an annual series with stride 1; each pair is
standardized with the statistics of its own input window and keeps them
for inversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .nn import _lift
from .optim import (
    PlateauDetector,
    TrainConfig,
    adam_step,
    dropout_stream,
    epoch_order,
    init_adam,
)
from .preprocess import guard_sigma

GATES = ("i", "f", "o", "g")

FORECAST_HIDDEN_SIZE = 32
FORECAST_LOOKBACK = 20
FORECAST_HORIZON = 10


@dataclass(frozen=True)
class WindowConfig:
    lookback: int = FORECAST_LOOKBACK
    horizon: int = FORECAST_HORIZON

    def __post_init__(self):
        if self.lookback < 1 or self.horizon < 1:
            raise ConfigError("lookback and horizon must be positive")
        if self.horizon > self.lookback:
            raise ConfigError("horizon must not exceed lookback")


@dataclass
class WindowPair:
    """One training pair, standardized by its own input-window statistics."""

    x: np.ndarray
    y: np.ndarray
    mean: float
    std: float


@dataclass
class LstmModel:
    hidden_size: int
    input_size: int
    output_len: int
    lookback: int  # window length the model was trained on
    input_dropout_rate: float
    w: dict[str, np.ndarray]  # gate -> (hidden, input)
    u: dict[str, np.ndarray]  # gate -> (hidden, hidden)
    b: dict[str, np.ndarray]  # gate -> (hidden,)
    head_w: np.ndarray  # (output_len, hidden)
    head_b: np.ndarray  # (output_len,)

    def parameters(self) -> list[np.ndarray]:
        out = []
        for gate in GATES:
            out.extend((self.w[gate], self.u[gate], self.b[gate]))
        out.extend((self.head_w, self.head_b))
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())


def lstm_init(
    seed: int,
    hidden_size: int = FORECAST_HIDDEN_SIZE,
    input_size: int = 1,
    output_len: int = FORECAST_HORIZON,
    input_dropout_rate: float = 0.2,
    lookback: int = FORECAST_LOOKBACK,
) -> LstmModel:
    """Xavier-uniform gate and head weights; forget bias 1, other biases 0."""
    if min(hidden_size, input_size, output_len, lookback) < 1:
        raise ConfigError("model dimensions must be positive")
    if not (0.0 <= input_dropout_rate < 1.0):
        raise ConfigError("input_dropout_rate must lie in [0, 1)")
    rng = np.random.default_rng(seed)

    def xavier(fan_out, fan_in):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=(fan_out, fan_in))

    w = {gate: xavier(hidden_size, input_size) for gate in GATES}
    u = {gate: xavier(hidden_size, hidden_size) for gate in GATES}
    b = {gate: np.zeros(hidden_size) for gate in GATES}
    b["f"] = np.ones(hidden_size)
    return LstmModel(
        hidden_size=hidden_size,
        input_size=input_size,
        output_len=output_len,
        lookback=lookback,
        input_dropout_rate=float(input_dropout_rate),
        w=w,
        u=u,
        b=b,
        head_w=xavier(output_len, hidden_size),
        head_b=np.zeros(output_len),
    )


def _sigmoid(z):
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def lstm_cell(model: LstmModel, x_t, h_prev, c_prev):
    """One step of the standard LSTM cell; batched over columns."""
    x_t, squeeze = _lift(x_t, model.input_size, "cell input")
    h_prev, _ = _lift(h_prev, model.hidden_size, "previous hidden state")
    c_prev, _ = _lift(c_prev, model.hidden_size, "previous cell state")
    gates = {}
    for gate in GATES:
        pre = model.w[gate] @ x_t + model.u[gate] @ h_prev + model.b[gate][:, None]
        gates[gate] = np.tanh(pre) if gate == "g" else _sigmoid(pre)
    c = gates["f"] * c_prev + gates["i"] * gates["g"]
    tanh_c = np.tanh(c)
    h = gates["o"] * tanh_c
    cache = (x_t, h_prev, c_prev, gates, c, tanh_c)
    if squeeze:
        return h[:, 0], c[:, 0], cache
    return h, c, cache


@dataclass
class LstmCache:
    steps: list[tuple]
    h_final: np.ndarray
    prediction: np.ndarray
    squeeze: bool


def lstm_forward(
    model: LstmModel,
    window,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, LstmCache]:
    """Unroll the cell over a standardized window and predict the next block.

    ``window`` is one sequence (1-D, length lookback) or a batch shaped
    (lookback, batch). Train mode applies inverted dropout to the input
    sequence before the recurrence.
    """
    if model.input_size != 1:
        raise ShapeError("sequence forward expects a univariate model")
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode: {mode!r}")
    window = np.asarray(window, dtype=float)
    squeeze = window.ndim == 1
    xs = window[:, None] if squeeze else window
    if xs.ndim != 2:
        raise ShapeError(f"window must be 1-D or 2-D, got shape {window.shape}")
    steps, batch = xs.shape
    if mode == "train" and model.input_dropout_rate > 0:
        if rng is None:
            raise ConfigError("train mode with dropout needs an rng")
        keep = 1.0 - model.input_dropout_rate
        mask = (rng.random(xs.shape) >= model.input_dropout_rate).astype(float)
        xs = xs * mask / keep
    h = np.zeros((model.hidden_size, batch))
    c = np.zeros((model.hidden_size, batch))
    caches = []
    for t in range(steps):
        h, c, cell_cache = lstm_cell(model, xs[t][None, :], h, c)
        caches.append(cell_cache)
    prediction = model.head_w @ h + model.head_b[:, None]
    cache = LstmCache(steps=caches, h_final=h, prediction=prediction, squeeze=squeeze)
    return (prediction[:, 0] if squeeze else prediction), cache


def lstm_backward(model: LstmModel, cache: LstmCache, target) -> list[np.ndarray]:
    """Gradients of mse_loss(prediction, target) via BPTT, in parameters() order."""
    pred = cache.prediction
    target, _ = _lift(target, model.output_len, "target")
    if target.shape != pred.shape:
        raise ShapeError(
            f"target shape {target.shape} does not match prediction {pred.shape}"
        )
    d_pred = 2.0 * (pred - target) / pred.size

    g_w = {gate: np.zeros_like(model.w[gate]) for gate in GATES}
    g_u = {gate: np.zeros_like(model.u[gate]) for gate in GATES}
    g_b = {gate: np.zeros_like(model.b[gate]) for gate in GATES}
    g_head_w = d_pred @ cache.h_final.T
    g_head_b = d_pred.sum(axis=1)

    dh = model.head_w.T @ d_pred
    dc = np.zeros_like(dh)
    for x_t, h_prev, c_prev, gates, c, tanh_c in reversed(cache.steps):
        do = dh * tanh_c
        dc = dc + dh * gates["o"] * (1.0 - tanh_c * tanh_c)
        di = dc * gates["g"]
        dg = dc * gates["i"]
        df = dc * c_prev
        dc_prev = dc * gates["f"]
        d_pre = {
            "i": di * gates["i"] * (1.0 - gates["i"]),
            "f": df * gates["f"] * (1.0 - gates["f"]),
            "o": do * gates["o"] * (1.0 - gates["o"]),
            "g": dg * (1.0 - gates["g"] * gates["g"]),
        }
        dh_prev = np.zeros_like(dh)
        for gate in GATES:
            g_w[gate] += d_pre[gate] @ x_t.T
            g_u[gate] += d_pre[gate] @ h_prev.T
            g_b[gate] += d_pre[gate].sum(axis=1)
            dh_prev += model.u[gate].T @ d_pre[gate]
        dh = dh_prev
        dc = dc_prev

    grads = []
    for gate in GATES:
        grads.extend((g_w[gate], g_u[gate], g_b[gate]))
    grads.extend((g_head_w, g_head_b))
    return grads


def make_windows(series, cfg: WindowConfig, name: str = "series") -> list[WindowPair]:
    """All maximal stride-1 sliding (input, target) pairs of a series.

    Accepts a raw value sequence or any object with ``values`` (and
    optionally ``region_id``) attributes. Each pair is standardized with
    the population statistics of its own input window.
    """
    if hasattr(series, "values"):
        name = getattr(series, "region_id", name)
        variable = getattr(series, "variable", None)
        if variable:
            name = f"{name}/{variable}"
        values = np.asarray(series.values, dtype=float)
    else:
        values = np.asarray(series, dtype=float)
    span = cfg.lookback + cfg.horizon
    if values.size < span:
        raise DataError(
            f"series {name!r} has {values.size} values; "
            f"windows need at least {span}"
        )
    pairs = []
    for start in range(values.size - span + 1):
        x = values[start : start + cfg.lookback]
        y = values[start + cfg.lookback : start + span]
        mean = float(x.mean())
        std = guard_sigma(float(x.std()))
        pairs.append(
            WindowPair(x=(x - mean) / std, y=(y - mean) / std, mean=mean, std=std)
        )
    return pairs


def train_lstm(
    pairs: list[WindowPair],
    cfg: TrainConfig,
    hidden_size: int = FORECAST_HIDDEN_SIZE,
    input_dropout_rate: float = 0.2,
) -> LstmModel:
    """Train on standardized window pairs; same optimizer, batching, and
    plateau rule as the dense trainer. Deterministic for a fixed seed."""
    if not pairs:
        raise ConfigError("cannot train on an empty window set")
    lookback = pairs[0].x.size
    horizon = pairs[0].y.size
    if any(p.x.size != lookback or p.y.size != horizon for p in pairs):
        raise ShapeError("all window pairs must share lookback and horizon")
    xs = np.stack([p.x for p in pairs], axis=1)  # (lookback, n)
    ys = np.stack([p.y for p in pairs], axis=1)  # (horizon, n)
    n = len(pairs)

    model = lstm_init(
        cfg.seed,
        hidden_size=hidden_size,
        output_len=horizon,
        input_dropout_rate=input_dropout_rate,
        lookback=lookback,
    )
    params = model.parameters()
    state = init_adam(params)
    mask_rng = dropout_stream(cfg.seed)
    detector = PlateauDetector(cfg.plateau_patience, cfg.plateau_tolerance)

    for epoch in range(cfg.max_epochs):
        order = epoch_order(cfg.seed, epoch, n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = xs[:, idx]
            yb = ys[:, idx]
            pred, cache = lstm_forward(model, xb, mode="train", rng=mask_rng)
            diff = pred - yb
            epoch_loss += float(np.mean(diff * diff)) * idx.size
            grads = lstm_backward(model, cache, yb)
            adam_step(params, grads, state, cfg)
        if detector.update(epoch_loss / n):
            break
    return model
