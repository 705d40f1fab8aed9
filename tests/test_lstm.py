from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import (
    GRADIENT_REL_TOL,
    gradient_error,
    oracle_lstm_backward,
    oracle_lstm_forward,
)
from larvaecast import lstm
from larvaecast.errors import ConfigError, DataError, DivergenceError, ShapeError
from larvaecast.forecast import ForecastConfig, forecast
from larvaecast.ingest import RegionSeries
from larvaecast.lstm import (
    lstm_backward,
    lstm_forward,
    lstm_init,
    make_windows,
    train_lstm,
)
from larvaecast.nn import mse_loss
from larvaecast.optim import TrainConfig
from larvaecast.preprocess import standardize_rows


def reference_cell(model, x_t, h_prev, c_prev):
    """Hand-stepped re-implementation of the cell equations (test oracle)."""

    def sigmoid(z):
        return 1.0 / (1.0 + np.exp(-z))

    def pre(gate):
        w, u, b = model.gate(gate)
        return w @ x_t + u @ h_prev + b[:, None]

    i = sigmoid(pre("i"))
    f = sigmoid(pre("f"))
    o = sigmoid(pre("o"))
    g = np.tanh(pre("g"))
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def _zero_model(hidden=3, output_len=2):
    model = lstm_init(seed=0, hidden_size=hidden, output_len=output_len,
                      input_dropout_rate=0.0)
    model.params[:] = 0.0
    return model


class TestArchitecture:
    def test_production_parameter_count(self):
        model = lstm_init(seed=0)
        assert model.params.size == 4_682

    def test_prediction_length_matches_head(self):
        model = lstm_init(seed=1)
        pred, _ = lstm_forward(model, np.zeros((20, 1)))
        assert pred.shape == (10, 1)

    def test_forget_bias_starts_at_one(self):
        model = lstm_init(seed=3)
        np.testing.assert_array_equal(model.gate("f")[2], np.ones(32))
        np.testing.assert_array_equal(model.gate("i")[2], np.zeros(32))


class TestLstmCell:
    """The cell equations, read off the cache of short ``lstm_forward`` windows."""

    def test_zero_model_gate_values(self):
        model = _zero_model()
        _, cache = lstm_forward(model, np.zeros((1, 1)))
        np.testing.assert_array_equal(cache.h_final, np.zeros((3, 1)))
        np.testing.assert_array_equal(cache.c[-1], np.zeros((3, 1)))

    def test_zero_weights_halve_cell_state(self):
        """With only the g gate reading x, a first step stores 0.5 * tanh(x)
        in each column's cell; a zero second input adds nothing, and the
        forget gate, sigmoid(0) = 0.5, halves that state."""
        model = _zero_model()
        model.gate("g")[0][:] = 1.0
        window = np.array([[1.6, -2.4, 0.2], [0.0, 0.0, 0.0]])
        _, cache = lstm_forward(model, window, mode="train")
        c0 = cache.c[1]
        np.testing.assert_allclose(c0, np.tile(0.5 * np.tanh(window[0]), (3, 1)))
        np.testing.assert_allclose(cache.c[2], 0.5 * c0)
        np.testing.assert_allclose(cache.h_final, 0.5 * np.tanh(0.5 * c0))

    def test_matches_hand_stepped_reference(self):
        rng = np.random.default_rng(17)
        model = lstm_init(seed=5, hidden_size=4, output_len=2,
                          input_dropout_rate=0.0)
        x = rng.normal(size=(1, 5))
        _, cache = lstm_forward(model, x)
        h_ref, c_ref = reference_cell(model, x, np.zeros((4, 5)), np.zeros((4, 5)))
        np.testing.assert_allclose(cache.h_final, h_ref, atol=1e-12)
        np.testing.assert_allclose(cache.c[-1], c_ref, atol=1e-12)


class TestLstmForward:
    def test_zero_model_predicts_bias(self):
        model = _zero_model(output_len=4)
        pred, _ = lstm_forward(model, np.linspace(-1, 1, 6)[:, None])
        np.testing.assert_array_equal(pred, np.zeros((4, 1)))

    def test_eval_is_pure(self):
        model = lstm_init(seed=9, hidden_size=6, output_len=3)
        window = np.sin(np.arange(8.0))[:, None]
        a, _ = lstm_forward(model, window)
        b, _ = lstm_forward(model, window)
        np.testing.assert_array_equal(a, b)

    def test_unrolls_reference_cell(self):
        model = lstm_init(seed=6, hidden_size=5, output_len=2,
                          input_dropout_rate=0.0)
        window = np.array([0.5, -0.3, 1.2, 0.0])
        h = np.zeros((5, 1))
        c = np.zeros((5, 1))
        for value in window:
            h, c = reference_cell(model, np.array([[value]]), h, c)
        expected = model.head_w @ h + model.head_b[:, None]
        pred, _ = lstm_forward(model, window[:, None])
        np.testing.assert_allclose(pred, expected, atol=1e-12)

    def test_prediction_finite_for_wild_windows(self):
        model = lstm_init(seed=10, hidden_size=8, output_len=3)
        window = np.array([[1e6], [-1e7], [1e5], [0.0], [2e6], [-5e4]])
        pred, _ = lstm_forward(model, window)
        assert np.all(np.isfinite(pred))

    def test_batch_matches_single_columns(self):
        model = lstm_init(seed=14, hidden_size=7, output_len=3)
        windows = np.random.default_rng(14).normal(size=(9, 5))
        batch, _ = lstm_forward(model, windows)
        for col in range(windows.shape[1]):
            single, _ = lstm_forward(model, windows[:, [col]])
            np.testing.assert_allclose(batch[:, [col]], single, rtol=1e-12, atol=0)

    def test_eval_keeps_no_step_cache(self):
        model = lstm_init(seed=15, hidden_size=4, output_len=2, input_dropout_rate=0.0)
        window = np.random.default_rng(15).normal(size=(6, 3))
        target = np.ones((2, 3))
        _, eval_cache = lstm_forward(model, window)
        _, train_cache = lstm_forward(model, window, mode="train")
        eval_stacks = (eval_cache.xh, eval_cache.c, eval_cache.gates, eval_cache.tanh_c)
        train_stacks = (train_cache.xh, train_cache.c, train_cache.gates, train_cache.tanh_c)
        assert not eval_cache.train and train_cache.train
        assert [len(a) for a in eval_stacks] == [1, 1, 1, 1]
        assert [len(a) for a in train_stacks] == [7, 7, 6, 6]
        with pytest.raises(ConfigError, match="train-mode"):
            lstm_backward(model, eval_cache, target)

    def test_hidden_size_beyond_numpy_rejected_before_any_allocation(self):
        with pytest.raises(ConfigError, match=r"^hidden_size=100000000000000000000, "
                                              "output_len=10: too many float64 parameters"):
            lstm_init(0, hidden_size=10**20)

    def test_train_mode_requires_rng(self):
        model = lstm_init(seed=0, hidden_size=3, output_len=2)
        with pytest.raises(ConfigError):
            lstm_forward(model, np.zeros((5, 1)), mode="train")

    def test_one_dimensional_window_rejected(self):
        model = lstm_init(seed=0, hidden_size=3, output_len=2)
        with pytest.raises(ShapeError, match=r"\(steps, batch\)"):
            lstm_forward(model, np.zeros(5))

    def test_thread_safe_shared_inference(self):
        model = lstm_init(seed=11, hidden_size=6, output_len=3)
        windows = [np.cos(np.arange(8.0) + k)[:, None] for k in range(16)]
        expected = [lstm_forward(model, w)[0] for w in windows]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda w: lstm_forward(model, w)[0], windows))
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)


class TestLstmBackward:
    def test_zero_model_zero_target(self):
        model = _zero_model()
        _, cache = lstm_forward(model, np.zeros((4, 1)), mode="train")
        np.testing.assert_array_equal(lstm_backward(model, cache, np.zeros((2, 1))), 0.0)

    def test_head_bias_gradient_formula(self):
        model = lstm_init(seed=12, hidden_size=4, output_len=3,
                          input_dropout_rate=0.0)
        window = np.array([[0.2], [-0.4], [0.6], [0.1], [0.0]])
        target = np.array([[0.5], [-0.5], [0.25]])
        pred, cache = lstm_forward(model, window, mode="train")
        head_b = model.unpack(lstm_backward(model, cache, target))[-1]
        np.testing.assert_allclose(head_b, 2.0 * (pred - target)[:, 0] / 3.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for seed in range(3):
            model = lstm_init(seed=seed, hidden_size=4, output_len=2,
                              input_dropout_rate=0.0)
            window = rng.normal(size=(5, 1))
            target = rng.normal(size=(2, 1))
            _, cache = lstm_forward(model, window, mode="train")
            analytic = lstm_backward(model, cache, target)
            loss = lambda: mse_loss(lstm_forward(model, window)[0], target)
            assert gradient_error(analytic, model.params, loss) < GRADIENT_REL_TOL


class TestStepOracle:
    """``lstm_forward`` and ``lstm_backward`` compute exactly what a plain
    step-by-step cell and BPTT compute (the oracle in conftest)."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(2024)
        sizes = [(32, 20, 8), (32, 20, 4), (1, 1, 1), (40, 25, 9)]
        sizes += [tuple(int(v) for v in rng.integers(1, (41, 26, 10))) for _ in range(40)]
        for k, (hidden, steps, batch) in enumerate(sizes):
            model = lstm_init(seed=k, hidden_size=hidden, output_len=int(rng.integers(1, 11)),
                              lookback=steps)
            model.params += rng.normal(scale=0.3, size=model.params.size)
            window = rng.normal(size=(steps, batch))
            target = rng.normal(size=(model.output_len, batch))
            yield k, model, window, target

    def test_prediction_and_gradient_are_bitwise_equal(self):
        for k, model, window, target in self.cases():
            pred, cache = lstm_forward(model, window, mode="train", rng=np.random.default_rng(k))
            want, want_cache = oracle_lstm_forward(model, window, mode="train",
                                                   rng=np.random.default_rng(k))
            assert pred.tobytes() == want.tobytes()
            grad = lstm_backward(model, cache, target)
            assert grad.tobytes() == oracle_lstm_backward(model, want_cache, target).tobytes()
            assert (lstm_forward(model, window)[0].tobytes()
                    == oracle_lstm_forward(model, window)[0].tobytes())

    def test_training_ends_with_identical_params(self, monkeypatch):
        values = 20.0 + np.sin(np.arange(57.0)) + 0.1 * np.arange(57.0)
        windows = make_windows(series(values), 30)  # 28 windows: three batches of 8, then 4
        cfg = TrainConfig(seed=8, max_epochs=3)
        model, epochs = train_lstm(windows, cfg)
        monkeypatch.setattr(lstm, "lstm_forward", oracle_lstm_forward)
        monkeypatch.setattr(lstm, "lstm_backward", oracle_lstm_backward)
        want, want_epochs = train_lstm(windows, cfg)
        assert epochs == want_epochs == 3
        assert model.params.tobytes() == want.params.tobytes()


def series(values, region_id="west"):
    return RegionSeries(region_id, "summer_tmean", [], np.asarray(values, dtype=float))


def training_pairs(windows, horizon):
    """Standardized (inputs, targets) rows, split as train_lstm splits them."""
    z = standardize_rows(windows, windows.shape[1] - horizon)[0]
    return z[:, :-horizon], z[:, -horizon:]


class TestMakeWindows:
    def test_single_window(self):
        assert make_windows(series(np.arange(30.0)), 30).shape == (1, 30)

    def test_43_year_series_yields_14(self):
        assert make_windows(series(np.arange(43.0)), 30).shape == (14, 30)

    def test_constant_series_guard(self):
        windows = make_windows(series(np.full(30, 7.0)), 30)
        z, mu, sigma = standardize_rows(windows, 20)
        np.testing.assert_array_equal(z, np.zeros((1, 30)))
        assert mu[0, 0] == 7.0 and sigma[0, 0] == 1.0

    def test_retains_inversion_statistics(self):
        values = np.arange(35.0) * 2 + 5
        windows = make_windows(series(values), 30)
        np.testing.assert_array_equal(windows[3], values[3:33])
        z, mu, sigma = standardize_rows(windows, 20)
        assert mu[3, 0] == pytest.approx(values[3:23].mean())
        assert sigma[3, 0] == pytest.approx(values[3:23].std())
        np.testing.assert_allclose(z * sigma + mu, windows)

    def test_too_short_names_series(self):
        with pytest.raises(DataError, match="'tiny'/'summer_tmean'.*needs at least 30"):
            make_windows(series(np.arange(10.0), region_id="tiny"), 30)


class TestTrainLstm:
    def test_learns_linear_continuation(self):
        windows = make_windows(series(3.0 + 0.5 * np.arange(60.0)), 11)
        model, _ = train_lstm(
            windows[:-4],
            TrainConfig(seed=21, max_epochs=400),
            horizon=3,
            hidden_size=8,
            input_dropout_rate=0.0,
        )
        x, y = training_pairs(windows[-4:], 3)
        pred, _ = lstm_forward(model, x.T)
        assert float(np.mean((pred - y.T) ** 2)) < 0.05

    def test_memorizes_single_pair(self):
        windows = make_windows(series(np.sin(np.arange(12.0))), 12)[:1]
        model, _ = train_lstm(
            windows,
            TrainConfig(seed=2, max_epochs=1500),
            horizon=4,
            hidden_size=6,
            input_dropout_rate=0.0,
        )
        x, y = training_pairs(windows, 4)
        pred, _ = lstm_forward(model, x[:1].T)
        assert mse_loss(pred, y[:1].T) < 1e-3

    def test_deterministic(self):
        windows = make_windows(series(np.arange(40.0) * 0.3), 15)
        cfg = TrainConfig(seed=77, max_epochs=30)
        a, _ = train_lstm(windows, cfg, horizon=5, hidden_size=4)
        b, _ = train_lstm(windows, cfg, horizon=5, hidden_size=4)
        np.testing.assert_array_equal(a.params, b.params)

    def test_diverging_run_fails_loudly(self):
        """It stops at the batch that diverged, and numpy warns of nothing:
        the suite turns any warning into a failure."""
        windows = make_windows(series(np.sin(np.arange(30.0))), 12)
        cfg = TrainConfig(seed=0, max_epochs=50, learning_rate=1e300)
        with pytest.raises(DivergenceError, match=r"LSTM.* at batch \d+ of epoch 1$"):
            train_lstm(windows, cfg, horizon=4, hidden_size=4)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ConfigError):
            train_lstm(np.empty((0, 30)), TrainConfig(seed=0))

    def test_inputs_standardized_like_forecast_round_one(self, monkeypatch):
        """The last training window's inputs reach the model exactly as the
        forecast's first round hands the same values to ``predict``."""
        lookback, horizon = 8, 3
        values = np.random.default_rng(5).normal(20.0, 3.0, size=40)
        windows = make_windows(series(values), lookback + horizon)
        trained_on = []

        def recording_forward(model, window, *args, **kwargs):
            trained_on.append(np.array(window))
            return lstm_forward(model, window, *args, **kwargs)

        monkeypatch.setattr(lstm, "lstm_forward", recording_forward)
        train_lstm(windows[-1:], TrainConfig(seed=0, max_epochs=1), horizon=horizon,
                   hidden_size=2, input_dropout_rate=0.0)
        forecast_inputs = []

        def recording_predict(x):
            forecast_inputs.append(x.copy())
            return np.zeros((x.shape[0], horizon))

        forecast(recording_predict, windows[-1:, :lookback],
                 ForecastConfig(lookback=lookback, horizon=horizon, rounds=1))
        np.testing.assert_array_equal(trained_on[0][:, 0], forecast_inputs[0][0])
