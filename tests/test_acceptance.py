"""Acceptance suite: one test per release criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion. The end-to-end criteria reuse the session-scoped
pipeline run; the byte-identity check performs a second full run.
"""

import filecmp
import math
from contextlib import contextmanager

import numpy as np
import pytest

import test_forecast
from conftest import run_pipeline
from larvaecast import synth
from larvaecast.forecast import ForecastConfig, forecast
from larvaecast.lstm import lstm_backward, lstm_forward, lstm_init
from larvaecast.nn import (
    ABUNDANCE_LAYER_DIMS,
    backward,
    forward,
    mse_loss,
    xavier_init,
)
from larvaecast.pipeline import FORECAST_CSV, PipelineConfig, cmd_prepare
from larvaecast.preprocess import LogCountTransform, fit_scaler
from larvaecast.serialize import (
    deserialize_lstm,
    deserialize_network,
    serialize_lstm,
    serialize_network,
)
from larvaecast.stats import correlation_p_value
from larvaecast.trend import FIT_START, TrendParams, estimate_k, eval_trend, fit_trend

GRADIENT_STEP = 1e-5
GRADIENT_REL_TOL = 1e-4


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def central_differences(params, loss):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat_p, flat_g = p.ravel(), g.ravel()
        for k in range(flat_p.size):
            orig = flat_p[k]
            flat_p[k] = orig + GRADIENT_STEP
            plus = loss()
            flat_p[k] = orig - GRADIENT_STEP
            minus = loss()
            flat_p[k] = orig
            flat_g[k] = (plus - minus) / (2 * GRADIENT_STEP)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_criterion_1_architecture_fidelity():
    with criterion(1, "abundance network has 21,313 parameters; LSTM has 4,682"):
        assert xavier_init(ABUNDANCE_LAYER_DIMS, seed=0).parameter_count() == 21_313
        assert lstm_init(seed=0).parameter_count() == 4_682


def test_criterion_2_gradient_correctness():
    with criterion(2, "analytic gradients match central differences (rel 1e-4)"):
        rng = np.random.default_rng(2024)
        for case in range(20):
            hidden = int(rng.integers(4, 10))
            net = xavier_init([6, hidden, hidden, 1], seed=case, dropout_rate=0.0)
            x = rng.normal(size=(6, 1))
            target = rng.normal(size=(1, 1))
            _, cache = forward(net, x)
            analytic = backward(net, cache, target)
            numeric = central_differences(
                net.parameters(), lambda: mse_loss(forward(net, x)[0], target)
            )
            assert max_relative_error(analytic, numeric) < GRADIENT_REL_TOL

        for case in range(20):
            model = lstm_init(
                seed=500 + case, hidden_size=3, output_len=2, input_dropout_rate=0.0
            )
            window = rng.normal(size=(5, 1))
            target = rng.normal(size=(2, 1))
            _, cache = lstm_forward(model, window, mode="train")
            analytic = lstm_backward(model, cache, target)
            numeric = central_differences(
                model.parameters(),
                lambda: mse_loss(lstm_forward(model, window)[0], target),
            )
            assert max_relative_error(analytic, numeric) < GRADIENT_REL_TOL


def test_criterion_3_forecast_oracle_equivalence():
    with criterion(3, "recursive forecaster matches the straight-line reference"):
        cfg = ForecastConfig(lookback=6, horizon=3, rounds=4)
        rng = np.random.default_rng(31337)
        for case in range(100):
            mock = test_forecast.linear_mock(case, 6, 3)
            windows = rng.normal(15.0, 5.0, size=(2, 6))
            mine = forecast(mock, windows, cfg)
            reference = test_forecast.reference_forecast(mock, windows, 6, 3, 4)
            np.testing.assert_array_equal(mine, reference)


def test_criterion_4_offset_optimality():
    with criterion(4, "median offset is MAE-optimal against exhaustive grid search"):
        rng = np.random.default_rng(404)
        for _ in range(100):
            n = int(rng.integers(3, 50))
            diffs = rng.uniform(0.0, 5.0, size=n)
            mean_series = rng.uniform(10.0, 30.0, size=n)
            k = estimate_k(mean_series, mean_series - diffs, "min")
            grid = np.arange(diffs.min(), diffs.max() + 1e-4, 1e-4)
            grid_mae = np.mean(np.abs(diffs[None, :] - grid[:, None]), axis=1)
            assert np.mean(np.abs(diffs - k)) <= float(grid_mae.min()) + 1e-4


def test_criterion_5_correlation_statistics():
    with criterion(5, "published significance values reproduced by the p machinery"):
        p_validation = correlation_p_value(0.489, 35, "one")
        assert abs(p_validation - 1.44e-3) / 1.44e-3 < 0.05
        p_training = correlation_p_value(0.888, 131, "one")
        assert abs(math.log10(p_training) - (-44.9)) <= 1.0


def test_criterion_6_trend_fit_recovery():
    with criterion(6, "trend fit recovers noiseless parameters within 10%"):
        truth = TrendParams(*FIT_START, phi=15.0)
        series = eval_trend(truth, np.arange(43.0))
        fitted, sse = fit_trend(series)
        assert sse < 1e-6
        for name in ("lam", "alpha", "theta", "gamma", "beta", "phi"):
            value, expected = getattr(fitted, name), getattr(truth, name)
            assert abs(value - expected) <= 0.1 * abs(expected) + 1e-9


def test_criterion_7_pipeline_end_to_end(pipeline_run, tmp_path_factory):
    with criterion(7, "pipeline learns the planted signal; reruns are byte-identical"):
        assert pipeline_run.abundance_report["train"]["r"] >= 0.85

        import csv

        with (pipeline_run.out_dir / FORECAST_CSV).open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        per_key: dict = {}
        for row in rows:
            key = (row["region_id"], row["variable"])
            per_key[key] = per_key.get(key, 0) + 1
        expected = 10 * 3  # horizon * rounds
        assert per_key and all(count == expected for count in per_key.values())

        rerun = run_pipeline(pipeline_run.data, tmp_path_factory.mktemp("rerun"))
        artifacts = sorted(p.name for p in pipeline_run.out_dir.iterdir())
        assert artifacts == sorted(p.name for p in rerun.out_dir.iterdir())
        for name in artifacts:
            assert filecmp.cmp(
                pipeline_run.out_dir / name, rerun.out_dir / name, shallow=False
            ), f"artifact {name} differs between identically seeded runs"


def test_criterion_8_round_trips(tmp_path):
    with criterion(8, "serialization, scaler, and ingestion round trips are exact"):
        net = xavier_init(ABUNDANCE_LAYER_DIMS, seed=8)
        restored = deserialize_network(serialize_network(net))
        for a, b in zip(net.parameters(), restored.parameters()):
            np.testing.assert_array_equal(a, b)

        model = lstm_init(seed=8)
        restored_lstm = deserialize_lstm(serialize_lstm(model))
        for a, b in zip(model.parameters(), restored_lstm.parameters()):
            np.testing.assert_array_equal(a, b)

        rng = np.random.default_rng(88)
        values = rng.normal(5.0, 3.0, size=(60, 4))
        scaler = fit_scaler(values)
        assert np.max(np.abs(scaler.inverse_transform(scaler.transform(values)) - values)) < 1e-12
        transform = LogCountTransform()
        counts = np.array([0.0, 1.0, 10.0, 1234.0])
        assert np.max(np.abs(transform.inverse(transform.transform(counts)) - counts)) < 1e-12

        paths = synth.write_prepare_fixture(tmp_path / "fixture")
        cfg = PipelineConfig(
            out_dir=tmp_path / "out",
            observations=paths["observations"],
            stations=paths["stations"],
        )
        report = cmd_prepare(cfg)
        assert report["input_rows"] == 12
        assert (report["container"], report["merged"], report["proximity"]) == (2, 1, 1)
        assert report["retained"] == 8
        assert (
            report["retained"] + report["container"] + report["merged"] + report["proximity"]
            == report["input_rows"]
        )
