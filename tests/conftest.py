"""Shared fixtures: the synthetic dataset and one fully trained pipeline
run; the central-difference gradient oracle; and the step-by-step LSTM
oracle."""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from larvaecast import synth
from larvaecast.lstm import GATES
from larvaecast.nn import dropout, mse_grad
from larvaecast.pipeline import (
    PipelineConfig,
    cmd_forecast,
    cmd_prepare,
    cmd_project,
    cmd_report,
    cmd_train_abundance,
    cmd_train_climate,
)

PIPELINE_SEED = 4242
DENSE_EPOCHS = 600
LSTM_EPOCHS = 150

GRADIENT_STEP = 1e-5
GRADIENT_REL_TOL = 1e-4

# Property tests draw the same examples on every run and write no example
# database, so the suite stays deterministic. Hypothesis still caches the
# constants it reads from the code under test in its storage directory
# (.hypothesis/ by default), which it touches while collecting; keep that
# in a temporary directory removed at exit.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=40
)
settings.load_profile("deterministic")
_HYPOTHESIS_STORAGE = tempfile.TemporaryDirectory(prefix="larvaecast-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_STORAGE.name)


@dataclass
class PipelineRun:
    data: dict[str, Path]
    out_dir: Path
    prepare_report: dict
    abundance_report: dict
    climate_report: dict
    forecast_report: dict
    project_report: dict
    report_summary: dict


@pytest.fixture(scope="session")
def synth_data(tmp_path_factory) -> dict[str, Path]:
    return synth.generate_dataset(tmp_path_factory.mktemp("synth"))


def run_pipeline(data: dict[str, Path], out_dir: Path) -> PipelineRun:
    cfg = PipelineConfig(
        out_dir=out_dir,
        observations=data["observations"],
        stations=data["stations"],
        series=data["series"],
        regions=data["regions"],
        seed=PIPELINE_SEED,
        max_epochs=DENSE_EPOCHS,
        climate_max_epochs=LSTM_EPOCHS,
        years=[2030, 2050],
        start_year=2030,
        end_year=2050,
    )
    prepare_report = cmd_prepare(cfg)
    abundance_report = cmd_train_abundance(cfg)
    climate_report = cmd_train_climate(cfg)
    forecast_report = cmd_forecast(cfg)
    project_report = cmd_project(cfg)
    report_summary = cmd_report(cfg)
    return PipelineRun(
        data=data,
        out_dir=out_dir,
        prepare_report=prepare_report,
        abundance_report=abundance_report,
        climate_report=climate_report,
        forecast_report=forecast_report,
        project_report=project_report,
        report_summary=report_summary,
    )


@pytest.fixture(scope="session")
def pipeline_run(synth_data, tmp_path_factory) -> PipelineRun:
    return run_pipeline(synth_data, tmp_path_factory.mktemp("pipeline"))


def gradient_error(analytic, params, loss) -> float:
    """The largest relative error of the ``analytic`` gradient against
    central differences of ``loss()`` in the flat vector ``params`` (step
    ``GRADIENT_STEP``). Each entry of ``params`` is moved in place and put
    back, so the oracle shares nothing with a backward pass."""
    numeric = np.zeros_like(params)
    for k in range(params.size):
        orig = params[k]
        params[k] = orig + GRADIENT_STEP
        plus = loss()
        params[k] = orig - GRADIENT_STEP
        minus = loss()
        params[k] = orig
        numeric[k] = (plus - minus) / (2 * GRADIENT_STEP)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def oracle_lstm_forward(model, window, mode="eval", rng=None):
    """The LSTM forward pass one cell step at a time, each step allocating
    its own arrays: the prediction and a cache of the per-step
    ``(xh, c_prev, gates, tanh_c)``, the final h and the prediction. The
    same arithmetic, in the same order, as ``lstm.lstm_forward``, which
    must match it bit for bit; called like it."""
    xs = np.asarray(window, dtype=float)
    if mode == "train" and model.input_dropout_rate > 0:
        xs = dropout(xs, model.input_dropout_rate, rng)[0]
    n = model.hidden_size
    h = np.zeros((n, xs.shape[1]))
    c = np.zeros_like(h)
    steps = []
    for x_t in xs:
        xh = np.concatenate((x_t[None, :], h))
        gates = model.weights @ xh
        gates += model.bias[:, None]
        gates[: 3 * n] *= 0.5  # sigmoid(z) = 0.5 * (1 + tanh(z / 2))
        np.tanh(gates, out=gates)
        gates[: 3 * n] += 1.0
        gates[: 3 * n] *= 0.5
        i, f, o, g = gates.reshape(len(GATES), n, -1)
        c_prev, c = c, f * c + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        steps.append((xh, c_prev, gates, tanh_c))
    prediction = model.head_w @ h + model.head_b[:, None]
    return prediction, (steps, h, prediction)


def oracle_lstm_backward(model, cache, target):
    """BPTT over ``oracle_lstm_forward``'s steps, accumulating the weight
    and bias gradients step by step; one vector laid out like ``params``."""
    steps, h_final, prediction = cache
    d_pred = mse_grad(prediction, target)
    n = model.hidden_size
    u_t = model.weights[:, 1:].T
    grad = np.zeros_like(model.params)
    g_weights, g_bias, g_head_w, g_head_b = model.unpack(grad)
    np.matmul(d_pred, h_final.T, out=g_head_w)
    d_pred.sum(axis=1, out=g_head_b)
    dh = model.head_w.T @ d_pred
    dc = np.zeros_like(dh)
    for xh, c_prev, gates, tanh_c in reversed(steps):
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
