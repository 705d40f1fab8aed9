"""Shared fixtures: the synthetic dataset and one fully trained pipeline
run; and the central-difference gradient oracle."""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from larvaecast import synth
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
