"""Mosquito larvae abundance projection from recursive climate forecasts."""

from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    DomainError,
    ParseError,
    PipelineError,
    ShapeError,
)
from .forecast import ForecastConfig, ForecastResult, forecast, forecast_series
from .lstm import (
    LstmModel,
    lstm_backward,
    lstm_cell,
    lstm_forward,
    lstm_init,
    make_windows,
    train_lstm,
)
from .nn import (
    ABUNDANCE_LAYER_DIMS,
    DenseNetwork,
    backward,
    forward,
    mse_loss,
    train_abundance,
    xavier_init,
)
from .optim import AdamState, TrainConfig, adam_step, init_adam
from .preprocess import LogCountTransform, StandardScaler, fit_scaler
from .stats import (
    CorrelationReport,
    ResidualSummary,
    correlation_p_value,
    correlation_report,
    pearson_r,
    residual_summary,
)
from .trend import (
    LinearModel,
    OffsetK,
    TrendParams,
    derive_min_max,
    estimate_k,
    eval_trend,
    fit_linear,
    fit_trend,
    predict_days,
)

__version__ = "0.1.0"
