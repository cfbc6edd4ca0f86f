"""Global recurrent forecasting for hourly series with layered seasonality.

One model is trained jointly across many series ("cross-learning") to emit,
for each target day, a 24-hour point forecast plus lower/upper quantile
bounds.  The recurrent stack uses dilated gated cells so different layers
see the past at different strides, and training minimizes a composite
pinball loss so the bounds are genuine quantile forecasts rather than
post-hoc error bands.

Modules:
    tape: per-layer chains of recorded entries and their reverse sweeps
        (float64 throughout).
    cells: the five gated recurrent cells on plain arrays with hand-written
        backward passes; a layer's window of steps is one call and one tape
        entry, run in blocks of one day, or of d days for the delayed-only
        cells; a layer's state is the ring of its last step values.
    network: the dilated three-layer stack with embedding and linear head;
        model_unroll, the one window forward of training, serving and the
        gradient check (one input step, one window per layer, one head
        step), and model_backward, which sweeps its five entries from the
        head down.
    preprocess: weekly standardization, day encoding, and the training
        set as one row table of stacked days.
    loss: pinball loss and the composite training objective.
    training: Adam, truncated-BPTT training loop (each window a row range
        of the training set; the windows of a series-batch unrolled as one
        batch, series as rows), ensembling, forecasting (stretches as rows).
    gradcheck: finite-difference verification of every gradient path.
    evaluation: metrics, predictive-ability test, rankings, report files.
    dataset: CSV ingestion, binary stores, synthetic series generation.
    config: run configuration schema, presets, JSON round trip.
    serialize: deterministic binary model files.
    files: crash-safe replacement of every written file.
    cli: loadcast command line (synth/ingest/export/train/forecast/
        evaluate/gradcheck).

All randomness flows through numpy Generators seeded explicitly; repeated
runs with the same seeds produce byte-identical model files at a fixed BLAS
thread count.
"""

from .cells import CellKind, Connection, cell_init, cell_step, new_state
from .config import (
    RunConfig,
    desk_preset,
    full_preset,
    load_run_config,
    preset,
    save_run_config,
)
from .dataset import (
    DatasetStore,
    export_csv,
    ingest_csv,
    load_store,
    save_store,
    synthetic_series,
    synthetic_store,
)
from .errors import (
    ConfigError,
    ConstantWeekError,
    IncompleteHistoryError,
    IngestError,
    LoadcastError,
    ModelFileError,
    StaleTapeError,
    TrainingDivergedError,
)
from .evaluation import (
    ForecastRecord,
    MetricsReport,
    evaluate_forecasts,
    gw_test,
    pi_metrics,
    point_metrics,
    rank_models,
    winkler_scores,
)
from .loss import LossConfig, composite_loss, pinball
from .network import (
    CELL_VARIANTS,
    HORIZON,
    ModelConfig,
    model_build,
    model_new_state,
    model_backward,
    model_step,
    model_unroll,
)
from .preprocess import (
    HourlySeries,
    TrainingSet,
    build_extended_input,
    build_training_set,
    decode_day,
    encode_day,
    standardize_week,
)
from .serialize import load_ensemble, save_ensemble
from .tape import Tape
from .training import (
    EnsembleModel,
    TrainRecipe,
    forecast,
    forecast_range,
    train,
    train_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "CELL_VARIANTS",
    "CellKind",
    "ConfigError",
    "Connection",
    "ConstantWeekError",
    "DatasetStore",
    "EnsembleModel",
    "ForecastRecord",
    "HORIZON",
    "HourlySeries",
    "IncompleteHistoryError",
    "IngestError",
    "LoadcastError",
    "LossConfig",
    "MetricsReport",
    "ModelConfig",
    "ModelFileError",
    "RunConfig",
    "StaleTapeError",
    "Tape",
    "TrainRecipe",
    "TrainingDivergedError",
    "TrainingSet",
    "build_extended_input",
    "build_training_set",
    "cell_init",
    "cell_step",
    "composite_loss",
    "decode_day",
    "desk_preset",
    "encode_day",
    "evaluate_forecasts",
    "export_csv",
    "forecast",
    "forecast_range",
    "full_preset",
    "gw_test",
    "ingest_csv",
    "load_ensemble",
    "load_run_config",
    "load_store",
    "model_build",
    "model_new_state",
    "model_backward",
    "model_step",
    "model_unroll",
    "new_state",
    "pi_metrics",
    "pinball",
    "point_metrics",
    "preset",
    "rank_models",
    "save_ensemble",
    "save_run_config",
    "save_store",
    "standardize_week",
    "synthetic_series",
    "synthetic_store",
    "train",
    "train_ensemble",
    "winkler_scores",
]
