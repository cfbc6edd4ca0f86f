"""Exception hierarchy shared across the package."""


class LoadcastError(Exception):
    """Base class for all loadcast errors."""


class ConfigError(LoadcastError):
    """Invalid or inconsistent configuration."""


class ConstantWeekError(LoadcastError):
    """Weekly window has no usable spread: (near-)zero or non-finite std."""


class IncompleteHistoryError(LoadcastError):
    """The hourly window required for a pattern touches missing or absent data."""


class NoTrainableSamplesError(LoadcastError):
    """Sample construction produced an empty training set."""


class IngestError(LoadcastError):
    """Raw CSV violates the hourly-series input contract."""


class ModelFileError(LoadcastError):
    """Model or store file is malformed or from an unsupported version."""


class StaleTapeError(LoadcastError):
    """Backward pass requested after a recorded leaf array was mutated."""


class TrainingDivergedError(LoadcastError):
    """Training loss or trained weights became non-finite."""
