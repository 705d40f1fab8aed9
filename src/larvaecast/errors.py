"""Exception hierarchy shared by every stage of the pipeline.

The CLI maps these onto process exit codes: 2 for configuration errors,
3 for data errors, diverged training, any ``OSError`` (a full disk, an
occupied output path) and ``MemoryError`` (a stage that cannot allocate
its arrays), 4 for internal invariant violations.
"""


class PipelineError(Exception):
    exit_code = 1


class ConfigError(PipelineError):
    """Invalid configuration: bad dimensions, degenerate splits, missing flags."""

    exit_code = 2


class DataError(PipelineError):
    """Invalid or insufficient input data."""

    exit_code = 3


class ParseError(DataError):
    """Malformed input file; the message carries row/field context."""


class DomainError(DataError):
    """Argument outside the mathematical domain of an operation."""


class DivergenceError(PipelineError):
    """A trainer's epoch loss became non-finite (exit code 3): the data or
    the learning rate admit no finite fit. The message names the model and
    the epoch."""

    exit_code = 3


class ShapeError(PipelineError):
    """Array shape violates a structural invariant."""

    exit_code = 4
