"""Exception hierarchy shared across the package.

Errors split into three families so the CLI can map them to exit codes:
configuration problems (exit 1), dataset problems (exit 2), and per-task
failures that are recorded in the run report without aborting the run.
The config dataclasses check their value types with ``require_int`` and
``require_number``, so a wrongly typed value is a ConfigError too.
"""

from __future__ import annotations

import numbers


class TsadError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(TsadError):
    """Invalid run or synth configuration."""


def require_int(name: str, value, minimum: int | None = None) -> None:
    """ConfigError unless value is an integer (a bool is not one) and at
    least minimum, when one is given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}")


def require_number(name: str, value) -> None:
    """ConfigError unless value is a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")


class DatasetError(TsadError):
    """Problems loading or validating a dataset."""


class MissingManifest(DatasetError):
    pass


class ParseError(DatasetError):
    """Malformed manifest or curve file. Carries the offending row when known."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


class InvariantViolation(DatasetError):
    """Well-formed file whose contents break a domain invariant."""

    def __init__(self, message, row=None):
        super().__init__(message if row is None else f"{message} (row {row})")
        self.row = row


class SeriesTooShort(DatasetError):
    """Ratio split would leave an empty train/valid/test region."""


class EmptyDataset(TsadError):
    pass


class TooFewSeries(TsadError):
    """Zero-shot planning needs at least two series."""


class LengthMismatch(TsadError):
    """Score array does not cover the test region one-to-one."""


class NonFiniteScore(TsadError):
    pass


class NoPositiveEvents(TsadError):
    """AUPRC is undefined when the labels contain no anomaly."""


class InsufficientTrainingData(TsadError):
    """No training pool long enough for the detector's window."""


class PlanInfeasible(TsadError):
    """Requested anomalies cannot be placed without overlap."""


class ProtocolError(TsadError):
    """External detector sent a malformed or unexpected message."""


class ExternalTimeout(TsadError):
    """External detector missed a reply deadline."""


class NonZeroExit(TsadError):
    """External detector process exited with a non-zero status."""
