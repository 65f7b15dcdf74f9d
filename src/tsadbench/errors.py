"""Exception hierarchy shared across the package.

Errors split into three families so the CLI can map them to exit codes:
configuration problems (exit 1), dataset problems (exit 2), and per-task
failures that are recorded in the run report without aborting the run.
Every config document is read by ``from_fields``, and the config
dataclasses check their value types with ``require_int``,
``require_number`` and ``require_name`` (a name that becomes a file name),
so an unknown key, a missing field or a wrongly typed value is a
ConfigError too.
"""

from __future__ import annotations

import dataclasses
import numbers
import os
from typing import Callable, Mapping


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


def require_name(what: str, value) -> None:
    """ConfigError unless value is a string that names one file in a
    directory: not empty, "." or "..", and without a path separator or NUL."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    if value in ("", ".", "..") or any(c and c in value for c in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"{what} {value!r} is not a plain file name")


def require_number(name: str, value) -> None:
    """ConfigError unless value is a real number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")


def from_fields(cls, doc, what: str, **items: Callable):
    """The config dataclass cls built from the JSON object doc, whose keys
    are the field names; fields left out take their defaults.

    ConfigError when doc is not an object, when a key names no field, or
    when a field without a default is missing. A JSON list becomes a
    tuple; a field named in items must be a list, and each of its entries
    is read by that function (a nested object by its own ``from_fields``).
    """
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{what} must be an object, got {doc!r}")
    known = dataclasses.fields(cls)
    extra = set(doc).difference(f.name for f in known)
    if extra:
        raise ConfigError(f"unknown {what} fields {sorted(extra)}")
    missing = [
        f.name for f in known
        if f.name not in doc
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{what} is missing {', '.join(missing)}")
    given = {}
    for name, value in doc.items():
        if name in items:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{what} {name} must be a list, got {value!r}")
            value = [items[name](entry) for entry in value]
        given[name] = tuple(value) if isinstance(value, list) else value
    return cls(**given)


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
