"""Domain types and label/segment plumbing shared by every other module.

A labeled series is stored as a value array plus a {0,1} mask; anomaly
segments (maximal runs of 1s) are always derived from the mask, never the
other way around. All types are immutable after construction and every
operation here is pure, so they are safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvariantViolation,
    LengthMismatch,
    NonFiniteScore,
    SeriesTooShort,
)

DEFAULT_RATIO = (4, 1, 5)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise InvariantViolation("expected a 1-d sequence")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SplitSpec:
    """Half-open split boundaries: train [0, train_end), valid
    [train_end, valid_end), test [valid_end, n)."""

    train_end: int
    valid_end: int
    source: str = "ratio"  # "ratio" | "predefined"

    def __post_init__(self):
        if self.source not in ("ratio", "predefined"):
            raise InvariantViolation(f"unknown split source {self.source!r}")
        if not (0 < self.train_end <= self.valid_end):
            raise InvariantViolation(
                f"invalid split boundaries ({self.train_end}, {self.valid_end})"
            )


@dataclass(frozen=True)
class TimeSeries:
    """One labeled univariate series with its split boundaries.

    Invariants enforced at construction: values and labels have equal,
    non-zero length; values are finite; labels are 0/1; the split leaves a
    non-empty test region.
    """

    id: str
    values: np.ndarray
    labels: np.ndarray
    split: SplitSpec

    def __init__(self, id: str, values: Sequence[float], labels: Sequence[int], split: SplitSpec):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "values", _frozen_array(values, np.float64))
        object.__setattr__(self, "labels", _frozen_array(labels, np.int64))
        object.__setattr__(self, "split", split)
        self._validate()

    def _validate(self):
        n = len(self.values)
        if n < 1 or len(self.labels) != n:
            raise InvariantViolation(
                f"series {self.id!r}: values/labels lengths {n}/{len(self.labels)}"
            )
        if not np.isfinite(self.values).all():
            bad = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise InvariantViolation(f"series {self.id!r}: non-finite value", row=bad + 1)
        bad_labels = (self.labels != 0) & (self.labels != 1)
        if bad_labels.any():
            bad = int(np.flatnonzero(bad_labels)[0])
            raise InvariantViolation(
                f"series {self.id!r}: label not in {{0,1}}", row=bad + 1
            )
        if not self.split.valid_end < n:
            raise InvariantViolation(f"series {self.id!r}: empty test region")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def test_start(self) -> int:
        return self.split.valid_end

    @property
    def test_length(self) -> int:
        return len(self.values) - self.split.valid_end

    def test_values(self) -> np.ndarray:
        return self.values[self.split.valid_end:]

    def test_labels(self) -> np.ndarray:
        return self.labels[self.split.valid_end:]

    def history(self) -> np.ndarray:
        """Train + valid prefix, usable as scoring context."""
        return self.values[: self.split.valid_end]

    def train_values(self) -> np.ndarray:
        return self.values[: self.split.train_end]


@dataclass(frozen=True, order=True)
class AnomalySegment:
    """Maximal run of anomalous timestamps, endpoints inclusive."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start <= self.end):
            raise InvariantViolation(f"bad segment ({self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def extract_segments(labels: Sequence[int]) -> list[AnomalySegment]:
    """Maximal runs of 1s in a {0,1} mask, sorted by position."""
    if isinstance(labels, np.ndarray):
        labels = labels.tolist()  # a list scans faster than an array
    segments = []
    start = None
    for i, flag in enumerate(labels):
        if flag == 1:
            if start is None:
                start = i
        elif start is not None:
            segments.append(AnomalySegment(start, i - 1))
            start = None
    if start is not None:
        segments.append(AnomalySegment(start, len(labels) - 1))
    return segments


def segments_to_mask(segments: Sequence[AnomalySegment], n: int) -> np.ndarray:
    """Inverse of extract_segments for valid (gap >= 1) segment lists."""
    mask = np.zeros(n, dtype=np.int64)
    for seg in segments:
        if seg.end >= n:
            raise InvariantViolation(f"segment {seg} exceeds length {n}")
        mask[seg.start : seg.end + 1] = 1
    return mask


def split_series(n: int, ratio: tuple[int, int, int] = DEFAULT_RATIO) -> SplitSpec:
    """Floor-based ratio split of a length-n series.

    train = [0, floor(n*a/s)), valid = [train_end, floor(n*(a+b)/s)),
    test = [valid_end, n) for ratio (a, b, c) with s = a+b+c. Raises
    SeriesTooShort when any region would be empty.
    """
    a, b, c = ratio
    if min(a, b, c) <= 0:
        raise InvariantViolation(f"ratio parts must be positive, got {ratio}")
    total = a + b + c
    train_end = (n * a) // total
    valid_end = (n * (a + b)) // total
    if train_end < 1 or valid_end <= train_end or valid_end >= n:
        raise SeriesTooShort(f"length {n} cannot be split {a}:{b}:{c}")
    return SplitSpec(train_end=train_end, valid_end=valid_end, source="ratio")


def validate_scores(series: TimeSeries, scores: Sequence[float]) -> np.ndarray:
    """The scores as the read-only float64 array that is dumped and evaluated.

    Raises LengthMismatch or NonFiniteScore; callers abort the curve's
    evaluation and record the error in the run report.
    """
    arr = _frozen_array(scores, np.float64)
    expected = series.test_length
    if len(arr) != expected:
        raise LengthMismatch(
            f"series {series.id!r}: {len(arr)} scores for test length {expected}"
        )
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise NonFiniteScore(f"series {series.id!r}: non-finite score at {bad}")
    return arr
