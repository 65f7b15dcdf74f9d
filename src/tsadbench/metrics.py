"""Evaluation engine: adjustment criteria, threshold sweep, aggregation.

Three criteria are implemented on top of a shared segment model:

* ``point_wise_pa``: every point of a true segment inherits the segment's
  best in-window score, then TP/FP/FN are counted per point.
* ``event_wise_pa``: each true segment counts once (TP if detected, FN
  otherwise); each maximal alarm run fully outside all segments counts
  once as FP.
* ``reduced_length_pa``: event-wise counting where a segment of original
  length k contributes ln(k + e) and a false-alarm run of length j
  contributes ln(j + e).

All criteria honor an optional detection-latency limit K (an event only
counts as detected if some alarm lands within K points of segment onset,
offset 0 = onset itself) and segment prolonging by L points, which
tolerates post-anomaly score lag without rewarding it.

Scores are compared with ``>=`` against thresholds. One sweep per
criterion evaluates every unique score value, activating points from the
highest score down in tie groups; ``best_f1``, ``auprc``, ``pr_curve`` and
``evaluate_criteria`` are views of it. A tie group's threshold is its
value, with a zero written as ``+0.0``, so no threshold depends on the
order of the points inside its group. Curves of up to ``SWEEP_CUTOFF``
(128) points are swept by one Python loop for all three criteria (alarm
runs kept by endpoint links for the event criteria); longer ones by numpy.
Reduced-length weights and aggregate means are correctly rounded sums
(equal to ``math.fsum``), so no path depends on addition order: both
sweeps equal the per-threshold definition of ``tests/oracle.py`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .core import AnomalySegment, extract_segments
from .errors import (
    ConfigError,
    EmptyDataset,
    LengthMismatch,
    NonFiniteScore,
    NoPositiveEvents,
    from_fields,
    require_int,
)

_E = math.e
_LOG = math.log

VARIANTS = ("point_wise_pa", "event_wise_pa", "reduced_length_pa")
DEFAULT_PROLONG = 9
SWEEP_CUTOFF = 128


@dataclass(frozen=True)
class EvalCriterion:
    """A fully specified evaluation configuration."""

    variant: str = "reduced_length_pa"
    k_delay: int | None = None
    prolong_len: int = DEFAULT_PROLONG

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown criterion variant {self.variant!r}")
        if self.k_delay is not None:
            require_int("k_delay", self.k_delay, 0)
        require_int("prolong_len", self.prolong_len, 0)

    @property
    def label(self) -> str:
        k = f"_K{self.k_delay}" if self.k_delay is not None else ""
        return f"{self.variant}{k}_L{self.prolong_len}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "EvalCriterion":
        return from_fields(cls, d, "criterion")


def parse_criterion(spec: str) -> EvalCriterion:
    """Parse a CLI criterion spec like ``reduced_length_pa:k=3:l=9``."""
    variant, *parts = spec.split(":")
    options = {}
    for part in parts:
        key, _, value = part.partition("=")
        key = key.strip().lower()
        name = {"k": "k_delay", "l": "prolong_len"}.get(key)
        if name is None:
            raise ConfigError(f"unknown criterion option {key!r} in {spec!r}")
        try:
            options[name] = int(value)
        except ValueError as exc:
            raise ConfigError(f"bad criterion option {part!r} in {spec!r}") from exc
    return EvalCriterion(variant.strip(), **options)


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


@dataclass(frozen=True)
class MetricReport:
    f1_best: float
    best_threshold: float
    precision_at_best: float
    recall_at_best: float
    auprc: float
    criterion: EvalCriterion


@dataclass(frozen=True)
class ExtendedSegment:
    """A true segment after prolonging; keeps the original end so severity
    weighting always uses the pre-extension length."""

    start: int
    end: int
    orig_end: int

    @property
    def orig_length(self) -> int:
        return self.orig_end - self.start + 1


def prolong_segments(
    segments: Sequence[AnomalySegment], prolong_len: int, n: int
) -> list[ExtendedSegment]:
    """Extend each segment's end by up to ``prolong_len`` points.

    The extended end is min(end + L, next_start - 1, n - 1): extensions
    never merge two events and never leave the series.
    """
    if prolong_len < 0:
        raise ValueError("prolong_len must be >= 0")
    out = []
    for i, seg in enumerate(segments):
        limit = segments[i + 1].start - 1 if i + 1 < len(segments) else n - 1
        end = min(seg.end + prolong_len, limit, n - 1)
        out.append(ExtendedSegment(start=seg.start, end=end, orig_end=seg.end))
    return out


def _as_list(scores) -> list[float]:
    if isinstance(scores, np.ndarray):
        return scores.tolist()
    if isinstance(scores, list):
        return scores
    return [float(v) for v in scores]


def _require_finite(scores) -> None:
    if isinstance(scores, np.ndarray):
        finite = np.isfinite(scores).all()
    else:
        finite = all(map(math.isfinite, scores))
    if not finite:
        raise NonFiniteScore("scores must be finite")


def _detect_window_end(seg: ExtendedSegment, k_delay: int | None) -> int:
    return seg.end if k_delay is None else min(seg.end, seg.start + k_delay)


def _segment_mask(segments: Sequence[ExtendedSegment], n: int) -> bytearray:
    """1 inside a segment, else 0, at each of the n points and one past (the
    numpy sweep reads index n)."""
    mask = bytearray(n + 1)
    for seg in segments:
        mask[seg.start : seg.end + 1] = b"\x01" * (seg.end - seg.start + 1)
    return mask


# A weight ln(j + e) of up to 2**23 points lies in [1, 16), so w * 2**52 is
# an integer below 2**56; the sweeps add such integers exactly, then round
# once. ``_sums`` splits them into 26-bit low parts and high parts below
# 2**30 and sums each part in int64: over at most 2**23 points every running
# sum stays below 2**53, so converts to float exactly, and high * 2**26 + low
# rounds once. Longer curves raise ValueError rather than round twice.
_ONE = 2.0**52  # a weight of 1, scaled
_SPLIT_LIMIT = 1 << 23
_scaled: tuple[list[int], np.ndarray] = ([], np.zeros(0, dtype=np.int64))


def _scaled_weights(size: int) -> tuple[list[int], np.ndarray]:
    """``ln(j + e) * 2**52`` for j below ``size`` at least, as a list and an
    int64 array; a grown table is a new one, so threads see no partial one."""
    global _scaled
    if size > _SPLIT_LIMIT + 1:
        raise ValueError(f"reduced-length weights are exact up to {_SPLIT_LIMIT} points")
    table = _scaled
    if (have := len(table[0])) < size:
        stop = min(max(size, 2 * have), _SPLIT_LIMIT + 1)
        new = table[0] + [int(_LOG(j + _E) * _ONE) for j in range(have, stop)]
        table = _scaled = (new, np.array(new, dtype=np.int64))
    return table


def _sums(terms: np.ndarray, reads, weighted: bool) -> np.ndarray:
    """Running sums of int64 ``terms`` read at ``reads`` (read 0 is the empty
    sum), as floats: counts as they are, scaled weights correctly rounded."""
    if not weighted:
        return 1.0 * np.concatenate(([0], terms.cumsum()))[reads]
    high = np.concatenate(([0], (terms >> 26).cumsum()))[reads]
    low = np.concatenate(([0], (terms & (1 << 26) - 1).cumsum()))[reads]
    return (high * 2.0**26 + low) / _ONE


def prf_from_confusion(c):
    """Precision, recall, F1 of a (tp, fp, fn) triple of numbers, or
    elementwise of a triple of sweep columns.

    Zero denominators give 0: precision with no alarms, recall with no
    events, F1 when both are 0. A denominator is a sum of non-negative
    terms, so it is 0 only when its numerator is, and adding the flag
    ``== 0`` turns 0 / 0 into 0 / 1 without dividing by zero.
    """
    tp, fp, fn = c
    alarms = tp + fp
    events = tp + fn
    precision = tp / (alarms + (alarms == 0))
    recall = tp / (events + (events == 0))
    both = precision + recall
    return precision, recall, 2.0 * precision * recall / (both + (both == 0))


class _lazy:
    """A cached attribute, computed on first read (lock-free, unlike
    functools.cached_property before Python 3.12)."""

    def __init__(self, compute):
        self.compute = compute

    def __get__(self, obj, owner=None):
        value = obj.__dict__[self.compute.__name__] = self.compute(obj)
        return value


class RankedScores:
    """A score array plus the sweep work that depends on nothing else,
    computed on first use and shared by every criterion evaluated on it."""

    def __init__(self, scores):
        """Raises NonFiniteScore unless every score is finite."""
        _require_finite(scores)
        self.scores = scores
        self.n = len(scores)

    def __len__(self) -> int:
        return self.n

    @_lazy
    def values(self) -> list[float]:
        return _as_list(self.scores)

    @_lazy
    def array(self) -> np.ndarray:
        return np.asarray(self.scores, dtype=np.float64)

    @_lazy
    def order(self):
        return _descending_order(self)

    @_lazy
    def ties(self) -> tuple[np.ndarray, np.ndarray]:
        """Per tie group of ``order``: its last position and its threshold,
        the group's value with a zero as ``+0.0``."""
        desc = self.array[self.order]
        ends = np.append(np.flatnonzero(desc[1:] != desc[:-1]), self.n - 1)
        return ends, desc[np.concatenate(([0], ends[:-1] + 1))] + 0.0

    @_lazy
    def runs(self) -> tuple[np.ndarray, ...]:
        """In activation order: p, and the bounds lo, hi of the run that
        activating p closes, from the nearest later-activated point on each
        side; the left run is [lo, p), the right one (p, hi)."""
        n = self.n
        order = np.asarray(self.order)
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        later = _previous_later(np.concatenate((rank, [n], rank[::-1])))
        return order, later[:n][order] + 1, 2 * n - later[:n:-1][order]


def _ranked(scores) -> RankedScores:
    return scores if isinstance(scores, RankedScores) else RankedScores(scores)


class CurveLabels:
    """A label mask plus the sweep work that depends on nothing else: its
    segments, and per ``prolong_len`` the prolonged segments with their
    sweep inputs, computed on first use and shared by every score array
    and criterion evaluated on the curve."""

    def __init__(self, labels):
        self.labels = labels
        self.n = len(labels)
        self._prolonged: dict[int, ProlongedSegments] = {}
        self.positive = bool(self.segments)

    @_lazy
    def segments(self) -> list[AnomalySegment]:
        return extract_segments(self.labels)

    def prolonged(self, prolong_len: int) -> ProlongedSegments:
        found = self._prolonged.get(prolong_len)
        if found is None:
            segments = prolong_segments(self.segments, prolong_len, self.n)
            found = self._prolonged[prolong_len] = ProlongedSegments(segments, self.n)
        return found


def _labeled(labels) -> CurveLabels:
    return labels if isinstance(labels, CurveLabels) else CurveLabels(labels)


class ProlongedSegments:
    """The prolonged segments of a curve of n points and the label-only
    inputs of both sweeps, computed on first use: the segment mask (the
    numpy sweep reads it as ``in_seg``); the numpy sweep's per-segment
    bounds (per K) and the mask's prefix sums."""

    def __init__(self, segments: Sequence[ExtendedSegment], n: int):
        self.segments = segments
        self.n = n
        self._bounds: dict[int | None, np.ndarray] = {}

    @_lazy
    def mask(self) -> bytearray:
        return _segment_mask(self.segments, self.n)

    def bounds(self, k_delay: int | None) -> np.ndarray:
        """Per segment: start, detection window end + 1, end + 1, original
        end + 1."""
        found = self._bounds.get(k_delay)
        if found is None:
            found = self._bounds[k_delay] = _read_only(np.array(
                [(s.start, _detect_window_end(s, k_delay) + 1, s.end + 1, s.orig_end + 1)
                 for s in self.segments],
                dtype=np.intp,
            ).reshape(-1, 4))
        return found

    @_lazy
    def in_seg(self) -> np.ndarray:
        """``mask`` as an int8 array, shared, not copied."""
        return _read_only(np.frombuffer(self.mask, dtype=np.int8))

    @_lazy
    def before(self) -> np.ndarray:
        """In-segment points before each index (int32: a curve has fewer
        than 2**31 points)."""
        before = np.zeros(self.n + 2, dtype=np.int32)
        self.in_seg.cumsum(dtype=np.int32, out=before[1:])
        return _read_only(before)


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only: every sweep on the curve shares it."""
    array.flags.writeable = False
    return array


def _descending_order(ranked: RankedScores):
    """Up to SWEEP_CUTOFF points a stable sort of the list (ties keep list
    order); above it numpy's argsort, reversed (an array)."""
    if ranked.n > SWEEP_CUTOFF:
        return np.argsort(ranked.array)[::-1]
    return sorted(range(ranked.n), key=ranked.values.__getitem__, reverse=True)


def _previous_later(rank: np.ndarray) -> np.ndarray:
    """For each p, the nearest q < p with rank[q] > rank[p], else -1.

    Level k of a sparse table holds the highest rank among the 2**k
    positions ending at each index. Walking left over every window whose
    highest rank is below rank[p], widest first, stops at the answer.
    Index 0 of the table is a sentinel that outranks every point.
    """
    n = len(rank)
    levels = [np.concatenate(([n], rank)).astype(np.int32)]  # int32 halves the table
    while (width := 1 << (len(levels) - 1)) <= n:
        wider = levels[-1].copy()
        np.maximum(wider[width:], levels[-1][:-width], out=wider[width:])
        levels.append(wider)
    cur = np.arange(n)  # p - 1, shifted past the sentinel
    for k in range(len(levels) - 1, -1, -1):
        np.subtract(cur, 1 << k, out=cur, where=levels[k][cur] < rank)
    return cur - 1


def _sweep_loop(ranked: RankedScores, segments: ProlongedSegments, criterion: EvalCriterion):
    """The sweep as a loop over the tie groups of ``ranked.order``.

    A segment passes every threshold up to its peak and then weighs its
    extended length (point-wise) or its original length's weight (event
    criteria). Point-wise counts each activated point outside the segments
    as one FP. The event criteria keep alarm runs by endpoint links
    (activating a point starts a run, extends one, or merges two); a run
    touching a segment is tainted and weighs nothing. Weights are added as
    integers (counts, or scaled reduced-length weights) and rounded once
    per threshold.
    """
    scores, order, n = ranked.values, ranked.order, ranked.n
    point_wise = criterion.variant == "point_wise_pa"
    weighted = criterion.variant == "reduced_length_pa"
    run_w = _scaled_weights(n + 1)[0] if weighted else [1] * (n + 1)
    unit = 1 / _ONE if weighted else 1.0  # int * unit rounds once, exactly as float(int)
    det = sorted(
        ((max(scores[s.start : _detect_window_end(s, criterion.k_delay) + 1]),
          s.end - s.start + 1 if point_wise else run_w[s.orig_length])
         for s in segments.segments),
        reverse=True,
    )
    total_w = sum(w for _, w in det)

    in_seg = segments.mask
    other_end = list(range(n))
    active = bytearray(n)
    tainted = bytearray(n)  # meaningful at a run's left endpoint

    thresholds: list[float] = []
    tps: list[float] = []
    fps: list[float] = []
    fns: list[float] = []
    tp_w = 0
    fp_w = 0
    seg_i = 0
    n_seg = len(det)
    i = 0
    while i < n:
        t = scores[order[i]]
        while i < n and scores[order[i]] == t:
            p = order[i]
            i += 1
            if point_wise:
                fp_w += 1 - in_seg[p]
                continue
            left = right = p
            taint = in_seg[p] != 0
            if p > 0 and active[p - 1]:
                ll = other_end[p - 1]
                if tainted[ll]:
                    taint = True
                else:
                    fp_w -= run_w[p - ll]
                left = ll
            if p + 1 < n and active[p + 1]:
                rr = other_end[p + 1]
                if tainted[p + 1]:
                    taint = True
                else:
                    fp_w -= run_w[rr - p]
                right = rr
            active[p] = 1
            other_end[left] = right
            other_end[right] = left
            tainted[left] = 1 if taint else 0
            if not taint:
                fp_w += run_w[right - left + 1]
        while seg_i < n_seg and det[seg_i][0] >= t:
            tp_w += det[seg_i][1]
            seg_i += 1
        thresholds.append(t + 0.0)
        tps.append(tp_w * unit)
        fps.append(fp_w * unit)
        fns.append((total_w - tp_w) * unit)
    return thresholds, tps, fps, fns, total_w * unit


def _sweep_numpy(ranked: RankedScores, segments: ProlongedSegments, criterion: EvalCriterion):
    """The sweep as array operations, equal to ``_sweep_loop`` bit for bit.

    A segment passes every threshold up to its peak, so ``searchsorted`` on
    sorted peaks counts them. Point-wise FPs count out-of-segment points; an
    event sweep's point adds the clean run it completes and removes those it
    joins. Sums are read at tie group ends, exact before their one rounding.
    """
    ends, thresholds = ranked.ties
    bounds = segments.bounds(criterion.k_delay)
    padded = np.append(ranked.array, -math.inf)  # a peak window may end at n
    peaks = np.maximum.reduceat(padded, bounds[:, :2].ravel())[::2]
    in_seg = segments.in_seg
    weighted = criterion.variant == "reduced_length_pa"
    if criterion.variant == "point_wise_pa":
        weights = bounds[:, 2] - bounds[:, 0]
    elif weighted:
        table = _scaled_weights(ranked.n + 1)[1]
        weights = table[bounds[:, 3] - bounds[:, 0]]
    else:
        weights = np.ones(len(bounds), dtype=np.intp)
    up = np.argsort(peaks)
    missed = np.searchsorted(peaks[up], thresholds)  # segments peaking below t
    tps = _sums(weights[up[::-1]], len(peaks) - missed, weighted)
    fns = _sums(weights[up], missed, weighted)
    total = float(_sums(weights, len(peaks), weighted))
    if criterion.variant == "point_wise_pa":
        return thresholds, tps, _sums(1 - in_seg[ranked.order], ends + 1, False), fns, total

    p, lo, hi = ranked.runs
    before = segments.before
    at_lo, at_p, after_p, at_hi = before[lo], before[p], before[p + 1], before[hi]
    left = (lo < p) & (at_lo == at_p)  # [lo, p) was a clean run
    right = (p + 1 < hi) & (after_p == at_hi)  # so was (p, hi)
    merged = at_lo == at_hi  # [lo, hi) is one
    if weighted:
        terms = merged * table[hi - lo] - left * table[p - lo] - right * table[hi - p - 1]
    else:
        terms = 1 * merged - left - right
    return thresholds, tps, _sums(terms, ends + 1, weighted), fns, total


def _sweep(ranked: RankedScores, segments: ProlongedSegments, criterion: EvalCriterion):
    """Lists from the loop up to SWEEP_CUTOFF points, arrays above it."""
    if segments.n != ranked.n:
        raise LengthMismatch(f"{ranked.n} scores for {segments.n} labels")
    if ranked.n > SWEEP_CUTOFF:
        return _sweep_numpy(ranked, segments, criterion)
    return _sweep_loop(ranked, segments, criterion)


def sweep_confusions(
    scores, labels, criterion: EvalCriterion
) -> tuple[list[float], list[float], list[float], list[float], float]:
    """Confusions at every unique score threshold, descending.

    Returns (thresholds, tps, fps, fns, total_positive_weight).
    """
    ranked = _ranked(scores)
    sweep = _sweep(ranked, _labeled(labels).prolonged(criterion.prolong_len), criterion)
    if isinstance(sweep[1], np.ndarray):
        return (*(column.tolist() for column in sweep[:4]), sweep[4])
    return sweep


def _report(sweep, criterion: EvalCriterion) -> MetricReport:
    """Best F1 (the last threshold with the highest F1, so ties go to the
    lowest threshold; +inf and zeros when there is none) and the AUPRC step
    sum ``(R_i - R_{i-1}) * P_i``, added in sweep order."""
    thresholds, tps, fps, fns, _ = sweep
    if isinstance(tps, np.ndarray):
        precision, recall, f1 = prf_from_confusion((tps, fps, fns))
        i = len(f1) - 1 - int(f1[::-1].argmax())
        step = recall.copy()
        step[1:] -= recall[:-1]
        area = (step * precision).cumsum()[-1]
        best = (f1[i], thresholds[i], precision[i], recall[i], area)
        return MetricReport(*map(float, best), criterion)
    best = (0.0, math.inf, 0.0, 0.0)  # the +inf / no-alarm candidate
    area = 0.0
    prev_recall = 0.0
    for t, c in zip(thresholds, zip(tps, fps, fns)):
        precision, recall, f1 = prf_from_confusion(c)
        if f1 >= best[0]:
            best = (f1, t, precision, recall)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return MetricReport(*best, area, criterion)


def _reports(ranked: RankedScores, labels: CurveLabels,
             criteria: Sequence[EvalCriterion]) -> list[MetricReport]:
    return [_report(_sweep(ranked, labels.prolonged(c.prolong_len), c), c) for c in criteria]


def evaluate_criteria(
    scores, labels, criteria: Sequence[EvalCriterion]
) -> list[MetricReport]:
    """Both headline metrics of one curve under each criterion.

    The score-side work (order, tie groups, neighbours) and the label-side
    work (segments, sweep inputs) are done once and shared; pass a
    RankedScores or a CurveLabels to share them across calls too.
    """
    labels = _labeled(labels)
    if not labels.positive:
        raise NoPositiveEvents("labels contain no anomaly")
    return _reports(_ranked(scores), labels, criteria)


def evaluate_curve(scores, labels, criterion: EvalCriterion) -> MetricReport:
    """Both headline metrics from a single sweep."""
    return evaluate_criteria(scores, labels, (criterion,))[0]


def best_f1(scores, labels, criterion: EvalCriterion) -> MetricReport:
    """Best F1 over all candidate thresholds (unique scores plus +inf).

    Ties resolve to the lowest threshold. Unlike ``evaluate_curve`` it
    accepts labels without anomalies; the report's ``auprc`` is NaN.
    """
    return replace(_reports(_ranked(scores), _labeled(labels), (criterion,))[0], auprc=math.nan)


def auprc(scores, labels, criterion: EvalCriterion) -> float:
    """Step-integrated area under the criterion's precision-recall curve."""
    return evaluate_curve(scores, labels, criterion).auprc


def pr_curve(scores, labels, criterion: EvalCriterion) -> list[PRPoint]:
    thresholds, tps, fps, fns, _ = sweep_confusions(scores, labels, criterion)
    return [
        PRPoint(t, *prf_from_confusion(c)[:2])
        for t, c in zip(thresholds, zip(tps, fps, fns))
    ]


@dataclass(frozen=True)
class DatasetScore:
    dataset: str
    f1_best_mean: float
    auprc_mean: float
    curve_count: int


@dataclass(frozen=True)
class OverallScore:
    f1_best_mean: float
    auprc_mean: float
    dataset_count: int


def _means(pairs: Sequence[tuple[float, float]]) -> tuple[float, ...]:
    """Column means, each a correctly rounded sum (``math.fsum``) over the
    count, so the order the rows arrive in does not matter."""
    return tuple(math.fsum(column) / len(pairs) for column in zip(*pairs))


def aggregate(
    per_dataset: Mapping[str, Sequence[MetricReport]],
) -> tuple[list[DatasetScore], OverallScore]:
    """Dataset score = unweighted mean over curves; overall = unweighted
    mean over dataset scores, so curve counts never bias the ranking."""
    if not per_dataset:
        raise EmptyDataset("no datasets to aggregate")
    dataset_scores = []
    for name in sorted(per_dataset):
        reports = per_dataset[name]
        if not reports:
            raise EmptyDataset(f"dataset {name!r} has no curves")
        means = _means([(r.f1_best, r.auprc) for r in reports])
        dataset_scores.append(DatasetScore(name, *means, len(reports)))
    means = _means([(d.f1_best_mean, d.auprc_mean) for d in dataset_scores])
    return dataset_scores, OverallScore(*means, len(dataset_scores))
