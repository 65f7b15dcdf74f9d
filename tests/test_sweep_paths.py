"""The pure-Python sweep (curves up to SWEEP_CUTOFF points) and the numpy
sweep (longer curves) must agree bit for bit on the same ranking.

Both paths are run on one RankedScores, so they see the same activation
order, and compared with ``==`` plus the sign of zero (``float.hex``).
A long curve is also checked against the brute-force oracle.
"""

import itertools
import math

import numpy as np
import pytest

import oracle
from tsadbench import metrics
from tsadbench.core import extract_segments
from tsadbench.metrics import (
    SWEEP_CUTOFF,
    VARIANTS,
    EvalCriterion,
    RankedScores,
    best_f1,
    evaluate_criteria,
    evaluate_curve,
    prf_from_confusion,
    prolong_segments,
    sweep_confusions,
)
from tsadbench.rng import SplitMix64

SETTINGS = list(itertools.product(VARIANTS, (None, 0, 3), (0, 9)))
REPORT_FIELDS = ("f1_best", "best_threshold", "precision_at_best", "recall_at_best", "auprc")


def _bits(values):
    return [float(v).hex() for v in values]


def _both_paths(scores, labels, criterion):
    ranked = RankedScores(scores)
    segments = prolong_segments(extract_segments(labels), criterion.prolong_len, len(scores))
    slow = metrics._sweep_python(ranked, segments, criterion)
    fast = metrics._sweep_numpy(ranked, segments, criterion)
    return slow, fast


def assert_paths_agree_one(scores, labels, criterion):
    slow, fast = _both_paths(scores, labels, criterion)
    for a, b in zip(slow[:4], fast[:4]):
        assert _bits(a) == _bits(b.tolist())
    assert slow[4] == fast[4]
    assert metrics._report(slow, criterion) == metrics._report(fast, criterion)


def assert_paths_agree(scores, labels):
    for variant, k, l in SETTINGS:
        criterion = EvalCriterion(variant, k_delay=k, prolong_len=l)
        slow, fast = _both_paths(scores, labels, criterion)
        for name, a, b in zip(("thresholds", "tps", "fps", "fns"), slow[:4], fast[:4]):
            b = b.tolist()
            assert a == b, (name, criterion)
            assert _bits(a) == _bits(b), (name, criterion)
        assert slow[4] == fast[4]
        slow_report = metrics._report(slow, criterion)
        fast_report = metrics._report(fast, criterion)
        for field in REPORT_FIELDS:
            a, b = getattr(slow_report, field), getattr(fast_report, field)
            assert a == b and _bits([a]) == _bits([b]), (field, criterion)


def _labels(n, segments):
    labels = [0] * n
    for start, end in segments:
        labels[start : end + 1] = [1] * (end - start + 1)
    return labels


def _random_labels(rng, n):
    labels = [0] * n
    p = 0
    while p < n:
        p += rng.randint(12)
        length = 1 + rng.randint(6)
        labels[p : p + length] = [1] * len(labels[p : p + length])
        p += length + 1 + rng.randint(20)
    return labels


def _scores(rng, n, quantized):
    if quantized:  # many ties, including both signed zeros
        levels = (-0.0, 0.0, 0.25, 0.5, 0.75, 1.0)
        return [levels[rng.randint(len(levels))] for _ in range(n)]
    return [rng.uniform() for _ in range(n)]


LENGTHS = [*range(SWEEP_CUTOFF - 2, SWEEP_CUTOFF + 3), 1000]


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("quantized", [False, True])
def test_paths_agree_on_random_curves(n, quantized):
    rng = SplitMix64(1000 * n + quantized)
    for _ in range(3):
        assert_paths_agree(_scores(rng, n, quantized), _random_labels(rng, n))


@pytest.mark.parametrize("quantized", [False, True])
def test_segments_at_both_ends(quantized):
    n = SWEEP_CUTOFF + 1
    rng = SplitMix64(7 + quantized)
    for first, last in [((0, 0), (n - 1, n - 1)), ((0, 4), (n - 6, n - 1))]:
        labels = _labels(n, [first, (30, 33), last])
        for _ in range(3):
            assert_paths_agree(_scores(rng, n, quantized), labels)


@pytest.mark.parametrize("quantized", [False, True])
def test_prolonged_segments_end_up_adjacent(quantized):
    # gaps of 1 and 3 points: with L = 9 each segment is prolonged up to
    # the point before the next one, so the extended segments touch
    n = SWEEP_CUTOFF + 2
    labels = _labels(n, [(5, 8), (10, 12), (16, 20), (22, 22), (24, 30)])
    rng = SplitMix64(11 + quantized)
    for _ in range(4):
        assert_paths_agree(_scores(rng, n, quantized), labels)


@pytest.mark.parametrize("n", [SWEEP_CUTOFF - 1, SWEEP_CUTOFF + 1, 1000])
def test_curve_without_anomaly_through_best_f1(n):
    rng = SplitMix64(n)
    for quantized in (False, True):
        scores = _scores(rng, n, quantized)
        labels = [0] * n
        assert_paths_agree(scores, labels)
        for variant, k, l in SETTINGS:
            criterion = EvalCriterion(variant, k_delay=k, prolong_len=l)
            report = best_f1(scores, labels, criterion)
            assert report.f1_best == 0.0
            assert report.best_threshold == min(scores)
            assert math.isnan(report.auprc)


def test_prf_columns_equal_scalar_rule():
    values = [0.0, 1.0, 2.0, 0.5, 3.7, 1e-300]
    triples = list(itertools.product(values, repeat=3))
    tps, fps, fns = (np.array(column) for column in zip(*triples))
    columns = metrics._prf_columns(tps, fps, fns)
    for i, triple in enumerate(triples):
        expected = prf_from_confusion(triple)
        got = tuple(float(column[i]) for column in columns)
        assert _bits(got) == _bits(expected), triple
    # the zero-denominator cases are in the grid
    assert prf_from_confusion((0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)
    assert prf_from_confusion((0.0, 0.0, 2.0)) == (0.0, 0.0, 0.0)
    assert prf_from_confusion((0.0, 2.0, 0.0)) == (0.0, 0.0, 0.0)


def test_evaluate_criteria_equals_one_call_per_criterion():
    rng = SplitMix64(5)
    n = 300
    scores, labels = _scores(rng, n, True), _random_labels(rng, n)
    criteria = [EvalCriterion(v, k_delay=k, prolong_len=l) for v, k, l in SETTINGS]
    shared = evaluate_criteria(np.array(scores), labels, criteria)
    assert shared == [evaluate_curve(scores, labels, c) for c in criteria]
    ranked = RankedScores(scores)
    assert [evaluate_curve(ranked, labels, c) for c in criteria] == shared


class TestLongCurve:
    """One 120k-point curve: point-wise and event-wise match the oracle;
    reduced-length matches the pure-Python sweep bit for bit."""

    N = 120_000

    @pytest.fixture(scope="class")
    def curve(self):
        rng = SplitMix64(2024)
        labels = _random_labels(rng, self.N)
        labels[:3] = [1, 1, 1]
        labels[-2:] = [1, 1]
        # 16 score levels keep the oracle's per-threshold passes affordable
        quantized = [rng.randint(16) / 15.0 for _ in range(self.N)]
        unique = [rng.uniform() for _ in range(self.N)]
        return labels, quantized, unique

    @pytest.mark.parametrize("variant", ["point_wise_pa", "event_wise_pa"])
    def test_matches_oracle(self, curve, variant):
        labels, scores, _unique = curve
        k, l = 3, 9
        criterion = EvalCriterion(variant, k_delay=k, prolong_len=l)
        thresholds, tps, fps, fns, _ = sweep_confusions(np.array(scores), labels, criterion)
        assert len(scores) > SWEEP_CUTOFF and thresholds == sorted(set(scores), reverse=True)
        ref = oracle.FastOracle(labels, variant, k, l)
        seg_max = [max(scores[lo : hi + 1]) for lo, hi in ref.windows]
        confusion = ref._confusion_point if variant == "point_wise_pa" else ref._confusion_event
        for t, tp, fp, fn in zip(thresholds, tps, fps, fns):
            for got, want in zip((tp, fp, fn), confusion(scores, seg_max, t)):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        report = evaluate_curve(scores, labels, criterion)
        f1, threshold, area = ref.evaluate(scores)
        assert abs(report.f1_best - f1) <= 1e-12
        assert report.best_threshold == threshold
        assert abs(report.auprc - area) <= 1e-12

    @pytest.mark.parametrize("kind", [1, 2], ids=["quantized", "unique"])
    def test_reduced_length_bit_identical_to_loop(self, curve, kind):
        labels, scores = curve[0], curve[kind]
        for k in (None, 3):
            assert_paths_agree_one(scores, labels, EvalCriterion("reduced_length_pa", k_delay=k))
