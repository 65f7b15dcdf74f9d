import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from tsadbench.core import (
    AnomalySegment,
    SplitSpec,
    TimeSeries,
    extract_segments,
    segments_to_mask,
    split_series,
    validate_scores,
)
from tsadbench.errors import (
    InvariantViolation,
    LengthMismatch,
    NonFiniteScore,
    SeriesTooShort,
)


class TestExtractSegments:
    def test_two_runs(self):
        assert extract_segments([0, 1, 1, 0, 1]) == [
            AnomalySegment(1, 2),
            AnomalySegment(4, 4),
        ]

    def test_no_anomalies(self):
        assert extract_segments([0, 0, 0]) == []

    def test_single_run_spans_all(self):
        assert extract_segments([1, 1, 1, 1, 1]) == [AnomalySegment(0, 4)]

    def test_empty(self):
        assert extract_segments([]) == []

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_round_trip(self, labels):
        segs = extract_segments(labels)
        assert extract_segments(np.array(labels, dtype=np.int64)) == segs
        assert [(s.start, s.end) for s in segs] == oracle.find_segments(labels)
        assert segments_to_mask(segs, len(labels)).tolist() == labels
        # maximal runs are sorted and separated by at least one gap
        for a, b in zip(segs, segs[1:]):
            assert b.start > a.end + 1

    def test_long_labels_with_runs_at_both_ends(self):
        rng = np.random.default_rng(19)
        labels = (rng.random(120_000) < 0.3).astype(np.int64)
        labels[:5] = labels[-7:] = 1
        segs = extract_segments(labels)
        assert [(s.start, s.end) for s in segs] == oracle.find_segments(labels.tolist())
        assert segs[0].start == 0 and segs[-1].end == 119_999
        assert (segments_to_mask(segs, len(labels)) == labels).all()


class TestSplitSeries:
    def test_n10(self):
        spec = split_series(10)
        assert (spec.train_end, spec.valid_end) == (4, 5)
        assert spec.source == "ratio"

    def test_n100(self):
        spec = split_series(100)
        assert (spec.train_end, spec.valid_end) == (40, 50)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            split_series(5)

    @given(st.integers(10, 5000))
    @settings(max_examples=100)
    def test_regions_partition(self, n):
        spec = split_series(n)
        assert 0 < spec.train_end < spec.valid_end < n


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(InvariantViolation):
            TimeSeries("x", [1.0, float("nan")], [0, 0], SplitSpec(1, 1))

    def test_rejects_bad_label(self):
        with pytest.raises(InvariantViolation):
            TimeSeries("x", [1.0, 2.0, 3.0], [0, 2, 0], SplitSpec(1, 2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvariantViolation):
            TimeSeries("x", [1.0, 2.0], [0], SplitSpec(1, 1))

    def test_rejects_empty_test_region(self):
        with pytest.raises(InvariantViolation):
            TimeSeries("x", [1.0, 2.0], [0, 0], SplitSpec(1, 2))

    def test_values_frozen(self):
        ts = TimeSeries("x", [1.0, 2.0, 3.0], [0, 1, 0], SplitSpec(1, 2))
        with pytest.raises(ValueError):
            ts.values[0] = 9.0

    def test_regions(self, make_series):
        ts = make_series(list(range(10)), [0] * 9 + [1], train_end=4, valid_end=5)
        assert ts.history().tolist() == [0, 1, 2, 3, 4]
        assert ts.test_values().tolist() == [5, 6, 7, 8, 9]
        assert ts.test_labels().tolist() == [0, 0, 0, 0, 1]
        assert ts.train_values().tolist() == [0, 1, 2, 3]


class TestValidateScores:
    def test_ok(self, make_series):
        ts = make_series([0.0] * 100, [0] * 99 + [1], train_end=40, valid_end=50)
        validate_scores(ts, [0.0] * 50)

    @pytest.mark.parametrize(
        "scores", [[0, 1.5] * 25, np.arange(50, dtype=np.int64), np.linspace(0, 1, 100)[::2]],
        ids=["list", "int-array", "strided-array"],
    )
    def test_returns_read_only_float64(self, make_series, scores):
        ts = make_series([0.0] * 100, [0] * 99 + [1], train_end=40, valid_end=50)
        arr = validate_scores(ts, scores)
        assert arr.dtype == np.float64 and arr.flags.c_contiguous
        assert not arr.flags.writeable
        assert arr.tolist() == [float(v) for v in scores]
        with pytest.raises(ValueError):
            arr[0] = 1.0

    def test_length_mismatch(self, make_series):
        ts = make_series([0.0] * 100, [0] * 99 + [1], train_end=40, valid_end=50)
        with pytest.raises(LengthMismatch, match="49 scores for test length 50"):
            validate_scores(ts, [0.0] * 49)

    def test_non_finite(self, make_series):
        ts = make_series([0.0] * 100, [0] * 99 + [1], train_end=40, valid_end=50)
        scores = [0.0] * 50
        scores[7] = float("nan")
        with pytest.raises(NonFiniteScore, match="non-finite score at 7"):
            validate_scores(ts, scores)


def test_segment_invariants():
    with pytest.raises(InvariantViolation):
        AnomalySegment(3, 2)
    assert AnomalySegment(2, 9).length == 8
