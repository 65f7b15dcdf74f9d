import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from tsadbench.core import AnomalySegment, extract_segments
from tsadbench.errors import ConfigError, EmptyDataset, NoPositiveEvents
from tsadbench.metrics import (
    EvalCriterion,
    MetricReport,
    aggregate,
    auprc,
    best_f1,
    evaluate_curve,
    parse_criterion,
    prf_from_confusion,
    prolong_segments,
    sweep_confusions,
)

E = math.e
VARIANTS = ("point_wise_pa", "event_wise_pa", "reduced_length_pa")


def _labels(n, *segments):
    """n labels, 1 on each (start, end) segment, both ends included."""
    labels = [0] * n
    for start, end in segments:
        labels[start : end + 1] = [1] * (end - start + 1)
    return labels


def adjust_scores_pa(scores, segments, k_delay=None):
    """The oracle's point adjustment, on segments that are not prolonged."""
    return oracle.Reference(_labels(len(scores), *segments), k_delay).adjusted(scores)


def detected_within_delay(segment, scores, threshold, k_delay):
    """The oracle's detection within K of one segment that is not prolonged."""
    reference = oracle.Reference(_labels(len(scores), segment), k_delay)
    (hit,), _runs = reference.alarms(scores, threshold)
    return hit


class TestProlong:
    def test_mid_clamp_against_next(self):
        segs = [AnomalySegment(10, 20), AnomalySegment(25, 30)]
        out = prolong_segments(segs, 9, 100)
        assert (out[0].start, out[0].end, out[0].orig_end) == (10, 24, 20)
        assert (out[1].start, out[1].end, out[1].orig_end) == (25, 39, 30)
        assert len(out) == len(segs)

    def test_identity_at_zero(self):
        out = prolong_segments([AnomalySegment(10, 20)], 0, 100)
        assert (out[0].start, out[0].end) == (10, 20)

    def test_clamped_at_series_end(self):
        out = prolong_segments([AnomalySegment(95, 97)], 9, 100)
        assert (out[0].start, out[0].end) == (95, 99)

    @given(
        labels=st.lists(st.integers(0, 1), min_size=1, max_size=80),
        length=st.integers(0, 20),
    )
    @settings(max_examples=200)
    def test_never_merges_and_obeys_formula(self, labels, length):
        segs = extract_segments(labels)
        out = prolong_segments(segs, length, len(labels))
        assert len(out) == len(segs)  # event count preserved
        for i, (seg, got) in enumerate(zip(segs, out)):
            limit = segs[i + 1].start - 1 if i + 1 < len(segs) else len(labels) - 1
            assert got.end == min(seg.end + length, limit, len(labels) - 1)
            assert got.start == seg.start
            assert got.orig_end == seg.end
        for a, b in zip(out, out[1:]):
            assert a.end < b.start  # still disjoint


class TestAdjustScores:
    def test_max_propagation(self):
        assert adjust_scores_pa([0, 0, 0.9, 0, 0], [(1, 3)]) == [0, 0.9, 0.9, 0.9, 0]

    def test_no_segments_identity(self):
        scores = [0.3, 0.1, 0.7]
        assert adjust_scores_pa(scores, []) == scores

    def test_each_segment_takes_own_max(self):
        scores = [0.2, 0.1, 0.0, 0.8, 0.5]
        out = adjust_scores_pa(scores, [(0, 1), (3, 4)])
        assert out == [0.2, 0.2, 0.0, 0.8, 0.8]

    def test_k_delay_restricts_window(self):
        # peak at offset 3 is invisible with k_delay=1
        scores = [0.1, 0.2, 0.0, 0.9, 0.0]
        out = adjust_scores_pa(scores, [(0, 4)], k_delay=1)
        assert out == [0.2] * 5

    @given(
        labels=st.lists(st.integers(0, 1), min_size=1, max_size=50),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_within_segment_scores_equal_max(self, labels, data):
        scores = data.draw(
            st.lists(
                st.floats(0, 1, allow_nan=False),
                min_size=len(labels),
                max_size=len(labels),
            )
        )
        segs = prolong_segments(extract_segments(labels), 3, len(labels))
        out = oracle.Reference(labels, prolong_len=3).adjusted(scores)
        for seg in segs:
            expected = max(scores[seg.start : seg.end + 1])
            assert all(out[p] == expected for p in range(seg.start, seg.end + 1))


class TestDetectedWithinDelay:
    def test_offset_three_within_limit(self):
        scores = [0.0] * 20
        scores[8] = 1.0
        assert detected_within_delay((5, 15), scores, 0.5, k_delay=3)

    def test_offset_four_beyond_limit(self):
        scores = [0.0] * 20
        scores[9] = 1.0
        assert not detected_within_delay((5, 15), scores, 0.5, k_delay=3)

    def test_no_limit_accepts_any_alarm(self):
        scores = [0.0] * 20
        scores[15] = 1.0
        assert detected_within_delay((5, 15), scores, 0.5, k_delay=None)
        assert not detected_within_delay((5, 14), scores, 0.5, k_delay=None)


def fig3_scores_and_labels():
    """One length-8 true segment with an in-segment alarm plus two isolated
    false alarms."""
    scores = [0.0] * 30
    scores[7] = 0.9
    scores[18] = 0.8
    scores[25] = 0.8
    labels = [0] * 30
    for i in range(5, 13):
        labels[i] = 1
    return scores, labels


class TestConfusionFig3:
    """The oracle's definition at one threshold."""

    def setup_method(self):
        self.scores, self.labels = fig3_scores_and_labels()

    def test_point_wise_precision(self):
        c = oracle.confusion(self.scores, self.labels, "point_wise_pa", 0.5)
        assert c == (8.0, 2.0, 0.0)
        precision, recall, _ = prf_from_confusion(c)
        assert precision == 0.8
        assert recall == 1.0

    def test_event_wise(self):
        c = oracle.confusion(self.scores, self.labels, "event_wise_pa", 0.5)
        assert c == (1.0, 2.0, 0.0)
        precision, recall, f1 = prf_from_confusion(c)
        assert abs(precision - 1 / 3) < 1e-12
        assert recall == 1.0
        assert f1 == 0.5

    def test_reduced_length(self):
        c = oracle.confusion(self.scores, self.labels, "reduced_length_pa", 0.5)
        tp, fp, _fn = c
        assert abs(tp - math.log(8 + E)) < 1e-12
        assert abs(fp - 2 * math.log(1 + E)) < 1e-12
        assert round(tp, 4) == 2.3720  # ln(8+e) = 2.37195...
        assert round(fp, 4) == 2.6265
        precision, recall, f1 = prf_from_confusion(c)
        assert abs(precision - 0.4745) < 1e-4
        assert recall == 1.0
        assert abs(f1 - 0.6436) < 1e-4

    def test_prolonged_segment_absorbs_adjacent_lag_run(self):
        # alarms right after the segment are not FPs once the segment is
        # prolonged over them
        scores = [0.0] * 30
        scores[7] = 0.9
        scores[13] = 0.8  # first post-segment point
        c = oracle.confusion(scores, self.labels, "event_wise_pa", 0.5, prolong_len=9)
        assert c == (1.0, 0.0, 0.0)

    def test_alarm_run_touching_segment_is_not_fp(self):
        # a run crossing the segment boundary belongs to the event
        scores = [0.0] * 30
        for i in range(11, 16):  # starts inside [5, 12], leaks past it
            scores[i] = 0.9
        c = oracle.confusion(scores, self.labels, "event_wise_pa", 0.5)
        assert c == (1.0, 0.0, 0.0)


class TestPrf:
    def test_perfect(self):
        assert prf_from_confusion((1, 0, 0)) == (1.0, 1.0, 1.0)

    def test_no_alarm_convention(self):
        assert prf_from_confusion((0, 0, 5)) == (0.0, 0.0, 0.0)

    def test_fig3_reduced_numbers(self):
        precision, recall, f1 = prf_from_confusion((2.3719508656, 2.6265233750, 0))
        assert abs(precision - 0.4745) < 1e-4
        assert recall == 1.0
        assert abs(f1 - 0.6436) < 1e-4


class TestBestF1:
    def test_perfect_separation(self):
        rep = best_f1([0.1, 0.9, 0.2], [0, 1, 0], EvalCriterion("point_wise_pa", prolong_len=0))
        assert rep.f1_best == 1.0
        assert rep.best_threshold == 0.9

    def test_all_labels_zero(self):
        rep = best_f1([0.1, 0.9, 0.2], [0, 0, 0], EvalCriterion("point_wise_pa"))
        assert rep.f1_best == 0.0

    def test_lowest_threshold_on_tie(self):
        # both 0.9 and 0.2 give f1=0 here; ties resolve downward
        rep = best_f1([0.2, 0.9], [0, 0], EvalCriterion("event_wise_pa"))
        assert rep.best_threshold == 0.2

    def test_harmonic_mean_invariant(self):
        scores, labels = fig3_scores_and_labels()
        for variant in VARIANTS:
            rep = best_f1(scores, labels, EvalCriterion(variant, prolong_len=0))
            p, r = rep.precision_at_best, rep.recall_at_best
            expected = 2 * p * r / (p + r) if p + r else 0.0
            assert abs(rep.f1_best - expected) < 1e-12

    def test_dominates_every_sampled_threshold(self):
        scores, labels = fig3_scores_and_labels()
        for variant in VARIANTS:
            crit = EvalCriterion(variant, prolong_len=2)
            rep = best_f1(scores, labels, crit)
            for t in [0.0, 0.1, 0.5, 0.8, 0.9, 1.5]:
                c = oracle.confusion(scores, labels, variant, t, prolong_len=2)
                assert rep.f1_best >= prf_from_confusion(c)[2] - 1e-15


class TestAuprc:
    def test_perfect_separation(self):
        assert auprc([0.1, 0.9, 0.2], [0, 1, 0], EvalCriterion("point_wise_pa", prolong_len=0)) == 1.0

    def test_constant_scores_point_wise(self):
        # single PR point: precision of the all-alarm prediction
        labels = [0, 1, 1, 0, 0]
        value = auprc([0.5] * 5, labels, EvalCriterion("point_wise_pa", prolong_len=0))
        assert abs(value - 2 / 5) < 1e-12

    def test_constant_scores_event_wise(self):
        # the single all-covering run touches the segment, so no FP
        labels = [0, 1, 1, 0, 0]
        value = auprc([0.5] * 5, labels, EvalCriterion("event_wise_pa", prolong_len=0))
        assert value == 1.0

    def test_no_positive_events(self):
        with pytest.raises(NoPositiveEvents):
            auprc([0.1, 0.2], [0, 0], EvalCriterion("event_wise_pa"))

    def test_bounded(self):
        scores, labels = fig3_scores_and_labels()
        for variant in VARIANTS:
            v = auprc(scores, labels, EvalCriterion(variant, prolong_len=0))
            assert 0.0 <= v <= 1.0

    def test_pr_curve_recall_monotone(self):
        from tsadbench.metrics import pr_curve

        scores, labels = fig3_scores_and_labels()
        for variant in VARIANTS:
            points = pr_curve(scores, labels, EvalCriterion(variant, prolong_len=0))
            thresholds = [p.threshold for p in points]
            assert thresholds == sorted(thresholds, reverse=True)
            recalls = [p.recall for p in points]
            assert all(b >= a for a, b in zip(recalls, recalls[1:]))
            assert all(0 <= p.precision <= 1 and 0 <= p.recall <= 1 for p in points)


def _rand_case(rng, n):
    labels = [1 if rng.uniform() < 0.3 else 0 for _ in range(n)]
    quantize = rng.uniform() < 0.5
    if quantize:
        scores = [round(rng.uniform() * 4) / 4 for _ in range(n)]
    else:
        scores = [rng.uniform() for _ in range(n)]
    return scores, labels


class TestSweepMatchesDirectEvaluation:
    """The incremental sweep must equal the oracle's per-threshold definition."""

    def test_random_instances_all_settings(self):
        from tsadbench.rng import SplitMix64

        rng = SplitMix64(123)
        for trial in range(60):
            n = 5 + rng.randint(60)
            scores, labels = _rand_case(rng, n)
            for variant in VARIANTS:
                for k in (None, 2):
                    for length in (0, 3):
                        crit = EvalCriterion(variant, k_delay=k, prolong_len=length)
                        ths, tps, fps, fns, _ = sweep_confusions(scores, labels, crit)
                        assert ths == sorted(set(scores), reverse=True)
                        for t, tp, fp, fn in zip(ths, tps, fps, fns):
                            want = oracle.confusion(scores, labels, variant, t, k, length)
                            assert tp == want[0]
                            assert fp == want[1]
                            assert fn == want[2]

    def test_matches_independent_oracle(self):
        from tsadbench.rng import SplitMix64

        rng = SplitMix64(321)
        for trial in range(40):
            n = 4 + rng.randint(26)
            scores, labels = _rand_case(rng, n)
            if not any(labels):
                labels[rng.randint(n)] = 1
            for variant in VARIANTS:
                for k in (None, 1, 3):
                    for length in (0, 2, 9):
                        crit = EvalCriterion(variant, k_delay=k, prolong_len=length)
                        rep = evaluate_curve(scores, labels, crit)
                        of1, ot, op, orec = oracle.best_f1(
                            scores, labels, variant, k, length
                        )
                        oa = oracle.auprc(scores, labels, variant, k, length)
                        assert abs(rep.f1_best - of1) < 1e-12
                        assert rep.best_threshold == ot
                        assert abs(rep.auprc - oa) < 1e-12


class TestInvariants:
    def test_tp_plus_fn_equals_segment_count(self):
        scores, labels = fig3_scores_and_labels()
        segs = prolong_segments(extract_segments(labels), 3, len(labels))
        for t in (0.0, 0.5, 0.85, 2.0):
            tp, _fp, fn = oracle.confusion(scores, labels, "event_wise_pa", t, prolong_len=3)
            assert tp + fn == len(segs)

    def test_severity_weight_monotone(self):
        weights = [math.log(k + E) for k in range(1, 50)]
        assert all(b > a for a, b in zip(weights, weights[1:]))
        assert abs(weights[0] - 1.3133) < 1e-4
        assert weights[0] > 1

    def test_k_constrains_tp(self):
        scores, labels = fig3_scores_and_labels()
        for variant in VARIANTS:
            free = sweep_confusions(scores, labels, EvalCriterion(variant, prolong_len=0))
            for k in (0, 1, 2, 5):
                constrained = sweep_confusions(
                    scores, labels, EvalCriterion(variant, k_delay=k, prolong_len=0)
                )
                for tp_k, tp in zip(constrained[1], free[1]):
                    assert tp_k <= tp + 1e-12
            # a huge K reproduces the unconstrained sweep exactly
            huge = sweep_confusions(
                scores, labels, EvalCriterion(variant, k_delay=999, prolong_len=0)
            )
            assert huge == free

    def test_recall_monotone_as_threshold_drops(self):
        scores, labels = fig3_scores_and_labels()
        for variant in VARIANTS:
            _, tps, _, _, _ = sweep_confusions(scores, labels, EvalCriterion(variant))
            assert all(b >= a for a, b in zip(tps, tps[1:]))

    def test_monotone_transform_leaves_metrics_unchanged(self):
        from tsadbench.rng import SplitMix64

        rng = SplitMix64(55)
        for _ in range(20):
            n = 8 + rng.randint(40)
            scores, labels = _rand_case(rng, n)
            if not any(labels):
                labels[0] = 1
            for variant in VARIANTS:
                crit = EvalCriterion(variant, prolong_len=2)
                base = evaluate_curve(scores, labels, crit)
                for transform in (lambda x: 2 * x + 1, lambda x: x**3):
                    moved = evaluate_curve([transform(s) for s in scores], labels, crit)
                    assert abs(moved.f1_best - base.f1_best) < 1e-12
                    assert abs(moved.auprc - base.auprc) < 1e-12


class TestAggregate:
    def _report(self, f1, auprc_value=0.5):
        return MetricReport(
            f1_best=f1,
            best_threshold=0.5,
            precision_at_best=1.0,
            recall_at_best=1.0,
            auprc=auprc_value,
            criterion=EvalCriterion(),
        )

    def test_dataset_mean(self):
        ds, overall = aggregate({"d": [self._report(0.5), self._report(1.0)]})
        assert ds[0].f1_best_mean == 0.75
        assert overall.f1_best_mean == 0.75

    def test_overall_ignores_curve_counts(self):
        ds, overall = aggregate(
            {
                "a": [self._report(0.8)] * 7,
                "b": [self._report(0.4)],
            }
        )
        assert overall.f1_best_mean == pytest.approx(0.6)
        assert overall.dataset_count == 2

    def test_order_independent(self):
        reports = [self._report(v) for v in (0.1, 0.9, 0.5)]
        a = aggregate({"d": reports})
        b = aggregate({"d": list(reversed(reports))})
        assert a[0][0].f1_best_mean == b[0][0].f1_best_mean

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            aggregate({})
        with pytest.raises(EmptyDataset):
            aggregate({"d": []})


class TestCriterionParsing:
    def test_label(self):
        assert EvalCriterion("event_wise_pa", 3, 9).label == "event_wise_pa_K3_L9"
        assert EvalCriterion("point_wise_pa").label == "point_wise_pa_L9"

    def test_parse(self):
        c = parse_criterion("reduced_length_pa:k=3:l=5")
        assert c == EvalCriterion("reduced_length_pa", 3, 5)
        assert parse_criterion("point_wise_pa") == EvalCriterion("point_wise_pa")

    def test_parse_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_criterion("nope")
        with pytest.raises(ConfigError):
            parse_criterion("point_wise_pa:z=1")

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            EvalCriterion("point_wise_pa", k_delay=-1)
        with pytest.raises(ConfigError):
            EvalCriterion("point_wise_pa", prolong_len=-1)
