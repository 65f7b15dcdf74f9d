"""The pure-Python sweep (curves up to SWEEP_CUTOFF points) and the numpy
sweep (longer curves) must agree bit for bit.

Most cases run both paths on one RankedScores, so they see the same
activation order; one lets each path rank ties its own way. Results are
compared with ``==`` plus the sign of zero (the int64 bits).
A long curve is also checked against the brute-force oracle, for
reduced-length weights bit for bit (its sums are ``math.fsum``'s).
"""

import itertools
import json
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

import oracle
from tsadbench import metrics
from tsadbench.cli import main as cli_main
from tsadbench.errors import NoPositiveEvents
from tsadbench.metrics import (
    SWEEP_CUTOFF,
    VARIANTS,
    CurveLabels,
    EvalCriterion,
    RankedScores,
    best_f1,
    evaluate_criteria,
    evaluate_curve,
    prf_from_confusion,
    sweep_confusions,
)
from tsadbench.rng import SplitMix64
from tsadbench.synth import AnomalySpec, SynthConfig, generate_dataset

SETTINGS = list(itertools.product(VARIANTS, (None, 0, 3), (0, 9)))
REPORT_FIELDS = ("f1_best", "best_threshold", "precision_at_best", "recall_at_best", "auprc")


def _same_bits(a, b):
    """Equal float64 bit patterns, so signed zeros must match too."""
    bits = [np.asarray(x, dtype=np.float64).view(np.int64) for x in (a, b)]
    return np.array_equal(*bits)


def _both_paths(scores, labels, criterion):
    ranked = RankedScores(scores)
    segments = CurveLabels(labels).prolonged(criterion.prolong_len)
    slow = metrics._sweep_loop(ranked, segments, criterion)
    fast = metrics._sweep_numpy(ranked, segments, criterion)
    return slow, fast


def assert_paths_agree_one(scores, labels, criterion):
    slow, fast = _both_paths(scores, labels, criterion)
    for a, b in zip(slow[:4], fast[:4]):
        assert _same_bits(a, b)
    assert slow[4] == fast[4]
    assert metrics._report(slow, criterion) == metrics._report(fast, criterion)
    return slow


def assert_paths_agree(scores, labels):
    for variant, k, l in SETTINGS:
        criterion = EvalCriterion(variant, k_delay=k, prolong_len=l)
        slow, fast = _both_paths(scores, labels, criterion)
        for name, a, b in zip(("thresholds", "tps", "fps", "fns"), slow[:4], fast[:4]):
            b = b.tolist()
            assert a == b, (name, criterion)
            assert _same_bits(a, b), (name, criterion)
        assert slow[4] == fast[4]
        slow_report = metrics._report(slow, criterion)
        fast_report = metrics._report(fast, criterion)
        for field in REPORT_FIELDS:
            a, b = getattr(slow_report, field), getattr(fast_report, field)
            assert a == b and _same_bits(a, b), (field, criterion)


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


# lengths around 64, a short curve on the loop path, and around SWEEP_CUTOFF
LENGTHS = sorted({*range(62, 67), *range(SWEEP_CUTOFF - 2, SWEEP_CUTOFF + 3), 1000})


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("quantized", [False, True])
def test_paths_agree_on_random_curves(n, quantized):
    rng = SplitMix64(1000 * n + quantized)
    for _ in range(3):
        assert_paths_agree(_scores(rng, n, quantized), _random_labels(rng, n))


@pytest.mark.parametrize("n", [10, SWEEP_CUTOFF, 1000])
def test_paths_agree_on_their_own_rankings(n, monkeypatch):
    # the loop ranks ties by index, numpy in reverse; a tie group's
    # threshold must not depend on which point comes first
    rng = SplitMix64(77 + n)
    for _ in range(3):
        scores, labels = _scores(rng, n, True), _random_labels(rng, n)
        for variant, k, l in SETTINGS:
            criterion = EvalCriterion(variant, k_delay=k, prolong_len=l)
            sweeps = []
            for cutoff in (n, n - 1):
                monkeypatch.setattr(metrics, "SWEEP_CUTOFF", cutoff)
                sweeps.append(sweep_confusions(scores, labels, criterion))
            loop, numpy = sweeps
            for a, b in zip(loop, numpy):
                assert a == b and _same_bits(a, b), criterion
            assert not any(math.copysign(1.0, t) < 0 for t in loop[0] if t == 0)


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


@pytest.mark.parametrize("n", [63, 65, SWEEP_CUTOFF - 1, SWEEP_CUTOFF + 1, 1000])
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
    with np.errstate(divide="raise", invalid="raise"):
        columns = prf_from_confusion((tps, fps, fns))
    for i, triple in enumerate(triples):
        expected = prf_from_confusion(triple)
        got = tuple(float(column[i]) for column in columns)
        assert _same_bits(got, expected), triple
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
    reduced-length matches the pure-Python sweep and the definition bit for
    bit."""

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

    @pytest.fixture(scope="class")
    def isolated(self):
        # above 0.5 only every other point alarms: tens of thousands of
        # single-point false alarms, many terms in every FP sum
        rng = SplitMix64(2025)
        return [(p % 2 + rng.uniform()) / 2 for p in range(self.N)]

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

    @pytest.mark.parametrize("kind", [1, 2, 3], ids=["quantized", "unique", "isolated"])
    def test_reduced_length_bit_identical_to_loop(self, curve, isolated, kind):
        labels, scores = curve[0], (*curve, isolated)[kind]
        for k in (None, 3):
            criterion = EvalCriterion("reduced_length_pa", k_delay=k, prolong_len=9)
            slow = assert_paths_agree_one(scores, labels, criterion)
            thresholds = slow[0]
            reference = oracle.Reference(labels, k, 9)
            for i in range(0, len(thresholds), max(1, len(thresholds) // 200)):
                want = reference.confusion(scores, "reduced_length_pa", thresholds[i])
                assert _same_bits([column[i] for column in slow[1:4]], list(want)), (k, i)


def _assert_same_reports(got, want):
    assert got == want
    for a, b in zip(got, want):
        for field in REPORT_FIELDS:
            assert getattr(a, field).hex() == getattr(b, field).hex(), (field, a.criterion)


def _curve_labels_match_masks(scores, labels):
    """Reports through one CurveLabels, shared by every setting, equal
    those from the label mask, setting by setting and all at once."""
    ranked = RankedScores(scores)
    shared = CurveLabels(labels)
    criteria = [EvalCriterion(v, k_delay=k, prolong_len=l) for v, k, l in SETTINGS]
    want = [evaluate_curve(ranked, labels, c) for c in criteria]
    _assert_same_reports([evaluate_curve(ranked, shared, c) for c in criteria], want)
    _assert_same_reports(evaluate_criteria(ranked, shared, criteria), want)
    assert shared.prolonged(9) is shared.prolonged(9)
    for prolong_len in (0, 9):
        prolonged = shared.prolonged(prolong_len)
        assert not prolonged.in_seg.flags.writeable
        assert prolonged.in_seg.tolist() == list(prolonged.mask)


@pytest.mark.parametrize("n", [10, SWEEP_CUTOFF, SWEEP_CUTOFF + 1, 1000])
@pytest.mark.parametrize("quantized", [False, True])
def test_curve_labels_match_masks(n, quantized):
    rng = SplitMix64(31 * n + quantized)
    for _ in range(3):
        labels = _random_labels(rng, n)
        labels[n // 2] = 1
        _curve_labels_match_masks(_scores(rng, n, quantized), labels)


def test_curve_labels_match_masks_on_a_long_curve():
    rng = SplitMix64(2026)
    n = 120_000
    labels = _random_labels(rng, n)
    _curve_labels_match_masks(np.array([rng.randint(64) / 63.0 for _ in range(n)]), labels)


@pytest.mark.parametrize("n", [10, 1000])
def test_curve_labels_shared_by_two_score_arrays(n):
    rng = SplitMix64(5 + n)
    labels = _random_labels(rng, n)
    labels[0] = 1
    criteria = [EvalCriterion(v, k_delay=k, prolong_len=l) for v, k, l in SETTINGS]
    shuffled = [criteria[i] for i in sorted(range(len(criteria)), key=lambda _: rng.uniform())]
    shared = CurveLabels(np.array(labels))
    for quantized in (False, True):
        scores = _scores(rng, n, quantized)
        got = {r.criterion: r for r in evaluate_criteria(scores, shared, shuffled)}
        want = evaluate_criteria(scores, labels, criteria)
        _assert_same_reports([got[c] for c in criteria], want)


@pytest.mark.parametrize("n", [10, 1000])
def test_curve_labels_without_anomaly(n):
    rng = SplitMix64(n)
    scores, labels = _scores(rng, n, False), [0] * n
    shared = CurveLabels(labels)
    for variant, k, l in SETTINGS:
        criterion = EvalCriterion(variant, k_delay=k, prolong_len=l)
        for given in (labels, shared):
            with pytest.raises(NoPositiveEvents):
                evaluate_curve(scores, given, criterion)
        report = best_f1(scores, shared, criterion)
        assert report.f1_best == 0.0 and report.best_threshold == min(scores)
        assert math.isnan(report.auprc)
        _assert_same_reports([replace(report, auprc=0.0)],
                             [replace(best_f1(scores, labels, criterion), auprc=0.0)])


def test_reduced_length_past_split_limit_raises(monkeypatch):
    # the real limit, 2**23 points, keeps every weight below 16 and every
    # split running sum below 2**53
    assert math.log(metrics._SPLIT_LIMIT + math.e) < 16
    assert metrics._SPLIT_LIMIT * 2**30 <= 2**53
    with pytest.raises(ValueError):
        metrics._scaled_weights(metrics._SPLIT_LIMIT + 2)
    monkeypatch.setattr(metrics, "_SPLIT_LIMIT", 100)
    rng = SplitMix64(3)
    for n in (64, 100, 101, 150):
        scores, labels = _scores(rng, n, False), _random_labels(rng, n)
        labels[0] = 1
        criterion = EvalCriterion("reduced_length_pa")
        if n <= 100:
            evaluate_curve(scores, labels, criterion)
        else:
            with pytest.raises(ValueError):
                evaluate_curve(scores, labels, criterion)
        evaluate_curve(scores, labels, EvalCriterion("event_wise_pa"))


def test_weight_table_grows_safely_across_threads(monkeypatch):
    monkeypatch.setattr(metrics, "_scaled", ([], np.zeros(0, dtype=np.int64)))
    want = [int(math.log(j + math.e) * 2**52) for j in range(5000)]
    errors = []

    def grow(seed):
        rng = SplitMix64(seed)
        try:
            for _ in range(200):
                size = 1 + rng.randint(5000)
                listed, array = metrics._scaled_weights(size)
                assert len(listed) >= size and array.tolist() == listed
                assert listed[size - 1] == want[size - 1]
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors


def _write_dumps(scores_root, series, signed_zeros):
    """One naive dump per curve: 0 on every labeled point and the 9 after
    it, the zeros alternating in sign from ``signed_zeros[0]``, and
    distinct positive scores elsewhere, so no threshold above 0 detects
    anything and 0, the lowest score, is every criterion's best."""
    for s in series:
        labels = s.test_labels().tolist()
        scores, zeros = [], 0
        for p in range(len(labels)):
            if any(labels[max(0, p - 9) : p + 1]):
                scores.append(signed_zeros[zeros % 2])
                zeros += 1
            else:
                scores.append(1.0 + p)
        directory = scores_root / "zeros" / "naive" / "fixed"
        directory.mkdir(parents=True, exist_ok=True)
        rows = "".join(f"{s.test_start + p},{v!r}\n" for p, v in enumerate(scores))
        (directory / f"{s.id}.csv").write_text("index,score\n" + rows)


def test_eval_zero_threshold_is_positive_zero_on_both_paths(tmp_path):
    # test regions of SWEEP_CUTOFF and SWEEP_CUTOFF + 1 points: one curve
    # per sweep path
    configs = [
        SynthConfig(id=f"c{n}", length=2 * n, seed=n,
                    anomalies=(AnomalySpec(kind="global", count=3),))
        for n in (SWEEP_CUTOFF, SWEEP_CUTOFF + 1)
    ]
    dataset = tmp_path / "ds"
    series = generate_dataset(configs, str(dataset), name="zeros")
    assert [s.test_length for s in series] == [SWEEP_CUTOFF, SWEEP_CUTOFF + 1]
    criteria = ["point_wise_pa", "event_wise_pa", "reduced_length_pa",
                "point_wise_pa:k=0:l=0", "event_wise_pa:k=2:l=3"]
    rows = {}
    for name, signed_zeros in (("negative_first", (-0.0, 0.0)), ("positive", (0.0, 0.0))):
        _write_dumps(tmp_path / name, series, signed_zeros)
        out = tmp_path / f"{name}_out"
        argv = ["eval", "-s", str(tmp_path / name), "-d", str(dataset),
                "--criteria", *criteria, "-o", str(out)]
        assert cli_main(argv) == 0
        rows[name] = json.loads((out / "results.json").read_text())["metrics"]
    assert len(rows["negative_first"]) == 2 * len(criteria)
    for row in rows["negative_first"]:
        assert _same_bits(row["best_threshold"], 0.0), row
        assert row["f1_best"] > 0
    assert json.dumps(rows["negative_first"]) == json.dumps(rows["positive"])
