"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. Stated runtime bounds are asserted inside the tests themselves.
"""

import functools
import itertools
import json
import sys
import time

import pytest

import oracle
from conftest import STUB_DIR
from tsadbench import bench
from tsadbench.core import AnomalySegment, SplitSpec, TimeSeries, extract_segments
from tsadbench.datasets import write_dataset
from tsadbench.detectors import DetectorConfig, fit, score
from tsadbench.extern import ExternalDetectorSpec
from tsadbench.metrics import (
    EvalCriterion,
    best_f1,
    evaluate_curve,
    prf_from_confusion,
    prolong_segments,
    sweep_confusions,
)
from tsadbench.rng import SplitMix64
from tsadbench.schemas import plan_zero_shot
from tsadbench.synth import AnomalySpec, SynthConfig, generate, generate_dataset


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:2d} FAIL  {description}")
                raise
            print(f"\nACCEPTANCE {num:2d} PASS  {description}")
            return result

        return wrapper

    return decorate


def _swept_at(scores, labels, criterion, threshold):
    """The engine's (tp, fp, fn) at threshold: the sweep's entry at the last
    listed threshold at or above it."""
    thresholds, tps, fps, fns, _ = sweep_confusions(scores, labels, criterion)
    i = max(i for i, t in enumerate(thresholds) if t >= threshold)
    return tps[i], fps[i], fns[i]


@criterion(1, "Fig-3 scenario: point-wise 0.8, event-wise 1/3 & 0.5, reduced ~0.6436")
def test_criterion_01_fig3_scenario():
    start = time.perf_counter()
    scores = [0.0] * 30
    scores[7] = 0.9  # one in-segment alarm
    scores[18] = 0.8  # two isolated false alarms
    scores[25] = 0.8
    labels = [0] * 30
    for i in range(5, 13):  # one true segment of length 8
        labels[i] = 1

    # the definition (tests/oracle.py), then the engine's sweep
    c = oracle.confusion(scores, labels, "point_wise_pa", 0.5)
    precision, _, _ = prf_from_confusion(c)
    assert precision == 0.8
    assert _swept_at(scores, labels, EvalCriterion("point_wise_pa", prolong_len=0), 0.5) == (
        8.0, 2.0, 0.0)

    c = oracle.confusion(scores, labels, "event_wise_pa", 0.5)
    precision, recall, f1 = prf_from_confusion(c)
    assert abs(precision - 1.0 / 3.0) <= 1e-12
    assert recall == 1.0
    assert f1 == 0.5
    assert _swept_at(scores, labels, EvalCriterion("event_wise_pa", prolong_len=0), 0.5) == (
        1.0, 2.0, 0.0)

    reduced = EvalCriterion("reduced_length_pa", prolong_len=0)
    for c in (oracle.confusion(scores, labels, "reduced_length_pa", 0.5),
              _swept_at(scores, labels, reduced, 0.5)):
        _, _, f1 = prf_from_confusion(c)
        assert abs(f1 - 0.6436) <= 1e-4

    assert time.perf_counter() - start < 1.0


@criterion(2, "k-delay: first alarm at offset 3 detected, offset 4 missed (K=3)")
def test_criterion_02_k_delay_semantics():
    labels = [0] * 30
    labels[5:16] = [1] * 11  # one segment, onset 5
    reference = oracle.Reference(labels, k=3)
    k3 = EvalCriterion("event_wise_pa", k_delay=3, prolong_len=0)
    scores = [0.0] * 30
    scores[8] = 1.0  # offset 3 from onset
    assert reference.alarms(scores, 0.5)[0] == [True]
    assert _swept_at(scores, labels, k3, 0.5) == (1.0, 0.0, 0.0)
    scores = [0.0] * 30
    scores[9] = 1.0  # offset 4
    assert reference.alarms(scores, 0.5)[0] == [False]
    assert _swept_at(scores, labels, k3, 0.5) == (0.0, 0.0, 1.0)


def _label_strings_with_at_most_two_segments(max_len=10):
    out = []
    for n in range(1, max_len + 1):
        for bits in itertools.product((0, 1), repeat=n):
            runs = 0
            prev = 0
            for b in bits:
                if b and not prev:
                    runs += 1
                prev = b
            if runs <= 2:
                out.append(list(bits))
    return out


@criterion(3, "exhaustive oracle equivalence for best_f1 and auprc (<= 1e-12)")
def test_criterion_03_oracle_equivalence():
    start = time.perf_counter()
    label_strings = _label_strings_with_at_most_two_segments(10)
    assert len(label_strings) == 1022
    settings = [(None, 0), (2, 3)]  # without K and L; with K and L
    variants = ("point_wise_pa", "event_wise_pa", "reduced_length_pa")
    rng = SplitMix64(20240917)
    checked = 0
    cross_checked = 0
    for li, labels in enumerate(label_strings):
        n = len(labels)
        vectors = []
        for v in range(200):
            if v % 2:
                vectors.append([rng.uniform() for _ in range(n)])
            else:  # quantized scores exercise threshold ties
                vectors.append([rng.randint(5) / 4.0 for _ in range(n)])
        has_anomaly = any(labels)
        for k_delay, prolong_len in settings:
            for variant in variants:
                crit = EvalCriterion(variant, k_delay=k_delay, prolong_len=prolong_len)
                ref = oracle.FastOracle(labels, variant, k_delay, prolong_len)
                for scores in vectors:
                    if has_anomaly:
                        rep = evaluate_curve(scores, labels, crit)
                    else:
                        rep = best_f1(scores, labels, crit)
                    f1_ref, t_ref, auprc_ref = ref.evaluate(scores)
                    assert abs(rep.f1_best - f1_ref) <= 1e-12
                    if rep.best_threshold != t_ref:
                        # different threshold is fine only for a genuine tie
                        assert abs(ref.f1_at(scores, rep.best_threshold) - f1_ref) <= 1e-12
                    if has_anomaly:
                        assert abs(rep.auprc - auprc_ref) <= 1e-12
                    checked += 1
                # guard the fast oracle against the fully naive one
                if li % 199 == 0:
                    probe = vectors[0]
                    slow = oracle.best_f1(probe, labels, variant, k_delay, prolong_len)
                    fast = ref.evaluate(probe)
                    assert abs(slow[0] - fast[0]) <= 1e-12
                    assert slow[1] == fast[1]
                    if has_anomaly:
                        slow_area = oracle.auprc(probe, labels, variant, k_delay, prolong_len)
                        assert abs(slow_area - fast[2]) <= 1e-12
                    cross_checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1022 * 200 * 3 * 2
    assert cross_checked > 0
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s"


@criterion(4, "prolonging preserves event count and the exact end formula")
def test_criterion_04_prolong_never_merges():
    rng = SplitMix64(4242)
    for _ in range(10_000):
        n = 20 + rng.randint(100)
        segments = []
        pos = rng.randint(5)
        while pos < n:
            length = 1 + rng.randint(6)
            end = min(pos + length - 1, n - 1)
            segments.append(AnomalySegment(pos, end))
            pos = end + 2 + rng.randint(10)
        if not segments:
            segments = [AnomalySegment(0, 0)]
        for prolong_len in range(21):
            out = prolong_segments(segments, prolong_len, n)
            assert len(out) == len(segments)
            for i, (seg, got) in enumerate(zip(segments, out)):
                nxt = segments[i + 1].start - 1 if i + 1 < len(segments) else n - 1
                assert got.end == min(seg.end + prolong_len, nxt, n - 1)
                assert got.start == seg.start
            for a, b in zip(out, out[1:]):
                assert a.end < b.start


@criterion(5, "first_diff mean F1_best >= 0.9 on global-anomaly synthetic (point-wise PA)")
def test_criterion_05_first_diff_on_globals(tmp_path):
    start = time.perf_counter()
    configs = [
        SynthConfig(
            id=f"g{i:02d}",
            length=1500,
            seed=500 + i,
            noise_sigma=0.05,
            anomalies=(AnomalySpec(kind="global", count=3),),
        )
        for i in range(20)
    ]
    root = str(tmp_path / "globals")
    generate_dataset(configs, root, name="globals")
    config = bench.RunConfig(
        datasets=(root,),
        detectors=(DetectorConfig(kind="first_diff"),),
        schemas=("naive",),
        criteria=(EvalCriterion("point_wise_pa"),),
    )
    report = bench.run(config, str(tmp_path / "out"))
    assert len(report.rows) == 20 and not report.failures
    per_dataset, _overall = report.aggregates()
    mean_f1 = per_dataset[0]["f1_best_mean"]
    assert mean_f1 >= 0.9, f"mean F1_best {mean_f1:.4f}"
    assert time.perf_counter() - start < 30.0


@criterion(6, "matrix profile: zero on matching windows, F1_best 1.0 on shapelet")
def test_criterion_06_matrix_profile_shapelet():
    series = generate(
        SynthConfig(
            id="mp",
            length=600,
            periods=(25.0,),
            amplitudes=(1.0,),
            noise_sigma=0.0,
            seed=77,
            anomalies=(AnomalySpec(kind="shapelet", count=1, min_len=40, max_len=40),),
        )
    )
    m = 16
    fitted = fit(DetectorConfig(kind="matrix_profile", window=m), [series.train_values()])
    scores = score(fitted, series.history(), series.test_values())
    labels = series.test_labels().tolist()
    seg = extract_segments(labels)[0]

    # windows that far precede or follow the anomaly repeat the training
    # signal exactly and must sit at distance zero
    before = scores[: seg.start]
    after = scores[seg.end + m :]
    assert len(before) > 0 and len(after) > 0
    assert float(max(before.max(), after.max())) == 0.0
    # windows inside the anomalous segment are strictly positive
    assert float(scores[seg.start : seg.end + 1].min()) > 0.0

    rep = evaluate_curve(scores.tolist(), labels, EvalCriterion("event_wise_pa"))
    assert rep.f1_best == 1.0


@criterion(7, "zero-shot plans: byte-identical per seed, 100 seeds split half/half")
def test_criterion_07_zero_shot_determinism():
    configs = [
        SynthConfig(id=f"z{i}", length=200, seed=i,
                    anomalies=(AnomalySpec(kind="global", count=1),))
        for i in range(10)
    ]
    dataset = [generate(c) for c in configs]
    all_ids = {s.id for s in dataset}
    for seed in (0, 1, 17, 123456789):
        a = plan_zero_shot(dataset, seed).to_json().encode()
        b = plan_zero_shot(dataset, seed).to_json().encode()
        assert a == b
    partitions = set()
    for seed in range(100):
        plan = plan_zero_shot(dataset, seed)
        train_ids = frozenset(sid for sid, _ in plan.tasks[0].train_refs)
        eval_ids = frozenset(sid for sid, _ in plan.tasks[0].eval_refs)
        assert len(train_ids) == 5 and len(eval_ids) == 5
        assert not train_ids & eval_ids
        assert train_ids | eval_ids == all_ids
        partitions.add(train_ids)
    assert len(partitions) > 1


@criterion(8, "per-sample inference < 50 ms on a 140k-sample series (runtime.csv)")
def test_criterion_08_runtime_bound(tmp_path):
    raw = generate(
        SynthConfig(
            id="big",
            length=140_000,
            periods=(200.0,),
            amplitudes=(1.0,),
            noise_sigma=0.05,
            seed=808,
            anomalies=(AnomalySpec(kind="global", count=5),),
        )
    )
    # predefined split: modest training store, ~136.5k test samples to score
    series = TimeSeries(
        id="big",
        values=raw.values,
        labels=raw.labels,
        split=SplitSpec(train_end=3000, valid_end=3500, source="predefined"),
    )
    root = str(tmp_path / "big")
    write_dataset(root, [series], name="big")
    config = bench.RunConfig(
        datasets=(root,),
        detectors=(
            DetectorConfig(kind="first_diff"),
            DetectorConfig(kind="ar"),  # default window 32
            DetectorConfig(kind="sub_lof"),  # default window 32, 10 neighbors
            DetectorConfig(kind="matrix_profile"),
        ),
        schemas=("naive",),
        criteria=(EvalCriterion("event_wise_pa"),),
    )
    out = str(tmp_path / "out")
    report = bench.run(config, out)
    assert not report.failures
    bench.emit_reports(report, out)

    with open(f"{out}/runtime.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh]
    assert {r["detector"] for r in rows} == {"first_diff", "ar", "sub_lof", "matrix_profile"}
    for row in rows:
        assert int(row["scored_samples"]) == 136_500
        per_sample = float(row["per_sample_seconds"])
        assert per_sample < 0.050, f"{row['detector']}: {per_sample * 1e3:.3f} ms/sample"


@criterion(9, "results.json is byte-identical for 1 and 8 workers")
def test_criterion_09_worker_determinism(tmp_path):
    configs = [
        SynthConfig(
            id=f"p{i}",
            length=400,
            seed=900 + i,
            noise_sigma=0.05,
            anomalies=(
                AnomalySpec(kind="global", count=2),
                AnomalySpec(kind="trend", count=1, min_len=12, max_len=18),
            ),
        )
        for i in range(6)
    ]
    root = str(tmp_path / "par")
    generate_dataset(configs, root, name="par")
    blobs = []
    for workers, sub in ((1, "w1"), (8, "w8")):
        config = bench.RunConfig(
            datasets=(root,),
            detectors=(
                DetectorConfig(kind="first_diff"),
                DetectorConfig(kind="ar", window=8),
                DetectorConfig(kind="sub_lof", window=8, neighbors=4),
            ),
            schemas=("naive", "zero_shot"),
            criteria=(
                EvalCriterion("reduced_length_pa"),
                EvalCriterion("point_wise_pa", k_delay=3, prolong_len=0),
            ),
            seed=5,
            workers=workers,
        )
        out = str(tmp_path / sub)
        report = bench.run(config, out)
        bench.emit_reports(report, out)
        with open(f"{out}/results.json", "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


@criterion(10, "external stub error paths surface as task failures, run continues")
def test_criterion_10_external_protocol(tmp_path):
    configs = [
        SynthConfig(id=f"e{i}", length=300, seed=600 + i,
                    anomalies=(AnomalySpec(kind="global", count=2),))
        for i in range(3)
    ]
    root = str(tmp_path / "ext")
    generate_dataset(configs, root, name="ext")

    def stub(name, timeout=15.0):
        return ExternalDetectorSpec(
            command=(sys.executable, str(STUB_DIR / name)),
            name=name.removesuffix(".py"),
            startup_timeout=15.0,
            message_timeout=timeout,
        )

    config = bench.RunConfig(
        datasets=(root,),
        detectors=(
            stub("stub_ok.py"),
            stub("stub_short.py"),
            stub("stub_sleep.py", timeout=1.0),
            stub("stub_die.py"),
        ),
        schemas=("naive",),
        criteria=(EvalCriterion("event_wise_pa"),),
    )
    out = str(tmp_path / "out")
    report = bench.run(config, out)

    errors = {f["detector"]: f["error"] for f in report.failures}
    assert errors["stub_short"] == "LengthMismatch"
    assert errors["stub_sleep"] == "ExternalTimeout"
    assert errors["stub_die"] == "NonZeroExit"
    # the run was not aborted: the well-behaved stub scored every curve
    ok_rows = [r for r in report.rows if r.detector == "stub_ok"]
    assert len(ok_rows) == 3
    # ... and failures cover each failing detector once per naive task
    assert len(report.failures) == 9
    bench.emit_reports(report, out)
    doc = json.load(open(f"{out}/results.json"))
    assert len(doc["failures"]) == 9
