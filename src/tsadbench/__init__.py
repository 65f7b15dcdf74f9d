"""Benchmark harness and event-based evaluation engine for real-time
univariate time-series anomaly detection."""

from .core import (
    AnomalySegment,
    SplitSpec,
    TimeSeries,
    extract_segments,
    segments_to_mask,
    split_series,
    validate_scores,
)
from .datasets import (
    DatasetManifest,
    filter_anomaly_free,
    import_generic_csv,
    load_dataset,
    write_dataset,
)
from .detectors import DetectorConfig, FittedDetector, fit, score
from .extern import ExternalDetectorSpec, drive
from .metrics import (
    EvalCriterion,
    ExtendedSegment,
    MetricReport,
    aggregate,
    auprc,
    best_f1,
    evaluate_curve,
    parse_criterion,
    prf_from_confusion,
    prolong_segments,
)
from .schemas import BenchmarkPlan, Task, plan_all_in_one, plan_naive, plan_zero_shot
from .synth import AnomalySpec, SynthConfig, generate, generate_dataset

__version__ = "0.1.0"
