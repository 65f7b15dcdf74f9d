"""Orchestration: expand plans, run detectors, time them, evaluate, emit.

A run crosses datasets x schemas x detectors x criteria. Detector scoring
is wall-clock timed; metric evaluation is pure, so ``results.json`` is
byte-identical no matter how many workers execute the tasks. Everything
wall-clock-dependent lives in ``runtime.csv`` only.

Outputs under the chosen directory::

    results.json            full metric rows, aggregates, exclusions, failures
    scores/<ds>/<schema>/<detector>/<curve>.csv   raw score dumps
    tables/<criterion>.csv  detectors ranked by mean dataset f1_best
    runtime.csv             fit/inference seconds, per-sample time, parameters
    plotdata/tradeoff.csv   inference time vs mean score vs parameter size

Per-task problems (insufficient data, external-detector errors, bad score
arrays) are recorded as failures and never abort the run; only config and
dataset errors do.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from . import detectors as det
from .core import TimeSeries, validate_scores
from .datasets import (
    DatasetManifest, atomic_open, filter_anomaly_free, load_dataset, read_held_out,
    read_k_delay_override, read_score_dump, record_held_out, record_k_delay_override,
    resolve_k_delay, write_json, write_score_dump,
)
from .errors import (
    ConfigError,
    DatasetError,
    EmptyDataset,
    TooFewSeries,
    TsadError,
    from_fields,
    require_int,
)
from .extern import ExternalDetectorSpec, drive
from .metrics import (
    CurveLabels, EvalCriterion, MetricReport, RankedScores, aggregate, evaluate_curve,
)
from .schemas import SCHEMAS, BenchmarkPlan, Task, build_plan

EXCLUDED_ANOMALY_FREE = "anomaly_free_test"
EXCLUDED_POOLING = "statistical_pooling_unsupported"


@dataclass(frozen=True)
class RunConfig:
    datasets: tuple[str, ...]
    detectors: tuple[det.DetectorConfig | ExternalDetectorSpec, ...]
    schemas: tuple[str, ...] = ("naive",)
    criteria: tuple[EvalCriterion, ...] = (EvalCriterion(),)
    k_delay_overrides: Mapping[str, int | None] = field(default_factory=dict)
    seed: int = 0
    workers: int = 1
    allow_statistical_pooling: bool = False

    def __post_init__(self):
        require_int("seed", self.seed, 0)
        require_int("workers", self.workers, 1)
        if not isinstance(self.allow_statistical_pooling, bool):
            raise ConfigError("allow_statistical_pooling must be true or false")
        for name in ("datasets", "schemas"):
            values = getattr(self, name)
            if not isinstance(values, tuple) or not all(isinstance(v, str) for v in values):
                raise ConfigError(f"{name} must be a list of strings, got {values!r}")
        if not isinstance(self.k_delay_overrides, Mapping):
            raise ConfigError("k_delay_overrides must be an object")
        for name, k in self.k_delay_overrides.items():
            if k is not None:
                require_int(f"k_delay override for {name!r}", k, 0)
        if not self.datasets:
            raise ConfigError("need at least one dataset")
        if not self.detectors:
            raise ConfigError("need at least one detector")
        if not self.schemas:
            raise ConfigError("need at least one schema")
        _check_criteria(self.criteria)
        for schema in self.schemas:
            if schema not in SCHEMAS:
                raise ConfigError(f"unknown schema {schema!r}")
        names = [d.name for d in self.detectors]
        if len(set(names)) != len(names):
            raise ConfigError(f"detector names must be unique, got {names}")

    def echo(self) -> dict:
        """Config as recorded in results.json.

        Execution-only knobs (worker count) are omitted so reruns with
        different parallelism produce byte-identical reports. Every other
        field is written as ``parse_run_config`` reads it back.
        """
        doc = asdict(self)
        del doc["workers"]
        doc["detectors"] = [{"kind": d.kind, **asdict(d)} for d in self.detectors]
        return doc


def _check_criteria(criteria: Sequence[EvalCriterion]) -> None:
    """At least one criterion, each label once."""
    labels = [c.label for c in criteria]
    if not labels:
        raise ConfigError("need at least one criterion")
    if len(set(labels)) != len(labels):
        raise ConfigError(f"each criterion must be listed once, got {labels}")


def parse_run_config(doc: Mapping) -> RunConfig:
    """Parse and validate the run config JSON document."""
    return from_fields(
        RunConfig, doc, "config", detectors=_parse_detector, criteria=EvalCriterion.from_dict
    )


def _parse_detector(entry) -> det.DetectorConfig | ExternalDetectorSpec:
    """A detector entry: a built-in detector, or an external one when its
    kind is "external"."""
    if isinstance(entry, Mapping) and entry.get("kind") == "external":
        spec = {k: v for k, v in entry.items() if k != "kind"}
        return from_fields(ExternalDetectorSpec, spec, "external detector")
    return from_fields(det.DetectorConfig, entry, "detector")


@dataclass(frozen=True)
class MetricRow:
    dataset: str
    curve: str
    detector: str
    schema: str
    report: MetricReport

    @property
    def criterion(self) -> str:
        """The label of the criterion the row was scored with."""
        return self.report.criterion.label

    def to_dict(self) -> dict:
        """The metrics entry of results.json: the row's fields, with the
        report's fields in place of the report and its criterion as a label
        and a K; ``vars`` is a shallow copy of the fields, which ``asdict``
        would deep-copy at 20 times the cost."""
        doc = {**vars(self.report), **vars(self), "criterion": self.criterion,
               "k_delay": self.report.criterion.k_delay}
        del doc["report"]
        doc["best_threshold"] = _json_float(self.report.best_threshold)
        return doc


def _json_float(v: float):
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


@dataclass
class RuntimeStat:
    fit_seconds: float = 0.0
    inference_seconds: float = 0.0
    scored_samples: int = 0
    parameter_count: int = 0
    store_size: int = 0

    @property
    def per_sample_seconds(self) -> float:
        if self.scored_samples == 0:
            return 0.0
        return self.inference_seconds / self.scored_samples

    def add(self, task: RuntimeStat) -> None:
        """Fold in one task: times and samples add up, sizes take the max."""
        self.fit_seconds += task.fit_seconds
        self.inference_seconds += task.inference_seconds
        self.scored_samples += task.scored_samples
        self.parameter_count = max(self.parameter_count, task.parameter_count)
        self.store_size = max(self.store_size, task.store_size)


@dataclass
class RunReport:
    config_echo: dict
    rows: list[MetricRow] = field(default_factory=list)
    exclusions: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    runtime: dict[tuple[str, str], RuntimeStat] = field(default_factory=dict)
    # the label tradeoff.csv follows: the first criterion as scored on the
    # first dataset that has rows
    tradeoff_criterion: str | None = None

    def sorted_rows(self) -> list[MetricRow]:
        return sorted(
            self.rows,
            key=lambda r: (r.dataset, r.curve, r.detector, r.schema, r.criterion),
        )

    def aggregates(self) -> tuple[list[dict], list[dict]]:
        """Dataset-level and overall means per (detector, schema, criterion)."""
        grouped: dict[tuple[str, str, str], dict[str, list[MetricReport]]] = {}
        for row in self.rows:
            key = (row.detector, row.schema, row.criterion)
            grouped.setdefault(key, {}).setdefault(row.dataset, []).append(row.report)
        per_dataset = []
        overall = []
        for key in sorted(grouped):
            detector, schema, criterion = key
            head = {"detector": detector, "schema": schema, "criterion": criterion}
            ds_scores, total = aggregate(grouped[key])
            per_dataset.extend({**head, **asdict(ds)} for ds in ds_scores)
            overall.append({**head, **asdict(total)})
        return per_dataset, overall

    def to_results_doc(self) -> dict:
        per_dataset, overall = self.aggregates()
        return {
            "schema_version": 1,
            "config": self.config_echo,
            "metrics": [r.to_dict() for r in self.sorted_rows()],
            "aggregates": {"per_dataset": per_dataset, "overall": overall},
            "exclusions": sorted(
                self.exclusions,
                key=lambda e: (
                    e["dataset"], e["curve"], e.get("detector", ""), e.get("schema", ""),
                ),
            ),
            "failures": sorted(
                self.failures,
                key=lambda f: (
                    f["dataset"], f["schema"], f["detector"], ",".join(f["curves"]),
                ),
            ),
        }


def _failure(dataset: str, schema: str, detector: str, curves, exc: TsadError) -> dict:
    """The failures entry of results.json for curves that produced no rows."""
    return {
        "dataset": dataset,
        "schema": schema,
        "detector": detector,
        "curves": sorted(curves),
        "error": type(exc).__name__,
        "message": str(exc),
    }


def _run_builtin_task(
    config: det.DetectorConfig,
    task: Task,
    series_by_id: Mapping[str, TimeSeries],
) -> tuple[list[tuple[str, np.ndarray]], RuntimeStat]:
    t0 = time.perf_counter()
    pool = [series_by_id[sid].values[start:end] for sid, (start, end) in task.train_refs]
    fitted = det.fit(config, pool)
    fit_seconds = time.perf_counter() - t0
    scores = []
    inference = 0.0
    samples = 0
    for sid, (start, end) in task.eval_refs:
        series = series_by_id[sid]
        context = series.values[:start]
        test = series.values[start:end]
        t1 = time.perf_counter()
        arr = det.score(fitted, context, test)
        inference += time.perf_counter() - t1
        scores.append((sid, validate_scores(series, arr)))
        samples += len(test)
    stat = RuntimeStat(
        fit_seconds, inference, samples, fitted.count_parameters(), fitted.store_size
    )
    return scores, stat


def _run_external_task(
    spec: ExternalDetectorSpec,
    task: Task,
    series_by_id: Mapping[str, TimeSeries],
) -> tuple[list[tuple[str, np.ndarray]], RuntimeStat]:
    t0 = time.perf_counter()
    results = drive(spec, task, series_by_id)
    elapsed = time.perf_counter() - t0
    # external processes are timed end to end, so all of it is inference
    stat = RuntimeStat(inference_seconds=elapsed, scored_samples=sum(len(a) for _, a in results))
    return results, stat


@dataclass(frozen=True)
class DatasetContext:
    """One dataset as ``run`` and ``eval`` score it: its kept curves and
    their labels by id, in manifest order, and the configured criteria with
    their K resolved for this dataset, in config order; criteria that
    resolve alike are kept once."""

    name: str
    series_by_id: Mapping[str, TimeSeries]
    labels_by_id: Mapping[str, CurveLabels]
    criteria: tuple[EvalCriterion, ...]


def _dataset_context(report: RunReport, dataset: tuple[list[TimeSeries], DatasetManifest],
                     criteria: Sequence[EvalCriterion],
                     k_delay_overrides: Mapping[str, int | None]) -> DatasetContext:
    """The context of a dataset as ``load_dataset`` returns it; each curve
    without an anomaly in its test region is recorded in report as an
    exclusion."""
    series, manifest = dataset
    kept, excluded = filter_anomaly_free(series)
    for cid in excluded:
        report.exclusions.append(
            {"dataset": manifest.name, "curve": cid, "reason": EXCLUDED_ANOMALY_FREE}
        )
    return DatasetContext(
        name=manifest.name,
        series_by_id={s.id: s for s in kept},
        labels_by_id={s.id: CurveLabels(s.test_labels()) for s in kept},
        criteria=tuple(dict.fromkeys(
            replace(c, k_delay=resolve_k_delay(k_delay_overrides, manifest, c.k_delay))
            for c in criteria
        )),
    )


def run(config: RunConfig, output_dir: str) -> RunReport:
    """Execute the full benchmark and write score dumps under output_dir."""
    report = RunReport(config_echo=config.echo())
    contexts: dict[str, DatasetContext] = {}
    for root in config.datasets:
        ctx = _dataset_context(report, load_dataset(root), config.criteria,
                               config.k_delay_overrides)
        if ctx.name in contexts:
            raise DatasetError(f"duplicate dataset name {ctx.name!r}")
        contexts[ctx.name] = ctx
    os.makedirs(output_dir, exist_ok=True)

    for ctx in contexts.values():
        if not ctx.series_by_id:
            continue
        record_k_delay_override(os.path.join(output_dir, "scores"), ctx.name,
                                config.k_delay_overrides)
        for schema in config.schemas:
            try:
                plan = build_plan(schema, list(ctx.series_by_id.values()), config.seed)
            except (TooFewSeries, EmptyDataset) as exc:
                report.failures.append(_failure(ctx.name, schema, "*", ctx.series_by_id, exc))
                continue
            if schema == "zero_shot":
                record_held_out(os.path.join(output_dir, "scores", ctx.name, schema),
                                [sid for task in plan.tasks for sid, _ in task.eval_refs])
            for detector in config.detectors:
                if (
                    isinstance(detector, det.DetectorConfig)
                    and schema != "naive"
                    and not detector.supports_pooling
                    and not config.allow_statistical_pooling
                ):
                    for task in plan.tasks:
                        for sid, _region in task.eval_refs:
                            report.exclusions.append(
                                {
                                    "dataset": ctx.name,
                                    "curve": sid,
                                    "detector": detector.name,
                                    "schema": schema,
                                    "reason": EXCLUDED_POOLING,
                                }
                            )
                    continue
                _run_detector(config.workers, report, ctx, plan, detector, output_dir)
    return report


def _run_detector(workers: int, report: RunReport, ctx: DatasetContext, plan: BenchmarkPlan,
                  detector, output_dir: str) -> None:
    name = detector.name
    runner = _run_builtin_task if isinstance(detector, det.DetectorConfig) else _run_external_task

    def attempt(task: Task) -> tuple[list, RuntimeStat] | TsadError:
        try:
            return runner(detector, task, ctx.series_by_id)
        except TsadError as exc:
            return exc

    if workers > 1 and len(plan.tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(attempt, plan.tasks))
    else:
        outcomes = [attempt(task) for task in plan.tasks]

    stat = report.runtime.setdefault((name, plan.schema), RuntimeStat())
    directory = os.path.join(output_dir, "scores", ctx.name, plan.schema, name)
    for task, outcome in zip(plan.tasks, outcomes):
        if isinstance(outcome, TsadError):
            curves = [sid for sid, _ in task.eval_refs]
            report.failures.append(_failure(ctx.name, plan.schema, name, curves, outcome))
            continue
        scores, runtime = outcome
        stat.add(runtime)
        for sid, arr in scores:
            os.makedirs(directory, exist_ok=True)  # none for a detector whose tasks all fail
            write_score_dump(os.path.join(directory, f"{sid}.csv"),
                             ctx.series_by_id[sid].test_start, arr)
            _evaluate_into(report, ctx, plan.schema, name, sid, arr)


def _evaluate_into(report: RunReport, ctx: DatasetContext, schema: str, detector: str,
                   curve: str, scores: np.ndarray) -> None:
    # One ranking per score array shares the sort and run-neighbour work
    # across criteria, as the curve's CurveLabels shares its label work
    # across schemas, detectors and criteria; each criterion is still its
    # own evaluate_curve call, so a profiler or tracer wrapping it sees
    # every criterion separately.
    ranked = RankedScores(scores)
    labels = ctx.labels_by_id[curve]
    if report.tradeoff_criterion is None:
        report.tradeoff_criterion = ctx.criteria[0].label
    for criterion in ctx.criteria:
        result = evaluate_curve(ranked, labels, criterion)
        report.rows.append(MetricRow(ctx.name, curve, detector, schema, result))


def evaluate_scores(
    scores_root: str,
    dataset_root: str,
    criteria: Sequence[EvalCriterion],
    k_delay_overrides: Mapping[str, int | None] | None = None,
) -> RunReport:
    """Recompute metrics from score dumps without re-running detectors.

    Walks ``<scores_root>/<dataset>/<schema>/<detector>/<curve>.csv`` for
    the dataset named by the manifest; anomaly-free curves are recorded as
    exclusions, as ``run`` records them, and per-curve problems (truncated,
    non-finite or missing dumps) as failures. Under naive and all_in_one
    every detector directory must hold a dump for every kept curve;
    zero_shot's held-out half depends on the run's seed, so there each
    detector must hold the curves ``run`` recorded as held out, or, for
    dumps without that record, the curves any detector of that schema
    dumped. The K override ``run`` recorded next to the dumps applies unless
    k_delay_overrides names the dataset.
    """
    _check_criteria(criteria)
    dataset = load_dataset(dataset_root)
    name = dataset[1].name
    k_delay_overrides = {**read_k_delay_override(scores_root, name), **(k_delay_overrides or {})}
    report = RunReport(
        config_echo={
            "datasets": [dataset_root],
            "criteria": [c.to_dict() for c in criteria],
            "k_delay_overrides": k_delay_overrides,
        }
    )
    ctx = _dataset_context(report, dataset, criteria, k_delay_overrides)
    ds_dir = os.path.join(scores_root, ctx.name)
    if not os.path.isdir(ds_dir):
        raise DatasetError(f"no score dumps for dataset {ctx.name!r} under {scores_root}")
    for schema in sorted(os.listdir(ds_dir)):
        schema_dir = os.path.join(ds_dir, schema)
        if not os.path.isdir(schema_dir):
            continue
        dumped: dict[str, list[str]] = {}  # detector -> curves, in file name order
        for detector in sorted(os.listdir(schema_dir)):
            det_dir = os.path.join(schema_dir, detector)
            if os.path.isdir(det_dir):
                names = (f[: -len(".csv")] for f in sorted(os.listdir(det_dir)) if f.endswith(".csv"))
                dumped[detector] = [c for c in names if c in ctx.series_by_id]
        if schema in ("naive", "all_in_one"):
            expected = set(ctx.series_by_id)
        elif (held_out := read_held_out(schema_dir)) is not None:
            expected = set(held_out).intersection(ctx.series_by_id)
        else:
            expected = set().union(*dumped.values())
        for detector, curves in dumped.items():
            det_dir = os.path.join(schema_dir, detector)
            for curve in sorted(expected.difference(curves)):
                missing = DatasetError(f"no score dump {os.path.join(det_dir, curve)}.csv")
                report.failures.append(_failure(ctx.name, schema, detector, [curve], missing))
            for curve in curves:
                series = ctx.series_by_id[curve]
                path = os.path.join(det_dir, f"{curve}.csv")
                try:
                    scores = validate_scores(series, read_score_dump(path, series.test_start))
                except TsadError as exc:
                    report.failures.append(_failure(ctx.name, schema, detector, [curve], exc))
                    continue
                _evaluate_into(report, ctx, schema, detector, curve, scores)
    return report


def emit_reports(report: RunReport, output_dir: str) -> None:
    """Write results.json, ranked per-criterion tables, runtime and plot data."""
    doc = report.to_results_doc()
    if not doc["metrics"] and not doc["failures"] and not doc["exclusions"]:
        raise EmptyDataset("nothing to report")
    os.makedirs(output_dir, exist_ok=True)
    write_json(os.path.join(output_dir, "results.json"), doc)
    write_tables(doc, os.path.join(output_dir, "tables"))
    _write_runtime_csv(report, os.path.join(output_dir, "runtime.csv"))
    _write_tradeoff_csv(report, doc, os.path.join(output_dir, "plotdata", "tradeoff.csv"))


def write_tables(results_doc: dict, tables_dir: str) -> None:
    """One CSV per criterion: rows are (detector, schema) ranked by the mean
    of their dataset-level f1_best scores, descending (name breaks ties)."""
    cells: dict[tuple[str, str, str], dict[str, float]] = {}
    datasets: dict[str, set[str]] = {}
    for e in results_doc["aggregates"]["per_dataset"]:
        key = (e["criterion"], e["detector"], e["schema"])
        cells.setdefault(key, {})[e["dataset"]] = e["f1_best_mean"]
        datasets.setdefault(e["criterion"], set()).add(e["dataset"])
    overall: dict[str, list[dict]] = {}
    for entry in results_doc["aggregates"]["overall"]:
        overall.setdefault(entry["criterion"], []).append(entry)
    os.makedirs(tables_dir, exist_ok=True)
    for criterion in sorted(overall):
        names = sorted(datasets.get(criterion, ()))
        entries = sorted(
            overall[criterion], key=lambda e: (-e["f1_best_mean"], e["detector"], e["schema"])
        )
        path = os.path.join(tables_dir, f"{criterion}.csv")
        with atomic_open(path) as fh:
            fh.write("detector,schema," + ",".join(names) + ",avg\n")
            for e in entries:
                row = cells.get((criterion, e["detector"], e["schema"]), {})
                cols = [f"{row[ds]:.6f}" if ds in row else "" for ds in names]
                fh.write(f"{e['detector']},{e['schema']}," + ",".join(cols)
                         + f",{e['f1_best_mean']:.6f}\n")


def _write_runtime_csv(report: RunReport, path: str) -> None:
    with atomic_open(path) as fh:
        fh.write(
            "detector,schema,fit_seconds,inference_seconds,scored_samples,"
            "per_sample_seconds,parameter_count,store_size\n"
        )
        for (detector, schema), stat in sorted(report.runtime.items()):
            fh.write(
                f"{detector},{schema},{stat.fit_seconds!r},"
                f"{stat.inference_seconds!r},{stat.scored_samples},"
                f"{stat.per_sample_seconds!r},{stat.parameter_count},"
                f"{stat.store_size}\n"
            )


def _write_tradeoff_csv(report: RunReport, results_doc: dict, path: str) -> None:
    """Plot-ready trade-off data: x = total inference seconds, y = mean
    score under the report's tradeoff criterion, size = cube root of the
    parameter count."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    overall = {
        (e["detector"], e["schema"]): e["f1_best_mean"]
        for e in results_doc["aggregates"]["overall"]
        if e["criterion"] == report.tradeoff_criterion
    }
    with atomic_open(path) as fh:
        fh.write("detector,schema,inference_seconds,mean_score,parameter_count,size\n")
        for (detector, schema), stat in sorted(report.runtime.items()):
            if (detector, schema) not in overall:
                continue
            size = stat.parameter_count ** (1.0 / 3.0)
            fh.write(
                f"{detector},{schema},{stat.inference_seconds:.6f},"
                f"{overall[(detector, schema)]:.6f},{stat.parameter_count},"
                f"{size:.6f}\n"
            )
