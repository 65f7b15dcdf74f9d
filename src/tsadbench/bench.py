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

import contextlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence

import numpy as np

from . import detectors as det
from .core import ScoreSeries, TimeSeries, validate_scores
from .datasets import DatasetManifest, filter_anomaly_free, load_dataset, resolve_k_delay
from .errors import (
    ConfigError,
    DatasetError,
    EmptyDataset,
    TooFewSeries,
    TsadError,
    require_int,
)
from .extern import ExternalDetectorSpec, drive
from .metrics import EvalCriterion, MetricReport, RankedScores, aggregate, evaluate_curve
from .schemas import SCHEMAS, BenchmarkPlan, Task, build_plan

EXCLUDED_ANOMALY_FREE = "anomaly_free_test"
EXCLUDED_POOLING = "statistical_pooling_unsupported"

# Score-dump rows formatted and written per write call: bounds the text
# held in memory for one dump.
DUMP_CHUNK_ROWS = 8192


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
        for name, k in self.k_delay_overrides.items():
            if k is not None:
                require_int(f"k_delay override for {name!r}", k, 0)
        if not self.datasets:
            raise ConfigError("need at least one dataset")
        if not self.detectors:
            raise ConfigError("need at least one detector")
        if not self.schemas:
            raise ConfigError("need at least one schema")
        if not self.criteria:
            raise ConfigError("need at least one criterion")
        for schema in self.schemas:
            if schema not in SCHEMAS:
                raise ConfigError(f"unknown schema {schema!r}")
        names = [_detector_name(d) for d in self.detectors]
        if len(set(names)) != len(names):
            raise ConfigError(f"detector names must be unique, got {names}")

    def echo(self) -> dict:
        """Config as recorded in results.json.

        Execution-only knobs (worker count) are omitted so reruns with
        different parallelism produce byte-identical reports.
        """
        return {
            "datasets": list(self.datasets),
            "detectors": [_detector_echo(d) for d in self.detectors],
            "schemas": list(self.schemas),
            "criteria": [c.to_dict() for c in self.criteria],
            "k_delay_overrides": dict(self.k_delay_overrides),
            "seed": self.seed,
            "allow_statistical_pooling": self.allow_statistical_pooling,
        }


def _detector_name(d) -> str:
    return d.display_name if isinstance(d, det.DetectorConfig) else d.name


def _detector_echo(d) -> dict:
    if isinstance(d, det.DetectorConfig):
        return {
            "kind": d.kind,
            "name": _detector_name(d),
            "window": d.window,
            "neighbors": d.neighbors,
            "ridge": d.ridge,
        }
    return {
        "kind": "external",
        "name": d.name,
        "command": list(d.command),
        "startup_timeout": d.startup_timeout,
        "message_timeout": d.message_timeout,
    }


def parse_run_config(doc: Mapping) -> RunConfig:
    """Parse and validate the run config JSON document."""
    if not isinstance(doc, Mapping):
        raise ConfigError("config must be a JSON object")
    extra = set(doc) - {f.name for f in fields(RunConfig)}
    if extra:
        raise ConfigError(f"unknown config fields {sorted(extra)}")
    given = dict(doc)  # fields left out take RunConfig's defaults
    given["datasets"] = tuple(doc.get("datasets", ()))
    given["detectors"] = tuple(_parse_detector(entry) for entry in doc.get("detectors", []))
    if "schemas" in doc:
        given["schemas"] = tuple(doc["schemas"])
    if "criteria" in doc:
        given["criteria"] = tuple(EvalCriterion.from_dict(c) for c in doc["criteria"])
    if "k_delay_overrides" in doc:
        if not isinstance(doc["k_delay_overrides"], Mapping):
            raise ConfigError("k_delay_overrides must be an object")
        given["k_delay_overrides"] = dict(doc["k_delay_overrides"])
    return RunConfig(**given)


def _parse_detector(entry) -> det.DetectorConfig | ExternalDetectorSpec:
    """A detector entry; keys that are not fields of its dataclass are ignored."""
    if not isinstance(entry, Mapping) or "kind" not in entry:
        raise ConfigError(f"detector entries need a kind: {entry!r}")
    if entry["kind"] != "external":
        return det.DetectorConfig(**_fields_in(det.DetectorConfig, entry))
    if not isinstance(entry.get("command"), list) or not entry["command"]:
        raise ConfigError("external detector needs a command list")
    given = _fields_in(ExternalDetectorSpec, entry)
    return ExternalDetectorSpec(**{**given, "command": tuple(entry["command"])})


def _fields_in(cls, entry: Mapping) -> dict:
    return {f.name: entry[f.name] for f in fields(cls) if f.name in entry}


@dataclass(frozen=True)
class MetricRow:
    dataset: str
    curve: str
    detector: str
    schema: str
    criterion: str
    k_delay: int | None
    report: MetricReport

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "curve": self.curve,
            "detector": self.detector,
            "schema": self.schema,
            "criterion": self.criterion,
            "k_delay": self.k_delay,
            "f1_best": self.report.f1_best,
            "best_threshold": _json_float(self.report.best_threshold),
            "precision_at_best": self.report.precision_at_best,
            "recall_at_best": self.report.recall_at_best,
            "auprc": self.report.auprc,
        }


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
            ds_scores, total = aggregate(grouped[key])
            for ds in ds_scores:
                per_dataset.append(
                    {
                        "detector": detector,
                        "schema": schema,
                        "criterion": criterion,
                        "dataset": ds.dataset,
                        "f1_best_mean": ds.f1_best_mean,
                        "auprc_mean": ds.auprc_mean,
                        "curve_count": ds.curve_count,
                    }
                )
            overall.append(
                {
                    "detector": detector,
                    "schema": schema,
                    "criterion": criterion,
                    "f1_best_mean": total.f1_best_mean,
                    "auprc_mean": total.auprc_mean,
                    "dataset_count": total.dataset_count,
                }
            )
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


@dataclass
class _TaskOutcome:
    scores: list[tuple[str, np.ndarray]]
    runtime: RuntimeStat


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


def _pool_values(task: Task, series_by_id: Mapping[str, TimeSeries]) -> list[np.ndarray]:
    return [
        series_by_id[sid].values[start:end] for sid, (start, end) in task.train_refs
    ]


def _run_builtin_task(
    config: det.DetectorConfig,
    task: Task,
    series_by_id: Mapping[str, TimeSeries],
) -> _TaskOutcome:
    t0 = time.perf_counter()
    fitted = det.fit(config, _pool_values(task, series_by_id))
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
        scored = ScoreSeries(series_id=sid, scores=arr)
        validate_scores(scored, series)
        scores.append((sid, scored.scores))
        samples += len(test)
    stat = RuntimeStat(
        fit_seconds, inference, samples, fitted.count_parameters(), fitted.store_size
    )
    return _TaskOutcome(scores, stat)


def _run_external_task(
    spec: ExternalDetectorSpec,
    task: Task,
    series_by_id: Mapping[str, TimeSeries],
) -> _TaskOutcome:
    t0 = time.perf_counter()
    results = drive(spec, task, series_by_id)
    elapsed = time.perf_counter() - t0
    # external processes are timed end to end, so all of it is inference
    stat = RuntimeStat(inference_seconds=elapsed, scored_samples=sum(len(r) for r in results))
    return _TaskOutcome([(r.series_id, r.scores) for r in results], stat)


def _dump_scores(
    out_dir: str,
    dataset: str,
    schema: str,
    detector: str,
    curve: str,
    test_start: int,
    scores: np.ndarray,
) -> None:
    directory = os.path.join(out_dir, "scores", dataset, schema, detector)
    os.makedirs(directory, exist_ok=True)
    with _atomic_open(os.path.join(directory, f"{curve}.csv")) as fh:
        fh.write("index,score\n")
        for lo in range(0, len(scores), DUMP_CHUNK_ROWS):
            chunk = scores[lo : lo + DUMP_CHUNK_ROWS].tolist()
            fh.write("".join(f"{j},{v!r}\n" for j, v in enumerate(chunk, test_start + lo)))


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text file that replaces path only once it is completely written, so
    a write that fails part way never leaves a partial file at path."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def run(config: RunConfig, output_dir: str) -> RunReport:
    """Execute the full benchmark and write score dumps under output_dir."""
    report = RunReport(config_echo=config.echo())
    os.makedirs(output_dir, exist_ok=True)

    loaded: list[tuple[str, list[TimeSeries], DatasetManifest]] = []
    seen_names = set()
    for root in config.datasets:
        series, manifest = load_dataset(root)
        if manifest.name in seen_names:
            raise DatasetError(f"duplicate dataset name {manifest.name!r}")
        seen_names.add(manifest.name)
        loaded.append((root, series, manifest))

    for _root, series, manifest in loaded:
        kept, excluded = filter_anomaly_free(series)
        for cid in excluded:
            report.exclusions.append(
                {"dataset": manifest.name, "curve": cid, "reason": EXCLUDED_ANOMALY_FREE}
            )
        if not kept:
            continue
        series_by_id = {s.id: s for s in kept}

        for schema in config.schemas:
            try:
                plan = build_plan(schema, kept, config.seed)
            except (TooFewSeries, EmptyDataset) as exc:
                report.failures.append(_failure(manifest.name, schema, "*", series_by_id, exc))
                continue
            for detector in config.detectors:
                name = _detector_name(detector)
                builtin = isinstance(detector, det.DetectorConfig)
                if (
                    builtin
                    and schema != "naive"
                    and not detector.supports_pooling
                    and not config.allow_statistical_pooling
                ):
                    for task in plan.tasks:
                        for sid, _region in task.eval_refs:
                            report.exclusions.append(
                                {
                                    "dataset": manifest.name,
                                    "curve": sid,
                                    "detector": name,
                                    "schema": schema,
                                    "reason": EXCLUDED_POOLING,
                                }
                            )
                    continue
                _run_detector(
                    config, report, manifest, series_by_id, plan, detector, output_dir
                )
    return report


def _run_detector(
    config: RunConfig,
    report: RunReport,
    manifest: DatasetManifest,
    series_by_id: Mapping[str, TimeSeries],
    plan: BenchmarkPlan,
    detector,
    output_dir: str,
) -> None:
    name = _detector_name(detector)
    runner = _run_builtin_task if isinstance(detector, det.DetectorConfig) else _run_external_task

    def attempt(task: Task) -> _TaskOutcome | TsadError:
        try:
            return runner(detector, task, series_by_id)
        except TsadError as exc:
            return exc

    if config.workers > 1 and len(plan.tasks) > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(attempt, plan.tasks))
    else:
        outcomes = [attempt(task) for task in plan.tasks]

    stat = report.runtime.setdefault((name, plan.schema), RuntimeStat())
    for task, outcome in zip(plan.tasks, outcomes):
        if isinstance(outcome, TsadError):
            curves = [sid for sid, _ in task.eval_refs]
            report.failures.append(_failure(manifest.name, plan.schema, name, curves, outcome))
            continue
        stat.add(outcome.runtime)
        for sid, arr in outcome.scores:
            series = series_by_id[sid]
            _dump_scores(
                output_dir, manifest.name, plan.schema, name,
                sid, series.test_start, arr,
            )
            _evaluate_into(
                report, config.criteria, config.k_delay_overrides, manifest,
                plan.schema, name, sid, arr, series.test_labels(),
            )


def _evaluate_into(
    report: RunReport,
    criteria: Sequence[EvalCriterion],
    k_delay_overrides: Mapping[str, int | None],
    manifest: DatasetManifest,
    schema: str,
    detector: str,
    curve: str,
    scores: np.ndarray,
    labels: np.ndarray,
) -> None:
    # One ranking per curve shares the sort and run-neighbour work across
    # criteria; each criterion is still its own evaluate_curve call, so a
    # profiler or tracer wrapping it sees every criterion separately.
    ranked = RankedScores(scores)
    for criterion in criteria:
        k_eff = resolve_k_delay(k_delay_overrides, manifest.name, manifest, criterion.k_delay)
        result = evaluate_curve(ranked, labels, replace(criterion, k_delay=k_eff))
        report.rows.append(
            MetricRow(
                dataset=manifest.name,
                curve=curve,
                detector=detector,
                schema=schema,
                criterion=criterion.label,
                k_delay=k_eff,
                report=result,
            )
        )


def evaluate_scores(
    scores_root: str,
    dataset_root: str,
    criteria: Sequence[EvalCriterion],
    k_delay_overrides: Mapping[str, int | None] | None = None,
) -> RunReport:
    """Recompute metrics from score dumps without re-running detectors.

    Walks ``<scores_root>/<dataset>/<schema>/<detector>/<curve>.csv`` for
    the dataset named by the manifest; per-curve problems (truncated,
    non-finite or missing dumps) are recorded as failures. Under naive and
    all_in_one every detector directory must hold a dump for every kept
    curve; zero_shot's held-out half depends on the run's seed, so there each
    detector must hold the curves any detector of that schema dumped.
    """
    series, manifest = load_dataset(dataset_root)
    kept, _excluded = filter_anomaly_free(series)
    series_by_id = {s.id: s for s in kept}
    k_delay_overrides = dict(k_delay_overrides or {})
    report = RunReport(
        config_echo={
            "datasets": [dataset_root],
            "criteria": [c.to_dict() for c in criteria],
            "k_delay_overrides": k_delay_overrides,
        }
    )
    ds_dir = os.path.join(scores_root, manifest.name)
    if not os.path.isdir(ds_dir):
        raise DatasetError(f"no score dumps for dataset {manifest.name!r} under {scores_root}")
    for schema in sorted(os.listdir(ds_dir)):
        schema_dir = os.path.join(ds_dir, schema)
        if not os.path.isdir(schema_dir):
            continue
        dumped: dict[str, list[str]] = {}  # detector -> curves, in file name order
        for detector in sorted(os.listdir(schema_dir)):
            det_dir = os.path.join(schema_dir, detector)
            if os.path.isdir(det_dir):
                names = (f[: -len(".csv")] for f in sorted(os.listdir(det_dir)) if f.endswith(".csv"))
                dumped[detector] = [c for c in names if c in series_by_id]
        if schema in ("naive", "all_in_one"):
            expected = set(series_by_id)
        else:
            expected = set().union(*dumped.values())
        for detector, curves in dumped.items():
            det_dir = os.path.join(schema_dir, detector)
            for curve in sorted(expected.difference(curves)):
                missing = DatasetError(f"no score dump {os.path.join(det_dir, curve)}.csv")
                report.failures.append(_failure(manifest.name, schema, detector, [curve], missing))
            for curve in curves:
                series_obj = series_by_id[curve]
                path = os.path.join(det_dir, f"{curve}.csv")
                try:
                    arr = _load_score_dump(path, series_obj.test_start)
                    scored = ScoreSeries(series_id=curve, scores=arr)
                    validate_scores(scored, series_obj)
                except TsadError as exc:
                    report.failures.append(_failure(manifest.name, schema, detector, [curve], exc))
                    continue
                _evaluate_into(
                    report, criteria, k_delay_overrides, manifest, schema, detector, curve,
                    scored.scores, series_obj.test_labels(),
                )
    return report


def _load_score_dump(path: str, test_start: int) -> list[float]:
    """Scores of one dump, whose index column must run test_start, test_start + 1, ..."""
    values = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != "index,score":
            raise DatasetError(f"{path}: expected 'index,score' header")
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue
            try:
                index, value = line.split(",")
                index, value = int(index), float(value)
            except ValueError:
                raise DatasetError(f"{path}: malformed row {line!r}") from None
            expected = test_start + len(values)
            if index != expected:
                raise DatasetError(f"{path}: index {index} where {expected} was expected")
            values.append(value)
    return values


def _write_json(path: str, doc: dict) -> None:
    with _atomic_open(path) as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def emit_reports(report: RunReport, output_dir: str) -> None:
    """Write results.json, ranked per-criterion tables, runtime and plot data."""
    doc = report.to_results_doc()
    if not doc["metrics"] and not doc["failures"] and not doc["exclusions"]:
        raise EmptyDataset("nothing to report")
    os.makedirs(output_dir, exist_ok=True)
    _write_json(os.path.join(output_dir, "results.json"), doc)
    write_tables(doc, os.path.join(output_dir, "tables"))
    _write_runtime_csv(report, os.path.join(output_dir, "runtime.csv"))
    _write_tradeoff_csv(report, doc, os.path.join(output_dir, "plotdata", "tradeoff.csv"))


def write_tables(results_doc: dict, tables_dir: str) -> None:
    """One CSV per criterion: rows are (detector, schema) ranked by the mean
    of their dataset-level f1_best scores, descending (name breaks ties)."""
    os.makedirs(tables_dir, exist_ok=True)
    cells: dict[tuple[str, str, str], dict[str, float]] = {}
    datasets: dict[str, set[str]] = {}
    for e in results_doc["aggregates"]["per_dataset"]:
        key = (e["criterion"], e["detector"], e["schema"])
        cells.setdefault(key, {})[e["dataset"]] = e["f1_best_mean"]
        datasets.setdefault(e["criterion"], set()).add(e["dataset"])
    overall: dict[str, list[dict]] = {}
    for entry in results_doc["aggregates"]["overall"]:
        overall.setdefault(entry["criterion"], []).append(entry)
    for criterion in sorted(overall):
        names = sorted(datasets.get(criterion, ()))
        entries = sorted(
            overall[criterion], key=lambda e: (-e["f1_best_mean"], e["detector"], e["schema"])
        )
        path = os.path.join(tables_dir, f"{criterion}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("detector,schema," + ",".join(names) + ",avg\n")
            for e in entries:
                row = cells.get((criterion, e["detector"], e["schema"]), {})
                cols = [f"{row[ds]:.6f}" if ds in row else "" for ds in names]
                fh.write(f"{e['detector']},{e['schema']}," + ",".join(cols)
                         + f",{e['f1_best_mean']:.6f}\n")


def _write_runtime_csv(report: RunReport, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "detector,schema,fit_seconds,inference_seconds,scored_samples,"
            "per_sample_seconds,parameter_count,store_size\n"
        )
        for (detector, schema) in sorted(report.runtime):
            stat = report.runtime[(detector, schema)]
            fh.write(
                f"{detector},{schema},{stat.fit_seconds!r},"
                f"{stat.inference_seconds!r},{stat.scored_samples},"
                f"{stat.per_sample_seconds!r},{stat.parameter_count},"
                f"{stat.store_size}\n"
            )


def _write_tradeoff_csv(report: RunReport, results_doc: dict, path: str) -> None:
    """Plot-ready trade-off data: x = total inference seconds, y = mean
    score under the first configured criterion, size = cube root of the
    parameter count."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    criteria = results_doc["config"].get("criteria", [])
    first_label = None
    if criteria:
        first_label = EvalCriterion.from_dict(criteria[0]).label
    overall = {
        (e["detector"], e["schema"]): e["f1_best_mean"]
        for e in results_doc["aggregates"]["overall"]
        if first_label is None or e["criterion"] == first_label
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("detector,schema,inference_seconds,mean_score,parameter_count,size\n")
        for (detector, schema) in sorted(report.runtime):
            if (detector, schema) not in overall:
                continue
            stat = report.runtime[(detector, schema)]
            size = stat.parameter_count ** (1.0 / 3.0)
            fh.write(
                f"{detector},{schema},{stat.inference_seconds:.6f},"
                f"{overall[(detector, schema)]:.6f},{stat.parameter_count},"
                f"{size:.6f}\n"
            )
