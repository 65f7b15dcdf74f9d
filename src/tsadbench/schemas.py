"""Expand a dataset into (training pool, evaluation target) task plans.

Three learning schemas are supported:

* ``naive``: one task per series, trained on that series' own train region.
* ``all_in_one``: one task whose pool lists every series' train region
  (series boundaries preserved, pools are never concatenated into one
  continuous signal) and which evaluates every series.
* ``zero_shot``: ids are shuffled deterministically, the first half (plus
  the odd one) forms the training pool, and the remaining series are
  evaluated on their test regions.

A region is a half-open (start, end) index pair into the named series.
No plan ever places a test region in a training pool.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .core import TimeSeries
from .datasets import json_text
from .errors import ConfigError, EmptyDataset, TooFewSeries
from .rng import SplitMix64

SCHEMAS = ("naive", "all_in_one", "zero_shot")

Region = tuple[int, int]
SeriesRef = tuple[str, Region]


@dataclass(frozen=True)
class Task:
    """One unit of model fitting plus the eval targets it serves."""

    train_refs: tuple[SeriesRef, ...]
    eval_refs: tuple[SeriesRef, ...]


@dataclass(frozen=True)
class BenchmarkPlan:
    schema: str
    tasks: tuple[Task, ...]
    seed: int | None = None  # set for zero_shot only

    def to_json(self) -> str:
        return json_text(asdict(self))


def _train_ref(series: TimeSeries) -> SeriesRef:
    return (series.id, (0, series.split.train_end))

def _eval_ref(series: TimeSeries) -> SeriesRef:
    return (series.id, (series.split.valid_end, len(series)))


def plan_naive(dataset: Sequence[TimeSeries]) -> BenchmarkPlan:
    """One exclusive detector per series, evaluated on its own test region."""
    if not dataset:
        raise EmptyDataset("naive plan needs at least one series")
    tasks = tuple(
        Task(train_refs=(_train_ref(s),), eval_refs=(_eval_ref(s),)) for s in dataset
    )
    return BenchmarkPlan(schema="naive", tasks=tasks)


def plan_all_in_one(dataset: Sequence[TimeSeries]) -> BenchmarkPlan:
    """One unified model trained on every series' train region."""
    if not dataset:
        raise EmptyDataset("all_in_one plan needs at least one series")
    ordered = sorted(dataset, key=lambda s: s.id)
    task = Task(
        train_refs=tuple(_train_ref(s) for s in ordered),
        eval_refs=tuple(_eval_ref(s) for s in ordered),
    )
    return BenchmarkPlan(schema="all_in_one", tasks=(task,))


def plan_zero_shot(dataset: Sequence[TimeSeries], seed: int) -> BenchmarkPlan:
    """Disjoint train/test series subsets chosen by a seeded shuffle.

    Ids are sorted, then Fisher-Yates-shuffled with SplitMix64(seed); the
    first ceil(m/2) ids train, the rest are evaluated. Identical
    (dataset, seed) pairs give identical plans on every platform.
    """
    if len(dataset) < 2:
        raise TooFewSeries("zero_shot plan needs at least two series")
    by_id = {s.id: s for s in dataset}
    ids = sorted(by_id)
    SplitMix64(seed).shuffle(ids)
    cut = math.ceil(len(ids) / 2)
    train_ids = sorted(ids[:cut])
    eval_ids = sorted(ids[cut:])
    task = Task(
        train_refs=tuple(_train_ref(by_id[i]) for i in train_ids),
        eval_refs=tuple(_eval_ref(by_id[i]) for i in eval_ids),
    )
    return BenchmarkPlan(schema="zero_shot", tasks=(task,), seed=seed)


def build_plan(schema: str, dataset: Sequence[TimeSeries], seed: int = 0) -> BenchmarkPlan:
    if schema == "naive":
        return plan_naive(dataset)
    if schema == "all_in_one":
        return plan_all_in_one(dataset)
    if schema == "zero_shot":
        return plan_zero_shot(dataset, seed)
    raise ConfigError(f"unknown schema {schema!r}")
