import json
import math

import pytest

from tsadbench.core import SplitSpec, TimeSeries
from tsadbench.errors import EmptyDataset, TooFewSeries
from tsadbench.schemas import (
    build_plan,
    plan_all_in_one,
    plan_naive,
    plan_zero_shot,
)


def series(i, n=20):
    labels = [0] * n
    labels[-1] = 1
    return TimeSeries(
        id=f"s{i}",
        values=[float(j) for j in range(n)],
        labels=labels,
        split=SplitSpec(train_end=8, valid_end=10, source="predefined"),
    )


def dataset(count):
    return [series(i) for i in range(count)]


class TestNaive:
    def test_one_task_per_series(self):
        plan = plan_naive(dataset(3))
        assert len(plan.tasks) == 3
        for i, task in enumerate(plan.tasks):
            assert task.train_refs == ((f"s{i}", (0, 8)),)
            assert task.eval_refs == ((f"s{i}", (10, 20)),)

    def test_single_series(self):
        plan = plan_naive(dataset(1))
        assert len(plan.tasks) == 1

    def test_never_references_other_series(self):
        plan = plan_naive(dataset(5))
        for task in plan.tasks:
            train_ids = {sid for sid, _ in task.train_refs}
            eval_ids = {sid for sid, _ in task.eval_refs}
            assert train_ids == eval_ids
            assert len(train_ids) == 1

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            plan_naive([])


class TestAllInOne:
    def test_single_shared_pool(self):
        plan = plan_all_in_one(dataset(4))
        assert len(plan.tasks) == 1
        task = plan.tasks[0]
        assert [sid for sid, _ in task.train_refs] == ["s0", "s1", "s2", "s3"]
        assert [sid for sid, _ in task.eval_refs] == ["s0", "s1", "s2", "s3"]

    def test_pool_lists_every_series_once(self):
        plan = plan_all_in_one(dataset(6))
        ids = [sid for sid, _ in plan.tasks[0].train_refs]
        assert len(ids) == len(set(ids)) == 6

    def test_single_series_degenerates_to_naive(self):
        one = plan_all_in_one(dataset(1)).tasks[0]
        naive = plan_naive(dataset(1)).tasks[0]
        assert one == naive

    def test_regions_are_train_only(self):
        plan = plan_all_in_one(dataset(3))
        for _sid, (start, end) in plan.tasks[0].train_refs:
            assert (start, end) == (0, 8)  # never touches valid or test


class TestZeroShot:
    def test_halves_are_disjoint_and_exhaustive(self):
        ds = dataset(4)
        plan = plan_zero_shot(ds, seed=7)
        task = plan.tasks[0]
        train_ids = {sid for sid, _ in task.train_refs}
        eval_ids = {sid for sid, _ in task.eval_refs}
        assert train_ids & eval_ids == set()
        assert train_ids | eval_ids == {s.id for s in ds}
        assert len(train_ids) == 2 and len(eval_ids) == 2

    def test_deterministic(self):
        ds = dataset(10)
        a = plan_zero_shot(ds, seed=42)
        b = plan_zero_shot(ds, seed=42)
        assert a == b
        assert a.to_json() == b.to_json()

    def test_hundred_seeds_split_half_half(self):
        ds = dataset(10)
        all_ids = {s.id for s in ds}
        partitions = set()
        for seed in range(100):
            plan = plan_zero_shot(ds, seed)
            train_ids = frozenset(sid for sid, _ in plan.tasks[0].train_refs)
            eval_ids = frozenset(sid for sid, _ in plan.tasks[0].eval_refs)
            assert len(train_ids) == 5 and len(eval_ids) == 5
            assert train_ids | eval_ids == all_ids
            assert not train_ids & eval_ids
            partitions.add(train_ids)
        assert len(partitions) > 1  # different seeds do vary

    def test_odd_count_gives_extra_to_training(self):
        plan = plan_zero_shot(dataset(5), seed=0)
        assert len(plan.tasks[0].train_refs) == math.ceil(5 / 2) == 3
        assert len(plan.tasks[0].eval_refs) == 2

    def test_too_few(self):
        with pytest.raises(TooFewSeries):
            plan_zero_shot(dataset(1), seed=0)

    def test_eval_refs_are_test_regions_only(self):
        plan = plan_zero_shot(dataset(6), seed=3)
        for _sid, (start, end) in plan.tasks[0].eval_refs:
            assert (start, end) == (10, 20)


def test_no_plan_places_test_regions_in_training():
    ds = dataset(6)
    for schema in ("naive", "all_in_one", "zero_shot"):
        plan = build_plan(schema, ds, seed=1)
        for task in plan.tasks:
            for sid, (start, end) in task.train_refs:
                assert end <= 8  # train region boundary


def test_plan_serialization_round_trip_bytes():
    ds = dataset(7)
    text1 = build_plan("zero_shot", ds, seed=11).to_json()
    text2 = build_plan("zero_shot", ds, seed=11).to_json()
    assert text1.encode() == text2.encode()


@pytest.mark.parametrize(
    "schema, count, tasks",
    [
        ("naive", 2, [(["s0"], ["s0"]), (["s1"], ["s1"])]),
        ("all_in_one", 2, [(["s0", "s1"], ["s0", "s1"])]),
        ("zero_shot", 3, [(["s0", "s1"], ["s2"])]),
    ],
)
def test_plan_json_text(schema, count, tasks):
    """The exact text ``split`` writes: sorted keys, indent 2, one LF."""
    expected = {
        "schema": schema,
        "seed": 1 if schema == "zero_shot" else None,
        "tasks": [
            {
                "eval_refs": [[sid, [10, 20]] for sid in evals],
                "train_refs": [[sid, [0, 8]] for sid in trains],
            }
            for trains, evals in tasks
        ],
    }
    text = build_plan(schema, dataset(count), seed=1).to_json()
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"
