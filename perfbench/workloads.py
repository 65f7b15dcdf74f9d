"""The benchmark's workloads: seeded inputs, the CLI command each one times,
and the result shape it must produce.

Every input is a pure function of the workload seed. Sizes are fixed per
workload (only the values change with the seed), so two seeds cost the same
work. The program sees only the dataset directories and config files
written here.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tsadbench import datasets, synth
from tsadbench.core import SplitSpec, TimeSeries
from tsadbench.metrics import EvalCriterion, parse_criterion
from tsadbench.synth import AnomalySpec, SynthConfig

HERE = Path(__file__).resolve().parent
EXTERNAL_DETECTOR = HERE / "ext_first_diff.py"

# Criteria as the CLI's `eval --criteria` takes them.
RUN_CRITERIA = ("point_wise_pa", "event_wise_pa:k=3", "reduced_length_pa")
RESCORE_CRITERIA = (
    *RUN_CRITERIA,
    "point_wise_pa:l=0",
    "event_wise_pa:l=0",
    "reduced_length_pa:k=3:l=0",
)

MANY_LENGTHS = (400, 1000, 2000, 4000)
MANY_KINDS = (
    AnomalySpec("global"),
    AnomalySpec("contextual"),
    AnomalySpec("seasonal", min_len=10, max_len=20),
    AnomalySpec("trend", min_len=10, max_len=20),
    AnomalySpec("shapelet", min_len=10, max_len=20),
)
MANY_DETECTORS = ("first_diff", "ar")
MANY_SCHEMAS = ("naive", "all_in_one", "zero_shot")
LONG_DETECTORS = ("first_diff", "ar", "sub_lof", "matrix_profile")
LONG_EXTERNAL = "ext_first_diff"


@dataclass(frozen=True)
class Sizes:
    long_length: int
    long_train_end: int
    long_valid_end: int
    many_curves: int


# One CLI run takes 2-4 s on a 2-CPU machine, so a 30 s run repeats it about
# ten times. The long curve keeps criterion 08's 3,000-point training
# region (a 2,969-window store), so each scored window costs what it costs
# there; its 5,500 test points put its evaluation in the >5,000-point bucket.
FULL = Sizes(long_length=9000, long_train_end=3000, long_valid_end=3500, many_curves=40)
SMOKE = Sizes(long_length=1500, long_train_end=400, long_valid_end=500, many_curves=8)


def _curve_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & 0xFFFFFFFFFFFFFFFF


def long_series(seed: int, sizes: Sizes) -> list[TimeSeries]:
    """One long two-period curve with a predefined split (a modest training
    store, most of the curve scored)."""
    raw = synth.generate(
        SynthConfig(
            id="long",
            length=sizes.long_length,
            periods=(200.0, 37.0),
            amplitudes=(1.0, 0.5),
            noise_sigma=0.05,
            seed=_curve_seed(seed, 0),
            anomalies=(
                AnomalySpec("global", count=3),
                AnomalySpec("shapelet", count=2, min_len=20, max_len=40),
                AnomalySpec("trend", count=1, min_len=30, max_len=50),
            ),
        )
    )
    split = SplitSpec(sizes.long_train_end, sizes.long_valid_end, source="predefined")
    return [TimeSeries(id=raw.id, values=raw.values, labels=raw.labels, split=split)]


def many_series(seed: int, sizes: Sizes) -> list[TimeSeries]:
    """A Yahoo/NAB-shaped corpus: short curves of four lengths, the five
    anomaly kinds rotating, default 4:1:5 split."""
    return [
        synth.generate(
            SynthConfig(
                id=f"c{i:03d}",
                length=MANY_LENGTHS[i % len(MANY_LENGTHS)],
                periods=(30.0 + 10.0 * (i % 7),),
                noise_sigma=0.05,
                seed=_curve_seed(seed, i),
                anomalies=(MANY_KINDS[i % 5], MANY_KINDS[(i + 1) % 5]),
            )
        )
        for i in range(sizes.many_curves)
    ]


@dataclass
class Prepared:
    """What one set-up produced: the generated series and the arguments of
    the ``tsadbench`` command the timed runs execute (minus ``-o DIR``)."""

    series: list[TimeSeries]
    data_dir: Path
    cli_args: list[str]
    criteria: dict[str, EvalCriterion]  # by label, as in results.json
    detectors: tuple[str, ...]
    schemas: tuple[str, ...]
    generate_s: float
    write_s: float
    source_dir: Path | None = None  # rescore: the run whose dumps are re-read

    def expected_rows(self) -> int:
        n = len(self.series)
        per_schema = {"naive": n, "all_in_one": n, "zero_shot": n // 2}
        curves = sum(per_schema[s] for s in self.schemas)
        return curves * len(self.detectors) * len(self.criteria)


def _by_label(criteria) -> dict[str, EvalCriterion]:
    return {c.label: c for c in criteria}


def _generate(build, seed: int, sizes: Sizes, data_dir: Path, name: str):
    shutil.rmtree(data_dir, ignore_errors=True)
    t0 = time.perf_counter()
    series = build(seed, sizes)
    t1 = time.perf_counter()
    datasets.write_dataset(str(data_dir), series, name=name)
    return series, t1 - t0, time.perf_counter() - t1


def _write_config(path: Path, data_dir: Path, detectors: list[dict],
                  schemas: tuple[str, ...], workers: int) -> None:
    doc = {
        "datasets": [str(data_dir)],
        "detectors": detectors,
        "schemas": list(schemas),
        "criteria": [parse_criterion(c).to_dict() for c in RUN_CRITERIA],
        # Curve ids do not depend on the workload seed, so with a fixed plan
        # seed zero_shot evaluates the same curve lengths for every seed.
        "seed": 0,
        "workers": workers,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def prepare_long_series(work: Path, seed: int, sizes: Sizes) -> Prepared:
    data_dir = work / "data"
    series, gen_s, write_s = _generate(long_series, seed, sizes, data_dir, "long")
    detectors = [{"kind": k} for k in LONG_DETECTORS]
    detectors.append({
        "kind": "external",
        "name": LONG_EXTERNAL,
        "command": [sys.executable, str(EXTERNAL_DETECTOR)],
    })
    config = work / "run.json"
    _write_config(config, data_dir, detectors, ("naive",), workers=1)
    return Prepared(
        series=series, data_dir=data_dir, cli_args=["run", "-c", str(config)],
        criteria=_by_label(parse_criterion(c) for c in RUN_CRITERIA),
        detectors=(*LONG_DETECTORS, LONG_EXTERNAL), schemas=("naive",),
        generate_s=gen_s, write_s=write_s,
    )


def prepare_many_series(work: Path, seed: int, sizes: Sizes) -> Prepared:
    data_dir = work / "data"
    series, gen_s, write_s = _generate(many_series, seed, sizes, data_dir, "many")
    config = work / "run.json"
    # Two workers: the reference machine's core count, fixed so the
    # workload is the same on any machine.
    _write_config(config, data_dir, [{"kind": k} for k in MANY_DETECTORS],
                  MANY_SCHEMAS, workers=2)
    return Prepared(
        series=series, data_dir=data_dir, cli_args=["run", "-c", str(config)],
        criteria=_by_label(parse_criterion(c) for c in RUN_CRITERIA),
        detectors=MANY_DETECTORS, schemas=MANY_SCHEMAS,
        generate_s=gen_s, write_s=write_s,
    )


def rescore(source: Prepared, source_dir: Path) -> Prepared:
    """The eval command over the dumps a many_series run left in source_dir."""
    return Prepared(
        series=source.series, data_dir=source.data_dir,
        cli_args=["eval", "-s", str(source_dir / "scores"), "-d", str(source.data_dir),
                  "--criteria", *RESCORE_CRITERIA],
        criteria=_by_label(parse_criterion(c) for c in RESCORE_CRITERIA),
        detectors=source.detectors, schemas=source.schemas,
        generate_s=source.generate_s, write_s=source.write_s,
        source_dir=source_dir,
    )
