"""Correctness checks on the CLI's outputs; each call to ``Checks.check``
counts as one attempted check."""

from __future__ import annotations

import importlib.util
import json
import math
import random
from pathlib import Path

TOLERANCE = 1e-12  # the acceptance suite's oracle tolerance
SHORT_CURVE = 500  # test points up to which the full threshold sweep is rechecked
ORACLE_SAMPLE = 12


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def load_oracle(root: Path):
    """The test suite's independent brute-force reference, loaded by path."""
    spec = importlib.util.spec_from_file_location("tsad_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_results(out_dir: Path) -> tuple[bytes, dict] | None:
    try:
        raw = (out_dir / "results.json").read_bytes()
    except OSError:
        return None
    return raw, json.loads(raw)


def check_rep(checks: Checks, label: str, exit_code: int, results, expected_rows: int,
              reference: bytes | None) -> None:
    """The checks every timed repetition gets."""
    checks.check(exit_code == 0, f"{label}: CLI exit code {exit_code}")
    if not checks.check(results is not None, f"{label}: no results.json"):
        return
    raw, doc = results
    checks.check(doc["failures"] == [], f"{label}: failures {doc['failures'][:3]}")
    rows = len(doc["metrics"])
    checks.check(rows == expected_rows, f"{label}: {rows} metric rows, expected {expected_rows}")
    if reference is not None:
        checks.check(raw == reference, f"{label}: results.json differs from the first run")


def check_same_dumps(checks: Checks, label: str, scores_root: Path, left: str, right: str) -> None:
    """Detector ``right`` left score dumps byte-identical to ``left``'s."""
    left_files = sorted(scores_root.glob(f"*/*/{left}/*.csv"))
    checks.check(bool(left_files), f"{label}: no {left} score dumps")
    for left_file in left_files:
        right_file = left_file.parent.parent / right / left_file.name
        same = right_file.is_file() and right_file.read_bytes() == left_file.read_bytes()
        checks.check(same, f"{label}: {right_file} differs from {left_file}")


def check_rows_match(checks: Checks, label: str, doc: dict, source: dict) -> None:
    """Rescored rows equal the run's rows for every criterion both cover."""
    shared = {row["criterion"] for row in source["metrics"]}
    rescored = [row for row in doc["metrics"] if row["criterion"] in shared]
    checks.check(rescored == source["metrics"],
                 f"{label}: rescored rows differ from the run's rows")


def _float(v) -> float:
    return float(v) if isinstance(v, str) else v  # "inf" / "-inf"


def _read_dump(path: Path) -> list[float]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(line.split(",")[1]) for line in lines if line]


def check_oracle(checks: Checks, oracle, doc: dict, scores_root: Path, prepared,
                 seed: int) -> None:
    """A seeded sample of metric rows agrees with tests/oracle.py.

    Short curves rerun the oracle's full sweep; longer ones recompute the
    F1 at the reported best threshold, which is linear in the curve length.
    """
    labels_by_curve = {s.id: s.test_labels().tolist() for s in prepared.series}
    rows = doc["metrics"]
    sample = random.Random(seed).sample(rows, min(ORACLE_SAMPLE, len(rows)))
    for row in sample:
        what = f"oracle: {row['curve']}/{row['schema']}/{row['detector']}/{row['criterion']}"
        criterion = prepared.criteria[row["criterion"]]
        variant, prolong = criterion.variant, criterion.prolong_len
        k = row["k_delay"]
        labels = labels_by_curve[row["curve"]]
        scores = _read_dump(
            scores_root / row["dataset"] / row["schema"] / row["detector"] / f"{row['curve']}.csv"
        )
        threshold = _float(row["best_threshold"])
        if len(labels) <= SHORT_CURVE:
            ref = oracle.FastOracle(labels, variant, k, prolong)
            f1, t_ref, area = ref.evaluate(scores)
            ok = abs(row["f1_best"] - f1) <= TOLERANCE and abs(row["auprc"] - area) <= TOLERANCE
            if threshold != t_ref:  # a different threshold is right only on a tie
                ok = ok and abs(ref.f1_at(scores, threshold) - f1) <= TOLERANCE
        else:
            tp, fp, fn = oracle.confusion(scores, labels, variant, threshold, k, prolong)
            precision, recall, f1 = oracle.prf(tp, fp, fn)
            ok = (
                abs(row["f1_best"] - f1) <= TOLERANCE
                and abs(row["precision_at_best"] - precision) <= TOLERANCE
                and abs(row["recall_at_best"] - recall) <= TOLERANCE
                and math.isfinite(row["auprc"])
            )
        checks.check(ok, what)
