"""Canonical dataset layout: loading, writing, validation, importers.

Directory layout::

    <root>/manifest.json
    <root>/curves/<id>.csv

``manifest.json`` holds ``{"name": str, "default_split": {"ratio": [4,1,5]}
| "predefined", "k_delay": int?, "curves": [{"id": str, "file": str,
"train_end": int?, "valid_end": int?}]}``. Curve files carry the header
``index,value,label`` with 0-based consecutive indices, decimal float
values and 0/1 labels, UTF-8 with LF line endings. Labels are the
canonical truth; segments are always derived from them.

Row numbers in errors count data rows starting at 1 (the header is row 0).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import DEFAULT_RATIO, SplitSpec, TimeSeries, split_series
from .errors import (
    InvariantViolation,
    MissingManifest,
    ParseError,
)

CURVE_HEADER = "index,value,label"

# Curve rows formatted and written per write call: bounds the text held in
# memory for one curve.
CURVE_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class CurveSpec:
    id: str
    file: str
    train_end: int | None = None
    valid_end: int | None = None

    @property
    def has_predefined_split(self) -> bool:
        return self.train_end is not None and self.valid_end is not None


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    curves: tuple[CurveSpec, ...]
    default_split: str = "ratio"  # "ratio" | "predefined"
    ratio: tuple[int, int, int] = DEFAULT_RATIO
    k_delay_default: int | None = None


def _parse_manifest(path: str) -> DatasetManifest:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest {path}: {exc}") from exc
    if not isinstance(doc, dict) or "name" not in doc or "curves" not in doc:
        raise ParseError(f"manifest {path}: expected object with name and curves")

    split = doc.get("default_split", {"ratio": list(DEFAULT_RATIO)})
    ratio = DEFAULT_RATIO
    if split == "predefined":
        default_split = "predefined"
    elif isinstance(split, dict) and "ratio" in split:
        default_split = "ratio"
        parts = split["ratio"]
        if (
            not isinstance(parts, list)
            or len(parts) != 3
            or not all(isinstance(p, int) and p > 0 for p in parts)
        ):
            raise ParseError(f"manifest {path}: bad ratio {parts!r}")
        ratio = tuple(parts)
    else:
        raise ParseError(f"manifest {path}: bad default_split {split!r}")

    k_delay = doc.get("k_delay")
    if k_delay is not None and (not isinstance(k_delay, int) or k_delay < 0):
        raise ParseError(f"manifest {path}: k_delay must be a non-negative integer")

    curves = []
    seen = set()
    for entry in doc["curves"]:
        if not isinstance(entry, dict) or "id" not in entry or "file" not in entry:
            raise ParseError(f"manifest {path}: curve entries need id and file")
        cid = entry["id"]
        if cid in seen:
            raise InvariantViolation(f"manifest {path}: duplicate curve id {cid!r}")
        seen.add(cid)
        curves.append(
            CurveSpec(
                id=cid,
                file=entry["file"],
                train_end=entry.get("train_end"),
                valid_end=entry.get("valid_end"),
            )
        )
    return DatasetManifest(
        name=doc["name"],
        curves=tuple(curves),
        default_split=default_split,
        ratio=ratio,
        k_delay_default=k_delay,
    )


def _parse_curve_file(path: str) -> tuple[list[float], list[int]]:
    values: list[float] = []
    labels: list[int] = []
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != CURVE_HEADER:
            raise ParseError(f"{path}: expected header {CURVE_HEADER!r}, got {header!r}")
        row = 0
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue
            row += 1
            parts = line.split(",")
            if len(parts) != 3:
                raise ParseError(f"{path}: expected 3 columns", row=row)
            idx_s, value_s, label_s = parts
            try:
                idx = int(idx_s)
                value = float(value_s)
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", row=row) from exc
            if idx != row - 1:
                raise ParseError(
                    f"{path}: index {idx} out of order (expected {row - 1})", row=row
                )
            if not math.isfinite(value):
                raise InvariantViolation(f"{path}: non-finite value", row=row)
            if label_s not in ("0", "1"):
                raise InvariantViolation(
                    f"{path}: label {label_s!r} not in {{0,1}}", row=row
                )
            values.append(value)
            labels.append(int(label_s))
    if not values:
        raise ParseError(f"{path}: no data rows")
    return values, labels


def _resolve_split(curve: CurveSpec, manifest: DatasetManifest, n: int) -> SplitSpec:
    if curve.has_predefined_split:
        return SplitSpec(
            train_end=curve.train_end, valid_end=curve.valid_end, source="predefined"
        )
    if manifest.default_split == "predefined":
        raise InvariantViolation(
            f"curve {curve.id!r}: manifest declares predefined splits but "
            "train_end/valid_end are missing"
        )
    return split_series(n, manifest.ratio)


def load_dataset(root: str) -> tuple[list[TimeSeries], DatasetManifest]:
    """Load and validate every curve under a canonical dataset directory."""
    manifest_path = os.path.join(root, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise MissingManifest(f"no manifest.json under {root}")
    manifest = _parse_manifest(manifest_path)
    series = []
    for curve in manifest.curves:
        path = os.path.join(root, curve.file)
        if not os.path.isfile(path):
            raise ParseError(f"curve file {path} referenced by manifest is missing")
        values, labels = _parse_curve_file(path)
        split = _resolve_split(curve, manifest, len(values))
        series.append(TimeSeries(id=curve.id, values=values, labels=labels, split=split))
    return series, manifest


def filter_anomaly_free(
    series: Sequence[TimeSeries],
) -> tuple[list[TimeSeries], list[str]]:
    """Drop every series whose test region contains no anomaly.

    Such curves cannot contribute recall under any criterion; their ids are
    returned so the run report can record the exclusion.
    """
    kept = []
    excluded = []
    for s in series:
        if int(s.test_labels().sum()) > 0:
            kept.append(s)
        else:
            excluded.append(s.id)
    return kept, excluded


def write_curve_csv(path: str, values: Sequence[float], labels: Sequence[int]) -> None:
    """One row per (value, label) pair: the value as ``repr`` of its float64,
    the label as an integer."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = min(len(values), len(labels))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CURVE_HEADER + "\n")
        for lo in range(0, n, CURVE_CHUNK_ROWS):
            hi = min(lo + CURVE_CHUNK_ROWS, n)
            rows = zip(range(lo, hi), values[lo:hi].tolist(), labels[lo:hi].tolist())
            fh.write("".join([f"{i},{v!r},{l}\n" for i, v, l in rows]))


def write_dataset(
    root: str,
    series: Sequence[TimeSeries],
    name: str,
    k_delay: int | None = None,
    ratio: tuple[int, int, int] = DEFAULT_RATIO,
) -> None:
    """Write the canonical layout; splits are stored per their source."""
    os.makedirs(os.path.join(root, "curves"), exist_ok=True)
    curves = []
    ratio_used = False
    for s in series:
        rel = f"curves/{s.id}.csv"
        write_curve_csv(os.path.join(root, rel), s.values, s.labels)
        entry = {"id": s.id, "file": rel}
        if s.split.source == "predefined":
            entry["train_end"] = s.split.train_end
            entry["valid_end"] = s.split.valid_end
        else:
            ratio_used = True
        curves.append(entry)
    doc = {
        "name": name,
        "default_split": {"ratio": list(ratio)} if ratio_used else "predefined",
        "curves": curves,
    }
    if k_delay is not None:
        doc["k_delay"] = k_delay
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def import_generic_csv(
    src_path: str,
    dst_path: str,
    value_column: str,
    label_column: str,
    delimiter: str = ",",
) -> None:
    """Convert a generic delimited file into a canonical curve file.

    Columns are identified by header name; any other columns (timestamps,
    ids) are dropped and the canonical 0-based index is regenerated.
    Importing an already-canonical file is the identity.
    """
    with open(src_path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n")
        if not header:
            raise ParseError(f"{src_path}: empty file")
        columns = [c.strip() for c in header.split(delimiter)]
        try:
            v_idx = columns.index(value_column)
            l_idx = columns.index(label_column)
        except ValueError as exc:
            raise ParseError(
                f"{src_path}: missing column ({value_column!r}/{label_column!r}) "
                f"in {columns}"
            ) from exc
        values: list[float] = []
        labels: list[int] = []
        row = 0
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue
            row += 1
            parts = line.split(delimiter)
            if len(parts) <= max(v_idx, l_idx):
                raise ParseError(f"{src_path}: short row", row=row)
            try:
                value = float(parts[v_idx])
            except ValueError as exc:
                raise ParseError(f"{src_path}: bad value {parts[v_idx]!r}", row=row) from exc
            if not math.isfinite(value):
                raise InvariantViolation(f"{src_path}: non-finite value", row=row)
            label_s = parts[l_idx].strip()
            if label_s in ("0", "1"):
                label = int(label_s)
            else:
                try:
                    label_f = float(label_s)
                except ValueError as exc:
                    raise ParseError(f"{src_path}: bad label {label_s!r}", row=row) from exc
                if label_f not in (0.0, 1.0):
                    raise InvariantViolation(
                        f"{src_path}: label {label_s!r} not in {{0,1}}", row=row
                    )
                label = int(label_f)
            values.append(value)
            labels.append(label)
    if not values:
        raise ParseError(f"{src_path}: no data rows")
    write_curve_csv(dst_path, values, labels)


def resolve_k_delay(
    overrides: Mapping[str, int | None],
    dataset_name: str,
    manifest: DatasetManifest,
    criterion_k: int | None,
) -> int | None:
    """Effective latency limit: run override > manifest default > criterion.

    An override explicitly set to None disables the manifest default.
    """
    if dataset_name in overrides:
        return overrides[dataset_name]
    if manifest.k_delay_default is not None:
        return manifest.k_delay_default
    return criterion_k
