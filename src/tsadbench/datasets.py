"""Canonical dataset layout: loading, writing, validation, importers; and
the one atomic writer every output file of the package goes through.

Directory layout::

    <root>/manifest.json
    <root>/curves/<id>.csv

``manifest.json`` holds ``{"name": str, "default_split": {"ratio": [4,1,5]}
| "predefined", "k_delay": int?, "curves": [{"id": str, "file": str,
"train_end": int?, "valid_end": int?}]}``. Its keys are the fields of
``DatasetManifest`` and ``CurveSpec``, which check them: ``train_end``,
``valid_end`` and ``k_delay`` are non-negative integers, ratio parts are
positive integers (a boolean is neither), and a key that names no field is
an error. Curve files carry the header ``index,value,label`` with 0-based
consecutive indices, decimal float values and 0/1 labels, UTF-8 with LF
line endings. Labels are the canonical truth; segments are always derived
from them. Score dumps carry the header ``index,score`` with indices
running from the curve's test start.

Both formats are read by one line loop, ``_parse_rows``, as ``int()``/
``float()`` read their fields: blank lines are skipped and CRLF is
accepted. numpy's C reader (``np.loadtxt``) reads a subset of that to the
same numbers, so it reads every file first; a file it rejects, or whose
columns fail their checks, is read again by the line loop, the one source
of read errors. Each error about a data row names that row; rows are
counted from 1 (the header is row 0).

Every file the package writes (curve files, manifests, score dumps,
results.json, tables, runtime and plot data, plans) goes through
``atomic_open``: it replaces its path only once completely written. JSON
documents are laid out by ``json_text``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import DEFAULT_RATIO, SplitSpec, TimeSeries, split_series
from .errors import (
    ConfigError, DatasetError, InvariantViolation, MissingManifest, ParseError, from_fields,
    require_int, require_name,
)

CURVE_HEADER = "index,value,label"
DUMP_HEADER = "index,score"

# Rows formatted and written per write call, in curve files and score
# dumps: bounds the text held in memory for one file.
CHUNK_ROWS = 8192

# The columns numpy reads. Its int64 parser rejects "2e2" and "200.0", as
# int() does; numpy 1.23 deprecated, but still made, the parse through a
# float (200), so pyproject.toml asks for the numpy release this reader
# was checked against. Labels are read as str objects, which must be
# "0" or "1" as the loop requires: as numbers "+1" and "01" would read as
# 1, and fixed-width text drops trailing NULs. Both are cached one-character
# strings, so the column costs one pointer a row.
_CURVE_ROWS = np.dtype([("index", np.int64), ("value", np.float64), ("label", object)])
_DUMP_ROWS = np.dtype([("index", np.int64), ("value", np.float64)])


@contextlib.contextmanager
def atomic_open(path: str):
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


# The layout of every JSON document written: sorted keys, indent 2, and
# one trailing LF.
_JSON_LAYOUT = json.JSONEncoder(sort_keys=True, indent=2)


def json_text(doc) -> str:
    return _JSON_LAYOUT.encode(doc) + "\n"


def write_json(path: str, doc) -> None:
    """doc written piece by piece, as ``json_text`` lays it out, so the
    whole text is never held in memory."""
    with atomic_open(path) as fh:
        for chunk in _JSON_LAYOUT.iterencode(doc):
            fh.write(chunk)
        fh.write("\n")


@dataclass(frozen=True)
class CurveSpec:
    """One entry of the manifest's curves list."""

    id: str
    file: str
    train_end: int | None = None
    valid_end: int | None = None

    def __post_init__(self):
        require_name("curve id", self.id)
        if not isinstance(self.file, str):
            raise ConfigError(f"curve file must be a string, got {self.file!r}")
        for name in ("train_end", "valid_end"):
            if getattr(self, name) is not None:
                require_int(name, getattr(self, name), 0)

    @property
    def has_predefined_split(self) -> bool:
        return self.train_end is not None and self.valid_end is not None


@dataclass(frozen=True)
class DatasetManifest:
    """The manifest.json document; ``default_split`` is ``"predefined"`` or
    ``{"ratio": [a, b, c]}``."""

    name: str
    curves: tuple[CurveSpec, ...]
    default_split: str | Mapping = field(default_factory=lambda: {"ratio": list(DEFAULT_RATIO)})
    k_delay: int | None = None

    def __post_init__(self):
        require_name("dataset name", self.name)
        split = self.default_split
        if split != "predefined":
            parts = split.get("ratio") if isinstance(split, Mapping) and len(split) == 1 else None
            if not isinstance(parts, (list, tuple)) or len(parts) != 3:
                raise ConfigError(f'default_split must be "predefined" or '
                                  f'{{"ratio": [a, b, c]}}, got {split!r}')
            for part in parts:
                require_int("ratio part", part, 1)
        if self.k_delay is not None:
            require_int("k_delay", self.k_delay, 0)
        seen = set()
        for curve in self.curves:
            if curve.id in seen:
                raise InvariantViolation(f"duplicate curve id {curve.id!r}")
            seen.add(curve.id)

    @property
    def ratio(self) -> tuple[int, int, int]:
        """The default split's ratio (``DEFAULT_RATIO`` when predefined)."""
        split = self.default_split
        return DEFAULT_RATIO if split == "predefined" else tuple(split["ratio"])


@dataclass(frozen=True)
class RecordedOverride:
    """scores/<dataset>/k_delay_override.json: the K override ``run``
    applied to the dataset, for ``eval`` of its dumps."""

    k_delay: int | None

    def __post_init__(self):
        if self.k_delay is not None:
            require_int("k_delay", self.k_delay, 0)


K_OVERRIDE_FILE = "k_delay_override.json"


def _read_document(path: str, cls, what: str, **items):
    """The JSON document at path read by ``from_fields``; a malformed one
    is a ParseError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return from_fields(cls, doc, what, **items)
    except (json.JSONDecodeError, ConfigError) as exc:
        raise ParseError(f"{what} {path}: {exc}") from exc
    except InvariantViolation as exc:
        raise InvariantViolation(f"{what} {path}: {exc}") from exc


def record_k_delay_override(scores_root: str, dataset: str,
                            overrides: Mapping[str, int | None]) -> None:
    """Record the override for dataset next to its dumps, or, when
    overrides do not name it, remove an earlier run's record."""
    path = os.path.join(scores_root, dataset, K_OVERRIDE_FILE)
    if dataset not in overrides:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_json(path, asdict(RecordedOverride(overrides[dataset])))


def read_k_delay_override(scores_root: str, dataset: str) -> dict[str, int | None]:
    """``{dataset: K}`` when ``run`` recorded an override for dataset under
    scores_root, else ``{}``."""
    path = os.path.join(scores_root, dataset, K_OVERRIDE_FILE)
    if not os.path.isfile(path):
        return {}
    return {dataset: _read_document(path, RecordedOverride, "k_delay override").k_delay}


@dataclass(frozen=True)
class HeldOutCurves:
    """scores/<dataset>/zero_shot/held_out.json: the curves ``run``'s
    zero_shot plan evaluated, for ``eval`` of their dumps."""

    curves: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.curves, tuple):
            raise ConfigError(f"curves must be a list, got {self.curves!r}")
        for curve in self.curves:
            require_name("curve id", curve)


HELD_OUT_FILE = "held_out.json"


def record_held_out(schema_dir: str, curves: Sequence[str]) -> None:
    """Record the curves zero_shot evaluated in its dump directory."""
    os.makedirs(schema_dir, exist_ok=True)
    write_json(os.path.join(schema_dir, HELD_OUT_FILE), asdict(HeldOutCurves(tuple(curves))))


def read_held_out(schema_dir: str) -> tuple[str, ...] | None:
    """The curves ``run`` recorded in schema_dir as zero_shot's evaluated
    ones, or None for dumps without a record."""
    path = os.path.join(schema_dir, HELD_OUT_FILE)
    if not os.path.isfile(path):
        return None
    return _read_document(path, HeldOutCurves, "zero_shot held-out record").curves


def _parse_rows(path: str, header: str, first: int, error: type[DatasetError] = ParseError):
    """The line loop: each data row of the file at path, in file order, as
    ``(row, value, remaining fields)``. error, naming the row, for another
    header, a row of another width than the header's, an index or value
    that ``int()``/``float()`` rejects, or an index other than
    first + row - 1."""
    width = header.count(",") + 1
    with open(path, encoding="utf-8") as fh:
        got = fh.readline().rstrip("\r\n")
        if got != header:
            raise error(f"{path}: expected header {header!r}, got {got!r}")
        row = 0
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue
            row += 1
            fields = line.split(",")
            if len(fields) != width:
                raise error(f"{path}: expected {width} columns", row=row)
            try:
                index, value = int(fields[0]), float(fields[1])
            except ValueError as exc:
                raise error(f"{path}: {exc}", row=row) from exc
            expected = first + row - 1
            if index != expected:
                raise error(f"{path}: index {index} where {expected} was expected", row=row)
            yield row, value, fields[2:]


def _parse_curve_file(path: str) -> tuple[list[float], list[int]]:
    values: list[float] = []
    labels: list[int] = []
    for row, value, (label,) in _parse_rows(path, CURVE_HEADER, 0):
        if not math.isfinite(value):
            raise InvariantViolation(f"{path}: non-finite value", row=row)
        if label not in ("0", "1"):
            raise InvariantViolation(f"{path}: label {label!r} not in {{0,1}}", row=row)
        values.append(value)
        labels.append(int(label))
    if not values:
        raise ParseError(f"{path}: no data rows")
    return values, labels


def _bulk_rows(path: str, header: str, rows: np.dtype, first: int):
    """The data rows of the file at path, read by numpy's C reader into the
    structured dtype ``rows``; or None, leaving the file to the line loop,
    if it has another header or no data row, or has a row numpy rejects or
    an ``index`` column other than first, first + 1, ..."""
    with open(path, encoding="utf-8") as fh:
        try:
            # numpy warns on a file without data rows; the loop rejects it
            if fh.readline().rstrip("\r\n") != header or all(line == "\n" for line in fh):
                return None
        except UnicodeDecodeError:
            return None
    try:
        table = np.loadtxt(path, rows, comments=None, delimiter=",", skiprows=1,
                           encoding="utf-8", ndmin=1)
    except ValueError:
        return None
    index = table["index"]
    if (index == np.arange(first, first + len(index))).all():
        return table
    return None


def _read_curve_file(path: str) -> tuple[Sequence[float], Sequence[int]]:
    """Values and labels of a curve file."""
    table = _bulk_rows(path, CURVE_HEADER, _CURVE_ROWS, 0)
    if table is not None:
        ones = table["label"] == "1"
        if np.isfinite(table["value"]).all() and (ones | (table["label"] == "0")).all():
            return table["value"], ones.astype(np.int64)
    return _parse_curve_file(path)


def _parse_score_dump(path: str, test_start: int) -> list[float]:
    return [value for _, value, _ in _parse_rows(path, DUMP_HEADER, test_start, DatasetError)]


def read_score_dump(path: str, test_start: int) -> np.ndarray:
    """Scores of one dump, whose index column must run test_start,
    test_start + 1, ...; a non-finite score is left to ``validate_scores``."""
    table = _bulk_rows(path, DUMP_HEADER, _DUMP_ROWS, test_start)
    if table is not None:
        return table["value"]
    return np.array(_parse_score_dump(path, test_start), dtype=np.float64)


def write_score_dump(path: str, test_start: int, scores: np.ndarray) -> None:
    """One row per score: its index, counted from test_start, and its ``repr``."""
    with atomic_open(path) as fh:
        fh.write(DUMP_HEADER + "\n")
        for lo in range(0, len(scores), CHUNK_ROWS):
            chunk = scores[lo : lo + CHUNK_ROWS].tolist()
            fh.write("".join([f"{j},{v!r}\n" for j, v in enumerate(chunk, test_start + lo)]))


def _resolve_split(curve: CurveSpec, manifest: DatasetManifest, n: int) -> SplitSpec:
    if curve.has_predefined_split:
        return SplitSpec(curve.train_end, curve.valid_end, source="predefined")
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
    manifest = _read_document(manifest_path, DatasetManifest, "manifest",
                              curves=lambda c: from_fields(CurveSpec, c, "curve entry"))
    series = []
    for curve in manifest.curves:
        path = os.path.join(root, curve.file)
        if not os.path.isfile(path):
            raise ParseError(f"curve file {path} referenced by manifest is missing")
        values, labels = _read_curve_file(path)
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
    with atomic_open(path) as fh:
        fh.write(CURVE_HEADER + "\n")
        for lo in range(0, n, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, n)
            rows = zip(range(lo, hi), values[lo:hi].tolist(), labels[lo:hi].tolist())
            fh.write("".join([f"{i},{v!r},{l}\n" for i, v, l in rows]))


def write_dataset(
    root: str,
    series: Sequence[TimeSeries],
    name: str,
    k_delay: int | None = None,
    ratio: tuple[int, int, int] = DEFAULT_RATIO,
) -> None:
    """Write the canonical layout; splits are stored per their source, and
    the manifest leaves out every field that is None."""
    curves = []
    for s in series:
        bounds = (s.split.train_end, s.split.valid_end) if s.split.source == "predefined" else ()
        curves.append(CurveSpec(s.id, f"curves/{s.id}.csv", *bounds))
    ratio_used = not all(c.has_predefined_split for c in curves)
    manifest = DatasetManifest(
        name, tuple(curves), {"ratio": list(ratio)} if ratio_used else "predefined", k_delay
    )
    os.makedirs(os.path.join(root, "curves"), exist_ok=True)
    for s, curve in zip(series, curves):
        write_curve_csv(os.path.join(root, curve.file), s.values, s.labels)
    write_json(
        os.path.join(root, "manifest.json"),
        asdict(manifest, dict_factory=lambda items: {k: v for k, v in items if v is not None}),
    )


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


def resolve_k_delay(overrides: Mapping[str, int | None], manifest: DatasetManifest,
                    criterion_k: int | None) -> int | None:
    """Effective latency limit: run override > manifest default > criterion.

    An override explicitly set to None disables the manifest default.
    """
    if manifest.name in overrides:
        return overrides[manifest.name]
    if manifest.k_delay is not None:
        return manifest.k_delay
    return criterion_k
