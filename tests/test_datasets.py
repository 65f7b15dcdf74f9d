import json
import os
import tracemalloc

import numpy as np
import pytest

from tsadbench import datasets
from tsadbench.cli import main as cli_main
from tsadbench.core import SplitSpec, TimeSeries
from tsadbench.datasets import (
    filter_anomaly_free,
    import_generic_csv,
    load_dataset,
    resolve_k_delay,
    write_curve_csv,
    write_dataset,
)
from tsadbench.errors import (
    InvariantViolation,
    MissingManifest,
    ParseError,
)


def write_fixture(root, curves, default_split=None, k_delay=None, name="fix"):
    os.makedirs(root / "curves", exist_ok=True)
    manifest = {
        "name": name,
        "default_split": default_split or {"ratio": [4, 1, 5]},
        "curves": [],
    }
    if k_delay is not None:
        manifest["k_delay"] = k_delay
    for cid, values, labels, *split in curves:
        entry = {"id": cid, "file": f"curves/{cid}.csv"}
        if split:
            entry["train_end"], entry["valid_end"] = split
        manifest["curves"].append(entry)
        write_curve_csv(str(root / "curves" / f"{cid}.csv"), values, labels)
    (root / "manifest.json").write_text(json.dumps(manifest))
    return str(root)


class TestLoadDataset:
    def test_two_curve_fixture(self, tmp_path):
        root = write_fixture(
            tmp_path,
            [
                ("a", [float(i) for i in range(20)], [0] * 19 + [1]),
                ("b", [float(i) for i in range(40)], [0] * 39 + [1]),
            ],
        )
        series, manifest = load_dataset(root)
        assert [s.id for s in series] == ["a", "b"]
        assert len(series[0]) == 20 and len(series[1]) == 40
        assert series[0].split.train_end == 8  # floor(20*0.4)
        assert manifest.name == "fix"

    def test_bad_label_names_row(self, tmp_path):
        values = [float(i) for i in range(30)]
        labels = [0] * 30
        root = write_fixture(tmp_path, [("a", values, labels)])
        # corrupt data row 17 (line 18 of the file, after the header)
        path = tmp_path / "curves" / "a.csv"
        lines = path.read_text().splitlines()
        lines[17] = "16,16.0,2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvariantViolation, match="row 17"):
            load_dataset(root)

    def test_predefined_split(self, tmp_path):
        root = write_fixture(
            tmp_path,
            [("a", [float(i) for i in range(20)], [0] * 19 + [1], 5, 8)],
            default_split="predefined",
        )
        series, _ = load_dataset(root)
        assert series[0].split.source == "predefined"
        assert (series[0].split.train_end, series[0].split.valid_end) == (5, 8)

    def test_predefined_without_bounds_rejected(self, tmp_path):
        root = write_fixture(
            tmp_path,
            [("a", [float(i) for i in range(20)], [0] * 19 + [1])],
            default_split="predefined",
        )
        with pytest.raises(InvariantViolation):
            load_dataset(root)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingManifest):
            load_dataset(str(tmp_path))

    def test_missing_curve_file(self, tmp_path):
        root = write_fixture(tmp_path, [("a", [1.0] * 20, [0] * 20)])
        os.remove(tmp_path / "curves" / "a.csv")
        with pytest.raises(ParseError):
            load_dataset(root)

    def test_bad_header(self, tmp_path):
        root = write_fixture(tmp_path, [("a", [1.0] * 20, [0] * 20)])
        path = tmp_path / "curves" / "a.csv"
        path.write_text("time,val,anom\n0,1.0,0\n")
        with pytest.raises(ParseError):
            load_dataset(root)

    def test_duplicate_ids_rejected(self, tmp_path):
        os.makedirs(tmp_path / "curves", exist_ok=True)
        write_curve_csv(str(tmp_path / "curves" / "a.csv"), [1.0] * 20, [0] * 20)
        manifest = {
            "name": "dup",
            "curves": [
                {"id": "a", "file": "curves/a.csv"},
                {"id": "a", "file": "curves/a.csv"},
            ],
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(InvariantViolation):
            load_dataset(str(tmp_path))


def _entry(cid="a", **changes):
    return {"id": cid, "file": f"curves/{cid}.csv", **changes}


# Manifest fields of the wrong type, and keys that name no field: each is a
# ParseError naming the manifest, and `tsadbench run` exits 2 before any
# detector runs. A boolean is not an integer.
MANIFEST_CASES = {
    "train-end-str": ({"curves": [_entry(train_end="100", valid_end=150)]},
                      "train_end must be an integer, got '100'"),
    "train-end-float": ({"curves": [_entry(train_end=8.0, valid_end=150)]},
                        "train_end must be an integer, got 8.0"),
    "train-end-bool": ({"curves": [_entry(train_end=True, valid_end=150)]},
                       "train_end must be an integer, got True"),
    "valid-end-negative": ({"curves": [_entry(train_end=10, valid_end=-1)]},
                           "valid_end must be >= 0"),
    "k-delay-bool": ({"k_delay": True}, "k_delay must be an integer, got True"),
    "k-delay-str": ({"k_delay": "3"}, "k_delay must be an integer, got '3'"),
    "ratio-part-bool": ({"default_split": {"ratio": [True, 1, 5]}},
                        "ratio part must be an integer, got True"),
    "ratio-part-zero": ({"default_split": {"ratio": [4, 0, 5]}}, "ratio part must be >= 1"),
    "ratio-two-parts": ({"default_split": {"ratio": [4, 1]}}, "default_split must be"),
    "split-unknown-key": ({"default_split": {"ratio": [4, 1, 5], "seed": 1}},
                          "default_split must be"),
    "split-str": ({"default_split": "ratio"}, "default_split must be"),
    "id-int": ({"curves": [_entry(id=3)]}, "curve id must be a string, got 3"),
    "file-int": ({"curves": [_entry(file=5)]}, "curve file must be a string, got 5"),
    "name-int": ({"name": 7}, "dataset name must be a string, got 7"),
    # names and ids become directories and files of the score dumps
    "name-absolute": ({"name": "/outside_ds"}, "dataset name '/outside_ds' is not a plain file"),
    "name-dotdot": ({"name": ".."}, "dataset name '..' is not a plain file name"),
    "id-parent": ({"curves": [_entry(id="../x")]}, "curve id '../x' is not a plain file name"),
    "id-empty": ({"curves": [_entry(id="")]}, "curve id '' is not a plain file name"),
    "id-nul": ({"curves": [_entry(id="a\0b")]}, "curve id 'a\\x00b' is not a plain file name"),
    "unknown-key": ({"k_dealy": 3}, "unknown manifest fields ['k_dealy']"),
    "curve-unknown-key": ({"curves": [_entry(trian_end=3)]},
                          "unknown curve entry fields ['trian_end']"),
    "curve-missing-file": ({"curves": [{"id": "a"}]}, "curve entry is missing file"),
    "curve-not-object": ({"curves": ["a"]}, "curve entry must be an object"),
    "curves-not-list": ({"curves": _entry()}, "manifest curves must be a list"),
    "name-missing": ({"name": None}, "manifest is missing name"),
}


class TestManifestFields:
    def _dataset(self, tmp_path, changes):
        labels = [0] * 180 + [1] + [0] * 19
        root = write_fixture(tmp_path / "ds", [("a", [float(i % 7) for i in range(200)], labels)])
        path = tmp_path / "ds" / "manifest.json"
        doc = {**json.loads(path.read_text()), **changes}
        path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
        return root

    @pytest.mark.parametrize("changes, message", MANIFEST_CASES.values(),
                             ids=MANIFEST_CASES.keys())
    def test_wrong_fields_are_parse_errors(self, tmp_path, capsys, changes, message):
        root = self._dataset(tmp_path, changes)
        with pytest.raises(ParseError, match="manifest") as info:
            load_dataset(root)
        assert message in str(info.value)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"datasets": [root], "detectors": [{"kind": "first_diff"}]}))
        out = tmp_path / "out"
        assert cli_main(["run", "-c", str(config), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"dataset error: manifest {root}")
        assert not (out / "scores").exists()

    def test_bad_manifest_leaves_no_output_directory(self, tmp_path):
        root = self._dataset(tmp_path, {"k_delay": True})
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"datasets": [root], "detectors": [{"kind": "first_diff"}]}))
        out = tmp_path / "out"
        assert cli_main(["run", "-c", str(config), "-o", str(out)]) == 2
        assert not out.exists()

    def test_well_typed_fields_load(self, tmp_path):
        root = self._dataset(tmp_path, {
            "k_delay": 0,
            "default_split": {"ratio": [1, 1, 1]},
            "curves": [_entry(train_end=80, valid_end=120)],
        })
        series, manifest = load_dataset(root)
        assert manifest.k_delay == 0 and manifest.ratio == (1, 1, 1)
        assert (series[0].split.train_end, series[0].split.valid_end) == (80, 120)

    def test_duplicate_id_names_the_manifest(self, tmp_path):
        root = self._dataset(tmp_path, {"curves": [_entry(), _entry()]})
        with pytest.raises(InvariantViolation, match="manifest .*duplicate curve id 'a'"):
            load_dataset(root)


class TestRoundTrip:
    def test_load_write_load_identity(self, tmp_path):
        root = write_fixture(
            tmp_path / "one",
            [
                ("a", [0.5 * i for i in range(25)], [0] * 24 + [1]),
                ("b", [1.25, -3.5] * 10, [0, 1] * 10, 6, 9),
            ],
        )
        series1, manifest1 = load_dataset(root)
        out = str(tmp_path / "two")
        write_dataset(out, series1, name=manifest1.name, ratio=manifest1.ratio)
        series2, manifest2 = load_dataset(out)
        assert manifest2.name == manifest1.name
        for s1, s2 in zip(series1, series2):
            assert s1.id == s2.id
            assert s1.values.tolist() == s2.values.tolist()
            assert s1.labels.tolist() == s2.labels.tolist()
            assert s1.split == s2.split

        # a second write produces byte-identical files
        out3 = str(tmp_path / "three")
        write_dataset(out3, series2, name=manifest2.name, ratio=manifest2.ratio)
        for fname in ("manifest.json", "curves/a.csv", "curves/b.csv"):
            assert (
                (tmp_path / "two" / fname).read_bytes()
                == (tmp_path / "three" / fname).read_bytes()
            )


# Curve-file bodies (after the header) and score-dump files. numpy's reader
# and the line loop must agree on each: the same numbers, or the same
# exception and message. The flag says whether numpy's reader is the one
# that reads the file; every other case falls back to the loop.
CURVE_CASES = {
    "crlf": ("0,1.5,0\r\n1,-0.0,1\r\n", True),
    "lone-cr": ("0,1.5,0\r1,2.5,1\r", True),
    "blank-line": ("0,1.5,0\n\n1,2.5,1\n", True),
    "whitespace-line": ("0,1.5,0\n  \n1,2.5,1\n", False),
    "no-final-lf": ("0,1.5,0\n1,2.5,1", True),
    "header-only": ("", False),
    "blank-lines-only": ("\n\n\r\n", False),
    "four-columns": ("0,1.5,0,7\n", False),
    "label-plus-one": ("0,1.5,+1\n", False),
    "label-zero-one": ("0,1.5,01\n", False),
    "label-two": ("0,1.5,2\n", False),
    "label-space": ("0,1.5, 1\n", False),
    "label-trailing-nul": ("0,1.5,1\x00\n", False),
    "value-nan": ("0,nan,0\n", False),
    "value-underscore": ("0,1_5,0\n", False),
    "value-arabic-digit": ("0,\u0661,0\n", False),
    "value-spaces": ("0, 1e-300 ,1\n", True),
    "index-plus": ("+0,1.5,0\n1,2.5,1\n", True),
    "index-gap": ("0,1.5,0\n2,2.5,1\n", False),
    "index-float": ("0,1.5,0\n1.0,2.5,1\n", False),
    "invalid-utf8": (b"0,1.5,0\n1,\xff,1\n", False),
}

DUMP_START = 200
DUMP_CASES = {
    "pair-up": ("index,score\n200\n1.0,201,2.0\n", False),
    "crlf": ("index,score\r\n200,0.5\r\n201,1.5\r\n", True),
    "reversed": ("index,score\n201,0.5\n200,1.5\n", False),
    "blank-line": ("index,score\n200,0.5\n\n201,1.5\n", True),
    "index-2e2": ("index,score\n2e2,0.5\n", False),
    "index-2_00": ("index,score\n2_00,0.5\n", False),
    "index-200.0": ("index,score\n200.0,0.5\n", False),
    "index-200.7": ("index,score\n200.7,0.5\n", False),
    "spaces": ("index,score\n 200 , 0.5 \n", True),
    "header-only": ("index,score\n", False),
    "bad-header": ("index,value\n200,0.5\n", False),
    "negative-zero": ("index,score\n200,-0.0\n201,0.0\n", True),
    # non-finite scores are read by numpy and left to validate_scores
    "infinite": ("index,score\n200,1e400\n", True),
    "nan": ("index,score\n200,0.5\n201,nan\n", True),
    # past numpy's 50,000-row read chunk, with a gap after row 50,000
    "gap-after-chunk": (
        "index,score\n" + "".join(f"{DUMP_START + j + (j >= 50_001)},{j / 7!r}\n"
                                   for j in range(60_000)),
        False,
    ),
}


def _outcome(read, *args):
    """Numbers as float.hex strings (signed zeros count), or the exception."""
    try:
        result = read(*args)
    except Exception as exc:  # noqa: BLE001  (the class and message are compared)
        return type(exc), str(exc)
    if isinstance(result, tuple):
        values, labels = result
        return [float(v).hex() for v in values], [int(v) for v in labels]
    return [float(v).hex() for v in result]


def _spied(monkeypatch, name):
    """Calls of the line loop ``datasets.<name>``, which the reader makes
    only when numpy's reader rejects the file."""
    calls = []
    loop = getattr(datasets, name)

    def spy(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(datasets, name, spy)
    return loop, calls


class TestReaderEquivalence:
    @pytest.mark.parametrize("body, bulk", CURVE_CASES.values(), ids=CURVE_CASES.keys())
    def test_curve_file(self, tmp_path, monkeypatch, body, bulk):
        path = tmp_path / "a.csv"
        body = body if isinstance(body, bytes) else body.encode()
        path.write_bytes(b"index,value,label\n" + body)
        loop, calls = _spied(monkeypatch, "_parse_curve_file")
        want = _outcome(loop, str(path))
        assert _outcome(datasets._read_curve_file, str(path)) == want
        assert (not calls) == bulk

    @pytest.mark.parametrize("text, bulk", DUMP_CASES.values(), ids=DUMP_CASES.keys())
    def test_score_dump(self, tmp_path, monkeypatch, text, bulk):
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode())
        loop, calls = _spied(monkeypatch, "_parse_score_dump")
        want = _outcome(loop, str(path), DUMP_START)
        assert _outcome(datasets.read_score_dump, str(path), DUMP_START) == want
        assert (not calls) == bulk


class TestReaderMemory:
    """tracemalloc peaks of the readers, bounded by those of the line loops
    they replaced (7.9 and 4.2 MiB), which held each row as Python objects."""

    def _peak(self, read, *args):
        tracemalloc.start()
        try:
            read(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_long_curve(self, tmp_path):
        n = 140_000
        rng = np.random.default_rng(7)
        labels = (rng.random(n) < 0.02).astype(np.int64)
        series = TimeSeries("long", rng.standard_normal(n), labels, SplitSpec(56_000, 70_000))
        write_dataset(str(tmp_path), [series], name="mem")
        assert self._peak(load_dataset, str(tmp_path)) <= 7.9 * 2**20

    def test_long_dump(self, tmp_path):
        scores = np.random.default_rng(8).standard_normal(136_500)
        path = str(tmp_path / "c.csv")
        datasets.write_score_dump(path, 3_500, scores)
        assert self._peak(datasets.read_score_dump, path, 3_500) <= 4.2 * 2**20


class TestFilterAnomalyFree:
    def _series(self, labels, train_end=4, valid_end=5, id="s"):
        return TimeSeries(
            id=id,
            values=[float(i) for i in range(len(labels))],
            labels=labels,
            split=SplitSpec(train_end, valid_end, source="predefined"),
        )

    def test_all_zero_test_excluded(self):
        s = self._series([0] * 10)
        kept, excluded = filter_anomaly_free([s])
        assert kept == [] and excluded == ["s"]

    def test_anomaly_at_last_index_kept(self):
        s = self._series([0] * 9 + [1])
        kept, excluded = filter_anomaly_free([s])
        assert [k.id for k in kept] == ["s"] and excluded == []

    def test_train_only_anomalies_excluded(self):
        s = self._series([1, 1, 0, 0, 0, 0, 0, 0, 0, 0])
        kept, excluded = filter_anomaly_free([s])
        assert kept == [] and excluded == ["s"]

    def test_exclusion_iff_test_label_sum_zero(self):
        combos = [
            ([0] * 10, True),
            ([0] * 5 + [1] + [0] * 4, False),
            ([1] * 10, False),
            ([0, 1, 0, 1, 0, 0, 0, 0, 0, 0], True),
        ]
        for labels, should_exclude in combos:
            s = self._series(labels)
            kept, excluded = filter_anomaly_free([s])
            assert (s.id in excluded) == should_exclude


class TestImporter:
    def test_identity_on_canonical(self, tmp_path):
        src = tmp_path / "in.csv"
        write_curve_csv(str(src), [1.0, 2.5, -3.0], [0, 1, 0])
        dst = tmp_path / "out.csv"
        import_generic_csv(str(src), str(dst), value_column="value", label_column="label")
        assert src.read_bytes() == dst.read_bytes()

    def test_reorders_columns(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("timestamp,is_anomaly,value\n100,0,1.5\n101,1,2.5\n")
        dst = tmp_path / "out.csv"
        import_generic_csv(str(src), str(dst), value_column="value", label_column="is_anomaly")
        assert dst.read_text() == "index,value,label\n0,1.5,0\n1,2.5,1\n"

    def test_missing_label_column(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("value\n1.5\n")
        with pytest.raises(ParseError):
            import_generic_csv(str(src), str(tmp_path / "o.csv"), "value", "label")

    def test_idempotent(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("v,l\n1.5,0\n2.5,1\n")
        once = tmp_path / "once.csv"
        twice = tmp_path / "twice.csv"
        import_generic_csv(str(src), str(once), "v", "l")
        import_generic_csv(str(once), str(twice), "value", "label")
        assert once.read_bytes() == twice.read_bytes()


class TestResolveKDelay:
    def _manifest(self, tmp_path, k_delay=None):
        root = write_fixture(
            tmp_path, [("a", [1.0] * 20, [0] * 19 + [1])], k_delay=k_delay
        )
        return load_dataset(root)[1]

    def test_manifest_beats_criterion(self, tmp_path):
        manifest = self._manifest(tmp_path, k_delay=10)
        assert resolve_k_delay({}, manifest, 3) == 10

    def test_override_beats_manifest(self, tmp_path):
        manifest = self._manifest(tmp_path, k_delay=10)
        assert resolve_k_delay({"fix": 50}, manifest, 3) == 50

    def test_null_override_disables(self, tmp_path):
        manifest = self._manifest(tmp_path, k_delay=10)
        assert resolve_k_delay({"fix": None}, manifest, 3) is None

    def test_criterion_used_when_nothing_else(self, tmp_path):
        manifest = self._manifest(tmp_path)
        assert resolve_k_delay({}, manifest, 3) == 3
        assert resolve_k_delay({}, manifest, None) is None
