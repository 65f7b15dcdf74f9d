"""Wrongly typed config values, unknown keys and missing fields are
config errors (exit 1 with a ``config error:`` line), never an uncaught
exception or a silently ignored key."""

import dataclasses
import json
import sys

import pytest

from conftest import STUB_DIR
from tsadbench import bench
from tsadbench.cli import main as cli_main
from tsadbench.detectors import DetectorConfig
from tsadbench.errors import ConfigError
from tsadbench.extern import ExternalDetectorSpec
from tsadbench.metrics import EvalCriterion
from tsadbench.synth import AnomalySpec, SynthConfig, generate_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("types") / "ds")
    configs = [
        SynthConfig(id=f"c{i}", length=200, seed=i, anomalies=(AnomalySpec("global"),))
        for i in range(2)
    ]
    generate_dataset(configs, root, name="mini")
    return root


def _run_doc(root, **changes):
    doc = {"datasets": [root], "detectors": [{"kind": "first_diff"}]}
    doc.update(changes)
    return doc


def _config_error(tmp_path, capsys, argv_head, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli_main([*argv_head, "-c", str(path), "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error:"), err
    assert not out.exists()
    return err


RUN_CASES = {
    "workers-str": {"workers": "2"},
    "workers-bool": {"workers": True},
    "seed-str": {"seed": "0"},
    "seed-float": {"seed": 1.5},
    "seed-negative": {"seed": -1},
    "pooling-str": {"allow_statistical_pooling": "yes"},
    "k-delay-str": {"criteria": [{"variant": "event_wise_pa", "k_delay": "3"}]},
    "k-delay-bool": {"criteria": [{"variant": "event_wise_pa", "k_delay": False}]},
    "prolong-float": {"criteria": [{"variant": "point_wise_pa", "prolong_len": 2.0}]},
    "datasets-number": {"datasets": 5},
    "datasets-str": {"datasets": "mini"},
    "schemas-int-item": {"schemas": ["naive", 2]},
    "override-str": {"k_delay_overrides": {"mini": "3"}},
    "override-negative": {"k_delay_overrides": {"mini": -2}},
    "window-str": {"detectors": [{"kind": "ar", "window": "8"}]},
    "neighbors-bool": {"detectors": [{"kind": "sub_lof", "neighbors": True}]},
    "ridge-str": {"detectors": [{"kind": "ar", "ridge": "0.1"}]},
    "name-int": {"detectors": [{"kind": "ar", "name": 7}]},
    "name-parent": {"detectors": [{"kind": "ar", "name": "../../../outside_det"}]},
    "name-nested": {"detectors": [{"kind": "ar", "name": "ar/8"}]},
    "name-dot": {"detectors": [{"kind": "ar", "name": "."}]},
    "external-name-parent": {"detectors": [{"kind": "external", "command": ["x"],
                                            "name": "../outside_det"}]},
    "timeout-str": {"detectors": [{"kind": "external", "command": ["x"],
                                   "startup_timeout": "5"}]},
    "timeout-bool": {"detectors": [{"kind": "external", "command": ["x"],
                                    "message_timeout": True}]},
    "command-str": {"detectors": [{"kind": "external", "command": "python x.py"}]},
    "command-int": {"detectors": [{"kind": "external", "command": ["python", 3]}]},
}


@pytest.mark.parametrize("changes", RUN_CASES.values(), ids=RUN_CASES.keys())
def test_run_rejects_wrong_types(dataset, tmp_path, capsys, changes):
    _config_error(tmp_path, capsys, ["run"], _run_doc(dataset, **changes))


def test_run_names_the_field(dataset, tmp_path, capsys):
    err = _config_error(tmp_path, capsys, ["run"], _run_doc(dataset, workers="2"))
    assert "workers must be an integer, got '2'" in err


def test_run_accepts_well_typed_values(dataset, tmp_path):
    doc = _run_doc(
        dataset, seed=0, workers=1, allow_statistical_pooling=False,
        k_delay_overrides={"mini": None},
        criteria=[{"variant": "event_wise_pa", "k_delay": 3, "prolong_len": 0}],
        detectors=[{"kind": "ar", "window": 8, "ridge": 0, "name": "ar8"}],
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 0


def _curve(**changes):
    curve = {"id": "a", "length": 200, "seed": 1,
             "anomalies": [{"kind": "global", "count": 1}]}
    curve.update(changes)
    return curve


GEN_CASES = {
    "length-str": {"curves": [_curve(length="200")]},
    "length-bool": {"curves": [_curve(length=True)]},
    "seed-str": {"curves": [_curve(seed="1")]},
    "seed-negative": {"curves": [_curve(seed=-1)]},
    "periods-number": {"curves": [_curve(periods=50)]},
    "periods-str-item": {"curves": [_curve(periods=["50"])]},
    "amplitudes-bool-item": {"curves": [_curve(amplitudes=[True])]},
    "noise-str": {"curves": [_curve(noise_sigma="0.1")]},
    "factor-str": {"curves": [_curve(global_factor="8")]},
    "window-float": {"curves": [_curve(contextual_window=16.0)]},
    "id-int": {"curves": [_curve(id=3)]},
    "anomaly-count-str": {"curves": [_curve(anomalies=[{"kind": "global", "count": "2"}])]},
    "anomaly-len-float": {"curves": [_curve(anomalies=[{"kind": "trend", "min_len": 2.5}])]},
    "anomaly-not-object": {"curves": [_curve(anomalies=["global"])]},
    "curve-not-object": {"curves": ["a"]},
    "curves-not-list": {"curves": {"id": "a"}},
    "k-delay-str": {"k_delay": "3", "curves": [_curve()]},
    "k-delay-negative": {"k_delay": -1, "curves": [_curve()]},
    "name-int": {"name": 5, "curves": [_curve()]},
    "name-parent": {"name": "../outside_ds", "curves": [_curve()]},
    "id-parent": {"curves": [_curve(id="../x")]},
}


@pytest.mark.parametrize("doc", GEN_CASES.values(), ids=GEN_CASES.keys())
def test_gen_rejects_wrong_types(tmp_path, capsys, doc):
    _config_error(tmp_path, capsys, ["gen"], doc)


def test_gen_accepts_integer_valued_numbers(tmp_path):
    doc = {"k_delay": 2, "curves": [_curve(periods=[24], amplitudes=[2], noise_sigma=1,
                                          trend_slope=0, global_factor=8)]}
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["gen", "-c", str(path), "-o", str(tmp_path / "ds")]) == 0


def test_split_rejects_a_negative_seed(dataset, tmp_path, capsys):
    out = tmp_path / "plan.json"
    code = cli_main(["split", "-d", dataset, "--schema", "zero_shot", "--seed", "-1",
                     "-o", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "config error: --seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "build",
    [
        lambda: bench.RunConfig(datasets=("d",), detectors=(DetectorConfig("ar"),), seed=True),
        lambda: EvalCriterion(prolong_len=None),
        lambda: DetectorConfig("ar", window=8.0),
        lambda: ExternalDetectorSpec(command=("x",), startup_timeout=None),
        lambda: SynthConfig(id="a", length=200.0),
        lambda: AnomalySpec("global", count=1.0),
    ],
    ids=["run", "criterion", "detector", "external", "synth", "anomaly"],
)
def test_dataclasses_check_types(build):
    with pytest.raises(ConfigError):
        build()


# Each config document kind, read by one rule: a key that names no field,
# an entry that is not an object and a missing field without a default are
# config errors whose message names the key (or the document kind). Every
# criterion field has a default, so a criterion has no missing-field case.
RUN_FIELD_CASES = {
    "run-unknown": ({"seeds": 1}, "unknown config fields ['seeds']"),
    "run-missing": ({"datasets": None}, "config is missing datasets"),
    "criterion-unknown": ({"criteria": [{"variant": "point_wise_pa", "prolong": 3}]},
                          "unknown criterion fields ['prolong']"),
    "criterion-not-object": ({"criteria": ["point_wise_pa"]}, "criterion must be an object"),
    "detector-unknown": ({"detectors": [{"kind": "ar", "windw": 8}]},
                         "unknown detector fields ['windw']"),
    "detector-not-object": ({"detectors": ["ar"]}, "detector must be an object"),
    "detector-missing": ({"detectors": [{"window": 8}]}, "detector is missing kind"),
    "external-unknown": ({"detectors": [{"kind": "external", "command": ["x"], "timeout": 5}]},
                         "unknown external detector fields ['timeout']"),
    "external-not-object": ({"detectors": ["external"]}, "detector must be an object"),
    "external-missing": ({"detectors": [{"kind": "external", "name": "x"}]},
                         "external detector is missing command"),
}


@pytest.mark.parametrize("changes, message", RUN_FIELD_CASES.values(),
                         ids=RUN_FIELD_CASES.keys())
def test_run_reads_every_document_by_its_fields(dataset, tmp_path, capsys, changes, message):
    doc = {k: v for k, v in _run_doc(dataset, **changes).items() if v is not None}
    assert message in _config_error(tmp_path, capsys, ["run"], doc)


def test_run_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, ["run"], [{"datasets": ["d"]}])
    assert "config must be an object" in err


GEN_FIELD_CASES = {
    "config-unknown": ({"nmae": "d", "curves": [_curve()]}, "unknown synth config fields ['nmae']"),
    "config-missing": ({"name": "d"}, "synth config is missing curves"),
    "curve-unknown": ({"curves": [_curve(lenght=300)]}, "unknown synth curve fields ['lenght']"),
    "curve-not-object": ({"curves": ["a"]}, "synth curve must be an object"),
    "curve-missing": ({"curves": [{"length": 200}]}, "synth curve is missing id"),
    "anomaly-unknown": ({"curves": [_curve(anomalies=[{"kind": "global", "cnt": 2}])]},
                        "unknown anomaly fields ['cnt']"),
    "anomaly-not-object": ({"curves": [_curve(anomalies=["global"])]},
                           "anomaly must be an object"),
    "anomaly-missing": ({"curves": [_curve(anomalies=[{"count": 2}])]},
                        "anomaly is missing kind"),
}


@pytest.mark.parametrize("doc, message", GEN_FIELD_CASES.values(), ids=GEN_FIELD_CASES.keys())
def test_gen_reads_every_document_by_its_fields(tmp_path, capsys, doc, message):
    assert message in _config_error(tmp_path, capsys, ["gen"], doc)


def test_anomaly_max_len_defaults_to_min_len():
    assert AnomalySpec("trend", min_len=12).max_len == 12
    assert AnomalySpec("trend", min_len=3, max_len=5).max_len == 5


def test_external_spec_rejects_a_command_string():
    with pytest.raises(ConfigError, match="command must be a list of strings"):
        ExternalDetectorSpec(command="prog")  # would spawn ['p', 'r', 'o', 'g']


def test_external_spec_stores_its_command_as_a_tuple():
    assert ExternalDetectorSpec(command=["prog", "-x"]).command == ("prog", "-x")


def test_echoed_config_reads_back_to_the_same_run_config(dataset, tmp_path):
    doc = _run_doc(
        dataset, workers=2, seed=4, k_delay_overrides={"mini": 2},
        detectors=[
            {"kind": "first_diff"},
            {"kind": "ar", "window": 8, "name": "ar8"},
            {"kind": "external", "name": "stub",
             "command": [sys.executable, str(STUB_DIR / "stub_ok.py")]},
        ],
        criteria=[{"variant": "event_wise_pa", "k_delay": 3},
                  {"variant": "reduced_length_pa", "prolong_len": 0}],
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli_main(["run", "-c", str(path), "-o", str(out)]) == 0
    echo = json.loads((out / "results.json").read_text())["config"]
    original = bench.parse_run_config(doc)
    assert bench.parse_run_config(echo) == dataclasses.replace(original, workers=1)
    assert "workers" not in echo
