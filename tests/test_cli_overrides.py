"""The run command's config plumbing: command-line overrides, config-file
defaults, and the score-dump writer's chunked output."""

import json

import numpy as np
import pytest

from tsadbench import bench, datasets
from tsadbench.cli import main as cli_main
from tsadbench.synth import AnomalySpec, SynthConfig, generate_dataset


@pytest.fixture
def dataset(tmp_path):
    configs = [
        SynthConfig(
            id=f"c{i}",
            length=240,
            seed=200 + i,
            noise_sigma=0.05,
            anomalies=(AnomalySpec(kind="global", count=2),),
        )
        for i in range(4)
    ]
    root = str(tmp_path / "ds")
    generate_dataset(configs, root, name="mini")
    return root


def _config(tmp_path, name, **doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _pooled_doc(root):
    return {
        "datasets": [root],
        "detectors": [{"kind": "first_diff"}, {"kind": "sub_lof", "window": 8, "neighbors": 3}],
        "schemas": ["naive", "all_in_one"],
    }


def test_flags_equal_config_fields(dataset, tmp_path):
    flags = _config(tmp_path, "flags.json", **_pooled_doc(dataset))
    fields = _config(
        tmp_path, "fields.json", **_pooled_doc(dataset), workers=2,
        allow_statistical_pooling=True,
    )
    out_flags, out_fields = tmp_path / "flags", tmp_path / "fields"
    code = cli_main(["run", "-c", flags, "-o", str(out_flags), "--workers", "2",
                     "--allow-statistical-pooling"])
    assert code == 0
    assert cli_main(["run", "-c", fields, "-o", str(out_fields)]) == 0
    text = (out_flags / "results.json").read_bytes()
    assert text == (out_fields / "results.json").read_bytes()
    doc = json.loads(text)
    assert doc["config"]["allow_statistical_pooling"] is True
    pooled = [r for r in doc["metrics"]
              if r["detector"] == "sub_lof" and r["schema"] == "all_in_one"]
    assert len(pooled) == 4
    assert not doc["exclusions"]


def test_without_pooling_flag_sub_lof_is_excluded(dataset, tmp_path):
    config = _config(tmp_path, "run.json", **_pooled_doc(dataset))
    out = tmp_path / "out"
    assert cli_main(["run", "-c", config, "-o", str(out), "--workers", "2"]) == 0
    doc = json.loads((out / "results.json").read_text())
    assert doc["config"]["allow_statistical_pooling"] is False
    assert {e["reason"] for e in doc["exclusions"]} == {bench.EXCLUDED_POOLING}
    assert not [r for r in doc["metrics"]
                if r["detector"] == "sub_lof" and r["schema"] == "all_in_one"]


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_a_config_error(dataset, tmp_path, capsys, workers):
    config = _config(tmp_path, "run.json", datasets=[dataset],
                     detectors=[{"kind": "first_diff"}])
    assert cli_main(["run", "-c", config, "-o", str(tmp_path / "o"), "--workers", workers]) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.json").exists()


def test_omitted_fields_echo_their_defaults(dataset, tmp_path):
    config = _config(tmp_path, "run.json", datasets=[dataset],
                     detectors=[{"kind": "first_diff"}])
    out = tmp_path / "out"
    assert cli_main(["run", "-c", config, "-o", str(out)]) == 0
    echo = json.loads((out / "results.json").read_text())["config"]
    assert echo == {
        "datasets": [dataset],
        "detectors": [{"kind": "first_diff", "name": "first_diff", "window": 32,
                       "neighbors": 10, "ridge": 0.0001}],
        "schemas": ["naive"],
        "criteria": [{"variant": "reduced_length_pa", "k_delay": None, "prolong_len": 9}],
        "k_delay_overrides": {},
        "seed": 0,
        "allow_statistical_pooling": False,
    }


def test_dump_longer_than_one_chunk(tmp_path):
    n = 2 * datasets.CHUNK_ROWS + 17
    rng = np.random.default_rng(5)
    scores = rng.standard_normal(n) * rng.choice([1e-5, 1.0, 1e7], n)
    scores[[0, 1, n - 1]] = [-0.0, 1e-300, 123456789.125]
    path = str(tmp_path / "c.csv")
    datasets.write_score_dump(path, 30, scores)
    data = (tmp_path / "c.csv").read_bytes()
    lines = ["index,score\n"] + [f"{30 + j},{float(v)!r}\n" for j, v in enumerate(scores)]
    assert data == "".join(lines).encode()
    assert datasets.read_score_dump(path, 30).tolist() == scores.tolist()
