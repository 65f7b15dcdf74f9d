"""Input files that are not UTF-8 end as a config or dataset error naming
the file, or as a recorded failure, never as a traceback."""

import pytest

from tsadbench import bench
from tsadbench.cli import main as cli_main
from tsadbench.datasets import import_generic_csv
from tsadbench.detectors import DetectorConfig
from tsadbench.errors import ParseError
from tsadbench.metrics import EvalCriterion
from tsadbench.synth import AnomalySpec, SynthConfig, generate_dataset


@pytest.fixture
def dataset(tmp_path):
    configs = [
        SynthConfig(id=f"c{i}", length=300, seed=100 + i,
                    anomalies=(AnomalySpec(kind="global", count=2),))
        for i in range(2)
    ]
    root = tmp_path / "ds"
    generate_dataset(configs, str(root), name="mini")
    return root


def spoil(path):
    """Append a byte that is not UTF-8 to the third line of path."""
    lines = path.read_bytes().split(b"\n")
    lines[2] += b"\xff"
    path.write_bytes(b"\n".join(lines))


def assert_one_error_line(capsys, prefix, path):
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize("name", ["curves/c1.csv", "manifest.json"])
def test_dataset_file_is_a_dataset_error(dataset, tmp_path, capsys, name):
    spoil(dataset / name)
    plan = tmp_path / "plan.json"
    assert cli_main(["split", "-d", str(dataset), "--schema", "naive", "-o", str(plan)]) == 2
    assert_one_error_line(capsys, "dataset error:", dataset / name)
    assert not plan.exists()


def test_run_config_is_a_config_error(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b'{"datasets": ["\xff"]}')
    assert cli_main(["run", "-c", str(config), "-o", str(tmp_path / "out")]) == 1
    assert_one_error_line(capsys, "config error:", config)


def test_score_dump_is_a_recorded_failure(dataset, tmp_path):
    criteria = (EvalCriterion("event_wise_pa"),)
    config = bench.RunConfig(datasets=(str(dataset),), detectors=(DetectorConfig("first_diff"),),
                             schemas=("naive",), criteria=criteria)
    scores = tmp_path / "out" / "scores"
    bench.run(config, str(tmp_path / "out"))
    dump = scores / "mini" / "naive" / "first_diff" / "c0.csv"
    spoil(dump)
    report = bench.evaluate_scores(str(scores), str(dataset), criteria)
    [failure] = report.failures
    assert failure["curves"] == ["c0"] and failure["error"] == "DatasetError"
    assert str(dump) in failure["message"]
    assert [row.curve for row in report.rows] == ["c1"]


def test_imported_file_is_a_parse_error(tmp_path):
    src = tmp_path / "in.csv"
    src.write_bytes(b"v,l\n1.5,0\n2.5\xff,1\n")
    with pytest.raises(ParseError, match="in.csv"):
        import_generic_csv(str(src), str(tmp_path / "out.csv"), "v", "l")
