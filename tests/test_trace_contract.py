"""The benchmark's traced run (perfbench/tracing.py) wraps module globals of
tsadbench.bench and tsadbench.detectors. These tests run it as a child
process and check that every layer is still called through those globals:
a refactor that bypasses one would silently drop its spans."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from tsadbench.synth import AnomalySpec, SynthConfig, generate_dataset

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _traced(tmp_path, name, *argv):
    spans = tmp_path / f"{name}.spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACING), str(spans), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["exit_code"] == 0
    return Counter(s["name"] for s in doc["spans"])


def _dumps(scores_root):
    return sum(len(files) for _dir, _sub, files in os.walk(scores_root))


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trace")
    configs = [
        SynthConfig(id=f"c{i}", length=200, seed=300 + i, noise_sigma=0.05,
                    anomalies=(AnomalySpec(kind="global", count=2),))
        for i in range(3)
    ]
    root = str(tmp_path / "ds")
    generate_dataset(configs, root, name="tiny")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "datasets": [root],
        "detectors": [{"kind": "first_diff"}, {"kind": "ar", "window": 8}],
        "schemas": ["naive", "all_in_one"],
        "criteria": [{"variant": "point_wise_pa"}, {"variant": "reduced_length_pa"}],
        "workers": 2,
    }))
    out = tmp_path / "out"
    spans = _traced(tmp_path, "run", "run", "-c", str(config), "-o", str(out))
    return tmp_path, root, out, spans


def _metric_rows(out):
    return len(json.loads((out / "results.json").read_text())["metrics"])


def test_run_spans_cover_every_layer(traced_run):
    _tmp, _root, out, spans = traced_run
    assert _metric_rows(out) == 2 * 2 * 3 * 2
    assert spans["metrics.evaluate"] == _metric_rows(out)
    assert spans["core.validate"] == _dumps(out / "scores") == 2 * 2 * 3
    assert spans["detectors.fit"] == 2 * (3 + 1)
    assert spans["detectors.score"] == 2 * 2 * 3
    for name in ("cli.main", "bench.run", "datasets.load", "schemas.plan", "bench.emit"):
        assert spans[name] >= 1, name


def test_eval_spans_cover_every_layer(traced_run):
    tmp_path, root, out, _spans = traced_run
    out2 = tmp_path / "eval"
    spans = _traced(tmp_path, "eval", "eval", "-s", str(out / "scores"), "-d", root,
                    "--criteria", "event_wise_pa", "reduced_length_pa:k=3", "-o", str(out2))
    assert spans["bench.evaluate_scores"] == 1
    assert spans["metrics.evaluate"] == _metric_rows(out2) == 2 * _dumps(out / "scores")
    assert spans["core.validate"] == _dumps(out / "scores")
    assert spans["detectors.fit"] == 0
