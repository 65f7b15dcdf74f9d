"""Golden output digests: the sha256 of every output of the benchmark's
three workloads at their smoke sizes (``perfbench/workloads.py``, seeds 1
and 11), run through the CLI in-process and checked against
``golden_digests.json``, which also records the numpy version and BLAS
they were taken with.

results.json is digested with its machine-specific paths replaced;
runtime.csv without its timing columns; tables and score dumps as they
are. plotdata/tradeoff.csv carries timings and is left out. On another
numpy or BLAS, the outputs that ar's rows or dumps feed (results.json,
tables, ar's dumps) are skipped and named in a warning, because ar's fit
and score go through BLAS.

A change that moves output bytes on purpose rewrites the digests in the
same commit::

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

import hashlib
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from tsadbench.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
SEEDS = (1, 11)
TIMING_COLUMNS = {"fit_seconds", "inference_seconds", "per_sample_seconds"}


def _platform() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def _workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runtime_bytes(path: Path) -> bytes:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows).encode()


def _output_digests(out: Path, work: Path, wl) -> dict[str, str]:
    """Digest of every compared output under out, by path relative to it."""
    results = out.joinpath("results.json").read_text(encoding="utf-8")
    for path, name in ((str(work), "<work>"), (str(wl.HERE), "<perfbench>"),
                       (sys.executable, "<python>")):
        results = results.replace(path, name)
    texts = {"results.json": results.encode(), "runtime.csv": _runtime_bytes(out / "runtime.csv")}
    for path in sorted(out.rglob("*")):
        relative = path.relative_to(out).as_posix()
        if path.is_file() and relative.startswith(("tables/", "scores/")):
            texts[relative] = path.read_bytes()
    return {name: hashlib.sha256(text).hexdigest() for name, text in texts.items()}


def compute_digests(tmp: Path) -> dict[str, str]:
    wl = _workloads()
    digests = {}
    for seed in SEEDS:
        work = tmp / f"seed{seed}"
        long_series = wl.prepare_long_series(work / "long", seed, wl.SMOKE)
        many_series = wl.prepare_many_series(work / "many", seed, wl.SMOKE)
        many_out = work / "many" / "out"
        runs = [
            ("long_series", long_series, work / "long" / "out"),
            ("many_series", many_series, many_out),
            ("rescore", wl.rescore(many_series, many_out), work / "rescore"),
        ]
        for name, prepared, out in runs:
            assert cli_main([*prepared.cli_args, "-o", str(out)]) == 0, name
            for output, digest in _output_digests(out, work, wl).items():
                digests[f"{name}/seed{seed}/{output}"] = digest
    return digests


def _fed_by_ar(output: str) -> bool:
    _workload, _seed, relative = output.split("/", 2)
    return relative == "results.json" or relative.startswith("tables/") or "/ar/" in relative


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = compute_digests(tmp_path)
    want = golden["digests"]
    assert sorted(got) == sorted(want)
    if _platform() != golden["platform"]:
        skipped = sorted(name for name in want if _fed_by_ar(name))
        warnings.warn(f"{_platform()} is not {golden['platform']}: ar's outputs not "
                      f"compared: {', '.join(skipped)}")
        want = {name: digest for name, digest in want.items() if name not in skipped}
    moved = sorted(name for name in want if got[name] != want[name])
    assert not moved, f"outputs differ from the golden digests: {moved}"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with tempfile.TemporaryDirectory() as tmp:
        doc = {"platform": _platform(), "digests": compute_digests(Path(tmp))}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['digests'])} digests to {DIGESTS}")
