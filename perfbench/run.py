"""Benchmark of the tsadbench CLI.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload long_series --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every workload
    python3 perfbench/run.py --smoke --workload all --seconds 1 --trace 1

Each run generates the workload's inputs from ``--seed`` (several times;
``setup_s`` is the median), then repeats the timed command for
``--seconds``: ``python -m tsadbench.cli run|eval`` as a fresh child
process, timed from spawn to exit, so interpreter start, imports and BLAS
warm-up count as they do for users. Every repetition's outputs are checked
(see checks.py). With ``--trace 1`` one more, traced, repetition follows
(see tracing.py) and the per-layer metrics are reported instead of the
end-to-end ones. ``--smoke`` shrinks every input so all workloads and all
checks run in seconds.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record (samples, quartiles, machine facts, failed
checks) goes to ``.perfbench_work/<workload>/result.json``. Everything the
benchmark writes stays under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = ("long_series", "many_series", "rescore")

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "synth.generate_s": "s",
    "datasets.write_s": "s",
    "datasets.load_s": "s",
    "datasets.points_loaded": "count",
    "datasets.self_s": "s",
    "schemas.plan_s": "s",
    "schemas.tasks": "count",
    "schemas.self_s": "s",
    **{f"detectors.fit.{k}_s": "s" for k in tracing.DETECTOR_KINDS},
    "detectors.fit.wait_s": "s",
    **{f"detectors.score.{k}.us_per_sample": "us" for k in tracing.DETECTOR_KINDS},
    "detectors.score.wait_s": "s",
    "detectors.score.samples": "count",
    "detectors.self_s": "s",
    **{f"metrics.evaluate.{v}_s": "s" for v in tracing.VARIANTS},
    **{f"metrics.evaluate.us_per_call.{b}": "us" for b, _ in tracing.BUCKETS},
    "metrics.evaluate.calls": "count",
    "metrics.self_s": "s",
    "core.self_s": "s",
    "bench.self_s": "s",
    "bench.dump_bytes": "bytes",
    "bench.emit_s": "s",
    "extern.drive_s": "s",
    "extern.wait_s": "s",
    "extern.self_s": "s",
    "process.cpu_s": "s",
    "process.cpu_util": "ratio",
    "process.startup_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}

MIN_REPS = 2  # so the byte-identity check always has a pair
# Set-ups per run; setup_s is their median. Fewer where one set-up includes
# a whole many_series run.
SETUP_REPS = {"long_series": 9, "many_series": 5, "rescore": 3}
CHILD_TIMEOUT_S = 150.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Child:
    wall: float
    exit_code: int
    rss_mb: float
    cpu_s: float


def spawn(argv: list[str], log: Path) -> Child:
    """Run argv from the repository root; time it from spawn to exit and
    take its peak RSS and CPU time from the wait4 rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "tsadbench.cli", *args]


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*.csv"))


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def machine_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "tsadbench").glob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            machine: dict) -> dict:
    import workloads as wl
    from checks import (Checks, check_oracle, check_rep, check_rows_match,
                        check_same_dumps, load_oracle, read_results)

    sizes = wl.SMOKE if smoke else wl.FULL
    work = WORK / (f"{name}-smoke" if smoke else name)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()

    # Set-up: generate and write the inputs; for rescore also the run
    # whose score dumps it re-reads.
    setups, generate_s, write_s = [], [], []
    source = None
    for i in range(1 if smoke else SETUP_REPS[name]):
        if name == "long_series":
            prepared = wl.prepare_long_series(work, seed, sizes)
            total = prepared.generate_s + prepared.write_s
        else:
            prepared = wl.prepare_many_series(work, seed, sizes)
            total = prepared.generate_s + prepared.write_s
            if name == "rescore":
                source_dir = work / "source"
                shutil.rmtree(source_dir, ignore_errors=True)
                child = spawn(cli_argv([*prepared.cli_args, "-o", str(source_dir)]),
                              work / f"setup{i}.log")
                total += child.wall
                source = read_results(source_dir)
                check_rep(checks, f"setup{i}", child.exit_code, source,
                          prepared.expected_rows(), None)
                prepared = wl.rescore(prepared, source_dir)
        setups.append(total)
        generate_s.append(prepared.generate_s)
        write_s.append(prepared.write_s)

    # Timed repetitions, each checked.
    reps: list[Child] = []
    first = None
    t_begin = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t_begin < seconds:
        label = f"rep{len(reps)}"
        out = work / label
        child = spawn(cli_argv([*prepared.cli_args, "-o", str(out)]), work / f"{label}.log")
        results = read_results(out)
        check_rep(checks, label, child.exit_code, results, prepared.expected_rows(),
                  first[0] if first else None)
        if name == "long_series":
            check_same_dumps(checks, label, out / "scores", "first_diff", wl.LONG_EXTERNAL)
        if name == "rescore" and results and source:
            check_rows_match(checks, label, results[1], source[1])
        if reps:
            shutil.rmtree(out)
        else:
            first = results
        reps.append(child)

    rep0 = work / "rep0"
    scores_root = (prepared.source_dir if name == "rescore" else rep0) / "scores"
    if first is not None:
        check_oracle(checks, load_oracle(ROOT), first[1], scores_root, prepared, seed)

    wall = quartiles([r.wall for r in reps])
    runtime = rep0 / "runtime.csv"
    record = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "machine": machine,
        "facts": {
            "curves": len(prepared.series),
            "points_scored": sum(
                int(line.split(",")[4]) for line in runtime.read_text().splitlines()[1:]
            ) if runtime.is_file() else 0,
            "metric_rows": len(first[1]["metrics"]) if first else 0,
            "dump_bytes": tree_bytes(scores_root),
        },
        "wall_s": wall,
        "peak_rss_mb": quartiles([r.rss_mb for r in reps]),
        "setup_s": quartiles(setups),
        "cpu_s": quartiles([r.cpu_s for r in reps]),
        "metrics": {
            "wall_s": wall["median"],
            "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
            "setup_s": statistics.median(setups),
        },
    }

    if trace:
        spans_path = work / "spans.json"
        traced_out = work / "traced"
        child = spawn(
            [sys.executable, str(HERE / "tracing.py"), str(spans_path),
             *prepared.cli_args, "-o", str(traced_out)],
            work / "traced.log",
        )
        traced = read_results(traced_out)
        checks.check(child.exit_code == 0, f"traced: exit code {child.exit_code}")
        checks.check(traced is not None and first is not None and traced[0] == first[0],
                     "traced: results.json differs from the untraced runs")
        doc = {"start": 0.0, "spans": []}
        if checks.check(spans_path.is_file(), "traced: no spans written"):
            doc = json.loads(spans_path.read_text())
        parts = tracing.self_times(doc, child.wall)
        checks.check(
            min(parts.values()) >= 0 and abs(sum(parts.values()) - child.wall) <= 1e-9 * child.wall,
            f"traced: layer self times {parts} do not add up to the wall time {child.wall}",
        )
        layers = tracing.layer_metrics(doc, parts, child.wall) | {
            "synth.generate_s": statistics.median(generate_s),
            "datasets.write_s": statistics.median(write_s),
            "bench.dump_bytes": record["facts"]["dump_bytes"],
            "process.cpu_s": record["cpu_s"]["median"],
            "process.cpu_util": statistics.median(r.cpu_s / r.wall for r in reps),
            "trace.overhead_frac": (child.wall - wall["median"]) / wall["median"],
        }
        record["per_layer"] = {k: layers[k] for k in PER_LAYER}

    record["checks"] = {"attempted": checks.attempted, "failed": len(checks.failures),
                        "failures": checks.failures}
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def summary_lines(record: dict) -> list[str]:
    w, rss, setup, chk = (record["wall_s"], record["peak_rss_mb"], record["setup_s"],
                          record["checks"])
    ratio = chk["failed"] / chk["attempted"]
    lines = [
        f"{record['workload']} (seed {record['seed']}{', smoke' if record['smoke'] else ''}):",
        f"  wall_s       {w['median']:.4f} s   median, quartiles {w['q1']:.4f}..{w['q3']:.4f}, "
        f"n={w['n']}",
        f"  peak_rss_mb  {rss['median']:.1f} MB  median, n={rss['n']}",
        f"  setup_s      {setup['median']:.4f} s   median, quartiles "
        f"{setup['q1']:.4f}..{setup['q3']:.4f}, n={setup['n']}",
        f"  fail_ratio   {ratio:.4f} ratio  {chk['failed']} of {chk['attempted']} checks failed",
        f"  facts        {json.dumps(record['facts'])}",
    ]
    lines += [f"  FAILED {msg}" for msg in chk["failures"]]
    for key, value in record.get("per_layer", {}).items():
        lines.append(f"  {key:44s} {value:.6g} {PER_LAYER[key]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced inputs: every workload and check in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "tsadbench" / "cli.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: {ROOT} holds no tsadbench sources (src/tsadbench, tests/oracle.py)",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import tsadbench.cli  # noqa: F401  (writes the bytecode cache before any timed run)

    facts = machine_facts()
    print(f"machine: {json.dumps(facts)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace), args.smoke, facts)
        print("\n".join(summary_lines(record)), flush=True)
        attempted += record["checks"]["attempted"]
        failed += record["checks"]["failed"]
        values = record["per_layer"] if args.trace else record["metrics"]
        units = PER_LAYER if args.trace else END_TO_END
        prefix = f"{name}." if args.workload == "all" else ""
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
