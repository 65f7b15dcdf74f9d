"""The traced run: spans at each layer boundary of the tsadbench CLI,
recorded from outside the package.

Run as a script, this is the child process of a traced run::

    python perfbench/tracing.py SPANS.json run -c run.json -o out/

It times ``import tsadbench.cli``, wraps the public functions each layer
is called through, runs the CLI in-process and writes the spans once, at
exit. ``bench`` binds its callees by name at import, so they are wrapped
on the ``bench`` module; ``detectors`` is called through the module, so it
is wrapped there. Nothing under ``src/`` changes.

Imported, it turns those spans into per-layer metrics (``layer_metrics``).
"""

from __future__ import annotations

import json
import sys
import threading
import time

T_START = time.perf_counter()

DETECTOR_KINDS = ("first_diff", "ar", "sub_lof", "matrix_profile")
VARIANTS = ("point_wise_pa", "event_wise_pa", "reduced_length_pa")
BUCKETS = (("short", 500), ("mid", 5000), ("long", None))  # by test points

# Layers whose self times add up to the traced run's wall time. A span's
# layer is its name up to the first dot, except report emission.
SELF_LAYERS = (
    "cli", "datasets", "schemas", "detectors", "metrics", "core", "bench",
    "bench.emit", "extern", "process",
)


class Tracer:
    """Spans in memory: name, start, end, parent, thread, wall, thread CPU.

    A span's parent is the innermost open span on its own thread; a span
    opened on a worker thread with none open there hangs off the innermost
    open span of the main thread, which is waiting for it.
    """

    def __init__(self):
        self.spans: list[dict | None] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, describe, fn, args, kwargs):
        stack = self._stack()
        outer = stack or self._main_stack
        parent = outer[-1] if outer else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        stack.append(sid)
        attrs = {}
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if describe is not None:
                attrs = describe(args, result)
            return result
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            self.spans[sid] = {
                "id": sid, "name": name, "start": t0, "end": t1, "parent": parent,
                "thread": threading.get_ident(), "wall": t1 - t0, "cpu": c1 - c0,
                **attrs,
            }

    def wrap(self, module, attr: str, name: str, describe=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, describe, fn, args, kwargs)

        setattr(module, attr, traced)


def _install(tracer: Tracer):
    from tsadbench import bench, cli
    from tsadbench import detectors as det

    tracer.wrap(bench, "load_dataset", "datasets.load",
                lambda a, r: {"points": sum(len(s) for s in r[0])})
    tracer.wrap(bench, "build_plan", "schemas.plan", lambda a, r: {"tasks": len(r.tasks)})
    tracer.wrap(bench, "evaluate_curve", "metrics.evaluate",
                lambda a, r: {"variant": a[2].variant, "n": len(a[0])})
    tracer.wrap(bench, "validate_scores", "core.validate")
    tracer.wrap(bench, "drive", "extern.drive")
    tracer.wrap(bench, "emit_reports", "bench.emit")
    tracer.wrap(bench, "run", "bench.run")
    tracer.wrap(bench, "evaluate_scores", "bench.evaluate_scores")
    tracer.wrap(det, "fit", "detectors.fit", lambda a, r: {"kind": a[0].kind})
    tracer.wrap(det, "score", "detectors.score",
                lambda a, r: {"kind": a[0].kind, "n": len(a[2])})
    tracer.wrap(cli, "main", "cli.main")
    return cli


def _child(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    c0 = time.thread_time()
    t0 = time.perf_counter()
    import tsadbench.cli  # noqa: F401  (a fresh import is part of every CLI run)
    t1 = time.perf_counter()
    tracer.spans.append({
        "id": 0, "name": "cli.import", "start": t0, "end": t1, "parent": None,
        "thread": threading.get_ident(), "wall": t1 - t0, "cpu": time.thread_time() - c0,
    })
    cli = _install(tracer)
    code = cli.main(argv)
    doc = {"start": T_START, "end": time.perf_counter(), "exit_code": code,
           "spans": tracer.spans}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


def _layer(name: str) -> str:
    return "bench.emit" if name == "bench.emit" else name.split(".")[0]


def self_times(doc: dict, wall: float) -> dict[str, float]:
    """Wall time of the traced run split over SELF_LAYERS.

    Each instant goes to the innermost open spans, shared equally when
    several threads are inside one at once, so the parts add up to the
    child's span of time; ``process`` gets the rest of ``wall`` (interpreter
    start and exit, and the instants inside no span).
    """
    spans = doc["spans"]
    events = sorted(
        [(s["start"], 1, s["id"]) for s in spans] + [(s["end"], 0, s["id"]) for s in spans]
    )
    by_id = {s["id"]: s for s in spans}
    out = dict.fromkeys(SELF_LAYERS, 0.0)
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    now = doc["start"]
    for t, is_start, sid in events:
        if leaves:
            share = (t - now) / len(leaves)
            for leaf in leaves:
                out[_layer(by_id[leaf]["name"])] += share
        now = t
        parent = by_id[sid]["parent"]
        if is_start:
            open_children[sid] = 0
            leaves.add(sid)
            if parent in open_children:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            del open_children[sid]
            leaves.discard(sid)
            if parent in open_children:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    out["process"] = wall - sum(out.values())
    return out


def _us_per(total_s: float, count: int) -> float:
    return total_s / count * 1e6 if count else 0.0


def layer_metrics(doc: dict, parts: dict[str, float], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced run: its spans, their self times
    (``self_times``) and its spawn-to-exit time."""
    spans = doc["spans"]

    def named(name, **match):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in match.items())]

    def total(items, key="wall"):  # a call that raised has no result attributes
        return sum(s.get(key, 0) for s in items)

    fits = named("detectors.fit")
    scores = named("detectors.score")
    evals = named("metrics.evaluate")
    drives = named("extern.drive")
    m = {
        "cli.import_s": total(named("cli.import")),
        "datasets.load_s": total(named("datasets.load")),
        "datasets.points_loaded": total(named("datasets.load"), "points"),
        "schemas.plan_s": total(named("schemas.plan")),
        "schemas.tasks": total(named("schemas.plan"), "tasks"),
    }
    for kind in DETECTOR_KINDS:
        m[f"detectors.fit.{kind}_s"] = total(named("detectors.fit", kind=kind))
    m["detectors.fit.wait_s"] = sum(s["wall"] - s["cpu"] for s in fits)
    for kind in DETECTOR_KINDS:
        mine = named("detectors.score", kind=kind)
        m[f"detectors.score.{kind}.us_per_sample"] = _us_per(total(mine), total(mine, "n"))
    m["detectors.score.wait_s"] = sum(s["wall"] - s["cpu"] for s in scores)
    m["detectors.score.samples"] = total(scores, "n")
    for variant in VARIANTS:
        m[f"metrics.evaluate.{variant}_s"] = total(named("metrics.evaluate", variant=variant))
    lower = 0
    for bucket, upper in BUCKETS:
        mine = [s for s in evals
                if s.get("n", 0) > lower and (upper is None or s.get("n", 0) <= upper)]
        m[f"metrics.evaluate.us_per_call.{bucket}"] = _us_per(total(mine), len(mine))
        lower = upper
    m["metrics.evaluate.calls"] = len(evals)
    m["extern.drive_s"] = total(drives)
    m["extern.wait_s"] = sum(s["wall"] - s["cpu"] for s in drives)
    for layer in SELF_LAYERS:
        if layer == "bench.emit":
            m["bench.emit_s"] = parts[layer]
        elif layer == "process":
            m["process.startup_s"] = parts[layer]
        else:
            m[f"{layer}.self_s"] = parts[layer]
    m["trace.wall_s"] = wall
    return m


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
