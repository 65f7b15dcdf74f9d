"""Command line interface.

Subcommands: ``run`` (full benchmark), ``eval`` (recompute metrics from
score dumps), ``gen`` (synthetic dataset generation), ``split`` (serialize
a learning-schema plan), ``report`` (re-emit tables from results.json).

Exit codes: 0 success, 1 config error, 2 dataset error, 3 run finished
with partial failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import bench, synth
from .datasets import atomic_open, load_dataset
from .errors import ConfigError, DatasetError, TsadError, require_int
from .metrics import parse_criterion
from .schemas import SCHEMAS, build_plan

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATASET = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tsadbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the benchmark described by a config file")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("-o", "--output", required=True)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--allow-statistical-pooling", action="store_true")

    p_eval = sub.add_parser("eval", help="recompute metrics from score dumps")
    p_eval.add_argument("-s", "--scores", required=True)
    p_eval.add_argument("-d", "--dataset", required=True)
    p_eval.add_argument("--criteria", nargs="+", required=True,
                        help="criterion specs like reduced_length_pa:k=3:l=9")
    p_eval.add_argument("-o", "--output", default=".")

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("-c", "--config", required=True)
    p_gen.add_argument("-o", "--output", required=True)

    p_split = sub.add_parser("split", help="serialize a learning-schema plan")
    p_split.add_argument("-d", "--dataset", required=True)
    p_split.add_argument("--schema", required=True, choices=SCHEMAS)
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("-o", "--output", default=None,
                         help="write the plan here instead of stdout")

    p_report = sub.add_parser("report", help="re-emit tables from results.json")
    p_report.add_argument("-i", "--input", required=True)
    p_report.add_argument("-o", "--output", required=True)
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _cmd_run(args) -> int:
    overrides = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.allow_statistical_pooling:
        overrides["allow_statistical_pooling"] = True
    config = dataclasses.replace(bench.parse_run_config(_load_json(args.config)), **overrides)
    report = bench.run(config, args.output)
    bench.emit_reports(report, args.output)
    n_rows = len(report.rows)
    n_fail = len(report.failures)
    print(f"{n_rows} metric rows, {len(report.exclusions)} exclusions, {n_fail} failures")
    return EXIT_PARTIAL if n_fail else EXIT_OK


def _cmd_eval(args) -> int:
    criteria = [parse_criterion(spec) for spec in args.criteria]
    report = bench.evaluate_scores(args.scores, args.dataset, criteria)
    bench.emit_reports(report, args.output)
    print(f"{len(report.rows)} metric rows, {len(report.failures)} failures")
    return EXIT_PARTIAL if report.failures else EXIT_OK


def _cmd_gen(args) -> int:
    doc = _load_json(args.config)
    name, k_delay, configs = synth.dataset_plan_from_json(doc)
    series = synth.generate_dataset(configs, args.output, name=name, k_delay=k_delay)
    print(f"wrote {len(series)} curves to {args.output}")
    return EXIT_OK


def _cmd_split(args) -> int:
    require_int("--seed", args.seed, 0)
    series, _manifest = load_dataset(args.dataset)
    plan = build_plan(args.schema, series, args.seed)
    text = plan.to_json()
    if args.output:
        with atomic_open(args.output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_report(args) -> int:
    doc = _load_json(args.input)
    try:
        bench.write_tables(doc, args.output)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.input} is not a results.json document: {exc!r}") from exc
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "eval": _cmd_eval,
    "gen": _cmd_gen,
    "split": _cmd_split,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATASET
    except TsadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
