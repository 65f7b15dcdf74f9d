import json
import os
import sys

import pytest

from conftest import STUB_DIR
from tsadbench import bench, datasets
from tsadbench.cli import main as cli_main
from tsadbench.detectors import DetectorConfig
from tsadbench.errors import ConfigError
from tsadbench.extern import ExternalDetectorSpec
from tsadbench.metrics import EvalCriterion
from tsadbench.synth import AnomalySpec, SynthConfig, generate_dataset


@pytest.fixture
def small_dataset(tmp_path):
    configs = [
        SynthConfig(
            id=f"c{i}",
            length=300,
            seed=100 + i,
            noise_sigma=0.05,
            anomalies=(AnomalySpec(kind="global", count=2),),
        )
        for i in range(4)
    ]
    root = str(tmp_path / "ds")
    generate_dataset(configs, root, name="mini")
    return root


def base_config(root, **kwargs):
    defaults = dict(
        datasets=(root,),
        detectors=(DetectorConfig(kind="first_diff"), DetectorConfig(kind="ar", window=8)),
        schemas=("naive",),
        criteria=(
            EvalCriterion("reduced_length_pa"),
            EvalCriterion("point_wise_pa", prolong_len=0),
        ),
    )
    defaults.update(kwargs)
    return bench.RunConfig(**defaults)


@pytest.fixture
def kd_dataset(tmp_path):
    """One curve in a dataset whose manifest sets K = 7."""
    configs = [
        SynthConfig(id="c0", length=300, seed=3,
                    anomalies=(AnomalySpec(kind="global", count=1),)),
    ]
    root = str(tmp_path / "dsk")
    generate_dataset(configs, root, name="kd", k_delay=7)
    return root


def assert_labels_name_their_k(rows):
    """Each row's label is that of the criterion with the K it was scored with."""
    for row in rows:
        c, doc = row.report.criterion, row.to_dict()
        assert doc["criterion"] == EvalCriterion(c.variant, doc["k_delay"], c.prolong_len).label


class TestRun:
    def test_one_row_per_combination(self, small_dataset, tmp_path):
        config = base_config(small_dataset)
        report = bench.run(config, str(tmp_path / "out"))
        # 4 curves x 2 detectors x 1 schema x 2 criteria
        assert len(report.rows) == 16
        keys = {(r.curve, r.detector, r.schema, r.criterion) for r in report.rows}
        assert len(keys) == 16
        assert not report.failures

    def test_score_dumps_written(self, small_dataset, tmp_path):
        out = tmp_path / "out"
        bench.run(base_config(small_dataset), str(out))
        dump = out / "scores" / "mini" / "naive" / "first_diff" / "c0.csv"
        assert dump.is_file()
        lines = dump.read_text().splitlines()
        assert lines[0] == "index,score"
        assert len(lines) == 1 + 150  # test region of a 300-point series
        assert lines[1].startswith("150,")  # absolute test indices

    def test_statistical_pooling_marked_unsupported(self, small_dataset, tmp_path):
        config = base_config(
            small_dataset,
            detectors=(DetectorConfig(kind="sub_lof", window=8, neighbors=3),),
            schemas=("all_in_one",),
        )
        report = bench.run(config, str(tmp_path / "out"))
        assert not report.rows
        reasons = {e["reason"] for e in report.exclusions}
        assert reasons == {bench.EXCLUDED_POOLING}
        assert len(report.exclusions) == 4

    def test_pooling_override_runs_them(self, small_dataset, tmp_path):
        config = base_config(
            small_dataset,
            detectors=(DetectorConfig(kind="sub_lof", window=8, neighbors=3),),
            schemas=("all_in_one",),
            allow_statistical_pooling=True,
        )
        report = bench.run(config, str(tmp_path / "out"))
        assert len(report.rows) == 4 * 2

    def test_anomaly_free_curves_excluded(self, tmp_path):
        configs = [
            SynthConfig(id="with", length=300, seed=1,
                        anomalies=(AnomalySpec(kind="global", count=1),)),
            SynthConfig(id="without", length=300, seed=2),
        ]
        root = str(tmp_path / "ds2")
        generate_dataset(configs, root, name="gaps")
        report = bench.run(base_config(root), str(tmp_path / "out"))
        excluded = [e for e in report.exclusions if e["reason"] == bench.EXCLUDED_ANOMALY_FREE]
        assert [e["curve"] for e in excluded] == ["without"]
        assert {r.curve for r in report.rows} == {"with"}

    def test_external_failures_do_not_abort(self, small_dataset, tmp_path):
        stubs = []
        for stub, timeout in (
            ("stub_ok.py", 10.0),
            ("stub_short.py", 10.0),
            ("stub_sleep.py", 1.0),
            ("stub_die.py", 10.0),
        ):
            stubs.append(
                ExternalDetectorSpec(
                    command=(sys.executable, str(STUB_DIR / stub)),
                    name=stub.removesuffix(".py"),
                    startup_timeout=10.0,
                    message_timeout=timeout,
                )
            )
        config = base_config(small_dataset, detectors=tuple(stubs))
        report = bench.run(config, str(tmp_path / "out"))
        # a detector whose tasks all failed leaves no dump directory
        assert os.listdir(tmp_path / "out" / "scores" / "mini" / "naive") == ["stub_ok"]
        by_error = {f["detector"]: f["error"] for f in report.failures}
        assert by_error["stub_short"] == "LengthMismatch"
        assert by_error["stub_sleep"] == "ExternalTimeout"
        assert by_error["stub_die"] == "NonZeroExit"
        # the good stub produced rows for every curve and criterion
        ok_rows = [r for r in report.rows if r.detector == "stub_ok"]
        assert len(ok_rows) == 4 * 2

    def test_every_task_accounted_once(self, small_dataset, tmp_path):
        config = base_config(
            small_dataset,
            detectors=(
                DetectorConfig(kind="first_diff"),
                DetectorConfig(kind="matrix_profile", window=8),
            ),
            schemas=("naive", "zero_shot"),
        )
        report = bench.run(config, str(tmp_path / "out"))
        n_criteria = len(config.criteria)
        seen = {}
        for r in report.rows:
            seen[(r.curve, r.detector, r.schema)] = seen.get((r.curve, r.detector, r.schema), 0) + 1
        assert all(v == n_criteria for v in seen.values())
        for e in report.exclusions:
            key = (e["curve"], e["detector"], e["schema"])
            assert key not in seen
        # every (curve, detector, schema) combo is either a success or an exclusion
        total = len(seen) + len(report.exclusions)
        # naive: 4 curves x 2 detectors; zero_shot: 2 eval curves x 2 detectors,
        # matrix_profile excluded on zero_shot (2 exclusion rows)
        assert total == 8 + 2 + 2

    def test_duplicate_dataset_name_rejected(self, small_dataset, tmp_path):
        config = base_config(small_dataset, datasets=(small_dataset, small_dataset))
        with pytest.raises(Exception):
            bench.run(config, str(tmp_path / "out"))

    def test_k_delay_resolution_order(self, kd_dataset, tmp_path):
        # manifest beats the criterion's own k
        report = bench.run(
            base_config(kd_dataset, criteria=(EvalCriterion("event_wise_pa", k_delay=2),)),
            str(tmp_path / "o1"),
        )
        assert {r.report.criterion.k_delay for r in report.rows} == {7}
        # run override beats the manifest
        report = bench.run(
            base_config(
                kd_dataset,
                criteria=(EvalCriterion("event_wise_pa", k_delay=2),),
                k_delay_overrides={"kd": 4},
            ),
            str(tmp_path / "o2"),
        )
        assert {r.report.criterion.k_delay for r in report.rows} == {4}
        # explicit null override disables the manifest default
        report = bench.run(
            base_config(
                kd_dataset,
                criteria=(EvalCriterion("event_wise_pa"),),
                k_delay_overrides={"kd": None},
            ),
            str(tmp_path / "o3"),
        )
        assert {r.report.criterion.k_delay for r in report.rows} == {None}

    def test_k_delay_resolved_per_dataset(self, small_dataset, kd_dataset, tmp_path):
        criteria = (EvalCriterion("event_wise_pa", k_delay=2), EvalCriterion("point_wise_pa"))
        config = base_config(small_dataset, datasets=(small_dataset, kd_dataset), criteria=criteria)
        out = tmp_path / "out"
        report = bench.run(config, str(out))
        k_delays = {(r.dataset, r.criterion, r.report.criterion.k_delay) for r in report.rows}
        assert k_delays == {
            ("mini", "event_wise_pa_K2_L9", 2),
            ("mini", "point_wise_pa_L9", None),
            ("kd", "event_wise_pa_K7_L9", 7),
            ("kd", "point_wise_pa_K7_L9", 7),
        }
        assert_labels_name_their_k(report.rows)
        bench.emit_reports(report, str(out))
        # no table averages two values of K: each names the datasets scored with its K
        header = (out / "tables" / "event_wise_pa_K2_L9.csv").read_text().splitlines()[0]
        assert header == "detector,schema,mini,avg"
        header = (out / "tables" / "event_wise_pa_K7_L9.csv").read_text().splitlines()[0]
        assert header == "detector,schema,kd,avg"

    def test_criteria_resolving_alike_scored_once(self, kd_dataset, tmp_path):
        # K 2 and K 5 both become the manifest's K 7
        criteria = (EvalCriterion("event_wise_pa", k_delay=2),
                    EvalCriterion("event_wise_pa", k_delay=5))
        out = tmp_path / "out"
        report = bench.run(base_config(kd_dataset, criteria=criteria), str(out))
        assert sorted((r.curve, r.detector, r.criterion) for r in report.rows) == [
            ("c0", "ar", "event_wise_pa_K7_L9"),
            ("c0", "first_diff", "event_wise_pa_K7_L9"),
        ]
        assert_labels_name_their_k(report.rows)
        bench.emit_reports(report, str(out))
        assert os.listdir(out / "tables") == ["event_wise_pa_K7_L9.csv"]
        tradeoff = (out / "plotdata" / "tradeoff.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in tradeoff[1:]] == ["ar", "first_diff"]
        doc = json.loads((out / "results.json").read_text())
        assert [c["k_delay"] for c in doc["config"]["criteria"]] == [2, 5]
        again = bench.evaluate_scores(str(out / "scores"), kd_dataset, criteria)
        assert [r.to_dict() for r in again.sorted_rows()] == [
            r.to_dict() for r in report.sorted_rows()
        ]


class TestDeterminism:
    def test_worker_count_does_not_change_results_json(self, small_dataset, tmp_path):
        texts = []
        for workers, sub in ((1, "w1"), (4, "w4")):
            out = tmp_path / sub
            config = base_config(small_dataset, workers=workers)
            report = bench.run(config, str(out))
            bench.emit_reports(report, str(out))
            texts.append((out / "results.json").read_bytes())
        assert texts[0] == texts[1]

    def test_rerun_is_bit_identical(self, small_dataset, tmp_path):
        texts = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            report = bench.run(base_config(small_dataset), str(out))
            bench.emit_reports(report, str(out))
            texts.append((out / "results.json").read_bytes())
        assert texts[0] == texts[1]


class TestEvaluateScores:
    def test_recomputes_identical_metrics(self, small_dataset, tmp_path):
        out = tmp_path / "out"
        config = base_config(small_dataset)
        report = bench.run(config, str(out))
        again = bench.evaluate_scores(
            str(out / "scores"), small_dataset, config.criteria
        )
        original = {
            (r.curve, r.detector, r.schema, r.criterion): r.report for r in report.rows
        }
        recomputed = {
            (r.curve, r.detector, r.schema, r.criterion): r.report for r in again.rows
        }
        assert original == recomputed

    def test_truncated_dump_recorded_as_failure(self, small_dataset, tmp_path):
        out = tmp_path / "out"
        config = base_config(small_dataset)
        bench.run(config, str(out))
        dump = out / "scores" / "mini" / "naive" / "first_diff" / "c0.csv"
        lines = dump.read_text().splitlines()
        dump.write_text("\n".join(lines[:-1]) + "\n")
        again = bench.evaluate_scores(str(out / "scores"), small_dataset, config.criteria)
        errors = {(f["detector"], f["curves"][0]): f["error"] for f in again.failures}
        assert errors[("first_diff", "c0")] == "LengthMismatch"
        # other curves still evaluated
        assert any(r.curve == "c1" for r in again.rows)

    def test_extra_criterion_computed_from_dumps(self, small_dataset, tmp_path):
        out = tmp_path / "out"
        bench.run(base_config(small_dataset), str(out))
        extra = (EvalCriterion("event_wise_pa", k_delay=3),)
        again = bench.evaluate_scores(str(out / "scores"), small_dataset, extra)
        assert {r.criterion for r in again.rows} == {"event_wise_pa_K3_L9"}

    def test_non_finite_dump_recorded_as_failure(self, small_dataset, tmp_path):
        out = tmp_path / "out"
        config = base_config(small_dataset)
        bench.run(config, str(out))
        dump = out / "scores" / "mini" / "naive" / "ar" / "c1.csv"
        lines = dump.read_text().splitlines()
        lines[3] = lines[3].split(",")[0] + ",nan"
        dump.write_text("\n".join(lines) + "\n")
        again = bench.evaluate_scores(str(out / "scores"), small_dataset, config.criteria)
        errors = {(f["detector"], f["curves"][0]): f["error"] for f in again.failures}
        assert errors[("ar", "c1")] == "NonFiniteScore"

    def test_infinite_dump_recorded_as_failure(self, small_dataset, tmp_path):
        out = tmp_path / "out"
        config = base_config(small_dataset)
        bench.run(config, str(out))
        dump = out / "scores" / "mini" / "naive" / "first_diff" / "c2.csv"
        lines = dump.read_text().splitlines()
        lines[5] = lines[5].split(",")[0] + ",-1e400"
        dump.write_text("\n".join(lines) + "\n")
        again = bench.evaluate_scores(str(out / "scores"), small_dataset, config.criteria)
        failures = {(f["detector"], f["curves"][0]): f for f in again.failures}
        assert failures[("first_diff", "c2")]["error"] == "NonFiniteScore"
        assert failures[("first_diff", "c2")]["message"].endswith("non-finite score at 4")

    def test_anomaly_free_curve_recorded_as_exclusion(self, tmp_path):
        configs = [
            SynthConfig(id="with", length=300, seed=1,
                        anomalies=(AnomalySpec(kind="global", count=1),)),
            SynthConfig(id="without", length=300, seed=2),
        ]
        root = str(tmp_path / "ds2")
        generate_dataset(configs, root, name="gaps")
        out = tmp_path / "out"
        config = base_config(root)
        report = bench.run(config, str(out))
        again = bench.evaluate_scores(str(out / "scores"), root, config.criteria)
        expected = [{"dataset": "gaps", "curve": "without", "reason": bench.EXCLUDED_ANOMALY_FREE}]
        assert report.exclusions == again.exclusions == expected
        assert not again.failures


class TestRecordedKOverride:
    """``run`` records a K override next to the dumps; ``eval`` applies it."""

    @pytest.fixture
    def kd(self, tmp_path):
        # a dataset whose manifest sets K = 7
        configs = [
            SynthConfig(id=f"c{i}", length=300, seed=3 + i,
                        anomalies=(AnomalySpec(kind="global", count=2),))
            for i in range(2)
        ]
        root = str(tmp_path / "dsk")
        generate_dataset(configs, root, name="kd", k_delay=7)
        return root

    def _run(self, tmp_path, root, overrides):
        doc = {
            "datasets": [root],
            "detectors": [{"kind": "first_diff"}],
            "criteria": [{"variant": "event_wise_pa", "k_delay": 2}],
            "k_delay_overrides": overrides,
        }
        config = tmp_path / "run.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert cli_main(["run", "-c", str(config), "-o", str(out)]) == 0
        return out

    def _eval(self, tmp_path, root, run_out):
        out = tmp_path / "eval"
        code = cli_main(["eval", "-s", str(run_out / "scores"), "-d", root,
                         "--criteria", "event_wise_pa:k=2", "-o", str(out)])
        return code, out

    @pytest.mark.parametrize("k", [1, None], ids=["one", "null"])
    def test_eval_rows_equal_run_rows(self, kd, tmp_path, k):
        run_out = self._run(tmp_path, kd, {"kd": k})
        code, eval_out = self._eval(tmp_path, kd, run_out)
        assert code == 0
        ran = json.loads((run_out / "results.json").read_text())
        evaluated = json.loads((eval_out / "results.json").read_text())
        assert {row["k_delay"] for row in evaluated["metrics"]} == {k}
        assert evaluated["metrics"] == ran["metrics"]
        assert evaluated["config"]["k_delay_overrides"] == {"kd": k}
        recorded = run_out / "scores" / "kd" / datasets.K_OVERRIDE_FILE
        assert json.loads(recorded.read_text()) == {"k_delay": k}

    @pytest.mark.parametrize("earlier", [None, {"kd": 1}], ids=["fresh", "rerun"])
    def test_written_only_for_a_named_dataset(self, kd, tmp_path, earlier):
        if earlier is not None:  # a rerun into the same directory drops the old record
            self._run(tmp_path, kd, earlier)
        run_out = self._run(tmp_path, kd, {"other": 1})
        assert not (run_out / "scores" / "kd" / datasets.K_OVERRIDE_FILE).exists()
        report = bench.evaluate_scores(str(run_out / "scores"), kd,
                                       (EvalCriterion("event_wise_pa", k_delay=2),))
        assert {r.report.criterion.k_delay for r in report.rows} == {7}

    def test_caller_override_wins(self, kd, tmp_path):
        run_out = self._run(tmp_path, kd, {"kd": 1})
        report = bench.evaluate_scores(str(run_out / "scores"), kd,
                                       (EvalCriterion("event_wise_pa", k_delay=2),), {"kd": 4})
        assert {r.report.criterion.k_delay for r in report.rows} == {4}
        assert report.config_echo["k_delay_overrides"] == {"kd": 4}

    @pytest.mark.parametrize("text", ['{"k_delay": "1"}', '{"k_delay": -1}', "{}", "[1]", "{"])
    def test_malformed_record_is_a_dataset_error(self, kd, tmp_path, capsys, text):
        run_out = self._run(tmp_path, kd, {"kd": 1})
        recorded = run_out / "scores" / "kd" / datasets.K_OVERRIDE_FILE
        recorded.write_text(text)
        capsys.readouterr()
        code, eval_out = self._eval(tmp_path, kd, run_out)
        assert code == 2
        assert str(recorded) in capsys.readouterr().err
        assert not eval_out.exists()


class TestAggregateOrder:
    def test_curve_order_does_not_change_aggregates(self, tmp_path):
        # the manifest lists its curves in reverse: run visits them in
        # manifest order, evaluate_scores in file name order
        configs = [
            SynthConfig(
                id=f"c{i:02d}",
                length=300,
                seed=100 + i,
                noise_sigma=0.05,
                anomalies=(
                    AnomalySpec(kind="global", count=2),
                    AnomalySpec(kind="contextual", count=2),
                ),
            )
            for i in reversed(range(30))
        ]
        root = str(tmp_path / "ds")
        generate_dataset(configs, root, name="reversed")
        config = base_config(
            root,
            detectors=(DetectorConfig(kind="first_diff"),),
            criteria=(
                EvalCriterion("point_wise_pa"),
                EvalCriterion("event_wise_pa", k_delay=3),
                EvalCriterion("reduced_length_pa"),
            ),
        )
        out = tmp_path / "out"
        report = bench.run(config, str(out))
        again = bench.evaluate_scores(str(out / "scores"), root, config.criteria)
        assert [r.to_dict() for r in again.sorted_rows()] == [
            r.to_dict() for r in report.sorted_rows()
        ]
        assert again.aggregates() == report.aggregates()


class TestEmitReports:
    def test_table_ranking(self, tmp_path, small_dataset):
        out = tmp_path / "out"
        config = base_config(
            small_dataset,
            detectors=(
                DetectorConfig(kind="first_diff"),
                DetectorConfig(kind="matrix_profile", window=8),
            ),
        )
        report = bench.run(config, str(out))
        bench.emit_reports(report, str(out))
        table = (out / "tables" / "reduced_length_pa_L9.csv").read_text().splitlines()
        assert table[0] == "detector,schema,mini,avg"
        avgs = [float(line.split(",")[-1]) for line in table[1:]]
        assert avgs == sorted(avgs, reverse=True)

    def test_runtime_csv_per_sample_consistent(self, tmp_path, small_dataset):
        out = tmp_path / "out"
        report = bench.run(base_config(small_dataset), str(out))
        bench.emit_reports(report, str(out))
        lines = (out / "runtime.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            total = float(row["inference_seconds"])
            samples = int(row["scored_samples"])
            per = float(row["per_sample_seconds"])
            assert per == pytest.approx(total / samples, rel=1e-6)

    def test_runtime_csv_counts_external_samples(self, tmp_path, small_dataset):
        # 4 curves, each with a 150-point test region
        out = tmp_path / "out"
        external = ExternalDetectorSpec(
            command=(sys.executable, str(STUB_DIR / "stub_ok.py")), name="zeros",
            startup_timeout=10.0, message_timeout=10.0,
        )
        config = base_config(
            small_dataset, detectors=(DetectorConfig(kind="first_diff"), external)
        )
        report = bench.run(config, str(out))
        assert not report.failures
        bench.emit_reports(report, str(out))
        lines = (out / "runtime.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = {r["detector"]: r for r in (dict(zip(header, ln.split(","))) for ln in lines[1:])}
        assert sorted(rows) == ["first_diff", "zeros"]
        for row in rows.values():
            assert int(row["scored_samples"]) == 600
            per = float(row["per_sample_seconds"])
            assert per == pytest.approx(float(row["inference_seconds"]) / 600, rel=1e-6)

    def test_tradeoff_cube_root_size(self, tmp_path, small_dataset):
        out = tmp_path / "out"
        config = base_config(
            small_dataset, detectors=(DetectorConfig(kind="ar", window=32),)
        )
        report = bench.run(config, str(out))
        bench.emit_reports(report, str(out))
        lines = (out / "plotdata" / "tradeoff.csv").read_text().splitlines()
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert int(row["parameter_count"]) == 33
        assert float(row["size"]) == pytest.approx(33 ** (1 / 3), rel=1e-6)

    def test_empty_report_rejected(self, tmp_path):
        report = bench.RunReport(config_echo={})
        with pytest.raises(Exception):
            bench.emit_reports(report, str(tmp_path / "out"))


class TestParseRunConfig:
    def test_minimal(self):
        config = bench.parse_run_config(
            {"datasets": ["d"], "detectors": [{"kind": "first_diff"}]}
        )
        assert config.schemas == ("naive",)
        assert config.criteria[0].variant == "reduced_length_pa"

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            bench.parse_run_config({"datasets": ["d"], "detectors": [{"kind": "ar"}], "bogus": 1})

    def test_rejects_duplicate_names(self):
        with pytest.raises(ConfigError):
            bench.parse_run_config(
                {"datasets": ["d"], "detectors": [{"kind": "ar"}, {"kind": "ar"}]}
            )

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            bench.parse_run_config({"datasets": [], "detectors": [{"kind": "ar"}]})

    def test_external_entry(self):
        config = bench.parse_run_config(
            {
                "datasets": ["d"],
                "detectors": [{"kind": "external", "name": "x", "command": ["prog"]}],
            }
        )
        assert isinstance(config.detectors[0], ExternalDetectorSpec)


class TestCli:
    def _write_config(self, tmp_path, root, **extra):
        doc = {
            "datasets": [root],
            "detectors": [{"kind": "first_diff"}],
            "criteria": [{"variant": "reduced_length_pa"}],
        }
        doc.update(extra)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_and_report(self, small_dataset, tmp_path, capsys):
        config = self._write_config(tmp_path, small_dataset)
        out = str(tmp_path / "out")
        assert cli_main(["run", "-c", config, "-o", out]) == 0
        assert os.path.isfile(os.path.join(out, "results.json"))
        tables2 = str(tmp_path / "tables2")
        assert cli_main(["report", "-i", os.path.join(out, "results.json"), "-o", tables2]) == 0
        assert os.listdir(tables2)

    def test_report_on_a_malformed_results_doc_leaves_no_table(
        self, small_dataset, tmp_path, capsys
    ):
        config = self._write_config(tmp_path, small_dataset)
        out = tmp_path / "out"
        assert cli_main(["run", "-c", config, "-o", str(out)]) == 0
        doc = json.loads((out / "results.json").read_text())
        doc["aggregates"]["per_dataset"][0]["f1_best_mean"] = "high"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        tables = tmp_path / "tables"
        capsys.readouterr()
        assert cli_main(["report", "-i", str(bad), "-o", str(tables)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert os.listdir(tables) == []  # neither a partial table nor a .tmp file

    def test_eval_subcommand(self, small_dataset, tmp_path):
        config = self._write_config(tmp_path, small_dataset)
        out = str(tmp_path / "out")
        cli_main(["run", "-c", config, "-o", out])
        out2 = str(tmp_path / "eval")
        code = cli_main(
            ["eval", "-s", os.path.join(out, "scores"), "-d", small_dataset,
             "--criteria", "reduced_length_pa", "-o", out2]
        )
        assert code == 0
        assert os.path.isfile(os.path.join(out2, "results.json"))

    def test_gen_and_split(self, tmp_path):
        synth_doc = {
            "name": "clitest",
            "curves": [
                {"id": "a", "length": 200, "seed": 1,
                 "anomalies": [{"kind": "global", "count": 1}]},
                {"id": "b", "length": 200, "seed": 2,
                 "anomalies": [{"kind": "global", "count": 1}]},
            ],
        }
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps(synth_doc))
        root = str(tmp_path / "gen")
        assert cli_main(["gen", "-c", str(cfg_path), "-o", root]) == 0
        plan_path = str(tmp_path / "plan.json")
        assert cli_main(
            ["split", "-d", root, "--schema", "zero_shot", "--seed", "5", "-o", plan_path]
        ) == 0
        doc = json.loads(open(plan_path).read())
        assert doc["schema"] == "zero_shot" and doc["seed"] == 5

    def test_run_rejects_a_repeated_criterion(self, small_dataset, tmp_path, capsys):
        criteria = [{"variant": "event_wise_pa"}, {"variant": "event_wise_pa"}]
        config = self._write_config(tmp_path, small_dataset, criteria=criteria)
        out = tmp_path / "out"
        assert cli_main(["run", "-c", config, "-o", str(out)]) == 1
        assert "each criterion must be listed once" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_rejects_a_repeated_criterion(self, small_dataset, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert cli_main(["run", "-c", self._write_config(tmp_path, small_dataset), "-o", out]) == 0
        out2 = tmp_path / "eval"
        code = cli_main(
            ["eval", "-s", os.path.join(out, "scores"), "-d", small_dataset,
             "--criteria", "event_wise_pa", "event_wise_pa:l=9", "-o", str(out2)]
        )
        assert code == 1
        assert "each criterion must be listed once" in capsys.readouterr().err
        assert not out2.exists()

    def test_criteria_checked_before_any_dataset_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing_ds")
        criteria = [{"variant": "event_wise_pa"}, {"variant": "event_wise_pa"}]
        config = self._write_config(tmp_path, missing, criteria=criteria)
        assert cli_main(["run", "-c", config, "-o", str(tmp_path / "o")]) == 1
        code = cli_main(["eval", "-s", str(tmp_path / "scores"), "-d", missing,
                         "--criteria", "event_wise_pa", "event_wise_pa:l=9",
                         "-o", str(tmp_path / "e")])
        assert code == 1
        assert capsys.readouterr().err.count("each criterion must be listed once") == 2
        with pytest.raises(ConfigError, match="need at least one criterion"):
            bench.evaluate_scores(str(tmp_path / "scores"), missing, [])

    def test_exit_code_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli_main(["run", "-c", str(bad), "-o", str(tmp_path / "o")]) == 1

    def test_exit_code_dataset_error(self, tmp_path):
        config = self._write_config(tmp_path, str(tmp_path / "missing_ds"))
        assert cli_main(["run", "-c", config, "-o", str(tmp_path / "o")]) == 2

    def test_exit_code_partial_failures(self, small_dataset, tmp_path):
        config = self._write_config(
            tmp_path,
            small_dataset,
            detectors=[
                {"kind": "first_diff"},
                {
                    "kind": "external",
                    "name": "dies",
                    "command": [sys.executable, str(STUB_DIR / "stub_die.py")],
                    "message_timeout": 10,
                },
            ],
        )
        assert cli_main(["run", "-c", config, "-o", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("absolute", [False, True], ids=["climbing", "absolute"])
    def test_names_with_a_path_write_nothing(self, small_dataset, tmp_path, capsys, absolute):
        # An absolute dataset name and a detector named ../../../outside_det
        # once made `run` write c0.csv two levels above its output directory.
        manifest = os.path.join(small_dataset, "manifest.json")
        doc = json.loads(open(manifest).read())
        doc["name"] = str(tmp_path / "abs" / "ds")
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        name = str(tmp_path / "outside_det") if absolute else "../../../outside_det"
        config = self._write_config(tmp_path, small_dataset,
                                    detectors=[{"kind": "first_diff", "name": name}])
        before = sorted(tmp_path.rglob("*"))
        assert cli_main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 1
        assert "is not a plain file name" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        # the dataset name alone is a dataset error
        config = self._write_config(tmp_path, small_dataset)
        assert cli_main(["run", "-c", config, "-o", str(tmp_path / "out")]) == 2
        assert sorted(tmp_path.rglob("*")) == before

    def test_usage_error_maps_to_config_exit(self):
        assert cli_main(["run", "--nonsense"]) == 1


class TestDumpIndexColumn:
    """A dump whose index column is not test_start, test_start + 1, ...
    is a failure for its curve, not a silently misaligned score array."""

    def _rewrite_indices(self, dump, new_indices):
        lines = dump.read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        body = "".join(f"{i},{v}\n" for i, (_old, v) in zip(new_indices(rows), rows))
        dump.write_text(lines[0] + "\n" + body)

    def _failure_after(self, small_dataset, tmp_path, new_indices):
        out = tmp_path / "out"
        config = base_config(small_dataset)
        bench.run(config, str(out))
        dump = out / "scores" / "mini" / "naive" / "first_diff" / "c0.csv"
        self._rewrite_indices(dump, new_indices)
        again = bench.evaluate_scores(str(out / "scores"), small_dataset, config.criteria)
        assert any(r.curve == "c1" for r in again.rows)
        assert not any(r.curve == "c0" and r.detector == "first_diff" for r in again.rows)
        errors = {(f["detector"], f["curves"][0]): f for f in again.failures}
        return errors[("first_diff", "c0")]

    def test_reversed_dump_recorded_as_failure(self, small_dataset, tmp_path):
        failure = self._failure_after(
            small_dataset, tmp_path, lambda rows: [old for old, _v in reversed(rows)]
        )
        assert failure["error"] == "DatasetError"
        assert "was expected" in failure["message"]
        assert "(row 1)" in failure["message"]

    def test_shifted_dump_recorded_as_failure(self, small_dataset, tmp_path):
        failure = self._failure_after(
            small_dataset, tmp_path, lambda rows: [int(old) + 1 for old, _v in rows]
        )
        assert failure["error"] == "DatasetError"

    def test_gapped_dump_recorded_as_failure(self, small_dataset, tmp_path):
        failure = self._failure_after(
            small_dataset, tmp_path,
            lambda rows: [int(old) + (j >= 5) for j, (old, _v) in enumerate(rows)],
        )
        assert failure["error"] == "DatasetError"

    def test_cli_eval_exits_with_partial_failure(self, small_dataset, tmp_path):
        out = tmp_path / "out"
        bench.run(base_config(small_dataset), str(out))
        dump = out / "scores" / "mini" / "naive" / "ar" / "c2.csv"
        self._rewrite_indices(dump, lambda rows: [old for old, _v in reversed(rows)])
        code = cli_main(
            ["eval", "-s", str(out / "scores"), "-d", small_dataset,
             "--criteria", "reduced_length_pa", "-o", str(tmp_path / "eval")]
        )
        assert code == 3


class TestMissingDumps:
    """A kept curve without a dump is a failure, not a smaller mean."""

    def _run(self, small_dataset, tmp_path, schemas):
        out = tmp_path / "out"
        config = base_config(small_dataset, schemas=schemas, seed=3)
        report = bench.run(config, str(out))
        assert not report.failures
        return out / "scores" / "mini", config

    def _failures(self, scores, small_dataset, config):
        again = bench.evaluate_scores(str(scores.parent), small_dataset, config.criteria)
        return again, {(f["schema"], f["detector"], tuple(f["curves"])): f for f in again.failures}

    @pytest.mark.parametrize("schema", ["naive", "all_in_one"])
    def test_every_kept_curve_expected(self, small_dataset, tmp_path, schema):
        scores, config = self._run(small_dataset, tmp_path, (schema,))
        (scores / schema / "ar" / "c1.csv").unlink()
        again, failures = self._failures(scores, small_dataset, config)
        assert list(failures) == [(schema, "ar", ("c1",))]
        assert failures[(schema, "ar", ("c1",))]["error"] == "DatasetError"
        assert not any(r.curve == "c1" and r.detector == "ar" for r in again.rows)
        assert len(again.rows) == (2 * 4 - 1) * len(config.criteria)

    def test_zero_shot_expects_the_union_of_its_detectors(self, small_dataset, tmp_path):
        # dumps without run's held-out record, as older runs left them
        scores, config = self._run(small_dataset, tmp_path, ("zero_shot",))
        (scores / "zero_shot" / datasets.HELD_OUT_FILE).unlink()
        held_out = sorted(p.stem for p in (scores / "zero_shot" / "ar").iterdir())
        assert len(held_out) == 2
        assert self._failures(scores, small_dataset, config)[1] == {}
        (scores / "zero_shot" / "first_diff" / f"{held_out[0]}.csv").unlink()
        _again, failures = self._failures(scores, small_dataset, config)
        assert list(failures) == [("zero_shot", "first_diff", (held_out[0],))]
        # no detector left a dump for it: nothing shows it was held out
        (scores / "zero_shot" / "ar" / f"{held_out[0]}.csv").unlink()
        assert self._failures(scores, small_dataset, config)[1] == {}

    def test_zero_shot_expects_the_recorded_held_out_curves(self, small_dataset, tmp_path):
        scores, config = self._run(small_dataset, tmp_path, ("naive", "zero_shot"))
        recorded = json.loads((scores / "zero_shot" / datasets.HELD_OUT_FILE).read_text())
        held_out = sorted(p.stem for p in (scores / "zero_shot" / "ar").iterdir())
        assert recorded == {"curves": held_out}
        detectors = ("ar", "first_diff")
        for detector in detectors:
            (scores / "zero_shot" / detector / f"{held_out[0]}.csv").unlink()
        again, failures = self._failures(scores, small_dataset, config)
        assert list(failures) == [("zero_shot", d, (held_out[0],)) for d in detectors]
        assert {f["error"] for f in failures.values()} == {"DatasetError"}
        assert not any(r.curve == held_out[0] and r.schema == "zero_shot" for r in again.rows)

    @pytest.mark.parametrize("text", ['{"curves": "c0"}', '{"curves": ["../c0"]}', "{}", "["])
    def test_malformed_held_out_record_is_a_dataset_error(self, small_dataset, tmp_path,
                                                          capsys, text):
        scores, _config = self._run(small_dataset, tmp_path, ("zero_shot",))
        recorded = scores / "zero_shot" / datasets.HELD_OUT_FILE
        recorded.write_text(text)
        capsys.readouterr()
        code = cli_main(["eval", "-s", str(scores.parent), "-d", small_dataset,
                         "--criteria", "reduced_length_pa", "-o", str(tmp_path / "eval")])
        assert code == 2
        assert str(recorded) in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_cli_eval_exits_with_partial_failure(self, small_dataset, tmp_path, capsys):
        scores, _config = self._run(small_dataset, tmp_path, ("naive",))
        (scores / "naive" / "first_diff" / "c0.csv").unlink()
        code = cli_main(
            ["eval", "-s", str(scores.parent), "-d", small_dataset,
             "--criteria", "reduced_length_pa", "-o", str(tmp_path / "eval")]
        )
        assert code == 3
        assert "7 metric rows, 1 failures" in capsys.readouterr().out


class _FailingFile:
    """A text file that writes the first half of what it is given, then
    fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


class TestAtomicWrites:
    def _fail_writes(self, monkeypatch):
        """Every file the package opens for writing fails part way; reads
        go through untouched."""
        real_open = open

        def failing_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return _FailingFile(fh) if "w" in mode else fh

        monkeypatch.setattr(datasets, "open", failing_open, raising=False)

    def test_dump_matches_one_row_per_score(self, tmp_path):
        import numpy as np

        scores = np.array([0.1, 1e-300, 2.0, -0.0])
        datasets.write_score_dump(str(tmp_path / "c.csv"), 7, scores)
        text = (tmp_path / "c.csv").read_text()
        assert text == "index,score\n7,0.1\n8,1e-300\n9,2.0\n10,-0.0\n"

    def test_failed_dump_leaves_previous_file(self, tmp_path, monkeypatch):
        import numpy as np

        directory = tmp_path
        datasets.write_score_dump(str(directory / "c.csv"), 0, np.array([1.0]))
        before = (directory / "c.csv").read_bytes()
        self._fail_writes(monkeypatch)
        with pytest.raises(OSError):
            datasets.write_score_dump(str(directory / "c.csv"), 0, np.arange(1000.0))
        assert (directory / "c.csv").read_bytes() == before
        assert os.listdir(directory) == ["c.csv"]

    def test_failed_results_json_leaves_no_file(self, small_dataset, tmp_path, monkeypatch):
        out = tmp_path / "out"
        report = bench.run(base_config(small_dataset), str(out))
        self._fail_writes(monkeypatch)
        with pytest.raises(OSError):
            bench.emit_reports(report, str(out))
        assert not (out / "results.json").exists()
        assert [name for name in os.listdir(out) if name.endswith(".tmp")] == []

    @pytest.mark.parametrize("command", ["gen", "split", "run", "eval", "report"])
    def test_failed_write_leaves_no_file(
        self, small_dataset, tmp_path, monkeypatch, capsys, command
    ):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(
            {"datasets": [small_dataset], "detectors": [{"kind": "first_diff"}]}
        ))
        source = tmp_path / "source"
        assert cli_main(["run", "-c", str(config), "-o", str(source)]) == 0
        synth = tmp_path / "synth.json"
        synth.write_text(json.dumps({"curves": [
            {"id": "a", "length": 200, "seed": 1, "anomalies": [{"kind": "global"}]}
        ]}))
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "gen": ["gen", "-c", str(synth), "-o", str(out / "ds")],
            "split": ["split", "-d", small_dataset, "--schema", "naive",
                      "-o", str(out / "plan.json")],
            "run": ["run", "-c", str(config), "-o", str(out)],
            "eval": ["eval", "-s", str(source / "scores"), "-d", small_dataset,
                     "--criteria", "point_wise_pa", "-o", str(out)],
            "report": ["report", "-i", str(source / "results.json"), "-o", str(out / "tables")],
        }[command]
        capsys.readouterr()
        self._fail_writes(monkeypatch)
        assert cli_main(argv) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert [name for _, _, names in os.walk(out) for name in names] == []
