import numpy as np
import pytest

from tsadbench import synth
from tsadbench.core import extract_segments
from tsadbench.datasets import load_dataset
from tsadbench.errors import ConfigError, PlanInfeasible
from tsadbench.synth import (
    AnomalySpec,
    SynthConfig,
    dataset_plan_from_json,
    generate,
    generate_dataset,
)


def cfg(**kwargs):
    defaults = dict(id="c", length=400, seed=11)
    defaults.update(kwargs)
    return SynthConfig(**defaults)


def clean_twin(config):
    """Same config without anomalies; the shared draw order guarantees the
    base + noise samples are identical."""
    return generate(
        SynthConfig(
            **{
                **config.__dict__,
                "anomalies": (),
            }
        )
    )


class TestBase:
    def test_deterministic(self):
        a = generate(cfg(anomalies=(AnomalySpec(kind="global", count=2),)))
        b = generate(cfg(anomalies=(AnomalySpec(kind="global", count=2),)))
        assert a.values.tolist() == b.values.tolist()
        assert a.labels.tolist() == b.labels.tolist()

    def test_noise_free_base_is_pure_sinusoid(self):
        s = generate(cfg(noise_sigma=0.0, periods=(50.0,), amplitudes=(1.0,)))
        values = s.values
        # exact periodicity: the phase argument uses t mod T
        assert values[:100].tolist() == values[100:200].tolist()
        assert float(np.abs(values).max()) <= 1.0 + 1e-12

    def test_split_is_4_1_5(self):
        s = generate(cfg(length=1000))
        assert (s.split.train_end, s.split.valid_end) == (400, 500)

    def test_no_anomalies_means_no_labels(self):
        s = generate(cfg())
        assert int(s.labels.sum()) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            cfg(length=50)
        with pytest.raises(ConfigError):
            cfg(noise_sigma=-1.0)
        with pytest.raises(ConfigError):
            cfg(periods=(50.0,), amplitudes=(1.0, 2.0))
        with pytest.raises(ConfigError):
            AnomalySpec(kind="weird")


class TestInjection:
    def test_test_only_keeps_train_valid_clean(self):
        s = generate(
            cfg(
                anomalies=(
                    AnomalySpec(kind="global", count=3),
                    AnomalySpec(kind="seasonal", count=1, min_len=15, max_len=25),
                )
            )
        )
        assert int(s.labels[: s.split.valid_end].sum()) == 0
        assert int(s.test_labels().sum()) > 0

    def test_global_point_deviates_six_sigma(self):
        config = cfg(
            anomalies=(AnomalySpec(kind="global", count=1),), noise_sigma=0.05
        )
        s = generate(config)
        clean = clean_twin(config)
        idx = int(np.flatnonzero(s.labels)[0])
        sigma = float(clean.values.std())
        deviation = abs(float(s.values[idx]) - float(clean.values[idx]))
        assert deviation >= 6.0 * sigma

    def test_contextual_stays_within_global_range(self):
        config = cfg(
            anomalies=(AnomalySpec(kind="contextual", count=3),), noise_sigma=0.05
        )
        s = generate(config)
        clean = clean_twin(config)
        lo, hi = float(clean.values.min()), float(clean.values.max())
        for idx in np.flatnonzero(s.labels):
            assert lo <= float(s.values[idx]) <= hi

    def test_point_kinds_label_single_indices(self):
        s = generate(
            cfg(anomalies=(AnomalySpec(kind="global", count=2),
                           AnomalySpec(kind="contextual", count=2)))
        )
        segs = extract_segments(s.labels.tolist())
        assert len(segs) == 4
        assert all(seg.length == 1 for seg in segs)

    def test_labels_exactly_on_modified_indices(self):
        config = cfg(
            noise_sigma=0.0,
            anomalies=(AnomalySpec(kind="shapelet", count=1, min_len=20, max_len=20),),
        )
        s = generate(config)
        clean = clean_twin(config)
        changed = np.flatnonzero(s.values != clean.values)
        labeled = np.flatnonzero(s.labels)
        assert set(changed).issubset(set(labeled))
        assert len(labeled) == 20

    def test_seasonal_modifies_only_segment(self):
        config = cfg(
            noise_sigma=0.0,
            anomalies=(AnomalySpec(kind="seasonal", count=1, min_len=30, max_len=30),),
        )
        s = generate(config)
        clean = clean_twin(config)
        labeled = set(np.flatnonzero(s.labels).tolist())
        changed = set(np.flatnonzero(s.values != clean.values).tolist())
        assert changed.issubset(labeled)
        assert len(changed) > 20  # frequency shift moves nearly every point

    def test_trend_relaxes_back_without_level_shift(self):
        config = cfg(
            noise_sigma=0.0,
            anomalies=(AnomalySpec(kind="trend", count=1, min_len=20, max_len=20),),
        )
        s = generate(config)
        clean = clean_twin(config)
        seg = extract_segments(s.labels.tolist())[0]
        assert seg.length == 20
        relax_end = seg.end + seg.length
        # inside the segment the ramp grows; the relaxation window is
        # unlabeled; beyond it the series returns to the clean values
        diffs = np.abs(s.values - clean.values)
        assert diffs[seg.end] > 0
        assert int(s.labels[seg.end + 1 : relax_end].sum()) == 0
        assert np.array_equal(s.values[relax_end:], clean.values[relax_end:])

    def test_shapelet_is_two_level_square(self):
        config = cfg(
            noise_sigma=0.0,
            anomalies=(AnomalySpec(kind="shapelet", count=1, min_len=25, max_len=25),),
        )
        s = generate(config)
        seg = extract_segments(s.labels.tolist())[0]
        levels = sorted(set(np.round(s.values[seg.start : seg.end + 1], 12).tolist()))
        assert len(levels) == 2

    def test_infeasible_plan(self):
        with pytest.raises(PlanInfeasible):
            generate(
                cfg(anomalies=(AnomalySpec(kind="shapelet", count=30, min_len=30, max_len=30),))
            )

    def test_anywhere_region_can_label_training(self):
        s = generate(
            cfg(
                inject_region="anywhere",
                seed=5,
                anomalies=(AnomalySpec(kind="global", count=20),),
            )
        )
        assert int(s.labels[: s.split.valid_end].sum()) > 0


class TestGenerateDataset:
    def _configs(self, n=5):
        return [
            cfg(id=f"c{i}", seed=i, anomalies=(AnomalySpec(kind="global", count=2),))
            for i in range(n)
        ]

    def test_writes_loadable_layout(self, tmp_path):
        root = str(tmp_path / "ds")
        generate_dataset(self._configs(), root, name="toy", k_delay=7)
        series, manifest = load_dataset(root)
        assert manifest.name == "toy"
        assert manifest.k_delay == 7
        assert [s.id for s in series] == [f"c{i}" for i in range(5)]

    def test_round_trip_values_exact(self, tmp_path):
        configs = self._configs(3)
        root = str(tmp_path / "ds")
        generated = generate_dataset(configs, root)
        loaded, _ = load_dataset(root)
        for g, l in zip(generated, loaded):
            assert g.values.tolist() == l.values.tolist()
            assert g.labels.tolist() == l.labels.tolist()
            assert g.split == l.split

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_dataset([], str(tmp_path / "ds"))

    def test_duplicate_ids_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            generate_dataset([cfg(id="x"), cfg(id="x")], str(tmp_path / "ds"))


class TestJsonPlan:
    def test_parse(self):
        name, k_delay, configs = dataset_plan_from_json(
            {
                "name": "d",
                "k_delay": 3,
                "curves": [
                    {
                        "id": "a",
                        "length": 200,
                        "seed": 1,
                        "anomalies": [{"kind": "trend", "count": 1, "min_len": 10, "max_len": 12}],
                    }
                ],
            }
        )
        assert name == "d" and k_delay == 3
        assert configs[0].anomalies[0].kind == "trend"
        assert configs[0].anomalies[0].max_len == 12

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            dataset_plan_from_json({"curves": [{"id": "a", "bogus": 1}]})


def test_sums_add_left_to_right():
    # a compensated sum (the built-in sum of floats since Python 3.12) gives 1.0
    assert synth._sum([1e16, 1.0, -1e16]) == 0.0
    assert synth._sum([]) == 0.0 and synth._sum(x for x in (0.5, 0.25)) == 0.75
