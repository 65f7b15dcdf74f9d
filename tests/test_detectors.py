import math
import tracemalloc

import numpy as np
import pytest

import oracle
from tsadbench.detectors import DetectorConfig, fit, score
from tsadbench.errors import ConfigError, InsufficientTrainingData
from tsadbench.rng import SplitMix64


def rand_list(seed, n, lo=0.0, hi=1.0):
    rng = SplitMix64(seed)
    return [lo + (hi - lo) * rng.uniform() for _ in range(n)]


class TestConfig:
    def test_kinds_validated(self):
        with pytest.raises(ConfigError):
            DetectorConfig(kind="nope")

    def test_window_bounds(self):
        DetectorConfig(kind="ar", window=1)  # closed-form m=1 case is legal
        with pytest.raises(ConfigError):
            DetectorConfig(kind="sub_lof", window=1)
        with pytest.raises(ConfigError):
            DetectorConfig(kind="matrix_profile", window=1)
        with pytest.raises(ConfigError):
            DetectorConfig(kind="ar", window=0)

    def test_other_bounds(self):
        with pytest.raises(ConfigError):
            DetectorConfig(kind="sub_lof", neighbors=0)
        with pytest.raises(ConfigError):
            DetectorConfig(kind="ar", ridge=-1.0)

    def test_pooling_support(self):
        assert DetectorConfig(kind="ar").supports_pooling
        assert DetectorConfig(kind="first_diff").supports_pooling
        assert not DetectorConfig(kind="sub_lof").supports_pooling
        assert not DetectorConfig(kind="matrix_profile").supports_pooling


class TestFirstDiff:
    def test_fit_is_noop(self):
        fitted = fit(DetectorConfig(kind="first_diff"), [])
        assert fitted.count_parameters() == 0
        assert fitted.store_size == 0

    def test_constant_series_scores_zero(self):
        fitted = fit(DetectorConfig(kind="first_diff"), [[1.0, 1.0]])
        out = score(fitted, [5.0] * 10, [5.0] * 20)
        assert out.tolist() == [0.0] * 20

    def test_diffs(self):
        fitted = fit(DetectorConfig(kind="first_diff"), [])
        out = score(fitted, [1.0], [3.0, 2.0, 6.0])
        assert out.tolist() == [2.0, 1.0, 4.0]

    def test_very_first_point_without_context(self):
        fitted = fit(DetectorConfig(kind="first_diff"), [])
        out = score(fitted, [], [3.0, 5.0])
        assert out.tolist() == [0.0, 2.0]


class TestAr:
    def test_closed_form_linear_recurrence(self):
        # x_t = 0.5 * x_{t-1} exactly; zero-ridge least squares recovers it
        pool = [1.0]
        for _ in range(19):
            pool.append(0.5 * pool[-1])
        fitted = fit(DetectorConfig(kind="ar", window=1, ridge=0.0), [pool])
        bias, coef = fitted.coef
        assert abs(coef - 0.5) < 1e-8
        assert abs(bias) < 1e-8

    def test_two_lag_recurrence_scores_near_zero(self):
        # a pure sinusoid obeys x_t = 2cos(w) x_{t-1} - x_{t-2}
        w = 2 * math.pi / 40
        xs = [math.sin(w * t) for t in range(200)]
        fitted = fit(DetectorConfig(kind="ar", window=2, ridge=0.0), [xs[:120]])
        out = score(fitted, xs[:120], xs[120:])
        assert float(np.max(out)) < 1e-8

    def test_residual_beats_constant_predictor(self):
        values = rand_list(9, 300, -2, 2)
        m = 6
        fitted = fit(DetectorConfig(kind="ar", window=m, ridge=0.0), [values])
        windows = np.lib.stride_tricks.sliding_window_view(np.array(values), m)[:-1]
        targets = np.array(values[m:])
        preds = windows @ fitted.coef[1:] + fitted.coef[0]
        ar_sse = float(np.sum((targets - preds) ** 2))
        const_sse = float(np.sum((targets - targets.mean()) ** 2))
        assert ar_sse <= const_sse + 1e-9

    def test_windows_never_cross_pool_boundaries(self):
        # two constant pools at different levels: rows [1, c] -> target c is
        # satisfiable; a window crossing the boundary would break it
        pool_a = [1.0] * 10
        pool_b = [5.0] * 10
        fitted = fit(DetectorConfig(kind="ar", window=3, ridge=0.0), [pool_a, pool_b])
        out = score(fitted, [1.0, 1.0, 1.0], [1.0])
        assert abs(float(out[0])) < 1e-8
        out = score(fitted, [5.0, 5.0, 5.0], [5.0])
        assert abs(float(out[0])) < 1e-8

    def test_insufficient_data(self):
        with pytest.raises(InsufficientTrainingData):
            fit(DetectorConfig(kind="ar", window=8), [[1.0] * 8])

    def test_short_pools_skipped_but_long_used(self):
        fitted = fit(
            DetectorConfig(kind="ar", window=3), [[1.0, 2.0], rand_list(3, 30)]
        )
        assert fitted.coef is not None

    def test_count_parameters(self):
        fitted = fit(DetectorConfig(kind="ar", window=32), [rand_list(1, 100)])
        assert fitted.count_parameters() == 33


class TestSubLof:
    def _uniform_store_fit(self, m=4, k=5):
        pool = [0.1 * i for i in range(54)]  # uniformly spaced windows
        return fit(DetectorConfig(kind="sub_lof", window=m, neighbors=k), [pool])

    def test_bulk_query_scores_near_one(self):
        fitted = self._uniform_store_fit()
        out = score(fitted, [2.05, 2.15, 2.25], [2.35])
        assert abs(float(out[0]) - 1.0) < 0.2

    def test_far_outlier_scores_high(self):
        fitted = self._uniform_store_fit()
        out = score(fitted, [100.0, 100.0, 100.0], [100.0])
        assert float(out[0]) > 2.0

    def test_matches_brute_force_oracle(self):
        m, k = 4, 3
        pool = rand_list(17, 40, -1, 1)
        fitted = fit(DetectorConfig(kind="sub_lof", window=m, neighbors=k), [pool])
        store = [pool[i : i + m] for i in range(len(pool) - m + 1)]
        context = rand_list(18, m - 1, -1, 1)
        test = rand_list(19, 6, -1, 1)
        out = score(fitted, context, test)
        hist = context + test
        for j in range(len(test)):
            window = hist[j + len(context) - m + 1 : j + len(context) + 1]
            expected = oracle.lof_brute(store, window, k)
            assert abs(float(out[j]) - expected) < 1e-9

    def test_duplicate_windows_stay_finite(self):
        pool = [1.0] * 30  # every window identical
        fitted = fit(DetectorConfig(kind="sub_lof", window=4, neighbors=3), [pool])
        out = score(fitted, [1.0] * 3, [1.0, 1.0])
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientTrainingData):
            fit(DetectorConfig(kind="sub_lof", window=8), [[1.0] * 8])

    def test_store_reported_as_memory_not_parameters(self):
        fitted = self._uniform_store_fit()
        assert fitted.count_parameters() == 0
        assert fitted.store_size == 51

    @staticmethod
    def _traced_fit(config, pool):
        """fit's result and its tracemalloc peak above what was live before."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fitted = fit(config, [pool])
            return fitted, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("k", [10, 50])
    def test_fit_memory_is_chunk_sized(self, k):
        # fit holds chunks of at most 2**16 values plus O(n k) state, never
        # an n-wide block of many rows: 8 MiB covers k = 50 at 3,000 windows
        n, m = 3000, 32
        pool = np.array(rand_list(21, n + m - 1, -1, 1))
        config = DetectorConfig(kind="sub_lof", window=m, neighbors=k)
        fitted, peak = self._traced_fit(config, pool)
        assert fitted.store_size == n
        assert peak <= 8 * 2**20 + fitted.store.nbytes

    def test_fit_memory_is_chunk_sized_when_every_window_ties(self):
        # a constant pool makes every pair a candidate for exact re-measuring
        n, m = 1500, 32
        config = DetectorConfig(kind="sub_lof", window=m)
        fitted, peak = self._traced_fit(config, [1.0] * (n + m - 1))
        assert (fitted.store_kdist == 0.0).all()
        assert peak <= 8 * 2**20 + fitted.store.nbytes


class TestMatrixProfile:
    def test_identical_window_scores_exact_zero(self):
        pool = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        fitted = fit(DetectorConfig(kind="matrix_profile", window=5), [pool])
        out = score(fitted, [1.0, 2.0, 3.0, 4.0], [5.0])
        assert float(out[0]) == 0.0

    def test_matches_brute_force_oracle(self):
        m = 5
        pool = rand_list(23, 30, -1, 1)
        fitted = fit(DetectorConfig(kind="matrix_profile", window=m), [pool])
        store = [pool[i : i + m] for i in range(len(pool) - m + 1)]
        context = rand_list(24, m - 1, -1, 1)
        test = rand_list(25, 8, -1, 1)
        out = score(fitted, context, test)
        hist = context + test
        for j in range(len(test)):
            window = hist[j + len(context) - m + 1 : j + len(context) + 1]
            expected = min(oracle.znorm_dist_brute(s, window) for s in store)
            assert abs(float(out[j]) - expected) < 1e-9

    def test_affine_invariance(self):
        pool = rand_list(31, 60, -1, 1)
        test = rand_list(32, 10, -1, 1)
        context = pool[-7:]
        base = score(fit(DetectorConfig(kind="matrix_profile", window=8), [pool]), context, test)
        a, b = 3.7, -11.0
        moved = score(
            fit(DetectorConfig(kind="matrix_profile", window=8), [[a * v + b for v in pool]]),
            [a * v + b for v in context],
            [a * v + b for v in test],
        )
        assert np.allclose(base, moved, atol=1e-9)

    def test_constant_windows_compared_by_mean_offset(self):
        pool = [2.0] * 20  # constant store windows at level 2
        fitted = fit(DetectorConfig(kind="matrix_profile", window=4), [pool])
        out = score(fitted, [2.0] * 3, [2.0, 7.0])
        assert float(out[0]) == 0.0  # equal-level constant windows
        # window [2,2,7] is not constant; nearest constant store -> offset
        out2 = score(fitted, [7.0] * 3, [7.0])
        assert float(out2[0]) == pytest.approx(5.0)

    def test_all_scores_finite_on_constant_data(self):
        pool = [3.0] * 30
        fitted = fit(DetectorConfig(kind="matrix_profile", window=4), [pool])
        out = score(fitted, [3.0] * 3, [3.0, 3.0, 9.0, 3.0])
        assert np.isfinite(out).all()


class TestCausality:
    @pytest.mark.parametrize(
        "config",
        [
            DetectorConfig(kind="first_diff"),
            DetectorConfig(kind="ar", window=4),
            DetectorConfig(kind="sub_lof", window=4, neighbors=3),
            DetectorConfig(kind="matrix_profile", window=4),
        ],
        ids=lambda c: c.kind,
    )
    def test_prefix_scores_bit_identical(self, config):
        pool = rand_list(41, 60, -1, 1)
        context = rand_list(42, 10, -1, 1)
        test = rand_list(43, 25, -1, 1)
        fitted = fit(config, [pool])
        full = score(fitted, context, test)
        for cut in (1, 7, 24):
            prefix = score(fitted, context, test[:cut])
            assert np.array_equal(prefix, full[:cut])

    def test_insufficient_history_scores_zero(self):
        fitted = fit(DetectorConfig(kind="matrix_profile", window=6), [rand_list(44, 30)])
        out = score(fitted, [], rand_list(45, 10))
        assert out[:5].tolist() == [0.0] * 5
        assert (out[5:] > 0).all()
