"""The store-based detectors' gemv-and-refine kernels against the plain
difference-matrix formulas in oracle.py: results must be bit-identical."""

import numpy as np
import pytest

import oracle
from tsadbench import detectors
from tsadbench.detectors import (
    DetectorConfig,
    _knn_indices,
    _refine,
    _sq_norms,
    fit,
    score,
)
from tsadbench.rng import SplitMix64


def uniform(seed, n, lo=-1.0, hi=1.0):
    rng = SplitMix64(seed)
    return np.array([lo + (hi - lo) * rng.uniform() for _ in range(n)])


def integers(seed, n, levels):
    rng = SplitMix64(seed)
    return np.array([float(int(rng.uniform() * levels)) for _ in range(n)])


def windows(values, m):
    return np.lib.stride_tricks.sliding_window_view(np.asarray(values, dtype=float), m)


def near_ties(seed, n):
    """A repeating pattern (duplicate windows) with some values moved by an ulp
    or two (near-ties)."""
    base = np.tile([0.0, 1.0, 0.5, 2.0, 1.5, 0.25], n // 6 + 1)[:n]
    bump = integers(seed, n, 4) - 1.0  # -1, 0, 1 or 2 ulps
    return base + bump * np.spacing(np.maximum(np.abs(base), 1.0))


# (name, pool, test, window)
STORES = [
    ("uniform", uniform(1, 120), uniform(3, 30), 8),
    ("integer_ties", integers(4, 150, 3), integers(6, 40, 3), 4),
    ("near_ties", near_ties(7, 90), near_ties(9, 30), 6),
    (
        "constant_runs",
        np.concatenate([np.full(20, 2.0), uniform(10, 20), np.full(20, -1.0)]),
        np.concatenate([np.full(6, -1.0), uniform(11, 6), np.full(6, 7.0)]),
        5,
    ),
    ("dc_offset", 1e6 + 1e-3 * uniform(12, 100), 1e6 + 1e-3 * uniform(14, 30), 8),
    ("twelve_windows", uniform(15, 15), uniform(16, 10), 4),  # fewer than 50 neighbors
    # 3,000 windows: fit's chunks are (1 << 16) // 3000 = 21 rows, so 142
    # full chunks and a short one of 18
    ("three_blocks", uniform(19, 3007), uniform(20, 12), 8),
    # every stored window has exact duplicates, so every candidate ties
    (
        "flat",
        np.full(80, 3.0),
        np.concatenate([np.full(8, 3.0), uniform(21, 8), np.full(8, -2.0)]),
        6,
    ),
    (
        "periodic",
        np.tile(uniform(22, 7), 14),
        np.concatenate([np.tile(uniform(22, 7), 3), uniform(23, 9)]),
        5,
    ),
]


def stream(pool, test, m):
    """(context, test, windows scored): the first scored window is the pool's
    first window, then the test values follow."""
    context = pool[: m - 1]
    test = np.concatenate([pool[m - 1 : m], test])
    hist = np.concatenate([context, test])
    return context, test, [hist[t - m + 1 : t + 1] for t in range(m - 1, len(hist))]


@pytest.mark.parametrize("name,pool,test,m", STORES, ids=[s[0] for s in STORES])
@pytest.mark.parametrize("neighbors", [1, 3, 10, 50])
def test_sub_lof_matches_diff_matrix(name, pool, test, m, neighbors):
    context, test, scored = stream(pool, test, m)
    fitted = fit(DetectorConfig(kind="sub_lof", window=m, neighbors=neighbors), [pool])
    store = windows(pool, m)
    k = min(neighbors, len(store) - 1)
    kdist, lrd = oracle.lof_store_diff_matrix(store, k)
    assert np.array_equal(fitted.store_kdist, kdist)
    assert np.array_equal(fitted.store_lrd, lrd)
    expected = [oracle.lof_diff_matrix(store, kdist, lrd, k, w) for w in scored]
    assert np.array_equal(score(fitted, context, test), expected)


@pytest.mark.parametrize("name,pool,test,m", STORES, ids=[s[0] for s in STORES])
def test_matrix_profile_matches_diff_matrix(name, pool, test, m):
    context, test, scored = stream(pool, test, m)
    fitted = fit(DetectorConfig(kind="matrix_profile", window=m), [pool])
    store = windows(pool, m)
    expected = [oracle.profile_diff_matrix(store, w) for w in scored]
    out = score(fitted, context, test)
    assert np.array_equal(out, expected)
    assert out[0] == 0.0  # an exactly repeated window


@pytest.mark.parametrize("k", [1, 3, 10])
def test_refine_keeps_every_possible_neighbor(k):
    # on integer data many distances tie exactly; the candidates must hold
    # the k nearest by the exact formula whichever way ties fall
    rows = np.ascontiguousarray(windows(integers(17, 300, 3), 5))
    sq, max_sq = _sq_norms(rows)
    for q in windows(integers(18, 60, 3), 5):
        cand, d = _refine(rows, sq, max_sq, q, k)
        assert len(cand) >= k
        exact = np.sqrt(np.einsum("ij,ij->i", rows - q, rows - q))
        assert np.array_equal(d, exact[cand])
        nearest = np.lexsort((np.arange(len(exact)), exact))[:k]
        assert np.array_equal(cand[_knn_indices(d, k)], nearest)


CHUNK_STORES = [
    s for s in STORES
    if s[0] in ("integer_ties", "near_ties", "dc_offset", "three_blocks", "flat", "periodic")
]


@pytest.mark.parametrize("name,pool,test,m", CHUNK_STORES, ids=[s[0] for s in CHUNK_STORES])
@pytest.mark.parametrize("neighbors", [1, 10, 50])
def test_sub_lof_fit_independent_of_chunk_height(monkeypatch, name, pool, test, m, neighbors):
    config = DetectorConfig(kind="sub_lof", window=m, neighbors=neighbors)
    n = len(windows(pool, m))
    fits = []
    for rows in (1, 7, n):  # chunks of 1 row, 7 rows and the whole store
        monkeypatch.setattr(detectors, "_CHUNK", rows * n)
        fits.append(fit(config, [pool]))
    for other in fits[1:]:
        assert np.array_equal(other.store_kdist, fits[0].store_kdist)
        assert np.array_equal(other.store_lrd, fits[0].store_lrd)


def test_knn_boundary_ties_break_by_index():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n + 1))
        d = rng.integers(0, 4, size=n).astype(float)
        expected = np.lexsort((np.arange(n), d))[:k]
        assert np.array_equal(_knn_indices(d, k), expected)
