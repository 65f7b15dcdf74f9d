"""Built-in causal statistical detectors behind a fit/score contract.

Four kinds share one interface:

* ``first_diff``: absolute first-order difference, no training state.
* ``ar``: ridge least-squares autoregression over the preceding m points,
  scored by absolute prediction error.
* ``sub_lof``: local outlier factor of the length-m window ending at t
  against the store of all training windows.
* ``matrix_profile``: minimum z-normalized Euclidean distance between the
  window ending at t and the training window store (AB-join).

Scores are causal: the score at t depends only on observations at or
before t, and every test timestamp gets a finite score (positions without
enough history score 0). Windows never cross series boundaries: training
windows are drawn within each pool separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    InsufficientTrainingData,
    LengthMismatch,
    require_int,
    require_name,
    require_number,
)

KINDS = ("ar", "first_diff", "sub_lof", "matrix_profile")

# Store-based detectors memorize per-series history, which conflicts with
# pooled training; bench refuses them under all_in_one/zero_shot by default.
POOLING_UNSUPPORTED = frozenset({"sub_lof", "matrix_profile"})

_CONST_STD = 1e-12
_LRD_EPS = 1e-10
_CHUNK = 1 << 16  # float64 values per block of sub_lof fit's working arrays


@dataclass(frozen=True)
class DetectorConfig:
    kind: str
    window: int = 32
    neighbors: int = 10  # sub_lof only
    ridge: float = 1e-4  # ar only
    name: str | None = None  # None or "": the kind

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown detector kind {self.kind!r}")
        require_int("window", self.window)
        require_int("neighbors", self.neighbors, 1)
        require_number("ridge", self.ridge)
        if self.name in (None, ""):
            object.__setattr__(self, "name", self.kind)
        require_name("detector name", self.name)
        if self.kind == "ar" and self.window < 1:
            raise ConfigError("ar needs window >= 1")
        if self.kind in ("sub_lof", "matrix_profile") and self.window < 2:
            raise ConfigError(f"{self.kind} needs window >= 2")
        if self.ridge < 0:
            raise ConfigError("ridge must be >= 0")

    @property
    def supports_pooling(self) -> bool:
        return self.kind not in POOLING_UNSUPPORTED


def _usable_pools(pools: Sequence[np.ndarray], min_len: int) -> list[np.ndarray]:
    usable = [np.asarray(p, dtype=np.float64) for p in pools]
    usable = [p for p in usable if len(p) >= min_len]
    if not usable:
        raise InsufficientTrainingData(
            f"no training pool of length >= {min_len}"
        )
    return usable


def _fit_ar(config: DetectorConfig, pools: Sequence[np.ndarray]) -> np.ndarray:
    """Solve (X'X + ridge*I) w = X'y over windows drawn within each pool.

    Feature rows are [1, x_{t-m}, ..., x_{t-1}] targeting x_t, so the
    returned vector is [bias, w_1, ..., w_m].
    """
    m = config.window
    xtx = np.zeros((m + 1, m + 1))
    xty = np.zeros(m + 1)
    for pool in _usable_pools(pools, m + 1):
        windows = sliding_window_view(pool, m)[:-1]  # each row precedes its target
        targets = pool[m:]
        ones = np.ones((len(windows), 1))
        x = np.hstack([ones, windows])
        xtx += x.T @ x
        xty += x.T @ targets
    if config.ridge > 0:
        xtx = xtx + config.ridge * np.eye(m + 1)
    try:
        coef = np.linalg.solve(xtx, xty)
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(xtx, xty, rcond=None)
    return coef


def _stack_windows(pools: Sequence[np.ndarray], m: int) -> np.ndarray:
    parts = [sliding_window_view(pool, m) for pool in _usable_pools(pools, m + 1)]
    return np.ascontiguousarray(np.vstack(parts))


def _znorm_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    means = rows.mean(axis=1)
    stds = rows.std(axis=1)
    safe = np.where(stds < _CONST_STD, 1.0, stds)
    z = (rows - means[:, None]) / safe[:, None]
    return z, means, stds


def _knn_rows(
    rows: np.ndarray, cols: np.ndarray, dists: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the k candidate columns ordered by (distance, column), and
    their distances, as two (rows, k) arrays.

    Candidates are (row, column, distance) triples; every row from 0 up to
    the largest must have at least k of them.
    """
    order = np.lexsort((cols, dists, rows))
    rows, cols, dists = rows[order], cols[order], dists[order]
    keep = np.arange(len(rows)) - np.searchsorted(rows, rows) < k  # rank within its row
    return cols[keep].reshape(-1, k), dists[keep].reshape(-1, k)


def _knn_indices(dists: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries, ordered by (value, index): the
    dense 1-d form of ``_knn_rows``."""
    return np.argsort(dists, kind="stable")[:k]


@dataclass
class FittedDetector:
    """Immutable learned state; safe to share across concurrent score calls."""

    config: DetectorConfig
    coef: np.ndarray | None = None  # ar: [bias, w_1..w_m]
    store: np.ndarray | None = None  # sub_lof / matrix_profile windows
    store_k: int = 0  # sub_lof: effective neighbor count
    store_kdist: np.ndarray | None = None  # sub_lof
    store_lrd: np.ndarray | None = None  # sub_lof
    store_z: np.ndarray | None = None  # matrix_profile, non-constant rows
    store_const_means: np.ndarray | None = field(default=None)  # matrix_profile
    store_means: np.ndarray | None = None  # matrix_profile, every row
    # squared row norms of the rows queries are compared against (store for
    # sub_lof, store_z for matrix_profile), and their maximum
    sq_norms: np.ndarray | None = None
    max_sq_norm: float = 0.0

    @property
    def kind(self) -> str:
        return self.config.kind

    @property
    def store_size(self) -> int:
        return 0 if self.store is None else len(self.store)

    def count_parameters(self) -> int:
        """Learned parameter count; window stores are memory, not parameters."""
        return len(self.coef) if self.coef is not None else 0


def _sq_norms(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared norm of each row, and the largest (0 for no rows)."""
    sq = np.einsum("ij,ij->i", rows, rows)
    return sq, float(sq.max(initial=0.0))


def fit(config: DetectorConfig, pools: Sequence[Sequence[float]]) -> FittedDetector:
    """Fit on label-free training pools (one array per series region)."""
    arrays = [np.asarray(p, dtype=np.float64) for p in pools]
    if config.kind == "first_diff":
        return FittedDetector(config=config)
    if config.kind == "ar":
        return FittedDetector(config=config, coef=_fit_ar(config, arrays))
    store = _stack_windows(arrays, config.window)
    if config.kind == "matrix_profile":
        z, means, stds = _znorm_rows(store)
        const = stds < _CONST_STD
        store_z = np.ascontiguousarray(z[~const])
        sq_norms, max_sq_norm = _sq_norms(store_z)
        return FittedDetector(
            config=config,
            store=store,
            store_z=store_z,
            store_const_means=means[const],
            store_means=means,
            sq_norms=sq_norms,
            max_sq_norm=max_sq_norm,
        )
    # sub_lof: precompute each stored window's k-distance and local
    # reachability density (neighbors within the store exclude the point
    # itself; ties break by index; lrd uses the 1e-10 regularizer so exact
    # duplicates stay finite and score 1).
    n = len(store)
    k = min(config.neighbors, n - 1)
    if k < 1:
        raise InsufficientTrainingData("sub_lof needs at least two training windows")
    sq_norms, max_sq_norm = _sq_norms(store)
    neighbors, dists = _store_knn(store, sq_norms, max_sq_norm, k)
    kdist = dists[:, -1].copy()
    reach = np.maximum(kdist[neighbors], dists)
    lrd = 1.0 / (reach.mean(axis=1) + _LRD_EPS)
    return FittedDetector(
        config=config,
        store=store,
        store_k=k,
        store_kdist=kdist,
        store_lrd=lrd,
        sq_norms=sq_norms,
        max_sq_norm=max_sq_norm,
    )


def _store_knn(
    store: np.ndarray, sq_norms: np.ndarray, max_sq: float, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each stored window's k nearest other windows (ties by index) and their
    exact distances, the last of which is its k-distance.

    ``_refine``'s rule over chunks of rows: one matmul gives the approximate
    squared distances of at most ``_CHUNK`` pairs, and every pair that the
    rounding bound cannot rule out of a row's k nearest is re-measured with
    ``sqrt(sum((s - q)**2))``. The result depends on neither BLAS nor the
    chunk height.
    """
    n, m = store.shape
    neighbors = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k))
    step = max(1, _CHUNK // n)
    piece = max(1, _CHUNK // m)  # candidate pairs whose differences fit a chunk
    for lo in range(0, n, step):
        local = np.arange(min(step, n - lo))
        approx = store[lo : lo + step] @ store.T
        approx *= -2.0
        approx += sq_norms
        approx[local, lo + local] = np.inf  # exclude self
        kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        tol = _tol(m, max_sq, sq_norms[lo : lo + step])
        rows, cols = np.nonzero(approx <= (kth + 2.0 * tol)[:, None])
        exact = np.empty(len(rows))
        for a in range(0, len(rows), piece):
            diff = store[cols[a : a + piece]]
            diff -= store[lo + rows[a : a + piece]]
            exact[a : a + piece] = np.einsum("ij,ij->i", diff, diff)
        nb, d = _knn_rows(rows, cols, np.sqrt(exact, out=exact), k)
        neighbors[lo : lo + step], dists[lo : lo + step] = nb, d
    return neighbors, dists


# Candidate margin of _refine. With u = eps / 2, m the window length and
# N = max ||s||^2 + ||q||^2, the gemv value ||s||^2 - 2 s.q (+ ||q||^2) and
# the exact formula's fl(sum fl(s - q)^2) are within (2m + 2) u N and
# (2m + 4) u N of the true squared distance (to first order), so within
# tol = 4 (m + 2) eps N = (8m + 16) u N of each other. A row can be among
# the k nearest by the exact formula only if its gemv value is within
# 2 (4m + 6) u N of the k-th smallest, plus 8 u N for squares that round
# to the same square root; 2 tol leaves (8m + 12) u N beyond that for
# second-order terms and the rounding of the threshold itself.
_EPS = float(np.finfo(np.float64).eps)


def _tol(m: int, max_sq, q_sq):
    """The bound tol above, for window length m and query squared norm(s)."""
    return 4.0 * (m + 2) * _EPS * (max_sq + q_sq)


def _refine(
    rows: np.ndarray, sq_norms: np.ndarray, max_sq: float, q: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact distances from q to every row that can be among its k nearest.

    One gemv gives approximate squared distances for all rows; rows within
    twice the rounding bound of the k-th smallest are recomputed with the
    exact formula ``sqrt(sum((s - q)**2))``, so the k nearest of the returned
    distances, ties by index, are the k nearest over all rows. Returns the
    candidate row indices (ascending) and their exact distances.
    """
    approx = rows @ q  # ||s||^2 - 2 s.q; ||q||^2 shifts all rows alike
    approx *= -2.0
    approx += sq_norms
    kth = approx.min() if k == 1 else np.partition(approx, k - 1)[k - 1]
    tol = _tol(len(q), max_sq, float(q @ q))
    cand = np.flatnonzero(approx <= kth + 2.0 * tol)
    diff = rows[cand]
    diff -= q
    return cand, np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _mean(x: np.ndarray) -> float:
    """``x.mean()`` of a 1-d float array, bit for bit, without its call overhead."""
    return np.add.reduce(x) / len(x)


def _lof_of_window(fitted: FittedDetector, window: np.ndarray) -> float:
    k = fitted.store_k
    cand, d = _refine(fitted.store, fitted.sq_norms, fitted.max_sq_norm, window, k)
    local = _knn_indices(d, k)
    nb = cand[local]
    reach = np.maximum(fitted.store_kdist[nb], d[local])
    lrd_q = 1.0 / (_mean(reach) + _LRD_EPS)
    return float(_mean(fitted.store_lrd[nb]) / lrd_q)


def _profile_of_window(fitted: FittedDetector, window: np.ndarray) -> float:
    mean = _mean(window)
    dev = window - mean
    std = math.sqrt(_mean(dev * dev))  # window.std(), bit for bit
    best = math.inf
    if std < _CONST_STD:
        # constant query: all comparisons fall back to mean offsets
        return float(np.abs(fitted.store_means - mean).min())
    if len(fitted.store_z):
        z = dev / std
        _, d = _refine(fitted.store_z, fitted.sq_norms, fitted.max_sq_norm, z, 1)
        best = float(d.min())
    if len(fitted.store_const_means):
        best = min(best, float(np.abs(fitted.store_const_means - mean).min()))
    return best


def score(
    fitted: FittedDetector,
    context: Sequence[float],
    test: Sequence[float],
) -> np.ndarray:
    """One finite causal score per test point.

    ``context`` supplies the observations preceding the test region (the
    series' train + valid prefix under every schema). Positions whose
    window would reach before the first observation score 0.
    """
    ctx = np.asarray(context, dtype=np.float64)
    tst = np.asarray(test, dtype=np.float64)
    if ctx.ndim != 1 or tst.ndim != 1:
        raise LengthMismatch("context and test must be 1-d")
    c = len(ctx)
    n = len(tst)
    hist = np.concatenate([ctx, tst])
    out = np.zeros(n)
    kind = fitted.kind

    if kind == "first_diff":
        if len(hist) > 1:
            d = np.abs(np.diff(hist))
            start = max(0, 1 - c)  # first test point scores 0 only without context
            out[start:] = d[c + start - 1 :]
        return out

    if kind == "ar":
        m = fitted.config.window
        if len(hist) > m:
            windows = sliding_window_view(hist, m)[:-1]
            preds = windows @ fitted.coef[1:] + fitted.coef[0]
            resid = np.abs(hist[m:] - preds)
            start = max(0, m - c)
            out[start:] = resid[c + start - m :]
        return out

    m = fitted.config.window
    scorer = _lof_of_window if kind == "sub_lof" else _profile_of_window
    for j in range(n):
        t_abs = c + j
        if t_abs + 1 < m:
            continue  # not enough history for a full window
        window = hist[t_abs - m + 1 : t_abs + 1]
        out[j] = scorer(fitted, window)
    return out
