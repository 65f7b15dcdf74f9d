"""Independent brute-force reference for the evaluation criteria.

Deliberately written from the definitions rather than sharing any code
with the package: segments come from a linear scan, prolonged ends apply
the min(end+L, next_start-1, n-1) rule directly, and every unique
threshold is evaluated by a fresh pass over the scores. Used to freeze
expected values and to check the optimized sweep.

The ``*_diff_matrix`` functions keep the store-based detectors' plain
formulas (a distance from every stored window, nearest by a full sort) as
the reference their gemv-and-refine kernels must match bit for bit.
"""

import math

import numpy as np

E = math.e


def find_segments(labels):
    segs = []
    start = None
    for i, flag in enumerate(labels):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            segs.append((start, i - 1))
            start = None
    if start is not None:
        segs.append((start, len(labels) - 1))
    return segs


def prolong(segs, length, n):
    out = []
    for i, (s, e) in enumerate(segs):
        limit = segs[i + 1][0] - 1 if i + 1 < len(segs) else n - 1
        out.append((s, min(e + length, limit, n - 1), e))
    return out


def _window_hi(s, e, k):
    return e if k is None else min(e, s + k)


def confusion(scores, labels, variant, threshold, k=None, prolong_len=0):
    """(tp, fp, fn) at one threshold, straight from the definitions."""
    n = len(scores)
    ext = prolong(find_segments(labels), prolong_len, n)
    inseg = [False] * n
    for s, e, _oe in ext:
        for p in range(s, e + 1):
            inseg[p] = True

    if variant == "point_wise_pa":
        adjusted = list(scores)
        for s, e, _oe in ext:
            hi = _window_hi(s, e, k)
            peak = max(scores[s : hi + 1])
            for p in range(s, e + 1):
                adjusted[p] = peak
        tp = fp = fn = 0
        for p in range(n):
            if adjusted[p] >= threshold:
                if inseg[p]:
                    tp += 1
                else:
                    fp += 1
            elif inseg[p]:
                fn += 1
        return float(tp), float(fp), float(fn)

    weighted = variant == "reduced_length_pa"
    tp = fn = 0.0
    for s, e, oe in ext:
        weight = math.log(oe - s + 1 + E) if weighted else 1.0
        hi = _window_hi(s, e, k)
        if any(scores[p] >= threshold for p in range(s, hi + 1)):
            tp += weight
        else:
            fn += weight
    fp = 0.0
    p = 0
    while p < n:
        if scores[p] >= threshold:
            q = p
            clean = True
            while q < n and scores[q] >= threshold:
                if inseg[q]:
                    clean = False
                q += 1
            if clean:
                fp += math.log(q - p + E) if weighted else 1.0
            p = q
        else:
            p += 1
    return tp, fp, fn


def prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def best_f1(scores, labels, variant, k=None, prolong_len=0):
    """(f1, threshold, precision, recall); ties pick the lowest threshold.

    Candidates are every unique score plus +inf (finite scores make the
    +inf confusion come out as all-miss directly)."""
    candidates = [math.inf] + sorted(set(scores), reverse=True)
    best = None
    for t in candidates:
        tp, fp, fn = confusion(scores, labels, variant, t, k, prolong_len)
        precision, recall, f1 = prf(tp, fp, fn)
        if best is None or f1 >= best[0]:
            best = (f1, t, precision, recall)
    return best


def auprc(scores, labels, variant, k=None, prolong_len=0):
    area = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        tp, fp, fn = confusion(scores, labels, variant, t, k, prolong_len)
        precision, recall, _f1 = prf(tp, fp, fn)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


class FastOracle:
    """Per-threshold brute force with the label-side structures set up once.

    Semantics identical to confusion()/best_f1()/auprc() above (the slow
    path cross-checks this in tests); factoring out the label-dependent
    setup lets the exhaustive acceptance sweep finish inside its budget.
    """

    def __init__(self, labels, variant, k=None, prolong_len=0):
        n = len(labels)
        segs = find_segments(labels)
        ext = prolong(segs, prolong_len, n)
        self.n = n
        self.variant = variant
        self.ext = ext
        self.inseg = [False] * n
        for s, e, _oe in ext:
            for p in range(s, e + 1):
                self.inseg[p] = True
        self.windows = [(s, _window_hi(s, e, k)) for s, e, _oe in ext]
        weighted = variant == "reduced_length_pa"
        self.weighted = weighted
        self.weights = [
            math.log(oe - s + 1 + E) if weighted else 1.0 for s, _e, oe in ext
        ]
        self.total_w = sum(self.weights)
        self.spans = [e - s + 1 for s, e, _oe in ext]
        self.mask_size = sum(self.spans)

    def _confusion_event(self, scores, seg_max, threshold):
        tp = 0.0
        for peak, w in zip(seg_max, self.weights):
            if peak >= threshold:
                tp += w
        fn = self.total_w - tp
        fp = 0.0
        inseg = self.inseg
        n = self.n
        p = 0
        while p < n:
            if scores[p] >= threshold:
                q = p
                clean = True
                while q < n and scores[q] >= threshold:
                    if inseg[q]:
                        clean = False
                    q += 1
                if clean:
                    fp += math.log(q - p + E) if self.weighted else 1.0
                p = q
            else:
                p += 1
        return tp, fp, fn

    def _confusion_point(self, scores, seg_max, threshold):
        tp = 0
        for peak, span in zip(seg_max, self.spans):
            if peak >= threshold:
                tp += span
        fn = self.mask_size - tp
        fp = 0
        inseg = self.inseg
        for p in range(self.n):
            if not inseg[p] and scores[p] >= threshold:
                fp += 1
        return float(tp), float(fp), float(fn)

    def evaluate(self, scores):
        """(f1_best, best_threshold, auprc-or-None) over unique thresholds."""
        seg_max = [max(scores[lo : hi + 1]) for lo, hi in self.windows]
        confusion_at = (
            self._confusion_point
            if self.variant == "point_wise_pa"
            else self._confusion_event
        )
        descending = sorted(set(scores), reverse=True)
        best = (0.0, math.inf)  # the +inf no-alarm candidate scores 0
        area = 0.0
        prev_recall = 0.0
        for t in descending:
            tp, fp, fn = confusion_at(scores, seg_max, t)
            precision, recall, f1 = prf(tp, fp, fn)
            if f1 >= best[0]:
                best = (f1, t)
            area += (recall - prev_recall) * precision
            prev_recall = recall
        return best[0], best[1], (area if self.ext else None)

    def f1_at(self, scores, threshold):
        seg_max = [max(scores[lo : hi + 1]) for lo, hi in self.windows]
        confusion_at = (
            self._confusion_point
            if self.variant == "point_wise_pa"
            else self._confusion_event
        )
        return prf(*confusion_at(scores, seg_max, threshold))[2]


def lof_brute(store, query, k):
    """Textbook LOF of a query against a reference store.

    Neighbors are the k nearest store points (ties by index); the store's
    own k-distances and local reachability densities exclude each point
    itself; densities use the 1e-10 regularizer.
    """

    def dist(a, b):
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    n = len(store)
    k = min(k, n - 1)

    def knn(dists, exclude=None):
        order = sorted(
            (d, i) for i, d in enumerate(dists) if i != exclude
        )
        return [i for _d, i in order[:k]], order[k - 1][0]

    store_dists = [[dist(a, b) for b in store] for a in store]
    kdist = [0.0] * n
    neighbors = [None] * n
    for i in range(n):
        neighbors[i], kdist[i] = knn(store_dists[i], exclude=i)
    lrd = [0.0] * n
    for i in range(n):
        reach = [max(kdist[j], store_dists[i][j]) for j in neighbors[i]]
        lrd[i] = 1.0 / (sum(reach) / len(reach) + 1e-10)

    qd = [dist(query, b) for b in store]
    qnb, _ = knn(qd)
    reach = [max(kdist[j], qd[j]) for j in qnb]
    lrd_q = 1.0 / (sum(reach) / len(reach) + 1e-10)
    return sum(lrd[j] for j in qnb) / len(qnb) / lrd_q


def znorm_dist_brute(a, b):
    """z-normalized Euclidean distance with the constant-window fallback."""
    ma = sum(a) / len(a)
    mb = sum(b) / len(b)
    sa = math.sqrt(sum((x - ma) ** 2 for x in a) / len(a))
    sb = math.sqrt(sum((x - mb) ** 2 for x in b) / len(b))
    if sa < 1e-12 or sb < 1e-12:
        return abs(ma - mb)
    za = [(x - ma) / sa for x in a]
    zb = [(x - mb) / sb for x in b]
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(za, zb)))


def _exact_dists(rows, window):
    diff = rows - window
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _nearest(dists, k):
    """The k smallest entries' indices, by (distance, index), from a full sort."""
    return np.lexsort((np.arange(len(dists)), dists))[:k]


def lof_store_diff_matrix(store, k):
    """sub_lof's fitted (k-distance, lrd) per stored window, row by row.

    Store distances use the norm expansion on a Gram matrix built, as fit
    builds it, in blocks of (1 << 22) // n rows: BLAS rounding depends on
    the block's shape. Each row's neighbors exclude itself.
    """
    store = np.ascontiguousarray(store, dtype=np.float64)
    n = len(store)
    sq = np.einsum("ij,ij->i", store, store)
    block = max(1, (1 << 22) // n)
    kdist = np.empty(n)
    neighbors = np.empty((n, k), dtype=np.int64)
    for lo in range(0, n, block):
        gram = store[lo : lo + block] @ store.T
        d = np.sqrt(np.maximum(sq[lo : lo + block, None] - 2.0 * gram + sq[None, :], 0.0))
        for i in range(lo, lo + len(d)):
            row = d[i - lo].copy()
            row[i] = np.inf
            neighbors[i] = _nearest(row, k)
            kdist[i] = row[neighbors[i][-1]]
    pair = np.array([_exact_dists(store[neighbors[i]], store[i]) for i in range(n)])
    reach = np.maximum(kdist[neighbors], pair)
    return kdist, 1.0 / (reach.mean(axis=1) + 1e-10)


def lof_diff_matrix(store, kdist, lrd, k, window):
    """sub_lof's score of one window against every stored window."""
    d = _exact_dists(np.asarray(store, dtype=np.float64), window)
    nb = _nearest(d, k)
    reach = np.maximum(kdist[nb], d[nb])
    return float(lrd[nb].mean() / (1.0 / (reach.mean() + 1e-10)))


def profile_diff_matrix(store, window):
    """matrix_profile's score of one window against every stored window."""
    store = np.asarray(store, dtype=np.float64)
    means, stds = store.mean(axis=1), store.std(axis=1)
    mean, std = window.mean(), window.std()
    if std < 1e-12:
        return float(np.abs(means - mean).min())
    const = stds < 1e-12
    best = math.inf
    if (~const).any():
        z_store = (store[~const] - means[~const, None]) / stds[~const, None]
        best = float(_exact_dists(z_store, (window - mean) / std).min())
    if const.any():
        best = min(best, float(np.abs(means[const] - mean).min()))
    return best
