"""Non-finite scores are rejected by every metrics entry point, on both
sweep paths. A NaN once made the Python sweep loop forever, so each call
runs under an alarm: a regression fails instead of hanging the suite."""

import contextlib
import math
import signal

import numpy as np
import pytest

from tsadbench import metrics
from tsadbench.errors import NonFiniteScore
from tsadbench.metrics import EvalCriterion, RankedScores


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _curve(n, bad, at):
    scores = [math.sin(i) for i in range(n)]
    scores[at] = bad
    labels = [0] * n
    labels[n // 3] = labels[n // 3 + 1] = 1
    return scores, labels


ENTRY_POINTS = {
    "evaluate_curve": metrics.evaluate_curve,
    "evaluate_criteria": lambda s, y, c: metrics.evaluate_criteria(s, y, (c, c)),
    "best_f1": metrics.best_f1,
    "auprc": metrics.auprc,
    "pr_curve": metrics.pr_curve,
    "sweep_confusions": metrics.sweep_confusions,
}


@pytest.mark.parametrize("n", [3, 100])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("variant", metrics.VARIANTS)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_rejected(entry, variant, bad, n):
    criterion = EvalCriterion(variant, prolong_len=1)
    for at in (0, n - 1):
        scores, labels = _curve(n, bad, at)
        for given in (scores, np.array(scores)):
            with _deadline(5), pytest.raises(NonFiniteScore):
                ENTRY_POINTS[entry](given, labels, criterion)


@pytest.mark.parametrize("n", [3, 100])
def test_rejected_when_ranked(n):
    scores, _labels = _curve(n, math.nan, 1)
    with pytest.raises(NonFiniteScore):
        RankedScores(scores)
    with pytest.raises(NonFiniteScore):
        RankedScores(np.array(scores))


@pytest.mark.parametrize("n", [3, 100])
def test_finite_extremes_accepted(n):
    scores, labels = _curve(n, 0.0, 0)
    scores[0], scores[-1] = -1.7976931348623157e308, 1.7976931348623157e308
    with _deadline(5):
        report = metrics.evaluate_curve(scores, labels, EvalCriterion("event_wise_pa"))
    assert 0.0 <= report.f1_best <= 1.0
