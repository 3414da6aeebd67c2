"""Streams, intervals, accumulation, and the result records."""

import math

import numpy as np
import pytest

from fanolab.info import DomainError
from fanolab.results import BoundResult, MinimaxBound
from fanolab.stats import clopper_pearson, mean_ci, pairwise_sum
from fanolab.streams import stream


def test_stream_keyed_determinism():
    a = stream(42, 7).standard_normal(16)
    b = stream(42, 7).standard_normal(16)
    assert np.array_equal(a, b)
    c = stream(42, 8).standard_normal(16)
    d = stream(43, 7).standard_normal(16)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_order_independent():
    """Substreams are independent objects: consuming one never shifts another."""
    g1 = stream(5, 1)
    _ = g1.standard_normal(1000)
    fresh = stream(5, 2).standard_normal(4)
    assert np.array_equal(fresh, stream(5, 2).standard_normal(4))


def test_stream_negative_and_huge_ids():
    assert stream(-1, 2**70 + 3).random() == stream(-1, 2**70 + 3).random()


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 100)
    assert lo == 0.0 and 0 < hi < 0.1
    lo, hi = clopper_pearson(100, 100)
    assert 0.9 < lo < 1 and hi == 1.0
    with pytest.raises(ValueError):
        clopper_pearson(5, 4)


def test_clopper_pearson_contains_p_hat():
    for k, n in [(1, 10), (5, 10), (250, 1000), (999, 1000)]:
        lo, hi = clopper_pearson(k, n, 0.99)
        assert lo <= k / n <= hi


def test_clopper_pearson_coverage_exact_small_n():
    """Exhaustive coverage check at n=12, p=0.37: at least nominal."""
    from scipy import stats as st

    n, p, conf = 12, 0.37, 0.95
    covered = 0.0
    for k in range(n + 1):
        lo, hi = clopper_pearson(k, n, conf)
        if lo <= p <= hi:
            covered += st.binom.pmf(k, n, p)
    assert covered >= conf


def test_mean_ci_basic():
    m, (lo, hi) = mean_ci(np.array([1.0, 2.0, 3.0, 4.0]))
    assert m == 2.5
    assert lo < 2.5 < hi


def test_mean_ci_degenerate():
    m, ci = mean_ci(np.array([7.0]))
    assert m == 7.0
    assert ci == (0.0, math.inf)


def test_pairwise_sum_matches_fsum():
    g = np.random.Generator(np.random.Philox(key=1))
    vals = (g.random(1001) * 1e6 - 5e5).tolist()
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), rel=1e-12)
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([3.5]) == 3.5


def test_pairwise_sum_deterministic_order():
    vals = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert pairwise_sum(vals) == pairwise_sum(list(vals))


def test_bound_result_rejects_negative():
    with pytest.raises(ValueError):
        BoundResult(value=-0.1, valid=True)
    with pytest.raises(ValueError):
        MinimaxBound(value=-1e-9, pipeline="x")


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_bound_records_reject_non_finite_value(value):
    """An overflowed formula (say, sigma2 near the float maximum) is refused,
    not reported as a valid infinite bound."""
    with pytest.raises(DomainError, match="finite"):
        BoundResult(value=value, valid=True)
    with pytest.raises(DomainError, match="finite"):
        MinimaxBound(value=value, pipeline="x")


def test_result_records_are_frozen_with_readonly_maps():
    res = BoundResult(value=0.5, valid=True, ingredients={"a": 1})
    with pytest.raises(Exception):
        res.ingredients["a"] = 2
    with pytest.raises(Exception):
        res.value = 1.0
