"""The singleton sampler against the exact hypergeometric law.

``_singles`` draws the positives among ``capacity`` singleton tests taken
from all n: Hypergeom(good, n - good, capacity). A config whose CDF
table fits in ``SINGLES_TABLE_MAX_CELLS`` inverts one uniform per trial
through the table; a larger one calls numpy's sampler. Both paths are
checked against exact pmfs from ``math.comb`` by the chi-square test of
``tests/test_lone_groups.py`` at a fixed seed, and every table row's edges
are checked exactly.
"""

import math

import numpy as np
import pytest

from sirpool.harness import SINGLES_TABLE_MAX_CELLS, _singles, _singles_cdf
from tests.test_lone_groups import chi_square

SEED = 20261019
DRAWS = 100_000
CHUNK = 10_000  # draws per good value in one call, which keeps a call's lookup small

# (n, capacity): goods drawn together, trial by trial
CASES = {
    (30, 7): [0, 30, 1, 15],  # good = 0 and good = n
    (12, 12): [0, 5, 12],  # capacity = n: every test finds its infected
    (20, 15): [6, 12, 19],  # support floors capacity - (n - good) = 1, 7 and 14
    (1000, 30): [3, 200, 999],  # the reference config
    (4095, 31): [60, 4000],  # a table of exactly SINGLES_TABLE_MAX_CELLS cells
    (4096, 31): [0, 60, 4096],  # one row more: numpy's sampler runs
}


def exact_pmf(n: int, capacity: int, good: int) -> np.ndarray:
    total = math.comb(n, capacity)
    return np.array([math.comb(good, k) * math.comb(n - good, capacity - k) / total
                     for k in range(capacity + 1)])


def test_the_cell_limit_splits_the_cases():
    cells = {shape: (shape[0] + 1) * (shape[1] + 1) for shape in CASES}
    assert cells[(4095, 31)] == SINGLES_TABLE_MAX_CELLS
    assert cells[(4096, 31)] == SINGLES_TABLE_MAX_CELLS + 32


@pytest.mark.parametrize("n, capacity", sorted(CASES))
def test_draws_follow_the_law(n, capacity):
    goods = CASES[(n, capacity)]
    rng = np.random.default_rng(SEED)
    infected = np.tile(np.array(goods, dtype=np.int64), CHUNK)
    _singles_cdf.cache_clear()
    drawn = np.concatenate([_singles(n, infected, capacity, rng).reshape(CHUNK, len(goods))
                            for _ in range(DRAWS // CHUNK)]).T
    tabulated = _singles_cdf.cache_info().currsize == 1
    assert tabulated == ((n + 1) * (capacity + 1) <= SINGLES_TABLE_MAX_CELLS)
    for good, found in zip(goods, drawn):
        prob = exact_pmf(n, capacity, good)
        observed = np.bincount(found, minlength=capacity + 1)
        assert observed.size == capacity + 1, f"{(n, capacity, good)}: more than capacity"
        assert not observed[prob == 0].any(), (
            f"{(n, capacity, good)}: impossible counts drawn "
            f"{np.flatnonzero(observed * (prob == 0)).tolist()}")
        result = chi_square(observed, prob, DRAWS)
        if result is None:
            continue
        chi2, critical, dof = result
        assert chi2 <= critical, (
            f"{(n, capacity, good)} table={tabulated}: chi-square {chi2:.1f} > "
            f"{critical:.1f} on {dof} dof; mean {found.mean():.4f}, "
            f"exact {float(prob @ np.arange(capacity + 1)):.4f}")


@pytest.mark.parametrize("n, capacity", [(1, 1), (7, 3), (12, 12), (20, 15), (1000, 30)])
def test_rows_are_exact_at_the_support_edges(n, capacity):
    cdf = _singles_cdf(n, capacity)
    assert cdf.shape == (n + 1, capacity + 1)
    assert not cdf.flags.writeable
    for good, row in enumerate(cdf):
        floor, top = max(0, capacity - (n - good)), min(good, capacity)
        assert np.all(row[:floor] == 0.0), (n, capacity, good)
        assert np.all(row[top:] == 1.0), (n, capacity, good)
        assert np.all(np.diff(row) >= 0.0), (n, capacity, good)
        assert np.allclose(row, np.cumsum(exact_pmf(n, capacity, good)), rtol=0, atol=1e-12)
