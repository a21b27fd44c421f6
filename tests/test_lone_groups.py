"""The lone-group samplers and CDF tables against the exact law of F, the number of lone groups.

K infected sit uniformly at random among the g*eta slots of g groups of
eta. F counts the groups holding exactly one. By inclusion-exclusion over
the groups forced to hold exactly one,

    P(F = f) = C(g,f) eta^f sum_i (-1)^i C(g-f,i) eta^i C(eta(g-f-i), K-f-i) / C(g eta, K),

computed here with Python integers. The formula is first checked against
enumeration of every K-subset for small shapes. Every ``_lone_cdf`` table
that fits ``LONE_TABLE_MAX_CELLS`` with g = 2..8 is then checked against it
entry by entry. The draws of the engine's dispatch (``_lone_groups_by_shape``)
and of the per-trial multivariate hypergeometric sampler
(``_lone_groups_wide``, run on every case whatever its width, with each of
numpy's two methods on some) are checked by a chi-square test at a fixed
seed.
"""

import itertools
import math

import numpy as np
import pytest

from sirpool import harness
from sirpool.harness import LONE_TABLE_MAX_CELLS, MARGINALS_MIN_ETA, _lone_cdf, \
    _lone_groups_by_shape, _lone_groups_wide

SEED = 20261018
DRAWS = 100_000
# ``_lone_groups_wide`` makes one numpy call per trial (~10 us), so its check
# on every case draws fewer; the engine's dispatch, checked at DRAWS, sends
# it the four wide cases
WIDE_DRAWS = 20_000
CHUNK = 10_000  # draws per case in one call, which keeps a call's arrays small
Z_CRIT = 3.719  # standard normal upper quantile at p = 1e-4

# (K, g, eta): empty and full groups, more than half full, one group, pairs,
# wide rounds like those ``_lone_groups_wide`` serves, and eta on each side
# of ``MARGINALS_MIN_ETA``; in the engine's dispatch, the g >= 2 shapes up to
# (20, 13, 2) read a table and the four after it are too wide for one
CASES = [
    (0, 5, 4),
    (6, 2, 3),
    (1, 1, 2),
    (2, 1, 2),
    (5, 3, 3),
    (9, 4, 3),
    (6, 8, 5),
    (20, 13, 2),
    (19, 16, 8),
    (70, 64, 2),
    (12, 8, 40),
    (12, 8, 41),
]


def binomial_row(n: int) -> list[int]:
    """C(n, j) for j = 0..n, by the multiplicative recurrence, as Python integers."""
    return list(itertools.accumulate(range(n), lambda c, j: c * (n - j) // (j + 1), initial=1))


def lone_law(g: int, eta: int) -> np.ndarray:
    """Number of K-subsets of the g*eta slots with f lone groups: row K = 0..g*eta, column f.

    The entries are Python integers; each inclusion-exclusion term is added
    for every K at once, from rows of C(eta*m, j).
    """
    size = g * eta + 1
    binom = [np.array(binomial_row(eta * m) + [0] * (size - eta * m - 1), dtype=object)
             for m in range(g + 1)]
    counts = np.zeros((size, g + 1), dtype=object)
    for f in range(g + 1):
        for i in range(g - f + 1):
            counts[f + i:, f] += ((-1) ** i * math.comb(g - f, i) * eta ** i
                                 * binom[g - f - i][:size - f - i])
        counts[:, f] *= math.comb(g, f) * eta ** f
    return counts


def enumerated_law(g: int, eta: int, k: int) -> list[int]:
    counts = [0] * (g + 1)
    for subset in itertools.combinations(range(g * eta), k):
        occupied = np.bincount(np.asarray(subset, dtype=np.int64) // eta, minlength=g)
        counts[int(np.count_nonzero(occupied == 1))] += 1
    return counts


def chi2_critical(dof: int) -> float:
    """Wilson-Hilferty approximation of the chi-square upper quantile at Z_CRIT."""
    a = 2 / (9 * dof)
    return dof * (1 - a + Z_CRIT * math.sqrt(a)) ** 3


def chi_square(observed: np.ndarray, prob: np.ndarray,
               draws: int) -> tuple[float, float, int] | None:
    """(statistic, critical value, dof) of observed counts against a law, None at 0 dof.

    Cells expecting fewer than 5 draws are pooled into one, and that one
    into the largest cell if it is still too small.
    """
    expected = prob * draws
    small = expected < 5
    exp_cells, obs_cells = expected[~small], observed[~small]
    if expected[small].sum() >= 5:
        exp_cells = np.append(exp_cells, expected[small].sum())
        obs_cells = np.append(obs_cells, observed[small].sum())
    else:
        largest = exp_cells.argmax()
        exp_cells[largest] += expected[small].sum()
        obs_cells[largest] += observed[small].sum()
    dof = exp_cells.size - 1
    if dof == 0:
        return None
    return float(((obs_cells - exp_cells) ** 2 / exp_cells).sum()), chi2_critical(dof), dof


def sample(sampler, draws: int) -> np.ndarray:
    """(cases, draws) lone-group counts, every call mixing all cases trial by trial."""
    rng = np.random.default_rng(SEED)
    k, g, eta = (np.tile(np.array(column, dtype=np.int64), CHUNK) for column in zip(*CASES))
    calls = [sampler(k, g, eta, rng).reshape(CHUNK, len(CASES)) for _ in range(draws // CHUNK)]
    return np.concatenate(calls).T


def by_shape(k: np.ndarray, g: np.ndarray, eta: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """``_lone_groups_by_shape`` as the engine calls it: each trial indexes the distinct shapes."""
    shapes, shape = np.unique(np.stack([g, eta], axis=1), axis=0, return_inverse=True)
    return _lone_groups_by_shape(k, shape.ravel(), [tuple(s) for s in shapes.tolist()], rng)


def wide(k: np.ndarray, g: np.ndarray, eta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``_lone_groups_wide`` on every trial, whatever its width: one call per distinct shape."""
    shapes, shape = np.unique(np.stack([g, eta], axis=1), axis=0, return_inverse=True)
    found = np.empty_like(k)
    for index, (groups, size) in enumerate(shapes.tolist()):
        on = shape.ravel() == index
        found[on] = _lone_groups_wide(k[on], groups, size, rng)
    return found


@pytest.mark.parametrize("g", range(1, 5))
@pytest.mark.parametrize("eta", range(1, 5))
def test_law_matches_enumeration(g, eta):
    law = lone_law(g, eta)
    for k in range(g * eta + 1):
        assert law[k].tolist() == enumerated_law(g, eta, k), (g, eta, k)


def test_law_sums_for_the_sampled_cases():
    assert binomial_row(9) == [math.comb(9, j) for j in range(10)]
    # both of numpy's methods run on some case with more than one group
    etas = {eta for _, g, eta in CASES if g > 1}
    assert min(etas) < MARGINALS_MIN_ETA <= max(etas)
    for k, g, eta in CASES:
        assert sum(lone_law(g, eta)[k]) == math.comb(g * eta, k)


def table_etas(g: int) -> range:
    """Every eta whose (g, eta) table fits ``LONE_TABLE_MAX_CELLS``."""
    return range(1, ((LONE_TABLE_MAX_CELLS // (g + 1) - 1) // g) + 1)


@pytest.mark.parametrize("g", range(2, 9))
def test_tables_match_the_law(g):
    etas = table_etas(g)
    assert (g + 1) * (g * etas[-1] + 1) <= LONE_TABLE_MAX_CELLS < (g + 1) * (g * etas[-1] + g + 1)
    for eta in etas:
        law = lone_law(g, eta)
        total = law.sum(axis=1)
        assert total.tolist() == binomial_row(g * eta)
        exact = (law.cumsum(axis=1) / total[:, np.newaxis]).astype(np.float64)
        # the builder itself, so the sweep does not fill the engine's cache
        cdf = _lone_cdf.__wrapped__(g, eta)
        assert cdf.shape == (g * eta + 1, g + 1)
        assert not cdf.flags.writeable
        gap = np.abs(cdf - exact).max()
        assert gap <= 1e-12, f"(g, eta) = {(g, eta)}: table off the law by {gap:.3g}"
        support = (law > 0).astype(bool)
        f = np.arange(g + 1)
        below = f < support.argmax(axis=1)[:, np.newaxis]
        top = f >= g - support[:, ::-1].argmax(axis=1)[:, np.newaxis]
        assert np.all(cdf[below] == 0.0), f"(g, eta) = {(g, eta)}: mass below the support"
        assert np.all(cdf[top] == 1.0), f"(g, eta) = {(g, eta)}: a row short of 1 at its top"
        assert np.all(np.diff(cdf, axis=1) >= 0.0), (g, eta)


def test_table_cap_boundary(monkeypatch):
    # no shape of g >= 2 has exactly 2^11 cells: (2, 340) has 2,043, the most
    # that fit, and (2, 341) has 2,049, one cell over
    assert 3 * (2 * 340 + 1) <= LONE_TABLE_MAX_CELLS == 3 * (2 * 341 + 1) - 1
    wide_calls = []

    def counted(*args):
        wide_calls.append(args[0].size)
        return _lone_groups_wide(*args)

    monkeypatch.setattr(harness, "_lone_groups_wide", counted)
    rng = np.random.default_rng(SEED)
    infected = np.array([0, 1, 2, 340, 680], dtype=np.int64)
    for eta, tabled in ((340, True), (341, False)):
        _lone_cdf.cache_clear()
        wide_calls.clear()
        found = _lone_groups_by_shape(infected, np.zeros(infected.size, dtype=np.int64),
                                      [(2, eta)], rng)
        assert found[[0, 1, 4]].tolist() == [0, 1, 0]
        assert _lone_cdf.cache_info().currsize == int(tabled), eta
        assert wide_calls == ([] if tabled else [infected.size]), eta


@pytest.mark.parametrize("sampler, draws", [(by_shape, DRAWS), (wide, WIDE_DRAWS)],
                         ids=["_lone_groups_by_shape", "_lone_groups_wide"])
def test_sampler_follows_the_law(sampler, draws):
    drawn = sample(sampler, draws)
    for (k, g, eta), found in zip(CASES, drawn):
        law = lone_law(g, eta)[k]
        prob = np.array([c / math.comb(g * eta, k) for c in law])
        observed = np.bincount(found, minlength=g + 1)
        assert observed.size == g + 1, f"{sampler.__name__} {(k, g, eta)}: F > g"
        assert not observed[prob == 0].any(), (
            f"{sampler.__name__} {(k, g, eta)}: impossible F values drawn "
            f"{np.flatnonzero(observed * (prob == 0)).tolist()}")
        result = chi_square(observed, prob, draws)
        if result is None:
            continue
        chi2, critical, dof = result
        assert chi2 <= critical, (
            f"{sampler.__name__} {(k, g, eta)}: chi-square {chi2:.1f} > "
            f"{critical:.1f} on {dof} dof; mean F {found.mean():.4f}, "
            f"exact {float(prob @ np.arange(g + 1)):.4f}")
