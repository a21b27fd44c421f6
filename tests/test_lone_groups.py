"""The lone-group samplers and CDF tables against the exact law of F, the number of lone groups.

K infected sit uniformly at random among the g*eta slots of g groups of
eta. F counts the groups holding exactly one. By inclusion-exclusion over
the groups forced to hold exactly one,

    P(F = f) = C(g,f) eta^f sum_i (-1)^i C(g-f,i) eta^i C(eta(g-f-i), K-f-i) / C(g eta, K),

computed here with Python integers. The formula is first checked against
enumeration of every K-subset for small shapes. Every ``_lone_cdf`` table
that fits ``LONE_TABLE_MAX_CELLS`` with g = 2..8 is then checked against it
entry by entry. The draws of the engine's sampler (``_lone_groups``) are
checked by a chi-square test at a fixed seed; its wide cases make one
multivariate hypergeometric draw per trial, with numpy's "count" method at
(12, 8, 40) and "marginals" at (12, 8, 41).
"""

import itertools
import math

import numpy as np
import pytest

from sirpool.harness import LONE_TABLE_MAX_CELLS, MARGINALS_MIN_ETA, _lone_cdf, _lone_groups
from tests.test_harness import CountingGenerator

SEED = 20261018
DRAWS = 100_000
CHUNK = 10_000  # draws per case in one call, which keeps a call's arrays small
Z_CRIT = 3.719  # standard normal upper quantile at p = 1e-4

# (K, g, eta): no groups (a round that falls back), empty and full groups,
# more than half full, one group, pairs, wide rounds that draw per trial,
# and eta on each side of ``MARGINALS_MIN_ETA``;
# in the engine's sampler, the g >= 2 shapes up to (20, 13, 2) read a table
# and the four after it are too wide for one
CASES = [
    (0, 0, 0),
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
    """(cases, draws) lone-group counts, all cases mixed trial by trial in every call.

    ``sampler`` runs as the engine calls it: once per distinct (g, eta), on
    that shape's trials.
    """
    rng = np.random.default_rng(SEED)
    k, g, eta = (np.tile(np.array(column, dtype=np.int64), CHUNK) for column in zip(*CASES))
    shapes, shape = np.unique(np.stack([g, eta], axis=1), axis=0, return_inverse=True)
    shape = shape.ravel()
    calls = []
    for _ in range(draws // CHUNK):
        found = np.empty_like(k)
        for index, (groups, size) in enumerate(shapes.tolist()):
            on = shape == index
            found[on] = sampler(k[on], groups, size, rng)
        calls.append(found.reshape(CHUNK, len(CASES)))
    return np.concatenate(calls).T


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


def test_table_cap_boundary():
    # no shape of g >= 2 has exactly 2^11 cells: (2, 340) has 2,043, the most
    # that fit, and (2, 341) has 2,049, one cell over
    assert 3 * (2 * 340 + 1) <= LONE_TABLE_MAX_CELLS == 3 * (2 * 341 + 1) - 1
    infected = np.array([0, 1, 2, 340, 680], dtype=np.int64)
    for eta, tabled in ((340, True), (341, False)):
        _lone_cdf.cache_clear()
        rng = CountingGenerator(SEED)
        found = _lone_groups(infected, 2, eta, rng)
        assert found[[0, 1, 4]].tolist() == [0, 1, 0]
        assert _lone_cdf.cache_info().currsize == int(tabled), eta
        # a table draws no group counts; a wider round draws them once per trial
        wide = rng.calls.get("multivariate_hypergeometric", 0)
        assert wide == (0 if tabled else infected.size), eta


def test_sampler_follows_the_law():
    drawn = sample(_lone_groups, DRAWS)
    for (k, g, eta), found in zip(CASES, drawn):
        law = lone_law(g, eta)[k]
        prob = np.array([c / math.comb(g * eta, k) for c in law])
        observed = np.bincount(found, minlength=g + 1)
        assert observed.size == g + 1, f"{(k, g, eta)}: F > g"
        assert not observed[prob == 0].any(), (
            f"{(k, g, eta)}: impossible F values drawn "
            f"{np.flatnonzero(observed * (prob == 0)).tolist()}")
        result = chi_square(observed, prob, DRAWS)
        if result is None:
            continue
        chi2, critical, dof = result
        assert chi2 <= critical, (
            f"{(k, g, eta)}: chi-square {chi2:.1f} > "
            f"{critical:.1f} on {dof} dof; mean F {found.mean():.4f}, "
            f"exact {float(prob @ np.arange(g + 1)):.4f}")
