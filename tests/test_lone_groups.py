"""Both lone-group samplers against the exact law of F, the number of lone groups.

K infected sit uniformly at random among the g*eta slots of g groups of
eta. F counts the groups holding exactly one. By inclusion-exclusion over
the groups forced to hold exactly one,

    P(F = f) = C(g,f) eta^f sum_i (-1)^i C(g-f,i) eta^i C(eta(g-f-i), K-f-i) / C(g eta, K),

computed here with Python integers. The formula is first checked against
enumeration of every K-subset for small shapes, then each sampler's draws
are checked against it by a chi-square test at a fixed seed.
"""

import itertools
import math

import numpy as np
import pytest

from sirpool.harness import _lone_groups, _lone_groups_flat

SEED = 20261018
DRAWS = 100_000
CHUNK = 10_000  # draws per case in one call, which keeps a call's arrays small
Z_CRIT = 3.719  # standard normal upper quantile at p = 1e-4

# (K, g, eta): empty and full groups, more than half full, one group, pairs,
# and wide rounds like those the flat sampler serves
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
]


def lone_law(g: int, eta: int, k: int) -> list[int]:
    """Number of K-subsets of the g*eta slots with f lone groups, for f = 0..g."""
    counts = []
    for f in range(g + 1):
        total = sum((-1) ** i * math.comb(g - f, i) * eta ** i
                    * math.comb(eta * (g - f - i), k - f - i)
                    for i in range(g - f + 1) if k - f - i >= 0)
        counts.append(math.comb(g, f) * eta ** f * total)
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


def sample(sampler) -> np.ndarray:
    """(cases, DRAWS) lone-group counts, every call mixing all cases trial by trial."""
    rng = np.random.default_rng(SEED)
    k, g, eta = (np.tile(np.array(column, dtype=np.int64), CHUNK) for column in zip(*CASES))
    calls = [sampler(k, g, eta, rng).reshape(CHUNK, len(CASES)) for _ in range(DRAWS // CHUNK)]
    return np.concatenate(calls).T


@pytest.mark.parametrize("g", range(1, 5))
@pytest.mark.parametrize("eta", range(1, 5))
def test_law_matches_enumeration(g, eta):
    for k in range(g * eta + 1):
        assert lone_law(g, eta, k) == enumerated_law(g, eta, k), (g, eta, k)


def test_law_sums_for_the_sampled_cases():
    for k, g, eta in CASES:
        assert sum(lone_law(g, eta, k)) == math.comb(g * eta, k)


@pytest.mark.parametrize("sampler", [_lone_groups, _lone_groups_flat])
def test_sampler_follows_the_law(sampler):
    drawn = sample(sampler)
    for (k, g, eta), found in zip(CASES, drawn):
        law = lone_law(g, eta, k)
        prob = np.array([c / math.comb(g * eta, k) for c in law])
        observed = np.bincount(found, minlength=g + 1)
        assert observed.size == g + 1, f"{sampler.__name__} {(k, g, eta)}: F > g"
        assert not observed[prob == 0].any(), (
            f"{sampler.__name__} {(k, g, eta)}: impossible F values drawn "
            f"{np.flatnonzero(observed * (prob == 0)).tolist()}")
        result = chi_square(observed, prob, DRAWS)
        if result is None:
            continue
        chi2, critical, dof = result
        assert chi2 <= critical, (
            f"{sampler.__name__} {(k, g, eta)}: chi-square {chi2:.1f} > "
            f"{critical:.1f} on {dof} dof; mean F {found.mean():.4f}, "
            f"exact {float(prob @ np.arange(g + 1)):.4f}")
