"""A pooled round's detections (``harness._detections``) against their exact law at fixed states.

Given post-spread counts (S, I, R) and the step's pooling estimate, a
pooled round of g groups of eta with ``leftover`` singleton tests finds
D = F + singles, where

- K ~ Hypergeom(I, S, g*eta) infected land in the groups,
- F given K, the groups holding exactly one, follows ``lone_law(g, eta)[K]``,
- the singles find Hypergeom(I - F, n - I + F, leftover).

The law of D is built from exact pmfs and compared by the chi-square test of
``tests/test_lone_groups.py`` with counts from one ``_detections`` call over
``COPIES`` copies of one state, at a fixed seed, for a table-sized round with
leftover tests and one without, one group, two groups that fill the pool,
and a fallback to singletons. One more call mixes two states of different
layouts in shuffled trial order, so a round's trials must be read and
written through its own indices. Every chi-square test alarms with
probability about 1e-4 under the law (``Z_CRIT``), so the module's 8 tests
alarm together with probability at most 8e-4.

Broken copies of ``_detections`` were run against these states. Drawing
the singles from I in place of I - F fails the one group of 500 (chi-square
31 against 19.3) and the two groups of 20, where F = I = 2 is likely and
D > I then shows; it passes the other four. Drawing K against n - I in
place of S fails the three grouped states with R > 0, and against the pool
S + I the two states whose groups fill the pool. Dropping F fails every
state with groups, dropping the singles every state with leftover tests,
and reading a round's in-group counts or infected by position in place of
its indices fails the mixed call. A scalar round (``_scalar_step``) makes
the same draws, which ``tests/test_scalar_draws.py`` checks bit for bit.
"""

import math

import numpy as np
import pytest

from sirpool import SimConfig
from sirpool.harness import _detections
from sirpool.theory import saffron_layout
from tests.test_lone_groups import chi_square, lone_law
from tests.test_singles_table import exact_pmf

SEED = 20261021
COPIES = 20_000
CFG = SimConfig(n=1000, capacity=30, policy="saffron-hybrid")

# (estimate, (S, I, R)) and the layout (eta, groups, leftover) its pool gets
STATES = [
    ((100.0, (910, 90, 0)), (10, 3, 6)),
    ((100.0, (700, 100, 200)), (8, 5, 0)),
    ((2.0, (997, 3, 0)), (500, 1, 12)),
    ((2.0, (96, 4, 900)), (50, 2, 6)),
    ((2.0, (38, 2, 960)), (20, 2, 10)),
    ((2.0, (1, 2, 997)), (0, 0, 30)),
]


def detections_law(n: int, layout: tuple[int, int, int], susceptible: int,
                   infected: int) -> np.ndarray:
    """P(D = d) for d = 0..I, from the exact laws of K, F given K, and the singles given F."""
    eta, groups, leftover = layout
    slots = eta * groups
    lone = lone_law(groups, eta)
    law = np.zeros(infected + 1)
    for k in range(min(infected, slots) + 1):
        p_k = (math.comb(infected, k) * math.comb(susceptible, slots - k)
               / math.comb(susceptible + infected, slots))
        for f, ways in enumerate(lone[k].tolist()):
            if ways:
                singles = exact_pmf(n, leftover, infected - f)[:infected - f + 1]
                law[f:f + singles.size] += p_k * ways / math.comb(slots, k) * singles
    return law


def check(found: np.ndarray, layout: tuple[int, int, int], susceptible: int,
          infected: int) -> None:
    prob = detections_law(CFG.n, layout, susceptible, infected)
    assert abs(prob.sum() - 1.0) < 1e-12
    observed = np.bincount(found, minlength=infected + 1)
    state = (layout, susceptible, infected)
    assert observed.size == infected + 1, f"{state}: more detections than infected"
    assert not observed[prob == 0].any(), (
        f"{state}: impossible counts drawn {np.flatnonzero(observed * (prob == 0)).tolist()}")
    chi2, critical, dof = chi_square(observed, prob, found.size)
    assert chi2 <= critical, (
        f"{state}: chi-square {chi2:.1f} > {critical:.1f} on {dof} dof; "
        f"mean {found.mean():.4f}, exact {float(prob @ np.arange(infected + 1)):.4f}")


def test_states_get_their_layouts():
    for (expected, (s, i, r)), layout in STATES:
        assert s + i + r == CFG.n
        assert saffron_layout(s + i, expected, CFG.capacity) == layout


@pytest.mark.parametrize("state, layout", STATES, ids=[str(layout) for _, layout in STATES])
def test_one_state_follows_the_law(state, layout):
    expected, (s, i, r) = state
    counts = np.repeat(np.array([[s], [i], [r]], dtype=np.int64), COPIES, axis=1)
    found = _detections(CFG, expected, counts, np.random.default_rng(SEED))
    check(found, layout, s, i)


def test_mixed_states_follow_their_laws():
    # the two groups of 20 and the one group of 500, in shuffled trial order
    (expected, first), first_layout = STATES[4]
    (other, second), second_layout = STATES[2]
    assert expected == other
    rng = np.random.default_rng(SEED)
    which = rng.permutation(np.arange(COPIES) % 2)
    counts = np.where(which == 0, np.array(first)[:, np.newaxis],
                      np.array(second)[:, np.newaxis]).astype(np.int64)
    found = _detections(CFG, expected, counts, rng)
    check(found[which == 0], first_layout, *first[:2])
    check(found[which == 1], second_layout, *second[:2])
