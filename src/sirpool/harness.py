"""Monte Carlo experiment runner.

``run_experiment`` runs a count-level engine. Individuals are exchangeable
within each compartment and neither planner tells them apart beyond
"isolated or not", so the (susceptible, infected, isolated) counts form a
Markov chain of their own (lumpability; Kemeny & Snell, *Finite Markov
Chains*, 1960). Each step draws that chain exactly from a few binomial and
hypergeometric draws, vectorized over trials.

A round that spends its whole capacity on singleton tests (every
individual-testing round, and every hybrid round in which no trial pools)
finds Hypergeom(I, n - I, capacity). When the CDF table of that law for
every I in 0..n, (n+1)*(capacity+1) float64, has at most
``SINGLES_TABLE_MAX_CELLS`` = 2^17 cells (1 MiB), the draw is one uniform
per trial looked up in the table's row (inverse CDF; Devroye,
*Non-Uniform Random Variate Generation*, 1986, III.2), with a per-step
transient of about trials*(capacity+1) cells. The table is built once per
(n, capacity) and cached. Larger runs call numpy's sampler through
``_draw``. numpy's array call spends ~33 us on argument checks
(``hypergeometric``; ~8 us for ``binomial``), so a draw over at most
``SCALAR_DRAW_MAX`` = 8 trials calls the scalar sampler once per trial
instead, at ~1.5 us (~0.8 us) a call, with the same draws. Beyond the
table's reach an individual-testing step costs the same at any n: about
5,700 and 5,400 trials/s at n = 10^5 and 10^6 with 1000 trials, and 170
and 165 with 2 trials. At n = 10^3 the table gives about 14,700 and 275
trials/s.

A pooled step puts Hypergeom(I, S, g*eta) of each trial's infected into its
g ~ capacity / (2 ceil(log2 eta)) groups of eta and counts F, the groups
holding exactly one. A single group is lone when it holds one infected. A
round whose (g+1)*(g*eta+1) table of F's law fits ``LONE_TABLE_MAX_CELLS``
= 2^11 cells draws F with one uniform per trial from the cached
``_lone_cdf`` table, as the singles do. A wider round draws each trial's
group counts from numpy's multivariate hypergeometric sampler
(``_lone_groups_wide``), one call per trial at ~10 us plus O(g*eta) or O(g)
work. The leftover singles read the ``_singles_cdf`` table of their own
test count where it fits. When every table fits, as at n = 1000 and
capacity 30, a pooled step makes one hypergeometric draw, the in-group
one. At a fixed capacity/n the hybrid's cost grows with n, since a wide
round's groups grow with the capacity: about 5,900, 210 and 39 trials/s at
n = 10^3, 10^5 and 10^6 (1000, 1000 and 300 trials, capacity/n = 0.03,
n*q = 0.01, p = 0.2, horizon 500; one CPU of a 2-CPU VM, the mean of two
passes whose runs differed by up to ~15%).

It aggregates per-step means and variances once per block of steps, not
every step: each step copies every trial's counts into a (3, block, trials)
int64 buffer, block = min(horizon + 1, max(1, ``AGGREGATE_BLOCK_CELLS`` //
trials)) with ``AGGREGATE_BLOCK_CELLS`` = 2^15, and ``_aggregate`` sums and
squares a full block in one pass. The copy costs ~2-4 us a step, where
summing and squaring every step cost ~9-20 us (2 to 1000 trials). It also
extracts per-trial control times and attaches the matching
expected-trajectory overlay.

``run_trial`` is the per-individual engine: it moves a status array
through ``spread_phase`` and ``run_round``, so it runs the real codec. It is
the reference the count engine is tested against.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sir import POLICY_SAFFRON_HYBRID, SimConfig, init_population, spread_phase
from .policies import run_round, saffron_layout
from .theory import TheoryCurve, TheoryParams, mean_trajectory

# Singleton tests draw from the ``_singles_cdf`` table when its
# (n+1)*(tests+1) float64 cells fit in this many (1 MiB); larger runs keep
# numpy's hypergeometric sampler, whose fixed cost per call the table avoids.
SINGLES_TABLE_MAX_CELLS = 2 ** 17

# A pooled round of g >= 2 groups of eta draws its lone-group count from the
# ``_lone_cdf`` table when its (g+1)*(g*eta+1) float64 cells fit in this many
# (16 KiB); wider rounds run ``_lone_groups_wide``, one multivariate
# hypergeometric draw per trial. The cap keeps g*eta <= 681, so every count of
# the table, at most C(g*eta, K), fits a float64 unscaled.
LONE_TABLE_MAX_CELLS = 2 ** 11

# ``_lone_groups_wide`` draws with numpy's "marginals" method, one univariate
# hypergeometric per group, from this eta up, and below it with "count", a
# partial shuffle of all g*eta slots. On one CPU, "count" took ~20 us against
# ~90 us at (K, g, eta) = (600, 500, 8); the two tied near eta = 40 at
# g = 250 and near eta = 53 at g = 2,500. Replaying the wide rounds of real
# runs at n = 10^5 and 10^6, every threshold from 37 to 57 came within ~8%.
MARGINALS_MIN_ETA = 41

# A draw over at most this many trials calls numpy's sampler once per trial
# with Python scalars (``_draw``): the array path's argument checks cost more
# than that many scalar calls.
SCALAR_DRAW_MAX = 8

# ``run_experiment`` copies each step's counts into a (3, block, trials) int64
# buffer and aggregates a block of steps at once (``_aggregate``); a block
# holds at most this many cells per compartment (256 KiB), or one step when
# trials exceed it.
AGGREGATE_BLOCK_CELLS = 2 ** 15


@dataclass
class TrajectoryStats:
    """Aggregated Monte Carlo trajectories (arrays indexed 0..horizon).

    ``control_time[i]`` is trial i's first step with no circulating
    infections, capped at the horizon; ``control_censored[i]`` flags trials
    that never got there. ``theory`` is the expected trajectory for the same
    parameters and policy.
    """

    config: SimConfig
    mean_susceptible: np.ndarray
    mean_infected: np.ndarray
    mean_isolated: np.ndarray
    var_susceptible: np.ndarray
    var_infected: np.ndarray
    var_isolated: np.ndarray
    control_time: np.ndarray
    control_censored: np.ndarray
    theory: TheoryCurve


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, reproducible stream for one ``run_trial`` trial."""
    return np.random.default_rng([seed, trial])


def run_trial(cfg: SimConfig, rng: np.random.Generator, curve: TheoryCurve) -> np.ndarray:
    """One per-individual trajectory; returns a (3, horizon+1) array of per-step counts.

    This is the reference engine the count-level ``run_experiment`` is
    tested against; the experiment runner does not call it. Counts are
    recorded after the testing phase of each step (step 0 is the freshly
    drawn population). Once no circulating infections remain nothing can
    change, so the remaining steps are filled with the frozen counts.
    """
    hybrid = cfg.policy == POLICY_SAFFRON_HYBRID
    state = init_population(cfg, rng)
    counts = np.empty((3, cfg.horizon + 1), dtype=np.int64)
    counts[:, 0] = (state.susceptible, state.infected, state.isolated)
    for t in range(1, cfg.horizon + 1):
        if state.infected == 0:
            counts[:, t:] = counts[:, t - 1:t]
            break
        spread_phase(state, cfg.q, rng)
        expected = curve.pre_test_infected[t] if hybrid else None
        run_round(state, cfg.policy, cfg.capacity, rng, expected)
        counts[:, t] = (state.susceptible, state.infected, state.isolated)
    return counts


@functools.lru_cache(maxsize=256)
def _lone_cdf(groups: int, eta: int) -> np.ndarray:
    """CDF table of F, the lone groups among ``groups`` groups of ``eta``, one row per K.

    K = 0..groups*eta infected sit uniformly at random among the groups*eta
    slots, and F counts the groups holding exactly one. Row K holds
    P(F <= f) for f = 0..groups, from the count of K-subsets with F = f,

        C(g, f) eta^f [x^(K-f)] A(x)^(g-f),  A(x) = (1 + x)^eta - eta x:

    f chosen groups hold one infected each, in eta ways each, and A counts
    the ways a group holds any number but one. A's coefficients are
    nonnegative, so its powers come from float convolution without
    cancellation, and a count that is 0 is exactly 0.0. Each row's running
    sum is therefore exactly 0.0 below its support and, divided by its last
    entry, C(g*eta, K) up to rounding, exactly 1.0 from its top. Callers keep
    the table within ``LONE_TABLE_MAX_CELLS`` cells, where every count fits a
    float64 unscaled; a table takes 40-210 us to build. The cache holds at
    most 256 tables of at most 16 KiB, 4 MiB in the worst case; hybrid runs
    at n=1000, capacity 30 read ~125 distinct ones. The table is read-only
    because the cache hands the same array to every caller.
    """
    # C(eta, j) by the multiplicative recurrence, exact in Python integers
    a = np.array(list(itertools.accumulate(range(eta), lambda c, j: c * (eta - j) // (j + 1),
                                           initial=1)), dtype=np.float64)
    a[1] = 0.0
    counts = np.zeros((groups * eta + 1, groups + 1))
    power = np.ones(1)  # A(x)^(groups - f)
    for f in range(groups, -1, -1):
        counts[f:f + power.size, f] = math.comb(groups, f) * eta ** f * power
        if f:
            power = np.convolve(power, a)
    cdf = np.cumsum(counts, axis=1)
    cdf /= cdf[:, -1:]
    cdf.flags.writeable = False
    return cdf


def _lone_groups_wide(infected: np.ndarray, groups: int, eta: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Per trial, the groups holding exactly one of ``infected`` members, among ``groups`` of ``eta``.

    Trial j's K = infected[j] members sit uniformly at random among the
    groups * eta slots, so the groups' member counts follow the multivariate
    hypergeometric law of K draws from ``groups`` colours of ``eta`` each.
    numpy draws one such vector per trial, holding one trial's counts at a
    time, with the method that is faster at this eta
    (``MARGINALS_MIN_ETA``).
    """
    slots = np.full(groups, eta)
    method = "marginals" if eta >= MARGINALS_MIN_ETA else "count"
    return np.fromiter((np.count_nonzero(rng.multivariate_hypergeometric(slots, k, method=method) == 1)
                        for k in infected.tolist()), dtype=np.int64, count=infected.size)


def _lone_groups_by_shape(infected: np.ndarray, shape: np.ndarray, shapes: list[tuple[int, int]],
                          rng: np.random.Generator) -> np.ndarray:
    """Per trial, the groups holding exactly one of ``infected`` members.

    Trial j's round has ``shapes[shape[j]]`` = (groups, eta), and its
    infected[j] members sit uniformly at random among its group slots. A
    round of one group finds one exactly when it holds one infected. A round
    whose ``_lone_cdf`` table fits ``LONE_TABLE_MAX_CELLS`` inverts one
    uniform per trial through the table's row. A wider round draws each
    trial's group counts (``_lone_groups_wide``). A round of no groups finds
    none.
    """
    found = np.zeros_like(infected)
    tabled = [groups > 1 and (groups + 1) * (groups * eta + 1) <= LONE_TABLE_MAX_CELLS
              for groups, eta in shapes]
    uniform = rng.random(infected.size) if any(tabled) else None
    for k, (groups, eta) in enumerate(shapes):
        if groups:
            on = shape == k
            if groups == 1:
                found[on] = infected[on] == 1
            elif tabled[k]:
                found[on] = _invert(_lone_cdf(groups, eta), infected[on], uniform[on])
            else:
                found[on] = _lone_groups_wide(infected[on], groups, eta, rng)
    return found


@functools.lru_cache(maxsize=16)
def _singles_cdf(n: int, tests: int) -> np.ndarray:
    """CDF table of Hypergeom(good, n - good, tests), one row per good in 0..n.

    Row ``good`` holds P(X <= k) for k = 0..tests, from log-factorials.
    The pmf is exactly 0.0 off the support, so each row's running sum is
    exactly 0.0 below its floor, max(0, tests - (n - good)), and, divided
    by its last entry, exactly 1.0 from its top, min(good, tests):
    rounding cannot draw a count outside the support. A run reads the
    capacity's table and, under the hybrid, one per distinct leftover (six at
    n=1000, capacity 30). The cache holds at most 16 tables of at most
    ``SINGLES_TABLE_MAX_CELLS`` cells, 16 MiB in the worst case. The table is
    read-only because the cache hands the same array to every caller.
    """
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    good = np.arange(n + 1)[:, np.newaxis]
    k = np.arange(tests + 1)
    bad_k = tests - k
    possible = (k <= good) & (bad_k <= n - good)
    log_pmf = (log_fact[good] - log_fact[k] - log_fact[np.where(possible, good - k, 0)]
               + log_fact[n - good] - log_fact[bad_k]
               - log_fact[np.where(possible, n - good - bad_k, 0)]
               - log_fact[n] + log_fact[tests] + log_fact[n - tests])
    cdf = np.cumsum(np.exp(np.where(possible, log_pmf, -np.inf)), axis=1)
    cdf /= cdf[:, -1:]
    cdf.flags.writeable = False
    return cdf


def _invert(cdf: np.ndarray, rows: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: per trial, the number of entries of its row at or below its uniform."""
    return (cdf[rows] <= uniform[:, np.newaxis]).sum(axis=1)


def _draw(sampler, *args) -> np.ndarray:
    """``sampler(*args)`` as int64, one numpy call per element when the arrays are short.

    ``sampler`` is a bound ``Generator`` method; the first argument is an
    array, and the others are arrays of its length or scalars. Over at most
    ``SCALAR_DRAW_MAX`` elements the sampler runs once per element, in order,
    with Python scalars. numpy's array path runs the same C routine element by
    element, so the draws and the generator's state after them are the same,
    and each scalar call still checks its arguments; only the array path's
    fixed checks are skipped.
    """
    size = args[0].size
    if size > SCALAR_DRAW_MAX:
        return sampler(*args)
    columns = [a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a) for a in args]
    return np.fromiter(map(sampler, *columns), dtype=np.int64, count=size)


def _full_singles(cfg: SimConfig, infected: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Positives among ``cfg.capacity`` singleton tests drawn from all n, per trial.

    The law is Hypergeom(infected, n - infected, capacity). When the
    ``_singles_cdf`` table has at most ``SINGLES_TABLE_MAX_CELLS`` cells, one
    uniform per trial is inverted through its row.
    """
    if (cfg.n + 1) * (cfg.capacity + 1) > SINGLES_TABLE_MAX_CELLS:
        return _draw(rng.hypergeometric, infected, cfg.n - infected, cfg.capacity)
    return _invert(_singles_cdf(cfg.n, cfg.capacity), infected, rng.random(infected.size))


def _leftover_singles(n: int, good: np.ndarray, layout: np.ndarray, tests: list[int],
                      rng: np.random.Generator) -> np.ndarray:
    """Positives among ``tests[layout[j]]`` singleton tests drawn from all n, per trial j.

    The law is Hypergeom(good, n - good, tests). Test counts whose
    ``_singles_cdf`` table fits ``SINGLES_TABLE_MAX_CELLS`` invert one
    uniform per trial through the table's row; the other trials make one
    ``_draw``. Zero tests find nothing.
    """
    found = np.zeros_like(good)
    tabled = [0 < count and (n + 1) * (count + 1) <= SINGLES_TABLE_MAX_CELLS for count in tests]
    if any(tabled):
        uniform = rng.random(good.size)
        for k, count in enumerate(tests):
            if tabled[k]:
                on = layout == k
                found[on] = _invert(_singles_cdf(n, count), good[on], uniform[on])
    sampled = [0 < count and not table for count, table in zip(tests, tabled)]
    if any(sampled):
        on = np.array(sampled)[layout]
        found[on] = _draw(rng.hypergeometric, good[on], n - good[on], np.array(tests)[layout[on]])
    return found


def _layout_keys(pools: np.ndarray, expected: float, n: int) -> np.ndarray:
    """Per pool of at most ``n``, a key that fixes its ``saffron_layout`` at an estimate >= 1.

    The layout reads the pool only through eta = pool // expected and
    pool // eta, the most groups the pool can supply, so the key is the pair
    of them, eta * (n + 1) + pool // eta < (n + 1)^2. Pools below
    2 * expected cannot pool; through eta = 1 each keeps a key of its own.
    """
    eta = np.maximum(pools // expected, 1).astype(np.int64)
    return eta * (n + 1) + pools // eta


def _detections(cfg: SimConfig, expected: float, counts: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Infections one testing round identifies, per trial, from post-spread counts.

    ``expected`` is the planner's estimate of the infected count, which only
    the hybrid policy reads. Singleton tests are drawn from all n, isolated
    individuals included. Under the hybrid policy, ``saffron_layout`` shapes
    each trial's round from its non-isolated pool; it runs once per distinct
    ``_layout_keys`` key of the step, on one pool holding that key. A pooled
    round puts Hypergeom(I, S, groups*eta) infected into its groups, in one
    ``_draw`` for all trials, and finds the F of them that land alone in a
    group (``_lone_groups_by_shape``); its leftover singletons find
    Hypergeom(I - F, n - I + F, leftover) of the others
    (``_leftover_singles``). Both work per distinct layout of the step, not
    per trial. When every table fits, that in-group draw is the round's only
    hypergeometric draw. A round in which no trial pools spends the full
    capacity on singletons (``_full_singles``).
    """
    susceptible, infected, isolated = counts
    # saffron_group_size falls back for every pool while the estimate is below 1
    if cfg.policy == POLICY_SAFFRON_HYBRID and expected >= 1.0:
        pools = cfg.n - isolated
        _, first, which = np.unique(_layout_keys(pools, expected, cfg.n), return_index=True,
                                    return_inverse=True)
        # the step's distinct layouts, and each key's index among them
        index = {}
        of_key = [index.setdefault(saffron_layout(pool, expected, cfg.capacity)
                                   or (0, 0, cfg.capacity), len(index))
                  for pool in pools[first].tolist()]
        if any(groups for _, groups, _ in index):
            layout = np.array(of_key)[which]
            eta, groups, _ = np.array(list(index), dtype=np.int64)[layout].T
            pooled = groups > 0
            in_groups = np.zeros_like(infected)
            in_groups[pooled] = _draw(rng.hypergeometric, infected[pooled], susceptible[pooled],
                                      groups[pooled] * eta[pooled])
            found = _lone_groups_by_shape(in_groups, layout,
                                          [(groups, eta) for eta, groups, _ in index], rng)
            return found + _leftover_singles(cfg.n, infected - found, layout,
                                             [leftover for _, _, leftover in index], rng)
    return _full_singles(cfg, infected, rng)


def _aggregate(block: np.ndarray, total: np.ndarray, square_dev: np.ndarray) -> None:
    """Sum a (3, steps, trials) ``block`` of counts over its trials, step by step.

    ``total`` gets each compartment's sum and ``square_dev`` the sum of its
    squared deviations from floor(mean), both (3, steps). The deviations
    are exact integers, so the squares add up exactly below 2^53, in any
    order.
    """
    shift = block.sum(axis=2, out=total) // block.shape[2]
    dev = np.subtract(block, shift[:, :, np.newaxis], dtype=np.float64)
    np.einsum("ijk,ijk->ij", dev, dev, out=square_dev)


def run_experiment(cfg: SimConfig) -> TrajectoryStats:
    """Run cfg.trials trials of the count-level chain and aggregate their trajectories.

    Deterministic for a fixed config: one generator seeded with cfg.seed
    draws every trial's steps together, so a trial's path also depends on
    cfg.trials. Each step, for the trials still holding infections, spread
    is Binomial(S, 1-(1-q)^I) and the round's detections come from
    ``_detections``; the initial infected count is Binomial(n, p). Counts
    are recorded after the testing phase of each step (step 0 is the freshly
    drawn population). A trial with no circulating infections never changes
    again, so it stops drawing, and once every trial has, the remaining
    steps are filled. Each step's counts of all trials wait in a
    (3, block, trials) buffer, and a full block, or the steps held when the
    loop ends, is aggregated at once (``_aggregate``); block is
    min(horizon + 1, max(1, ``AGGREGATE_BLOCK_CELLS`` // trials)). Variances
    are summed about each step's floor(mean), from deviations that are
    exact integers, so trials that all hold one count give exactly 0 at any
    n, and the sums do not depend on the block length while they stay below
    2^53. Memory is O(trials + horizon), plus the buffer and its float64
    deviations, together at most 1.5 MiB or, past 2^15 trials, 48 bytes per
    trial, plus a per-step transient of about trials*(capacity+1) float64
    when the singleton draws use a ``_singles_cdf`` table, and, in a pooled
    round, trials*(g+1) float64 for a ``_lone_cdf`` lookup or, in a round too
    wide for the table, one trial's g group counts at a time. The cached
    tables add at most 16 MiB of singles tables and 4 MiB of lone-group
    tables. A binomial or hypergeometric draw over at most
    ``SCALAR_DRAW_MAX`` = 8 live trials calls numpy's scalar sampler once per
    trial (``_draw``), with the same draws as its array call, whose fixed
    argument checks outweigh that many scalar calls: on one CPU the array
    call broke even with the scalar loop at about 22 elements for
    ``hypergeometric`` (~33 us against ~1.5 us a call) and 8-12 for
    ``binomial`` (~9 us against ~0.8 us).
    """
    cfg.validate()
    curve = mean_trajectory(TheoryParams.from_config(cfg), cfg.policy, cfg.horizon)
    rng = np.random.default_rng(cfg.seed)
    log_miss = math.log1p(-cfg.q) if cfg.q < 1.0 else -math.inf
    steps = cfg.horizon + 1
    total = np.zeros((3, steps), dtype=np.int64)
    square_dev = np.zeros((3, steps))
    block = min(steps, max(1, AGGREGATE_BLOCK_CELLS // cfg.trials))
    # the counts of steps start..t, aggregated when the block is full or the loop ends
    buffer = np.empty((3, block, cfg.trials), dtype=np.int64)
    start = 0
    control_time = np.full(cfg.trials, cfg.horizon, dtype=np.int64)
    censored = np.ones(cfg.trials, dtype=bool)

    infected = rng.binomial(cfg.n, cfg.p, size=cfg.trials)
    # every trial's counts, live trials first in their original order; a
    # cleared trial's column keeps its final counts
    latest = np.stack([cfg.n - infected, infected, np.zeros_like(infected)])
    trial = np.arange(cfg.trials)
    live = cfg.trials
    for t in range(steps):
        if t - start == block:
            _aggregate(buffer, total[:, start:t], square_dev[:, start:t])
            start = t
        counts = latest[:, :live]
        if t:
            new = _draw(rng.binomial, counts[0], -np.expm1(counts[1] * log_miss))
            counts[0] -= new
            counts[1] += new
            found = _detections(cfg, curve.pre_test_infected[t], counts, rng)
            counts[1] -= found
            counts[2] += found
        buffer[:, t - start] = latest
        if not counts[1].all():
            extinct = counts[1] == 0
            cleared = trial[:live][extinct]
            control_time[cleared] = t
            censored[cleared] = False
            order = np.argsort(extinct, kind="stable")
            latest[:, :live] = counts[:, order]
            trial[:live] = trial[:live][order]
            live -= cleared.size
            if not live:
                break
    _aggregate(buffer[:, :t + 1 - start], total[:, start:t + 1], square_dev[:, start:t + 1])
    total[:, t + 1:] = total[:, t:t + 1]
    square_dev[:, t + 1:] = square_dev[:, t:t + 1]
    means = total / cfg.trials
    if cfg.trials > 1:
        # deviations from floor(mean) sum to total mod trials, so this
        # difference cancels nothing larger than trials
        dev_sum = total % cfg.trials
        variances = np.maximum(square_dev - dev_sum ** 2 / cfg.trials, 0.0) / (cfg.trials - 1)
    else:
        variances = np.zeros_like(means)
    return TrajectoryStats(
        config=cfg,
        mean_susceptible=means[0], mean_infected=means[1], mean_isolated=means[2],
        var_susceptible=variances[0], var_infected=variances[1], var_isolated=variances[2],
        control_time=control_time, control_censored=censored, theory=curve,
    )


def empirical_epsilon_time(stats: TrajectoryStats, epsilon: float) -> int | None:
    """Smallest step with mean infected count <= epsilon, or None if never reached."""
    hits = np.flatnonzero(stats.mean_infected <= epsilon)
    return int(hits[0]) if hits.size else None
