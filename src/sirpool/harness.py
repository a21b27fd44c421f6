"""Monte Carlo experiment runner.

``run_experiment`` runs a count-level engine. Individuals are exchangeable
within each compartment and neither planner tells them apart beyond
"isolated or not", so the (susceptible, infected, isolated) counts form a
Markov chain of their own (lumpability; Kemeny & Snell, *Finite Markov
Chains*, 1960). Each step draws that chain exactly from a few binomial and
hypergeometric draws, vectorized over trials.

A testing round has one ``theory.saffron_layout`` per trial: g groups of
eta under binary codes, and the leftover tests as singletons drawn from
all n. A run reads each step's round from ``theory.round_plan``: the
estimate a step pools from, or None, a step of individual-testing rounds.
A pooled step draws each trial's infected in its groups, then F, the
groups holding exactly one infected (``_lone_groups``), and the positives
among the leftover singletons (``_singles``), in the order ``_rounds``
states. A step at None draws each trial's positives among the capacity's
singletons through ``_singles`` too. Each sampler serves one shape. It
inverts one uniform per trial through a cached CDF table of its law
(inverse CDF; Devroye, *Non-Uniform Random Variate Generation*, 1986,
III.2) when the table fits its cap, and otherwise calls numpy's sampler:
the multivariate hypergeometric one per trial for F, the hypergeometric
one for the singles. Each table lookup draws its own uniforms, one
``random`` call over its trials, in both steps. An array step gathers
table rows with ``take``.

Late in a run, or in a run of few trials, those array calls' fixed cost
outweighs their work. A cleared trial never comes back, so from the first
step with at most ``SCALAR_STEP_MAX`` live trials to the end of the run,
every step runs on Python integers (``_scalar_step``), in one phase that
keeps the live counts in lists: each step makes the same numpy draws in
the same order, one trial at a time, through the same samplers, so its
counts and the generator's state after it are the array step's, bit for
bit.

The run aggregates per-step means and variances once per block of steps
(``_aggregate``), extracts per-trial control times and attaches the
matching expected-trajectory overlay.

``run_trial`` is the per-individual engine: it moves a status array
through ``spread_phase`` and ``run_round``, so it runs the real codec. It is
the reference the count engine is tested against.
"""

from __future__ import annotations

import bisect
import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .sir import SimConfig, init_population, spread_phase
from .policies import run_round
from .theory import (TheoryCurve, TheoryParams, mean_trajectory, round_plan, saffron_layout,
                     saffron_layout_keys)

# Singleton tests draw from the ``_singles_cdf`` table when its
# (n+1)*(tests+1) float64 cells fit in this many (1 MiB); larger runs keep
# numpy's hypergeometric sampler, whose fixed cost per call the table avoids.
# A run's one spread table (``_spread_table``, sized in ``run_experiment``)
# holds at most this many entries.
SINGLES_TABLE_MAX_CELLS = 2 ** 17

# A pooled round of g >= 2 groups of eta draws its lone-group count from the
# ``_lone_cdf`` table when its (g+1)*(g*eta+1) float64 cells fit in this many
# (16 KiB); wider rounds make one multivariate hypergeometric draw per trial
# (``_lone_groups``). The cap keeps g*eta <= 681, so every count of the
# table, at most C(g*eta, K), fits a float64 unscaled.
LONE_TABLE_MAX_CELLS = 2 ** 11

# A round too wide for a table draws with numpy's "marginals" method, one
# univariate hypergeometric per group, from this eta up, and below it with
# "count", a partial shuffle of all g*eta slots (``_lone_groups``). "count"
# does O(g*eta) work and "marginals" O(g) at a higher cost per group, so the
# threshold sits where the two cross on the wide rounds of real runs; its
# last timing is CHANGES.md's entry "Wide pooled rounds draw each trial's
# group counts from numpy's multivariate hypergeometric".
MARGINALS_MIN_ETA = 41

# From the first step with at most this many live trials, every step of the
# run runs on Python integers (``_scalar_step``), with the array step's
# draws: live trials never rise, so once scalar, always scalar. It trades
# the array calls' fixed cost per step against the scalar step's cost per
# live trial, which grows with the live trials; the value sits just past
# where the cheapest array step, individual testing at n = 1000 through the
# singles table, starts to beat the scalar one, while pooled steps and both
# policies at n = 10^5 still gain. Its last timing is item (4) of
# CHANGES.md's entry "one uniform call per table-only pooled array step".
SCALAR_STEP_MAX = 11

# ``run_experiment`` copies each step's counts into a (3, block, trials) int64
# buffer and aggregates a block of steps at once (``_aggregate``), because
# the copy costs less than summing and squaring one step; a block holds at
# most this many cells per compartment (256 KiB), or one step when trials
# exceed it.
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


def run_trial(cfg: SimConfig, rng: np.random.Generator, plan: list[float | None]) -> np.ndarray:
    """One per-individual trajectory; returns a (3, horizon+1) array of per-step counts.

    This is the reference engine the count-level ``run_experiment`` is
    tested against; the experiment runner does not call it. ``plan`` is the
    run's ``theory.round_plan``, and step t's round is planned from
    ``plan[t]`` alone, whatever ``cfg.policy`` says. Counts are recorded
    after the testing phase of each step (step 0 is the freshly drawn
    population). Once no circulating infections remain nothing can change,
    so the remaining steps are filled with the frozen counts.
    """
    state = init_population(cfg, rng)
    counts = np.empty((3, cfg.horizon + 1), dtype=np.int64)
    counts[:, 0] = (state.susceptible, state.infected, state.isolated)
    for t in range(1, cfg.horizon + 1):
        if state.infected == 0:
            counts[:, t:] = counts[:, t - 1:t]
            break
        spread_phase(state, cfg.q, rng)
        run_round(state, cfg.capacity, rng, plan[t])
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
    float64 unscaled. The cache holds at most 256 tables of at most 16 KiB,
    4 MiB in the worst case. The table is read-only because the cache hands
    the same array to every caller.
    """
    a = np.array([math.comb(eta, j) for j in range(eta + 1)], dtype=np.float64)
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


def _lone_groups(infected: np.ndarray | list[int], groups: int, eta: int,
                 rng: np.random.Generator) -> np.ndarray | list[int]:
    """Per trial, the groups holding exactly one of ``infected`` members, among ``groups`` of ``eta``.

    Trial j's K = infected[j] members sit uniformly at random among the
    groups * eta slots. A round of at most one group draws nothing: its one
    group is lone when K = 1, and a round of no groups, where the planner
    fell back, holds K = 0. A round whose ``_lone_cdf`` table fits
    ``LONE_TABLE_MAX_CELLS`` inverts one uniform per trial, from one
    ``random`` call over its trials, through the table's row. In a wider
    round the groups' member counts follow the multivariate hypergeometric
    law of K draws from ``groups`` colours of ``eta`` each; numpy draws one
    such vector per trial, holding one trial's counts at a time, with the
    method that is faster at this eta (``MARGINALS_MIN_ETA``). Below that
    eta the "count" method also allocates about 8 * groups * eta bytes of C
    scratch per call, which tracemalloc does not see. The array step passes
    an int64 array and gets one back; the scalar step (``_scalar_step``)
    passes a list of Python integers and gets a list back.
    """
    scalar = isinstance(infected, list)
    if groups < 2:
        return [int(k == 1) for k in infected] if scalar else infected == 1
    if (groups + 1) * (groups * eta + 1) <= LONE_TABLE_MAX_CELLS:
        return _invert(_lone_cdf(groups, eta), infected, rng.random(len(infected)))
    slots = np.full(groups, eta)
    method = "marginals" if eta >= MARGINALS_MIN_ETA else "count"
    lone = [int(np.count_nonzero(rng.multivariate_hypergeometric(slots, k, method=method) == 1))
            for k in (infected if scalar else infected.tolist())]
    return lone if scalar else np.array(lone, dtype=np.int64)


@functools.lru_cache(maxsize=16)
def _singles_cdf(n: int, tests: int) -> np.ndarray:
    """CDF table of Hypergeom(good, n - good, tests), one row per good in 0..n.

    Row ``good`` holds P(X <= k) for k = 0..tests, from log-factorials.
    The pmf is exactly 0.0 off the support, so each row's running sum is
    exactly 0.0 below its floor, max(0, tests - (n - good)), and, divided
    by its last entry, exactly 1.0 from its top, min(good, tests):
    rounding cannot draw a count outside the support. A run reads the
    capacity's table for its individual rounds and, under the hybrid, one
    per distinct leftover. The cache holds at most 16 tables of at most
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


def _invert(cdf: np.ndarray, rows: np.ndarray | list[int],
            uniform: np.ndarray) -> np.ndarray | list[int]:
    """Inverse-CDF draws: per trial, the number of entries of its row at or below its uniform.

    ``uniform`` holds one uniform per row, from the sampler's own
    ``random`` call over its trials. No row decreases and every row ends at
    exactly 1.0, above any uniform, so the entries at or below u are the
    ones before the first entry above it: an array of rows gathers its
    table rows with ``take`` and takes that entry's index (``argmax`` of the
    comparison, which stops at the first True), and a list of rows finds it
    by bisection.
    """
    if isinstance(rows, list):
        return [bisect.bisect_right(cdf[k], u) for k, u in zip(rows, uniform.tolist())]
    return (cdf.take(rows, axis=0) > uniform[:, np.newaxis]).argmax(axis=1)


def _singles(n: int, good: np.ndarray | list[int], tests: int,
             rng: np.random.Generator) -> np.ndarray | list[int]:
    """Positives among ``tests`` singleton tests drawn from all n, per trial of ``good`` infected.

    The law is Hypergeom(good, n - good, tests). Every singleton draw of
    both steps comes here: a pooled round's leftover tests, whose count
    changes from round to round, and a round of individual tests, whose
    ``tests`` is the run's capacity. With no tests it finds no one and
    draws nothing. When the (n+1)*(tests+1) cells of the ``_singles_cdf``
    table fit ``SINGLES_TABLE_MAX_CELLS``, one uniform per trial, from one
    ``random`` call over its trials, is inverted through its row
    (``_invert``); otherwise numpy's hypergeometric sampler runs, in one
    call on an array of counts and once per trial on a list. An array of
    counts gives an int64 array, and a list of Python integers a list.
    """
    if not tests:
        return [0] * len(good) if isinstance(good, list) else np.zeros_like(good)
    if (n + 1) * (tests + 1) <= SINGLES_TABLE_MAX_CELLS:
        return _invert(_singles_cdf(n, tests), good, rng.random(len(good)))
    if isinstance(good, list):
        return [rng.hypergeometric(k, n - k, tests) for k in good]
    return rng.hypergeometric(good, n - good, tests)


def _spread_table(size: int, log_miss: float) -> np.ndarray:
    """Per infected count i = 0..size, the spread probability -expm1(i * log(1 - q)).

    ``log_miss`` is log(1 - q), -inf at q = 1. Entry i is the float64
    either step would compute from i, and entry 0 is 0.0, which skips the
    0 * -inf, NaN and warning at q = 1. ``run_experiment`` builds one per
    run and picks its size.
    """
    spread = np.arange(size + 1, dtype=np.float64)
    # in place, so building holds no array but the table
    rest = spread[1:]
    np.multiply(rest, log_miss, out=rest)
    np.expm1(rest, out=rest)
    np.negative(rest, out=rest)
    return spread


def _rounds(cfg: SimConfig, expected: float, pools: np.ndarray | list[int]
            ) -> tuple[list[tuple[tuple[int, int, int], np.ndarray | list[int]]],
                       np.ndarray | list[int]]:
    """A pooled step's rounds in draw order, and each trial's in-group slots.

    Trials whose non-isolated ``pools`` share a ``saffron_layout_keys`` key
    share a round: its ``saffron_layout`` (eta, groups, leftover), read
    once, and its trials' indices in trial order. Rounds come in ascending
    key order. A trial's slots are its round's groups * eta, 0 where the
    round falls back. Both steps draw a pooled step in this order:

    - the in-group Hypergeom(I, S, slots) per trial, in trial order; a
      trial without slots draws 0 and consumes nothing;
    - per round, for its trials in trial order, the F infected that land
      alone in a group (``_lone_groups``), then the Hypergeom(I - F,
      n - I + F, leftover) others its singletons find (``_singles``).

    Keys that share a layout draw separately, each from the same law. An
    int64 array of pools gives index arrays and an int64 array of slots;
    the scalar step's list of Python integers gives the same rounds, slots
    and order as lists, grouped by a dict without a numpy call.
    """
    keys = saffron_layout_keys(pools, expected, cfg.capacity)
    if isinstance(pools, list):
        members: dict[int, list[int]] = {}
        for j, key in enumerate(keys):
            members.setdefault(key, []).append(j)
        rounds = [(saffron_layout(pools[on[0]], expected, cfg.capacity), on)
                  for _, on in sorted(members.items())]
        slots = [0] * len(pools)
        for (eta, groups, _), on in rounds:
            for j in on:
                slots[j] = eta * groups
        return rounds, slots
    # a stable sort groups the trials without ``np.unique``'s fixed cost,
    # which few trials never earn back, and without a Python loop over them,
    # which many trials do not afford
    order = keys.argsort(kind="stable")
    ranked = keys[order].tolist()
    stops = [bisect.bisect_right(ranked, key) for key in sorted(set(ranked))]
    rounds = [(saffron_layout(int(pools[order[start]]), expected, cfg.capacity), order[start:stop])
              for start, stop in zip([0] + stops, stops)]
    slots = np.zeros(len(ranked), dtype=np.int64)
    for (eta, groups, _), on in rounds:
        slots[on] = eta * groups
    return rounds, slots


def _detections(cfg: SimConfig, expected: float, counts: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Infections one pooled testing round identifies, per trial, from post-spread counts.

    ``expected`` is the step's entry of the run's ``round_plan``, a pooling
    estimate; a step at None, a round of individual tests, calls
    ``_singles`` with the capacity in ``run_experiment`` instead. The round
    draws the step's ``_rounds`` on arrays: one in-group call over every
    trial, then, per round, ``_lone_groups`` and ``_singles`` on the run's
    generator. A round without leftover tests skips its ``_singles`` call,
    which would find no one and draw nothing.
    """
    susceptible, infected, isolated = counts
    rounds, slots = _rounds(cfg, expected, cfg.n - isolated)
    in_groups = rng.hypergeometric(infected, susceptible, slots)
    found = np.zeros(infected.size, dtype=np.int64)
    for (eta, groups, leftover), on in rounds:
        lone = _lone_groups(in_groups[on], groups, eta, rng)
        found[on] = lone + _singles(cfg.n, infected[on] - lone, leftover, rng) if leftover else lone
    return found


def _scalar_step(cfg: SimConfig, expected: float | None,
                 counts: tuple[list[int], list[int], list[int]], log_miss: float,
                 spread: np.ndarray, rng: np.random.Generator
                 ) -> tuple[list[int], list[int], list[int]]:
    """One step of the live trials' S, I and R ``counts`` on Python integers, in place.

    The S, I and R lists it is given are updated in place and ``counts`` is
    returned. It makes the array step's draws (in ``run_experiment``) in
    the same order, one trial at a time: the spread, Binomial(S, p) per
    trial, with p = ``spread[I]`` from the run's ``_spread_table`` or, when
    some live I is past the table's end, from numpy's
    ``-expm1(I * log(1 - q))`` over the live I, the value the table holds
    and the array step computes (``math.expm1`` differs from numpy's in the
    last bit at some arguments), then the round. At an ``expected`` of
    None, a round of individual tests, one ``_singles`` call on the I list
    draws every trial's positives among the capacity's singletons, as the
    array step's call does, and one loop moves them from I to R. A pooled
    round makes ``_detections``' draws in ``_rounds``' order, on lists, and
    skips an in-group draw without slots, as that zero-sample draw consumes
    nothing.

    numpy's array samplers run the same C routine element by element, so
    the counts and the generator's state after the step equal the array
    step's; only the array calls' fixed cost is gone.
    """
    susceptible, infected, isolated = counts
    if max(infected) >= len(spread):
        # keyed by I, so the loop reads it as it reads the table; a Python
        # float product rounds as numpy's int64-by-float64 one does
        spread = dict(zip(infected, [-grow for grow in
                                     np.expm1([i * log_miss for i in infected]).tolist()]))
    for j, i in enumerate(infected):
        new = rng.binomial(susceptible[j], spread[i])
        susceptible[j] -= new
        infected[j] = i + new
    if expected is None:
        for j, found in enumerate(_singles(cfg.n, infected, cfg.capacity, rng)):
            infected[j] -= found
            isolated[j] += found
        return counts
    rounds, slots = _rounds(cfg, expected, [cfg.n - r for r in isolated])
    in_groups = [rng.hypergeometric(i, s, k) if k else 0
                 for i, s, k in zip(infected, susceptible, slots)]
    for (eta, groups, leftover), on in rounds:
        lone = _lone_groups([in_groups[j] for j in on], groups, eta, rng)
        others = _singles(cfg.n, [infected[j] - f for j, f in zip(on, lone)], leftover, rng)
        for j, f, s in zip(on, lone, others):
            infected[j] -= f + s
            isolated[j] += f + s
    return counts


def _clear(t: int, latest: np.ndarray, trial: np.ndarray, live: int,
           control_time: np.ndarray, censored: np.ndarray) -> int:
    """Retire the live trials that hold no infections after step ``t``; returns how many stay live.

    ``latest``'s first ``live`` columns hold the live trials' counts, and
    ``trial`` their indices. The cleared trials get control time ``t`` and
    move, in a stable reorder, to the frozen part after the live ones.
    """
    extinct = latest[1, :live] == 0
    cleared = trial[:live][extinct]
    control_time[cleared] = t
    censored[cleared] = False
    order = np.argsort(extinct, kind="stable")
    latest[:, :live] = latest[:, :live][:, order]
    trial[:live] = trial[:live][order]
    return live - cleared.size


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
    cfg.trials. The initial infected counts are Binomial(n, p). Each step,
    for the trials still holding infections, draws the spread,
    Binomial(S, 1-(1-q)^I) per trial, then the round at the step's entry of
    the run's ``round_plan``: a pooled round's detections (``_detections``)
    or, at None, a round of individual tests, whose Hypergeom(I, n-I,
    capacity) positives come from ``_singles``. The spread probability is
    read from the run's one table of -expm1(I*log(1-q)) (``_spread_table``),
    built right after the initial draw for I in 0..min(n, reach,
    ``SINGLES_TABLE_MAX_CELLS`` - 1): reach is n in a run of more than
    ``SCALAR_STEP_MAX`` trials, and otherwise twice the largest initial I,
    since such a run takes array step 0 alone, which draws nothing. An
    array step reads the table when it reaches n, and a scalar step while
    every live I fits it; otherwise the step computes the same float64
    itself. Counts are recorded after the testing phase of each step (step
    0 is the freshly drawn population). A trial with no circulating
    infections never changes again, so it stops drawing, and once every
    trial has, the remaining steps are filled.

    Each step's counts wait in a (3, block, trials) buffer, block being
    min(horizon + 1, max(1, ``AGGREGATE_BLOCK_CELLS`` // trials)), and a
    full block, or the steps held when the run ends, is aggregated at once
    (``_aggregate``). Variances are summed about each step's floor(mean),
    from deviations that are exact integers, so trials that all hold one
    count give exactly 0 at any n, and the sums do not depend on the block
    length while they stay below 2^53.

    Memory is O(trials + horizon) plus: the buffer and its float64
    deviations, at most 1.5 MiB or, past 2^15 trials, 48 bytes per trial;
    the scalar phase's pending rows, at most block*3*``SCALAR_STEP_MAX``
    8-byte integers in one ``array('q')`` and its over-allocation, under
    0.8 MiB; one spread table of at most 1 MiB; per step, about
    trials*(capacity+1) float64 for a singles table lookup and trials*(g+1)
    for a lone-group one, or, in a round too wide for a table, one trial's
    g group counts at a time and, below ``MARGINALS_MIN_ETA``, about
    8*g*eta bytes of numpy's C scratch per draw (``_lone_groups``); and the
    cached tables, at most 16 MiB of singles tables and 4 MiB of lone-group
    tables.

    The run has two phases. Array steps run while more than
    ``SCALAR_STEP_MAX`` trials are live, on S, I and R views of the live
    trials' columns, rebound when ``_clear`` changes how many are live.
    Live trials never rise, so from the first step at or below the constant
    to the end of the run, one scalar phase steps S, I and R lists
    (``_scalar_step``). It holds the steps' live counts as pending rows and
    copies them into the buffer only when a block fills, a trial clears or
    the run ends; the cleared trials' columns come from their frozen
    counts. Both phases retire cleared trials through ``_clear``. The
    scalar step's counts and the generator's state after it equal the
    array step's, so every output is bit-identical to a run of array steps
    alone, whatever the constant.
    """
    curve = mean_trajectory(TheoryParams.from_config(cfg), cfg.policy, cfg.horizon)
    rng = np.random.default_rng(cfg.seed)
    log_miss = math.log1p(-cfg.q) if cfg.q < 1.0 else -math.inf
    plan = round_plan(curve, cfg.policy)
    steps = cfg.horizon + 1
    total = np.zeros((3, steps), dtype=np.int64)
    square_dev = np.zeros((3, steps))
    block = min(steps, max(1, AGGREGATE_BLOCK_CELLS // cfg.trials))
    # the counts of the steps from start on, aggregated when the block is
    # full or the run ends
    buffer = np.empty((3, block, cfg.trials), dtype=np.int64)
    start = 0
    control_time = np.full(cfg.trials, cfg.horizon, dtype=np.int64)
    censored = np.ones(cfg.trials, dtype=bool)

    infected = rng.binomial(cfg.n, cfg.p, size=cfg.trials)
    reach = cfg.n if cfg.trials > SCALAR_STEP_MAX else 2 * int(infected.max())
    spread = _spread_table(min(cfg.n, reach, SINGLES_TABLE_MAX_CELLS - 1), log_miss)
    # every trial's counts, live trials first in their original order; a
    # cleared trial's column keeps its final counts
    latest = np.stack([cfg.n - infected, infected, np.zeros_like(infected)])
    trial = np.arange(cfg.trials)
    live = cfg.trials
    # views of the live trials' counts, rebound when ``live`` changes
    counts = latest[:, :live]
    susceptible, infected, isolated = counts
    # the array phase, then, from the first step at or below the constant,
    # the scalar phase; ``t`` is the next step to run
    t = 0
    while live and t < steps and (not t or live > SCALAR_STEP_MAX):
        if t - start == block:
            _aggregate(buffer, total[:, start:t], square_dev[:, start:t])
            start = t
        if t:
            new = rng.binomial(susceptible, spread[infected] if spread.size > cfg.n
                               else -np.expm1(infected * log_miss))
            susceptible -= new
            infected += new
            found = (_singles(cfg.n, infected, cfg.capacity, rng) if plan[t] is None
                     else _detections(cfg, plan[t], counts, rng))
            infected -= found
            isolated += found
        buffer[:, t - start] = latest
        if np.count_nonzero(infected) < live:
            live = _clear(t, latest, trial, live, control_time, censored)
            counts = latest[:, :live]
            susceptible, infected, isolated = counts
        t += 1
    counts = counts.tolist()
    # the live S, I and R of steps first..t, one step after another, until
    # the buffer takes them
    rows, first = array("q"), t
    while live and t < steps:
        if t - start == block:
            _aggregate(buffer, total[:, start:t], square_dev[:, start:t])
            start = t
        counts = _scalar_step(cfg, plan[t], counts, log_miss, spread, rng)
        susceptible, infected, isolated = counts
        rows.fromlist(susceptible + infected + isolated)
        cleared_any = 0 in infected
        if cleared_any or t + 1 - start == block or t + 1 == steps:
            buffer[:, first - start:t + 1 - start, :live] = np.frombuffer(
                rows, dtype=np.int64).reshape(-1, 3, live).transpose(1, 0, 2)
            buffer[:, first - start:t + 1 - start, live:] = latest[:, np.newaxis, live:]
            rows, first = array("q"), t + 1
        if cleared_any:
            latest[:, :live] = counts
            live = _clear(t, latest, trial, live, control_time, censored)
            counts = latest[:, :live].tolist()
        t += 1
    _aggregate(buffer[:, :t - start], total[:, start:t], square_dev[:, start:t])
    total[:, t:] = total[:, t - 1:t]
    square_dev[:, t:] = square_dev[:, t - 1:t]
    means = total / cfg.trials
    # deviations from floor(mean) sum to total mod trials, so this
    # difference cancels nothing larger than trials; one trial's deviations
    # are all 0, so its variances are 0
    dev_sum = total % cfg.trials
    variances = np.maximum(square_dev - dev_sum ** 2 / cfg.trials, 0.0) / max(cfg.trials - 1, 1)
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
