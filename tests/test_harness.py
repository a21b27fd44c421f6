import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sirpool import ConfigError, SimConfig, empirical_epsilon_time, run_experiment
from sirpool import harness
from sirpool.harness import LONE_TABLE_MAX_CELLS, SCALAR_STEP_MAX, SINGLES_TABLE_MAX_CELLS, \
    _detections, _lone_cdf, _rounds, _scalar_step, _singles_cdf
from sirpool.theory import TheoryParams, expected_lambda_individual, saffron_layout, \
    saffron_layout_keys


def small_cfg(**kwargs):
    defaults = dict(n=60, capacity=10, p=0.2, q=1e-4, horizon=25, trials=8, seed=5)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestRunExperiment:
    def test_rejects_bad_config_before_running(self):
        with pytest.raises(ConfigError):
            run_experiment(small_cfg(p=-1.0))

    def test_p_zero_stays_empty(self):
        stats = run_experiment(small_cfg(p=0.0))
        assert not stats.mean_infected.any()
        assert not stats.mean_isolated.any()
        assert np.all(stats.mean_susceptible == 60)
        assert np.all(stats.control_time == 0)
        assert not stats.control_censored.any()

    def test_array_lengths_include_step_zero(self):
        stats = run_experiment(small_cfg(horizon=17))
        assert stats.mean_infected.shape == (18,)
        assert stats.theory.expected_infected.shape == (18,)

    def test_conservation_of_means(self):
        for policy in ("individual", "saffron-hybrid"):
            stats = run_experiment(small_cfg(policy=policy))
            totals = stats.mean_susceptible + stats.mean_infected + stats.mean_isolated
            assert np.all(np.abs(totals - 60) <= 1e-9 * 60)

    def test_mean_monotonicity(self):
        stats = run_experiment(small_cfg(trials=30))
        assert np.all(np.diff(stats.mean_isolated) >= 0)
        assert np.all(np.diff(stats.mean_susceptible) <= 0)

    def test_reproducible_bit_for_bit(self):
        a = run_experiment(small_cfg(policy="saffron-hybrid"))
        b = run_experiment(small_cfg(policy="saffron-hybrid"))
        assert np.array_equal(a.mean_infected, b.mean_infected)
        assert np.array_equal(a.var_infected, b.var_infected)
        assert np.array_equal(a.control_time, b.control_time)

    def test_seed_changes_results(self):
        a = run_experiment(small_cfg())
        b = run_experiment(small_cfg(seed=6))
        assert not np.array_equal(a.mean_infected, b.mean_infected)

    def test_control_time_and_censoring(self):
        # capacity = n clears all infections in one round: control time 1
        stats = run_experiment(small_cfg(n=30, capacity=30, q=0.0, trials=5))
        assert np.all(stats.control_time == 1)
        assert not stats.control_censored.any()
        # one test per round over a short horizon cannot finish the job
        stats = run_experiment(small_cfg(n=60, capacity=1, p=0.5, horizon=3, trials=5))
        assert stats.control_censored.all()
        assert np.all(stats.control_time == 3)

    @pytest.mark.parametrize("n, p, capacity", [(123_456_789, 0.0, 30),
                                                (987_654_321, 0.0, 30),
                                                (987_654_321, 1.0, 1000)])
    def test_identical_trials_have_zero_variance(self, n, p, capacity):
        # every trial takes the same path; squares near n**2 exceed float64's
        # exact integers, so raw sums of squares would not cancel to zero
        stats = run_experiment(SimConfig(n=n, p=p, q=0.0, capacity=capacity, horizon=3,
                                         trials=7))
        t = np.arange(4)
        assert np.array_equal(stats.mean_infected, p * (n - t * capacity))
        assert not stats.var_susceptible.any()
        assert not stats.var_infected.any()
        assert not stats.var_isolated.any()

    def test_no_spread_tracks_closed_form(self):
        # with q=0 the closed form is exact: mean within max(5% rel, 4 SE)
        cfg = SimConfig(n=1000, capacity=30, p=0.2, q=0.0, horizon=80, trials=400,
                        seed=12, policy="individual")
        stats = run_experiment(cfg)
        params = TheoryParams.from_config(cfg)
        closed = np.array([expected_lambda_individual(params, t) for t in range(81)])
        se = np.sqrt(stats.var_infected / cfg.trials)
        allowance = np.maximum(0.05 * closed, 4 * se)
        assert np.all(np.abs(stats.mean_infected - closed) <= allowance)


def assert_count_invariants(stats):
    """What every trial's counts promise, read through the aggregates."""
    cfg = stats.config
    assert stats.mean_infected.shape == (cfg.horizon + 1,)
    totals = stats.mean_susceptible + stats.mean_infected + stats.mean_isolated
    assert np.all(np.abs(totals - cfg.n) <= 1e-9 * cfg.n)
    assert np.all(np.diff(stats.mean_isolated) >= 0)
    assert np.all(np.diff(stats.mean_susceptible) <= 0)
    time, censored = stats.control_time, stats.control_censored
    assert time.dtype == np.int64 and censored.dtype == bool
    assert time.shape == censored.shape == (cfg.trials,)
    assert np.all((0 <= time) & (time <= cfg.horizon))
    assert np.all(time[censored] == cfg.horizon)
    # a trial holds infections up to its control time and none from then on,
    # so the mean is positive exactly until the last trial clears
    last = cfg.horizon + 1 if censored.any() else time.max()
    assert np.all(stats.mean_infected[:last] > 0)
    assert np.all(stats.mean_infected[last:] == 0)
    if cfg.trials == 1:
        assert not stats.var_infected.any()


EDGES = {
    "p=0": dict(p=0.0),
    "p=1": dict(p=1.0),
    "q=0": dict(q=0.0),
    "q=1": dict(q=1.0),
    "capacity=n": dict(capacity=60),
    "n=2": dict(n=2, capacity=1),
    "trials=1": dict(trials=1),
    "horizon=1": dict(horizon=1),
    # the planner's estimate at t=1 is exactly 1: one group of the whole pool
    "eta=pool": dict(n=10, capacity=10, p=0.1, q=0.0),
}


class TestCountEngineEdges:
    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_invariants(self, edge, policy):
        stats = run_experiment(small_cfg(**{"policy": policy, "trials": 200, **EDGES[edge]}))
        assert_count_invariants(stats)

    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    def test_edge_values(self, policy):
        everyone = run_experiment(small_cfg(policy=policy, p=1.0))
        assert not everyone.mean_susceptible.any()
        still = run_experiment(small_cfg(policy=policy, q=0.0))
        assert np.all(still.mean_susceptible == still.mean_susceptible[0])
        burst = run_experiment(small_cfg(policy=policy, q=1.0))
        assert not burst.mean_susceptible[1:].any()

    def test_group_spans_the_pool(self):
        cfg = small_cfg(policy="saffron-hybrid", **EDGES["eta=pool"])
        stats = run_experiment(cfg)
        assert stats.theory.pre_test_infected[1] == 1.0
        assert saffron_layout(cfg.n, stats.theory.pre_test_infected[1], cfg.capacity) \
            == (10, 1, 2)

    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    def test_largest_accepted_population(self, policy):
        # n = 10**9 - 1 is the largest size validate accepts; q=0 keeps the
        # hybrid's pooled rounds, whose hypergeometric draw splits I and S
        cfg = SimConfig(n=10**9 - 1, horizon=3, trials=2, q=0.0, policy=policy)
        stats = run_experiment(cfg)
        assert_count_invariants(stats)
        if policy == "saffron-hybrid":
            _, groups, _ = saffron_layout(cfg.n, stats.theory.pre_test_infected[1], cfg.capacity)
            assert groups > 0

    def test_memory_stays_linear(self):
        # (3, trials, steps) int64 counts would take 3 * 10_000 * 501 * 8 B = 120 MB;
        # at p=0.002 the last trial still runs for hundreds of steps
        tracemalloc.start()
        try:
            stats = run_experiment(SimConfig(trials=10_000, horizon=500, p=0.002, q=0.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.control_time.max() > 250
        assert peak < 12 * 2 ** 20

    def test_hybrid_memory_stays_linear(self):
        # every pooled round here has 500-750 groups, too many for a table, so
        # each trial draws its group counts on its own and holds at most 750 of
        # them at a time; one (trials, groups) int64 array would take 3 MB and
        # per-individual status arrays n * trials = 50 MB. A first run outside
        # the window takes numpy's one-time lazy imports, ~0.7 MiB, so the
        # window sees only the engine: it peaked at ~1.23 MiB, 0.76 MiB of it
        # the run's spread table of n + 1 float64, which its scalar phase
        # reads too. tracemalloc cannot see the C scratch of numpy's "count"
        # method, about 8 * groups * eta bytes per draw, so this bound leaves
        # it out
        cfg = SimConfig(n=100_000, capacity=3000, q=1e-7, horizon=10, trials=500,
                        policy="saffron-hybrid")
        run_experiment(cfg)
        tracemalloc.start()
        try:
            stats = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        eta, groups, _ = saffron_layout(cfg.n, stats.theory.pre_test_infected[1], cfg.capacity)
        assert (groups + 1) * (groups * eta + 1) > LONE_TABLE_MAX_CELLS
        assert peak < 2 * 2 ** 20

    def test_scalar_phase_memory_is_bounded_by_its_block(self, monkeypatch):
        # 11 trials run every step after step 0 in the scalar phase. At q=0
        # with one test a step none of them clears (each holds ~20,000
        # infected), so every step adds 3 * 11 pending integers until a block
        # of 50 steps fills. The docstring bounds the pending rows at block *
        # 3 * SCALAR_STEP_MAX integers of 8 bytes in one array('q'), which
        # over-allocates at most 1/16 of them plus 7 slots. Beside them, the
        # phase's S, I and R lists can grow by at most one step's three
        # lists: new lists of a 56-byte header and up to 16 slots, each of
        # 11 new int objects (28 bytes below 2^30, at most 32) where the
        # first step's lists held cached small ones. Rows kept for the whole
        # horizon would take more than 6 times the bound.
        cfg = SimConfig(n=100_000, capacity=1, q=0.0, horizon=400, trials=SCALAR_STEP_MAX)
        block = 50
        monkeypatch.setattr(harness, "AGGREGATE_BLOCK_CELLS", block * cfg.trials)
        pending = block * 3 * SCALAR_STEP_MAX
        bound = 8 * (pending + pending // 16 + 7) + 3 * (56 + 8 * 16 + 32 * SCALAR_STEP_MAX)
        assert cfg.horizon * 3 * cfg.trials * 8 > 6 * bound
        # traced memory at the phase's first step, and the most held above it
        held = {"first": None, "most": 0, "steps": 0}
        step = harness._scalar_step

        def traced_step(*args):
            current = tracemalloc.get_traced_memory()[0]
            if held["first"] is None:
                held["first"] = current
            held["most"] = max(held["most"], current - held["first"])
            held["steps"] += 1
            return step(*args)

        monkeypatch.setattr(harness, "_scalar_step", traced_step)
        tracemalloc.start()
        try:
            stats = run_experiment(cfg)
        finally:
            tracemalloc.stop()
        assert stats.control_censored.all() and held["steps"] == cfg.horizon
        assert held["most"] <= bound, f"{held['most']} bytes held between scalar steps > {bound}"

class CountingGenerator:
    """A generator that counts its sampler calls by method name."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = {}

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return method(*args, **kwargs)

        return counted


# n, then the capacity and the estimate as powers of n and a window of pools
# around a fraction of n (``pool_window``)
POOL_WINDOWS = given(st.integers(1, 10 ** 9 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                     st.floats(0.0, 1.0))
# n = 1000, capacity 30 and an estimate of 10 (just below it): pools 20-29
# have eta = 2 and 10-14 groups, the one regime where the capacity // 2 cap of
# the key binds
CAPACITY_CAP_BINDS = example(n=1000, capacity_at=math.log(30, 1000), expected_at=1 / 3,
                             center_at=0.0)


def pool_window(n, capacity_at, expected_at, center_at):
    """A hybrid config of n, a pooling estimate, and a window of up to 401 pools in shuffled order.

    The capacity and the estimate are log-uniform in [1, n], so every regime
    of the group-size rule is reached: fallback, groups capped by the
    capacity, and groups capped by what the pool supplies. The pools are
    in an order of their own, so trial order is not key order.
    """
    capacity = max(1, min(n, round(n ** capacity_at)))
    expected = max(1.0, n ** expected_at)
    center = round(n * center_at)
    pools = np.random.default_rng(n).permutation(
        np.arange(max(0, center - 200), min(n, center + 200) + 1))
    return SimConfig(n=n, capacity=capacity, policy="saffron-hybrid"), expected, pools


class TestPooledRounds:
    REF = dict(n=1000, capacity=30, p=0.2, q=1e-5, horizon=500, policy="saffron-hybrid")

    def table_sized_round(self, copies):
        """Post-spread counts of 6 * copies trials whose rounds all pool and read tables."""
        cfg = SimConfig(**self.REF)
        # pools of 1000, 800 and 700 at an estimate of 100: rounds of 3 groups
        # of 10 and 6 leftover singles, or of 5 groups of 8 or 7 and none
        isolated = np.tile([0, 200, 300, 0, 200, 300], copies)
        infected = np.tile([90, 100, 80, 0, 300, 1], copies)
        counts = np.stack([cfg.n - isolated - infected, infected, isolated])
        layouts = {saffron_layout(cfg.n - r, 100.0, cfg.capacity) for r in isolated.tolist()}
        assert layouts == {(10, 3, 6), (8, 5, 0), (7, 5, 0)}
        assert all((g + 1) * (g * eta + 1) <= LONE_TABLE_MAX_CELLS
                   and (cfg.n + 1) * (left + 1) <= SINGLES_TABLE_MAX_CELLS
                   for eta, g, left in layouts)
        return cfg, counts

    def test_table_sized_round_makes_one_hypergeometric_call(self):
        # the in-group draw is one array call, and the tables serve the rest
        cfg, counts = self.table_sized_round(copies=2)
        rng = CountingGenerator(3)
        found = _detections(cfg, 100.0, counts, rng)
        assert np.all((0 <= found) & (found <= counts[1]))
        assert not found[counts[1] == 0].any()
        # one call of uniforms per table read: lone groups for each of the
        # three layouts, singles only for the one with leftover tests
        assert rng.calls == {"hypergeometric": 1, "random": 4}

    def test_scalar_step_draws_per_trial(self):
        # one binomial and one in-group hypergeometric per trial, then one
        # call of uniforms per table read: lone groups for each of the three
        # layouts, singles only for the one with leftover tests
        cfg, counts = self.table_sized_round(copies=1)
        log_miss = math.log1p(-cfg.q)
        rng = CountingGenerator(3)
        spread = harness._spread_table(cfg.n, log_miss)
        stepped = np.array(_scalar_step(cfg, 100.0, counts.tolist(), log_miss, spread, rng))
        assert rng.calls == {"binomial": 6, "hypergeometric": 6, "random": 4}
        found = stepped[2] - counts[2]
        assert np.array_equal(stepped.sum(axis=0), counts.sum(axis=0))
        assert np.all((stepped >= 0) & (found >= 0))
        assert not found[counts[1] == 0].any()
        # a trial whose round falls back (a pool of 150, below twice the
        # estimate) skips the in-group draw, which would consume nothing,
        # and reads the capacity's singles table
        counts = np.hstack([counts, [[100], [50], [850]]])
        rng = CountingGenerator(3)
        _scalar_step(cfg, 100.0, counts.tolist(), log_miss, spread, rng)
        assert rng.calls == {"binomial": 7, "hypergeometric": 6, "random": 5}

    def test_mixed_layout_round(self):
        # at an estimate of 2 and capacity 40, pools of 3, 2050, 100, 682 and
        # 1026 fall back, pool one group, read a table, are too wide for one,
        # and leave no singleton tests
        cfg = SimConfig(n=3000, capacity=40, policy="saffron-hybrid")
        pools = np.repeat([3, 2050, 100, 682, 1026], 3)
        infected = np.array([0, 1, 3, 0, 1, 900, 0, 1, 40, 0, 1, 300, 0, 1, 500])
        counts = np.stack([pools - infected, infected, cfg.n - pools])
        layouts = [saffron_layout(pool, 2.0, cfg.capacity) for pool in pools[::3].tolist()]
        assert layouts == [(0, 0, 40), (1025, 1, 18), (50, 2, 16), (341, 2, 4), (513, 2, 0)]
        assert [(g + 1) * (g * eta + 1) <= LONE_TABLE_MAX_CELLS
                for eta, g, _ in layouts[2:]] == [True, False, False]
        assert (cfg.n + 1) * (cfg.capacity + 1) <= SINGLES_TABLE_MAX_CELLS
        _singles_cdf.cache_clear()
        rng = CountingGenerator(3)
        found = _detections(cfg, 2.0, counts, rng)
        assert np.all((0 <= found) & (found <= infected))
        assert not found[infected == 0].any()
        # the in-group draw is one array call that spans every trial,
        # fallback trials included, and every singles draw reads a table:
        # the capacity's and the leftovers 18, 16 and 4, but none for the
        # layout without leftover
        assert rng.calls["hypergeometric"] == 1
        assert rng.calls["multivariate_hypergeometric"] == 6
        assert _singles_cdf.cache_info().currsize == 4
        # uniforms for the fallback, one-group and wide layouts' singles, and
        # for both draws of the table-sized layout
        assert rng.calls["random"] == 5
        hits = _singles_cdf.cache_info().hits
        _singles_cdf(cfg.n, cfg.capacity)
        assert _singles_cdf.cache_info().hits == hits + 1

    def test_each_table_is_built_once(self):
        # a run reads many lone-group tables and a few singles tables; no
        # cache may evict one that the run reads again
        _lone_cdf.cache_clear()
        _singles_cdf.cache_clear()
        for seed in range(20):
            run_experiment(SimConfig(trials=20, seed=seed, **self.REF))
        lone, singles = _lone_cdf.cache_info(), _singles_cdf.cache_info()
        assert lone.currsize > 50 and lone.hits > 0
        assert lone.misses == lone.currsize < lone.maxsize
        # the capacity's table and the leftovers 2, 6, 10, 12 and 14
        assert singles.misses == singles.currsize == 6
        assert singles.currsize < singles.maxsize

    @pytest.mark.parametrize("trials", [5, 40])
    @pytest.mark.parametrize("policy, p, pools", [("individual", 0.2, False),
                                                  ("saffron-hybrid", 0.01, False),
                                                  ("saffron-hybrid", 0.2, True)])
    def test_only_a_hybrid_estimate_of_1_or_more_pools(self, monkeypatch, policy, p, pools,
                                                       trials):
        # the run's plan holds None for individual testing and for a hybrid
        # estimate below 1, and a step at None lays out no round, in the
        # array phase (40 trials) and in the scalar phase (both trial counts)
        calls = dict.fromkeys(["_detections", "_scalar_step", "_rounds", "saffron_layout"], 0)
        for name in calls:
            def counted(*args, name=name, run=getattr(harness, name)):
                calls[name] += 1
                return run(*args)
            monkeypatch.setattr(harness, name, counted)
        stats = run_experiment(small_cfg(policy=policy, p=p, trials=trials, horizon=40))
        assert (stats.theory.pre_test_infected[1:].max() >= 1.0) == (p > 0.1)
        # steps 1 to the last one run (the latest control time) are array
        # steps until the scalar phase takes the rest; only pooled array
        # steps call ``_detections``
        array_steps = stats.control_time.max() - calls["_scalar_step"]
        assert bool(array_steps) == (trials > SCALAR_STEP_MAX)
        assert bool(calls["_detections"]) == (pools and trials > SCALAR_STEP_MAX)
        assert calls["_scalar_step"] > 0
        assert bool(calls["_rounds"]) == bool(calls["saffron_layout"]) == pools

    def test_one_layout_per_key(self, monkeypatch):
        # at an estimate of 100, pools 1000..1009 share eta = 10 and
        # pool // eta = 100, 800 and 805 share 8 and 100, and 700 stands alone
        cfg = SimConfig(**self.REF)
        pools = np.array([1000, 1009, 800, 1004, 805, 700, 1000])
        infected = np.array([90, 100, 80, 0, 300, 1, 5])
        counts = np.stack([pools - infected, infected, cfg.n - pools])
        calls = []
        monkeypatch.setattr(harness, "saffron_layout",
                            lambda pool, *args: calls.append(pool) or saffron_layout(pool, *args))
        _detections(cfg, 100.0, counts, np.random.default_rng(0))
        assert sorted(calls) == [700, 800, 1000]

    @POOL_WINDOWS
    @CAPACITY_CAP_BINDS
    @settings(max_examples=200, deadline=None)
    def test_pools_sharing_a_key_share_a_layout(self, n, capacity_at, expected_at, center_at):
        cfg, expected, pools = pool_window(n, capacity_at, expected_at, center_at)
        capacity = cfg.capacity
        rounds, slots = _rounds(cfg, np.float64(expected), pools)
        keys = saffron_layout_keys(pools, np.float64(expected), capacity).tolist()
        trials = [on.tolist() for _, on in rounds]
        # the rounds partition the trials, keys ascend, and trials keep their order
        assert sorted(j for on in trials for j in on) == list(range(pools.size))
        assert all(on == sorted(on) and {keys[j] for j in on} == {keys[on[0]]} for on in trials)
        round_keys = [keys[on[0]] for on in trials]
        assert round_keys == sorted(set(round_keys))
        for ((eta, groups, leftover), _), on in zip(rounds, trials):
            for j in on:
                assert saffron_layout(int(pools[j]), expected, capacity) \
                    == (eta, groups, leftover), (pools[j], pools[on[0]])
                assert slots[j] == eta * groups

    @POOL_WINDOWS
    @CAPACITY_CAP_BINDS
    @settings(max_examples=200, deadline=None)
    def test_list_rounds_are_the_array_rounds(self, n, capacity_at, expected_at, center_at):
        # the scalar step's list of pools gives the array step's layouts,
        # trial groups in the same order, and slots, at a plan's Python
        # float and at a numpy one
        cfg, expected, pools = pool_window(n, capacity_at, expected_at, center_at)
        for estimate in (expected, np.float64(expected)):
            rounds, slots = _rounds(cfg, estimate, pools)
            listed, listed_slots = _rounds(cfg, estimate, pools.tolist())
            assert listed == [(layout, on.tolist()) for layout, on in rounds]
            assert listed_slots == slots.tolist()
            assert all(type(j) is int for _, on in listed for j in on)
            assert all(type(k) is int for k in listed_slots)

    @given(st.lists(st.integers(0, 10 ** 9), min_size=1, max_size=30),
           st.floats(1.0, 1e9), st.integers(1, 10 ** 9), st.booleans())
    # pools that are exact multiples of the estimate, or of its float
    # rounding, are where floor division's edges sit: 11 // 1.1 is 9.0
    @example(pools=[11, 22, 33, 110, 0, 1], expected=1.1, capacity=30, numpy_estimate=False)
    @example(pools=[11, 22, 33, 110, 0, 1], expected=1.1, capacity=30, numpy_estimate=True)
    @example(pools=[3 * 10 ** 8, 10 ** 9, 10 ** 9 - 1], expected=1e8 / 3, capacity=10 ** 9,
             numpy_estimate=False)
    @example(pools=[7, 14, 21, 10 ** 9 - 3], expected=7.0, capacity=1, numpy_estimate=True)
    @example(pools=[10 ** 9, 999_999_937], expected=999_999_937.0, capacity=3,
             numpy_estimate=False)
    @settings(max_examples=300, deadline=None)
    def test_list_keys_are_the_array_keys(self, pools, expected, capacity, numpy_estimate):
        # Python's float floor division must give numpy's eta for every
        # pool, including pools at a multiple of the estimate
        multiples = [round(k * expected) for k in (2, 3, 7, 10)]
        pools = pools + [m + d for m in multiples for d in (-1, 0, 1) if 0 <= m + d <= 10 ** 9]
        estimate = np.float64(expected) if numpy_estimate else expected
        keys = saffron_layout_keys(pools, estimate, capacity)
        assert keys == saffron_layout_keys(np.array(pools), estimate, capacity).tolist()
        assert all(type(k) is int for k in keys)


class TestInversion:
    @pytest.mark.parametrize("table", ["singles", "lone"])
    def test_first_entry_above_counts_the_entries_at_or_below(self, table):
        # singles rows for 34..40 infected among 40 start their support at
        # 6..12; lone-group row K = 1 puts all its mass on F = 1
        cdf = _singles_cdf(40, 12) if table == "singles" else _lone_cdf(3, 5)
        assert (cdf[:, 0] == 0.0).any() and (cdf[:, -1] == 1.0).all()
        rows, uniforms = [], []
        for k, row in enumerate(cdf):
            # each entry below 1, as a uniform and its neighbours, and the
            # ends of [0, 1)
            entries = np.unique(row[row < 1.0])
            values = np.concatenate([entries, np.nextafter(entries, 0.0),
                                     np.nextafter(entries, 1.0),
                                     [0.0, np.nextafter(1.0, 0.0)]])
            values = values[values < 1.0]
            rows += [k] * values.size
            uniforms += values.tolist()
        rows, uniforms = np.array(rows), np.array(uniforms)
        counted = (cdf[rows] <= uniforms[:, np.newaxis]).sum(axis=1)
        drawn = harness._invert(cdf, rows, uniforms)
        assert drawn.dtype == counted.dtype and np.array_equal(drawn, counted)
        assert harness._invert(cdf, rows.tolist(), uniforms) == counted.tolist()


def ndarray_fields(stats):
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), np.ndarray)}


def assert_same_arrays(stats, other):
    for name, array in ndarray_fields(stats).items():
        assert array.dtype == getattr(other, name).dtype, name
        assert np.array_equal(array, getattr(other, name)), name


def first_seed(premise, **kwargs):
    """The first seed in 0..199 whose default run of small_cfg(**kwargs) meets ``premise``."""
    for seed in range(200):
        if premise(run_experiment(small_cfg(seed=seed, **kwargs))):
            return seed
    raise AssertionError("no seed in 0..199 meets the premise")


def cleared_at(stats):
    """The step after which no trial holds infections, or None if a trial is censored."""
    return None if stats.control_censored.any() else int(stats.control_time.max())


def scalar_from(stats):
    """The first step of the run's scalar phase, or None if the run ends before it.

    It is the step after the one that leaves ``SCALAR_STEP_MAX`` live trials,
    and step 1 when the run starts with no more.
    """
    cleared = np.sort(stats.control_time[~stats.control_censored])
    over = stats.config.trials - harness.SCALAR_STEP_MAX
    if over > cleared.size:
        return None
    first = int(cleared[over - 1]) + 1 if over > 0 else 1
    last = stats.config.horizon if cleared_at(stats) is None else cleared_at(stats)
    return first if first <= last else None


class TestBlockAggregation:
    """Buffered steps aggregate to the same arrays whatever the block length."""

    BLOCKS = (1, 2, 7)
    CASES = {
        # the last trial clears at step 13 or 27, the end of a block of 1, 2 and 7
        "clears at a block end": (
            dict(horizon=30),
            lambda stats: cleared_at(stats) is not None and (cleared_at(stats) + 1) % 14 == 0),
        # ... or at a step that ends no block of 2 or 7
        "clears mid-block": (
            dict(horizon=30),
            lambda stats: cleared_at(stats) is not None
            and math.gcd(cleared_at(stats) + 1, 14) == 1),
        # one test per round cannot finish; 26 steps leave a last block of 5 for blocks of 7
        "all censored": (dict(capacity=1, p=0.5), lambda stats: stats.control_censored.all()),
        # more trials than the constant: array steps, then the scalar phase
        # from a step that starts no block of 2 or 7
        "crosses phases mid-block": (
            dict(horizon=30, trials=16),
            lambda stats: scalar_from(stats) is not None and scalar_from(stats) > 1
            and math.gcd(scalar_from(stats), 14) == 1),
    }

    def run_in_blocks(self, monkeypatch, cfg, cells):
        """The run at ``AGGREGATE_BLOCK_CELLS`` = cells, each block's steps and the scalar steps."""
        sizes, scalar = [], []
        aggregate, step = harness._aggregate, harness._scalar_step
        monkeypatch.setattr(harness, "AGGREGATE_BLOCK_CELLS", cells)
        monkeypatch.setattr(harness, "_aggregate", lambda block, *out:
                            sizes.append(block.shape[1]) or aggregate(block, *out))
        monkeypatch.setattr(harness, "_scalar_step", lambda *args:
                            scalar.append(1) or step(*args))
        return run_experiment(cfg), sizes, len(scalar)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    def test_blocks_match_the_default_run(self, monkeypatch, policy, case, block):
        overrides, premise = self.CASES[case]
        cfg = small_cfg(policy=policy, seed=first_seed(premise, policy=policy, **overrides),
                        **overrides)
        default = run_experiment(cfg)
        # the default block spans the whole horizon at these few trials
        assert harness.AGGREGATE_BLOCK_CELLS // cfg.trials > cfg.horizon
        blocked, sizes, scalar = self.run_in_blocks(monkeypatch, cfg, block * cfg.trials)
        ran = cfg.horizon + 1 if cleared_at(default) is None else cleared_at(default) + 1
        assert sum(sizes) == ran
        assert scalar == ran - scalar_from(default)
        assert set(sizes[:-1]) <= {block} and 0 < sizes[-1] <= block
        assert_same_arrays(default, blocked)

    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    def test_more_trials_than_cells_aggregate_every_step(self, monkeypatch, policy):
        cfg = small_cfg(policy=policy, horizon=30)
        default = run_experiment(cfg)
        blocked, sizes, _ = self.run_in_blocks(monkeypatch, cfg, cfg.trials - 1)
        assert set(sizes) == {1}
        assert_same_arrays(default, blocked)


def log_miss(q):
    return math.log1p(-q) if q < 1.0 else -math.inf


class TestSpreadTable:
    """Both steps read the spread probability from a per-run table of the values they compute."""

    QS = [0.0, 1e-5, 1.0, np.float32(1e-3)]
    QS_IDS = ["0", "1e-5", "1", "float32"]

    def run_counting(self, monkeypatch, cfg, builder=harness._spread_table):
        """The run with ``builder`` as ``_spread_table``, and what each of its calls returned."""
        built = []
        monkeypatch.setattr(harness, "_spread_table",
                            lambda *args: built.append(builder(*args)) or built[-1])
        return run_experiment(cfg), built

    @staticmethod
    def per_step(*args):
        """A ``_spread_table`` stand-in under which every step computes its probabilities.

        Its empty table reaches no n, so every array step computes them,
        and every live I passes its end, so every scalar step does too.
        """
        return np.empty(0)

    @pytest.mark.parametrize("q", QS, ids=QS_IDS)
    def test_entries_are_the_per_step_expression(self, q):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = harness._spread_table(1000, log_miss(q))
        counts = np.arange(1, 1001)
        assert table.dtype == np.float64 and table.shape == (1001,)
        assert table[0] == 0.0
        assert np.array_equal(table[1:], -np.expm1(counts * log_miss(q)))

    @pytest.mark.parametrize("q", QS, ids=QS_IDS)
    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    @pytest.mark.parametrize("trials", [1, 2, SCALAR_STEP_MAX, 40])
    def test_table_path_matches_the_per_step_path(self, monkeypatch, policy, q, trials):
        # up to SCALAR_STEP_MAX trials every step after step 0 is a scalar
        # step, which reads the run's table per live trial or, past the
        # table's end, calls np.expm1; at q = 1 the live I pass that end
        cfg = SimConfig(n=1000, capacity=30, q=q, horizon=150, trials=trials, seed=3,
                        policy=policy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tabled, built = self.run_counting(monkeypatch, cfg)
            per_step, forced = self.run_counting(monkeypatch, cfg, self.per_step)
        assert len(built) == 1 and built[0].shape[0] <= cfg.n + 1
        assert len(forced) == 1 and not forced[0].size
        if trials > SCALAR_STEP_MAX:
            assert built[0].shape == (cfg.n + 1,)
            # more than SCALAR_STEP_MAX trials are live after step 1, so step 2 is an array
            # step too
            assert np.count_nonzero(tabled.control_time > 1) > SCALAR_STEP_MAX
        assert_same_arrays(tabled, per_step)

    def test_population_past_the_cap_computes_per_step(self, monkeypatch):
        # n + 1 float64 pass SINGLES_TABLE_MAX_CELLS, so the run's table
        # stops short of n and every array step computes its probabilities;
        # a table of every I in 0..n, built past the cap, must agree
        cfg = SimConfig(n=SINGLES_TABLE_MAX_CELLS, capacity=30, q=1e-7, horizon=6,
                        trials=SCALAR_STEP_MAX + 1, seed=2)
        per_step, built = self.run_counting(monkeypatch, cfg)
        assert len(built) == 1 and built[0].shape == (SINGLES_TABLE_MAX_CELLS,)
        assert built[0].shape[0] < cfg.n + 1
        assert per_step.control_censored.all()

        def uncapped(size, miss):
            table = -np.expm1(np.arange(cfg.n + 1) * miss)
            table[0] = 0.0
            return table

        tabled, _ = self.run_counting(monkeypatch, cfg, uncapped)
        assert_same_arrays(per_step, tabled)

    @pytest.mark.parametrize("trials, n", [
        (trials, n) for trials in (1, SCALAR_STEP_MAX, SCALAR_STEP_MAX + 1)
        for n in (1000, 100_000)] + [(SCALAR_STEP_MAX + 1, 140_000)])
    def test_every_run_builds_one_table(self, monkeypatch, n, trials):
        # a run of array steps builds the whole table up to the cap, which
        # its scalar phase reads too; a run of few trials takes array step 0
        # only, and its table reaches twice the largest I drawn
        cfg = SimConfig(n=n, capacity=30, q=1e-7, horizon=20, trials=trials, seed=4)
        _, built = self.run_counting(monkeypatch, cfg)
        drawn = np.random.default_rng(cfg.seed).binomial(cfg.n, cfg.p, size=cfg.trials)
        reach = n if trials > SCALAR_STEP_MAX else 2 * int(drawn.max())
        size = min(n, reach, SINGLES_TABLE_MAX_CELLS - 1)
        assert len(built) == 1 and built[0].shape == (size + 1,)

    def test_scalar_step_reads_the_table_while_every_count_fits(self):
        # a table of zeros spreads nothing; a table one entry short of the
        # largest I is not read, and at q = 0.5 nearly every S is infected
        cfg = small_cfg(q=0.5)
        zeros = np.zeros(21)
        for table, spread in [(zeros, False), (zeros[:20], True)]:
            counts = ([40, 40], [20, 10], [0, 10])
            susceptible, _, _ = _scalar_step(cfg, None, counts, log_miss(cfg.q), table,
                                             np.random.default_rng(1))
            assert (susceptible != [40, 40]) is spread

    def test_counts_past_the_table_compute_per_step(self, monkeypatch):
        # at q = 0.5 the single trial's I passes twice its first draw in
        # step 1, so every later step computes its probability, as a run
        # without a table does
        cfg = SimConfig(n=1000, capacity=30, q=0.5, horizon=20, trials=1, seed=4)
        tabled, built = self.run_counting(monkeypatch, cfg)
        per_step, _ = self.run_counting(monkeypatch, cfg, self.per_step)
        assert built[0].shape[0] - 1 < tabled.mean_infected.max()
        assert_same_arrays(tabled, per_step)


class TestEmpiricalEpsilonTime:
    def test_threshold_above_start_is_zero(self):
        stats = run_experiment(small_cfg())
        assert empirical_epsilon_time(stats, 60.0) == 0

    def test_not_reached_is_none(self):
        stats = run_experiment(small_cfg(n=200, capacity=1, p=0.5, q=1e-3,
                                         horizon=10, trials=5))
        assert empirical_epsilon_time(stats, 0.01) is None

    def test_nonincreasing_in_epsilon(self):
        stats = run_experiment(small_cfg(trials=20))
        times = []
        for eps in (0.0, 0.5, 1.0, 2.0, 10.0, 60.0):
            t = empirical_epsilon_time(stats, eps)
            times.append(stats.config.horizon + 1 if t is None else t)
        assert all(a >= b for a, b in zip(times, times[1:]))
