import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirpool import ConfigError, SimConfig, empirical_epsilon_time, run_experiment
from sirpool import harness
from sirpool.harness import LONE_TABLE_MAX_CELLS, SCALAR_DRAW_MAX, SINGLES_TABLE_MAX_CELLS, \
    _detections, _layout_keys, _lone_cdf, _singles_cdf
from sirpool.policies import saffron_layout
from sirpool.theory import TheoryParams, expected_lambda_individual


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
            assert saffron_layout(cfg.n, stats.theory.pre_test_infected[1], cfg.capacity)

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
        # per-individual status arrays n * trials = 50 MB. Run on its own, it
        # peaked at ~1.1 MiB
        cfg = SimConfig(n=100_000, capacity=3000, q=1e-7, horizon=10, trials=500,
                        policy="saffron-hybrid")
        tracemalloc.start()
        try:
            stats = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        eta, groups, _ = saffron_layout(cfg.n, stats.theory.pre_test_infected[1], cfg.capacity)
        assert (groups + 1) * (groups * eta + 1) > LONE_TABLE_MAX_CELLS
        assert peak < 2 * 2 ** 20


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


class TestPooledRounds:
    REF = dict(n=1000, capacity=30, p=0.2, q=1e-5, horizon=500, policy="saffron-hybrid")

    def table_sized_round(self, copies):
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
        rng = CountingGenerator(3)
        found = _detections(cfg, 100.0, counts, rng)
        assert np.all((0 <= found) & (found <= infected))
        assert not found[infected == 0].any()
        return rng.calls.get("hypergeometric")

    def test_table_sized_round_makes_one_hypergeometric_call(self):
        # every trial pools; past SCALAR_DRAW_MAX trials the in-group draw is
        # one array call, and the tables serve the rest of the round
        assert 12 > SCALAR_DRAW_MAX
        assert self.table_sized_round(copies=2) == 1

    def test_few_trial_round_makes_one_scalar_call_per_pooled_trial(self):
        assert 6 <= SCALAR_DRAW_MAX
        assert self.table_sized_round(copies=1) == 6

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

    @given(st.integers(1, 10 ** 9 - 1), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_pools_sharing_a_key_share_a_layout(self, n, capacity_at, expected_at, center_at):
        # capacity and the estimate log-uniform in [1, n], so every regime
        # of the group-size rule is reached: fallback, groups capped by the
        # capacity, and groups capped by what the pool supplies
        capacity = max(1, min(n, round(n ** capacity_at)))
        expected = max(1.0, n ** expected_at)
        center = round(n * center_at)
        pools = np.arange(max(0, center - 200), min(n, center + 200) + 1)
        _, first, which = np.unique(_layout_keys(pools, np.float64(expected), n),
                                    return_index=True, return_inverse=True)
        layouts = [saffron_layout(pool, expected, capacity) for pool in pools.tolist()]
        for k, key in enumerate(which.tolist()):
            assert layouts[k] == layouts[first[key]], (pools[k], pools[first[key]])


def ndarray_fields(stats):
    return {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), np.ndarray)}


def first_seed(premise, **kwargs):
    """The first seed in 0..199 whose default run of small_cfg(**kwargs) meets ``premise``."""
    for seed in range(200):
        if premise(run_experiment(small_cfg(seed=seed, **kwargs))):
            return seed
    raise AssertionError("no seed in 0..199 meets the premise")


def cleared_at(stats):
    """The step after which no trial holds infections, or None if a trial is censored."""
    return None if stats.control_censored.any() else int(stats.control_time.max())


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
    }

    def run_in_blocks(self, monkeypatch, cfg, cells):
        """The run with ``AGGREGATE_BLOCK_CELLS`` = cells, and the steps each block aggregated."""
        sizes = []
        aggregate = harness._aggregate
        monkeypatch.setattr(harness, "AGGREGATE_BLOCK_CELLS", cells)
        monkeypatch.setattr(harness, "_aggregate", lambda block, *out:
                            sizes.append(block.shape[1]) or aggregate(block, *out))
        return run_experiment(cfg), sizes

    def assert_same(self, default, blocked):
        for name, array in ndarray_fields(default).items():
            other = getattr(blocked, name)
            assert array.dtype == other.dtype and np.array_equal(array, other), name

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
        blocked, sizes = self.run_in_blocks(monkeypatch, cfg, block * cfg.trials)
        ran = cfg.horizon + 1 if cleared_at(default) is None else cleared_at(default) + 1
        assert sum(sizes) == ran
        assert set(sizes[:-1]) <= {block} and 0 < sizes[-1] <= block
        self.assert_same(default, blocked)

    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    def test_more_trials_than_cells_aggregate_every_step(self, monkeypatch, policy):
        cfg = small_cfg(policy=policy, horizon=30)
        default = run_experiment(cfg)
        blocked, sizes = self.run_in_blocks(monkeypatch, cfg, cfg.trials - 1)
        assert set(sizes) == {1}
        self.assert_same(default, blocked)


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
