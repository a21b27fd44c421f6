import dataclasses

import numpy as np
import pytest

from sirpool import SimConfig
from sirpool.codec import Verdict, code_width
from sirpool.harness import run_trial, trial_rng
from sirpool.policies import PolicyContext, plan_individual, plan_saffron_hybrid, run_round
from sirpool.sir import Status, init_population, spread_phase
from sirpool.theory import TheoryParams, mean_trajectory, round_plan, saffron_layout
from tests.test_sir import make_state


def ctx(n=1000, capacity=30, expected=0.0):
    return PolicyContext(n=n, capacity=capacity, expected_infected=expected)


class TestPlanIndividual:
    def test_rows_match_capacity_and_are_distinct(self):
        matrix = plan_individual(ctx(n=100, capacity=40), np.random.default_rng(0))
        assert matrix.rows == 40
        assert len(matrix.groups) == 0
        tested = matrix.single_members
        assert np.unique(tested).size == 40

    def test_full_capacity_covers_everyone(self):
        matrix = plan_individual(ctx(n=25, capacity=25), np.random.default_rng(0))
        assert sorted(matrix.single_members.tolist()) == list(range(25))

    def test_sampling_frequency(self):
        # binomial oracle: selection probability T/n = 0.03 per round,
        # sd of the frequency over 10000 rounds = sqrt(.03*.97/10000) = 0.0017
        rng = np.random.default_rng(8)
        rounds = 10000
        counts = np.zeros(1000, dtype=np.int64)
        for _ in range(rounds):
            matrix = plan_individual(ctx(), rng)
            counts[matrix.single_members] += 1
        freq = counts / rounds
        sigma = np.sqrt(0.03 * 0.97 / rounds)
        # spot-check a few fixed individuals at 3 sigma, everyone at 5 sigma
        for individual in (0, 17, 500, 999):
            assert abs(freq[individual] - 0.03) <= 3 * sigma
        assert np.all(np.abs(freq - 0.03) <= 5 * sigma)


class TestSaffronLayout:
    @pytest.mark.parametrize("pool, expected, capacity", [
        (1000, 0.5, 30),  # estimate below 1
        (100, 90.0, 30),  # eta = 1
        (1, 1.0, 30),  # a pool below 2 gives eta < 2 too
        (1000, 2.0, 17),  # eta = 500 needs 18 rows
    ])
    def test_fallback_is_the_round_without_groups(self, pool, expected, capacity):
        assert saffron_layout(pool, expected, capacity) == (0, 0, capacity)


class TestPlanSaffronHybrid:
    def test_five_groups_of_five(self):
        # eta = floor(1000/200) = 5 -> 6 rows per group, 5 groups, no leftover
        matrix = plan_saffron_hybrid(ctx(expected=200.0), np.arange(1000),
                                     np.random.default_rng(1))
        assert len(matrix.groups) == 5
        assert all(len(g) == 5 for g in matrix.groups)
        assert matrix.rows == 30
        assert matrix.single_members.size == 0

    def test_leftover_singles(self):
        # eta = 500 -> 18 rows, one group, 12 leftover singleton tests
        matrix = plan_saffron_hybrid(ctx(expected=2.0), np.arange(1000),
                                     np.random.default_rng(1))
        assert len(matrix.groups) == 1
        assert len(matrix.groups[0]) == 500
        assert matrix.single_members.size == 12
        assert matrix.rows == 30

    @pytest.mark.parametrize("pool, expected, capacity",
                             [(1000, 0.5, 30), (100, 90.0, 30), (0, 2.0, 30), (1000, 2.0, 17)])
    def test_fallback_draws_what_plan_individual_draws(self, pool, expected, capacity):
        hybrid_rng, individual_rng = np.random.default_rng(1), np.random.default_rng(1)
        round_ctx = ctx(capacity=capacity, expected=expected)
        hybrid = plan_saffron_hybrid(round_ctx, np.arange(pool), hybrid_rng)
        individual = plan_individual(round_ctx, individual_rng)
        assert hybrid.groups.shape == individual.groups.shape == (0, 0)
        assert hybrid.rows == individual.rows == capacity
        assert np.array_equal(hybrid.single_members, individual.single_members)
        assert hybrid_rng.bit_generator.state == individual_rng.bit_generator.state

    def test_groups_disjoint_and_non_isolated_only(self):
        rng = np.random.default_rng(2)
        non_isolated = np.arange(0, 900)
        matrix = plan_saffron_hybrid(ctx(expected=90.0), non_isolated, rng)
        members = matrix.groups.ravel()
        assert np.unique(members).size == members.size
        assert np.isin(members, non_isolated).all()

    def test_group_count_capped_by_pool(self):
        # eta = floor(40/10) = 4 -> 4 rows per group; capacity alone would
        # allow 10 groups but the pool only supplies 40//4 = 10... shrink pool
        matrix = plan_saffron_hybrid(ctx(n=40, capacity=40, expected=3.0),
                                     np.arange(12), np.random.default_rng(3))
        # eta = floor(12/3) = 4, rows 4, capacity allows 10 groups, pool allows 3
        assert len(matrix.groups) == 3
        assert all(len(g) == 4 for g in matrix.groups)
        members = matrix.groups.ravel()
        assert np.unique(members).size == 12

    def test_capacity_never_exceeded(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(4, 400))
            capacity = int(rng.integers(2, n + 1))
            isolated = int(rng.integers(0, n - 2))
            expected = float(rng.uniform(0.0, n))
            matrix = plan_saffron_hybrid(
                ctx(n=n, capacity=capacity, expected=expected),
                np.arange(isolated, n), rng)
            assert matrix.rows <= capacity
            if len(matrix.groups):
                eta = len(matrix.groups[0])
                assert 2 * code_width(eta) <= capacity


class TestRunRound:
    def test_no_infections_no_isolations(self):
        state = make_state(50, infected_idx=())
        _, outcome = run_round(state, 10, np.random.default_rng(0))
        assert outcome.identified.size == 0
        assert outcome.verdicts.size == 0
        assert state.isolated == 0

    def test_full_coverage_catches_everything(self):
        state = make_state(40, infected_idx=[1, 7, 33])
        run_round(state, 40, np.random.default_rng(0))
        assert state.infected == 0
        assert state.isolated == 3

    def test_group_single_infection_isolated(self):
        # expected_infected=3 over 12 individuals gives three disjoint groups
        # of 4 covering everyone; the one infected member's group decodes to
        # it and it lands in isolation
        rng = np.random.default_rng(6)
        for _ in range(50):
            state = make_state(12, infected_idx=[5])
            _, outcome = run_round(state, 12, rng, expected_infected=3.0)
            assert sorted(outcome.verdicts.tolist()) == [Verdict.ALL_NEGATIVE,
                                                         Verdict.ALL_NEGATIVE, Verdict.SINGLE]
            assert outcome.identified.tolist() == [5]
            assert state.statuses[5] == Status.ISOLATED

    def test_soundness_identified_subset_of_infected(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(10, 200))
            cfg = SimConfig(n=n, capacity=int(rng.integers(2, n + 1)),
                            p=float(rng.uniform(0, 0.6)), q=0.0, policy="saffron-hybrid")
            state = init_population(cfg, rng)
            spread_phase(state, 0.01, rng)
            infected_before = set(np.flatnonzero(state.statuses == Status.INFECTED).tolist())
            _, outcome = run_round(state, cfg.capacity, rng,
                                   expected_infected=float(rng.uniform(0, n)))
            assert set(outcome.identified.tolist()) <= infected_before

    def test_individual_miss_rate(self):
        # every circulating infection survives a round with probability
        # 1 - T/n = 0.97; sd of the miss frequency over 3000*20 infected
        # observations is about 0.0007
        rng = np.random.default_rng(9)
        missed = 0
        total = 0
        for _ in range(3000):
            state = make_state(1000, infected_idx=range(20))
            _, outcome = run_round(state, 30, rng)
            missed += 20 - outcome.identified.size
            total += 20
        freq = missed / total
        sigma = np.sqrt(0.03 * 0.97 / total)
        assert abs(freq - 0.97) <= 3 * sigma

    def test_plan_alone_picks_the_round(self):
        # the plan entry, not cfg.policy, picks each step's planner: either
        # config run on the other's plan gives the other's trial, bit for bit
        hybrid = SimConfig(n=100, capacity=30, p=0.1, q=5e-4, horizon=40,
                           policy="saffron-hybrid", seed=977)
        individual = dataclasses.replace(hybrid, policy="individual")
        plan = round_plan(mean_trajectory(TheoryParams.from_config(hybrid), hybrid.policy,
                                          hybrid.horizon), hybrid.policy)
        assert any(e is not None for e in plan)
        individual_plan = [None] * len(plan)
        for k in range(5):
            pooled = run_trial(hybrid, trial_rng(hybrid.seed, k), plan)
            np.testing.assert_array_equal(
                run_trial(individual, trial_rng(hybrid.seed, k), plan), pooled)
            single = run_trial(individual, trial_rng(hybrid.seed, k), individual_plan)
            np.testing.assert_array_equal(
                run_trial(hybrid, trial_rng(hybrid.seed, k), individual_plan), single)
            assert not np.array_equal(pooled, single)
