"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The Monte Carlo experiments at the reference parameters
(n=1000, capacity=30, p=0.2, q=1e-5, horizon=500) are shared module
fixtures on the count-level engine of ``run_experiment``;
``tests/test_engine_equivalence.py`` checks that engine against the
per-individual one. C7 and C8 read one 1000-trial experiment per policy.
C2 and C9 read their own 20,000-trial individual-testing experiment (about
2 s): at 1000 trials C2's 3 SE band over 301 steps failed by chance at 4 of
100 seeds, at 20,000 trials at 3 of 160.

C2 holds the individual-testing mean trajectory to the recursion in
``mean_trajectory``, which models the shrinking susceptible pool, within
max(5% rel, 3 SE) at every t <= 300. The closed form freezes the pool at
n(1-p), so against it C2 asserts only what it promises: the simulated mean
never exceeds it by more than 3 SE, and the epsilon time lands within 10%.
C9 holds the closed-form never-infected count ``expected_alpha`` at t=500
to the simulated mean susceptible count within 0.5%.

Only C7 fails by design: its convergence-time direction. The hybrid planner
sizes its groups from the open-loop recursion estimate, which reaches one
infection long before the simulated mean does; the failure message reports
both steps and the per-trial median control times.
"""

import itertools
import math

import numpy as np
import pytest

from sirpool import SimConfig, empirical_epsilon_time, run_experiment
from sirpool.codec import Verdict, decode_round, evaluate_tests
from sirpool.policies import PolicyContext, plan_saffron_hybrid, run_round
from sirpool.sir import PopulationState, Status, init_population, spread_phase
from sirpool.theory import (
    TheoryParams,
    epsilon_control_time,
    expected_alpha,
    expected_lambda_individual,
    mean_trajectory,
    round_plan,
)
from tests.test_codec import decode_one_group
from tests.test_sir import counts_consistent

SEED = 20260810

REFERENCE = dict(n=1000, capacity=30, p=0.2, q=1e-5, horizon=500, trials=1000, seed=SEED)


def report(label: str, ok: bool, detail: str) -> None:
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def many_trials_individual():
    return run_experiment(SimConfig(policy="individual", **{**REFERENCE, "trials": 20_000}))


@pytest.fixture(scope="module")
def reference_individual():
    return run_experiment(SimConfig(policy="individual", **REFERENCE))


@pytest.fixture(scope="module")
def reference_hybrid():
    return run_experiment(SimConfig(policy="saffron-hybrid", **REFERENCE))


def test_c1_epsilon_control_time():
    params = TheoryParams(n=1000, capacity=30, p=0.2, q=1e-5)
    value = epsilon_control_time(params, 1.0)
    report("C1 closed-form control time", abs(value - 235.57) <= 0.01,
           f"computed {value:.4f}, target 235.57 +/- 0.01")


def test_c2_individual_theory_vs_simulation(many_trials_individual):
    # The closed form holds the susceptible pool at n(1-p), so it bounds the
    # mean only from above; its two-sided gap is reported, not asserted.
    stats = many_trials_individual
    params = TheoryParams.from_config(stats.config)
    ts = np.arange(301)
    recursion = mean_trajectory(params, "individual", 300).expected_infected
    closed = stats.config.n * stats.config.p * params.individual_decay ** ts
    mc = stats.mean_infected[:301]
    se = np.sqrt(stats.var_infected / stats.config.trials)[:301]
    violations = np.flatnonzero(np.abs(mc - recursion) > np.maximum(0.05 * recursion, 3 * se))
    band_ok = violations.size == 0
    z = np.divide(mc - recursion, se, out=np.zeros_like(se), where=se > 0)
    band_detail = (f"{violations.size}/301 steps outside max(5% rel, 3 SE) of the "
                   f"recursion, max |z| {np.abs(z).max():.2f}")
    if not band_ok:
        band_detail += f", t in [{violations[0]}..{violations[-1]}]"
    above = np.flatnonzero(mc - closed > 3 * se)
    bound_ok = above.size == 0
    rel = (mc - closed) / closed
    worst = int(np.argmax(np.abs(rel)))
    over5 = np.flatnonzero(np.abs(rel) > 0.05)
    closed_detail = (f"{above.size} steps above closed + 3 SE; largest relative gap "
                     f"{rel[worst]:+.1%} at t={worst}")
    if over5.size:
        closed_detail += f", beyond 5% for t in [{over5[0]}..{over5[-1]}]"
    reached = empirical_epsilon_time(stats, 1.0)
    time_ok = reached is not None and abs(reached - 235.57) <= 0.1 * 235.57
    report("C2 theory vs simulation (individual)", band_ok and bound_ok and time_ok,
           f"recursion: {band_detail} [{'ok' if band_ok else 'out'}]; closed form: "
           f"{closed_detail} [{'ok' if bound_ok else 'out'}]; epsilon time: {reached} "
           f"vs 235.57 +/- 10% [{'ok' if time_ok else 'out'}]")


def test_c3_pooled_detection_rate():
    # 10000 rounds against a population frozen at exactly 200 circulating
    # infections: group size 5, so each round packs floor(30/6) = 5 integer
    # groups while the closed form accounts (30/2)/log2(5) = 6.4601 groups.
    # The Monte Carlo estimates the per-group single-infection identification
    # probability; scaling it by the closed form's group count makes the two
    # capacity accountings comparable.
    rng = np.random.default_rng(SEED)
    n, capacity, frozen = 1000, 30, 200
    statuses = np.zeros(n, dtype=np.int8)
    statuses[rng.choice(n, size=frozen, replace=False)] = Status.INFECTED
    state = PopulationState(statuses=statuses, susceptible=n - frozen,
                            infected=frozen, isolated=0)
    ctx = PolicyContext(n=n, capacity=capacity, expected_infected=float(frozen))
    pool = np.arange(n)
    formula_groups = (capacity / 2.0) / math.log2(5.0)
    rounds = 10000
    per_round = np.empty(rounds)
    for r in range(rounds):
        matrix = plan_saffron_hybrid(ctx, pool, rng)
        assert len(matrix.groups) == 5 and matrix.single_members.size == 0
        outcome = decode_round(matrix, evaluate_tests(matrix, state))
        singles = np.count_nonzero(outcome.verdicts == Verdict.SINGLE)
        assert np.all(state.statuses[outcome.identified] == Status.INFECTED)
        per_round[r] = formula_groups * singles / len(matrix.groups)
    mean = per_round.mean()
    se = per_round.std(ddof=1) / math.sqrt(rounds)
    target = 2.6460767728029273  # (30/2)/log2(5) * 0.8^4
    report("C3 pooled detections per round", abs(mean - target) <= 3 * se,
           f"mc {mean:.4f} vs closed form {target:.4f}, |gap| = "
           f"{abs(mean - target) / se:.2f} SE over {rounds} rounds")


def test_c4_codec_exhaustive():
    rng = np.random.default_rng(SEED)
    checked = 0
    for eta in range(2, 17):
        assert decode_one_group(eta, []) == (Verdict.ALL_NEGATIVE, [])
        for pos in range(eta):
            assert decode_one_group(eta, [pos]) == (Verdict.SINGLE, [pos])
        for pair in itertools.combinations(range(eta), 2):
            assert decode_one_group(eta, pair) == (Verdict.MULTIPLE, [])
        if eta >= 3:
            for _ in range(1000):
                k = int(rng.integers(3, eta + 1))
                chosen = rng.choice(eta, size=k, replace=False)
                verdict, identified = decode_one_group(eta, chosen)
                assert verdict != Verdict.ALL_NEGATIVE
                assert not (verdict == Verdict.SINGLE and identified[0] not in chosen)
        checked += 1
    report("C4 codec exhaustive decode", checked == 15,
           "sizes 2..16: all 0/1-infection subsets decode exactly, all pairs "
           "report multiple, 1000 random >=3 subsets per size never "
           "misidentify")


def test_c5_invariant_suite():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        n = int(rng.integers(2, 2001))
        cfg = SimConfig(
            n=n,
            capacity=int(rng.integers(1, n + 1)),
            p=float(rng.choice([0.0, 1.0, rng.random(), rng.random() * 0.1])),
            q=float(rng.choice([0.0, 1.0, 10.0 ** rng.uniform(-6, 0)])),
            horizon=int(rng.integers(1, 21)),
            trials=1,
            seed=int(rng.integers(2 ** 31)),
            policy=str(rng.choice(["individual", "saffron-hybrid"])),
        )
        plan = round_plan(mean_trajectory(TheoryParams.from_config(cfg), cfg.policy, cfg.horizon),
                          cfg.policy)
        trial_rng = np.random.default_rng([cfg.seed, 0])
        state = init_population(cfg, trial_rng)
        prev_statuses = state.statuses.copy()
        prev_susceptible, prev_isolated = state.susceptible, state.isolated
        for t in range(1, cfg.horizon + 1):
            spread_phase(state, cfg.q, trial_rng)
            run_round(state, cfg.capacity, trial_rng, plan[t])
            assert state.susceptible + state.infected + state.isolated == n
            assert counts_consistent(state)
            assert state.isolated >= prev_isolated
            assert state.susceptible <= prev_susceptible
            was_isolated = prev_statuses == Status.ISOLATED
            assert np.all(state.statuses[was_isolated] == Status.ISOLATED)
            prev_statuses = state.statuses.copy()
            prev_susceptible, prev_isolated = state.susceptible, state.isolated
    report("C5 conservation/monotonicity/absorption", True,
           "100 random configurations (n <= 2000), every step checked")


def test_c6_control_time_identity():
    rng = np.random.default_rng(SEED)
    draws = 0
    worst = 0.0
    while draws < 1000:
        n = int(rng.integers(10, 5001))
        params = TheoryParams(n=n, capacity=int(rng.integers(1, n + 1)),
                              p=float(rng.uniform(1e-3, 1.0)),
                              q=float(rng.uniform(0.0, 0.5 / n)))
        # epsilon_control_time needs a decay factor in (0, 1); capacity = n gives 0
        if not 0.0 < params.individual_decay < 1.0:
            continue
        epsilon = float(rng.uniform(0.0, 1.0)) * n * params.p
        if epsilon <= 0.0:
            continue
        t = epsilon_control_time(params, epsilon)
        value = expected_lambda_individual(params, t)
        worst = max(worst, abs(value - epsilon) / epsilon)
        draws += 1
    report("C6 control-time inverse identity", worst <= 1e-9,
           f"1000 random draws, worst relative error {worst:.2e} (limit 1e-9)")


def test_c7_policy_comparison(reference_individual, reference_hybrid):
    ind, hyb = reference_individual, reference_hybrid
    alpha_ind = ind.mean_susceptible[-1]
    alpha_hyb = hyb.mean_susceptible[-1]
    alpha_ok = alpha_ind > alpha_hyb
    t_ind = empirical_epsilon_time(ind, 1.0)
    t_hyb = empirical_epsilon_time(hyb, 1.0)
    time_ok = t_hyb is not None and (t_ind is None or t_hyb < t_ind)
    # The hybrid sizes its groups from the open-loop recursion estimate; where
    # that estimate falls faster than the simulated count, groups are oversized.
    planner_hits = np.flatnonzero(hyb.theory.expected_infected <= 1.0)
    t_planner = int(planner_hits[0]) if planner_hits.size else None
    report("C7 policy comparison directions", alpha_ok and time_ok,
           f"steady susceptible: individual {alpha_ind:.1f} vs hybrid {alpha_hyb:.1f} "
           f"[{'ok' if alpha_ok else 'out'}]; mean infected reaches 1 at: hybrid "
           f"{t_hyb} vs individual {t_ind} [{'ok' if time_ok else 'out'}]; cause: "
           f"hybrid planner's estimate reaches 1 at t={t_planner} vs Monte Carlo "
           f"t={t_hyb}; median per-trial control time: hybrid "
           f"{np.median(hyb.control_time):g} ({hyb.control_censored.sum()} censored) "
           f"vs individual {np.median(ind.control_time):g} "
           f"({ind.control_censored.sum()} censored)")


def test_c8_both_policies_converge(reference_individual, reference_hybrid):
    final_ind = reference_individual.mean_infected[-1]
    final_hyb = reference_hybrid.mean_infected[-1]
    report("C8 converged by horizon", final_ind < 1.0 and final_hyb < 1.0,
           f"mean infected at t=500: individual {final_ind:.4f}, "
           f"hybrid {final_hyb:.4f} (limit 1.0)")


def test_c9_expected_alpha_individual(many_trials_individual):
    """Closed-form never-infected count against the simulation, individual testing.

    ``expected_alpha`` puts the mean exposure in the exponent of (1-q) and
    grows it with the frozen-pool factor, and both approximations lower it
    below the simulated mean. At ``SEED`` it reads 731.20 against 732.38 +/-
    0.135, a gap of -0.16%, about 9 SE: no SE band fits a model gap, so the
    band is relative. 0.5% is three times the measured gap, and it still
    fails when the exponent is off by 10% (a gap of about -1%). Under the
    hybrid policy the recursion follows the planner's open-loop estimate,
    and its never-infected count overshoots the simulation by 9.8% (675.6
    vs 615.1 at ``SEED``, 20,000 trials): that is C7's mechanism, so it is
    not asserted here.
    """
    stats = many_trials_individual
    t = 500
    alpha = expected_alpha(TheoryParams.from_config(stats.config), t)
    mc = stats.mean_susceptible[t]
    se = math.sqrt(stats.var_susceptible[t] / stats.config.trials)
    gap = (alpha - mc) / mc
    report("C9 closed-form never-infected count (individual)", abs(gap) <= 0.005,
           f"expected_alpha {alpha:.2f} vs Monte Carlo {mc:.2f} +/- {se:.3f} at t={t}, "
           f"gap {gap:+.2%} (limit 0.5%)")
