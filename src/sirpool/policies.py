"""The per-individual oracle's planner and round driver.

Two planners, both returning a TestMatrix no taller than the per-round
capacity: random individual testing, and the hybrid pooled policy, which
draws the round that ``theory.saffron_layout`` shapes: as many code blocks
as fit, topped up with random singleton tests, and none, which is
individual testing, in the regimes where pooling stops paying off.
``run_round`` picks the planner from its step's ``theory.round_plan`` entry
alone, so a new policy is a new plan, not a new branch here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import RoundOutcome, TestMatrix, assemble_matrix, decode_round, evaluate_tests
from .sir import PopulationState, Status, isolate
from .theory import saffron_layout


@dataclass(frozen=True)
class PolicyContext:
    """What the planner is allowed to see at one time step.

    The tester knows the population size, its per-round test budget and the
    theory estimate of the post-spread infected count (``expected_infected``);
    it never observes true infection statuses directly.
    """

    n: int
    capacity: int
    expected_infected: float = 0.0


def plan_individual(ctx: PolicyContext, rng: np.random.Generator) -> TestMatrix:
    """Singleton tests on ``capacity`` distinct individuals drawn uniformly from all n.

    Isolated individuals may be drawn; those tests are knowingly wasted,
    which keeps every circulating infection's per-round detection
    probability at exactly capacity/n.
    """
    tested = rng.choice(ctx.n, size=ctx.capacity, replace=False)
    return assemble_matrix(ctx.n, [], tested)


def plan_saffron_hybrid(ctx: PolicyContext, non_isolated,
                        rng: np.random.Generator) -> TestMatrix:
    """Pooled groups over the non-isolated individuals, leftover rows as singletons.

    Groups of size eta = floor(pool / expected_infected), where pool is the
    number of non-isolated individuals, are drawn disjointly from them, as
    many as ``saffron_layout`` fits. Remaining capacity goes to singleton
    tests drawn from the whole population. Where the switch rule says
    pooling is not worthwhile the layout has no groups, and the round draws
    exactly the tests plan_individual would, from the same random numbers.
    """
    pool = np.asarray(non_isolated, dtype=np.int64)
    eta, n_groups, leftover = saffron_layout(pool.size, ctx.expected_infected, ctx.capacity)
    groups = rng.choice(pool, size=n_groups * eta, replace=False).reshape(n_groups, eta)
    singles = rng.choice(ctx.n, size=leftover, replace=False)
    return assemble_matrix(ctx.n, groups, singles)


def run_round(state: PopulationState, capacity: int, rng: np.random.Generator,
              expected_infected: float | None = None) -> tuple[PopulationState, RoundOutcome]:
    """One testing phase: plan, test, decode, isolate.

    ``expected_infected`` is the step's ``theory.round_plan`` entry, and it
    alone picks the planner: None plans individual testing, and an estimate
    plans the hybrid round pooled from it. The state must already be past
    this step's spread phase. Identification uses only this round's
    results; identified individuals are isolated before the function
    returns.
    """
    if expected_infected is None:
        matrix = plan_individual(PolicyContext(state.n, capacity), rng)
    else:
        matrix = plan_saffron_hybrid(PolicyContext(state.n, capacity, expected_infected),
                                     np.flatnonzero(state.statuses != Status.ISOLATED), rng)
    results = evaluate_tests(matrix, state)
    outcome = decode_round(matrix, results)
    isolate(state, outcome.identified)
    return state, outcome
