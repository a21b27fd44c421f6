"""The benchmark's workloads: one fixed experiment config each, plus seed derivation.

Every workload keeps p=0.2 and horizon=500. The ``large-*`` pair keeps the
reference n*q=0.01 and capacity/n=0.03, so it models the same epidemic at
100x the population. Why each workload exists is in ``README.md`` and
``BENCHMARK.json``; ``reason_holds`` checks those reasons against a traced run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPSILON = 1.0  # infected-count threshold, the CLI default


@dataclass(frozen=True)
class Workload:
    """One experiment config, run over and over.

    trials:      trials per run_experiment call. A user's experiment has
                 hundreds or thousands of trials; here each experiment runs
                 the most trials that still leave ~20 experiments in a 20 s
                 run for the median (5-6 on large-hybrid, whose single
                 trial takes ~2 s). The work done once per experiment
                 (expected trajectory, aggregation, CSV and SVG) then stays
                 near 1% of the time or less (``experiment.fixed_share``).
    trace_rate:  traced experiments per second of ``--seconds``; the traced
                 run does this fixed amount of work so its counts repeat
                 exactly for a given seed
    """

    name: str
    n: int
    capacity: int
    q: float
    policy: str
    trials: int
    trace_rate: float
    p: float = 0.2
    horizon: int = 500

    def config_kwargs(self, seed: int) -> dict:
        return dict(n=self.n, capacity=self.capacity, p=self.p, q=self.q,
                    horizon=self.horizon, trials=self.trials, seed=seed,
                    policy=self.policy, epsilon=EPSILON)

    def trace_experiments(self, seconds: float) -> int:
        return max(1, round(seconds * self.trace_rate))


WORKLOADS = {w.name: w for w in (
    Workload("ref-individual", n=1000, capacity=30, q=1e-5, policy="individual",
             trials=50, trace_rate=0.25),
    Workload("ref-hybrid", n=1000, capacity=30, q=1e-5, policy="saffron-hybrid",
             trials=20, trace_rate=0.2),
    Workload("large-individual", n=100_000, capacity=3000, q=1e-7, policy="individual",
             trials=2, trace_rate=0.6),
    Workload("large-hybrid", n=100_000, capacity=3000, q=1e-7, policy="saffron-hybrid",
             trials=2, trace_rate=0.05),
)}


def experiment_seed(seed: int, k: int) -> int:
    """Base seed of a run's k-th experiment, derived from the run's --seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _share(metrics: dict, *names: str) -> float:
    return sum(metrics.get(f"{name}.share", 0.0) for name in names)


CODEC = ("codec.assemble_matrix", "codec.evaluate_tests", "codec.decode_round")


def reason_holds(workload: str, metrics: dict) -> tuple[bool, str]:
    """Check a traced run against the reason the workload was chosen."""
    if workload == "ref-individual":
        groups = metrics.get("codec.groups")
        return groups == 0, f"codec sees only singleton rows (groups={groups})"
    if workload == "ref-hybrid":
        pooled = metrics.get("policies.pooled_rounds", 0)
        fallback = metrics.get("policies.fallback_rounds", 0)
        return (pooled > 0 and fallback > 0,
                f"both planner branches run (pooled={pooled}, fallback={fallback})")
    if workload == "large-hybrid":
        share = _share(metrics, *CODEC)
        return share > 0.5, f"codec holds most self time (share={share:.3f})"
    if workload == "large-individual":
        shares = {k[:-len(".share")]: v for k, v in metrics.items() if k.endswith(".share")}
        top = max(shares, key=shares.get) if shares else None
        return top == "sir.spread_phase", f"largest self time is {top}"
    raise KeyError(workload)
