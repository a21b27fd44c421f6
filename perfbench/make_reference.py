"""Write perfbench/reference/<workload>.json: a many-trial reference trajectory.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]

Each file holds the per-step mean and variance of the infected count over
``trials`` trials of the workload's config, run with base seed ``seed`` on the
per-individual engine, plus the commit it was made at. ``checks`` compares
every benchmark run's pooled trajectory against it. Regenerate only when the
model itself changes on purpose, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys
import time

import bootstrap

bootstrap.pin_threads()

from checks import REFERENCE_DIR, first_at_or_below  # noqa: E402
from workloads import EPSILON, WORKLOADS  # noqa: E402

SEED = 20220519
TRIALS = {"ref-individual": 4000, "ref-hybrid": 2000,
          "large-individual": 200, "large-hybrid": 150}


def make(name: str) -> dict:
    import sirpool

    workload = WORKLOADS[name]
    kwargs = {**workload.config_kwargs(SEED), "trials": TRIALS[name]}
    start = time.perf_counter()
    stats = sirpool.run_experiment(sirpool.SimConfig(**kwargs))
    return {
        "workload": name,
        "config": kwargs,
        "seed": SEED,
        "trials": TRIALS[name],
        "commit": bootstrap.git_commit(),
        "seconds": time.perf_counter() - start,
        "epsilon": EPSILON,
        "epsilon_time": first_at_or_below(stats.mean_infected, EPSILON),
        "mean_infected": stats.mean_infected.tolist(),
        "var_infected": stats.var_infected.tolist(),
    }


def main(names) -> None:
    bootstrap.use_checkout_source()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        reference = make(name)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(reference) + "\n",
                                                    encoding="utf-8")
        print(f"{name}: {reference['trials']} trials in {reference['seconds']:.1f} s, "
              f"epsilon-time {reference['epsilon_time']}")


if __name__ == "__main__":
    main(sys.argv[1:])
