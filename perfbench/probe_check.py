"""How much does the workload move the speed probe that scales the timings?

Usage: python3 perfbench/probe_check.py [--segment-s 2] [--rounds 24]

Runs four loads in turn, one segment each per round, in one process pinned
to one CPU with the speed sampler running: ref-individual experiments,
large-hybrid experiments, a pure-Python loop, and np.sort of 2M floats,
which releases the interpreter lock. For each load it prints the quartiles
of its mean probe time over the pure-Python loop's in the same round. A
median far from 1 means that load moves the probe, and so the scaled
figures, by that much.
"""

from __future__ import annotations

import argparse
import statistics
import time

import bootstrap

bootstrap.pin_threads()  # before the first numpy import

import numpy as np  # noqa: E402

import speed  # noqa: E402
from workloads import WORKLOADS, experiment_seed  # noqa: E402


def experiments(name: str, sirpool):
    workload = WORKLOADS[name]

    def run(deadline: float) -> None:
        k = 0
        while time.perf_counter() < deadline:
            sirpool.run_experiment(sirpool.SimConfig(**workload.config_kwargs(
                experiment_seed(0, k))))
            k += 1
    return run


def python_loop(deadline: float) -> None:
    while time.perf_counter() < deadline:
        total = 0
        for i in range(100_000):
            total += i % 7


_BIG = np.random.default_rng(0).random(2_000_000)


def numpy_sort(deadline: float) -> None:
    while time.perf_counter() < deadline:
        np.sort(_BIG)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--segment-s", type=float, default=2.0)
    parser.add_argument("--rounds", type=int, default=24)
    args = parser.parse_args()
    bootstrap.use_checkout_source()
    import sirpool

    bootstrap.check_imported(sirpool)
    bootstrap.pin_cpu()
    loads = {"ref-individual": experiments("ref-individual", sirpool),
             "large-hybrid": experiments("large-hybrid", sirpool),
             "python-loop": python_loop, "numpy-sort-2M": numpy_sort}
    probe_s = {name: [] for name in loads}
    with speed.SpeedSampler() as sampler:
        for _ in range(args.rounds):
            for name, load in loads.items():
                start = time.perf_counter()
                load(start + args.segment_s)
                probe_s[name].append(speed.REFERENCE_PROBE_S
                                     / sampler.scale(start, time.perf_counter()))
    for name, values in probe_s.items():
        ratios = [a / b for a, b in zip(values, probe_s["python-loop"])]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        print(f"{name:<15} probe time over python-loop's: median {median:.3f} "
              f"(quartiles {q1:.3f}-{q3:.3f}, {len(ratios)} rounds)")


if __name__ == "__main__":
    main()
