"""Codec micro-benchmark: per-group cost of evaluate_tests and decode_round.

Inside a ``large-hybrid`` trial the group size drifts from ~5 to hundreds,
so the traced run alone cannot say how the codec's cost depends on it. Here
every synthetic matrix holds groups of one size eta, each with exactly one
infected member, so every group decodes to SINGLE and the decoder's output is
known in advance.
"""

from __future__ import annotations

import time

import numpy as np

from tracing import SHAPE_ERRORS

ETAS = (4, 64, 1024)
MEMBERS = 16384  # individuals per synthetic matrix: 4096 groups of 4 ... 16 of 1024
MIN_SECONDS = 0.15  # time each function at least this long per eta
MIN_REPEATS = 5


def metric_names() -> list[str]:
    return [f"codec.micro.{fn}.eta{eta}.us_per_group"
            for eta in ETAS for fn in ("evaluate_tests", "decode_round")]


def _median_seconds(call, scale) -> tuple[float, int]:
    times = []
    begin = time.perf_counter()
    while len(times) < MIN_REPEATS or time.perf_counter() < begin + MIN_SECONDS:
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * scale(begin, time.perf_counter()), len(times)


def codec_micro(seed: int, scale=lambda start, end: 1.0) -> tuple[dict, dict, list[str]]:
    """Return (metrics in us/group, repeat counts, problems).

    scale(start, end) gives the factor that brings times measured between
    two perf_counter readings to the reference speed (see ``speed``).
    """
    from sirpool import codec, sir

    rng = np.random.default_rng([seed, 1024])
    metrics, repeats, problems = {}, {}, []
    for eta in ETAS:
        groups = MEMBERS // eta
        members = rng.permutation(MEMBERS).reshape(groups, eta)
        infected = members[np.arange(groups), rng.integers(eta, size=groups)]
        try:
            statuses = np.full(MEMBERS, int(sir.Status.SUSCEPTIBLE), dtype=np.int8)
            statuses[infected] = int(sir.Status.INFECTED)
            state = sir.PopulationState(statuses=statuses, susceptible=MEMBERS - groups,
                                        infected=groups, isolated=0)
            matrix = codec.assemble_matrix(MEMBERS, list(members), [])
            results = codec.evaluate_tests(matrix, state)
            outcome = codec.decode_round(matrix, results)
            found = np.sort(np.asarray(outcome.identified))
        except SHAPE_ERRORS:
            continue  # the codec's interface changed: report these metrics as absent
        if not np.array_equal(found, np.sort(infected)):
            problems.append(f"micro eta={eta}: decode_round did not identify the "
                            f"{groups} planted infections")
            continue
        for fn, call in (("evaluate_tests", lambda: codec.evaluate_tests(matrix, state)),
                         ("decode_round", lambda: codec.decode_round(matrix, results))):
            seconds, count = _median_seconds(call, scale)
            name = f"codec.micro.{fn}.eta{eta}.us_per_group"
            metrics[name] = seconds / groups * 1e6
            repeats[name] = count
    return metrics, repeats, problems
