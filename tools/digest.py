"""Bit-identity digest of sirpool's outputs over a fixed set of runs.

Four sets of runs, each stated below:

- ``run_experiment`` on 81 configs (``EXPERIMENTS``): every
  ``TrajectoryStats`` array, its theory curve's included;
- ``mean_trajectory`` and ``round_plan`` on 240 ``TheoryParams`` configs
  (``THEORY``) under both policies at horizons 0, 1 and 500; a plan is
  digested as float64 with NaN at its None steps;
- ``run_trial`` on the first 5 trials of each config of
  ``tests/test_engine_equivalence.py`` (``ORACLE``);
- ``cli.write_csv`` and ``cli.write_svg`` on the benchmark's four workloads
  at seed 1 (``CLI_OUTPUTS``), with and without the theory overlay.

Each array gets one SHA-256 over its dtype, shape and bytes, and each
written file one over its bytes. The digests go to a JSON file with the
numpy version, whose samplers fix the streams. ``--compare FILE`` digests
this tree instead and names every array or file whose digest differs from
FILE's or that only one side has; it exits 1 if there is any, and 2,
comparing nothing, when FILE was made under another numpy::

    PYTHONPATH=src python tools/digest.py --compare tools/digest.json
    PYTHONPATH=src python tools/digest.py            # rewrites tools/digest.json

sirpool is imported from PYTHONPATH, so the same script digests another
checkout: point PYTHONPATH at its ``src`` and write with ``--out FILE``. A
change that alters a stream on purpose rewrites ``tools/digest.json`` and
says so.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import sys
import tempfile
from fractions import Fraction

import numpy as np

import sirpool
from sirpool import SimConfig, run_experiment
from sirpool.cli import write_csv, write_svg
from sirpool.harness import run_trial, trial_rng
from sirpool.theory import TheoryParams, mean_trajectory, round_plan

POLICIES = ("individual", "saffron-hybrid")


def _experiments() -> list[dict]:
    ref = dict(n=1000, capacity=30, q=1e-5)
    large = dict(n=100_000, capacity=3000, q=1e-7)
    configs = [  # the benchmark's four workloads, at seeds 1-4
        dict(**shape, p=0.2, horizon=500, policy=policy, trials=trials, seed=seed)
        for shape, policy, trials in [(ref, "individual", 50), (ref, "saffron-hybrid", 20),
                                      (large, "individual", 2), (large, "saffron-hybrid", 2)]
        for seed in range(1, 5)]
    # trial counts on both sides of the scalar phase's SCALAR_STEP_MAX = 11
    configs += [dict(n=n, capacity=capacity, q=q, p=0.2, horizon=500, policy=policy,
                     trials=trials, seed=11)
                for n, capacity, q in [(1000, 30, 1e-5), (1000, 30, 1e-3),
                                       (100_000, 3000, 1e-7), (60, 60, 1e-3)]
                for policy in POLICIES for trials in (1, 2, 5, 11, 12, 30, 300)]
    configs += [dict(**ref, p=0.0, horizon=500, policy=policy, trials=30, seed=11)
                for policy in POLICIES]
    # the acceptance suite's two 1000-trial fixtures
    configs += [dict(**ref, p=0.2, horizon=500, policy=policy, trials=1000, seed=20260810)
                for policy in POLICIES]
    # the reference epidemic at n=3000: its pooled array steps read only
    # tables (131), mix table-sized and wide rounds (35) or call numpy's
    # samplers alone (10)
    configs.append(dict(n=3000, capacity=90, q=3.3e-6, p=0.2, horizon=500,
                        policy="saffron-hybrid", trials=30, seed=11))
    # n + 1 past the spread table's 2^17 entries, with array steps: they
    # compute the spread per step, and their individual rounds, past the
    # singles table's cap, call numpy's sampler on arrays
    configs += [dict(n=140_000, capacity=70_000, q=1e-8, p=0.2, horizon=40, policy=policy,
                     trials=trials, seed=11)
                for policy in POLICIES for trials in (12, 30)]
    return configs


def _theory_params() -> list[TheoryParams]:
    f16, f32, i64 = np.float16, np.float32, np.int64
    big = 10 ** 9 - 1
    fixed = [
        (1, 1, 0.2, 1e-5), (1, 1, 1, 0.5), (1, 1, 0, 0.0), (big, 30, 0.2, 1e-5),
        (big, big, 0.2, 1e-9), (big, 3 * 10 ** 7, 0.2, 1e-11), (1000, 30, 0.2, 0.0),
        (1000, 30, 0.2, 1.0), (1000, 1000, 0.2, 1e-5), (100, 100, 0.5, 1.0),
        (1000, 30, 0, 1e-5), (1000, 30, 1, 1e-5), (1000, 1000, 1, 1.0), (1000, 30, 0, 0),
        (i64(1000), 30, np.float64(0.2), 1e-5),
        (i64(10 ** 5), i64(3000), np.float64(0.2), 1e-7),
        (np.int32(500), 20, f32(0.1), 1e-4), (i64(1000), 30, 1, 1e-5),
        (1000, 30, 0.2, 1e-5), (10 ** 5, 3000, 0.2, 1e-7), (10 ** 6, 30_000, 0.2, 1e-8),
        (2, 2, 0.5, 0.5), (3, 1, 0.9, 0.3), (1000, 1, 0.2, 1e-5), (1000, 30, 0.99, 1e-3),
        # numpy and exact numbers beside Python floats
        (1000, 30, f32(0.2), 1e-5), (1000, 30, 0.2, f32(1e-5)), (1000, 30, f32(0.2), f32(1e-5)),
        (10 ** 5, 3000, f32(0.2), f32(1e-7)), (1000, 30, f16(0.2), f16(1e-3)),
        (i64(1000), 30, 0.2, f32(1e-5)), (1000, np.int16(30), f32(0), 1e-5),
        (1000, 30, f32(1), f32(1e-5)), (big, 30, f32(0.2), f32(1e-9)),
        (1, 1, f32(0.5), f32(1.0)), (1000, 30, Fraction(1, 5), Fraction(1, 100_000)),
        (np.uint16(1000), np.uint8(30), 0.2, 1e-5),
    ]
    # n log-uniform in [1, 10^9 - 1], T uniform in [1, n] or n, p uniform,
    # q log-uniform in [1e-12, 1] or one of its ends
    rng = np.random.default_rng(2026)
    drawn = []
    for _ in range(203):
        n = min(max(int(10 ** rng.uniform(0, 9)), 1), big)
        capacity = n if rng.random() < 0.1 else int(rng.integers(1, n + 1))
        p = float(rng.random())
        q = float(rng.choice([0.0, 1.0]) if rng.random() < 0.1 else 10 ** rng.uniform(-12, 0))
        drawn.append((n, capacity, p, q))
    return [TheoryParams(n=n, capacity=c, p=p, q=q) for n, c, p, q in fixed + drawn]


EXPERIMENTS = _experiments()
# the benchmark's four workloads at seed 1, among the 16 configs that open EXPERIMENTS
CLI_OUTPUTS = [kwargs for kwargs in EXPERIMENTS[:16] if kwargs["seed"] == 1]
THEORY = _theory_params()
ORACLE_SEED, ORACLE_TRIALS, ORACLE_RUNS = 977, 1500, 5
ORACLE = {
    "individual": dict(n=100, capacity=20, p=0.2, q=2e-4, horizon=40, policy="individual"),
    "hybrid-pooled-first": dict(n=100, capacity=30, p=0.1, q=5e-4, horizon=40,
                                policy="saffron-hybrid"),
    "hybrid-fallback-first": dict(n=100, capacity=30, p=0.6, q=1e-3, horizon=40,
                                  policy="saffron-hybrid"),
    "hybrid-wide-rounds": dict(n=400, capacity=256, p=0.4, q=2e-4, horizon=30,
                               policy="saffron-hybrid"),
}


def sha256(array: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape and C-order bytes."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype.str} {array.shape} ".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def _fields(prefix: str, record) -> dict[str, str]:
    return {f"{prefix}/{f.name}": sha256(getattr(record, f.name))
            for f in dataclasses.fields(record)
            if isinstance(getattr(record, f.name), np.ndarray)}


def digests() -> dict[str, str]:
    """Every array's SHA-256, by name."""
    out = {}
    for kwargs in EXPERIMENTS:
        cfg = SimConfig(**kwargs)
        name = "experiment " + " ".join(f"{key}={value}" for key, value in kwargs.items())
        stats = run_experiment(cfg)
        out.update(_fields(name, stats))
        out.update(_fields(name + "/theory", stats.theory))
    for k, params in enumerate(THEORY):
        for policy in POLICIES:
            for horizon in (0, 1, 500):
                name = f"theory {k} {policy} horizon={horizon}"
                curve = mean_trajectory(params, policy, horizon)
                out.update(_fields(name, curve))
                plan = round_plan(curve, policy)
                out[name + "/round_plan"] = sha256(
                    np.array([np.nan if e is None else e for e in plan], dtype=np.float64))
    for config, kwargs in ORACLE.items():
        cfg = SimConfig(trials=ORACLE_TRIALS, seed=ORACLE_SEED, **kwargs)
        curve = mean_trajectory(TheoryParams.from_config(cfg), cfg.policy, cfg.horizon)
        plan = round_plan(curve, cfg.policy)
        for k in range(ORACLE_RUNS):
            out[f"run_trial {config} trial={k}"] = sha256(
                run_trial(cfg, trial_rng(cfg.seed, k), plan))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "out"
        for kwargs in CLI_OUTPUTS:
            stats = run_experiment(SimConfig(**kwargs))
            name = " ".join(f"{key}={value}" for key, value in kwargs.items())
            for writer in (write_csv, write_svg):
                for theory in (False, True):
                    writer(str(path), stats, theory)
                    out[f"{writer.__name__} {name} theory={theory}"] = hashlib.sha256(
                        path.read_bytes()).hexdigest()
    return out


def compare(reference: dict, current: dict) -> list[str]:
    """One line per array whose digest differs or that only one side has."""
    lines = []
    for name in sorted(reference.keys() | current.keys()):
        if name not in current:
            lines.append(f"only in the reference: {name}")
        elif name not in reference:
            lines.append(f"only in this tree: {name}")
        elif reference[name] != current[name]:
            lines.append(f"differs: {name}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(__file__).with_name("digest.json"),
                        help="where to write the digest (default: %(default)s)")
    parser.add_argument("--compare", type=pathlib.Path, metavar="FILE",
                        help="compare this tree with the digest in FILE; write nothing")
    args = parser.parse_args(argv)
    reference = json.loads(args.compare.read_text()) if args.compare else None
    if reference is not None and reference["numpy"] != np.__version__:
        print(f"{args.compare} was made under numpy {reference['numpy']}, this is "
              f"{np.__version__}: streams may differ, not comparing", file=sys.stderr)
        return 2
    print(f"digesting {pathlib.Path(sirpool.__file__).parent}", file=sys.stderr)
    current = digests()
    if reference is None:
        args.out.write_text(json.dumps({"numpy": np.__version__, "arrays": current},
                                       indent=1, sort_keys=True) + "\n")
        print(f"{len(current)} arrays written to {args.out}")
        return 0
    lines = compare(reference["arrays"], current)
    for line in lines:
        print(line)
    total = len(reference["arrays"].keys() | current.keys())
    print(f"{len(lines)} of {total} arrays differ or are missing from one side")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
