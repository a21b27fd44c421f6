"""sirpool benchmark: closed-loop Monte Carlo experiments, one process, one thread.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` runs experiments of the workload's fixed config back to back
for S seconds, through the package's public surface only, and reports the
end-to-end metrics. ``--trace 1`` runs a fixed number of experiments twice,
untraced and then traced, requires identical results, and reports per-layer
metrics plus the codec micro-benchmark. Either way every experiment's output
is checked, a results file with the run's metadata is written under
``perfbench/out/``, and the last line printed is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import bootstrap

bootstrap.pin_threads()  # before the first numpy import

import numpy as np  # noqa: E402

import checks  # noqa: E402
import micro  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, experiment_seed, reason_holds  # noqa: E402

SETUP_PROBES = 7  # fresh processes timed per run; one more runs first, untimed, to warm caches
SETUP_TIMEOUT_S = 60
END_TO_END_UNITS = {"trials_per_s": "trials/s", "experiment_s_p50": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Experiments:
    """Runs and checks a workload's experiments, k = 0, 1, 2, ..."""

    def __init__(self, sirpool, workload, seed: int, out_dir: str, sampler):
        self.sirpool = sirpool
        self.sampler = sampler
        self.workload = workload
        self.seed = seed
        self.csv_path = os.path.join(out_dir, "trajectory.csv")
        self.svg_path = os.path.join(out_dir, "trajectory.svg")
        self.seeds: list[int] = []
        self.windows: list[tuple[float, float]] = []  # perf_counter start and end
        self.trials = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.pool = checks.Pool()

    def run(self, k: int):
        """Run, write and check experiment k; return its stats, or None if it failed."""
        seed = experiment_seed(self.seed, k)
        self.seeds.append(seed)
        sirpool = self.sirpool
        try:
            start = time.perf_counter()
            try:
                cfg = sirpool.SimConfig(**self.workload.config_kwargs(seed))
                stats = sirpool.run_experiment(cfg)
                sirpool.cli.write_csv(self.csv_path, stats, False)
                sirpool.cli.write_svg(self.svg_path, stats, False)
                reached = sirpool.empirical_epsilon_time(stats, cfg.epsilon)
            finally:
                self.windows.append((start, time.perf_counter()))
            problems = (checks.check_experiment(stats, reached)
                        + checks.check_csv(self.csv_path, stats)
                        + checks.check_svg(self.svg_path))
        except Exception:  # an engine that raises fails this experiment, not the run
            stats, problems = None, [traceback.format_exc(limit=3).strip()]
        if problems:
            self.fail(k, problems)
            return None
        self.trials += cfg.trials
        self.pool.add(stats)
        return stats

    def seconds(self, scaled: bool = True) -> list[float]:
        """Each experiment's wall time, scaled to the reference speed unless scaled=False."""
        return [(end - start) * (self.sampler.scale(start, end) if scaled else 1.0)
                for start, end in self.windows]

    def fail(self, k: int, problems: list[str]) -> None:
        self.failed.add(k)
        self.problems.extend(f"experiment {k}: {p}" for p in problems)

    def reference_check(self) -> dict:
        if not self.pool.trials:
            return {}
        reference = checks.load_reference(self.workload.name)
        problems, detail = checks.compare_to_reference(
            reference, self.pool.mean_infected, self.pool.trials)
        self.problems.extend(f"reference: {p}" for p in problems)
        detail["passed"] = not problems
        return detail


def tail_percentile(samples: list[float]) -> dict:
    """The highest of p99/p95/p90 with at least ten samples beyond it, if any."""
    for pct in (99, 95, 90):
        if len(samples) * (100 - pct) / 100 >= 10:
            return {f"p{pct}": float(np.percentile(samples, pct))}
    return {}


def measure_setup(workload, sampler) -> tuple[list[float], list[float]]:
    """setup_s of SETUP_PROBES fresh processes, raw and scaled to the reference speed."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    kwargs = json.dumps(workload.config_kwargs(0))
    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, probe, kwargs], capture_output=True, text=True,
                              check=True, timeout=SETUP_TIMEOUT_S)
        if i:  # the first process only warms the file cache
            raw.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
            scaled.append(raw[-1] * sampler.scale(start, time.perf_counter()))
    return raw, scaled


def run_untraced(sirpool, workload, args, out_dir, sampler) -> dict:
    setup_raw, setup = measure_setup(workload, sampler)
    runner = Experiments(sirpool, workload, args.seed, out_dir, sampler)
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        runner.run(k)
        k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw, seconds = runner.seconds(scaled=False), runner.seconds()
    metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
    if runner.trials:
        metrics["trials_per_s"] = runner.trials / sum(seconds)
        metrics["experiment_s_p50"] = statistics.median(seconds)
    return {
        "runner": runner,
        "reference_check": runner.reference_check(),
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "samples": {"experiment_s": len(raw), "setup_s": len(setup),
                    "trials": runner.trials},
        "experiment_s": {"raw": raw, "scaled": seconds},
        "setup_s": {"raw": setup_raw, "scaled": setup},
        "experiment_s_tail": tail_percentile(seconds),
        "raw": {"trials_per_s": runner.trials / sum(raw),
                "experiment_s_p50": statistics.median(raw),
                "setup_s": statistics.median(setup_raw)},
    }


def same(a, b) -> bool:
    """Deep equality for stats objects: dataclasses field by field, arrays exactly."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (np.asarray(a).dtype == np.asarray(b).dtype
                and np.array_equal(a, b, equal_nan=True))
    return bool(a == b)


def run_traced(sirpool, workload, args, out_dir, sampler) -> dict:
    count = workload.trace_experiments(args.seconds)
    untraced = Experiments(sirpool, workload, args.seed, out_dir, sampler)
    plain = [untraced.run(k) for k in range(count)]

    tracer = tracing.Tracer()
    traced = Experiments(sirpool, workload, args.seed, out_dir, sampler)
    with tracer.installed():
        replay = [traced.run(k) for k in range(count)]
    traced_wall = sum(traced.seconds(scaled=False))
    overhead = sum(traced.seconds()) / sum(untraced.seconds()) - 1.0
    for k, (a, b) in enumerate(zip(plain, replay)):
        if a is not None and b is not None and not same(a, b):
            untraced.fail(k, ["traced TrajectoryStats differ from the untraced run's"])
    untraced.failed |= traced.failed
    untraced.problems.extend(f"traced {p}" for p in traced.problems)

    metrics = tracer.metrics(traced_wall, overhead,
                             time_scale=sum(traced.seconds()) / traced_wall)
    micro_metrics, micro_repeats, micro_problems = micro.codec_micro(args.seed, sampler.scale)
    metrics.update(micro_metrics)
    untraced.problems.extend(micro_problems)
    units = {name: unit for name, (unit, _) in tracing.COUNT_METRICS.items()}
    units.update({name: tracing.SPAN_METRICS[name.rsplit(".", 1)[1]][0]
                  for name in tracing.span_metric_names()})
    units.update(dict.fromkeys(micro.metric_names(), "us/group"))
    holds, why = reason_holds(workload.name, metrics)
    return {
        "runner": untraced,
        "reference_check": untraced.reference_check(),
        "metrics": metrics,
        "units": units,
        "samples": {**tracer.samples(), "experiments": count, "micro_repeats": micro_repeats},
        "absent": sorted(tracer.absent),
        "reason": {"holds": holds, "detail": why},
        "wall_s": {"untraced": sum(untraced.seconds(scaled=False)), "traced": traced_wall},
    }


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": bootstrap.git_commit(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.use_checkout_source()
    import sirpool
    import sirpool.cli

    bootstrap.check_imported(sirpool)
    workload = WORKLOADS[args.workload]
    bootstrap.OUT.mkdir(parents=True, exist_ok=True)
    host = machine()
    host["pinned_cpu"] = bootstrap.pin_cpu()
    with tempfile.TemporaryDirectory(dir=bootstrap.OUT) as out_dir, \
            speed.SpeedSampler() as sampler:
        run = (run_traced if args.trace else run_untraced)(sirpool, workload, args, out_dir,
                                                           sampler)
    runner = run.pop("runner")
    attempted, failed = len(runner.seeds), len(runner.failed)
    correct = failed == 0 and not runner.problems
    metrics = {name: {"value": value, "unit": run["units"][name]}
               for name, value in run.pop("metrics").items()}

    results = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": host, "thread_env": bootstrap.THREAD_ENV,
        "config": {**workload.config_kwargs(None), "seed": "per experiment"},
        "experiment_seeds": runner.seeds,
        "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted, "problems": runner.problems[:50],
        "metrics": metrics, **{k: v for k, v in run.items() if k != "units"},
        "speed_probe_s": {"reference": speed.REFERENCE_PROBE_S, "period": sampler.period_s,
                          "samples": [d for _, d in sampler.samples]},
    }
    results_path = bootstrap.OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    results_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {attempted} experiments, "
          f"{runner.trials} trials, results in {results_path.relative_to(bootstrap.ROOT)}")
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    for name, value in run.get("raw", {}).items():
        print(f"  {name + ' (raw, unscaled)':<48} {value:.6g} {run['units'][name]}")
    print(f"  {'fail_rate':<48} {results['fail_rate']:.6g} fraction "
          f"({failed}/{attempted})")
    for problem in runner.problems[:10]:
        print(f"  problem: {problem}")
    if "reason" in run:
        print(f"  reason {'holds' if run['reason']['holds'] else 'DOES NOT HOLD'}: "
              f"{run['reason']['detail']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
