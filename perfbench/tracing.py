"""Per-layer spans and counts, recorded from outside the package.

``Tracer.installed()`` replaces each traced function at every ``sirpool``
module attribute bound to it (``sirpool.policies.decode_round``,
``sirpool.harness.spread_phase``, ...) with a wrapper that times the call
with ``perf_counter`` and reads counts from its arguments and return value.
Every attribute is restored on exit, also when the traced code raises.

A span's self time is its duration minus the durations of the traced calls
made inside it. The wrapper's own work (hooks, bookkeeping) is charged to
neither the callee nor the caller, so it shows only in ``trace.overhead``.
A function or result field that does not exist is reported as absent.
"""

from __future__ import annotations

import math
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TRACED = (
    "sir.init_population", "sir.spread_phase", "sir.isolate",
    "codec.assemble_matrix", "codec.evaluate_tests", "codec.decode_round",
    "policies.run_round", "policies.plan_individual", "policies.plan_saffron_hybrid",
    "theory.mean_trajectory", "theory.saffron_group_size",
    "harness.trial_rng", "harness.run_trial", "harness.run_experiment",
    "cli.write_csv", "cli.write_svg",
)

# name -> (unit, better); the order here is the order results are printed in
SPAN_METRICS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "share": ("fraction", "lower"),
    "us_p50": ("us", "lower"),
    "us_p99": ("us", "lower"),
}

COUNT_METRICS = {
    "harness.steps": ("count", "lower"),
    "sir.new_infections": ("count", "lower"),
    "sir.isolated": ("count", "higher"),
    "codec.test_rows": ("count", "lower"),
    "codec.groups": ("count", "higher"),
    "codec.verdict_single": ("count", "higher"),
    "codec.verdict_multiple": ("count", "lower"),
    "codec.verdict_negative": ("count", "lower"),
    "codec.identified": ("count", "higher"),
    "codec.single_yield": ("fraction", "higher"),
    "codec.tests_per_detection": ("tests/detection", "lower"),
    "policies.pooled_rounds": ("count", "higher"),
    "policies.fallback_rounds": ("count", "lower"),
    "policies.wasted_tests": ("count", "lower"),
    "policies.wasted_share": ("fraction", "lower"),
    "theory.estimate_gap_abs_mean": ("individuals", "lower"),
    "theory.estimate_gap_sd": ("individuals", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead": ("fraction", "lower"),
    "experiment.fixed_share": ("fraction", "lower"),
}

# Work done once per experiment, whatever its trial count: the expected
# trajectory, aggregation and output writing. Their summed share is
# ``experiment.fixed_share``; it says how much a workload's trials per
# experiment lets this work weigh against the trials themselves.
PER_EXPERIMENT = ("harness.run_experiment", "theory.mean_trajectory",
                  "cli.write_csv", "cli.write_svg")

# percentiles of one traced function's call durations: (metric suffix, percentile)
PERCENTILES = (("us_p50", 50.0), ("us_p99", 99.0))

# Exceptions a hook raises when the argument or result it reads has changed shape.
SHAPE_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


def span_metric_names() -> list[str]:
    return [f"{fn}.{suffix}" for fn in TRACED for suffix in SPAN_METRICS]


class Hook:
    """Count readers around one traced function.

    ``before(args, kwargs)`` returns a token; ``after(token, args, kwargs,
    result)`` adds to the tracer's totals. ``feeds`` names the metrics they
    supply: if either raises one of SHAPE_ERRORS, because the argument or
    result it reads has changed shape, the hook is switched off and those
    metrics are reported absent.
    """

    __slots__ = ("before", "after", "feeds", "live")

    def __init__(self, feeds, before=None, after=None):
        self.feeds = set(feeds)
        self.before = before
        self.after = after
        self.live = True


class SpanStats:
    """Calls, self time and per-call durations of one traced function."""

    __slots__ = ("calls", "self_s", "durations")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = array("d")


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs[name]


class Tracer:
    """Spans and counts for one traced pass; create one per pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {name: SpanStats() for name in TRACED}
        self.absent: set[str] = set()
        self.totals = dict.fromkeys(
            ("steps", "trials", "new_infections", "isolated", "test_rows", "groups",
             "single", "multiple", "negative", "identified", "pooled", "fallback",
             "wasted", "singletons", "gap_n", "gap_sum", "gap_abs", "gap_sq", "output_bytes"), 0)
        # child-time accumulator of each open span; index 0 is outside any span
        self._open = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, hook: Hook | None = None):
        """Return fn wrapped in a span called name, with hook's count readers around it."""
        stats = self.spans[name]
        record = stats.durations.append
        open_spans = self._open
        clock = self.clock
        before = hook.before if hook else None
        after = hook.after if hook else None

        def traced(*args, **kwargs):
            token = None
            if before is not None and hook.live:
                enter = clock()
                try:
                    token = before(args, kwargs)
                except SHAPE_ERRORS:
                    self._drop(hook)
                open_spans.append(0.0)
                start = clock()
            else:
                open_spans.append(0.0)
                start = enter = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stats.calls += 1
                stats.self_s += duration - open_spans.pop()
                record(duration)
                open_spans[-1] += end - enter
            if after is not None and hook.live:
                try:
                    after(token, args, kwargs, result)
                except SHAPE_ERRORS:
                    self._drop(hook)
                open_spans[-1] += clock() - end
            return result

        return traced

    def _drop(self, hook: Hook) -> None:
        hook.live = False
        self.absent.update(hook.feeds)

    @contextmanager
    def installed(self, package_name: str = "sirpool"):
        """Wrap every traced function at all its bindings; restore them on exit."""
        try:
            self._install(package_name)
            yield self
        finally:
            for module, attr, original in reversed(self._patches):
                setattr(module, attr, original)
            self._patches.clear()

    def _install(self, package_name: str) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package_name
                                         or key.startswith(package_name + "."))]
        hooks = self._hooks(package_name)
        for name in TRACED:
            layer, func = name.split(".")
            home = sys.modules.get(f"{package_name}.{layer}")
            original = getattr(home, func, None)
            if not callable(original):
                self.absent.add(name)
                if name in hooks:
                    self.absent.update(hooks[name].feeds)
                continue
            wrapper = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapper)

    # -- counts ------------------------------------------------------------

    def _hooks(self, package_name: str) -> dict:
        totals = self.totals
        sir = sys.modules.get(f"{package_name}.sir")
        isolated_code = getattr(getattr(sir, "Status", None), "ISOLATED", None)

        def add(key, value):
            totals[key] += int(value)

        def trial_done(_, args, kwargs, counts):
            infected = np.asarray(counts)[1]
            extinct = np.flatnonzero(infected == 0)
            horizon = infected.size - 1
            add("steps", extinct[0] if extinct.size else horizon)
            add("trials", 1)

        def spread_after(before, args, kwargs, state):
            add("new_infections", before - state.susceptible)

        def isolate_after(before, args, kwargs, state):
            add("isolated", state.isolated - before)

        def matrix_done(_, args, kwargs, matrix):
            add("test_rows", matrix.rows)
            add("groups", len(matrix.groups))

        verdict_enum = getattr(sys.modules.get(f"{package_name}.codec"), "Verdict", None)
        verdict_keys = [(getattr(verdict_enum, member, None), key) for member, key in
                        (("SINGLE", "single"), ("MULTIPLE", "multiple"),
                         ("ALL_NEGATIVE", "negative"))]
        verdict_feeds = {"codec.verdict_single", "codec.verdict_multiple",
                         "codec.verdict_negative", "codec.single_yield"}

        def decoded(_, args, kwargs, outcome):
            add("identified", len(outcome.identified))
            groups = getattr(outcome, "decoded", None)
            if groups is None or verdict_enum is None:
                self.absent.update(verdict_feeds)
                return
            for group in groups:
                verdict = group.verdict
                for member, key in verdict_keys:
                    if verdict is member:
                        totals[key] += 1
                        break
                else:
                    raise ValueError(f"unknown verdict {verdict!r}")

        def wasted(args, kwargs):
            matrix = _arg(args, kwargs, 0, "matrix")
            state = _arg(args, kwargs, 1, "state")
            if isolated_code is None:
                raise AttributeError("sir.Status.ISOLATED")
            singles = np.asarray(matrix.single_members, dtype=np.int64)
            add("singletons", singles.size)
            add("wasted", np.count_nonzero(state.statuses[singles] == isolated_code))

        def planned(_, args, kwargs, matrix):
            add("pooled" if len(matrix.groups) else "fallback", 1)

        def estimate_gap(args, kwargs):
            expected = args[4] if len(args) > 4 else kwargs.get("expected_infected")
            if expected is not None:
                gap = float(expected) - _arg(args, kwargs, 0, "state").infected
                totals["gap_n"] += 1
                totals["gap_sum"] += gap
                totals["gap_abs"] += abs(gap)
                totals["gap_sq"] += gap * gap

        def output_size(_, args, kwargs, result):
            add("output_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))

        def state_field(field):
            return lambda args, kwargs: getattr(_arg(args, kwargs, 0, "state"), field)

        return {
            "harness.run_trial": Hook({"harness.steps"}, after=trial_done),
            "sir.spread_phase": Hook({"sir.new_infections"}, before=state_field("susceptible"),
                                     after=spread_after),
            "sir.isolate": Hook({"sir.isolated"}, before=state_field("isolated"),
                                after=isolate_after),
            "codec.assemble_matrix": Hook({"codec.test_rows", "codec.groups",
                                           "codec.single_yield", "codec.tests_per_detection"},
                                          after=matrix_done),
            "codec.decode_round": Hook(verdict_feeds | {"codec.identified",
                                                        "codec.tests_per_detection"},
                                       after=decoded),
            "codec.evaluate_tests": Hook({"policies.wasted_tests", "policies.wasted_share"},
                                         before=wasted),
            "policies.plan_saffron_hybrid": Hook({"policies.pooled_rounds",
                                                  "policies.fallback_rounds"}, after=planned),
            "policies.run_round": Hook({"theory.estimate_gap_abs_mean", "theory.estimate_gap_sd"},
                                       before=estimate_gap),
            "cli.write_csv": Hook({"cli.output_bytes"}, after=output_size),
            "cli.write_svg": Hook({"cli.output_bytes"}, after=output_size),
        }

    # -- results -----------------------------------------------------------

    def metrics(self, traced_wall_s: float, overhead: float,
                time_scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of this pass; absent ones are left out.

        traced_wall_s is the wall time of the traced pass, the denominator of
        every share; overhead is its wall time over the untraced pass's, minus
        1; time_scale multiplies every reported time (see ``speed``).
        """
        out: dict[str, float] = {}
        for name, stats in self.spans.items():
            if name in self.absent:
                continue
            out.update(span_summary(name, stats, traced_wall_s, time_scale))
        t = self.totals
        counts = {
            "harness.steps": t["steps"],
            "sir.new_infections": t["new_infections"],
            "sir.isolated": t["isolated"],
            "codec.test_rows": t["test_rows"],
            "codec.groups": t["groups"],
            "codec.verdict_single": t["single"],
            "codec.verdict_multiple": t["multiple"],
            "codec.verdict_negative": t["negative"],
            "codec.identified": t["identified"],
            "codec.single_yield": _ratio(t["single"], t["groups"]),
            "codec.tests_per_detection": _ratio(t["test_rows"], t["identified"]),
            "policies.pooled_rounds": t["pooled"],
            "policies.fallback_rounds": t["fallback"],
            "policies.wasted_tests": t["wasted"],
            "policies.wasted_share": _ratio(t["wasted"], t["singletons"]),
            "theory.estimate_gap_abs_mean": _ratio(t["gap_abs"], t["gap_n"]),
            "theory.estimate_gap_sd": _sd(t["gap_n"], t["gap_sum"], t["gap_sq"]),
            "cli.output_bytes": t["output_bytes"],
            "trace.overhead": overhead,
            "experiment.fixed_share": sum(out.get(f"{fn}.share", 0.0)
                                          for fn in PER_EXPERIMENT),
        }
        for name, value in counts.items():
            if name not in self.absent:
                out[name] = value
        return out

    def samples(self) -> dict:
        """Sample counts behind the medians and percentiles, for the results file."""
        return {
            "spans": {name: s.calls for name, s in self.spans.items() if name not in self.absent},
            "traced_trials": self.totals["trials"],
            "estimate_gap": self.totals["gap_n"],
            "singleton_tests": self.totals["singletons"],
        }


def span_summary(name: str, stats: SpanStats, wall_s: float,
                 time_scale: float = 1.0) -> dict[str, float]:
    """calls/self_s/share/us_p50/us_p99 of one function; zeros when never called.

    The share is of wall_s as measured; self_s and the percentiles are
    multiplied by time_scale.
    """
    out = {f"{name}.calls": stats.calls, f"{name}.self_s": stats.self_s * time_scale,
           f"{name}.share": stats.self_s / wall_s if wall_s > 0 else 0.0}
    durations = np.frombuffer(stats.durations, dtype=np.float64)
    for suffix, pct in PERCENTILES:
        out[f"{name}.{suffix}"] = (float(np.percentile(durations, pct)) * 1e6 * time_scale
                                   if durations.size else 0.0)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sd(n: int, total: float, total_sq: float) -> float:
    if n < 2:
        return 0.0
    return math.sqrt(max(total_sq - total * total / n, 0.0) / (n - 1))
