import json
import re

import micro
import run
import tracing
import workloads
from conftest import BENCH

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def emitted_per_layer():
    return (tracing.span_metric_names() + list(tracing.COUNT_METRICS) + micro.metric_names())


def test_every_emitted_name_and_unit_is_well_formed():
    names = (list(run.END_TO_END_UNITS) + emitted_per_layer() + list(workloads.WORKLOADS))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert len(set(names)) == len(names)
    units = (list(run.END_TO_END_UNITS.values())
             + [unit for unit, _ in tracing.COUNT_METRICS.values()]
             + [unit for unit, _ in tracing.SPAN_METRICS.values()] + ["us/group"])
    for unit in units:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_lists_what_the_runner_emits():
    spec = benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(layer) == emitted_per_layer()
    for name, (unit, _) in tracing.COUNT_METRICS.items():
        assert layer[name] == unit
