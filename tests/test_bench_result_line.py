"""The benchmark's traced runs end with a strict-JSON result line that lists every per-layer metric.

Each case runs ``perfbench/run.py --trace 1`` for one second on one workload
of ``BENCHMARK.json``, as the benchmark itself is run, and reads the last
line it prints. A traced function that is renamed or removed drops its
metrics from that line as absent, and a non-finite value turns it into
JSON that strict parsers reject (``NaN``); both fail here. The runs write
only under ``perfbench/out/``.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def reject_constant(name):
    raise ValueError(f"non-finite constant {name} in the result line")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_with_a_full_result_line(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    last = done.stdout.strip().splitlines()[-1]
    result = json.loads(last, parse_constant=reject_constant)
    assert result["correct"] is True, done.stdout[-2000:]
    metrics = result["metrics"]
    missing = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in metrics]
    assert not missing, f"per-layer metrics absent from the result line: {missing}"
    for m in BENCHMARK["per_layer"]:
        value = metrics[m["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (m["name"], value)
