"""``tools/pairs.py``'s verdict on hand-made pairs of benchmark runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

RATE = {"name": "trials_per_s", "better": "higher", "bound": 0.2}
TIME = {"name": "experiment_s_p50", "better": "lower", "bound": 0.2}


def reading(metric, parent, change, failed=(0, 0)):
    """The verdict on pairs whose runs read ``parent`` and ``change``, pair by pair.

    Each run attempted 20 experiments; ``failed`` gives how many of them
    failed in each parent run and in each change run.
    """
    runs = [{side: {metric["name"]: value, "attempted": 20, "failed": lost}
             for side, value, lost in zip(("parent", "change"), values, failed)}
            for values in zip(parent, change)]
    return pairs.summarize(runs, [metric])[metric["name"]]["verdict"]


PARENT = [100, 101, 99, 100.5, 99.5, 100, 102, 98, 100, 101]


@pytest.mark.parametrize("metric, parent, change, expected", [
    # 10 of 10 wins, medians 15 apart against a parent IQR of about 1
    (RATE, PARENT, [x + 15 for x in PARENT], "gain"),
    # lower is better: the same runs read as times
    (TIME, [x + 15 for x in PARENT], PARENT, "gain"),
    # 9 of 10 wins still gain
    (RATE, PARENT, [x + 15 for x in PARENT[:9]] + [90], "gain"),
    # 8 of 10 wins do not, and the medians are within the bound
    (RATE, PARENT, [x + 15 for x in PARENT[:8]] + [90, 90], "no worse"),
    # every pair won, but by less than the parent's IQR
    (RATE, PARENT, [x + 0.1 for x in PARENT], "no worse"),
    # the median 25% below the parent's, past the 20% bound
    (RATE, PARENT, [x * 0.75 for x in PARENT], "worse"),
    (TIME, PARENT, [x * 1.25 for x in PARENT], "worse"),
    # 15% below: within the bound
    (RATE, PARENT, [x * 0.85 for x in PARENT], "no worse"),
    # the change's runs spread wider than the bound, medians alike
    (RATE, PARENT, [50, 150, 60, 140, 100, 100, 70, 130, 100, 100], "unresolved"),
    (RATE, [50, 150, 60, 140, 100, 100, 70, 130, 100, 100], PARENT, "unresolved"),
])
def test_verdict(metric, parent, change, expected):
    assert reading(metric, parent, change) == expected


def test_wide_spread_reads_no_worse_only_when_every_change_run_is_better():
    # the parent's IQR, 15.5, is far past 20% of its median, 19, and wider
    # than the medians' shift, so no run here is a gain
    parent = [1, 2, 3, 5, 19, 19, 19, 19, 19.5, 19.5]
    assert reading(RATE, parent, [20] * 10) == "no worse"
    assert reading(RATE, parent, [20] * 9 + [19.4]) == "unresolved"


def test_more_failures_read_worse_whatever_the_metric():
    faster = [x + 15 for x in PARENT]
    assert reading(RATE, PARENT, faster, failed=(0, 1)) == "worse"
    assert reading(TIME, faster, PARENT, failed=(2, 3)) == "worse"
    # as many failures on both sides leave the metric's reading
    assert reading(RATE, PARENT, faster, failed=(1, 1)) == "gain"
    assert reading(RATE, PARENT, faster, failed=(1, 0)) == "gain"
