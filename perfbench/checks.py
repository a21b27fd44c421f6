"""Output checks that decide whether a run's results are correct.

``check_experiment`` tests one experiment's ``TrajectoryStats`` and the files
written from it against invariants any engine of this model must keep.
``compare_to_reference`` tests a run's pooled mean infected trajectory and its
epsilon-time against a reference trajectory made once from the
per-individual engine (see ``make_reference.py``). Every check returns a list
of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Half-width of the reference band in standard errors, per step. In 80 runs
# of the per-individual engine, 20 per workload, the largest deviation was
# 3.9. The model changes behind the C2/C7 acceptance gaps lie far outside it,
# even with fewer trials than a 20 s run completes: a mean that follows the
# open-loop recursion sizing hybrid groups sits 13+ standard errors out on
# both hybrid workloads, and a frozen susceptible pool 9+ on large-individual
# (tests/test_checks.py pins both).
Z_BAND = 6.0
# Counts are whole individuals, so no step's variance is taken below 1. This
# keeps the band honest late in a run, when few trials still hold stragglers.
VAR_FLOOR = 1.0
TOLERANCE = 1e-9  # relative, for float sums of whole counts

CSV_SERIES = {"alpha_mean": "mean_susceptible", "lambda_mean": "mean_infected",
              "gamma_mean": "mean_isolated"}


def first_at_or_below(values, threshold: float) -> int | None:
    hits = np.flatnonzero(np.asarray(values) <= threshold)
    return int(hits[0]) if hits.size else None


def check_experiment(stats, epsilon_time) -> list[str]:
    """Invariants of one experiment's aggregated trajectories."""
    cfg = stats.config
    n, horizon, steps = cfg.n, cfg.horizon, cfg.horizon + 1
    problems = []
    series = {name: np.asarray(getattr(stats, name), dtype=np.float64)
              for name in ("mean_susceptible", "mean_infected", "mean_isolated")}
    for name, values in series.items():
        if values.shape != (steps,):
            return [f"{name} has shape {values.shape}, expected ({steps},)"]
    mass = series["mean_susceptible"] + series["mean_infected"] + series["mean_isolated"]
    worst = float(np.max(np.abs(mass - n)))
    if worst > TOLERANCE * n:
        problems.append(f"per-step mean S+I+R differs from n={n} by up to {worst:g}")
    if np.any(np.diff(series["mean_isolated"]) < -TOLERANCE * n):
        problems.append("mean_isolated decreases")
    if np.any(np.diff(series["mean_susceptible"]) > TOLERANCE * n):
        problems.append("mean_susceptible increases")
    control = np.asarray(stats.control_time)
    censored = np.asarray(stats.control_censored, dtype=bool)
    if control.shape != (cfg.trials,) or censored.shape != (cfg.trials,):
        problems.append(f"control_time/control_censored do not hold {cfg.trials} trials")
    elif control.min() < 0 or control.max() > horizon:
        problems.append(f"control_time outside [0, {horizon}]")
    elif np.any(control[censored] != horizon):
        problems.append("a censored trial's control_time is not the horizon")
    expected = first_at_or_below(series["mean_infected"], cfg.epsilon)
    if epsilon_time != expected:
        problems.append(f"empirical_epsilon_time gave {epsilon_time}, the means give {expected}")
    return problems


def check_csv(path, stats) -> list[str]:
    """The CSV holds one row per step whose series match the stats."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    steps = stats.config.horizon + 1
    if len(rows) != steps:
        return [f"CSV has {len(rows)} rows, expected {steps}"]
    problems = []
    for column, field in CSV_SERIES.items():
        try:
            written = np.array([float(row[column]) for row in rows])
        except (KeyError, TypeError, ValueError):
            return [f"CSV column {column} is missing or not numeric"]
        if not np.allclose(written, getattr(stats, field), rtol=1e-8, atol=1e-9):
            problems.append(f"CSV column {column} does not match {field}")
    return problems


def check_svg(path) -> list[str]:
    """The SVG parses and draws one polyline per series."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != len(CSV_SERIES):
        return [f"SVG has {len(lines)} polylines, expected {len(CSV_SERIES)}"]
    return []


class Pool:
    """Trial-weighted mean infected trajectory over a run's experiments."""

    def __init__(self):
        self.trials = 0
        self.total = None

    def add(self, stats) -> None:
        weighted = np.asarray(stats.mean_infected, dtype=np.float64) * stats.config.trials
        self.total = weighted if self.total is None else self.total + weighted
        self.trials += stats.config.trials

    @property
    def mean_infected(self) -> np.ndarray:
        return self.total / self.trials


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def reference_band(reference: dict, trials: int) -> np.ndarray:
    """Per-step half-width allowed between a pooled mean of ``trials`` and the reference."""
    var = np.maximum(np.asarray(reference["var_infected"]), VAR_FLOOR)
    return Z_BAND * np.sqrt(var / trials + var / reference["trials"])


def compare_to_reference(reference: dict, mean_infected, trials: int) -> tuple[list[str], dict]:
    """Per-step band and epsilon-time window around the reference trajectory."""
    ref_mean = np.asarray(reference["mean_infected"])
    mean_infected = np.asarray(mean_infected)
    if mean_infected.shape != ref_mean.shape:
        return [f"pooled trajectory has shape {mean_infected.shape}, "
                f"reference has {ref_mean.shape}"], {}
    band = reference_band(reference, trials)
    gap = mean_infected - ref_mean
    problems = []
    off = np.flatnonzero(np.abs(gap) > band)
    if off.size:
        t = int(off[0])
        problems.append(
            f"pooled mean infected leaves the reference band at {off.size} steps, first "
            f"t={t}: {mean_infected[t]:.4g} vs {ref_mean[t]:.4g} +/- {band[t]:.3g}")
    epsilon = reference["epsilon"]
    never = ref_mean.size  # a trajectory that never reaches epsilon sorts after every step
    window = [first_at_or_below(ref_mean - band, epsilon),
              first_at_or_below(ref_mean + band, epsilon)]
    reached = first_at_or_below(mean_infected, epsilon)
    lo, hi, at = (never if v is None else v for v in (*window, reached))
    if not lo <= at <= hi:
        problems.append(f"epsilon-time {reached} outside the reference window {window}")
    detail = {
        "trials": trials,
        "max_abs_z": float(np.max(np.abs(gap) / band) * Z_BAND),
        "steps_outside_band": int(off.size),
        "epsilon_time": reached,
        "reference_epsilon_time": reference["epsilon_time"],
        "epsilon_window": window,
    }
    return problems, detail
