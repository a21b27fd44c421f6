"""Command-line front end: run an experiment, emit CSV trajectories and an SVG plot."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .harness import TrajectoryStats, empirical_epsilon_time, run_experiment
from .sir import POLICIES, POLICY_INDIVIDUAL, ConfigError, SimConfig
from .theory import TheoryParams, epsilon_control_time

# (name, colour) of each output series, in CSV column order; the theory overlay is last
_SERIES = (
    ("alpha_mean", "#1f77b4"),
    ("lambda_mean", "#d62728"),
    ("gamma_mean", "#2ca02c"),
    ("theory_lambda", "#7f7f7f"),
)
CSV_HEADER = ",".join(["t", *(name for name, _ in _SERIES)])

SVG_WIDTH = 880
SVG_HEIGHT = 560
SVG_MARGIN = 60


def _series_values(stats: TrajectoryStats, include_theory: bool) -> list[np.ndarray]:
    """The arrays behind _SERIES, in its order; the overlay only when requested."""
    values = [stats.mean_susceptible, stats.mean_infected, stats.mean_isolated]
    if include_theory:
        values.append(stats.theory.expected_infected)
    return values


def _unwritable(path: str) -> str | None:
    """Why a file cannot be written at path, or None if it looks writable."""
    if os.path.isdir(path):
        return "it is a directory"
    if os.path.exists(path) and not os.path.isfile(path):
        return "it is not a regular file"
    directory = os.path.dirname(os.path.realpath(path))
    if not os.path.isdir(directory):
        return f"directory {directory} does not exist"
    if not os.access(directory, os.W_OK | os.X_OK):
        return f"directory {directory} is not writable"
    return None


def _write_text(path: str, text: str) -> None:
    """Write text to a temporary file beside path, then move it over path.

    Readers see either the old file (or none) or the complete new one; the
    temporary file is removed if anything fails before the move.
    """
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(path: str, stats: TrajectoryStats, include_theory: bool) -> None:
    """One row per step; theory_lambda cells stay empty unless requested.

    The rows are formatted in one pass: one ``%`` over the row template
    repeated once per step, with every cell in one flat tuple, row by row.
    """
    steps = stats.config.horizon + 1
    columns = [range(steps), *(values[:steps].tolist()
                               for values in _series_values(stats, include_theory))]
    row = "%d" + ",%.9g" * (len(columns) - 1) + ("" if include_theory else ",") + "\n"
    cells = [None] * (steps * len(columns))
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column
    _write_text(path, CSV_HEADER + "\n" + (row * steps) % tuple(cells))


def write_svg(path: str, stats: TrajectoryStats, include_theory: bool) -> None:
    """Minimal SVG 1.1 line plot: one polyline per series plus axes and a legend.

    Every series shares the x coordinates, so they are formatted once per
    file, into a points template that takes one series' y coordinates in
    one ``%``.
    """
    horizon = stats.config.horizon
    n = stats.config.n
    plot_w = SVG_WIDTH - 2 * SVG_MARGIN
    plot_h = SVG_HEIGHT - 2 * SVG_MARGIN

    def sx(t: float) -> float:
        return SVG_MARGIN + plot_w * (t / max(horizon, 1))

    def sy(v: float) -> float:
        return SVG_MARGIN + plot_h * (1.0 - v / n)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        # axes
        f'<line x1="{SVG_MARGIN}" y1="{sy(0):.2f}" x2="{SVG_WIDTH - SVG_MARGIN}" '
        f'y2="{sy(0):.2f}" stroke="black"/>',
        f'<line x1="{SVG_MARGIN}" y1="{sy(0):.2f}" x2="{SVG_MARGIN}" '
        f'y2="{SVG_MARGIN}" stroke="black"/>',
        f'<text x="{SVG_WIDTH / 2:.0f}" y="{SVG_HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">time step</text>',
        f'<text x="18" y="{SVG_HEIGHT / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {SVG_HEIGHT / 2:.0f})">individuals</text>',
    ]
    for i in range(6):
        t_tick = horizon * i / 5
        v_tick = n * i / 5
        parts.append(f'<text x="{sx(t_tick):.2f}" y="{sy(0) + 20:.2f}" text-anchor="middle" '
                     f'font-size="12">{t_tick:.0f}</text>')
        parts.append(f'<text x="{SVG_MARGIN - 8}" y="{sy(v_tick) + 4:.2f}" text-anchor="end" '
                     f'font-size="12">{v_tick:.0f}</text>')
    steps = horizon + 1
    # "%.2f,%%.2f" formats x and leaves "%.2f" for y
    points = " ".join(["%.2f,%%.2f"] * steps) % tuple(sx(np.arange(steps)).tolist())
    series = zip(_SERIES, _series_values(stats, include_theory))
    for i, ((name, color), values) in enumerate(series):
        legend_y = SVG_MARGIN + 10 + 18 * i
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points % tuple(sy(values).tolist())}"/>')
        parts.append(f'<line x1="{SVG_WIDTH - 220}" y1="{legend_y}" x2="{SVG_WIDTH - 190}" '
                     f'y2="{legend_y}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{SVG_WIDTH - 182}" y="{legend_y + 4}" font-size="12">'
                     f'{name}</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sirpool",
        description="Simulate capacity-limited testing policies on a discrete-time "
                    "susceptible/infected/isolated epidemic and export the averaged "
                    "trajectories.",
    )
    parser.add_argument("--n", type=int, help="population size")
    parser.add_argument("--capacity", type=int, help="tests per time step")
    parser.add_argument("--p", type=float, help="initial infection probability")
    parser.add_argument("--q", type=float, help="per-pair transmission probability per step")
    parser.add_argument("--horizon", type=int, help="time steps per trial")
    parser.add_argument("--trials", type=int, help="Monte Carlo repetitions")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--policy", choices=POLICIES, help="test planning policy")
    parser.add_argument("--epsilon", type=float,
                        help="infected-count threshold for reported control times")
    parser.add_argument("--csv", metavar="PATH", help="write per-step trajectory CSV here")
    parser.add_argument("--svg", metavar="PATH", help="write an SVG line plot here")
    parser.add_argument("--theory", action="store_true",
                        help="include the expected-trajectory overlay in the outputs")
    # the model flags default to the reference run, stated once in SimConfig
    parser.set_defaults(**dataclasses.asdict(SimConfig()))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    outputs = [(flag, path, writer) for flag, path, writer in
               (("--csv", args.csv, write_csv), ("--svg", args.svg, write_svg)) if path]
    if not outputs:
        parser.error("no output requested: pass --csv and/or --svg")
    for flag, path, _ in outputs:
        problem = _unwritable(path)
        if problem:
            parser.error(f"cannot write {flag} {path}: {problem}")
    if len({os.path.realpath(path) for _, path, _ in outputs}) < len(outputs):
        parser.error(" and ".join(f"{flag} {path}" for flag, path, _ in outputs)
                     + " are the same file")
    try:
        cfg = SimConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SimConfig)})
    except ConfigError as exc:
        parser.error(str(exc))

    stats = run_experiment(cfg)

    try:
        for _, path, writer in outputs:
            writer(path, stats, args.theory)
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return 1

    reached = empirical_epsilon_time(stats, cfg.epsilon)
    if reached is None:
        print(f"mean infected count stays above epsilon={cfg.epsilon:g} "
              f"within horizon={cfg.horizon}")
    else:
        print(f"mean infected count reaches epsilon={cfg.epsilon:g} at step {reached}")
    if cfg.policy == POLICY_INDIVIDUAL:
        params = TheoryParams.from_config(cfg)
        try:
            closed_form = f"{epsilon_control_time(params, cfg.epsilon):.2f}"
        except ValueError as exc:
            closed_form = f"none ({exc})"
        print(f"closed-form epsilon control time: {closed_form}")
    done = ~stats.control_censored
    if done.any():
        print(f"trials with zero circulating infections by step {cfg.horizon}: "
              f"{int(done.sum())}/{cfg.trials} "
              f"(mean control time {stats.control_time[done].mean():.1f})")
    else:
        print(f"no trial reached zero circulating infections within horizon={cfg.horizon}")
    for _, path, _ in outputs:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
