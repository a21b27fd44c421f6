import functools
import os
import stat
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sirpool import cli
from sirpool.cli import CSV_HEADER, main, write_csv
from sirpool.harness import TrajectoryStats, run_experiment
from sirpool.sir import SimConfig
from sirpool.theory import TheoryCurve
from tests.oracle import read_csv


def _must_not_run(cfg):
    raise AssertionError("run_experiment ran although the run was invalid")


FAST = ["--n", "80", "--capacity", "12", "--p", "0.2", "--q", "0.0001",
        "--horizon", "15", "--trials", "4", "--seed", "3"]


class TestMain:
    def test_csv_run(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(FAST + ["--csv", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "epsilon" in captured
        assert out.read_text(encoding="utf-8").startswith(CSV_HEADER)

    def test_requires_an_output(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(FAST)
        assert exc.value.code != 0
        assert "no output requested" in capsys.readouterr().err

    def test_rejects_out_of_range_parameter(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--p", "1.5", "--csv", str(tmp_path / "x.csv")])
        assert exc.value.code != 0
        assert "p must be in [0, 1]" in capsys.readouterr().err

    def test_rejects_infinite_epsilon_before_running(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--epsilon", "inf", "--csv", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "epsilon must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_unknown_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--csv", str(tmp_path / "x.csv"), "--frobnicate"])
        assert exc.value.code != 0
        assert "frobnicate" in capsys.readouterr().err

    def test_unwritable_path_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--csv", str(tmp_path / "missing" / "x.csv")])
        assert exc.value.code != 0
        assert "cannot write --csv" in capsys.readouterr().err

    def test_read_only_directory_fails_before_running(self, tmp_path, capsys, monkeypatch):
        # root may write anywhere, so the access check itself is made to refuse
        checked = []
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        monkeypatch.setattr(cli.os, "access", lambda path, mode: checked.append((path, mode)))
        out = tmp_path / "x.csv"
        directory = os.path.realpath(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--csv", str(out)])
        assert exc.value.code == 2
        assert checked == [(directory, os.W_OK | os.X_OK)]
        assert (f"cannot write --csv {out}: directory {directory} is not writable"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("make, kind, problem", [
        (os.mkdir, stat.S_ISDIR, "it is a directory"),
        (os.mkfifo, stat.S_ISFIFO, "it is not a regular file"),
    ], ids=["directory", "fifo"])
    def test_directory_target_fails_before_running(self, tmp_path, capsys, monkeypatch,
                                                   make, kind, problem):
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        target = tmp_path / "target"
        make(target)
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--csv", str(tmp_path / "ok.csv"), "--svg", str(target)])
        assert exc.value.code != 0
        assert f"cannot write --svg {target}: {problem}" in capsys.readouterr().err
        assert kind(os.stat(target).st_mode)
        assert not (tmp_path / "ok.csv").exists()

    def test_same_file_for_both_outputs_fails_before_running(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--csv", str(out), "--svg", str(tmp_path / "." / "out")])
        assert exc.value.code != 0
        assert "are the same file" in capsys.readouterr().err
        assert not out.exists()

    def test_population_beyond_sampler_fails_before_running(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--n", "1000000000", "--csv", str(tmp_path / "x.csv")])
        assert exc.value.code != 0
        assert "hypergeometric sampler" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_no_model_flags_run_the_reference_config(self, tmp_path, monkeypatch):
        class Ran(Exception):
            pass

        def stop(cfg):
            raise Ran(cfg)

        monkeypatch.setattr(cli, "run_experiment", stop)
        with pytest.raises(Ran) as ran:
            main(["--csv", str(tmp_path / "x.csv")])
        assert ran.value.args[0] == SimConfig()

    def test_failed_write_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        def fail_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail_replace)
        fresh = tmp_path / "new.csv"
        kept = tmp_path / "old.svg"
        kept.write_text("previous run", encoding="utf-8")
        assert main(FAST + ["--csv", str(fresh)]) == 1
        assert main(FAST + ["--svg", str(kept)]) == 1
        assert "cannot write output file" in capsys.readouterr().err
        assert not fresh.exists()
        assert kept.read_text(encoding="utf-8") == "previous run"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.svg"]

    @pytest.mark.parametrize("flags, reason", [
        (["--n", "100", "--capacity", "100", "--trials", "2", "--horizon", "20"],
         "individual testing clears every infection in one step at capacity >= n: "
         "(1 - T/n) * growth_factor = 0.0 <= 0 has no logarithm"),
        (FAST + ["--epsilon", "500"], "epsilon must be in (0, n*p=16.0], got 500.0"),
    ], ids=["capacity-of-everyone", "epsilon-above-initial-mean"])
    def test_closed_form_line_says_why_there_is_none(self, tmp_path, capsys, flags, reason):
        assert main(flags + ["--csv", str(tmp_path / "x.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"closed-form epsilon control time: none ({reason})" in lines

    def test_svg_run(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(FAST + ["--policy", "saffron-hybrid", "--theory",
                            "--svg", str(out)]) == 0
        root = ET.parse(out).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        assert root.get("version") == "1.1"
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 4  # three Monte Carlo series plus the overlay
        texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
        assert "theory_lambda" in texts

    def test_svg_without_theory_has_three_series(self, tmp_path):
        out = tmp_path / "fig.svg"
        assert main(FAST + ["--svg", str(out)]) == 0
        root = ET.parse(out).getroot()
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 3


class TestCsvRoundTrip:
    def cfg(self):
        return SimConfig(n=90, capacity=9, p=0.25, q=1e-4, horizon=12, trials=7,
                         seed=2, policy="saffron-hybrid")

    def test_round_trip_values(self, tmp_path):
        stats = run_experiment(self.cfg())
        path = tmp_path / "out.csv"
        write_csv(str(path), stats, include_theory=True)
        cols = read_csv(str(path))
        assert cols["t"].tolist() == list(range(13))
        # 9 significant decimal digits cover trial means (multiples of 1/7)
        np.testing.assert_allclose(cols["alpha_mean"], stats.mean_susceptible, rtol=1e-8)
        np.testing.assert_allclose(cols["lambda_mean"], stats.mean_infected, rtol=1e-8)
        np.testing.assert_allclose(cols["gamma_mean"], stats.mean_isolated, rtol=1e-8)
        np.testing.assert_allclose(cols["theory_lambda"], stats.theory.expected_infected,
                                   rtol=1e-8)

    def test_write_parse_write_is_stable(self, tmp_path):
        stats = run_experiment(self.cfg())
        first = tmp_path / "a.csv"
        write_csv(str(first), stats, include_theory=True)
        text = first.read_text(encoding="utf-8")
        reparsed = read_csv(str(first))
        lines = [CSV_HEADER]
        for i in range(13):
            lines.append(",".join([
                str(i),
                format(reparsed["alpha_mean"][i], ".9g"),
                format(reparsed["lambda_mean"][i], ".9g"),
                format(reparsed["gamma_mean"][i], ".9g"),
                format(reparsed["theory_lambda"][i], ".9g"),
            ]))
        assert text == "\n".join(lines) + "\n"

    def test_theory_column_empty_when_not_requested(self, tmp_path):
        stats = run_experiment(self.cfg())
        path = tmp_path / "b.csv"
        write_csv(str(path), stats, include_theory=False)
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            assert line.endswith(",")
        assert read_csv(str(path))["theory_lambda"].size == 0

    def test_lf_line_endings(self, tmp_path):
        stats = run_experiment(self.cfg())
        path = tmp_path / "c.csv"
        write_csv(str(path), stats, include_theory=False)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").count("\n") == 14


def fixed_stats() -> TrajectoryStats:
    """Hand-picked values whose 9-digit and 2-decimal renderings are easy to get wrong."""
    cfg = SimConfig(n=1000, horizon=6, trials=3)
    series = np.array([[1000.0, 999.5, 2 / 3, 1e-12, 123456789.123, 0.0, 1 / 7],
                       [0.0, 0.1 + 0.2, 1e20, 5e-324, 333.33333333333, 999.999999999, 1.0],
                       [12.5, 12.505, 0.125, 0.135, 2.675, 1.005, 1e-5]])
    curve = TheoryCurve(expected_susceptible=series[0], expected_infected=series[2] * 3,
                        expected_isolated=series[1], pre_test_infected=series[2])
    return TrajectoryStats(config=cfg, mean_susceptible=series[0], mean_infected=series[1],
                           mean_isolated=series[2], var_susceptible=series[0],
                           var_infected=series[1], var_isolated=series[2],
                           control_time=np.zeros(3, dtype=np.int64),
                           control_censored=np.zeros(3, dtype=bool), theory=curve)


class TestSeriesNames:
    """The CSV header and the SVG legend both come from one series table; pin both."""

    def test_csv_header(self):
        assert CSV_HEADER == "t,alpha_mean,lambda_mean,gamma_mean,theory_lambda"

    @pytest.mark.parametrize("include_theory", [False, True])
    def test_svg_legend_follows_the_csv_columns(self, tmp_path, include_theory):
        path = tmp_path / "t.svg"
        cli.write_svg(str(path), fixed_stats(), include_theory)
        elements = list(ET.parse(path).getroot())
        first_series = next(i for i, e in enumerate(elements) if e.tag.endswith("polyline"))
        legend = [e.text for e in elements[first_series:] if e.tag.endswith("text")]
        names = CSV_HEADER.split(",")[1:]
        assert legend == (names if include_theory else names[:-1])


@functools.lru_cache(maxsize=None)
def full_run(policy: str) -> TrajectoryStats:
    """A real 500-step run of ``policy``, shared by the writer tests."""
    return run_experiment(SimConfig(horizon=500, trials=20, seed=1, policy=policy))


class TestWritersMatchPerCellFormatting:
    """The writers format whole files at once; each cell must read as formatted one by one."""

    def check_csv(self, tmp_path, stats, include_theory):
        path = tmp_path / "t.csv"
        write_csv(str(path), stats, include_theory)

        def cell(x):
            return format(float(x), ".9g")

        lines = [CSV_HEADER]
        for t in range(stats.config.horizon + 1):
            lines.append(",".join([
                str(t), cell(stats.mean_susceptible[t]), cell(stats.mean_infected[t]),
                cell(stats.mean_isolated[t]),
                cell(stats.theory.expected_infected[t]) if include_theory else ""]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def check_svg_points(self, tmp_path, stats, include_theory):
        horizon, n = stats.config.horizon, stats.config.n
        path = tmp_path / "t.svg"
        cli.write_svg(str(path), stats, include_theory)
        plot_w = cli.SVG_WIDTH - 2 * cli.SVG_MARGIN
        plot_h = cli.SVG_HEIGHT - 2 * cli.SVG_MARGIN
        series = [stats.mean_susceptible, stats.mean_infected, stats.mean_isolated]
        if include_theory:
            series.append(stats.theory.expected_infected)
        expected = []
        for values in series:
            expected.append(" ".join(
                f"{cli.SVG_MARGIN + plot_w * (t / horizon):.2f},"
                f"{cli.SVG_MARGIN + plot_h * (1.0 - values[t] / n):.2f}"
                for t in range(horizon + 1)))
        root = ET.parse(path).getroot()
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        assert [line.get("points") for line in lines] == expected

    @pytest.mark.parametrize("include_theory", [False, True])
    def test_csv(self, tmp_path, include_theory):
        self.check_csv(tmp_path, fixed_stats(), include_theory)

    @pytest.mark.parametrize("include_theory", [False, True])
    def test_svg_points(self, tmp_path, include_theory):
        self.check_svg_points(tmp_path, fixed_stats(), include_theory)

    @pytest.mark.parametrize("include_theory", [False, True])
    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    def test_csv_of_a_full_run(self, tmp_path, policy, include_theory):
        self.check_csv(tmp_path, full_run(policy), include_theory)

    @pytest.mark.parametrize("include_theory", [False, True])
    @pytest.mark.parametrize("policy", ["individual", "saffron-hybrid"])
    def test_svg_points_of_a_full_run(self, tmp_path, policy, include_theory):
        self.check_svg_points(tmp_path, full_run(policy), include_theory)
