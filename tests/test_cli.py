import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sirpool import cli
from sirpool.cli import CSV_HEADER, main, read_csv, write_csv
from sirpool.harness import TrajectoryStats, run_experiment
from sirpool.sir import SimConfig
from sirpool.theory import TheoryCurve


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

    def test_directory_target_fails_before_running(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--csv", str(tmp_path / "ok.csv"), "--svg", str(tmp_path)])
        assert exc.value.code != 0
        assert "cannot write --svg" in capsys.readouterr().err
        assert not (tmp_path / "ok.csv").exists()

    def test_population_beyond_sampler_fails_before_running(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        with pytest.raises(SystemExit) as exc:
            main(FAST + ["--n", "1000000000", "--csv", str(tmp_path / "x.csv")])
        assert exc.value.code != 0
        assert "hypergeometric sampler" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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
                        expected_isolated=series[1], pre_test_infected=series[2],
                        miss_prob=np.ones(7))
    return TrajectoryStats(config=cfg, mean_susceptible=series[0], mean_infected=series[1],
                           mean_isolated=series[2], var_susceptible=series[0],
                           var_infected=series[1], var_isolated=series[2],
                           control_time=np.zeros(3, dtype=np.int64),
                           control_censored=np.zeros(3, dtype=bool), theory=curve)


class TestWritersMatchPerCellFormatting:
    """The writers format whole series at once; each cell must read as formatted one by one."""

    @pytest.mark.parametrize("include_theory", [False, True])
    def test_csv(self, tmp_path, include_theory):
        stats = fixed_stats()
        path = tmp_path / "t.csv"
        write_csv(str(path), stats, include_theory)
        lines = [CSV_HEADER]
        for t in range(7):
            lines.append(",".join([
                str(t), cli._fmt(stats.mean_susceptible[t]), cli._fmt(stats.mean_infected[t]),
                cli._fmt(stats.mean_isolated[t]),
                cli._fmt(stats.theory.expected_infected[t]) if include_theory else ""]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("include_theory", [False, True])
    def test_svg_points(self, tmp_path, include_theory):
        stats = fixed_stats()
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
                f"{cli.SVG_MARGIN + plot_w * (t / 6):.2f},"
                f"{cli.SVG_MARGIN + plot_h * (1.0 - values[t] / 1000):.2f}"
                for t in range(7)))
        root = ET.parse(path).getroot()
        lines = root.findall("{http://www.w3.org/2000/svg}polyline")
        assert [line.get("points") for line in lines] == expected
