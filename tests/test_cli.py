import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from ecoopinion import (BlowupError, ConfigError, SystemState, UnresolvedCellError, analysis, cli,
                        load_config, svgchart)
from ecoopinion.cli import CSV_HEADER, SWEEP_CSV_HEADER, main
from ecoopinion.integrate import Trajectory


@pytest.fixture()
def hd_cfg(tmp_path):
    path = tmp_path / "hd.cfg"
    assert main(["preset", "hawk-dove", "--write", str(path)]) == 0
    return path


@pytest.fixture()
def pd_cfg(tmp_path):
    path = tmp_path / "pd.cfg"
    assert main(["preset", "prisoners-dilemma", "--write", str(path)]) == 0
    return path


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1:]


def test_import_loads_no_pool_or_trap_code():
    # Every command imports cli; multiprocessing (a parallel scan) and traps
    # (the bisection) load on first use, so start-up does not compile them.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, ecoopinion.cli; "
             "print(*[m for m in ('multiprocessing', 'ecoopinion.traps') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout.split() == []


class TestPreset:
    def test_written_file_loads(self, hd_cfg):
        sc = load_config(hd_cfg)
        assert sc.label == "hawk-dove"


class TestSimulate:
    def test_low_opinion_run(self, hd_cfg, tmp_path):
        csv_path = tmp_path / "run.csv"
        json_path = tmp_path / "run.json"
        code = main(["simulate", "--config", str(hd_cfg), "--set", "y0=0.45",
                     "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == 0

        header, rows = read_rows(csv_path)
        assert header == CSV_HEADER
        assert all(len(row.split(",")) == 9 for row in rows)
        raw = csv_path.read_bytes()
        assert b"\r" not in raw

        summary = json.loads(json_path.read_text())
        assert summary["converged"] is True
        assert abs(summary["terminal"]["x"] - 0.33) <= 0.01
        assert summary["residual"] < 1e-8
        assert summary["nearest_fixed_point"]["distance"] <= 1e-3

    def test_pd_replenished_environment(self, pd_cfg, tmp_path):
        json_path = tmp_path / "pd.json"
        code = main(["simulate", "--config", str(pd_cfg),
                     "--out-csv", str(tmp_path / "pd.csv"), "--out-json", str(json_path)])
        assert code == 0
        summary = json.loads(json_path.read_text())
        assert abs(summary["terminal"]["n"] - 1.0) <= 0.01

    def test_corner_start_constant_rows(self, pd_cfg, tmp_path):
        csv_path = tmp_path / "const.csv"
        code = main(["simulate", "--config", str(pd_cfg),
                     "--set", "x0=1", "--set", "n0=1", "--set", "y0=0",
                     "--out-csv", str(csv_path)])
        assert code == 0
        _, rows = read_rows(csv_path)
        values = {row.split(",", 1)[1] for row in rows}
        assert len(values) == 1

    def test_svg_output(self, hd_cfg, tmp_path):
        svg_path = tmp_path / "run.svg"
        code = main(["simulate", "--config", str(hd_cfg),
                     "--out-csv", str(tmp_path / "run.csv"), "--out-svg", str(svg_path)])
        assert code == 0
        root = ET.parse(svg_path).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 3

    # SHA-256 of the CSV and SVG at record_every=1, where every sample is
    # written; the golden files keep only every 100th.
    DIGESTS = {
        "hawk-dove": (
            "d67479897fef67c5c1e7e382d24db127a8c1248d1ca1618d85a48f031b498ff5",
            "c9caa79905c3c22285a8d4784ce1f6329656b6b9f556a067f2e7631cf3c7fe87",
        ),
        "prisoners-dilemma": (
            "933bc474bd7f30d64e9ce366eb692074ad80f52772c334e68a55d09e3d0c051a",
            "3aa0cd94e4e95a9dcb7f2595d63ac1b1cba1c4fc39a03c6aa79f3b75e9f60026",
        ),
    }

    @pytest.mark.parametrize("preset", sorted(DIGESTS))
    def test_every_sample_bytes(self, preset, tmp_path):
        cfg = tmp_path / "run.cfg"
        assert main(["preset", preset, "--write", str(cfg)]) == 0
        csv_path, svg_path = tmp_path / "run.csv", tmp_path / "run.svg"
        code = main(["simulate", "--config", str(cfg), "--set", "record_every=1",
                     "--set", "y0=0.37", "--out-csv", str(csv_path), "--out-svg", str(svg_path)])
        assert code == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, svg_path))
        assert digests == self.DIGESTS[preset]

    def test_full_precision_round_trip(self, hd_cfg, tmp_path):
        csv_path = tmp_path / "run.csv"
        main(["simulate", "--config", str(hd_cfg), "--out-csv", str(csv_path)])
        _, rows = read_rows(csv_path)
        first = rows[0].split(",")
        assert float(first[1]) == 0.5
        assert float(first[2]) == 0.3

    def test_blowup_truncates_csv(self, hd_cfg, tmp_path):
        csv_path = tmp_path / "partial.csv"
        code = main(["simulate", "--config", str(hd_cfg), "--set", "dt=100",
                     "--set", "t_max=1000", "--out-csv", str(csv_path)])
        assert code == 1
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[-1].startswith("# truncated at t=")


# Values whose %.17g or %.2f text is easy to get wrong: signed zero, the
# smallest subnormal, the largest float below 1, a repeating binary fraction,
# a float with an exact 23-digit integer value, ints and nan.
EDGE_VALUES = (-0.0, 5e-324, 1 - 2 ** -53, 1 / 3, 1e22, 0, 1, math.nan)


def edge_trajectory(size):
    """A hand-built trajectory of `size` samples; column k holds EDGE_VALUES
    rotated by k, so every column takes every value."""
    columns = [tuple(EDGE_VALUES[(i + k) % len(EDGE_VALUES)] for i in range(size))
               for k in range(9)]
    return Trajectory(*columns, converged=False)


def reference_csv(trajectory, marker=""):
    columns = [trajectory.times, trajectory.x, trajectory.n, trajectory.y, trajectory.u1,
               trajectory.u2, trajectory.u_avg, trajectory.p12, trajectory.p21]
    rows = [",".join("%.17g" % v for v in row) for row in zip(*columns)]
    return "\n".join([CSV_HEADER, *rows, *([marker] if marker else [])]) + "\n"


def reference_points(trajectory, name):
    times = trajectory.times
    t0, span = times[0], (times[-1] - times[0]) or 1.0
    plot_w = svgchart.WIDTH - svgchart._ML - svgchart._MR
    plot_h = svgchart.HEIGHT - svgchart._MT - svgchart._MB
    return " ".join(
        f"{svgchart._ML + (t - t0) / span * plot_w:.2f},{svgchart._MT + (1.0 - v) * plot_h:.2f}"
        for t, v in zip(times, getattr(trajectory, name)))


class TestFormatters:
    """The bulk CSV and SVG formatters against per-value references."""

    @pytest.mark.parametrize("size", [1, 8, 19])
    def test_csv_matches_per_value_reference(self, size):
        trajectory = edge_trajectory(size)
        assert cli._trajectory_csv(trajectory) == reference_csv(trajectory)

    def test_csv_truncation_marker(self):
        trajectory = edge_trajectory(8)
        text = cli._trajectory_csv(trajectory, BlowupError("boom", t=1 / 3))
        marker = "# truncated at t=0.33333333333333331: boom"
        assert text == reference_csv(trajectory, marker)
        assert text.endswith(marker + "\n")

    @pytest.mark.parametrize("size", [1, 8, 19])
    def test_svg_points_match_per_point_reference(self, size):
        # One sample has a zero time span, which falls back to span 1.0.
        trajectory = edge_trajectory(size)
        svg = svgchart.trajectory_svg(trajectory, title="edge")
        points = re.findall(r'<polyline [^>]*points="([^"]*)"', svg)
        assert points == [reference_points(trajectory, name) for name, _ in svgchart._SERIES]


class TestSweep:
    def test_basin_switch_and_boundary(self, hd_cfg, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(hd_cfg), "--axis", "y0",
                     "--grid", "0:1:21", "--out-csv", str(csv_path),
                     "--out-json", str(json_path)])
        assert code == 0

        header, rows = read_rows(csv_path)
        assert header == SWEEP_CSV_HEADER
        assert len(rows) == 21

        summary = json.loads(json_path.read_text())
        labels = summary["labels"]
        assert all(label is not None for label in labels)
        switches = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert switches == 1
        assert 0.45 < summary["boundary"] < 0.55

    def test_simulate_runs_of_golden_sweep(self, hd_cfg, tmp_path, monkeypatch):
        # The golden sweep: 21 grid cells, then the boundary bisection's 9
        # midpoints; its endpoints are grid cells the scan has labelled.
        # Scan cells may run in forked workers, so each run appends a line to
        # a file (one O_APPEND write) instead of to a list in this process.
        runs = tmp_path / "runs.log"
        real = analysis.simulate

        def spy(sc, **kw):
            fd = os.open(runs, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
            try:
                os.write(fd, b"run\n")
            finally:
                os.close(fd)
            return real(sc, **kw)

        monkeypatch.setattr(analysis, "simulate", spy)
        code = main(["sweep", "--config", str(hd_cfg), "--axis", "y0", "--grid", "0:1:21",
                     "--out-csv", str(tmp_path / "sweep.csv")])
        assert code == 0
        assert len(runs.read_bytes().splitlines()) == 30

    def test_unresolved_bisection_point_warns(self, hd_cfg, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(hd_cfg), "--set", "t_max=25", "--axis", "y0",
                     "--grid", "0:1:21", "--out-csv", str(tmp_path / "sweep.csv"),
                     "--out-json", str(json_path)])
        assert code == 0
        assert json.loads(json_path.read_text())["boundary"] is None
        err = capsys.readouterr().err
        assert err.startswith("warning: boundary bisection failed: terminal state at y0=")
        assert "matches no known fixed point" in err

    @pytest.mark.parametrize("fails", [False, True])
    def test_second_switch_discards_the_bisection(self, hd_cfg, tmp_path, monkeypatch, capsys,
                                                  fails):
        # A serial scan labels its cells A, B, A: the first switch is bisected
        # as soon as its two cells are in; the second voids that outcome, a
        # failure included, and is not bisected itself.
        labels = {0.0: "A", 0.5: "B", 1.0: "A"}
        monkeypatch.setattr(analysis, "_scan_workers", lambda cells: 1)
        monkeypatch.setattr(analysis, "_basin_cell", lambda job: analysis.BasinCell(
            job[0], SystemState(0.5, 0.5, job[0]), labels[job[0]], True, False))
        calls = []

        def bisect(scenario, axis, lo, hi, **kwargs):
            calls.append((lo, hi, kwargs["endpoint_labels"]))
            if fails:
                raise UnresolvedCellError("no label at the midpoint")
            return 0.25

        monkeypatch.setattr(cli, "threshold_bisect", bisect)
        json_path = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(hd_cfg), "--axis", "y0", "--grid", "0:1:3",
                     "--out-csv", str(tmp_path / "sweep.csv"), "--out-json", str(json_path)])
        assert code == 0
        summary = json.loads(json_path.read_text())
        assert summary["labels"] == ["A", "B", "A"] and summary["boundary"] is None
        assert calls == [(0.0, 0.5, ("A", "B"))]
        assert capsys.readouterr().err == ""

    @pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                        reason="a parallel scan needs Linux and two usable CPUs")
    def test_bisection_runs_while_the_pool_scans(self, hd_cfg, tmp_path, monkeypatch):
        real = cli.threshold_bisect
        pool_alive = []

        def spy(*args, **kwargs):
            pool_alive.append(multiprocessing.active_children() != [])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "threshold_bisect", spy)
        json_path = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(hd_cfg), "--axis", "y0", "--grid", "0:1:21",
                     "--out-csv", str(tmp_path / "sweep.csv"), "--out-json", str(json_path)])
        assert code == 0
        assert pool_alive == [True]
        assert 0.45 < json.loads(json_path.read_text())["boundary"] < 0.5
        assert multiprocessing.active_children() == []

    def test_single_cell(self, hd_cfg, tmp_path):
        csv_path = tmp_path / "one.csv"
        code = main(["sweep", "--config", str(hd_cfg), "--axis", "y0",
                     "--grid", "0.45:1:1", "--out-csv", str(csv_path)])
        assert code == 0
        _, rows = read_rows(csv_path)
        assert len(rows) == 1

    def test_grid_ends_exactly_at_hi(self, hd_cfg, tmp_path):
        json_path = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(hd_cfg), "--axis", "y0",
                     "--grid", "0.1:1:8", "--out-csv", str(tmp_path / "sweep.csv"),
                     "--out-json", str(json_path)])
        assert code == 0
        grid = json.loads(json_path.read_text())["grid"]
        assert len(grid) == 8 and grid[0] == 0.1 and grid[-1] == 1.0

    def test_bad_grid_spec(self, hd_cfg, tmp_path):
        code = main(["sweep", "--config", str(hd_cfg), "--axis", "y0",
                     "--grid", "0:2:5", "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("spec, text", [
        ("0:1", "grid spec must be lo:hi:count, got '0:1'"),
        ("0:x:5", "malformed grid spec '0:x:5'"),
        ("0:1:0", "grid count must be positive in grid spec '0:1:0'"),
        ("0.5:0.5:3", "grid needs lo < hi for more than one point, got '0.5:0.5:3'"),
    ])
    def test_bad_grid_spec_is_named(self, hd_cfg, tmp_path, capsys, spec, text):
        code = main(["sweep", "--config", str(hd_cfg), "--axis", "y0",
                     "--grid", spec, "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {text}\n"

    def test_every_cell_failed_exits_one(self, hd_cfg, tmp_path, capsys):
        # At dt = 3 every run overshoots the cube; each cell still gets its
        # row and its error, and only then does the sweep exit 1.
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(hd_cfg), "--set", "dt=3", "--axis", "y0",
                     "--grid", "0:1:3", "--out-csv", str(csv_path), "--out-json", str(json_path)])
        assert code == 1
        header, rows = read_rows(csv_path)
        assert header == SWEEP_CSV_HEADER
        assert rows == ["0,,,,error,false", "0.5,,,,error,false", "1,,,,error,false"]
        summary = json.loads(json_path.read_text())
        assert summary["labels"] == [None] * 3 and summary["boundary"] is None
        assert len(summary["errors"]) == 3
        assert all("overshot the cube" in error for error in summary["errors"])
        assert capsys.readouterr().err == "error: every sweep cell failed\n"

    def test_grid_count_cap(self):
        assert len(cli._parse_grid("0:1:100000")) == 100000
        with pytest.raises(ConfigError, match="grid count exceeds 100000 in grid spec '0:1:100001'"):
            cli._parse_grid("0:1:100001")

    def test_oversized_grid_exits_two_before_any_cell(self, hd_cfg, tmp_path, monkeypatch,
                                                     capsys):
        def no_scan(*args, **kwargs):
            raise AssertionError("basin_scan reached")

        monkeypatch.setattr(cli, "basin_scan", no_scan)
        code = main(["sweep", "--config", str(hd_cfg), "--axis", "y0",
                     "--grid", "0:1:100001", "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "'0:1:100001'" in capsys.readouterr().err


class TestFixedPoints:
    def test_hawk_dove_records(self, hd_cfg, tmp_path):
        json_path = tmp_path / "fp.json"
        assert main(["fixed-points", "--config", str(hd_cfg),
                     "--out-json", str(json_path)]) == 0
        records = json.loads(json_path.read_text())
        xs = sorted({round(r["state"]["x"], 6) for r in records})
        assert 0.0 in xs and 1.0 in xs
        assert any(abs(x - 1 / 3) < 1e-6 for x in xs)
        assert all(r["residual"] < 1e-10 for r in records)

    def test_pd_replenished_record(self, pd_cfg, tmp_path):
        json_path = tmp_path / "fp.json"
        assert main(["fixed-points", "--config", str(pd_cfg),
                     "--out-json", str(json_path)]) == 0
        records = json.loads(json_path.read_text())
        assert any(r["state"]["n"] == 1.0 for r in records)


    def test_overflowing_game_writes_strict_json(self, pd_cfg, tmp_path, capsys):
        json_path = tmp_path / "fp.json"
        big = "1e308, 1e308, -1e308, -1e308"
        assert main(["fixed-points", "--config", str(pd_cfg), "--set", f"a0={big}",
                     "--set", f"a1={big}", *[f"--set=b{k}=1" for k in (11, 12, 21, 22)],
                     "--out-json", str(json_path)]) == 0

        def no_constant(name):
            raise AssertionError(f"{name} is not JSON")

        records = json.loads(json_path.read_text(), parse_constant=no_constant)
        assert all(r["residual"] < analysis.RESIDUAL_TOL for r in records)


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2

    def test_invalid_config_value(self, hd_cfg, tmp_path):
        code = main(["simulate", "--config", str(hd_cfg), "--set", "b11=1.5",
                     "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2

    def test_non_finite_value_exits_two(self, hd_cfg, tmp_path, capsys):
        code = main(["fixed-points", "--config", str(hd_cfg), "--set", "theta=nan",
                     "--out-json", str(tmp_path / "fp.json")])
        assert code == 2
        assert "key 'theta'" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [("dt=1e-320", "dt"),
                                               ("hold_time=1e308", "hold_time"),
                                               ("t_max=1e308", "t_max"),
                                               ("dt=1e-300", "dt")])
    def test_step_count_overflow_exits_two(self, hd_cfg, tmp_path, capsys, override, key):
        code = main(["simulate", "--config", str(hd_cfg), "--set", override,
                     "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("override, text", [
        ("c1=5", "key 'c1': hawk-dove game needs 0 < v < c"),
        ("x0=inf", "key 'x0': x0 must be finite, got inf"),
    ])
    def test_error_names_the_set_key(self, hd_cfg, tmp_path, capsys, override, text):
        code = main(["simulate", "--config", str(hd_cfg), "--set", override,
                     "--out-csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert text in capsys.readouterr().err

    def test_unencodable_label_exits_two_before_any_output(self, hd_cfg, tmp_path, capsys):
        # A label byte that is not UTF-8 reaches Python as a lone surrogate.
        outs = [tmp_path / name for name in ("x.csv", "x.json", "x.svg")]
        code = main(["simulate", "--config", str(hd_cfg), "--set", "label=a\udcffb",
                     "--out-csv", str(outs[0]), "--out-json", str(outs[1]),
                     "--out-svg", str(outs[2])])
        assert code == 2
        assert "key 'label'" in capsys.readouterr().err
        assert not any(path.exists() for path in outs)

    def test_unwritable_output(self, hd_cfg, tmp_path):
        code = main(["simulate", "--config", str(hd_cfg),
                     "--out-csv", str(tmp_path / "missing-dir" / "x.csv")])
        assert code == 1

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
