"""Command-line front end: simulate, sweep, fixed-points, preset."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .analysis import (
    UnresolvedCellError,
    basin_scan,
    find_fixed_points,
    label_for,
    nearest_fixed_point,
    threshold_bisect,
)
from .config import ConfigError, PRESET_NAMES, load_config, preset_text
from .dynamics import BlowupError
from .integrate import simulate
from .scenario import AXES
from .svgchart import trajectory_svg

CSV_HEADER = "t,x,n,y,u1,u2,u_avg,p12,p21"
SWEEP_CSV_HEADER = "initial,terminal_x,terminal_n,terminal_y,label,converged"
MAX_GRID_COUNT = 10 ** 5  # the grid and its scenarios are built before any cell runs

# 17 significant digits round-trip every float exactly.
_FLOAT = "%.17g"
_fmt = _FLOAT.__mod__
# Trajectory columns in CSV_HEADER's order; one template fills a whole row.
_CSV_COLUMNS = tuple("times" if name == "t" else name for name in CSV_HEADER.split(","))
_CSV_ROW = ",".join([_FLOAT] * len(_CSV_COLUMNS)) + "\n"


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _trajectory_csv(trajectory, error=None) -> str:
    rows = zip(*[getattr(trajectory, name) for name in _CSV_COLUMNS])
    text = CSV_HEADER + "\n" + "".join(map(_CSV_ROW.__mod__, rows))
    if error is not None:
        text += f"# truncated at t={_fmt(error.t)}: {error}\n"
    return text


def _record_dict(record) -> dict:
    """The record's fields, in field order, then its basin label."""
    return {**asdict(record), "label": label_for(record)}


def run_simulate(scenario, out_csv, out_json=None, out_svg=None) -> int:
    """Simulate and emit trajectory CSV plus optional JSON summary and SVG
    chart; nonzero on blowup, with the partial CSV retained and marked."""
    try:
        trajectory = simulate(scenario)
    except BlowupError as err:  # simulate attaches the partial trajectory
        _write_text(out_csv, _trajectory_csv(err.partial, err))
        print(f"error: {err}", file=sys.stderr)
        return 1
    _write_text(out_csv, _trajectory_csv(trajectory))

    if out_json is not None:
        records = find_fixed_points(scenario)
        record, dist = nearest_fixed_point(trajectory.terminal, records)
        d = scenario.rhs()(trajectory.terminal.x, trajectory.terminal.n, trajectory.terminal.y)
        summary = {
            "terminal": asdict(trajectory.terminal),
            "converged": trajectory.converged,
            "t_converged": trajectory.t_converged,
            "nearest_fixed_point": None if record is None else {
                **_record_dict(record), "distance": dist,
            },
            "residual": max(abs(d[0]), abs(d[1]), abs(d[2])),
        }
        _write_text(out_json, json.dumps(summary, indent=2) + "\n")

    if out_svg is not None:
        _write_text(out_svg, trajectory_svg(trajectory, title=scenario.label))
    return 0


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid spec must be lo:hi:count, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ConfigError(f"malformed grid spec {spec!r}") from None
    if count < 1:
        raise ConfigError(f"grid count must be positive in grid spec {spec!r}")
    if count > MAX_GRID_COUNT:
        raise ConfigError(f"grid count exceeds {MAX_GRID_COUNT} in grid spec {spec!r}")
    if not (0.0 <= lo <= hi <= 1.0):
        raise ConfigError(f"grid range must satisfy 0 <= lo <= hi <= 1, got {spec!r}")
    if count == 1:
        return [lo]
    if not lo < hi:
        raise ConfigError(f"grid needs lo < hi for more than one point, got {spec!r}")
    step = (hi - lo) / (count - 1)
    # lo + step*(count-1) can round past hi, and past the cube when hi is 1.
    return [lo + step * k for k in range(count - 1)] + [hi]


def _switches(cells):
    """Neighbouring cell pairs that both have labels, and different ones."""
    return [(a, b) for a, b in zip(cells, cells[1:])
            if a.label is not None and b.label is not None and a.label != b.label]


def run_sweep(scenario, axis, grid, out_csv, out_json=None) -> int:
    """Basin scan over one initial-condition axis; emits one CSV row per grid
    value and a JSON summary with the bisected boundary when the scan shows
    exactly one label switch.  Nonzero only when every cell fails."""
    records = find_fixed_points(scenario)
    # The first switch is bisected as soon as the scan has both its cells,
    # while a parallel scan runs on; the outcome (a boundary or the error)
    # counts only if the whole scan shows no other switch.
    bisected = []

    def bisect_first_switch(cells):
        if bisected or not _switches(cells[-2:]):
            return
        a, b = cells[-2:]
        try:
            # The scan gave the cells two labels; only midpoints are simulated.
            bisected.append(threshold_bisect(scenario, axis, a.initial, b.initial,
                                             fixed_points=records,
                                             endpoint_labels=(a.label, b.label)))
        except (UnresolvedCellError, BlowupError) as err:
            bisected.append(err)

    basin = basin_scan(scenario, axis, grid, fixed_points=records, each=bisect_first_switch)

    lines = [SWEEP_CSV_HEADER]
    for cell in basin.cells:
        if cell.terminal is None:
            lines.append(f"{_fmt(cell.initial)},,,,error,false")
            continue
        label = cell.label if cell.label is not None else "unresolved"
        lines.append(",".join([
            _fmt(cell.initial),
            _fmt(cell.terminal.x),
            _fmt(cell.terminal.n),
            _fmt(cell.terminal.y),
            label,
            "true" if cell.converged else "false",
        ]))
    _write_text(out_csv, "\n".join(lines) + "\n")

    boundary = None
    if len(_switches(basin.cells)) == 1:
        (outcome,) = bisected
        if isinstance(outcome, Exception):
            print(f"warning: boundary bisection failed: {outcome}", file=sys.stderr)
        else:
            boundary = outcome

    if out_json is not None:
        summary = {
            "axis": axis,
            "grid": list(basin.grid),
            "labels": [cell.label for cell in basin.cells],
            "converged": [cell.converged for cell in basin.cells],
            "errors": [cell.error for cell in basin.cells],
            "boundary": boundary,
        }
        _write_text(out_json, json.dumps(summary, indent=2) + "\n")

    if all(cell.terminal is None for cell in basin.cells):
        print("error: every sweep cell failed", file=sys.stderr)
        return 1
    return 0


def run_fixed_points(scenario, out_json) -> int:
    """Write the verified fixed points of a scenario as a JSON list."""
    records = find_fixed_points(scenario)
    _write_text(out_json, json.dumps([_record_dict(r) for r in records], indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecoopinion",
        description="Deterministic simulator for 2x2 games coupled to "
                    "environmental feedback and opinion imitation dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command that runs a scenario loads it from --config and --set.
    scenario_args = argparse.ArgumentParser(add_help=False)
    scenario_args.add_argument("--config", required=True, help="scenario config file")
    scenario_args.add_argument("--set", action="append", metavar="KEY=VALUE",
                               help="override a config key (repeatable)")

    p_sim = sub.add_parser("simulate", parents=[scenario_args], help="integrate one scenario")
    p_sim.add_argument("--out-csv", required=True, help="trajectory CSV path")
    p_sim.add_argument("--out-json", help="summary JSON path")
    p_sim.add_argument("--out-svg", help="time-series SVG chart path")
    p_sim.set_defaults(run=lambda scenario, args: run_simulate(
        scenario, args.out_csv, args.out_json, args.out_svg))

    p_sweep = sub.add_parser("sweep", parents=[scenario_args],
                             help="basin scan over one initial-condition axis")
    p_sweep.add_argument("--axis", required=True, choices=AXES)
    p_sweep.add_argument("--grid", required=True, metavar="lo:hi:count")
    p_sweep.add_argument("--out-csv", required=True)
    p_sweep.add_argument("--out-json")
    p_sweep.set_defaults(run=lambda scenario, args: run_sweep(
        scenario, args.axis, _parse_grid(args.grid), args.out_csv, args.out_json))

    p_fp = sub.add_parser("fixed-points", parents=[scenario_args],
                          help="enumerate verified stationary states")
    p_fp.add_argument("--out-json", required=True)
    p_fp.set_defaults(run=lambda scenario, args: run_fixed_points(scenario, args.out_json))

    p_preset = sub.add_parser("preset", help="write a shipped preset config")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--write", required=True, help="destination path")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            _write_text(args.write, preset_text(args.name))
            return 0
        return args.run(load_config(args.config, overrides=args.set or ()), args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
