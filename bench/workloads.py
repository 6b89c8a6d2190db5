"""The benchmark's four workloads.

Each workload builds its inputs from a seeded ``random.Random`` during set-up,
runs one op per input through the package's public functions, and checks
every op's output outside the op's timed interval. An input list of
``cycle`` entries is reused in order when a run needs more ops; the first
``ref_ops`` inputs form the reference set whose counters and digests must
repeat exactly between runs of the same code and seed.

Seeded values are stratified (one draw per equal-width stratum, shuffled), so
every seed covers its input range evenly and per-run medians stay comparable
across seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

SWEEP_X0 = (0.4, 0.6)
SWEEP_N0 = (0.2, 0.4)
TRAJECTORY_Y0 = (0.1, 0.9)
# Hawk-dove cells take about 40 ms and prisoners-dilemma cells about 200 ms,
# so the two row lengths give rows of similar cost on both presets.
BASIN_GRIDS = {
    "hawk-dove": tuple(k / 20 for k in range(21)),
    "prisoners-dilemma": tuple(0.05 + 0.225 * k for k in range(5)),
}
PRESET_FILES = {"hawk-dove": "hawk-dove.cfg", "prisoners-dilemma": "prisoners-dilemma.cfg"}


@dataclass
class Checked:
    """What the client learns from one op: an output digest, the problems
    that make it a failed op, and the bytes the op wrote."""

    digest: str
    problems: list = field(default_factory=list)
    output_bytes: int = 0


def stratified(rng, count, lo, hi):
    values = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(values)
    return values


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else str(chunk).encode())
        h.update(b"\0")
    return h.hexdigest()


def _state_bits(state) -> str:
    return f"{state.x.hex()},{state.n.hex()},{state.y.hex()}"


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_presets(pkg, workdir):
    paths = {}
    for name, filename in PRESET_FILES.items():
        path = os.path.join(workdir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(pkg.preset_text(name))
        paths[name] = path
    return paths


class Sweep:
    """The ``sweep`` CLI command on hawk-dove along y0, grid 0:1:21, with
    seeded x0 and n0; every op bisects its one label switch."""

    name = "sweep"
    cycle = 16
    ref_ops = 1

    def build(self, ctx, rng):
        cfg = _write_presets(ctx.pkg, ctx.workdir)["hawk-dove"]
        csv_path = os.path.join(ctx.workdir, "sweep.csv")
        json_path = os.path.join(ctx.workdir, "sweep.json")
        xs = stratified(rng, self.cycle, *SWEEP_X0)
        ns = stratified(rng, self.cycle, *SWEEP_N0)
        ctx.state["probe"] = ctx.pkg.load_config(cfg, overrides=(f"x0={xs[0]!r}", f"n0={ns[0]!r}"))
        return [
            ["sweep", "--config", cfg, "--set", f"x0={x!r}", "--set", f"n0={n!r}",
             "--axis", "y0", "--grid", "0:1:21", "--out-csv", csv_path, "--out-json", json_path]
            for x, n in zip(xs, ns)
        ]

    def run(self, ctx, argv):
        return ctx.cli.main(argv)

    def check(self, ctx, argv, rc):
        csv_bytes = _read(argv[-3])
        json_bytes = _read(argv[-1])
        out = Checked(_sha(rc, csv_bytes, json_bytes), output_bytes=len(csv_bytes) + len(json_bytes))
        if rc != 0:
            out.problems.append(f"exit code {rc}")
            return out
        summary = json.loads(json_bytes)
        labels, grid = summary["labels"], summary["grid"]
        if any(label is None for label in labels):
            out.problems.append("unresolved cell")
        if any(err is not None for err in summary["errors"]):
            out.problems.append("error cell")
        if not all(summary["converged"]):
            out.problems.append("unconverged cell")
        switches = [k for k in range(len(labels) - 1) if labels[k] != labels[k + 1]]
        boundary = summary["boundary"]
        if len(switches) != 1:
            out.problems.append(f"{len(switches)} label switches, expected 1")
        elif boundary is None:
            out.problems.append("no boundary")
        elif not grid[switches[0]] < boundary < grid[switches[0] + 1]:
            out.problems.append(f"boundary {boundary!r} outside its switching cell pair")
        if len(csv_bytes.splitlines()) != len(grid) + 1:
            out.problems.append("CSV row count differs from the grid")
        return out

    def probe(self, ctx):
        return ctx.state["probe"].with_initial("y0", 0.5)


class BasinMap:
    """One in-process ``basin_scan`` row along y0 per op, alternating the two
    presets, with seeded x0 and n0 and the fixed points computed in set-up."""

    name = "basin-map"
    cycle = 16
    ref_ops = 2

    def build(self, ctx, rng):
        pkg = ctx.pkg
        presets = {name: pkg.preset_scenario(name) for name in BASIN_GRIDS}
        records = {name: pkg.find_fixed_points(sc) for name, sc in presets.items()}
        half = self.cycle // 2
        rows = {}
        for name in BASIN_GRIDS:
            xs = stratified(rng, half, *SWEEP_X0)
            ns = stratified(rng, half, *SWEEP_N0)
            rows[name] = [presets[name].with_initial("x0", x).with_initial("n0", n)
                          for x, n in zip(xs, ns)]
        inputs = []
        for k in range(half):
            for name in BASIN_GRIDS:
                inputs.append((rows[name][k], BASIN_GRIDS[name], records[name]))
        return inputs

    def run(self, ctx, inp):
        scenario, grid, records = inp
        return ctx.pkg.basin_scan(scenario, "y0", grid, fixed_points=records)

    def check(self, ctx, inp, basin):
        cells = basin.cells
        out = Checked(_sha(*(
            f"{c.initial.hex()}|{'-' if c.terminal is None else _state_bits(c.terminal)}"
            f"|{c.label}|{c.converged}|{c.unresolved}|{c.error}" for c in cells
        )))
        if len(cells) != len(inp[1]):
            out.problems.append("cell count differs from the grid")
        for c in cells:
            if c.error is not None or c.terminal is None:
                out.problems.append(f"error cell at y0={c.initial!r}")
            elif c.label is None or c.unresolved:
                out.problems.append(f"unresolved cell at y0={c.initial!r}")
            elif not c.converged:
                out.problems.append(f"unconverged cell at y0={c.initial!r}")
        return out

    def probe(self, ctx):
        scenario, grid, _ = ctx.inputs[0]
        return scenario.with_initial("y0", grid[len(grid) // 2])


class Trajectory:
    """The ``simulate`` CLI command at record_every=1 writing CSV, JSON and
    SVG, on a seeded y0; each group of three ops runs hawk-dove twice and
    prisoners-dilemma once, in seeded order."""

    name = "trajectory"
    cycle = 24
    ref_ops = 3

    def build(self, ctx, rng):
        cfgs = _write_presets(ctx.pkg, ctx.workdir)
        ctx.state["dt"] = {name: ctx.pkg.load_config(path).settings.dt
                           for name, path in cfgs.items()}
        groups = self.cycle // 3
        ys = {"hawk-dove": stratified(rng, 2 * groups, *TRAJECTORY_Y0),
              "prisoners-dilemma": stratified(rng, groups, *TRAJECTORY_Y0)}
        out = {suffix: os.path.join(ctx.workdir, "trajectory." + suffix)
               for suffix in ("csv", "json", "svg")}
        inputs = []
        for _ in range(groups):
            order = ["hawk-dove", "hawk-dove", "prisoners-dilemma"]
            rng.shuffle(order)
            for name in order:
                y0 = ys[name].pop()
                inputs.append((name, [
                    "simulate", "--config", cfgs[name], "--set", "record_every=1",
                    "--set", f"y0={y0!r}", "--out-csv", out["csv"],
                    "--out-json", out["json"], "--out-svg", out["svg"],
                ]))
        name, argv = inputs[0]
        ctx.state["probe"] = ctx.pkg.load_config(cfgs[name], overrides=(argv[6],))
        return inputs

    def run(self, ctx, inp):
        return ctx.cli.main(inp[1])

    def check(self, ctx, inp, rc):
        name, argv = inp
        csv_bytes, json_bytes, svg_bytes = (_read(argv[k]) for k in (8, 10, 12))
        out = Checked(_sha(rc, csv_bytes, json_bytes, svg_bytes),
                      output_bytes=len(csv_bytes) + len(json_bytes) + len(svg_bytes))
        if rc != 0:
            out.problems.append(f"exit code {rc}")
            return out
        rows = csv_bytes.decode().splitlines()[1:]
        summary = json.loads(json_bytes)
        last = [float(v) for v in rows[-1].split(",")]
        if not summary["converged"] or summary["t_converged"] != last[0]:
            out.problems.append("run did not converge at its last sample")
        # record_every=1 keeps the initial state and every step.
        if len(rows) != round(last[0] / ctx.state["dt"][name]) + 1:
            out.problems.append(f"{len(rows)} CSV rows for {last[0]!r} time units")
        terminal = summary["terminal"]
        if [terminal["x"], terminal["n"], terminal["y"]] != last[1:4]:
            out.problems.append("JSON terminal differs from the last CSV row")
        nearest = summary["nearest_fixed_point"]
        if nearest is None or nearest["distance"] > ctx.pkg.LABEL_RADIUS:
            out.problems.append("terminal state matches no fixed point")
        try:
            root = ET.fromstring(svg_bytes)
        except ET.ParseError as err:
            out.problems.append(f"SVG does not parse: {err}")
            return out
        lines = [el for el in root.iter() if el.tag.endswith("polyline")]
        if len(lines) != 3 or any(len(el.get("points", "").split()) != len(rows) for el in lines):
            out.problems.append("SVG polylines do not hold one point per sample")
        return out

    def probe(self, ctx):
        return ctx.state["probe"]


class FixedPoints:
    """In-process ``find_fixed_points`` on seeded random valid scenarios,
    alternating the two protocol_matrix_mode values."""

    name = "fixed-points"
    cycle = 512
    ref_ops = 32

    def build(self, ctx, rng):
        pkg = ctx.pkg
        inputs = []
        for k in range(self.cycle):
            a0 = ", ".join(repr(rng.uniform(-5.0, 5.0)) for _ in range(4))
            a1 = ", ".join(repr(rng.uniform(-5.0, 5.0)) for _ in range(4))
            # psi == 0 puts an environment-null family on the x = 0 face; it
            # is given to a fixed eighth of the inputs, in both protocol modes,
            # so every seed has the same mix of these slower scans.
            psi = 0.0 if (k // 2) % 8 == 0 else -rng.uniform(0.05, 3.0)
            trust = "\n".join(f"{key} = {rng.random()!r}" for key in ("b11", "b12", "b21", "b22"))
            text = (
                f"label = random-{k}\na0 = {a0}\na1 = {a1}\n"
                f"theta = {rng.uniform(0.2, 3.0)!r}\npsi = {psi!r}\n{trust}\n"
                f"x0 = 0.5\nn0 = 0.5\ny0 = 0.5\n"
                f"protocol_matrix_mode = {('env', 'opinion')[k % 2]}\n"
            )
            inputs.append(pkg.parse_config(text, source=f"random-{k}"))
        ctx.state["probe"] = pkg.preset_scenario(
            "hawk-dove", overrides=(f"y0={rng.uniform(*TRAJECTORY_Y0)!r}",))
        return inputs

    def run(self, ctx, scenario):
        return ctx.pkg.find_fixed_points(scenario)

    def check(self, ctx, scenario, records):
        out = Checked(_sha(*(
            f"{_state_bits(r.state)}|{r.residual.hex()}|{r.kind}|{r.family}" for r in records
        )))
        if not records:
            out.problems.append("no fixed points")
        f = ctx.raw["make_rhs"](scenario.pair, scenario.env, scenario.trust,
                                scenario.protocol_matrix_mode)
        tol = ctx.pkg.RESIDUAL_TOL
        for r in records:
            d = f(r.state.x, r.state.n, r.state.y)
            if not max(abs(d[0]), abs(d[1]), abs(d[2])) < tol:
                out.problems.append(f"record {_state_bits(r.state)} is not stationary")
        return out

    def probe(self, ctx):
        return ctx.state["probe"]


WORKLOADS = {w.name: w for w in (Sweep(), BasinMap(), Trajectory(), FixedPoints())}
