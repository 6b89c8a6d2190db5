"""Byte-for-byte regression net for every CLI output format.

Each case runs one CLI command on a shipped preset and compares the files it
writes with the copies under tests/golden/. After an intended output change,
rewrite the copies with `PYTHONPATH=src python tests/test_golden.py` and
review the diff.
"""

import pathlib

import pytest

from ecoopinion.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
PRESETS = ("hawk-dove", "prisoners-dilemma")

# (case name, command, preset, extra arguments, output formats, exit code);
# format "csv" is written through --out-csv to <case name>.csv, and so on.
CASES = [
    *[(f"simulate-{p}", "simulate", p, ["--set", "record_every=100"],
       ("csv", "json", "svg"), 0) for p in PRESETS],
    *[(f"fixed-points-{p}", "fixed-points", p, [], ("json",), 0) for p in PRESETS],
    *[(f"fixed-points-{p}-opinion", "fixed-points", p, ["--set", "protocol_matrix_mode=opinion"],
       ("json",), 0) for p in PRESETS],
    ("sweep-hawk-dove", "sweep", "hawk-dove", ["--axis", "y0", "--grid", "0:1:21"],
     ("csv", "json"), 0),
    ("blowup-hawk-dove", "simulate", "hawk-dove", ["--set", "dt=100", "--set", "t_max=1000"],
     ("csv",), 1),
]


def run_case(case, workdir):
    """Run one case, writing into workdir; returns the exit code and the
    written file names."""
    name, command, preset, args, formats, _ = case
    config = workdir / f"{preset}.cfg"
    assert main(["preset", preset, "--write", str(config)]) == 0
    names = [f"{name}.{fmt}" for fmt in formats]
    argv = [command, "--config", str(config), *args]
    for fmt, file_name in zip(formats, names):
        argv += [f"--out-{fmt}", str(workdir / file_name)]
    code = main(argv)
    config.unlink()
    return code, names


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_outputs_match_golden(case, tmp_path):
    code, names = run_case(case, tmp_path)
    assert code == case[5]
    for file_name in names:
        assert (tmp_path / file_name).read_bytes() == (GOLDEN / file_name).read_bytes(), file_name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        run_case(case, GOLDEN)
