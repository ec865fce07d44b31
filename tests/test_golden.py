"""CLI and save_grid outputs, byte for byte, against committed files.

The files under tests/golden/ were written by the code at commit
f200eb77cdbb7026ac91be274dcbf6fbd9222a40, before the Wigner and scan
CSV writers were rewritten; the analyze and szilard stdout files by
the code at commit 645fad10d29fcf84be64ae9259d0826ce6318c4c, before
the report JSON was built from its records.  Each case is regenerated here and compared
byte for byte, so any change to a float's text, a separator or a blank
line shows.  After a deliberate change of the output format, rewrite
the files with `PYTHONPATH=src python tests/test_golden.py`.

The CLI's --grid sets both axes, so the CLI grids are square (21 x 21);
the 21 x 17 cases go through the same calls as `ncho wigner`
(wigner_form, project or marginal_position, save_grid), so a swapped
axis cannot hide.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from ncho import (
    PhysicalParams,
    WignerGrid,
    covariance,
    ground_state,
    marginal_position,
    project,
    save_grid,
    to_commutative,
    wigner_form,
)
from ncho.cli import main

GOLDEN = Path(__file__).parent / "golden"

POINT = ["--m1", "1.0", "--m2", "1.5", "--w1", "1.0", "--w2", "2.0"]
BASE = [*POINT, "--theta", "0.1", "--eta", "0.4"]
RIDGE = ["--plane", "x1,p2", "--fixed", "p1=0.3,x2=-0.2"]
# crosses the zero-mode surface theta eta = 4 at (2, 2): a degenerate row
SCAN = [
    "scan", *POINT,
    "--axis1", "theta=0:3:7", "--axis2", "eta=0:2.5:6",
]

# name -> (argv without --out, suffixes of the files it writes)
CLI_CASES = {
    "wigner_ridge": (["wigner", *BASE, *RIDGE, "--grid=-4:4:21"], (".csv", ".json")),
    "wigner_illustration_triples": (
        ["wigner", "--illustration", "--triples", "--grid=-4:4:21"],
        (".csv", ".json"),
    ),
    "wigner_marginal": (
        ["wigner", *BASE, "--marginal", "--grid=-3:3:21"],
        (".csv", ".json"),
    ),
    "scan": (SCAN, (".csv",)),
    "scan_json": ([*SCAN, "--format", "json"], (".json",)),
}

# on the constraint surface theta m1 wt1 = eta / (m2 wt2): a separable point
CONSTRAINT = [*POINT, "--theta", "0.1", "--eta", "0.3"]

# name -> argv of a command whose stdout is the output
STDOUT_CASES = {
    "analyze_base": ["analyze", *BASE],
    "analyze_base_pretty": ["analyze", *BASE, "--pretty"],
    "analyze_constraint": ["analyze", *CONSTRAINT],
    "analyze_constraint_pretty": ["analyze", *CONSTRAINT, "--pretty"],
    "szilard_base": ["szilard", *BASE],
    "szilard_constraint": ["szilard", *CONSTRAINT],
}

AXES_21_17 = ((-4.0, 4.0, 21), (-3.0, 3.0, 17))


def _form():
    p = PhysicalParams(1.0, 1.5, 1.0, 2.0, 0.1, 0.4)
    return wigner_form(covariance(ground_state(to_commutative(p))))


def _ridge_grid():
    return project(_form(), ("x1", "p2"), {"p1": 0.3, "x2": -0.2}, AXES_21_17)


def _marginal_grid():
    g1, g2, density = marginal_position(_form(), AXES_21_17)
    return WignerGrid(
        ("x1", "x2"), {}, g1, g2, density, _form(), kind="position_marginal"
    )


# name -> (grid factory, triples)
GRID_CASES = {
    "grid_ridge_21x17": (_ridge_grid, False),
    "grid_ridge_21x17_triples": (_ridge_grid, True),
    "grid_marginal_21x17": (_marginal_grid, False),
}


def write_case(name: str, prefix: Path) -> list:
    """Write the outputs of case `name` under `prefix`; return their paths."""
    if name in GRID_CASES:
        make, triples = GRID_CASES[name]
        return [Path(p) for p in save_grid(make(), str(prefix), triples=triples)]
    if name in STDOUT_CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(STDOUT_CASES[name])
        if status != 0:
            raise RuntimeError(f"{name}: {STDOUT_CASES[name]} failed")
        path = Path(f"{prefix}.json")
        path.write_text(out.getvalue())
        return [path]
    argv, suffixes = CLI_CASES[name]
    # wigner appends .csv and .json to --out; scan writes to --out itself
    out = f"{prefix}{suffixes[0]}" if argv[0] == "scan" else str(prefix)
    if main([*argv, "--out", out]) != 0:
        raise RuntimeError(f"{name}: {argv} failed")
    return [Path(f"{prefix}{s}") for s in suffixes]


@pytest.mark.parametrize("name", [*CLI_CASES, *GRID_CASES, *STDOUT_CASES])
def test_outputs_match_golden_bytes(name, tmp_path, capsys):
    for path in write_case(name, tmp_path / name):
        want = (GOLDEN / path.name).read_bytes()
        assert path.read_bytes() == want, path.name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in [*CLI_CASES, *GRID_CASES, *STDOUT_CASES]:
        for path in write_case(case, GOLDEN / case):
            print(path, file=sys.stderr)
