"""CLI and save_grid outputs, byte for byte, against committed files.

The files under tests/golden/ were written by the code at commit
f200eb77cdbb7026ac91be274dcbf6fbd9222a40, before the Wigner and scan
CSV writers were rewritten; the szilard stdout files by the code at
commit 645fad10d29fcf84be64ae9259d0826ce6318c4c, before the report JSON
was built from its records.  The analyze stdout files were written at
that commit too, and rewritten by the first commit after
bcecb4d564435d9534e931d5ba7a27c0f5c181fb, which dropped the `inverse`
residual: only that line and `max` changed.  The szilard files were
rewritten, and szilard_squeezed added, by the first commit after
a5ef59636d8b7bf97d9626439d49da8b09f3d723, which took work_closed_form
from -4 det C for every pure state: only that value changed.  They were
rewritten again by the first commit after
4f4bc762ba646a3e645e65ec7cbe23631130f490, which runs the Szilard Schur
step on floats: only the last digits of det_after changed.  The
analyze files were regenerated by the first commit after
7c7a39e4b047cf429d5a11ff209fbe1f8a9c127e, which computes the eigensystem
residuals from Q^-1 Omega and Q^-1 Q on a float kernel: only
residuals.* of the two constraint files changed, each by less than
1e-16, and the two base files came out byte-identical.  They were
rewritten again by the first commit after
9d872948aaa80ffe2643212a7e65f4148a3b386d, which dropped the keys
rs_min_eigenvalue, separability.margin_unscaled,
separability.rhs_unscaled and spectral.b_cross_coefficient: every
other value and the order of the rest came out unchanged.  The analyze,
scan and szilard_constraint files were rewritten by the first commit
after 2c13027704368314af917809cc46e595a9532a0c, which takes b and c as
the invariants of Hm and dropped the keys spectral.wx2, spectral.wy2,
spectral.alpha0, ground_state.tau and ground_state.denom: the other
values moved in their last digits only (scan margins by up to 5e-13
relative; on the constraint surface, where y = 0 exactly, y went from
1.9e-17 to 3.8e-17 and work_closed_form from 6.0e-35 to 2.4e-34), and
the Wigner files came out byte-identical.  Every file but the
illustration was rewritten by the first commit after
263395aec12b60605dcdb8add128061c50174ead, which reads the spectrum and
ground state from the factored closed forms of the physical inputs and
measures the residuals in the scaled frame: the keys spectral.b,
spectral.c and spectral.delta went, the residuals moved below 5e-16,
on the constraint surface y is now exactly 0 (and with it the
covariance cross moments, det12, trace_term and work_closed_form), and
every other value moved in its last digits (scan margins by up to
2.4e-12 relative, the Wigner values by up to 1.4e-14).  Every file but
the illustration and szilard_constraint was rewritten again by the first
commit after 1a32eb606109305e587c5ab3bfba28e6cfaacef4, which forms V's
moments from overflow-free closed forms and the Bopp coefficients from
hypots: the key ground_state.d went, the residuals came out unchanged and
every other value moved by at most 1.4e-14 relative (scan margins and
the Wigner grids; the analyze and szilard values by at most 7.5e-16).
The four analyze files were rewritten by the first commit after
549aa09051ecc9bae53d4436d5f0ac2c3f8e67a9, which computes the identity
residuals on floats from the real form of the unit rows: only
residuals.eigvec_2, .diagonalization, .ladder and .max changed, by at
most 0.23 relative as describe_change reports it, each still below
5e-16, and every other file came out unchanged.  Each case is
regenerated here and compared byte for byte, so any change to a float's
text, a separator or a blank line shows; a JSON file that differs
fails with the keys whose values moved (describe_change) in place of a
byte diff.  After a deliberate change of
the output format, rewrite the files with
`PYTHONPATH=src python tests/test_golden.py`; for each file it rewrites
it prints what describe_change reports: for JSON the keys removed,
added and changed, for CSV the number of changed cells, each with the
largest relative change.

The CLI's --grid sets both axes, so the CLI grids are square (21 x 21);
the 21 x 17 cases go through the same calls as `ncho wigner`
(wigner_form, project or marginal_position, save_grid), so a swapped
axis cannot hide.
"""

import contextlib
import io
import json
import re
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
    "szilard_squeezed": ["szilard", *BASE, "--mu", "2", "--angle", "0.7"],
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
        want, got = (GOLDEN / path.name).read_bytes(), path.read_bytes()
        if path.suffix == ".json" and got != want:
            pytest.fail(f"{path.name}: {describe_change(want, got)}", pytrace=False)
        assert got == want, path.name


def _leaves(obj, key=""):
    """(dotted key, value) of every scalar in a parsed JSON value."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for k, v in items:
            yield from _leaves(v, f"{key}.{k}" if key else str(k))
    else:
        yield key, obj


def _largest_relative_change(pairs) -> str:
    """The largest |new - old| / |old| over (old, new) pairs of numbers."""
    rel = [abs(b - a) / abs(a) if a else float("inf") for a, b in pairs]
    return f"{max(rel):.2g}" if rel else "n/a (non-numeric)"


def describe_change(old: bytes | None, new: bytes) -> str:
    """What a rewrite changed.  For JSON: the keys removed, added and
    changed, with the largest relative change among the changed numeric
    values.  For CSV (cells split at commas and spaces): how many cells
    changed and the largest relative change among the numeric ones."""
    if old is None:
        return "new file"
    if old == new:
        return "unchanged"
    try:
        before, after = (dict(_leaves(json.loads(t))) for t in (old, new))
    except ValueError:
        return _describe_csv_change(old, new)
    removed, added = before.keys() - after.keys(), after.keys() - before.keys()
    parts = [
        f"{verb} {', '.join(sorted(keys))}"
        for verb, keys in (("removed", removed), ("added", added))
        if keys
    ]
    changed = sorted(k for k in before.keys() & after.keys() if before[k] != after[k])
    if changed:
        numeric = [
            (before[k], after[k])
            for k in changed
            if all(type(d[k]) in (int, float) for d in (before, after))
        ]
        parts.append(
            f"changed {', '.join(changed)}; "
            f"largest relative change {_largest_relative_change(numeric)}"
        )
    return "; ".join(parts) or "changed in formatting only"


def _describe_csv_change(old: bytes, new: bytes) -> str:
    before, after = (
        [re.split("[ ,]", line) for line in t.decode().splitlines()] for t in (old, new)
    )
    if [len(row) for row in before] != [len(row) for row in after]:
        return "changed in shape (rows or cells per row)"
    pairs = [(a, b) for ra, rb in zip(before, after) for a, b in zip(ra, rb) if a != b]
    if not pairs:
        return "changed in formatting only"
    numeric = []
    for a, b in pairs:
        try:
            numeric.append((float(a), float(b)))
        except ValueError:
            pass
    return (
        f"changed {len(pairs)} of {sum(map(len, before))} cells; "
        f"largest relative change {_largest_relative_change(numeric)}"
    )


def test_describe_change_names_keys_and_largest_relative_change():
    old = b'{"a": {"x": 1.0, "y": [2.0, 4.0]}, "v": "s"}\n'
    new = b'{"a": {"x": 1.0, "y": [2.5, 4.0]}, "v": "t"}\n'
    assert describe_change(old, new) == "changed a.y.0, v; largest relative change 0.25"
    assert describe_change(old, old) == "unchanged"
    assert describe_change(None, new) == "new file"
    assert describe_change(old, old.replace(b" ", b"")) == "changed in formatting only"
    dropped = b'{"a": {"y": [2.0, 4.0]}, "v": "s", "w": 1.0}\n'
    assert describe_change(old, dropped) == "removed a.x; added w"
    assert describe_change(new, dropped) == (
        "removed a.x; added w; changed a.y.0, v; largest relative change 0.2"
    )
    assert describe_change(b"t,m\n1.0,2.0\n", b"t,m\n1.0,2.5\n") == (
        "changed 1 of 4 cells; largest relative change 0.25"
    )
    assert describe_change(b"# x w\n1 2\n", b"# x w\n1 3\n") == (
        "changed 1 of 5 cells; largest relative change 0.5"
    )
    assert describe_change(b"1,,a\n", b"1,,b\n") == (
        "changed 1 of 3 cells; largest relative change n/a (non-numeric)"
    )
    assert describe_change(b"1,2\n", b"1,2\n3\n") == "changed in shape (rows or cells per row)"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in [*CLI_CASES, *GRID_CASES, *STDOUT_CASES]:
        before = {p.name: p.read_bytes() for p in GOLDEN.glob(f"{case}.*")}
        for path in write_case(case, GOLDEN / case):
            change = describe_change(before.get(path.name), path.read_bytes())
            print(f"{path}: {change}", file=sys.stderr)
