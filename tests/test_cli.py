"""Exit codes, output determinism and file formats of the ncho CLI."""

import json
import re
import subprocess
import sys

import pytest

import ncho
from ncho import cli
from ncho.cli import main

BASE_FLAGS = [
    "--m1", "1.0", "--m2", "1.5", "--w1", "1.0", "--w2", "2.0",
    "--theta", "0.1", "--eta", "0.4",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analyze


def test_analyze_reports_full_pipeline(capsys):
    code, out, err = run(capsys, ["analyze", *BASE_FLAGS])
    assert code == 0
    obj = json.loads(out)
    assert list(obj)[:4] == ["version", "tolerances", "inputs", "effective_planck"]
    assert obj["inputs"]["w2"] == 2.0
    assert obj["spectral"]["lambda1"] == pytest.approx(2.095801337491616)
    assert obj["residuals"]["max"] < 1e-9
    assert obj["separability"]["verdict"] == "entangled"
    assert obj["separability"]["ppt_verdict"] == "entangled"
    assert obj["separability"]["reason"] == "generic"
    assert len(obj["covariance"]) == 4


def test_analyze_residual_above_tol_exits_4(capsys):
    """--tol 1e-20 is below any residual that float64 reaches: the
    eigensystem raises SingularQ, the one identity check."""
    code, out, err = run(capsys, ["analyze", *BASE_FLAGS, "--tol", "1e-20"])
    assert (code, out) == (4, "")
    assert re.fullmatch(r"error: identity residual \d\.\d{3}e-\d\d exceeds 1\.0e-20\n", err)


def test_analyze_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["analyze", *BASE_FLAGS])
    _, second, _ = run(capsys, ["analyze", *BASE_FLAGS])
    assert first == second
    assert first.endswith("\n")


def test_analyze_pretty_is_same_object(capsys):
    _, compact, _ = run(capsys, ["analyze", *BASE_FLAGS])
    _, pretty, _ = run(capsys, ["analyze", *BASE_FLAGS, "--pretty"])
    assert pretty.count("\n") > compact.count("\n")
    assert json.loads(pretty) == json.loads(compact)


@pytest.mark.parametrize(
    "patch",
    [
        ("--m1", "-1.0"),
        ("--m2", "0.0"),
        ("--w1", "nan"),
        ("--theta", "-0.1"),
        ("--eta", "-2.0"),
    ],
)
def test_analyze_rejects_bad_parameters(capsys, patch):
    argv = ["analyze", *BASE_FLAGS, *patch]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
@pytest.mark.parametrize(
    "command,flag",
    [
        ("analyze", "--tol"),
        ("analyze", "--eps-sep"),
        ("analyze", "--eps-c"),
        ("scan", "--eps-sep"),
    ],
)
def test_tolerance_flags_reject_non_finite_or_non_positive(capsys, command, flag, value):
    """A NaN eps_sep called the separable point theta = 0.1 entangled and
    printed NaN, which is not JSON; an infinite one made every point
    separable."""
    argv = ["--m1", "1", "--m2", "1.5", "--w1", "1", "--w2", "2", "--eta", "0.3"]
    argv += ["--theta", "0.1"] if command == "analyze" else ["--axis1", "theta=0:0.2:3"]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, f"{flag}={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be a finite number > 0" in captured.err


@pytest.mark.parametrize(
    "patch",
    [
        ("--w2", "1.0", "--theta", "0.0", "--eta", "0.0"),  # mode collision
        ("--theta", "2.0", "--eta", "2.0"),  # zero-frequency mode
    ],
)
def test_analyze_degenerate_points_exit_3(capsys, patch):
    code, out, err = run(capsys, ["analyze", *BASE_FLAGS, *patch])
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["analyze", "szilard"])
def test_near_collision_of_far_apart_scales_exits_3(capsys, command):
    """A true near-collision (P-/P+ ~ 2.5e-183 in the factored spectrum):
    the mode-collision gate sees it once b and c are Hm's invariants.  The
    comparison-frequency route missed it and exited 4 in the eigensystem
    check."""
    flags = ["--m1", "1e-100", "--m2", "1e-40", "--w1", "1e-20", "--w2", "1e-20"]
    code, out, err = run(capsys, [command, *flags, "--theta", "0.1", "--eta", "0"])
    assert (code, out) == (3, "")
    assert err.startswith("error: normal modes collide")


EXTREME = ("1e-300", "1e-150", "1e150", "1e300")


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow notes
@pytest.mark.parametrize("w1", EXTREME)
@pytest.mark.parametrize("m1", EXTREME)
def test_extreme_finite_inputs_end_in_typed_errors(capsys, m1, w1):
    """Finite inputs whose closed forms overflow float64 are degenerate
    points: analyze exits 3 (it ended in ZeroDivisionError at 6 of these
    16 points) and the scan marks the row (it ended in LinAlgError at 12).
    A scan row is degenerate exactly where analyze at its point exits 3.
    numpy warns of no overflow: stderr is the one error line."""
    base = ["--m1", m1, "--m2", "1.5", "--w1", w1, "--w2", "2", "--eta", "0.4"]
    code, out, err = run(capsys, ["analyze", *base, "--theta", "0.3"])
    assert (code, out) == (3, "")
    assert err.startswith("error:") and err.count("\n") == 1
    code, out, err = run(capsys, ["scan", *base, "--axis1", "theta=0:1:3"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 3
    for theta, *_, degenerate in rows:
        exit_code = main(["analyze", *base, "--theta", theta])
        capsys.readouterr()
        assert exit_code in (0, 3, 4)
        assert (exit_code == 3) == (degenerate == "true")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "point",
    [
        ("1e-44", "1e-99", "1e-78", "1e-74", "0.04"),  # L11 underflows to 0
        ("1e-30", "1e130", "1e20", "1e18", "0"),  # L22 overflows to inf
    ],
)
def test_ground_state_out_of_float64_range_exits_4(capsys, tmp_path, point):
    """Past the spectral gates the ground-state formulas can still under-
    or overflow float64 at such scales; the covariance is then not finite
    and analyze, szilard, scan and wigner agree on exit 4, with no numpy
    warning (the scan used to flag the first point degenerate and end the
    second in LinAlgError; wigner wrote files of NaN)."""
    flags = [f"--{k}={v}" for k, v in zip(("m1", "m2", "w1", "w2", "theta"), point)]
    axis = f"--axis1=theta={point[4]}:{point[4]}:1"
    wigner = ["wigner", "--eta=0", f"--out={tmp_path / 'w'}"]
    commands = (["analyze", "--eta=0"], ["szilard", "--eta=0"], ["scan", "--eta=0", axis], wigner)
    for argv in commands:
        code, out, err = run(capsys, [*argv, *flags])
        assert (code, out, err) == (4, "", "error: V is not finite\n")
    assert not any(tmp_path.iterdir())


# a pure ground state whose covariance has |V|_F ~ 1.6e6: rounding puts
# the smallest Robertson-Schroedinger eigenvalue near -2.9e-10, which an
# absolute tolerance of 1e-10 rejected
LARGE_V_FLAGS = [
    "--m1", "0.4110636528635846", "--m2", "4882.7966867515115",
    "--w1", "0.009258397936562218", "--w2", "636.4555829540503",
    "--theta", "0.4956299009404123",
]


def test_analyze_accepts_large_pure_covariance(capsys):
    code, out, err = run(
        capsys, ["analyze", *LARGE_V_FLAGS, "--eta", "0.013220750904957662"]
    )
    assert (code, err) == (0, "")
    rep = json.loads(out)["separability"]
    assert rep["verdict"] == rep["ppt_verdict"]


def test_scan_accepts_large_pure_covariances(capsys):
    code, out, err = run(
        capsys, ["scan", *LARGE_V_FLAGS, "--axis1", "eta=0.01:0.02:11"]
    )
    assert code == 0
    assert "points=11" in err


# the documented exit status of each error type
EXIT_CODES = {
    "NonPositiveParameter": 2,
    "NegativeDeformation": 2,
    "EmptyRange": 2,
    "InvalidAxisName": 2,
    "InvalidPlane": 2,
    "HomodyneUnsupported": 2,
    "DegenerateSpectrum": 3,
    "DegenerateGroundState": 3,
    "EigenvectorResidualTooLarge": 4,
    "SingularQ": 4,
    "UnphysicalCovariance": 4,
    "SingularMeasurement": 4,
    "DegenerateForm": 4,
}


def test_exit_code_table_covers_every_error_type():
    names = {
        n for n in ncho.__all__
        if isinstance(getattr(ncho, n), type)
        and issubclass(getattr(ncho, n), ncho.NchoError)
    }
    assert names == {*EXIT_CODES, "NchoError"}


@pytest.mark.parametrize("name,code", EXIT_CODES.items())
def test_error_type_sets_exit_code(capsys, monkeypatch, name, code):
    cls = getattr(ncho, name)
    field_errors = ("NonPositiveParameter", "NegativeDeformation")
    err = cls("m1", -1.0) if name in field_errors else cls("boom")

    def fail(args):
        raise err

    monkeypatch.setattr(cli, "cmd_analyze", fail)
    got, out, stderr = run(capsys, ["analyze", *BASE_FLAGS])
    assert (got, out, stderr) == (code, "", f"error: {err}\n")


# ---------------------------------------------------------------- scan


def test_scan_csv_and_summary(capsys):
    code, out, err = run(
        capsys,
        [
            "scan", *BASE_FLAGS,
            "--axis1", "eta=0.2:0.6:81",
        ],
    )
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "eta,margin,verdict,boundary,degenerate"
    assert len(lines) == 82
    assert "points=81 separable=1 entangled=80 boundary=1 degenerate=0" in err
    # eta* = theta m1 w1 m2 w2 = 0.1*1*1*1.5*2 = 0.3, grid index 20
    sep_row = lines[1 + 20].split(",")
    assert sep_row[0] == "0.3"
    assert sep_row[2] == "separable"


def test_scan_axis_default_and_2d(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    code, out, err = run(
        capsys,
        [
            "scan",
            "--m1", "1.0", "--m2", "1.5", "--w2", "2.0", "--theta", "0.1",
            "--axis1", "w1=0.5:1.5:3",
            "--axis2", "eta=0.1:0.3:2",
            "--out", str(out_file),
        ],
    )
    assert code == 0
    assert out == ""
    lines = out_file.read_text().rstrip("\n").split("\n")
    assert lines[0] == "w1,eta,margin,verdict,boundary,degenerate"
    assert len(lines) == 7
    assert lines[1].startswith("0.5,0.1,")
    assert lines[2].startswith("0.5,0.3,")  # axis2 varies fastest


def test_scan_json_round_trip(capsys):
    code, out, err = run(
        capsys,
        ["scan", *BASE_FLAGS, "--axis1", "eta=0.2:0.6:5", "--format", "json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["axes"][0]["name"] == "eta"
    assert len(obj["rows"]) == 5
    assert {r["verdict"] for r in obj["rows"]} <= {"separable", "entangled"}


def test_scan_degenerate_rows_are_kept(capsys):
    code, out, err = run(
        capsys,
        [
            "scan",
            "--m1", "1.0", "--m2", "1.0", "--w1", "1.0", "--theta", "0.0",
            "--eta", "0.0",
            "--axis1", "w2=0.5:1.5:3",
        ],
    )
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[2] == "1.0,,,false,true"
    assert "degenerate=1" in err


@pytest.mark.parametrize(
    "argv,code",
    [
        (["scan", *BASE_FLAGS, "--axis1", "zeta=0:1:5"], 2),
        (["scan", *BASE_FLAGS, "--axis1", "eta=0:1"], 2),
        (["scan", *BASE_FLAGS, "--axis1", "eta=0.1:0.5:0"], 2),
        (["scan", *BASE_FLAGS, "--axis1", "eta=0:1:4", "--axis2", "eta=0:1:4"], 2),
        (["scan", "--m1", "1.0", "--axis1", "eta=0:1:4"], 2),
    ],
)
def test_scan_usage_errors(capsys, argv, code):
    got, out, err = run(capsys, argv)
    assert got == code
    assert "error" in err


# ---------------------------------------------------------------- wigner


def test_wigner_illustration_files(capsys, tmp_path):
    prefix = str(tmp_path / "demo")
    code, out, err = run(
        capsys,
        ["wigner", "--illustration", "--grid=-4:4:41", "--out", prefix],
    )
    assert code == 0
    meta = json.loads((tmp_path / "demo.json").read_text())
    assert meta["degenerate"] is True
    assert meta["plane"] == ["x2", "p2"]
    assert meta["norm"] == pytest.approx(2 / 3.141592653589793)
    header = (tmp_path / "demo.csv").read_text().split("\n")[0]
    assert header.startswith(",-4.0,")


def test_wigner_physical_point_marginal(capsys, tmp_path):
    prefix = str(tmp_path / "marg")
    code, out, err = run(
        capsys,
        ["wigner", *BASE_FLAGS, "--marginal", "--grid=-3:3:31", "--out", prefix],
    )
    assert code == 0
    meta = json.loads((tmp_path / "marg.json").read_text())
    assert meta["kind"] == "position_marginal"
    assert meta["plane"] == ["x1", "x2"]
    assert meta["degenerate"] is False


def test_wigner_marginal_of_wide_state(capsys, tmp_path):
    """<x1^2> = 5e12: the position block is tiny in absolute terms but well
    conditioned, and the marginal gate is relative."""
    prefix = str(tmp_path / "wide")
    argv = [
        "wigner", "--m1", "1e-6", "--m2", "1e-6", "--w1", "1e-7", "--w2", "2e-7",
        "--theta", "0", "--eta", "0", "--marginal", "--out", prefix,
    ]
    code, out, err = run(capsys, argv)
    assert code == 0
    meta = json.loads((tmp_path / "wide.json").read_text())
    assert meta["kind"] == "position_marginal"
    assert meta["w_max"] > 0.0


def test_wigner_of_widely_scaled_pure_state(capsys, tmp_path):
    """A ground state from the seed-1 wide probe that a purity residual
    |2 M V - 1| = 1.3e-9 rejected with ValueError; 16 det V - 1 = 6e-14."""
    prefix = str(tmp_path / "spread")
    argv = [
        "wigner", "--m1", "30.330325174436073", "--m2", "2090.24586085497",
        "--w1", "22.700718990275778", "--w2", "101758.91261188213",
        "--theta", "0.0002651173502461939", "--eta", "0.096301468560406",
        "--out", prefix,
    ]
    code, out, err = run(capsys, argv)
    assert (code, out) == (0, "")
    meta = json.loads((tmp_path / "spread.json").read_text())
    assert meta["degenerate"] is False
    assert (tmp_path / "spread.csv").stat().st_size > 0


def test_wigner_triples_layout(capsys, tmp_path):
    prefix = str(tmp_path / "t")
    code, out, err = run(
        capsys,
        [
            "wigner", "--illustration", "--plane", "x1,p2",
            "--fixed", "p1=1,x2=1", "--grid=-2:2:9", "--triples",
            "--out", prefix,
        ],
    )
    assert code == 0
    first = (tmp_path / "t.csv").read_text().split("\n")[0]
    assert first == "# x1 p2 w"


def test_wigner_marginal_of_degenerate_form_fails(capsys, tmp_path):
    code, out, err = run(
        capsys,
        ["wigner", "--illustration", "--marginal", "--out", str(tmp_path / "x")],
    )
    assert code == 4
    assert "error" in err


@pytest.mark.parametrize("patch", [("--m1", "-1.0"), ("--theta", "-0.1"), ("--w2", "nan")])
def test_wigner_rejects_bad_parameters(capsys, tmp_path, patch):
    prefix = tmp_path / "w"
    code, out, err = run(capsys, ["wigner", *BASE_FLAGS, *patch, "--out", str(prefix)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--illustration", "--plane", "x1,x9"],
        ["wigner", "--illustration", "--plane", "x1"],
        ["wigner", "--illustration", "--fixed", "x1=1"],
        ["wigner", "--illustration", "--grid", "0:1"],
        ["wigner", "--m1", "1.0"],
    ],
)
def test_wigner_usage_errors(capsys, tmp_path, argv):
    code, out, err = run(capsys, [*argv, "--out", str(tmp_path / "w")])
    assert code == 2
    assert "error" in err


RIDGE = ["wigner", "--illustration", "--plane", "x1,p2", "--fixed", "p1=0,x2=0"]


@pytest.mark.parametrize(
    "argv",
    [
        [*RIDGE, "--grid=-4:4:0"],
        [*RIDGE, "--grid=-4:4:-3"],
        [*RIDGE, "--grid=nan:4:3"],
        [*RIDGE, "--grid=-4:inf:3"],
        [*RIDGE, "--grid=-1e308:1e308:3"],  # the nodes overflow
        [*RIDGE[:-1], "p1=nan,x2=0", "--grid=-4:4:3"],
        ["wigner", *BASE_FLAGS, "--marginal", "--grid=-3:3:0"],
        ["wigner", *BASE_FLAGS, "--marginal", "--grid=nan:3:5"],
    ],
)
def test_wigner_bad_grid_exits_2_and_writes_nothing(capsys, tmp_path, argv):
    code, out, err = run(capsys, [*argv, "--out", str(tmp_path / "w")])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- szilard


def test_szilard_reports_work(capsys):
    code, out, err = run(capsys, ["szilard", *BASE_FLAGS])
    assert code == 0
    obj = json.loads(out)
    assert obj["work"] == pytest.approx(4.534908824240489e-05, rel=1e-12)
    assert obj["work_closed_form"] == pytest.approx(obj["work"], rel=1e-10)
    assert obj["measurement"] == {"mu": 1.0, "angle": 0.0, "kbt": 1.0}
    assert obj["det_before"] > obj["det_after"]


def test_szilard_uncorrelated_point_yields_nothing(capsys):
    flags = [
        "--m1", "1.0", "--m2", "2.0", "--w1", "1.0", "--w2", "2.0",
        "--theta", "0.0", "--eta", "0.0",
    ]
    code, out, err = run(capsys, ["szilard", *flags])
    assert code == 0
    assert json.loads(out)["work"] == 0.0


@pytest.mark.parametrize("patch", [("--m1", "-1.0"), ("--theta", "-0.1"), ("--w2", "nan")])
def test_szilard_rejects_bad_parameters(capsys, patch):
    code, out, err = run(capsys, ["szilard", *BASE_FLAGS, *patch])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_szilard_measurement_gate_is_scale_free(capsys):
    """Here V2 + gamma is diag(3.5e15, 0.5): its determinant equals the
    product of its diagonal, yet a gate against the square of its largest
    entry called it singular (det = 1.753e+15) and exited 4."""
    flags = ["--m1", "3.47e22", "--m2", "4.67e-11", "--w1", "0.266", "--w2", "0.000118"]
    code, out, err = run(capsys, ["szilard", *flags, "--theta", "0.00175", "--eta", "0.000188"])
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["det_after"] == pytest.approx(0.25, rel=1e-12)
    assert obj["work"] == pytest.approx(obj["work_closed_form"], rel=1e-9)


def test_szilard_rejects_non_finite_angle(capsys):
    code, out, err = run(capsys, ["szilard", *BASE_FLAGS, "--angle", "nan"])
    assert (code, out) == (2, "")
    assert err == "error: parameter 'angle' must be finite, got nan\n"


def test_szilard_checks_the_spec_once(capsys, monkeypatch):
    """One check of the measurement spec per run, and the order of its
    errors is mu, then kbt, then angle."""
    calls = []
    check = ncho.szilard._check_spec
    monkeypatch.setattr(ncho.szilard, "_check_spec", lambda s: calls.append(s) or check(s))
    code, out, err = run(capsys, ["szilard", *BASE_FLAGS])
    assert code == 0 and len(calls) == 1
    bad = ["--mu", "-1", "--kbt", "0", "--angle", "inf"]
    for k, field in ((0, "mu"), (2, "kbt"), (4, "angle")):
        code, out, err = run(capsys, ["szilard", *BASE_FLAGS, *bad[k:]])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: parameter '{field}' must be")


def test_szilard_homodyne_rejected(capsys):
    code, out, err = run(capsys, ["szilard", *BASE_FLAGS, "--mu", "0.0"])
    assert code == 2
    assert "homodyne" in err.lower() or "mu" in err


def test_szilard_squeezed_measurement(capsys):
    code, out, err = run(
        capsys, ["szilard", *BASE_FLAGS, "--mu", "2.0", "--kbt", "0.5"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["work"] > 0.0
    assert obj["work_closed_form"] == pytest.approx(obj["work"], rel=1e-10, abs=0)


# ---------------------------------------------------------------- process


def test_module_entry_point_runs():
    res = subprocess.run(
        [sys.executable, "-m", "ncho.cli", "analyze", *BASE_FLAGS],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)["separability"]["verdict"] == "entangled"


def test_version_flag():
    res = subprocess.run(
        [sys.executable, "-m", "ncho.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout.strip() == "ncho 0.1.0"
