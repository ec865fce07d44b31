"""Command line interface: ncho analyze | scan | wigner | szilard.

Exit codes: 0 success, otherwise the `exit_code` of the NchoError raised:
2 invalid input or usage, 3 degenerate parameter point, 4 internal
consistency failure (residuals, singular matrices).
All diagnostics go to stderr; stdout carries only the requested output
and is byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import InvalidAxisName, InvalidPlane, NchoError
from .gaussian import covariance, ground_state
from .params import PhysicalParams, to_commutative
from .report import analyze
from .separability import AXIS_FIELDS, AxisSpec, inputs_obj, json_text, scan
from .szilard import MeasurementSpec, extractable_work
from .wigner import (
    WignerGrid,
    illustration_covariance,
    marginal_position,
    project,
    save_grid,
    wigner_form,
)

PARAM_FLAGS = tuple(AXIS_FIELDS)


def _add_param_flags(sub: argparse.ArgumentParser, *, required: bool):
    for name in PARAM_FLAGS:
        sub.add_argument(f"--{name}", type=float, required=required, default=None)


def tolerance(text: str) -> float:
    """argparse type of --tol, --eps-sep and --eps-c: a finite number > 0."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _params(values) -> PhysicalParams:
    """PhysicalParams from a mapping of CLI names to values."""
    return PhysicalParams(**{AXIS_FIELDS[n]: values[n] for n in PARAM_FLAGS})


def _parse_axis(text: str) -> AxisSpec:
    try:
        name, rng = text.split("=", 1)
        start, stop, steps = rng.split(":")
        return AxisSpec(
            name=name.strip(), start=float(start), stop=float(stop), steps=int(steps)
        )
    except ValueError:
        raise InvalidAxisName(
            f"axis must look like name=start:stop:steps, got {text!r}"
        ) from None


def _parse_grid(text: str) -> tuple:
    try:
        start, stop, steps = text.split(":")
        return (float(start), float(stop), int(steps))
    except ValueError:
        raise InvalidPlane(
            f"grid must look like start:stop:steps, got {text!r}"
        ) from None


def _parse_fixed(text: str) -> dict:
    out = {}
    for item in text.split(","):
        if not item:
            continue
        try:
            key, value = item.split("=", 1)
            out[key.strip()] = float(value)
        except ValueError:
            raise InvalidPlane(
                f"fixed must look like name=value[,name=value], got {text!r}"
            ) from None
    return out


def cmd_analyze(args) -> int:
    p = _params(vars(args))
    rep = analyze(p, tol=args.tol, eps_sep=args.eps_sep, eps_c=args.eps_c)
    worst = rep.eigensystem.residuals["max"]
    if worst > args.tol:
        raise NchoError(f"identity residual {worst:.3e} exceeds {args.tol:.1e}")
    sys.stdout.write(rep.json_text(pretty=args.pretty))
    return 0


def cmd_scan(args) -> int:
    axis1 = _parse_axis(args.axis1)
    axis2 = _parse_axis(args.axis2) if args.axis2 else None
    axis_names = {axis1.name} | ({axis2.name} if axis2 else set())
    values = {}
    for name in PARAM_FLAGS:
        given = getattr(args, name)
        if name in axis_names:
            values[name] = given if given is not None else 1.0
        elif given is None:
            print(f"error: --{name} is required (not a scan axis)", file=sys.stderr)
            return 2
        else:
            values[name] = given
    result = scan(_params(values), axis1, axis2, eps_sep=args.eps_sep)
    text = (
        result.json_text(pretty=args.pretty)
        if args.format == "json"
        else result.csv_text()
    )
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    counts = result.counts()
    print(
        "points={} separable={} entangled={} boundary={} degenerate={}".format(
            len(result.rows),
            counts["separable"],
            counts["entangled"],
            counts["boundary"],
            counts["degenerate"],
        ),
        file=sys.stderr,
    )
    return 0


def cmd_wigner(args) -> int:
    if args.illustration:
        cov = illustration_covariance()
    else:
        missing = [n for n in PARAM_FLAGS if getattr(args, n) is None]
        if missing:
            print(
                "error: provide --illustration or all of "
                + " ".join(f"--{n}" for n in missing),
                file=sys.stderr,
            )
            return 2
        cov = covariance(ground_state(to_commutative(_params(vars(args)))))
    wf = wigner_form(cov)
    grid_spec = _parse_grid(args.grid)
    if args.marginal:
        g1, g2, density = marginal_position(wf, axes=(grid_spec, grid_spec))
        grid = WignerGrid(
            plane=("x1", "x2"),
            fixed={},
            axis1=g1,
            axis2=g2,
            values=density,
            form=wf,
            kind="position_marginal",
        )
    else:
        grid = project(
            wf,
            tuple(args.plane.split(",")),
            _parse_fixed(args.fixed),
            axes=(grid_spec, grid_spec),
        )
    csv_path, meta_path = save_grid(grid, args.out, triples=args.triples)
    print(f"wrote {csv_path} and {meta_path}", file=sys.stderr)
    return 0


def cmd_szilard(args) -> int:
    p = _params(vars(args))
    cov = covariance(ground_state(to_commutative(p)))
    spec = MeasurementSpec(mu=args.mu, angle=args.angle, kbt=args.kbt)
    res = extractable_work(cov, spec)
    obj = {
        "version": __version__,
        "inputs": inputs_obj(p),
        "measurement": {"mu": res.mu, "angle": res.angle, "kbt": res.kbt},
        "det_before": res.det_before,
        "det_after": res.det_after,
        "work": res.work,
        "work_closed_form": res.work_closed_form,
    }
    sys.stdout.write(json_text(obj, pretty=args.pretty))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ncho",
        description="anisotropic oscillator in noncommutative space: spectrum, "
        "entanglement, Wigner distribution, Szilard work",
    )
    ap.add_argument("--version", action="version", version=f"ncho {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    a = subs.add_parser("analyze", help="full report for one parameter point")
    _add_param_flags(a, required=True)
    a.add_argument("--tol", type=tolerance, default=1e-9)
    a.add_argument("--eps-sep", type=tolerance, default=1e-12)
    a.add_argument("--eps-c", type=tolerance, default=1e-12)
    a.add_argument("--pretty", action="store_true")
    a.set_defaults(func=cmd_analyze)

    s = subs.add_parser("scan", help="separability margin over a parameter grid")
    _add_param_flags(s, required=False)
    s.add_argument("--axis1", required=True, metavar="name=start:stop:steps")
    s.add_argument("--axis2", default=None, metavar="name=start:stop:steps")
    s.add_argument("--eps-sep", type=tolerance, default=1e-12)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--out", default=None, help="write to file instead of stdout")
    s.add_argument("--pretty", action="store_true")
    s.set_defaults(func=cmd_scan)

    w = subs.add_parser("wigner", help="sample the Wigner distribution on a grid")
    _add_param_flags(w, required=False)
    w.add_argument(
        "--illustration",
        action="store_true",
        help="use the built-in demonstration moments instead of parameters",
    )
    w.add_argument("--plane", default="x2,p2", metavar="axis,axis")
    w.add_argument("--fixed", default="x1=1,p1=1", metavar="name=value,...")
    w.add_argument("--grid", default="-4:4:201", metavar="start:stop:steps")
    w.add_argument("--marginal", action="store_true", help="position density instead")
    w.add_argument("--triples", action="store_true", help="gnuplot x y w layout")
    w.add_argument("--out", default="wigner", help="output path prefix")
    w.set_defaults(func=cmd_wigner)

    z = subs.add_parser("szilard", help="work extractable from the correlations")
    _add_param_flags(z, required=True)
    z.add_argument("--mu", type=float, default=1.0)
    z.add_argument("--angle", type=float, default=0.0)
    z.add_argument("--kbt", type=float, default=1.0)
    z.add_argument("--pretty", action="store_true")
    z.set_defaults(func=cmd_szilard)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NchoError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
