"""The four benchmark workloads.

Each workload makes its inputs from the seed, runs one request at a time
(closed loop, one caller), and checks every output outside the timed
region.  Requests call ncho through module attributes looked up at call
time (`ncho.analyze`, `ncho.wigner.evaluate`), so that the traced run's
wrappers see them.

A check returns None for a correct output and a one-line description of
the defect otherwise.  A typed error that an input must raise is a
correct output.
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import cycle
from pathlib import Path
from time import perf_counter

import numpy as np

import ncho
import ncho.cli
import ncho.wigner

HETERODYNE = ncho.MeasurementSpec()
LAUNCH_TIMEOUT_S = 120

# Runs each command it reads (one JSON list per line) to completion and
# answers [exit code, stdout as latin-1, peak RSS of the child in KB].
LAUNCHER = f"""
import json, os, subprocess, sys, threading
for line in sys.stdin:
    proc = subprocess.Popen(json.loads(line), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    timer = threading.Timer({LAUNCH_TIMEOUT_S}, proc.kill)
    timer.start()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, out.decode("latin-1"), usage.ru_maxrss]), flush=True)
"""


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def _draw_generic(rng, theta=(0.01, 0.6), eta=(0.01, 0.6), mass=(0.3, 3.0), freq=(0.3, 3.0)):
    """A point in the ranges of tests/conftest.draw_params.

    The two frequencies are kept 0.05 apart so that no generic point sits
    near the mode-collision gate; the harness decides this without
    calling ncho.
    """
    m1, m2 = rng.uniform(*mass, size=2)
    w1, w2 = rng.uniform(*freq, size=2)
    while abs(w1 - w2) < 0.05:
        w2 = rng.uniform(*freq)
    return ncho.PhysicalParams(
        m1=float(m1),
        m2=float(m2),
        wt1=float(w1),
        wt2=float(w2),
        theta=float(rng.uniform(*theta)),
        eta=float(rng.uniform(*eta)),
    )


def draw_point(rng, kind: str) -> ncho.PhysicalParams:
    """One point-report input of the given kind.

    generic     : conftest ranges
    commutative : theta = eta = 0 (eigenvector null-space fallback)
    constraint  : eta = theta m1 wt1 m2 wt2, the separable surface,
                  with theta eta <= 0.36 as for generic points
    degenerate  : theta eta = 4 exactly, or wt1 = wt2 at theta = eta = 0;
                  both must raise DegenerateSpectrum
    """
    p = _draw_generic(rng)
    if kind == "generic":
        return p
    if kind == "commutative":
        return ncho.PhysicalParams(p.m1, p.m2, p.wt1, p.wt2, 0.0, 0.0)
    if kind == "constraint":
        k = p.m1 * p.wt1 * p.m2 * p.wt2
        theta = float(rng.uniform(0.01, min(0.6, math.sqrt(0.36 / k))))
        return ncho.PhysicalParams(p.m1, p.m2, p.wt1, p.wt2, theta, theta * k)
    if kind == "degenerate":
        if rng.random() < 0.5:
            theta = float(rng.choice([0.5, 1.0, 2.0, 4.0]))  # 4 / theta is exact
            return ncho.PhysicalParams(p.m1, p.m2, p.wt1, p.wt2, theta, 4.0 / theta)
        return ncho.PhysicalParams(p.m1, p.m2, p.wt1, p.wt1, 0.0, 0.0)
    raise ValueError(f"unknown point kind {kind!r}")


class Workload:
    """Seeded inputs, one timed request, and the checks of its output."""

    name = ""
    check_every = 1  # requests between two rounds of (untimed) checks
    in_process = True  # False when a request waits on a child process

    def __init__(self, seed: int, scratch: Path, src: Path):
        self.seed = seed
        self.scratch = scratch
        self.src = src
        self.rng = np.random.default_rng(seed)

    def setup(self):
        """Make the seeded inputs and warm up; runs before the timed loop."""

    def requests(self):
        raise NotImplementedError

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out) -> str | None:
        raise NotImplementedError

    def items(self, req, out) -> int:
        return 1

    def peak_rss_kb(self) -> int | None:
        """Peak RSS of the workload's own processes, None for in-process."""
        return None

    def close(self):
        """Remove what the workload wrote."""


class PointReport(Workload):
    """analyze(p).json_text() plus heterodyne extractable_work, per point."""

    name = "point-report"
    check_every = 256
    MIX = (("generic", 3400), ("commutative", 400), ("constraint", 120), ("degenerate", 80))
    EIG_SAMPLE = 1 / 16  # share of points whose spectrum is checked by dense eigvals

    def setup(self):
        pool = [(kind, draw_point(self.rng, kind)) for kind, n in self.MIX for _ in range(n)]
        self.pool = [pool[i] for i in self.rng.permutation(len(pool))]
        self.eig_check = self.rng.random(len(pool)) < self.EIG_SAMPLE
        for i in range(200):
            try:
                self.run(i)
            except ncho.DegenerateSpectrum:
                pass

    def requests(self):
        return cycle(range(len(self.pool)))

    def run(self, i):
        rep = ncho.analyze(self.pool[i][1])
        return rep.json_text(), ncho.extractable_work(rep.cov, HETERODYNE)

    def check(self, i, out):
        kind, p = self.pool[i]
        if kind == "degenerate":
            if isinstance(out, ncho.DegenerateSpectrum):
                return None
            return f"{p}: expected DegenerateSpectrum, got {out!r}"[:300]
        if isinstance(out, BaseException):
            return f"{p}: unexpected {out!r}"
        text, work = out
        return check_report(json.loads(text), work, dense=bool(self.eig_check[i]))


def check_report(r: dict, work, *, dense: bool) -> str | None:
    """Check one analyze JSON object and its heterodyne Szilard result."""
    sp, gs, sep = r["spectral"], r["ground_state"], r["separability"]
    tol, eps_sep = r["tolerances"]["identity"], r["tolerances"]["eps_sep"]
    if not r["residuals"]["max"] <= tol:
        return f"residual max {r['residuals']['max']!r} > tol {tol!r}"
    if sep["verdict"] != sep["ppt_verdict"]:
        return f"verdict {sep['verdict']} != ppt_verdict {sep['ppt_verdict']}"
    y, l11, l22 = gs["lambda12_im"], gs["lambda11"], gs["lambda22"]
    want = -y * y / (16.0 * l11 * l22)
    if not _close(sep["margin"], want, 1e-9, eps_sep * sep["rhs"]):
        return f"margin {sep['margin']!r} != -y^2/(16 L11 L22) = {want!r}"
    l1, l2 = sp["lambda1"], sp["lambda2"]
    if not _close(gs["energy0"], 0.5 * (l1 + l2), 1e-12):
        return f"energy0 {gs['energy0']!r} != (lambda1 + lambda2)/2"
    if work.work_closed_form is None or not _close(work.work, work.work_closed_form, 1e-9, 1e-15):
        return f"work {work.work!r} != closed form {work.work_closed_form!r}"
    if not _close(work.det_after, 0.25, 1e-9):
        return f"det_after {work.det_after!r} != 1/4"
    if dense:
        cp = ncho.CommutativeParams(**r["commutative"])
        omega = ncho.build_omega(ncho.build_hamiltonian(cp))
        lam = np.sort(np.abs(np.linalg.eigvals(omega).imag))
        if not (_close(lam[3], l1, 1e-9) and _close(lam[0], l2, 1e-9)):
            return f"dense eigvals {lam} != ({l2!r}, {l1!r})"
    return None


class ScanGrid(Workload):
    """scan() over theta x eta in [0, 3]^2, 121 x 121 points, then csv_text().

    The grid is fixed; the seed picks the rows cross-checked against
    classify(ppt=True).  On this base the separable surface is eta = 3 theta.
    """

    name = "scan-grid"
    BASE = ncho.PhysicalParams(m1=1.0, m2=1.5, wt1=1.0, wt2=2.0, theta=0.0, eta=0.0)
    STEPS = 121
    SAMPLE = 64

    def setup(self):
        self.axes = (
            ncho.AxisSpec("theta", 0.0, 3.0, self.STEPS),
            ncho.AxisSpec("eta", 0.0, 3.0, self.STEPS),
        )
        self.sample = self.rng.choice(self.STEPS**2, self.SAMPLE, replace=False)
        self.degenerate_rows = None
        small = (ncho.AxisSpec("theta", 0.0, 3.0, 11), ncho.AxisSpec("eta", 0.0, 3.0, 11))
        ncho.scan(self.BASE, *small).csv_text()

    def requests(self):
        return cycle([None])

    def run(self, _):
        res = ncho.scan(self.BASE, *self.axes)
        return res, res.csv_text()

    def items(self, _, out):
        return len(out[0].rows)

    def check(self, _, out):
        if isinstance(out, BaseException):
            return f"unexpected {out!r}"
        res, text = out
        rows = res.rows
        if len(rows) != self.STEPS**2:
            return f"{len(rows)} rows for a {self.STEPS}x{self.STEPS} grid"
        self.degenerate_rows = sum(r.degenerate for r in rows)
        for r in rows:
            if r.verdict == "separable":
                theta, eta = r.point
                if not (theta == eta == 0.0 or _close(eta, 3.0 * theta, 1e-9)):
                    return f"separable row off the separable lines: {r.point}"
        for k in self.sample:
            problem = self._check_row(rows[k])
            if problem:
                return problem
        return check_scan_csv(text, rows)

    def _check_row(self, row):
        theta, eta = row.point
        p = ncho.PhysicalParams(self.BASE.m1, self.BASE.m2, self.BASE.wt1, self.BASE.wt2, theta, eta)
        try:
            rep = ncho.classify(p, ppt=True)
        except (ncho.DegenerateSpectrum, ncho.DegenerateGroundState):
            return None if row.degenerate else f"row {row.point}: classify raised, row is not degenerate"
        if row.degenerate:
            return f"row {row.point}: flagged degenerate, classify succeeded"
        if row.verdict != rep.verdict or rep.ppt_verdict != rep.verdict:
            return f"row {row.point}: verdict {row.verdict}, classify {rep.verdict}/{rep.ppt_verdict}"
        if not _close(row.margin, rep.margin, 1e-9, rep.rhs * 1e-12):
            return f"row {row.point}: margin {row.margin!r} != classify {rep.margin!r}"
        return None


def check_scan_csv(text: str, rows) -> str | None:
    """The CSV parses back to exactly the scan rows."""
    lines = io.StringIO(text)
    header = next(lines).rstrip("\n").split(",")
    if header[-4:] != ["margin", "verdict", "boundary", "degenerate"]:
        return f"CSV header {header}"
    naxes = len(header) - 4
    n = 0
    for n, (r, line) in enumerate(zip(rows, lines), start=1):  # rows first: zip must not consume a spare line
        cells = line.rstrip("\n").split(",")
        point = tuple(float(c) for c in cells[:naxes])
        margin = None if cells[naxes] == "" else float(cells[naxes])
        flags = (cells[naxes + 2] == "true", cells[naxes + 3] == "true")
        if (point, margin, cells[naxes + 1], flags) != (r.point, r.margin, r.verdict, (r.boundary, r.degenerate)):
            return f"CSV line {n} does not match row {r}"
    if n != len(rows) or lines.read():
        return f"CSV has a different number of lines than the {len(rows)} rows"
    return None


class PhaseSpaceExport(Workload):
    """Wigner slices and position marginals exported in both CSV layouts.

    A request exports one grid like `ncho wigner` does: wigner_form, then
    project (ridge plane x1,p2 or conjugate plane x2,p2) or
    marginal_position, then save_grid in the matrix and in the triples
    layout.  States: three seeded entangled ground states and the
    illustration moments, whose marginal must raise DegenerateForm.
    """

    name = "phase-space-export"
    GRID = (-4.0, 4.0, 401)
    STATES = 3
    SAMPLE_NODES = 16

    def setup(self):
        self.outdir = self.scratch / f"export-{os.getpid()}"
        self.outdir.mkdir(parents=True, exist_ok=True)
        states = []
        for _ in range(self.STATES):
            p = _draw_generic(self.rng, theta=(0.1, 0.6), eta=(0.1, 0.6), mass=(0.8, 2.0), freq=(0.8, 2.0))
            states.append((True, ncho.covariance(ncho.ground_state(ncho.to_commutative(p)))))
        states.append((False, ncho.illustration_covariance()))
        self.reqs = []
        for normalizable, cov in states:
            ridge = dict(zip(("p1", "x2"), self.rng.uniform(-0.5, 0.5, 2)))
            conj = dict(zip(("x1", "p1"), self.rng.uniform(-0.5, 0.5, 2)))
            self.reqs.append((cov, ("x1", "p2"), ridge, normalizable))
            self.reqs.append((cov, ("x2", "p2"), conj, normalizable))
            self.reqs.append((cov, None, None, normalizable))
        self.nodes = self.rng.integers(0, self.GRID[2], size=(self.SAMPLE_NODES, 2))
        warm = self.GRID[:2] + (41,)
        for cov, plane, fixed, _ in self.reqs[:3]:
            self._export(cov, plane, fixed, warm)

    def requests(self):
        return cycle(self.reqs)

    def _export(self, cov, plane, fixed, axis):
        wf = ncho.wigner_form(cov)
        if plane is None:
            g1, g2, density = ncho.marginal_position(wf, axes=(axis, axis))
            grid = ncho.WignerGrid(("x1", "x2"), {}, g1, g2, density, wf, kind="position_marginal")
        else:
            grid = ncho.project(wf, plane, fixed, axes=(axis, axis))
        paths = ncho.save_grid(grid, str(self.outdir / "matrix"))
        paths += ncho.save_grid(grid, str(self.outdir / "triples"), triples=True)
        return grid, paths

    def run(self, req):
        cov, plane, fixed, _ = req
        return self._export(cov, plane, fixed, self.GRID)

    def items(self, req, out):
        return 0 if isinstance(out, BaseException) else 2 * out[0].values.size

    def check(self, req, out):
        cov, plane, fixed, normalizable = req
        if plane is None and not normalizable:
            if isinstance(out, ncho.DegenerateForm):
                return None
            return f"illustration marginal: expected DegenerateForm, got {out!r}"[:300]
        if isinstance(out, BaseException):
            return f"{plane}: unexpected {out!r}"
        grid, paths = out
        if plane is None:
            problem = self._check_marginal(cov, grid)
        else:
            problem = self._check_slice(grid)
        return problem or self._check_files(grid, paths)

    def _check_marginal(self, cov, grid):
        """The density integrates to the Gaussian mass inside the grid box.

        Position marginals of this family are products of two centred
        Gaussians with variances V[0,0] and V[2,2].  The trapezoid rule
        misses that mass by its Euler-Maclaurin end-point term,
        h^2/12 (g'(b) - g'(a)) per axis, which sets the tolerance.
        """
        box, err = 1.0, 1e-12
        weights = []
        for var, axis in ((cov.matrix[0, 0], grid.axis1), (cov.matrix[2, 2], grid.axis2)):
            h = axis[1] - axis[0]
            w = np.full(axis.size, h)
            w[[0, -1]] *= 0.5
            weights.append(w)
            s = math.sqrt(2.0 * var)
            box *= 0.5 * (math.erf(axis[-1] / s) - math.erf(axis[0] / s))
            slope = [abs(x) / var * math.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var) for x in (axis[0], axis[-1])]
            err += h * h / 12.0 * sum(slope)
        total = float(weights[0] @ grid.values @ weights[1])
        if not _close(total, box, 0.0, err):
            return f"marginal integrates to {total!r}, Gaussian box mass {box!r} (tolerance {err:.1e})"
        return None

    def _check_slice(self, grid):
        idx = {"x1": 0, "p1": 1, "x2": 2, "p2": 3}
        for i, j in self.nodes:
            z = np.zeros(4)
            z[idx[grid.plane[0]]] = grid.axis1[i]
            z[idx[grid.plane[1]]] = grid.axis2[j]
            for name, value in grid.fixed.items():
                z[idx[name]] = value
            want = float(ncho.wigner.evaluate(grid.form, z))
            if not _close(float(grid.values[i, j]), want, 1e-12, 1e-300):
                return f"{grid.plane} node ({i},{j}): {grid.values[i, j]!r} != evaluate {want!r}"
        return None

    def _check_files(self, grid, paths):
        """Sampled nodes read back exactly from both CSV layouts."""
        n1, n2 = grid.values.shape
        matrix_csv, matrix_meta, triples_csv, _ = paths
        lines = {1 + i: (i, j) for i, j in self.nodes}
        with open(matrix_csv) as f:
            count = 0
            for count, line in enumerate(f, start=1):
                node = lines.get(count - 1)
                if node is not None:
                    cells = line.split(",")
                    i, j = node
                    if float(cells[0]) != grid.axis1[i] or float(cells[1 + j]) != grid.values[i, j]:
                        return f"{matrix_csv}: node {node} does not read back"
        if count != n1 + 1:
            return f"{matrix_csv}: {count} lines for {n1} rows"
        triples = {1 + i * (n2 + 1) + j: (i, j) for i, j in self.nodes}
        with open(triples_csv) as f:
            count = 0
            for count, line in enumerate(f, start=1):
                node = triples.get(count - 1)
                if node is not None:
                    i, j = node
                    want = (grid.axis1[i], grid.axis2[j], grid.values[i, j])
                    if tuple(float(c) for c in line.split()) != want:
                        return f"{triples_csv}: node {node} does not read back"
        if count != 1 + n1 * (n2 + 1):
            return f"{triples_csv}: {count} lines for {n1}x{n2} triples"
        with open(matrix_meta) as f:
            meta = json.load(f)
        if meta["axis1"]["steps"] != n1 or meta["w_max"] != float(grid.values.max()):
            return f"{matrix_meta}: metadata does not match the grid"
        return None

    def close(self):
        shutil.rmtree(self.outdir, ignore_errors=True)


class CliCold(Workload):
    """Sequential `python -m ncho.cli` launches: analyze, szilard, degenerate.

    The degenerate point sits on the zero-mode surface theta eta = 4 and
    must exit with code 3.  Stdout of each launch is compared with the
    same call made in process.  Launches go through LAUNCHER, so that each
    child's peak RSS is its own.
    """

    name = "cli-cold"
    in_process = False
    POINTS = 64
    DEGENERATE = ncho.PhysicalParams(m1=1.0, m2=1.5, wt1=1.0, wt2=2.0, theta=1.0, eta=4.0)

    max_rss_kb = 0
    launcher = None

    def setup(self):
        path = os.pathsep.join(filter(None, [str(self.src), os.environ.get("PYTHONPATH")]))
        self.env = dict(os.environ, PYTHONPATH=path)
        self.reqs = []
        for _ in range(self.POINTS):
            p = _draw_generic(self.rng)
            self.reqs += [("analyze", p), ("szilard", p), ("analyze", self.DEGENERATE)]
        # A child's ru_maxrss includes the resident size of the process it
        # was exec'd from, so children are started from a small launcher
        # process rather than from this one, which holds numpy and the inputs.
        self.launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=self.env, text=True
        )
        self.launch(self.reqs[0])

    def requests(self):
        return cycle(self.reqs)

    @staticmethod
    def argv(req) -> list:
        command, p = req
        values = (p.m1, p.m2, p.wt1, p.wt2, p.theta, p.eta)
        argv = [command]
        for flag, v in zip(("m1", "m2", "w1", "w2", "theta", "eta"), values):
            argv += [f"--{flag}", repr(float(v))]
        return argv

    def launch(self, req, argv_prefix=("-m", "ncho.cli")):
        """Run one child to completion: (exit code, stdout, peak RSS in KB)."""
        cmd = [sys.executable, *argv_prefix]
        if req is not None:
            cmd += self.argv(req)
        self.launcher.stdin.write(json.dumps(cmd) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.launcher.wait()}")
        code, out, rss = json.loads(reply)
        return code, out.encode("latin-1"), rss

    def run(self, req):
        code, out, rss = self.launch(req)
        self.max_rss_kb = max(self.max_rss_kb, rss)
        return code, out

    def peak_rss_kb(self):
        return self.max_rss_kb

    def close(self):
        if self.launcher is not None:
            self.launcher.stdin.close()
            try:
                self.launcher.wait(timeout=LAUNCH_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.launcher.kill()
                self.launcher.wait()
            self.launcher.stdout.close()

    def check(self, req, out):
        if isinstance(out, BaseException):
            return f"{req[0]}: unexpected {out!r}"
        code, stdout = out
        command, p = req
        if p is self.DEGENERATE:
            if code == 3 and stdout == b"":
                return None
            return f"degenerate point: exit {code}, {len(stdout)} stdout bytes; expected exit 3, none"
        if code != 0:
            return f"{command} {p}: exit {code}"
        if command == "analyze":
            want = ncho.analyze(p).json_text().encode()
            return None if stdout == want else f"analyze {p}: stdout differs from in-process json_text()"
        cov = ncho.covariance(ncho.ground_state(ncho.to_commutative(p)))
        res = ncho.extractable_work(cov, HETERODYNE)
        got = json.loads(stdout)
        if (got["work"], got["work_closed_form"], got["det_after"]) != (res.work, res.work_closed_form, res.det_after):
            return f"szilard {p}: stdout differs from in-process extractable_work"
        return None

    def layer_probes(self, n: int) -> dict:
        """Medians of interpreter start, import ncho.cli and in-process main (ms)."""
        bare = [self._timed_launch(("-c", "pass")) for _ in range(n)]
        imported = [self._timed_launch(("-c", "import ncho.cli")) for _ in range(n)]
        mains = []
        for req in self.reqs[: 3 * n]:
            sink = io.StringIO()
            t0 = perf_counter()
            with redirect_stdout(sink), redirect_stderr(sink):
                ncho.cli.main(self.argv(req))
            mains.append(perf_counter() - t0)
        interpreter = float(np.median(bare)) * 1e3
        return {
            "cli.interpreter_ms": interpreter,
            "cli.import_ms": float(np.median(imported)) * 1e3 - interpreter,
            "cli.main_ms": float(np.median(mains)) * 1e3,
        }

    def _timed_launch(self, argv_prefix):
        t0 = perf_counter()
        code, _, _ = self.launch(None, argv_prefix)
        if code != 0:
            raise RuntimeError(f"{argv_prefix} exited with {code}")
        return perf_counter() - t0


WORKLOADS = {w.name: w for w in (PointReport, ScanGrid, PhaseSpaceExport, CliCold)}

