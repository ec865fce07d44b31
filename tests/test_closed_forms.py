"""The factored closed forms against independent routes, and the outcome
of every point at far-apart scales.

symplectic.closed_forms evaluates the spectrum and ground state from the
physical inputs as products, quotients and hypots.  Its oracle is the
unfactored chain at 60 digits: the Bopp map, Hm's two invariants b and c,
lambda^2 from the biquadratic, and the ground state from the Bopp-map
formulas of conftest.hm_ground_state.  At 60 digits that chain's
cancellations cost nothing.  At far-apart scales, where they cost every
digit, the reference is conftest.sixty_digit_state, the factored forms at
60 digits with no exponent range.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncho import (
    DegenerateSpectrum,
    MeasurementSpec,
    NchoError,
    PhysicalParams,
    analyze,
    extractable_work,
    to_commutative,
    wigner_form,
)
from ncho.gaussian import covariance_matrix
from ncho.symplectic import closed_forms, gates

from conftest import corner_grid, extreme_grid, outside_float64

U = 2.0**-52
GATES = (
    "singular Bopp map",
    "out of float64 range",
    "normal modes collide",
    "correlation past float64 resolution",
)


def unfactored_chain(p):
    """(lambda1, lambda2, l11, l22, y) of p at 60 significant digits, by the
    Bopp map, Hm's invariants and the Bopp-map ground-state formulas."""
    with mp.workdps(60):
        m1, m2, wt1, wt2, th, et = map(mp.mpf, (p.m1, p.m2, p.wt1, p.wt2, p.theta, p.eta))
        mu1 = 1 / (1 / m1 + m2 * wt2**2 * th**2 / 4)
        mu2 = 1 / (1 / m2 + m1 * wt1**2 * th**2 / 4)
        w1s = (m1 * wt1**2 + et**2 / (4 * m2)) / mu1
        w2s = (m2 * wt2**2 + et**2 / (4 * m1)) / mu2
        nu1 = (et + m1 * m2 * wt2**2 * th) / (4 * m1)
        nu2 = (et + m1 * m2 * wt1**2 * th) / (4 * m2)
        b = w1s + w2s + 8 * nu1 * nu2
        c = (mu1 * w1s / mu2 - 4 * nu2**2) * (mu2 * w2s / mu1 - 4 * nu1**2)
        lam1 = mp.sqrt((b + mp.sqrt(b * b - 4 * c)) / 2)
        lam2 = mp.sqrt(c) / lam1
        ll, tau = lam1 * lam2, 2 * (lam1 + lam2)
        denom = mu2 * (w2s + ll) - 4 * mu1 * nu1**2
        l11 = mu1 * mu2 * tau * ll / (4 * denom)
        l22 = mu2 * tau * (mu2 * w2s - 4 * mu1 * nu1**2) / (4 * denom)
        y = 2 * mu2 * (4 * mu1 * nu1**2 * nu2 - mu2 * nu2 * w2s + mu1 * nu1 * ll) / denom
        return lam1, lam2, l11, l22, y


def draws(rng, n):
    """n points, masses and frequencies log-uniform in [1e-4, 1e4], theta
    and eta in [1e-4, 1e2]; every other one is moved to within a relative
    10^U(-12, -1) of a surface: the constraint th = et, wt1 = wt2 or
    theta eta = 4."""
    out = []
    for i in range(n):
        m1, m2, wt1, wt2 = np.exp(rng.uniform(np.log(1e-4), np.log(1e4), 4))
        theta, eta = np.exp(rng.uniform(np.log(1e-4), np.log(1e2), 2))
        near = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -1)
        surface = ("constraint", "frequencies", "bopp")[i % 6 // 2] if i % 2 else None
        if surface == "constraint":
            eta = theta * m1 * wt1 * m2 * wt2 * near
        elif surface == "frequencies":
            wt2 = wt1 * near
        elif surface == "bopp":
            eta = 4.0 / theta * near
        out.append(PhysicalParams(*map(float, (m1, m2, wt1, wt2, theta, eta))))
    return out


def test_closed_forms_match_the_60_digit_unfactored_chain():
    """lambda1, lambda2, l11, l22 and V's four variances are within 8 u of
    the oracle (u = 2^-52); y, r = y / (2 sqrt(l11 l22)), s = r^2 and the
    cross moments within 8 u kappa, kappa = 1 + (th + et)/|th - et| +
    (wt1 + wt2)/|wt1 - wt2|, the conditioning of the two differences y is a
    product of.  V is covariance_matrix's, the oracle's moments the d form
    (<p1^2> = d / (4 l22), d = 4 l11 l22 + y^2).  Over 600 draws, half of
    them near a surface (draws), none of which trips a spectral gate (2
    pass the correlation gate, and are checked alike); the worst errors
    read 5.0 u (<p1^2>), 4.2 u (l22), 3.3 u (lambda2) and 2.8 u kappa (s)."""
    for p in draws(np.random.default_rng(11), 600):
        f = closed_forms(p)
        assert not any(fires for name, fires, _ in gates(f) if name != GATES[-1]), p
        lam1, lam2, l11, l22, y = unfactored_chain(p)
        with mp.workdps(60):
            r = y / (2 * mp.sqrt(l11 * l22))
            d = 4 * l11 * l22 + y * y
        v = covariance_matrix(f.l11, f.l22, f.y)
        a1a2 = np.sqrt(p.m1 * p.wt1 * p.m2 * p.wt2)
        th, et = p.theta * a1a2, p.eta / a1a2
        with np.errstate(divide="ignore"):  # kappa is infinite on a surface
            kappa = 1 + (th + et) / abs(th - et) + (p.wt1 + p.wt2) / abs(p.wt1 - p.wt2)
        for got, want, bound in (
            (f.lambda1, lam1, 8 * U),
            (f.lambda2, lam2, 8 * U),
            (f.l11, l11, 8 * U),
            (f.l22, l22, 8 * U),
            (v[0, 0], 1 / (4 * l11), 8 * U),
            (v[1, 1], d / (4 * l22), 8 * U),
            (v[2, 2], 1 / (4 * l22), 8 * U),
            (v[3, 3], d / (4 * l11), 8 * U),
            (f.y, y, 8 * U * kappa),
            (f.r, r, 8 * U * kappa),
            (f.s, r * r, 8 * U * kappa),
            (v[0, 3], -y / (4 * l11), 8 * U * kappa),
            (v[1, 2], -y / (4 * l22), 8 * U * kappa),
        ):
            assert abs(got - want) <= bound * abs(want), p


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=400, deadline=None)
@given(*[log_uniform(-150, 150)] * 6)
def test_far_apart_scales_answer_or_name_their_gate(m1, m2, wt1, wt2, theta, eta):
    """Every point over log-uniform scales 1e-150..1e150 either answers,
    with every identity residual within tol and the PPT verdict equal to
    the Simon one, or raises DegenerateSpectrum naming its gate.  Nothing
    else: no exit 4, no untyped error and no warning (pyproject makes
    RuntimeWarning an error)."""
    try:
        rep = analyze(PhysicalParams(m1, m2, wt1, wt2, theta, eta))
    except DegenerateSpectrum as e:
        assert str(e).startswith(GATES), e
        return
    assert rep.eigensystem.residuals["max"] <= rep.tol
    assert rep.separability.verdict == rep.separability.ppt_verdict


@pytest.fixture(scope="module")
def grid_outcomes():
    """(p, analyze(p) or the NchoError it raised) over conftest.extreme_grid."""
    out = []
    for p in extreme_grid():
        try:
            out.append((p, analyze(p)))
        except NchoError as e:
            out.append((p, e))
    return out


def test_extreme_grid_never_exits_4(grid_outcomes):
    """conftest.extreme_grid: analyze answers or raises DegenerateSpectrum
    (exit 3) at each of the 9,604 points, with no numpy warning (pyproject
    makes one an error).  60 of them answered on the Bopp-map route.  Every
    frequency and moment of V is a float64 number at the 9,278 points past
    the collision gate, and no range exit is left (386 were, all false,
    before the overflow-free forms); at 5,772 of them s exceeds
    CORRELATION_MAX (~5.6e5), past which V's purity is lost to rounding, so
    3,506 answer."""
    outcomes = {}
    for p, rep in grid_outcomes:
        if not isinstance(rep, NchoError):
            outcome = "answer"
        elif isinstance(rep, DegenerateSpectrum):
            outcome = next(g for g in GATES if str(rep).startswith(g))
        else:  # an exit 4, named in the failure
            outcome = f"exit {rep.exit_code}: {rep}"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes == {
        "answer": 3506,
        "normal modes collide": 326,
        "correlation past float64 resolution": 5772,
    }


def test_extreme_grid_answers_hold_every_property(grid_outcomes):
    """At each answering extreme-grid point (102 of them exited 3 as out of
    range on the former forms): the residuals are within tol (analyze
    checks), the PPT verdict equals the Simon one, the margin is -s/4 to
    1e-9 rhs, the heterodyne and two squeezed measurements give the closed-
    form work with det V1' = 1/4 to the Szilard tests' 4 u (1 + s), and the
    Wigner form is normalizable."""
    for p, rep in grid_outcomes:
        if isinstance(rep, NchoError):
            continue
        sep, s = rep.separability, float(rep.spectral.s)
        assert sep.verdict == sep.ppt_verdict, p
        assert abs(sep.margin + s / 4) <= 1e-9 * sep.rhs, p
        for mu in (0.3, 1.0, 5.0):
            res = extractable_work(rep.cov, MeasurementSpec(mu=mu, angle=0.7))
            assert res.work_closed_form is not None, p
            assert abs(res.det_after - 0.25) <= 4 * U * (1 + s) * 0.25, p
        assert not wigner_form(rep.cov).degenerate, p


@pytest.mark.filterwarnings("error")
def test_corner_grid_ends_in_answers_or_named_gates():
    """conftest.corner_grid: at each of the 12,005 points analyze answers,
    with the PPT verdict equal to the Simon one (and the residuals within
    tol, which analyze checks), or raises an NchoError, with no warning.
    16 points ended otherwise while the collision and singular gates
    compared delta and |k| with the tolerance times sigma and h, whose
    product underflows, and the diagonalization residual divided Omega_D
    by sigma through 1/sigma, which overflows: 8 ZeroDivisionErrors in the
    eigenvector rows (delta = 0, delta/sigma ~ 7e-25 at 60 digits, now a
    collision) and 8 NaN residuals after a RuntimeWarning (now answers)."""
    outcomes = {}
    for p in corner_grid():
        try:
            rep = analyze(p)
        except NchoError as e:
            outcome = f"exit {e.exit_code}: {str(e).split(':')[0]}"
        else:
            assert rep.separability.verdict == rep.separability.ppt_verdict, p
            outcome = "answer"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes == {
        "answer": 440,
        "exit 3: out of float64 range": 11157,
        "exit 3: normal modes collide": 58,
        "exit 3: correlation past float64 resolution": 350,
    }


def bopp_60(p):
    """(mu1, mu2, w1, w2, nu1, nu2) of p at 60 digits, by the Bopp-map
    formulas of params.to_commutative's docstring as written."""
    with mp.workdps(60):
        m1, m2, wt1, wt2, theta, eta = map(mp.mpf, (p.m1, p.m2, p.wt1, p.wt2, p.theta, p.eta))
        mu1 = 1 / (1 / m1 + m2 * wt2**2 * theta**2 / 4)
        mu2 = 1 / (1 / m2 + m1 * wt1**2 * theta**2 / 4)
        w1 = mp.sqrt((m1 * wt1**2 + eta**2 / (4 * m2)) / mu1)
        w2 = mp.sqrt((m2 * wt2**2 + eta**2 / (4 * m1)) / mu2)
        nu1 = (eta + m1 * m2 * wt2**2 * theta) / (4 * m1)
        nu2 = (eta + m1 * m2 * wt1**2 * theta) / (4 * m2)
        return mu1, mu2, w1, w2, nu1, nu2


def test_bopp_coefficients_match_60_digits_on_the_extreme_grid(grid_outcomes):
    """mu1, mu2, w1, w2, nu1 and nu2 within 8 u of bopp_60 at every answering
    extreme-grid point, where all six are normal float64 numbers: formed as
    products of two hypots and sums of products that stay in range, they
    never read inf, NaN or 0 (the m1 m2 wt^2 form printed 38 w = inf and
    29 nu = NaN or 0 there).  The worst reads 3.0 u."""
    for p, rep in grid_outcomes:
        if isinstance(rep, NchoError):
            continue
        cp = to_commutative(p)
        got = (cp.mu1, cp.mu2, cp.w1, cp.w2, cp.nu1, cp.nu2)
        for g, want in zip(got, bopp_60(p)):
            assert abs(g - want) <= 8 * U * want, p


def log_u_draws(seed, n, lo, hi):
    """n points, each input log-uniform in [lo, hi], from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [PhysicalParams(*row) for row in np.exp(rng.uniform(np.log(lo), np.log(hi), size=(n, 6))).tolist()]


def test_every_range_exit_is_true(grid_outcomes):
    """Where analyze exits 3 as "out of float64 range" (none on the extreme
    grid, 268 of 3,000 seed-5 log-uniform draws over 1e-150..1e150), some
    frequency or moment of V is outside float64 at 60 digits
    (conftest.outside_float64).  Before the overflow-free forms, 386 of 386
    such exits on the grid and 720 of 988 on these draws were false."""
    outcomes = list(grid_outcomes)
    for p in log_u_draws(5, 3000, 1e-150, 1e150):
        try:
            analyze(p)
        except DegenerateSpectrum as e:
            outcomes.append((p, e))
    exits = [p for p, e in outcomes if isinstance(e, NchoError) and str(e).startswith(GATES[1])]
    assert len(exits) == 268
    for p in exits:
        assert outside_float64(p), p
