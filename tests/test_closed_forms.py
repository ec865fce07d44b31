"""The factored closed forms against independent routes, and the outcome
of every point at far-apart scales.

symplectic.closed_forms evaluates the spectrum and ground state from the
physical inputs as products, quotients and hypots.  Its oracle is the
unfactored chain at 60 digits: the Bopp map, Hm's two invariants b and c,
lambda^2 from the biquadratic, and the ground state from the Bopp-map
formulas of conftest.hm_ground_state.  At 60 digits that chain's
cancellations cost nothing.
"""

import mpmath as mp
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ncho import DegenerateSpectrum, NchoError, PhysicalParams, analyze
from ncho.symplectic import closed_forms, gates

from conftest import extreme_grid

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
    """lambda1, lambda2, l11 and l22 are within 8 u of the oracle (u =
    2^-52); y and s = y^2 / (4 l11 l22) within 8 u kappa, kappa =
    1 + (th + et)/|th - et| + (wt1 + wt2)/|wt1 - wt2|, the conditioning of
    the two differences y is a product of.  Over 600 draws, half of them
    near a surface (draws), none of which trips a spectral gate (2 pass
    the correlation gate, and are checked alike); the worst errors read
    3.8 u (lambda2) and 2.6 u kappa (s)."""
    for p in draws(np.random.default_rng(11), 600):
        f = closed_forms(p)
        assert not any(fires for name, fires, _ in gates(f) if name != GATES[-1]), p
        lam1, lam2, l11, l22, y = unfactored_chain(p)
        for got, want in ((f.lambda1, lam1), (f.lambda2, lam2), (f.l11, l11), (f.l22, l22)):
            assert abs(got - want) <= 8 * U * abs(want), p
        a1a2 = np.sqrt(p.m1 * p.wt1 * p.m2 * p.wt2)
        th, et = p.theta * a1a2, p.eta / a1a2
        with np.errstate(divide="ignore"):  # kappa is infinite on a surface
            kappa = 1 + (th + et) / abs(th - et) + (p.wt1 + p.wt2) / abs(p.wt1 - p.wt2)
        assert abs(f.y - y) <= 8 * U * kappa * abs(y), p
        s = f.y**2 / (4 * f.l11 * f.l22)
        want = y**2 / (4 * l11 * l22)
        assert abs(s - want) <= 8 * U * kappa * want, p


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


def test_extreme_grid_never_exits_4():
    """conftest.extreme_grid: analyze answers or raises DegenerateSpectrum
    (exit 3) at each of the 9,604 points, with no numpy warning (pyproject
    makes one an error).  60 of them answered on the Bopp-map route.  The
    closed forms and V are float64 numbers at 8,900 past the collision
    gate; at 5,496 of those s exceeds CORRELATION_MAX (~5.6e5), past which
    V's purity is lost to rounding, so 3,404 answer."""
    outcomes = {}
    for p in extreme_grid():
        try:
            analyze(p)
            outcome = "answer"
        except DegenerateSpectrum as e:
            outcome = next(g for g in GATES if str(e).startswith(g))
        except NchoError as e:  # an exit 4, named in the failure
            outcome = f"exit {e.exit_code}: {e}"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes == {
        "answer": 3404,
        "normal modes collide": 318,
        "out of float64 range": 386,
        "correlation past float64 resolution": 5496,
    }
