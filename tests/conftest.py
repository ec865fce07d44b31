"""Shared helpers: seeded sampling, probes, the Bopp-map route as an
oracle and the acceptance scoreboard."""

import itertools

import mpmath as mp
import numpy as np
import pytest

from ncho import DegenerateSpectrum, PhysicalParams, spectral_data, to_commutative
from ncho.symplectic import MOMENTS

SEED = 20240911

# one line per release criterion, filled by test_acceptance.py
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def draw_params(
    rng,
    n,
    *,
    mass=(0.3, 3.0),
    freq=(0.3, 3.0),
    theta=(0.01, 0.6),
    eta=(0.01, 0.6),
    commutative=False,
):
    """n random valid parameter sets with a non-degenerate spectrum.

    commutative=True forces theta = eta = 0 (resampling keeps the two
    frequencies apart so the spectrum stays non-degenerate).
    """
    out = []
    while len(out) < n:
        m1, m2 = rng.uniform(*mass, size=2)
        w1, w2 = rng.uniform(*freq, size=2)
        if commutative:
            th = et = 0.0
        else:
            th = rng.uniform(*theta)
            et = rng.uniform(*eta)
        p = PhysicalParams(m1=m1, m2=m2, wt1=w1, wt2=w2, theta=th, eta=et)
        try:
            spectral_data(to_commutative(p))
        except DegenerateSpectrum:
            continue
        out.append(p)
    return out


def constraint_params(rng, n, **kw):
    """Random points on the separable surface theta m1 wt1 = eta / (m2 wt2)."""
    out = []
    for p in draw_params(rng, 4 * n, **kw):
        eta = p.theta * p.m1 * p.wt1 * p.m2 * p.wt2
        q = PhysicalParams(
            m1=p.m1, m2=p.m2, wt1=p.wt1, wt2=p.wt2, theta=p.theta, eta=eta
        )
        try:
            spectral_data(to_commutative(q))
        except DegenerateSpectrum:
            continue
        out.append(q)
        if len(out) == n:
            break
    assert len(out) == n
    return out


def wide_probe(seed, lo, hi, n=3000):
    """The points past the spectral gates among n log-uniform draws, taken
    as one array per seed: masses and frequencies in [lo, hi], theta and
    eta in [1e-4, 1e2]."""
    rng = np.random.default_rng(seed)
    bounds = np.log([[lo] * 4 + [1e-4] * 2, [hi] * 4 + [1e2] * 2])
    out = []
    for row in np.exp(rng.uniform(*bounds, size=(n, 6))).tolist():
        p = PhysicalParams(*row)
        try:
            spectral_data(to_commutative(p))
        except DegenerateSpectrum:
            continue
        out.append(p)
    return out


def extreme_grid():
    """9,604 points: m1, m2, wt1, wt2 each in {1e-100, 1e-50, 1e-10, 1,
    1e10, 1e50, 1e100}, with (theta, eta) in {(0.1, 0.4), (0.3, 0),
    (0, 0.4), (1, 2.5)}; no filter."""
    scales = [1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100]
    pairs = [(0.1, 0.4), (0.3, 0.0), (0.0, 0.4), (1.0, 2.5)]
    return [
        PhysicalParams(m1, m2, wt1, wt2, theta, eta)
        for m1, m2, wt1, wt2 in itertools.product(scales, repeat=4)
        for theta, eta in pairs
    ]


def corner_grid():
    """12,005 points at the edges of float64: m1, m2, wt1, wt2 each in
    {5e-324, 1e-320, 2.2e-308, 1e-300, 1, 1e300, 1.7e308} (subnormal,
    near the smallest normal and near the largest double), with (theta,
    eta) in {(0, 0.4), (0.3, 0), (5e-324, 1e308), (1e308, 1e-308),
    (1, 2.5)}; no filter."""
    scales = [5e-324, 1e-320, 2.2e-308, 1e-300, 1.0, 1e300, 1.7e308]
    pairs = [(0.0, 0.4), (0.3, 0.0), (5e-324, 1e308), (1e308, 1e-308), (1.0, 2.5)]
    return [
        PhysicalParams(m1, m2, wt1, wt2, theta, eta)
        for m1, m2, wt1, wt2 in itertools.product(scales, repeat=4)
        for theta, eta in pairs
    ]


def sixty_digit_state(p):
    """{name: value} of lambda1, lambda2 and V's six moments (named as in
    symplectic.MOMENTS) at 60 digits, from the factored forms in exact
    arithmetic: mpmath has no exponent range, and these forms cancel
    nowhere, where the unfactored chain loses every digit at far-apart
    scales.  The moments take the d form, d = 4 L11 L22 + y^2:
    <p1^2> = d / (4 L22) and <p2^2> = d / (4 L11)."""
    with mp.workdps(60):
        m1, m2, wt1, wt2, theta, eta = map(mp.mpf, (p.m1, p.m2, p.wt1, p.wt2, p.theta, p.eta))
        h, rho2, a1a2 = 1 + theta * eta / 4, wt1 * wt2, mp.sqrt(m1 * wt1 * m2 * wt2)
        th, et = theta * a1a2, eta / a1a2
        sigma = mp.sqrt(((wt1 + wt2) * h) ** 2 + rho2 * (th - et) ** 2)
        delta = mp.sqrt(((wt1 - wt2) * h) ** 2 + rho2 * (th + et) ** 2)
        lam1 = (sigma + delta) / 2
        den = (wt1 + wt2) * (4 + th * th)
        l11, l22 = 2 * m1 * wt1 * sigma / den, 2 * m2 * wt2 * sigma / den
        y = 2 * a1a2 * (et - th) * (wt1 - wt2) / den
        d = 4 * l11 * l22 + y * y
        values = (1 / (4 * l11), d / (4 * l22), 1 / (4 * l22), d / (4 * l11), -y / (4 * l11), -y / (4 * l22))
        return {"lambda1": lam1, "lambda2": rho2 * (1 - theta * eta / 4) ** 2 / lam1, **dict(zip(MOMENTS, values))}


def outside_float64(p):
    """The names in sixty_digit_state(p) whose value is not a float64
    number: past the largest double, or for a frequency or a variance,
    small enough to round to 0."""
    top, zero = mp.mpf(np.finfo(float).max), mp.mpf(2) ** -1075
    return [
        name for name, v in sixty_digit_state(p).items()
        if abs(v) > top or (name not in MOMENTS[4:] and v <= zero)
    ]


# ------------------------------------------------ the Bopp-map route (oracle)


def hm_invariants(cp):
    """(b, c, delta) of lambda^4 - b lambda^2 + c from Hm's two invariants:
    b = lambda1^2 + lambda2^2 = w1^2 + w2^2 + 8 nu1 nu2 and
    c = lambda1^2 lambda2^2 = det Hm, the product of the determinants of
    Hm's (x1, p2) and (p1, x2) blocks; delta = b^2 - 4c.  Elementwise.
    Differences of large terms: this route loses digits that the factored
    forms of ncho.symplectic.closed_forms keep."""
    w1s = cp.w1 * cp.w1
    w2s = cp.w2 * cp.w2
    b = w1s + w2s + 8.0 * cp.nu1 * cp.nu2
    c = (cp.mu1 * w1s / cp.mu2 - 4.0 * cp.nu2 * cp.nu2) * (
        cp.mu2 * w2s / cp.mu1 - 4.0 * cp.nu1 * cp.nu1
    )
    return b, c, b * b - 4.0 * c


def hm_frequencies(cp):
    """(lambda1, lambda2) from hm_invariants, lambda2^2 as c / lambda1^2."""
    b, c, delta = hm_invariants(cp)
    lam1sq = 0.5 * (b + np.sqrt(delta))
    return np.sqrt(lam1sq), np.sqrt(c / lam1sq)


def hm_ground_state(cp, lambda1, lambda2):
    """(lambda11, lambda22, y, d, denom) of the ground state from the
    commutative parameters and the frequencies.  With
    denom = mu2 (w2^2 + lambda1 lambda2) - 4 mu1 nu1^2 and
    tau = 2 (lambda1 + lambda2):

        lambda11 = mu1 mu2 tau lambda1 lambda2 / (4 denom)
        lambda22 = mu2 tau (mu2 w2^2 - 4 mu1 nu1^2) / (4 denom)
        y = 2 mu2 (4 mu1 nu1^2 nu2 - mu2 nu2 w2^2 + mu1 nu1 lambda1 lambda2)
            / denom

    Elementwise."""
    w2s = cp.w2 * cp.w2
    ll = lambda1 * lambda2
    tau = 2.0 * (lambda1 + lambda2)
    nu1s = cp.nu1 * cp.nu1
    denom = cp.mu2 * (w2s + ll) - 4.0 * cp.mu1 * nu1s
    l11 = cp.mu1 * cp.mu2 * tau * ll / (4.0 * denom)
    l22 = cp.mu2 * tau * (cp.mu2 * w2s - 4.0 * cp.mu1 * nu1s) / (4.0 * denom)
    y = (
        2.0
        * cp.mu2
        * (4.0 * cp.mu1 * nu1s * cp.nu2 - cp.mu2 * cp.nu2 * w2s + cp.mu1 * cp.nu1 * ll)
        / denom
    )
    return l11, l22, y, 4.0 * l11 * l22 + y * y, denom


def beam_splitter(angle):
    """4x4 beam splitter on (x1, p1, x2, p2): symplectic and orthogonal,
    so it maps a pure state to a pure state that mixes the two modes."""
    c, s = np.cos(angle), np.sin(angle)
    return np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])
