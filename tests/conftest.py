"""Shared helpers: seeded sampling and the acceptance scoreboard."""

import numpy as np
import pytest

from ncho import DegenerateSpectrum, PhysicalParams, spectral_data, to_commutative

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


def beam_splitter(angle):
    """4x4 beam splitter on (x1, p1, x2, p2): symplectic and orthogonal,
    so it maps a pure state to a pure state that mixes the two modes."""
    c, s = np.cos(angle), np.sin(angle)
    return np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])
