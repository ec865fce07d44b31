"""The Simon margin near the zero-mode surface theta eta = 4, against a
60-digit evaluation.

As theta eta -> 4 the slow mode goes soft: c = lambda1^2 lambda2^2 -> 0
while b stays finite, and lambda2 loses accuracy to cancellation in c.
The oracle redoes the whole pipeline in mpmath from the expanded closed
forms (Bopp map, b, c, lambda_i, L11, L22, y) and takes the margin as
-y^2 / (16 L11 L22) with rhs = (4 L11 L22 + y^2) / (32 L11 L22), the
form the Simon test reduces to on this family.

Every non-degenerate point must get the oracle's verdict and boundary
flag from scan and from classify.  The margin's error, relative to rhs
(the scale of the verdict band eps_sep * rhs), must stay within
C u b / sqrt(c), u the unit roundoff.  That is at most C u b^2 / c,
since b^2 >= 4c; the error grows like the square root of b^2 / c.
Relative to |margin| itself no such bound holds: near the separable
surface y is a difference of nearly equal terms.
"""

import mpmath as mp

from ncho import (
    AxisSpec,
    DegenerateSpectrum,
    PhysicalParams,
    classify,
    scan,
)

U = 2.0**-52
C = 8.0
EPS_SEP = 1e-12


def oracle(p):
    """(margin, rhs, b, c) of p at 60 significant digits."""
    with mp.workdps(60):
        m1, m2, wt1, wt2, th, et = map(mp.mpf, (p.m1, p.m2, p.wt1, p.wt2, p.theta, p.eta))
        mu1 = 1 / (1 / m1 + m2 * wt2**2 * th**2 / 4)
        mu2 = 1 / (1 / m2 + m1 * wt1**2 * th**2 / 4)
        w1s = (m1 * wt1**2 + et**2 / (4 * m2)) / mu1
        w2s = (m2 * wt2**2 + et**2 / (4 * m1)) / mu2
        nu1 = (et + m1 * m2 * wt2**2 * th) / (4 * m1)
        nu2 = (et + m1 * m2 * wt1**2 * th) / (4 * m2)
        b = w1s + w2s + 8 * nu1 * nu2
        c = (
            w1s * w2s
            + 16 * nu1**2 * nu2**2
            - 4 * (mu1 * w1s * nu1**2 / mu2 + mu2 * w2s * nu2**2 / mu1)
        )
        lam1sq = (b + mp.sqrt(b * b - 4 * c)) / 2
        ll = mp.sqrt(c)  # lambda1 lambda2
        lsum = mp.sqrt(lam1sq) + mp.sqrt(c / lam1sq)
        denom = mu2 * (w2s + ll) - 4 * mu1 * nu1**2
        l11 = mu1 * mu2 * 2 * lsum * ll / (4 * denom)
        l22 = mu2 * 2 * lsum * (mu2 * w2s - 4 * mu1 * nu1**2) / (4 * denom)
        y = 2 * mu2 * (4 * mu1 * nu1**2 * nu2 - mu2 * nu2 * w2s + mu1 * nu1 * ll) / denom
        return (
            -(y**2) / (16 * l11 * l22),
            (4 * l11 * l22 + y**2) / (32 * l11 * l22),
            b,
            c,
        )


def test_margin_near_zero_mode_surface_matches_60_digit_oracle(rng):
    checked = 0
    for _ in range(600):
        m1, m2, wt1, wt2 = rng.uniform(0.3, 3.0, size=4)
        theta = rng.uniform(0.5, 3.0)
        eta = rng.uniform(2.5, 5.5) / theta
        p = PhysicalParams(m1, m2, wt1, wt2, theta, eta)
        (row,) = scan(p, AxisSpec("eta", eta, eta, 1)).rows
        try:
            rep = classify(p, ppt=False)
        except DegenerateSpectrum:
            assert row.degenerate, p
            continue
        assert not row.degenerate, p
        margin, rhs, b, c = oracle(p)
        assert c > 0, p
        verdict = "separable" if margin >= -EPS_SEP * rhs else "entangled"
        boundary = abs(margin) <= EPS_SEP * rhs
        bound = C * U * b / mp.sqrt(c)
        for got in (row, rep):
            assert (got.verdict, got.boundary) == (verdict, boundary), p
            assert abs(got.margin - margin) / rhs <= bound, p
        checked += 1
    assert checked >= 500
