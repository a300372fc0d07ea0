"""The excess-form kernels against mpmath over their hard regimes.

Each reference is the defining closed form evaluated in mpmath with
enough digits to resolve the excess over 1 (an arcosh of a number that
rounds to 1 in double precision needs about l / ln 10 extra digits), so
it shares no rewriting with the kernel it checks.  Every value must be
within 1e-15 relative of its reference.
"""

import math

import mpmath
import numpy as np
import pytest

from fnteich.families import pants1_arc_length
from fnteich.hyperbolic import (HexagonAlternatingSides,
                                halfseam_intermediate_bound,
                                hexagon_altitude, hp,
                                hyp_distance_crossratio)

REL_TOL = 1e-15


def rel_err(got, exact):
    return abs(got - exact) / exact


def crossratio_pairs():
    """Heights 1e-8..1e8 by 1e2, relative separations 1e-12..1e2 by 1e2,
    five directions: z = y (0.37 + i), w = z + y s e^(i phi), leaving
    out the nine w below the real axis (351 pairs)."""
    for v in range(-8, 9, 2):
        for t in range(-12, 3, 2):
            for phi in (0.0, 0.7, math.pi / 2, 2.5, 4.4):
                y, s = 10.0 ** v, 10.0 ** t
                x = 0.37 * y
                wy = y + y * s * math.sin(phi)
                if wy > 0.0:
                    yield x, y, x + y * s * math.cos(phi), wy


@pytest.mark.parametrize("v", range(-8, 9, 2))
def test_crossratio_near_and_far_pairs(v):
    worst = 0.0
    for zx, zy, wx, wy in crossratio_pairs():
        if zy != 10.0 ** v:
            continue
        z, w = hp(zx, zy), hp(wx, wy)
        with mpmath.workdps(50):
            dz = mpmath.mpc(zx, zy) - mpmath.mpc(wx, wy)
            exact = mpmath.acosh(1 + abs(dz) ** 2
                                 / (2 * mpmath.mpf(zy) * mpmath.mpf(wy)))
        for d in (hyp_distance_crossratio(z, w),
                  hyp_distance_crossratio(w, z)):
            assert d >= 0.0
            worst = max(worst, rel_err(d, exact))
    assert worst <= REL_TOL


def test_altitude_on_seeded_triples():
    rng = np.random.default_rng(20231)
    sides = 10.0 ** rng.uniform(math.log10(0.05), 1.0, (500, 3))
    worst = 0.0
    for a in sides.tolist():
        hexa = HexagonAlternatingSides(*a)
        with mpmath.workdps(40):
            ch = [mpmath.cosh(mpmath.mpf(v)) for v in a]
            num = -1 + sum(c * c for c in ch) + 2 * ch[0] * ch[1] * ch[2]
            for i in (1, 2, 3):
                exact = mpmath.acosh(mpmath.sqrt(num)
                                     / mpmath.sinh(mpmath.mpf(a[i - 1])))
                worst = max(worst, rel_err(hexagon_altitude(hexa, i), exact))
    assert worst <= REL_TOL


@pytest.mark.parametrize("lo,hi", [(0.05, 10.0), (10.0, 100.0),
                                   (100.0, 700.0), (700.0, 800.0)])
def test_chain_step(lo, hi):
    worst = 0.0
    for l in np.geomspace(lo, hi, 60).tolist():
        mid, _ = halfseam_intermediate_bound(l)
        with mpmath.workdps(40 + int(l / 2)):
            exact = mpmath.acosh(mpmath.coth(mpmath.mpf(l) / 2)) / 2
        worst = max(worst, rel_err(mid, exact))
    assert worst <= REL_TOL


@pytest.mark.parametrize("ns", [range(1, 101), range(101, 709, 7),
                                range(709, 1417, 11)])
def test_arc_length_and_cosh_sq(ns):
    # past n = 700 the length takes its asymptotic branch; it stays a
    # normal double up to n = 1416
    worst = 0.0
    for n in ns:
        res = pants1_arc_length(n)
        with mpmath.workdps(40 + n // 2):
            m = mpmath.mpf(n)
            cosh = mpmath.coth(m) + mpmath.cosh(1) / mpmath.sinh(m)
            worst = max(worst, rel_err(res.length, mpmath.acosh(cosh)),
                        rel_err(res.cosh_sq, cosh * cosh))
    assert worst <= REL_TOL

