"""Reference computations made apart from the program.

Kernel values come from the closed forms evaluated in mpmath at 60
digits; coordinate distances from a numpy evaluation of the sup formula
on the raw coordinate arrays.  Nothing here imports fnteich.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

mp.mp.dps = 60

FULL_TWIST = 2.0 * np.pi


def collar_margin(l):
    """B(l) = (1/2) log(1 + 2/(e^l - 1))."""
    l = mp.mpf(l)
    return mp.log1p(2 / mp.expm1(l)) / 2


def collar_halfwidth(l):
    """omega with sinh(omega) sinh(l/2) = 1."""
    return mp.asinh(1 / mp.sinh(mp.mpf(l) / 2))


def hexagon_sides(a):
    """Right-angled hexagon law cosh b_i = (cosh a_i + cosh a_j cosh a_k)
    / (sinh a_j sinh a_k)."""
    a = [mp.mpf(v) for v in a]
    out = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        out.append(mp.acosh((mp.cosh(a[i]) + mp.cosh(a[j]) * mp.cosh(a[k]))
                            / (mp.sinh(a[j]) * mp.sinh(a[k]))))
    return out


def hexagon_altitude(a, i):
    """cosh^2 h_i = (-1 + sum cosh^2 a_j + 2 prod cosh a_j) / sinh^2 a_i."""
    a = [mp.mpf(v) for v in a]
    ch = [mp.cosh(v) for v in a]
    num = -1 + sum(c * c for c in ch) + 2 * ch[0] * ch[1] * ch[2]
    return mp.acosh(mp.sqrt(num) / mp.sinh(a[i - 1]))


def hyp_distance(zx, zy, wx, wy):
    """cosh d = 1 + |z - w|^2 / (2 Im z Im w)."""
    zx, zy, wx, wy = (mp.mpf(v) for v in (zx, zy, wx, wy))
    u = ((zx - wx) ** 2 + (zy - wy) ** 2) / (2 * zy * wy)
    return mp.log1p(u + mp.sqrt(u * (u + 2)))


def _k(r):
    """K(r) = int_0^1 dx / sqrt((1-x^2)(1-r^2 x^2)); mpmath takes m = r^2."""
    return mp.ellipk(r * r)


def grotzsch_modulus(r):
    """mu(r) = (pi/2) K(sqrt(1 - r^2)) / K(r)."""
    r = mp.mpf(r)
    return mp.pi / 2 * _k(mp.sqrt(1 - r * r)) / _k(r)


def twist_min_dilatation(t):
    """h(t) = (2/pi) mu(1/sqrt(1 + e^t))."""
    t = mp.mpf(t)
    return 2 / mp.pi * grotzsch_modulus(1 / mp.sqrt(1 + mp.exp(t)))


def twist_min_dilatation_derivative(t):
    """h'(t) = -(e^t/pi) mu'(r) r^3 with r = (1 + e^t)^(-1/2) and
    mu'(r) = -pi^2 / (4 r (1 - r^2) K(r)^2)."""
    t = mp.mpf(t)
    lam = mp.exp(t)
    r = 1 / mp.sqrt(1 + lam)
    mu_prime = -mp.pi ** 2 / (4 * r * (1 - r * r) * _k(r) ** 2)
    return -(lam / mp.pi) * mu_prime * r ** 3


def cylinder_halflength(cap):
    """L(N) = 2 arctan(tanh(B(N)/2))."""
    return 2 * mp.atan(mp.tanh(collar_margin(cap) / 2))


def combined_qc_upper(d, cap, bishop_c):
    """d [3 C + sqrt(1 + d^2 / (16 L^2)) / L]."""
    d, c = mp.mpf(d), mp.mpf(bishop_c)
    big_l = cylinder_halflength(cap)
    return d * (3 * c + mp.sqrt(1 + d * d / (16 * big_l * big_l)) / big_l)


def fn_from_qc_upper(log_k, bishop_c):
    """(2 + 3 C) log K."""
    return (2 + 3 * mp.mpf(bishop_c)) * mp.mpf(log_k)


def rel_err(value, ref):
    """Relative error of a float against an mpmath reference."""
    ref = mp.mpf(ref)
    if ref == 0:
        return float(abs(value))
    return float(abs(mp.mpf(value) - ref) / abs(ref))


# ---------------------------------------------------------------------
# coordinate distance


def sup_distance(x, y, kind="fn"):
    """(value, 1-based attained index, terms) of the sup over the window
    of max(length term, twist term), the twist term only on interior
    curves.  x and y are (lengths, twists, boundary mask) arrays;
    `raw_twist` uses |theta_x - theta_y| and `raw_length` |l_x - l_y|."""
    lx, tx, bx = x
    ly, ty, _ = y
    if kind == "raw_length":
        len_term = np.abs(lx - ly)
    else:
        len_term = np.abs(np.log(lx) - np.log(ly))
    if kind == "raw_twist":
        tw_term = np.abs(tx - ty)
    else:
        tw_term = np.abs(lx * tx - ly * ty)
    terms = np.where(bx, len_term, np.maximum(len_term, tw_term))
    i = int(np.argmax(terms))
    return float(terms[i]), i + 1, terms


def family_arrays(kind, n, window):
    """Raw coordinates of the fn1 / fn2 family members on 1..window:
    unit lengths and zero twists except at index n, where fn1_x has
    length 1/n, fn1_y length 1/n and a full twist, fn2_x length 1/n and
    fn2_y length 1/n^2."""
    lengths = np.ones(window)
    twists = np.zeros(window)
    if n <= window:
        if kind in ("fn1_x", "fn1_y", "fn2_x"):
            lengths[n - 1] = 1.0 / n
        if kind == "fn1_y":
            twists[n - 1] = FULL_TWIST
        if kind == "fn2_y":
            lengths[n - 1] = 1.0 / (n * n)
    return lengths, twists, np.zeros(window, dtype=bool)
