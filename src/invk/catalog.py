"""Catalog of concrete invariant-function families E1..E13, plus E14 (odd n only).

Each entry is a factory that validates its parameters and returns an
immutable descriptor.  Analytic partials are attached where a closed form
exists (E1, E2, E5..E9).  Branch-defined entries (floor, indicator, log-sine,
cotangent, log-gamma, sign) select their lattice branch with the shared
exact-remainder split from `core`, and near-lattice trigonometry (E7..E11)
is computed in float64 from the offset d to the nearest lattice point,
which carries one rounding, so it stays accurate where the verification
grids probe closest.  E2 and E13 are `special`'s scaled Bernoulli and Hurwitz
values.  E5 with a growing base divides a^(x-y) by 1 - a^(-y), so it
overflows only where the value does; E6 is E5(a = r) times a rotation and
one factor per scale, which is 1 at theta = 0.

E7, E8 and E9 are three views of one real quantity, D = |1 - rho e^(2 pi i u)|^2
= (rho - 1)^2 + 4 rho sin^2(pi u) with rho = r^(1/y): E7 = log D,
E8 = rho sin(2 pi u)/(y D) and E9 = -(rho - 1)(1 + rho)/(y D).  Their values
and partials read D and its parts from one helper, `_quotient_parts`, in
real arithmetic, as every entry computes.  D vanishes at the complex points
x = k y +- i |log r|/(2 pi), 0.110 off the real axis for r = 1/2 at every
scale, and the three entries list them (`near_poles`), so a convolution
with one of them integrates in a variable that spreads its nodes about
them.

Every entry also has an array rule over an ndarray of points, built
from the array forms of the same helpers, that equals its value rule bit
for bit (E5 and E6 map `math`'s exp, cos and sin over the points).
So the other scalar rules take numpy's sine and log, called on the Python
float itself, not `math.sin` and `math.log`, which need not round as
numpy's vector loops; the result is turned back into a float at once, so
the arithmetic around it runs on floats, not on numpy scalars.  A rule that
reads only |d| and the band test (the array rules of E7, E9 and E10)
takes `core`'s offset-only fold, `lattice_offset`, without k and the tie
rule.
The entries that are y-periodic in x, E1, E3b, E4, E7..E11, E13 (s < 0)
and E14, say so (`periodic`), so a convolution with one of them runs over
the base period.

Entry summary (x, y real, y > 0, u = x/y):

  E1            1/y
  E2(m)         y^(m-1) B_m(u), m >= 1
  E3a           floor(u)
  E3b           {u} - 1/2
  E4(a)         1 if (a-x)/y integer else 0
  E5(a)         a^x / (a^y - 1), a > 0, a != 1
  E6(r,th,part) real/imaginary part of z^x/(z^y - 1) with z = r e^(i th)
  E7(r)         log(1 - 2 r^(1/y) cos(2 pi u) + r^(2/y))
  E8(r)         r^(1/y) sin(2 pi u) / (y (1 - 2 r^(1/y) cos(2 pi u) + r^(2/y)))
  E9(r)         (1 - r^(2/y)) / (y (1 - 2 r^(1/y) cos(2 pi u) + r^(2/y))), 0<r<1
  E10           log|2 sin(pi u)| off-lattice, -log y on u integer
  E11           (1/y) cot(pi u) off-lattice, 0 on u integer
  E12           log|y^u Gamma(u) / sqrt(2 pi y)| off the nonpositive lattice,
                log(y^u sqrt(2 pi y) / (-u)!) on it
  E13(s)        y^(-s) zeta(s, u) for s > 1 (u > 0) or s < 0 (periodized)
  E14           sign of 1/2 - {u} collapsed to {+1, 0, -1}; satisfies the
                defining identity for odd n only
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import (
    InvariantFunction,
    lattice_offset,
    lattice_parts,
    lattice_points,
    lattice_split,
    per_scale,
)
from .errors import RejectedInputError, finite, integer, positive
from .special import (
    ZETA_NEG_TOLERANCE,
    bernoulli_scaled,
    bernoulli_scaled_array,
    hurwitz_zeta_scaled,
    hurwitz_zeta_scaled_array,
    log_gamma_abs,
    log_gamma_abs_array,
)

_TWO_PI = 2.0 * math.pi
_LOG_2PI = math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _lattice_locator(offset: float = 0.0, halves: bool = False, nonpositive: bool = False):
    def points(y, lo, hi):
        step = y / 2.0 if halves else y
        pts = lattice_points(offset, step, lo, hi)
        if nonpositive:
            pts = tuple(p for p in pts if p <= 1e-12 * y)
        return pts

    return points


def _pole_locator(L: float):
    """The `near_poles` of E7, E8 and E9 from L = log r: the zeros of D,
    k y +- i |L|/(2 pi), one per lattice point k y."""
    dist = abs(L) / _TWO_PI

    def poles(y, lo, hi):
        return tuple((c, dist) for c in lattice_points(0.0, y, lo, hi))

    return poles


def _make_e1() -> InvariantFunction:
    return InvariantFunction(
        name="E1",
        value=lambda x, y: 1.0 / y,
        dx=lambda x, y: 0.0,
        dy=lambda x, y: -1.0 / (y * y),
        array_value=_e1_values,
        periodic=True,
    )


def _e1_values(xs, ys):
    if isinstance(ys, np.ndarray):
        return 1.0 / ys
    return np.full(xs.shape, 1.0 / ys)


def _make_e2(m: int) -> InvariantFunction:
    m = integer("m", m, 1)

    # with E2_k = y^(k-1) B_k(x/y) and B_m' = m B_(m-1): dx E2_m = m E2_(m-1)
    # and dy E2_m = ((m-1) E2_m - m x E2_(m-1)) / y
    def dy(x, y):
        return ((m - 1) * bernoulli_scaled(m, x, y) - m * x * bernoulli_scaled(m - 1, x, y)) / y

    return InvariantFunction(
        name="E2",
        value=lambda x, y: bernoulli_scaled(m, x, y),
        params={"m": m},
        dx=lambda x, y: m * bernoulli_scaled(m - 1, x, y),
        dy=dy,
        array_value=lambda xs, ys: bernoulli_scaled_array(m, xs, ys),
    )


def _make_e3a() -> InvariantFunction:
    def value(x, y):
        k, d, on = lattice_parts(x, y)
        return k - 1.0 if d < 0.0 and not on else k

    def array_value(xs, ys):
        k, d, on = lattice_split(xs, ys)
        return np.where((d < 0.0) & ~on, k - 1.0, k)

    return InvariantFunction(
        name="E3a",
        value=value,
        singular_points=_lattice_locator(),
        piecewise=True,
        array_value=array_value,
    )


def _make_e3b() -> InvariantFunction:
    def value(x, y):
        _, d, on = lattice_parts(x, y)
        return (0.0 if on else d if d >= 0.0 else 1.0 + d) - 0.5

    def array_value(xs, ys):
        _, d, on = lattice_split(xs, ys)
        return np.where(on, 0.0, np.where(d < 0.0, 1.0 + d, d)) - 0.5

    return InvariantFunction(
        name="E3b",
        value=value,
        singular_points=_lattice_locator(),
        piecewise=True,
        array_value=array_value,
        periodic=True,
    )


def _make_e4(a: float) -> InvariantFunction:
    a = finite("a", a)

    def value(x, y):
        return 1.0 if lattice_parts(a - x, y)[2] else 0.0

    def array_value(xs, ys):
        _, _, on = lattice_split(a - xs, ys)
        return on.astype(float)

    return InvariantFunction(
        name="E4",
        value=value,
        params={"a": a},
        singular_points=_lattice_locator(offset=a),
        piecewise=True,
        array_value=array_value,
        periodic=True,
    )


def _make_e5(a: float) -> InvariantFunction:
    a = positive("a", a)
    if a == 1.0:
        raise RejectedInputError("E5 needs a != 1")
    L = math.log(a)
    # a > 1: a^x / (a^y - 1) = a^(x-y) / (1 - a^(-y)), so exp overflows only where the value does
    shift, sign = (1.0, -1.0) if L > 0.0 else (0.0, 1.0)

    def denom(y):
        return sign * math.expm1(sign * y * L)

    def value(x, y):
        return math.exp((x - shift * y) * L) / (sign * math.expm1(sign * y * L))

    def array_value(xs, ys):
        # math.exp and math.expm1, not np.exp and np.expm1, which may differ
        # in the last bit
        grow = np.fromiter(map(math.exp, ((xs - shift * ys) * L).tolist()), float, xs.size)
        return grow / per_scale(denom, ys)

    def dx(x, y):
        return L * math.exp((x - shift * y) * L) / denom(y)

    def dy(x, y):
        d = denom(y)
        return -L * math.exp((x + sign * y) * L) / (d * d)

    return InvariantFunction(
        name="E5", value=value, params={"a": a}, dx=dx, dy=dy, array_value=array_value
    )


def _make_e6(r: float, theta: float, part: str) -> InvariantFunction:
    r = _radius("E6", r)
    theta = finite("theta", theta)
    if part not in ("cos", "sin"):
        raise RejectedInputError(f"E6 part must be 'cos' or 'sin', got {part!r}")
    # z^x/(z^y - 1) = E5(a = r) e^(i phi) q, phi = theta (x - shift y), w = z^(sign y)
    # = rho e^(i psi), q = rm1 conj(w - 1)/|w - 1|^2 with E5's rm1 = rho - 1, and
    # w - 1 = a + i b = (rm1 - 2 rho h^2) + i rho sin(psi), h = sin(psi/2), so
    # |w - 1|^2 = rm1^2 + 4 rho h^2 does not cancel at small y.  The value is E5's,
    # from q's rm1, times the part of e^(i phi) q; dx and dy are E5's times the part
    # of e^(i phi) (1 + i t) q and of e^(i theta (x + sign y)) (1 + i t) q^2
    e5, L = _make_e5(r), math.log(r)
    shift, sign = (1.0, -1.0) if L > 0.0 else (0.0, 1.0)
    sL, t = sign * L, theta / L  # y sL is E5's sign y L exactly
    sT, hT, cos = sign * theta, 0.5 * sign * theta, part == "cos"  # psi = y sT

    def q(y):  # (rm1, a, b, |w - 1|^2)
        rm1 = math.expm1(y * sL)
        rho, h = rm1 + 1.0, math.sin(y * hT)
        hh = 2.0 * rho * h * h
        return rm1, rm1 - hh, rho * math.sin(y * sT), rm1 * rm1 + 2.0 * hh

    def turn(c, s, a, b):  # the part of (c + i s)(a - i b), floats or arrays
        return c * a + s * b if cos else s * a - c * b

    def value(x, y):
        rm1, a, b, n = q(y)
        u = x - shift * y
        phi = theta * u
        return math.exp(u * L) / (sign * rm1) * (rm1 * turn(math.cos(phi), math.sin(phi), a, b) / n)

    def array_value(xs, ys):
        u = xs - shift * ys
        phi = (theta * u).tolist()
        grow = np.fromiter(map(math.exp, (u * L).tolist()), float, xs.size)
        c = np.fromiter(map(math.cos, phi), float, xs.size)
        s = np.fromiter(map(math.sin, phi), float, xs.size)
        rm1, a, b, n = per_scale(q, ys)
        return grow / (sign * rm1) * (rm1 * turn(c, s, a, b) / n)

    def dx(x, y):
        rm1, a, b, n = q(y)
        phi = theta * (x - shift * y)
        return e5.dx(x, y) * (rm1 * turn(math.cos(phi), math.sin(phi), a + t * b, b - t * a) / n)

    def dy(x, y):
        rm1, a, b, n = q(y)
        a, b, phi = a * a - b * b, 2.0 * a * b, theta * (x + sign * y)  # (a - i b)^2
        return e5.dy(x, y) * (rm1 * rm1 * turn(math.cos(phi), math.sin(phi), a + t * b, b - t * a)
                              / (n * n))

    return InvariantFunction(name="E6", value=value, params={"r": r, "theta": theta, "part": part},
                             dx=dx, dy=dy, array_value=array_value)


def _trig_parts(x: float, y: float) -> tuple[float, float]:
    """(sin(pi x/y), sin(2 pi x/y)) from the nearest-lattice offset.

    sin(pi u) only flips sign across the lattice; its magnitude equals
    |sin(pi d)| with d the offset, which keeps full relative accuracy when
    u is large or d is tiny.  The sines are numpy's, taken on the floats, as
    in `_trig_parts_array`: `math.sin` need not round as numpy's vector loop.
    """
    k, d, _ = lattice_parts(x, y)
    s1 = float(np.sin(math.pi * d))
    return (-s1 if k % 2.0 != 0.0 else s1), float(np.sin(_TWO_PI * d))


def _trig_parts_array(xs: np.ndarray, ys) -> tuple[np.ndarray, np.ndarray]:
    """`_trig_parts` at each x of a float ndarray, bit for bit."""
    k, d, _ = lattice_split(xs, ys)
    s1 = np.sin(math.pi * d)
    s1 = np.where(np.fmod(k, 2.0) != 0.0, -s1, s1)
    return s1, np.sin(_TWO_PI * d)


def _rho_parts(L: float, y) -> tuple[float, float]:
    """(r^(1/y), r^(1/y) - 1) from L = log r, with the difference free of
    cancellation; y may also be a float ndarray, giving arrays, with one
    `expm1` per run of equal scales."""
    if isinstance(y, np.ndarray):
        rm1 = per_scale(lambda t: math.expm1(L / t), y)
    else:
        rm1 = math.expm1(L / y)
    return rm1 + 1.0, rm1


def _denominator(rho, rm1, s):
    """D = (rho - 1)^2 + 4 rho sin^2(pi u) from rho, rho - 1 and s = +-sin(pi u),
    the one expression of D for scalars and arrays.  D is a sum of
    nonnegative terms, so it keeps full relative accuracy near the lattice,
    and (-s)(-s) = s s exactly, so the sign of s does not change its bits."""
    return rm1 * rm1 + 4.0 * rho * s * s


def _quotient_parts(L: float, x, y):
    """(rho, rho - 1, sin(pi u), sin(2 pi u), D) at u = x/y, the parts of E7,
    E8 and E9 (see the module docstring), from L = log r.  x may also be a
    float ndarray, y one scale or scales aligned with it: the same
    expression runs for scalars and arrays, bit for bit."""
    rho, rm1 = _rho_parts(L, y)
    s1, s2 = _trig_parts_array(x, y) if isinstance(x, np.ndarray) else _trig_parts(x, y)
    return rho, rm1, s1, s2, _denominator(rho, rm1, s1)


def _quotient_D(L: float, x, y):
    """(rho, rho - 1, D): `_quotient_parts` without the sines that E7's and
    E9's values never read.  D takes sin(pi u) squared, so it needs neither
    sin(2 pi u) nor the parity sign of sin(pi u), only sin(pi d), nor the
    k of the split, nor the sign of d at a tie: the same D, bit for bit."""
    rho, rm1 = _rho_parts(L, y)
    if isinstance(x, np.ndarray):
        s = np.sin(math.pi * lattice_offset(x, y)[0])
    else:  # numpy's sine, as `_trig_parts` takes it
        s = float(np.sin(math.pi * lattice_parts(x, y)[1]))
    return rho, rm1, _denominator(rho, rm1, s)


def _quotient_partials(L: float, x: float, y: float) -> tuple[float, float, float, float]:
    """(y E8, y E9, re, im) with re + i im = w/(1 - w)^2, w = rho e^(2 pi i u).

    y E8 = Im q and y E9 = 1 + 2 Re q with q = w/(1 - w), whose partials are
    q_x = (2 pi i/y) w/(1 - w)^2 and q_y = -((log r + 2 pi i x)/y^2) w/(1 - w)^2.
    In real form w (1 - conj w)^2 = rho ((rho - 1)^2 - 2 (1 + rho^2) sin^2(pi u))
    + i rho (1 - rho^2) sin(2 pi u), over D^2, with 1 - rho^2 = -(rho - 1)(1 + rho)
    free of cancellation."""
    rho, rm1, s1, s2, D = _quotient_parts(L, x, y)
    one_minus_sq = -rm1 * (1.0 + rho)
    D2 = D * D
    re = rho * (rm1 * rm1 - 2.0 * (1.0 + rho * rho) * s1 * s1) / D2
    return rho * s2 / D, one_minus_sq / D, re, rho * one_minus_sq * s2 / D2


def _make_e7(r: float) -> InvariantFunction:
    r = _radius("E7", r)
    L = math.log(r)

    def value(x, y):
        return float(np.log(_quotient_D(L, x, y)[2]))  # numpy's log, as the array rule's

    # D past the doubles is inf, or nan where 4 rho is inf and x is on the
    # lattice, as in the scalar rule's floats
    @np.errstate(over="ignore", invalid="ignore")
    def array_value(xs, ys):
        return np.log(_quotient_D(L, xs, ys)[2])

    def dx(x, y):
        rho, _, _, s2, D = _quotient_parts(L, x, y)
        return _TWO_PI / y * 2.0 * rho * s2 / D

    def dy(x, y):
        rho, rm1, s1, s2, D = _quotient_parts(L, x, y)
        drho = -rho * L / y ** 2
        dc = s2 * _TWO_PI * x / y ** 2  # d/dy cos(2 pi x / y)
        # rho - cos(2 pi u) = (rho - 1) + 2 sin^2(pi u), free of cancellation
        dD = 2.0 * drho * (rm1 + 2.0 * s1 * s1) - 2.0 * rho * dc
        return dD / D

    return InvariantFunction(
        name="E7", value=value, params={"r": r}, dx=dx, dy=dy, array_value=array_value,
        periodic=True, near_poles=_pole_locator(L),
    )


def _make_e8(r: float) -> InvariantFunction:
    r = _radius("E8", r)
    L = math.log(r)

    def value(x, y):
        rho, _, _, s2, D = _quotient_parts(L, x, y)
        return rho * s2 / (y * D)

    # D past the doubles is inf, or nan where 4 rho is inf and x is on the
    # lattice, as in the scalar rule's floats
    @np.errstate(over="ignore", invalid="ignore")
    def array_value(xs, ys):
        return value(xs, ys)

    def dx(x, y):
        return _TWO_PI * _quotient_partials(L, x, y)[2] / (y * y)

    def dy(x, y):
        q, _, re, im = _quotient_partials(L, x, y)
        return -(q + (L * im + _TWO_PI * x * re) / y) / (y * y)

    return InvariantFunction(
        name="E8", value=value, params={"r": r}, dx=dx, dy=dy, array_value=array_value,
        periodic=True, near_poles=_pole_locator(L),
    )


def _make_e9(r: float) -> InvariantFunction:
    r = positive("r", r)
    if r >= 1.0:
        raise RejectedInputError(f"E9 needs r < 1, got r={r}")
    L = math.log(r)

    def value(x, y):
        rho, rm1, D = _quotient_D(L, x, y)
        return -rm1 * (1.0 + rho) / (y * D)

    def dx(x, y):
        return -2.0 * _TWO_PI * _quotient_partials(L, x, y)[3] / (y * y)

    def dy(x, y):
        _, q, re, im = _quotient_partials(L, x, y)
        return -(q + 2.0 * (L * re - _TWO_PI * x * im) / y) / (y * y)

    return InvariantFunction(
        name="E9", value=value, params={"r": r}, dx=dx, dy=dy, array_value=value,
        periodic=True, near_poles=_pole_locator(L),
    )


def _make_e10() -> InvariantFunction:
    def value(x, y):
        _, d, on = lattice_parts(x, y)
        if on:
            return -math.log(y)
        # |sin(pi u)| = |sin(pi d)|: the sign flip of `_trig_parts` is moot
        return float(np.log(2.0 * abs(float(np.sin(math.pi * d)))))

    @np.errstate(divide="ignore")  # log 0 on the exact lattice
    def array_value(xs, ys):
        d, on = lattice_offset(xs, ys)
        out = np.log(2.0 * np.abs(np.sin(math.pi * d)))
        if np.count_nonzero(on):
            out = np.where(on, -per_scale(math.log, ys), out)
        return out

    return InvariantFunction(
        name="E10",
        value=value,
        singular_points=_lattice_locator(),
        piecewise=True,
        array_value=array_value,
        periodic=True,
    )


def _make_e11() -> InvariantFunction:
    def value(x, y):
        _, d, on = lattice_parts(x, y)
        if on:
            return 0.0
        pd = math.pi * d
        return float(np.cos(pd)) / float(np.sin(pd)) / y

    def array_value(xs, ys):
        _, d, on = lattice_split(xs, ys)
        pd = math.pi * d
        with np.errstate(divide="ignore"):  # 1/0 on the exact lattice
            out = np.cos(pd) / np.sin(pd) / ys
        return np.where(on, 0.0, out)

    return InvariantFunction(
        name="E11",
        value=value,
        singular_points=_lattice_locator(),
        piecewise=True,
        integrable_in_x=False,
        array_value=array_value,
        periodic=True,
    )


def _make_e12() -> InvariantFunction:
    # Near a pole, at k <= 0, x/y has lost the offset d to rounding, so
    # log|Gamma(u)| comes from the split's d by reflection:
    # log pi - log|sin(pi d)| - log Gamma(1 - k - d)
    def value(x, y):
        k, d, on = lattice_parts(x, y)
        logy = math.log(y)
        if on and k <= 0.0:
            # on u in {0, -1, -2, ...}: log(y^u sqrt(2 pi y) / (-u)!)
            return k * logy + 0.5 * (_LOG_2PI + logy) - log_gamma_abs(1.0 - k)
        u = x / y
        if k <= 0.0:
            log_sin = float(np.log(abs(float(np.sin(math.pi * d)))))
            log_gamma = _LOG_PI - log_sin - log_gamma_abs(1.0 - k - d)
        else:
            log_gamma = log_gamma_abs(u)
        return u * logy + log_gamma - 0.5 * (_LOG_2PI + logy)

    # one pass: one log-gamma call on the argument of each point's branch,
    # u right of the poles (k >= 1), 1 - k - d by reflection left of them
    # and 1 - k on them, and one log-sine, at d left of the poles off them
    # and at d = 1/2, where it is 0, elsewhere
    def array_value(xs, ys):
        k, d, on = lattice_split(xs, ys)
        logy = per_scale(math.log, ys)
        half = 0.5 * (_LOG_2PI + logy)
        left = k <= 0.0
        near = left & ~on
        u = xs / ys
        lg = log_gamma_abs_array(np.where(left, 1.0 - k - np.where(on, 0.0, d), u))
        log_sin = np.log(np.abs(np.sin(math.pi * np.where(near, d, 0.5))))
        out = u * logy + np.where(left, _LOG_PI - log_sin - lg, lg) - half
        pole = on & left
        if np.count_nonzero(pole):
            out = np.where(pole, k * logy + half - lg, out)
        return out

    return InvariantFunction(
        name="E12",
        value=value,
        singular_points=_lattice_locator(nonpositive=True),
        piecewise=True,
        array_value=array_value,
    )


def _make_e13(s: float) -> InvariantFunction:
    s = finite("s", s)
    if 0.0 <= s <= 1.0:
        raise RejectedInputError(f"E13 needs s > 1 or s < 0, got s={s}")
    pos = s > 1.0
    return InvariantFunction(
        name="E13",
        value=lambda x, y: hurwitz_zeta_scaled(s, x, y),
        params={"s": s},
        # s > 1: x/y > 0, and u^-s blows up non-integrably at u = 0;
        # s < 0: the periodized value has kinks on the lattice
        domain=(lambda x, y: x > 0.0) if pos else None,
        singular_points=_lattice_locator(nonpositive=pos),
        series_tolerance=0.0 if pos else ZETA_NEG_TOLERANCE,
        piecewise=not pos,
        integrable_in_x=not pos,
        array_value=lambda xs, ys: hurwitz_zeta_scaled_array(s, xs, ys),
        periodic=not pos,
    )


def _make_e14() -> InvariantFunction:
    # the split at y/2: 2u = k2 + d2, and {u} < 1/2 where floor(2u) is even;
    # on that split's lattice the sign is 1 at u integer, 0 at u half-integer
    def value(x, y):
        k2, d2, on = lattice_parts(x, 0.5 * y)
        if on:
            return 0.0 if k2 % 2.0 != 0.0 else 1.0
        return 1.0 if (k2 - (d2 < 0.0)) % 2.0 == 0.0 else -1.0

    def array_value(xs, ys):
        k2, d2, on = lattice_split(xs, 0.5 * ys)
        half = np.where(np.fmod(k2, 2.0) != 0.0, 0.0, 1.0)
        off = np.where(np.fmod(k2 - (d2 < 0.0), 2.0) == 0.0, 1.0, -1.0)
        return np.where(on, half, off)

    return InvariantFunction(
        name="E14",
        value=value,
        singular_points=_lattice_locator(halves=True),
        piecewise=True,
        array_value=array_value,
        periodic=True,
    )


def _radius(name: str, r) -> float:
    """The r of E6, E7 and E8: r > 0 and r != 1."""
    r = positive("r", r)
    if r == 1.0:
        raise RejectedInputError(f"{name} needs r != 1")
    return r


_BUILDERS: dict[str, tuple[Callable[..., InvariantFunction], tuple[str, ...]]] = {
    "E1": (_make_e1, ()),
    "E2": (_make_e2, ("m",)),
    "E3a": (_make_e3a, ()),
    "E3b": (_make_e3b, ()),
    "E4": (_make_e4, ("a",)),
    "E5": (_make_e5, ("a",)),
    "E6": (_make_e6, ("r", "theta", "part")),
    "E7": (_make_e7, ("r",)),
    "E8": (_make_e8, ("r",)),
    "E9": (_make_e9, ("r",)),
    "E10": (_make_e10, ()),
    "E11": (_make_e11, ()),
    "E12": (_make_e12, ()),
    "E13": (_make_e13, ("s",)),
    "E14": (_make_e14, ()),
}

ENTRY_IDS = tuple(_BUILDERS)


def make(entry_id: str, **params) -> InvariantFunction:
    """Build a catalog entry by id with validated parameters."""
    if entry_id not in _BUILDERS:
        raise RejectedInputError(
            f"unknown catalog entry {entry_id!r}; known: {', '.join(ENTRY_IDS)}"
        )
    builder, names = _BUILDERS[entry_id]
    unknown = set(params) - set(names)
    if unknown:
        raise RejectedInputError(
            f"{entry_id} does not take parameter(s) {sorted(unknown)}; expects {list(names)}"
        )
    missing = [n for n in names if n not in params]
    if missing:
        raise RejectedInputError(f"{entry_id} requires parameter(s) {missing}")
    return builder(**params)


def standard_configs() -> list[tuple[str, dict]]:
    """The parameter matrix the verification suite sweeps per entry."""
    configs: list[tuple[str, dict]] = [("E1", {})]
    configs += [("E2", {"m": m}) for m in (1, 2, 3, 6)]
    configs += [("E3a", {}), ("E3b", {})]
    configs += [("E4", {"a": a}) for a in (2.0, 0.5, math.e)]
    configs += [("E5", {"a": a}) for a in (2.0, 0.5, math.e)]
    configs += [
        ("E6", {"r": r, "theta": th, "part": part})
        for r in (0.5, 2.0)
        for th in (0.0, 1.0)
        for part in ("cos", "sin")
    ]
    configs += [("E7", {"r": r}) for r in (0.5, 2.0)]
    configs += [("E8", {"r": r}) for r in (0.5, 2.0)]
    configs += [("E9", {"r": 0.5})]
    configs += [("E10", {}), ("E11", {})]
    configs += [("E12", {})]
    configs += [("E13", {"s": s}) for s in (2.0, 3.0, -1.0, -2.0)]
    configs += [("E14", {})]
    return configs
