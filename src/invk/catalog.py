"""Catalog of concrete invariant-function families E1..E13, plus E14 (odd n only).

Each entry is a factory that validates its parameters and returns an
immutable descriptor.  Analytic partials are attached where a closed form
exists (E1, E2, E5..E9).  Branch-defined entries (floor, indicator, log-sine,
cotangent, log-gamma, sign) select their lattice branch with the shared
exact-remainder split from `core`, and near-lattice trigonometry (E7..E11)
is computed in float64 from the offset d to the nearest lattice point,
which carries one rounding, so it stays accurate where the verification
grids probe closest.  Only E2 and E13 still compute in the x87 long double.

E7, E8 and E9 are three views of one real quantity, D = |1 - rho e^(2 pi i u)|^2
= (rho - 1)^2 + 4 rho sin^2(pi u) with rho = r^(1/y): E7 = log D,
E8 = rho sin(2 pi u)/(y D) and E9 = -(rho - 1)(1 + rho)/(y D).  Their values
and partials read D and its parts from one helper, `_quotient_parts`, in
real arithmetic; only E6 computes with complex numbers.

Every entry but E6 also has an array rule over an ndarray of points, built
from the array forms of the same helpers, that equals its value rule bit
for bit; E6 keeps its `cmath` rule, which `values` maps point by point.

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

import cmath  # for E6 alone, the catalog's one complex entry
import math
from typing import Callable

import numpy as np

from .core import (
    InvariantFunction,
    LATTICE_RTOL,
    lattice_parts,
    lattice_points,
    lattice_split,
    per_scale,
)
from .errors import RejectedInputError
from .special import (
    ZETA_NEG_TOLERANCE,
    _hurwitz_sum_array,
    _hurwitz_sum_branch,
    bernoulli_poly,
    bernoulli_poly_array,
    hurwitz_zeta,
    hurwitz_zeta_neg_array,
    log_gamma_abs,
    log_gamma_abs_array,
)

_TWO_PI = 2.0 * math.pi
_LOG_2PI = math.log(2.0 * math.pi)


def _lattice_locator(offset: float = 0.0, halves: bool = False, nonpositive: bool = False):
    def points(y, lo, hi):
        step = y / 2.0 if halves else y
        pts = lattice_points(offset, step, lo, hi)
        if nonpositive:
            pts = tuple(p for p in pts if p <= 1e-12 * y)
        return pts

    return points


def _make_e1() -> InvariantFunction:
    return InvariantFunction(
        name="E1",
        value=lambda x, y: 1.0 / y,
        dx=lambda x, y: 0.0,
        dy=lambda x, y: -1.0 / (y * y),
        array_value=_e1_values,
    )


def _e1_values(xs, ys):
    if isinstance(ys, np.ndarray):
        return 1.0 / ys
    return np.full(xs.shape, 1.0 / ys)


def _make_e2(m: int) -> InvariantFunction:
    m = _int_param("m", m)
    if m < 1:
        raise RejectedInputError(f"E2 needs integer m >= 1, got {m}")

    ld = np.longdouble  # y^(m-1) B_m(u) still needs the x87 extended format

    def value(x, y):
        yd = ld(y)
        u = ld(x) / yd
        return float(yd ** (m - 1) * ld(bernoulli_poly(m, float(u))))

    def array_value(xs, ys):
        yd = ld(ys)  # one longdouble, or an array of them
        u = (xs.astype(ld) / yd).astype(float)
        return (yd ** (m - 1) * bernoulli_poly_array(m, u).astype(ld)).astype(float)

    def dx(x, y):
        if m == 1:
            return 1.0 / y
        return float(m * ld(y) ** (m - 2) * ld(bernoulli_poly(m - 1, x / y)))

    def dy(x, y):
        yd = ld(y)
        u = x / y
        lead = (m - 1) * yd ** (m - 2) * ld(bernoulli_poly(m, u)) if m >= 2 else ld(0.0)
        chain = m * yd ** (m - 3) * ld(x) * ld(bernoulli_poly(m - 1, u))
        return float(lead - chain)

    return InvariantFunction(
        name="E2", value=value, params={"m": m}, dx=dx, dy=dy, array_value=array_value
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
    )


def _make_e4(a: float) -> InvariantFunction:
    a = _float_param("a", a)

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
    )


def _make_e5(a: float) -> InvariantFunction:
    a = _float_param("a", a)
    if a <= 0.0 or a == 1.0:
        raise RejectedInputError(f"E5 needs a > 0, a != 1, got a={a}")
    L = math.log(a)

    def value(x, y):
        return math.exp(x * L) / math.expm1(y * L)

    def array_value(xs, ys):
        # math.exp and math.expm1, not np.exp and np.expm1, which may differ
        # in the last bit
        grow = np.fromiter(map(math.exp, (xs * L).tolist()), float, xs.size)
        return grow / per_scale(lambda y: math.expm1(y * L), ys)

    def dx(x, y):
        return L * math.exp(x * L) / math.expm1(y * L)

    def dy(x, y):
        d = math.expm1(y * L)
        return -L * math.exp((x + y) * L) / (d * d)

    return InvariantFunction(
        name="E5", value=value, params={"a": a}, dx=dx, dy=dy, array_value=array_value
    )


def _make_e6(r: float, theta: float, part: str) -> InvariantFunction:
    r = _radius("E6", r)
    theta = _float_param("theta", theta)
    if part not in ("cos", "sin"):
        raise RejectedInputError(f"E6 part must be 'cos' or 'sin', got {part!r}")
    L = complex(math.log(r), theta)
    pick = (lambda z: z.real) if part == "cos" else (lambda z: z.imag)

    def f_complex(x, y):
        return cmath.exp(x * L) / (cmath.exp(y * L) - 1.0)

    def value(x, y):
        return pick(f_complex(x, y))

    def dx(x, y):
        return pick(L * f_complex(x, y))

    def dy(x, y):
        g = cmath.exp(y * L)
        return pick(-L * g * cmath.exp(x * L) / (g - 1.0) ** 2)

    return InvariantFunction(
        name="E6",
        value=value,
        params={"r": r, "theta": theta, "part": part},
        dx=dx,
        dy=dy,
    )


def _trig_parts(x: float, y: float) -> tuple[float, float]:
    """(sin(pi x/y), sin(2 pi x/y)) from the nearest-lattice offset.

    sin(pi u) only flips sign across the lattice; its magnitude equals
    |sin(pi d)| with d the offset, which keeps full relative accuracy when
    u is large or d is tiny.  The sines are numpy's, as in
    `_trig_parts_array`: `math.sin` need not round as numpy's vector loop.
    """
    k, d, _ = lattice_parts(x, y)
    s1, s2 = np.sin(np.array([math.pi * d, _TWO_PI * d])).tolist()
    return (-s1 if k % 2.0 != 0.0 else s1), s2


def _trig_parts_array(xs: np.ndarray, ys) -> tuple[np.ndarray, np.ndarray]:
    """`_trig_parts` at each x of a float ndarray, bit for bit."""
    k, d, _ = lattice_split(xs, ys)
    s1 = np.sin(math.pi * d)
    s1 = np.where(np.fmod(k, 2.0) != 0.0, -s1, s1)
    return s1, np.sin(_TWO_PI * d)


def _rho_parts(r: float, y) -> tuple[float, float]:
    """(r^(1/y), r^(1/y) - 1) with the difference free of cancellation; y may
    also be a float ndarray, giving arrays, with one `expm1` per run of
    equal scales."""
    L = math.log(r)
    if isinstance(y, np.ndarray):
        rm1 = per_scale(lambda t: math.expm1(L / t), y)
    else:
        rm1 = math.expm1(L / y)
    return rm1 + 1.0, rm1


def _quotient_parts(r: float, x, y):
    """(rho, rho - 1, sin(pi u), sin(2 pi u), D) at u = x/y, the parts of E7,
    E8 and E9 (see the module docstring); D is a sum of nonnegative terms, so
    it keeps full relative accuracy near the lattice.  x may also be a float
    ndarray, y one scale or scales aligned with it: the same expression runs
    for scalars and arrays, bit for bit."""
    rho, rm1 = _rho_parts(r, y)
    s1, s2 = _trig_parts_array(x, y) if isinstance(x, np.ndarray) else _trig_parts(x, y)
    return rho, rm1, s1, s2, rm1 * rm1 + 4.0 * rho * s1 * s1


def _quotient_partials(r: float, x: float, y: float) -> tuple[float, float, float, float]:
    """(y E8, y E9, re, im) with re + i im = w/(1 - w)^2, w = rho e^(2 pi i u).

    y E8 = Im q and y E9 = 1 + 2 Re q with q = w/(1 - w), whose partials are
    q_x = (2 pi i/y) w/(1 - w)^2 and q_y = -((log r + 2 pi i x)/y^2) w/(1 - w)^2.
    In real form w (1 - conj w)^2 = rho ((rho - 1)^2 - 2 (1 + rho^2) sin^2(pi u))
    + i rho (1 - rho^2) sin(2 pi u), over D^2, with 1 - rho^2 = -(rho - 1)(1 + rho)
    free of cancellation."""
    rho, rm1, s1, s2, D = _quotient_parts(r, x, y)
    one_minus_sq = -rm1 * (1.0 + rho)
    D2 = D * D
    re = rho * (rm1 * rm1 - 2.0 * (1.0 + rho * rho) * s1 * s1) / D2
    return rho * s2 / D, one_minus_sq / D, re, rho * one_minus_sq * s2 / D2


def _make_e7(r: float) -> InvariantFunction:
    r = _radius("E7", r)
    L = math.log(r)

    def value(x, y):
        return float(np.log(_quotient_parts(r, x, y)[4]))  # numpy's log, as the array rule's

    def array_value(xs, ys):
        return np.log(_quotient_parts(r, xs, ys)[4])

    def dx(x, y):
        rho, _, _, s2, D = _quotient_parts(r, x, y)
        return _TWO_PI / y * 2.0 * rho * s2 / D

    def dy(x, y):
        rho, rm1, s1, s2, D = _quotient_parts(r, x, y)
        drho = -rho * L / y ** 2
        dc = s2 * _TWO_PI * x / y ** 2  # d/dy cos(2 pi x / y)
        # rho - cos(2 pi u) = (rho - 1) + 2 sin^2(pi u), free of cancellation
        dD = 2.0 * drho * (rm1 + 2.0 * s1 * s1) - 2.0 * rho * dc
        return dD / D

    return InvariantFunction(
        name="E7", value=value, params={"r": r}, dx=dx, dy=dy, array_value=array_value
    )


def _make_e8(r: float) -> InvariantFunction:
    r = _radius("E8", r)
    L = math.log(r)

    def value(x, y):
        rho, _, _, s2, D = _quotient_parts(r, x, y)
        return rho * s2 / (y * D)

    def dx(x, y):
        return _TWO_PI * _quotient_partials(r, x, y)[2] / (y * y)

    def dy(x, y):
        q, _, re, im = _quotient_partials(r, x, y)
        return -(q + (L * im + _TWO_PI * x * re) / y) / (y * y)

    return InvariantFunction(
        name="E8", value=value, params={"r": r}, dx=dx, dy=dy, array_value=value
    )


def _make_e9(r: float) -> InvariantFunction:
    r = _float_param("r", r)
    if not 0.0 < r < 1.0:
        raise RejectedInputError(f"E9 needs 0 < r < 1, got r={r}")
    L = math.log(r)

    def value(x, y):
        rho, rm1, _, _, D = _quotient_parts(r, x, y)
        return -rm1 * (1.0 + rho) / (y * D)

    def dx(x, y):
        return -2.0 * _TWO_PI * _quotient_partials(r, x, y)[3] / (y * y)

    def dy(x, y):
        _, q, re, im = _quotient_partials(r, x, y)
        return -(q + 2.0 * (L * re - _TWO_PI * x * im) / y) / (y * y)

    return InvariantFunction(
        name="E9", value=value, params={"r": r}, dx=dx, dy=dy, array_value=value
    )


def _make_e10() -> InvariantFunction:
    def value(x, y):
        _, d, on = lattice_parts(x, y)
        if on:
            return -math.log(y)
        # |sin(pi u)| = |sin(pi d)|: the sign flip of `_trig_parts` is moot
        return float(np.log(2.0 * abs(np.sin(math.pi * d))))

    def array_value(xs, ys):
        _, d, on = lattice_split(xs, ys)
        with np.errstate(divide="ignore"):  # log 0 on the exact lattice
            out = np.log(2.0 * np.abs(np.sin(math.pi * d)))
        if on.any():
            out = np.where(on, -per_scale(math.log, ys), out)
        return out

    return InvariantFunction(
        name="E10",
        value=value,
        singular_points=_lattice_locator(),
        piecewise=True,
        array_value=array_value,
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
    )


def _make_e12() -> InvariantFunction:
    def value(x, y):
        k, _, on = lattice_parts(x, y)
        if on and k <= 0.0:
            # on u in {0, -1, -2, ...}: log(y^u sqrt(2 pi y) / (-u)!)
            return k * math.log(y) + 0.5 * (_LOG_2PI + math.log(y)) - log_gamma_abs(1.0 - k)
        u = x / y
        return u * math.log(y) + log_gamma_abs(u) - 0.5 * (_LOG_2PI + math.log(y))

    def array_value(xs, ys):
        k, _, on = lattice_split(xs, ys)
        pole = on & (k <= 0.0)
        logy = np.broadcast_to(per_scale(math.log, ys), xs.shape)
        out = np.empty(xs.shape)
        off = ~pole
        u, ly = (xs / ys)[off], logy[off]
        out[off] = u * ly + log_gamma_abs_array(u) - 0.5 * (_LOG_2PI + ly)
        if pole.any():
            k, ly = k[pole], logy[pole]
            out[pole] = k * ly + 0.5 * (_LOG_2PI + ly) - log_gamma_abs_array(1.0 - k)
        return out

    return InvariantFunction(
        name="E12",
        value=value,
        singular_points=_lattice_locator(nonpositive=True),
        piecewise=True,
        array_value=array_value,
    )


def _make_e13(s: float) -> InvariantFunction:
    s = _float_param("s", s)
    if 0.0 <= s <= 1.0:
        raise RejectedInputError(f"E13 needs s > 1 or s < 0, got s={s}")
    ld = np.longdouble  # the zeta sums and y^(-s) still need the x87 extended format

    if s > 1.0:
        def value(x, y):
            # u and the zeta sum stay in extended precision: near u = 0 the
            # value grows like u^-s and the scale-sum identity needs the
            # leading terms of both sides to cancel to ~1e-8 absolute
            u = ld(x) / ld(y)
            if not u > 0.0:
                raise RejectedInputError(f"E13 with s > 1 needs x/y > 0, got {float(u)}")
            return float(ld(y) ** ld(-s) * ld(_hurwitz_sum_branch(s, u)))

        def array_value(xs, ys):
            u = xs.astype(ld) / ld(ys)
            if not (u > 0.0).all():
                bad = float(u[~(u > 0.0)][0])
                raise RejectedInputError(f"E13 with s > 1 needs x/y > 0, got {bad}")
            zeta = _hurwitz_sum_array(s, u).astype(ld)
            return (ld(ys) ** ld(-s) * zeta).astype(float)

        return InvariantFunction(
            name="E13",
            value=value,
            params={"s": s},
            domain=lambda x, y: x > 0.0,
            singular_points=_lattice_locator(nonpositive=True),
            integrable_in_x=False,  # u^-s blows up non-integrably at u = 0
            array_value=array_value,
        )

    def value(x, y):
        return float(ld(y) ** ld(-s) * ld(hurwitz_zeta(s, x / y)))

    def array_value(xs, ys):
        zeta = hurwitz_zeta_neg_array(s, xs / ys).astype(ld)
        return (ld(ys) ** ld(-s) * zeta).astype(float)

    return InvariantFunction(
        name="E13",
        value=value,
        params={"s": s},
        singular_points=_lattice_locator(),
        series_tolerance=ZETA_NEG_TOLERANCE,
        piecewise=True,  # periodized branch has lattice kinks
        array_value=array_value,
    )


def _make_e14() -> InvariantFunction:
    # the split at y/2: 2u = k2 + d2, and {u} < 1/2 where floor(2u) is even;
    # the band is the lattice band of 2u, 2 LATTICE_RTOL max(1, |u|)
    def value(x, y):
        k2, d2, _ = lattice_parts(x, 0.5 * y)
        if abs(d2) <= 2.0 * LATTICE_RTOL * max(1.0, abs(x / y)):
            return 0.0 if k2 % 2.0 != 0.0 else 1.0
        return 1.0 if (k2 - (d2 < 0.0)) % 2.0 == 0.0 else -1.0

    def array_value(xs, ys):
        k2, d2, _ = lattice_split(xs, 0.5 * ys)
        band = np.abs(d2) <= 2.0 * LATTICE_RTOL * np.maximum(1.0, np.abs(xs / ys))
        on = np.where(np.fmod(k2, 2.0) != 0.0, 0.0, 1.0)
        off = np.where(np.fmod(k2 - (d2 < 0.0), 2.0) == 0.0, 1.0, -1.0)
        return np.where(band, on, off)

    return InvariantFunction(
        name="E14",
        value=value,
        singular_points=_lattice_locator(halves=True),
        piecewise=True,
        array_value=array_value,
    )


def _int_param(name: str, v) -> int:
    try:
        if isinstance(v, bool):
            raise TypeError
        iv = int(v)
        if iv != v:
            raise ValueError
    except (TypeError, ValueError):
        raise RejectedInputError(f"parameter {name} must be an integer, got {v!r}") from None
    return iv


def _radius(name: str, r) -> float:
    """The r of E6, E7 and E8: a finite number, r > 0 and r != 1."""
    r = _float_param("r", r)
    if r <= 0.0 or r == 1.0:
        raise RejectedInputError(f"{name} needs r > 0, r != 1, got r={r}")
    return r


def _float_param(name: str, v) -> float:
    try:
        fv = float(v)
    except (TypeError, ValueError):
        raise RejectedInputError(f"parameter {name} must be a number, got {v!r}") from None
    if not math.isfinite(fv):
        raise RejectedInputError(f"parameter {name} must be finite, got {v!r}")
    return fv


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
