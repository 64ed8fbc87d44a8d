"""Reference values for the benchmark's correctness checks.

Everything here runs after the timed phase and outside the set-up time.  The
references come from closed forms evaluated in mpmath at 30 digits, or from
mpmath's own quadrature of the defining formula; no reference calls into
invk.  Lattice branches follow the documented detection rule
|x/y - round(x/y)| <= 1e-9 * max(1, |x/y|), decided in exact rational
arithmetic on the float inputs.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 30

_LATTICE_RTOL = Fraction(1e-9)


def lattice(x: float, y: float, offset: float = 0.0):
    """(k, on) where k is the integer nearest (x - offset)/y and `on` says
    whether the ratio counts as on-lattice under the detection rule."""
    u = (Fraction(x) - Fraction(offset)) / Fraction(y)
    k = round(u)
    return k, abs(u - k) <= _LATTICE_RTOL * max(1, abs(u))


def _u(x, y):
    return mp.mpf(x) / mp.mpf(y)


def _frac(u):
    return u - mp.floor(u)


def _rho_denominator(r, x, y):
    rho = mp.power(mp.mpf(r), 1 / mp.mpf(y))
    c = mp.cos(2 * mp.pi * _u(x, y))
    return rho, 1 - 2 * rho * c + rho * rho


def entry(eid: str, params: dict, x: float, y: float):
    """Reference value of catalog entry `eid` at (x, y)."""
    yy = mp.mpf(y)
    u = _u(x, y)
    if eid == "E1":
        return 1 / yy
    if eid == "E2":
        m = params["m"]
        return yy ** (m - 1) * mp.bernpoly(m, u)
    if eid == "E3a":
        k, on = lattice(x, y)
        return mp.mpf(k) if on else mp.floor(u)
    if eid == "E3b":
        _, on = lattice(x, y)
        return mp.mpf(-0.5) if on else _frac(u) - mp.mpf(0.5)
    if eid == "E4":
        _, on = lattice(params["a"], y, offset=x)
        return mp.mpf(1 if on else 0)
    if eid == "E5":
        a = mp.mpf(params["a"])
        return a ** mp.mpf(x) / (a ** yy - 1)
    if eid == "E6":
        L = mp.mpc(mp.log(params["r"]), params["theta"])
        z = mp.exp(mp.mpf(x) * L) / (mp.exp(yy * L) - 1)
        return z.real if params["part"] == "cos" else z.imag
    if eid == "E7":
        _, D = _rho_denominator(params["r"], x, y)
        return mp.log(D)
    if eid == "E8":
        rho, D = _rho_denominator(params["r"], x, y)
        return rho * mp.sin(2 * mp.pi * u) / (yy * D)
    if eid == "E9":
        rho, D = _rho_denominator(params["r"], x, y)
        return (1 - rho * rho) / (yy * D)
    if eid == "E10":
        _, on = lattice(x, y)
        return -mp.log(yy) if on else mp.log(abs(2 * mp.sin(mp.pi * u)))
    if eid == "E11":
        _, on = lattice(x, y)
        return mp.mpf(0) if on else mp.cot(mp.pi * u) / yy
    if eid == "E12":
        k, on = lattice(x, y)
        half_log = (mp.log(2 * mp.pi) + mp.log(yy)) / 2
        if k <= 0 and on:
            return k * mp.log(yy) + half_log - mp.log(mp.factorial(-k))
        return u * mp.log(yy) + mp.log(abs(mp.gamma(u))) - half_log
    if eid == "E13":
        s = mp.mpf(params["s"])
        if s > 1:
            return yy ** (-s) * mp.zeta(s, u)
        w = _frac(u)
        return yy ** (-s) * mp.zeta(s, w if w > 0 else mp.mpf(1))
    if eid == "E14":  # the entry's own half-lattice band: 2e-9 * max(1, |u|)
        q = Fraction(x) / Fraction(y)
        k2 = round(2 * q)
        if abs(2 * q - k2) <= 2 * _LATTICE_RTOL * max(1, abs(q)):
            return mp.mpf(0 if k2 % 2 else 1)
        return mp.mpf(1 if _frac(u) < 0.5 else -1)
    raise KeyError(eid)


def lattice_frac(v: float, y: float):
    """Lattice-aware fractional part of v/y, as the detection rule defines it."""
    _, on = lattice(v, y)
    return mp.mpf(0) if on else _frac(_u(v, y))


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------


def golden(name: str, p: float):
    if name == "euler":
        return -mp.pi / 2 * mp.log(2)
    if name == "poisson":
        return 2 * mp.pi * mp.log(p) if p > 1 else mp.mpf(0)
    if name == "raabe":
        a = mp.mpf(p)
        return a * (mp.log(a) - 1) + mp.log(2 * mp.pi) / 2
    raise KeyError(name)


def period_integral(eid: str, params: dict, x: float, y: float):
    """int_x^{x+y} f(t, y) dt, which equals lim_{a->0+} a f(x, a)."""
    if eid == "E10":
        return mp.mpf(0)
    if eid == "E12":  # x > 0: Raabe's integral after t = y u
        xx = mp.mpf(x)
        return xx * (mp.log(xx) - 1)
    if eid == "E3a":
        return mp.mpf(x)
    if eid == "E7":
        r = params["r"]
        return 2 * mp.log(r) if r > 1 else mp.mpf(0)
    raise KeyError(eid)


def convolution(gid, gp, hid, hp, x: float, y: float):
    """(g * h)(x, y) for 0 <= x <= y."""
    key = (gid, hid)
    u = _u(x, y)
    yy = mp.mpf(y)
    if key == ("E5", "E1"):
        return 1 / (yy * mp.log(gp["a"]))
    if key == ("E2", "E2"):
        m, n = gp["m"], hp["m"]
        scale = -mp.factorial(m) * mp.factorial(n) / mp.factorial(m + n)
        return scale * yy ** (m + n - 1) * mp.bernpoly(m + n, u)
    if key == ("E10", "E10"):
        return yy / 2 * mp.pi ** 2 * mp.bernpoly(2, u)
    return defining_convolution(gid, gp, hid, hp, x, y)


def defining_convolution(gid, gp, hid, hp, x: float, y: float):
    """mpmath quadrature of int_0^x g(t) h(x-t) dt + int_x^y g(t) h(x+y-t) dt."""
    xx, yy = mp.mpf(x), mp.mpf(y)

    def g(t):
        return _entry_mp(gid, gp, t, yy)

    def h(t):
        return _entry_mp(hid, hp, t, yy)

    first = mp.quad(lambda t: g(t) * h(xx - t), [0, xx])
    second = mp.quad(lambda t: g(t) * h(xx + yy - t), [xx, yy])
    return first + second


def _entry_mp(eid, params, t, yy):
    """Smooth-branch entry value at an mpf argument, for quadrature."""
    u = t / yy
    if eid == "E2":
        m = params["m"]
        return yy ** (m - 1) * mp.bernpoly(m, u)
    if eid == "E5":
        a = mp.mpf(params["a"])
        return a ** t / (a ** yy - 1)
    if eid == "E12":
        return u * mp.log(yy) + mp.log(abs(mp.gamma(u))) - (mp.log(2 * mp.pi) + mp.log(yy)) / 2
    raise KeyError(eid)


def antiderivative(eid: str, params: dict, x: float, y: float):
    """F(x, y) = int_y^x f(t,y) dt + (1/y) int_0^y t f(t,y) dt in closed form."""
    yy = mp.mpf(y)
    if eid == "E2":  # F = y^m B_{m+1}(x/y) / (m+1)
        m = params["m"]
        return yy ** m * mp.bernpoly(m + 1, _u(x, y)) / (m + 1)
    if eid == "E5":  # F = E5 / log a - 1 / (y log^2 a)
        a = mp.mpf(params["a"])
        L = mp.log(a)
        return a ** mp.mpf(x) / (L * (a ** yy - 1)) - 1 / (yy * L * L)
    raise KeyError(eid)


# ---------------------------------------------------------------------------
# descriptors built by core (constants as given to the factories)
# ---------------------------------------------------------------------------


def core_affine(a, b, c, x, y):
    """a * E2(m=2)(b + c x, c y)."""
    return a * entry("E2", {"m": 2}, b + c * mp.mpf(x), c * mp.mpf(y))


def core_reflect(x, y):
    return entry("E9", {"r": 0.5}, mp.mpf(y) - x, y)


def core_frac_compose(t, x, y):
    """E5(a=2)(y {(t + x)/y}, y), with t + x rounded as the package rounds it."""
    return entry("E5", {"a": 2.0}, y * lattice_frac(t + x, y), y)


def core_x_derivative(x, y):
    """d/dx E7(r=1/2) = 4 pi rho sin(th) / (y D), rho = r^(1/y), th = 2 pi x/y."""
    rho, D = _rho_denominator(0.5, x, y)
    return 4 * mp.pi * rho * mp.sin(2 * mp.pi * _u(x, y)) / (y * D)


def core_linear_combination(x, y):
    """2 E1 - E5(a=2)/2 + E10."""
    return 2 / mp.mpf(y) - entry("E5", {"a": 2.0}, x, y) / 2 + entry("E10", {}, x, y)


def core_from_fourier(x, y):
    """(1/y) sum_{k>=1} q^k cos(k th) with q = exp(-1.5/y), th = 2 pi x/y."""
    q = mp.exp(-mp.mpf(1.5) / y)
    c = mp.cos(2 * mp.pi * _u(x, y))
    return (q * c - q * q) / (y * (1 - 2 * q * c + q * q))


def core_from_tail_series(x, y):
    """sum_{k>=0} exp(-(x + k y)) = exp(-x) / (1 - exp(-y))."""
    return mp.exp(-mp.mpf(x)) / (1 - mp.exp(-mp.mpf(y)))
