"""Special functions: exact Bernoulli data, Hurwitz zeta, log-gamma, and the
scaled values of the Bernoulli and Hurwitz entries E2 and E13.

Bernoulli numbers are kept as exact rationals (``fractions.Fraction``) and only
converted to floating point at the evaluation boundary, so multiplication and
recurrence identities can be tested exactly.  Hurwitz zeta is supported for
``s > 1`` and ``s < 0``.  Both ``s > 1`` and ``-4 <= s < 0`` use tail-corrected
(Euler-Maclaurin) direct summation; below ``s = -4`` that sum loses accuracy to
cancellation, and a fixed-length trigonometric series of the analytic
continuation is used instead.  For ``s < 0`` the second argument is reduced
into ``(0, 1]``, so the result is 1-periodic in it.  The strip ``0 <= s <= 1``
is not supported.  ``log |Gamma|`` is Python's ``math.lgamma``.

It is the one module that computes in the x87 long double: the Bernoulli
Horner loop, the Euler-Maclaurin sums, and y^(m-1) B_m(x/y) and y^(-s)
zeta(s, x/y), each rounded once.  Both have array forms that run the scalar
sums over an ndarray in the same order, masked so that each element stops
at its own term, and equal the scalar functions bit for bit.
"""

from __future__ import annotations

import functools
import math
import sys
from fractions import Fraction

import numpy as np

from .core import lattice_parts, lattice_split
from .errors import (
    CapacityError,
    ConvergenceError,
    PoleError,
    RejectedInputError,
    UnsupportedRegionError,
    integer,
)

_LD = np.longdouble
_TWO_PI = 2.0 * math.pi

# E2's and E13's scalar rules hand a point whose long-double work may pass
# the long double to their array twins, which ignore overflow: the value is
# the twin's, inf, without numpy's warning.  The test for such a point is a
# float comparison or two, where an errstate on every call costs ~1.2 µs.
# y^p times a double stays inside the long double while p log y <=
# _POWER_REACH.
_LD_LOG_MAX = float(np.log(np.finfo(_LD).max))
_POWER_REACH = _LD_LOG_MAX - math.log(sys.float_info.max) - 1.0
# y^(m-1) B_m(x/y) stays inside the long double for every m <= TABLE_LIMIT
# where |x/y| and y are at most this: B_m's Horner sums are at most
# sum_j |c_j| max(1, |x/y|)^m (tests/test_special.py checks both bounds)
_BERNOULLI_REACH = 1e18

# Hard cap on the Bernoulli index
TABLE_LIMIT = 256


@functools.cache
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).

    Uses the defining recurrence B_0 = 1, sum_{k<n} C(n,k) B_k = 0 for
    n >= 2; each B_k it reads is cached.
    """
    n = integer("Bernoulli index", n, 0)
    if n > TABLE_LIMIT:
        raise CapacityError(f"Bernoulli table capped at B_{TABLE_LIMIT}, requested B_{n}")
    if n == 0:
        return Fraction(1)
    if n >= 3 and n % 2:
        return Fraction(0)  # odd indices past 1 vanish
    acc = Fraction(0)
    for k in range(n):
        if k < 3 or k % 2 == 0:  # skip the vanishing odd terms
            acc += math.comb(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


def _even_bernoulli_numbers(n_max: int) -> tuple[Fraction, ...]:
    """(B_2, B_4, ..., B_2j, ...) up to B_n_max, from the tangent numbers
    T_j, the integers with tan t = sum_j T_j t^(2j-1)/(2j-1)!, by
    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)).  The T_j come from Brent
    and Harvey's integer recurrence (Fast computation of Bernoulli, tangent
    and secant numbers, 2011), O(n^2) integer steps; the defining recurrence
    of `bernoulli_number` takes O(n^2) Fraction steps, each a gcd."""
    m = n_max // 2
    t = [0, 1] + [0] * (m - 1)
    for j in range(2, m + 1):
        t[j] = (j - 1) * t[j - 1]
    for i in range(2, m + 1):
        for j in range(i, m + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return tuple(Fraction((-1) ** (j - 1) * 2 * j * t[j], 4 ** j * (4 ** j - 1)) for j in range(1, m + 1))


def _ld(q: Fraction) -> _LD:
    return _LD(q.numerator) / _LD(q.denominator)


@functools.cache
def bernoulli_poly_coeffs(m: int) -> tuple[Fraction, ...]:
    """Exact coefficients of B_m(t), index j holding the t^j coefficient."""
    m = integer("polynomial degree", m, 0)
    # coefficient of t^j in B_m(t) is C(m, j) * B_{m-j}
    return tuple(math.comb(m, j) * bernoulli_number(m - j) for j in range(m + 1))


@functools.cache
def _poly_coeffs_ld(m: int) -> np.ndarray:
    arr = np.array([_ld(c) for c in bernoulli_poly_coeffs(m)], dtype=_LD)
    arr.flags.writeable = False  # one cached array serves every caller
    return arr


def _horner(cs, t):
    """sum_j cs[j] t^j by Horner's rule, in the arithmetic of cs and t:
    exact Fractions, or longdoubles with t one or an ndarray of them.  It
    starts at cs[-1], not at 0 t + cs[-1], which is the same for every
    finite t and costs an ndarray product and sum."""
    acc = cs[-1] + 0 * t if len(cs) == 1 else cs[-1]
    for c in cs[-2::-1]:
        acc = acc * t + c
    return acc


def bernoulli_poly(m: int, t: float) -> float:
    """B_m(t) by Horner evaluation of the exact coefficient list.

    Internally evaluated in extended precision: the verification suites sum
    scaled values up to ~1e8 in magnitude and need absolute errors well under
    1e-8 after cancellation.
    """
    return float(_horner(_poly_coeffs_ld(m), _LD(t)))


def _power_times(yd, m: int, b):
    """y^(m-1) b in extended precision, yd and b longdoubles or arrays of
    them.  y^1 = y exactly, so m = 2 takes no power; the callers skip
    m = 1, where y^0 b = b is the double B_m itself."""
    return yd * b if m == 2 else yd ** (m - 1) * b


def bernoulli_scaled(m: int, x: float, y: float) -> float:
    """y^(m-1) B_m(x/y), the Bernoulli entry E2 (and, at m - 1, its partials):
    x/y rounded to a double, B_m(x/y) rounded to one where that gives a
    finite double and kept in the long double where it gives inf, times
    y^(m-1) in extended precision, rounded once.  So (m, x, y) =
    (100, 1e3, 1e-5) gives 9.999995e304, not inf, and (120, 1e-195, 1e-200)
    gives 0.0, not nan.  A value past the long double is inf, as in the
    array twin, without numpy's overflow warning.  Past |x/y| =
    _BERNOULLI_REACH, where B_m(x/y) passes the doubles, the value is the
    twin's x^m / y, so (256, 1e-180, 1e-200) gives 0.0, not 0 * inf =
    nan."""
    yd = _LD(y)
    t = float(_LD(x) / yd)
    if not (-_BERNOULLI_REACH <= t <= _BERNOULLI_REACH and y <= _BERNOULLI_REACH):
        return float(bernoulli_scaled_array(m, np.array([x]), y)[0])
    b = bernoulli_poly(m, t)
    if m == 1:
        return b
    if math.isinf(b):  # past the doubles: B_m(x/y) again, as a long double
        return float(_power_times(yd, m, _horner(_poly_coeffs_ld(m), _LD(t))))
    return float(_power_times(yd, m, _LD(b)))


@np.errstate(over="ignore", invalid="ignore")
def bernoulli_scaled_array(m: int, xs: np.ndarray, ys) -> np.ndarray:
    """`bernoulli_scaled` at each x of a float ndarray, with ys one scale or
    a float ndarray aligned with xs: the same Horner loop run over the whole
    array, equal to the scalar function bit for bit: B_m(x/y) stays a
    longdouble where its double is inf.  A value past the largest double is
    inf, as `float` rounds a longdouble, without numpy's overflow warning;
    an exact zero B_m(x/y) stays 0.0: (255, 0.0, 1e20) gives 0.0, not nan."""
    yd = _LD(ys)  # one longdouble, or an array of them
    t = (xs.astype(_LD) / yd).astype(float)
    b = _horner(_poly_coeffs_ld(m), t.astype(_LD))
    d = b.astype(float)
    if m == 1:
        return d
    over = np.isinf(d)
    if not over.any():
        return np.where(d == 0.0, d, _power_times(yd, m, d)).astype(float)
    # past the reach B_m(t) = t^m (1 - m/(2t) + ...), so y^(m-1) B_m(x/y) is
    # x^m / y within an ulp for m up to ~400; unlike y^(m-1) times B_m(x/y)
    # it cannot form 0 * inf, since x^m / y past the long double is past the
    # doubles too
    far = over & (np.abs(t) > _BERNOULLI_REACH)
    scaled = _power_times(yd, m, np.where(far, 1.0, np.where(over, b, d)))
    return np.where(far, xs.astype(_LD) ** m / yd, np.where(d == 0.0, d, scaled)).astype(float)


def bernoulli_poly_exact(m: int, t: Fraction) -> Fraction:
    """B_m(t) for rational t, computed exactly."""
    return _horner(bernoulli_poly_coeffs(m), t)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------

_EM_BASE = 16.0          # tail-correction anchor for the summation branch

# Below this s the direct sum (n + x)^-s up to _EM_BASE cancels to ~16^(1-s)
# times the extended-precision epsilon: 4e-14 relative at s = -4, 4e-12 at
# -5.5, 3e-9 at -8.  From here down, k^(s-1) < 1e-17 for every k past
# _FOURIER_TERMS, so a fixed-length trigonometric series is accurate to rounding.
_FOURIER_BELOW = -4.0
_FOURIER_TERMS = 2512

# Series tolerance declared by the entries built on zeta(s < 0), E13 and the
# fractional kernels; on -20.5 <= s < 0 both branches stay within
# 4e-14 * max(1, |zeta|) of mpmath.
ZETA_NEG_TOLERANCE = 1e-10

# The even s in [_FOURIER_BELOW, 0), where zeta(s, 1) = zeta(s) and
# zeta(s, 1/2) = (2^s - 1) zeta(s) are trivial zeros that the direct sum
# leaves at rounding size: zeta(-4, 1) sums to -2.9e-15, which y^4 at
# y = 1e10 scales to -2.9e25
_TRIVIAL_ZERO_S = (-4.0, -2.0)


# B_2j / (2j)! for j = 1..59, the Euler-Maclaurin tail coefficients; the
# Bernoulli numbers come from the tangent numbers, which keeps import fast
# and `bernoulli_number`'s cache empty
_EM_COEFFS = tuple(_ld(b) / _LD(math.factorial(2 * j))
                   for j, b in enumerate(_even_bernoulli_numbers(118), start=1))


def _hurwitz_sum_branch(s: float, x: float) -> float:
    """zeta(s, x) for x > 0 and s > 1, or x in (0, 1] and -4 <= s < 0.

    Sums (n + x)^-s until the base a = x + n reaches max(_EM_BASE, s), then
    corrects the tail with the standard midpoint and even-derivative terms
    built from the Bernoulli numbers (Euler-Maclaurin), stopping when the
    next term is below 2e-17 relative.  That tail is asymptotic, with term
    ratio ~ (s + 2j)^2 / (2 pi a)^2, so for a large s the direct sum runs on
    to a >= s; it stops early at a direct term below 1e-17 relative, past
    which the rest, under a^(1-s)/(s-1) < 1.07 times that term, is
    negligible.  For negative integer s the correction terminates exactly.
    Raises ConvergenceError when the coefficients run out first.
    """
    sd = _LD(s)
    xd = _LD(x)
    acc = _LD(0.0)
    n = 0
    while float(xd) + n < _EM_BASE:
        acc += (xd + n) ** (-sd)
        n += 1
    while float(xd) + n < s:
        term = (xd + n) ** (-sd)
        acc += term
        n += 1
        if term <= 1e-17 * acc:
            return float(acc)
    a = xd + n
    acc += a ** (1.0 - sd) / (sd - 1.0) + 0.5 * a ** (-sd)
    rising = sd                       # s (s+1) ... (s+2j-2)
    apow = a ** (-sd - 1.0)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        term = coeff * rising * apow
        acc += term
        # the contract needs the first omitted term below 1e-12 relative;
        # extended precision lets us run it to ~1e-17 for free
        if abs(float(term)) <= 2e-17 * abs(float(acc)):
            return float(acc)
        rising *= (sd + (2 * j - 1)) * (sd + 2 * j)
        apow /= a * a
    raise ConvergenceError(f"zeta({s}, {x}): Euler-Maclaurin tail not below 2e-17 relative")


def _hurwitz_sum_ld(s: float, xs: np.ndarray) -> np.ndarray:
    """`_hurwitz_sum_branch` at each x of a float or longdouble ndarray, in
    long double; rounded to doubles, bit for bit: the same sums in the same
    order, masked, so that each element takes its own number of direct terms
    and stops its tail at its own term."""
    sd = _LD(s)
    xd = xs.astype(_LD)
    xf = xd.astype(float)
    acc = np.zeros_like(xd)
    n = np.zeros(xd.shape)
    live = xf < _EM_BASE
    while live.any():
        acc = np.where(live, acc + (xd + n) ** (-sd), acc)
        n += live
        live = xf + n < _EM_BASE
    live = xf + n < s
    done = np.zeros(xd.shape, dtype=bool)  # stopped in the direct sum
    while live.any():
        term = (xd + n) ** (-sd)
        acc = np.where(live, acc + term, acc)
        n += live
        done |= live & (term <= 1e-17 * acc)
        live &= ~done & (xf + n < s)
    a = xd + n
    acc = np.where(done, acc, acc + (a ** (1.0 - sd) / (sd - 1.0) + 0.5 * a ** (-sd)))
    rising = sd
    apow = a ** (-sd - 1.0)
    live = ~done
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        term = coeff * rising * apow
        acc = np.where(live, acc + term, acc)
        live &= ~(np.abs(term.astype(float)) <= 2e-17 * np.abs(acc.astype(float)))
        if not live.any():
            return acc
        rising *= (sd + (2 * j - 1)) * (sd + 2 * j)
        apow /= a * a
    raise ConvergenceError(
        f"zeta({s}, {xs[live][0]}): Euler-Maclaurin tail not below 2e-17 relative")


def _hurwitz_fourier_sum(s: float, u: float) -> float:
    """zeta(s, u) for s < -4, u in (0, 1], by Hurwitz's trigonometric series

        2 Gamma(1-s) / (2 pi)^(1-s) * sum_k [sin(pi s/2) cos(2 pi k u)
                                             + cos(pi s/2) sin(2 pi k u)] k^(s-1)

    summed over k = 1.._FOURIER_TERMS.
    """
    try:
        pref = 2.0 * math.exp(log_gamma_abs(1.0 - s)) / _TWO_PI ** (1.0 - s)
    except OverflowError:
        raise UnsupportedRegionError(f"zeta(s, x) overflows double precision at s={s}") from None
    k = np.arange(1.0, _FOURIER_TERMS + 1.0)
    # sin(pi t) and cos(pi t) at t = 2 k u and t = s/2 as (-1)^n times those
    # of pi d, t = n + d split exactly: the sine is exactly 0 at integer t,
    # so the trivial zeros zeta(-2m, 1) = zeta(-2m, 1/2) = 0 stay exact
    # instead of the huge prefactor times rounding
    n, d, _ = lattice_split(np.append(2.0 * k * u, 0.5 * s), 1.0)
    sign = 1.0 - 2.0 * np.fmod(np.abs(n), 2.0)
    sines, cosines = sign * np.sin(math.pi * d), sign * np.cos(math.pi * d)
    weight = k ** (s - 1.0)
    # elementwise sums, not a dot product, so no BLAS threads start
    cos_sum = float(np.sum(weight * cosines[:-1]))
    sin_sum = float(np.sum(weight * sines[:-1]))
    # + 0.0 turns a signed zero into 0.0 and leaves every other value as is
    return pref * (float(sines[-1]) * cos_sum + float(cosines[-1]) * sin_sum) + 0.0


def _check_zeta(s: float, finite_x: bool, least_x: float) -> None:
    if not math.isfinite(s) or not finite_x:
        raise RejectedInputError("zeta arguments must be finite")
    if 0.0 <= s <= 1.0:
        raise UnsupportedRegionError(f"zeta(s, x) unsupported for s in [0, 1], got s={s}")
    if s > 1.0 and not least_x > 0.0:
        raise RejectedInputError(f"zeta(s, x) with s > 1 needs x > 0, got x={least_x}")


def hurwitz_zeta(s: float, x: float) -> float:
    """Hurwitz zeta zeta(s, x) on the branches s > 1 and s < 0.

    s > 1 requires x > 0 and uses Euler-Maclaurin summation.  For s < 0, x is
    reduced modulo 1 into (0, 1] and the periodized value is returned, which
    is what the scale-sum catalog needs.  On -4 <= s < 0 the same
    Euler-Maclaurin sum is used (within 4e-14 * max(1, |zeta|)); below -4 its
    direct sum cancels catastrophically, and the trigonometric series of the
    analytic continuation, which converges like k^(s-1), takes over, and
    raises UnsupportedRegionError below s ~ -170, where zeta overflows a
    double.  Both branches return the trivial zeros zeta(-2m, 1) =
    zeta(-2m, 1/2) = 0 exactly.
    """
    _check_zeta(s, math.isfinite(x), x)
    if s > 1.0:
        return _hurwitz_sum_branch(s, x)
    u = x - math.floor(x)
    if u == 0.0:
        u = 1.0
    if s >= _FOURIER_BELOW:
        if s in _TRIVIAL_ZERO_S and (u == 1.0 or u == 0.5):
            return 0.0
        return _hurwitz_sum_branch(s, u)
    return _hurwitz_fourier_sum(s, u)


def hurwitz_zeta_scaled(s: float, x: float, y: float) -> float:
    """y^(-s) zeta(s, x/y), the Hurwitz entry E13: `hurwitz_zeta` at x/y, which
    for s > 1 stays extended (near x/y = 0 the value grows like (x/y)^-s, and
    the scale-sum identity needs both sides' leading terms to cancel to ~1e-8
    absolute), times y^(-s) in extended precision, rounded once.  For s < 0
    the periodized argument {x/y} comes from `core`'s exact split x/y = k + d:
    it is d, or 1 + d for d <= 0, accurate at any |x/y|.  A value past the
    long double is inf, as in the array twin, without numpy's overflow
    warning: y^-s passes it only where -s log y > _POWER_REACH, and for
    s > 1 the sum only where its first term (x/y)^-s does; for s < 0 the
    periodized zeta stays small.  Such points, and for s > 1 those whose
    zeta rounds to 0 or inf, take the twin's value; for s < 0 a zeta of 0
    is a trivial zero, and the value is 0.0 without the twin's sums."""
    if s > 1.0:
        reach = math.exp(-_POWER_REACH / s)  # y and x/y above it keep both inside
        past = y < reach or 0.0 < x < reach * y
    else:
        past = y > 1.0 and -s * math.log(y) > _POWER_REACH
    if not past:
        yd = _LD(y)
        if s > 1.0:
            u = _LD(x) / yd
        else:
            _check_zeta(s, math.isfinite(x), 1.0)  # before the split: fmod(inf, y) raises
            d = lattice_parts(x, y)[1]
            u = d if d > 0.0 else 1.0 + d
        zeta = hurwitz_zeta(s, u)
        if zeta != 0.0 and not math.isinf(zeta):
            return float(yd ** _LD(-s) * _LD(zeta))
        if zeta == 0.0 and s < 0.0:  # a trivial zero, which the twin's sums give as 0.0 too
            return 0.0
    return float(hurwitz_zeta_scaled_array(s, np.array([x]), y)[0])


@np.errstate(over="ignore", invalid="ignore")
def hurwitz_zeta_scaled_array(s: float, xs: np.ndarray, ys) -> np.ndarray:
    """`hurwitz_zeta_scaled` at each x of a float ndarray, with ys one scale
    or a float ndarray aligned with xs, bit for bit: the masked
    Euler-Maclaurin sum, or below s = -4 the trigonometric series per point.
    A value past the largest double is inf, as `float` rounds a longdouble,
    without numpy's overflow warning.  A sum whose double is 0 or inf stays
    a long double and an exact zero stays 0.0, so no value is 0 * inf = nan."""
    yd = _LD(ys)
    if s > 1.0:
        u = xs.astype(_LD) / yd
        _check_zeta(s, np.isfinite(u).all(), float(np.min(u, initial=np.inf)))
    else:
        _check_zeta(s, np.isfinite(xs).all(), 1.0)
        d = lattice_split(xs, ys)[1]
        u = np.where(d > 0.0, d, 1.0 + d)
    if s >= _FOURIER_BELOW:
        acc = _hurwitz_sum_ld(s, u)
        rounded = acc.astype(float)
        zeta = np.where((rounded == 0.0) | np.isinf(rounded), acc, rounded)
        if s in _TRIVIAL_ZERO_S:
            zeta = np.where((u == 1.0) | (u == 0.5), 0.0, zeta)
    else:
        zeta = np.array([_hurwitz_fourier_sum(s, t) for t in u.tolist()], dtype=_LD)
    return np.where(zeta == 0.0, zeta, yd ** _LD(-s) * zeta).astype(float)


# ---------------------------------------------------------------------------
# log |Gamma|
# ---------------------------------------------------------------------------


def log_gamma_abs(t: float) -> float:
    """log |Gamma(t)| for real t away from the poles 0, -1, -2, ...: CPython's
    `math.lgamma` (a Lanczos sum), within 1e-14 * max(1, |log Gamma|) of
    mpmath on (0, 50) and (-30, 0), down to 1e-12 from the poles."""
    if not math.isfinite(t):
        raise RejectedInputError("log_gamma_abs argument must be finite")
    if t <= 0.0 and t == math.floor(t):
        raise PoleError(f"Gamma pole at t={t}")
    return math.lgamma(t)


def log_gamma_abs_array(ts: np.ndarray) -> np.ndarray:
    """`log_gamma_abs` at each t of a 1-D float ndarray: `math.lgamma`
    mapped over it, so equal to the scalar rule bit for bit."""
    if not np.isfinite(ts).all():  # lgamma(+-inf) is inf, without raising
        raise RejectedInputError("log_gamma_abs argument must be finite")
    try:
        return np.fromiter(map(math.lgamma, ts.tolist()), dtype=float, count=ts.size)
    except ValueError:  # math.lgamma raises at every pole: look for them only then
        pole = next(t for t in ts.tolist() if t <= 0.0 and t == math.floor(t))
        raise PoleError(f"Gamma pole at t={pole}") from None
