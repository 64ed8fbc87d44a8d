"""Convolution algebra on integrable invariant functions.

The product of g and h is

    (g * h)(x, y) = int_0^x g(t,y) h(x-t,y) dt + int_x^y g(t,y) h(x+y-t,y) dt

with oriented integrals.  On 0 <= x < y this is the cyclic convolution of
the operands' restrictions to one period, so it associates there, and the
period integral of the product factorizes into the product of the period
integrals.  The formula commutes at every real x (substitute s = x - t in
the first term and s = x + y - t in the second).  When an operand is
y-periodic in x (`InvariantFunction.periodic`), so is the product: with h
periodic, h(x - t) = h(x0 - t) for x0 = x mod y, and by commutation one
periodic operand is enough.  Such a product is evaluated at x0 in [0, y),
over at most one period; any other is evaluated literally, with integrals
that grow with |x|.

Every integrand here evaluates the operands through
`InvariantFunction.values`, so an operand with an array rule costs one call
per refinement round of the quadrature, a round of Kronrod panels or of
tanh-sinh levels at the operands' singular points.  The convolution's two
terms, at every point of a chunk of at most `_MAX_POINTS`, share those
rounds (`integrate_many`, whose batch names the term of each node), so the
cap bounds the memory of any `values` call.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import make
from .core import InvariantFunction, _no_points
from .errors import RejectedInputError, positive
from .quadrature import Vectorized, converged_integral, integrate_many, stall_error

# The most points whose term integrals run in one `integrate_many`.  Peak
# RSS of the standard suite, on a 2-vCPU x86-64 host: 37.9 MB at 21 points
# (one sample), 40.7 MB at 176, 43.6 MB at 352 and 48.1 MB at 704.
_MAX_POINTS = 176


def _require_integrable(f: InvariantFunction, op: str) -> None:
    if not f.integrable_in_x:
        raise RejectedInputError(
            f"{f.name} has a non-integrable singularity and cannot enter {op}"
        )


def convolve(g: InvariantFunction, h: InvariantFunction, tol: float = 1e-10) -> InvariantFunction:
    """The convolution product g * h as an invariant function.

    When g or h is periodic, each x is first folded into [0, y): x0 =
    fmod(x, y), exact, plus y when x0 < 0, so a point already in [0, y)
    keeps its bits.  (The product is then periodic too, but its descriptor
    leaves `periodic` False, as every combinator's does.)  Panels are split
    at the operands' singular x-points, both directly (for g) and pulled
    back through t -> x - t and t -> x + y - t (for h).  The descriptor's
    array rule runs the 2N term integrals of each chunk of N <= `_MAX_POINTS`
    consecutive points through one `integrate_many`, so every quadrature
    round calls each operand's `values` once; the scalar value is its
    one-point case.  Each term equals a lone `integrate` bit for bit.  When a
    term misses its tolerance, ConvergenceError names the first such term,
    in point order, and its range (at the folded x).
    """
    tol = positive("convolution tolerance", tol)
    _require_integrable(g, "convolution")
    _require_integrable(h, "convolution")
    half = 0.5 * tol
    label = f"convolve({g.name},{h.name})"
    g_points, h_points = (f.singular_points is not _no_points for f in (g, h))
    fold = g.periodic or h.periodic

    def products(xs: list[float], ys: list[float] | float) -> list[float]:
        """(g * h)(xs[i], y_i), with y_i = ys[i], or ys itself when it is one scale."""
        per_point = isinstance(ys, list)
        jobs, shifts = [], []
        for i, x in enumerate(xs):
            y = ys[i] if per_point else ys
            if fold:
                x = math.fmod(x, y)
                if x < 0.0:
                    x += y
            pts1, pts2 = [], []  # an operand without singular points adds none
            lo1, hi1 = min(0.0, x), max(0.0, x)
            lo2, hi2 = min(x, y), max(x, y)
            if g_points:
                pts1 += g.singular_points(y, lo1, hi1)
                pts2 += g.singular_points(y, lo2, hi2)
            if h_points:
                pts1 += [x - s for s in h.singular_points(y, x - hi1, x - lo1)]
                pts2 += [x + y - s for s in h.singular_points(y, x + y - hi2, x + y - lo2)]
            jobs += ((0.0, x, pts1), (x, y, pts2))
            shifts += (x, x + y)  # h's argument is shift - t in each term
        shifts = np.array(shifts)
        scales = np.repeat(ys, 2) if per_point else None  # the scale of each job

        def batch(ts, owners):
            at = ys if scales is None else scales[owners]
            return g.values(ts, at) * h.values(shifts[owners] - ts, at)

        results = integrate_many(batch, jobs, half)
        for k, ((a, b, _), res) in enumerate(zip(jobs, results)):
            if not res.converged:
                term = "second" if k % 2 else "first"
                raise stall_error(f"{label} {term} term", a, b, res, half)
        return [t1.value + t2.value for t1, t2 in zip(results[::2], results[1::2])]

    def array_value(xs, ys):
        xs, ys = xs.tolist(), ys.tolist() if isinstance(ys, np.ndarray) else ys
        cut = isinstance(ys, list)
        return np.array([v for i in range(0, len(xs), _MAX_POINTS) for v in products(
            xs[i:i + _MAX_POINTS], ys[i:i + _MAX_POINTS] if cut else ys)])

    return InvariantFunction(
        name=f"conv({g.name},{h.name})",
        value=lambda x, y: products([x], y)[0],
        array_value=array_value,
        params={"g": g.name, "h": h.name, "tol": tol},
        series_tolerance=tol + g.series_tolerance + h.series_tolerance,
        flags=g.flags | h.flags,
    )


def antiderivative(f: InvariantFunction, tol: float = 1e-10) -> InvariantFunction:
    """F(x, y) = int_y^x f(t,y) dt + (1/y) int_0^y t f(t,y) dt.

    F is again invariant and dF/dx = f, so the descriptor's dx is f's value
    rule, and F has a kink wherever f jumps, so it lists f's singular points.
    """
    tol = positive("antiderivative tolerance", tol)
    _require_integrable(f, "antiderivative")
    half = 0.5 * tol

    def value(x, y):
        lo, hi = min(x, y), max(x, y)
        run = converged_integral(
            Vectorized(lambda ts: f.values(ts, y)),
            y, x, half, f"antiderivative({f.name}) running term",
            f.singular_points(y, lo, hi),
        )
        mean = converged_integral(
            Vectorized(lambda ts: ts * f.values(ts, y)),
            0.0, y, half, f"antiderivative({f.name}) mean term",
            f.singular_points(y, 0.0, y),
        )
        return run + mean / y

    return InvariantFunction(
        name=f"antider({f.name})",
        value=value,
        params={"f": f.name, "tol": tol},
        dx=f.value,
        singular_points=f.singular_points,
        series_tolerance=tol + 3.0 * f.series_tolerance,
        flags=f.flags,
    )


def geometric_convolve(g: InvariantFunction, a: float, tol: float = 1e-10) -> InvariantFunction:
    """Convolution of g with the exponential entry E5(a) = a^x/(a^y - 1)."""
    return convolve(make("E5", a=a), g, tol)
