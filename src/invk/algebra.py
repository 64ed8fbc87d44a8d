"""Convolution algebra on integrable invariant functions.

The product of g and h is

    (g * h)(x, y) = int_0^x g(t,y) h(x-t,y) dt + int_x^y g(t,y) h(x+y-t,y) dt

with oriented integrals, evaluated literally for any real x.  On 0 <= x < y
this is the cyclic convolution of the operands' restrictions to one period,
so it commutes and associates there, and the period integral of the product
factorizes into the product of the period integrals.

Every integrand here evaluates the operands through
`InvariantFunction.values`, so an operand with an array rule costs one call
per refinement round of the quadrature.  The convolution's two terms, at
every point of one `values` call, share those rounds (`integrate_many`).
"""

from __future__ import annotations

import numpy as np

from .catalog import make
from .core import InvariantFunction
from .errors import RejectedInputError
from .quadrature import Vectorized, converged_integral, integrate_many, stall_error


def _require_integrable(f: InvariantFunction, op: str) -> None:
    if not f.integrable_in_x:
        raise RejectedInputError(
            f"{f.name} has a non-integrable singularity and cannot enter {op}"
        )


def convolve(g: InvariantFunction, h: InvariantFunction, tol: float = 1e-10) -> InvariantFunction:
    """The convolution product g * h as an invariant function.

    Panels are split at the operands' singular x-points, both directly (for g)
    and pulled back through t -> x - t and t -> x + y - t (for h).  The
    descriptor's array rule evaluates N points by running their 2N term
    integrals through one `integrate_many`, so every quadrature round calls
    each operand's `values` once; the scalar value is its one-point case.
    Each term equals a lone `integrate` of its integrand bit for bit.  When a
    term misses its tolerance, ConvergenceError names the first such term,
    in point order, and its range.
    """
    if tol <= 0.0:
        raise RejectedInputError("convolution tolerance must be positive")
    _require_integrable(g, "convolution")
    _require_integrable(h, "convolution")
    half = 0.5 * tol
    label = f"convolve({g.name},{h.name})"

    def products(xs: list[float], ys: list[float] | float) -> list[float]:
        """(g * h)(xs[i], y_i), with y_i = ys[i], or ys itself when it is one scale."""
        per_point = isinstance(ys, list)
        jobs, shifts = [], []
        for i, x in enumerate(xs):
            y = ys[i] if per_point else ys
            lo1, hi1 = min(0.0, x), max(0.0, x)
            pts1 = list(g.singular_points(y, lo1, hi1))
            pts1 += [x - s for s in h.singular_points(y, x - hi1, x - lo1)]
            lo2, hi2 = min(x, y), max(x, y)
            pts2 = list(g.singular_points(y, lo2, hi2))
            pts2 += [x + y - s for s in h.singular_points(y, x + y - hi2, x + y - lo2)]
            jobs += ((0.0, x, pts1), (x, y, pts2))
            shifts += (x, x + y)  # h's argument is shift - t in each term
        shifts = np.array(shifts)
        scales = np.repeat(ys, 2) if per_point else None  # the scale of each job

        def batch(ts, owners):
            own = np.repeat(owners, 15)  # the job of each node
            at = ys if scales is None else scales[own]
            return g.values(ts, at) * h.values(shifts[own] - ts, at)

        results = integrate_many(batch, jobs, half)
        for k, ((a, b, _), res) in enumerate(zip(jobs, results)):
            if not res.converged:
                term = "second" if k % 2 else "first"
                raise stall_error(f"{label} {term} term", a, b, res, half)
        return [t1.value + t2.value for t1, t2 in zip(results[::2], results[1::2])]

    def array_value(xs, ys):
        return np.array(products(xs.tolist(), ys.tolist() if isinstance(ys, np.ndarray) else ys))

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
    rule.
    """
    if tol <= 0.0:
        raise RejectedInputError("antiderivative tolerance must be positive")
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
        series_tolerance=tol + 3.0 * f.series_tolerance,
        flags=f.flags,
    )


def geometric_convolve(g: InvariantFunction, a: float, tol: float = 1e-10) -> InvariantFunction:
    """Convolution of g with the exponential entry E5(a) = a^x/(a^y - 1)."""
    return convolve(make("E5", a=a), g, tol)
