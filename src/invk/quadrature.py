"""Adaptive quadrature and the small-scale limit extrapolator.

The integrator runs an embedded 7/15 Gauss-Kronrod pair on each panel (no
panel endpoint is ever sampled, so integrable endpoint singularities such as
log t at 0 are safe), splits panels at caller-listed interior singular
points, and refines the worst panel globally until the summed error estimate
meets the tolerance.  Orientation is handled by sign so that swapping the
endpoints negates the result exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import ConvergenceError, RejectedInputError

_EPS = 2.220446049250313e-16

# 15-point Kronrod extension of 7-point Gauss, positive abscissae first.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)

MAX_DEPTH = 40
_MAX_PANELS = 20_000


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class LimitResult:
    value: float
    error_estimate: float
    steps: int
    converged: bool


def _gk15(phi: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """One Kronrod application on [lo, hi]: (integral, error estimate)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    fc = phi(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    fv = [fc] * 15
    for i in range(7):
        dx = h * _XGK[i]
        f1 = phi(c - dx)
        f2 = phi(c + dx)
        fv[i] = f1
        fv[14 - i] = f2
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += _WG[i // 2] * (f1 + f2)
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for i in range(7):
        resasc += _WGK[i] * (abs(fv[i] - reskh) + abs(fv[14 - i] - reskh))
    value = resk * h
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs * abs(h))
    return value, err


def integrate(
    phi: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    interior_singularities: Iterable[float] = (),
) -> QuadratureResult:
    """Oriented adaptive integral of phi over [a, b].

    Points in `interior_singularities` that fall strictly inside the range
    become panel boundaries, so the integrand is never evaluated there.
    Returns converged=False (never raises) when the error estimate cannot be
    pushed below `tol` within the depth and panel budgets.
    """
    if tol <= 0.0 or not math.isfinite(tol):
        raise RejectedInputError("quadrature tolerance must be positive")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0, True)
    sign = 1.0
    lo, hi = a, b
    if lo > hi:
        lo, hi = hi, lo
        sign = -1.0
    cuts = sorted({float(p) for p in interior_singularities if lo < p < hi})
    edges = [lo, *cuts, hi]

    evals = 0
    heap: list[tuple[float, int, float, float, float, float, int]] = []
    done: list[tuple[float, float]] = []  # (value, err) of unsplittable panels
    serial = 0
    heap_err = 0.0
    done_err = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        v, e = _gk15(phi, left, right)
        evals += 15
        heapq.heappush(heap, (-e, serial, left, right, v, e, 0))
        heap_err += e
        serial += 1

    span = hi - lo
    while heap and heap_err + done_err > tol and serial <= _MAX_PANELS:
        _, _, left, right, v, e, depth = heapq.heappop(heap)
        heap_err -= e
        width = right - left
        if depth >= MAX_DEPTH or width <= 4.0 * _EPS * max(abs(left), abs(right), span):
            done.append((v, e))
            done_err += e
            continue
        mid = 0.5 * (left + right)
        v1, e1 = _gk15(phi, left, mid)
        v2, e2 = _gk15(phi, mid, right)
        evals += 30
        heapq.heappush(heap, (-e1, serial, left, mid, v1, e1, depth + 1))
        serial += 1
        heapq.heappush(heap, (-e2, serial, mid, right, v2, e2, depth + 1))
        serial += 1
        heap_err += e1 + e2

    value = math.fsum(v for _, _, _, _, v, _, _ in heap) + math.fsum(v for v, _ in done)
    err = math.fsum(e for _, _, _, _, _, e, _ in heap) + math.fsum(e for _, e in done)
    return QuadratureResult(sign * value, err, evals, err <= tol)


def converged_integral(phi, a, b, tol, context, interior_singularities=()) -> float:
    """The value of `integrate`, raising ConvergenceError (naming `context` and
    the range) when the error estimate misses `tol`."""
    res = integrate(phi, a, b, tol=tol, interior_singularities=interior_singularities)
    if not res.converged:
        raise ConvergenceError(
            f"{context}: quadrature stalled on [{a:g}, {b:g}] "
            f"(estimate {res.error_estimate:.3g} > tol {tol:.3g})"
        )
    return res.value


# ---------------------------------------------------------------------------
# limits along a_k = 2^-k
# ---------------------------------------------------------------------------

MAX_LIMIT_STEPS = 48
_RICHARDSON_COLS = 8


def extrapolate_limit(
    seq: Callable[[float], float],
    tol: float = 1e-8,
    smooth: bool = True,
    max_steps: int = MAX_LIMIT_STEPS,
) -> LimitResult:
    """Limit of seq(a) as a -> 0+ along a_k = 2^-k.

    With `smooth` the sequence is assumed to behave like L + c1 a + c2 a^2 +
    ... and is Richardson-accelerated, stopping once two consecutive diagonal
    differences fall below `tol`.  Jump-type sequences (floor-like functions)
    bypass Richardson: their bias is O(a) with an oscillating factor that can
    plateau by accident, so differences are only trusted once a itself is
    below tolerance scale, and the stopping tolerance is doubled.
    """
    rows: list[list[float]] = []
    prev = math.nan
    small_streak = 0
    for k in range(max_steps + 1):
        a = 2.0 ** (-k)
        v = seq(a)
        if not math.isfinite(v):
            return LimitResult(prev, math.inf, k + 1, False)
        if smooth:
            row = [v]
            if rows:
                last = rows[-1]
                for j in range(1, min(len(last) + 1, _RICHARDSON_COLS + 1)):
                    mult = 2.0 ** j
                    row.append((mult * row[j - 1] - last[j - 1]) / (mult - 1.0))
            rows.append(row)
            if len(rows) > 2:
                rows.pop(0)
            diag = row[-1]
        else:
            diag = v
        if k >= 1:
            delta = abs(diag - prev)
            if smooth:
                small_streak = small_streak + 1 if delta < tol else 0
                if small_streak >= 2:
                    return LimitResult(diag, delta, k + 1, True)
            elif a <= tol * max(1.0, abs(diag)) and delta < 2.0 * tol:
                return LimitResult(diag, delta, k + 1, True)
        prev = diag
    return LimitResult(prev, math.inf, max_steps + 1, False)


def limit_scaled(f, x: float, tol: float = 1e-8) -> LimitResult:
    """lim_{a->0+} a * f(x, a) for an invariant-function descriptor."""
    return extrapolate_limit(lambda a: a * f.value(x, a), tol, smooth=not f.piecewise)


def y_partial_fd(f, x: float, y: float) -> float:
    """d f / d y at (x, y); analytic rule when present, else central difference."""
    if y <= 0.0:
        raise RejectedInputError("y must be positive")
    if f.dy is not None:
        return f.dy(x, y)
    h = _EPS ** (1.0 / 3.0) * max(1.0, abs(y))
    if h >= y:
        h = 0.5 * y
    return (f.value(x, y + h) - f.value(x, y - h)) / (2.0 * h)
