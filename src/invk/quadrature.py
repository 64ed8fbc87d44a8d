"""Adaptive quadrature and the small-scale limit extrapolator.

The integrator runs an embedded 7/15 Gauss-Kronrod pair on each panel (no
panel endpoint is ever sampled, so integrable endpoint singularities such as
log t at 0 are safe), splits panels at caller-listed interior singular
points, and refines the worst panel globally until the summed error estimate
meets the tolerance.  Orientation is handled by sign so that swapping the
endpoints negates the result exactly.

`integrate_many` runs many independent integrals in lockstep.  Each round
evaluates the nodes of every job's next refinement step in one batch: first
those of every initial panel, then those of both halves of each bisection.
This is the batching of `scipy.integrate.quad_vec`, applied across
integrals rather than within one.  Every job keeps its own QUADPACK-style
panel choice and error control (Piessens et al., 1983), so its result is
bit for bit that of a lone `integrate`, which is the one-job case.  An
integrand wrapped in `Vectorized` receives a batch as one ndarray; a scalar
integrand is still accepted and is called node by node.  Panel selection,
error control and the order of every sum are the same either way, so the
two forms give identical results.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

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


@dataclass(frozen=True)
class Vectorized:
    """Marks an integrand that takes an ndarray of nodes and returns their
    values as one array, so `integrate` evaluates a refinement step in one call."""

    fn: Callable[[np.ndarray], np.ndarray]


def _nodes(lefts: list[float], rights: list[float], out: list[float]) -> None:
    """Append the 15 Kronrod nodes of each panel [lo, hi] to `out`, panel
    after panel, as c - h x_0, ..., c - h x_6, c, c + h x_6, ..., c + h x_0."""
    x0, x1, x2, x3, x4, x5, x6 = _XGK[:7]
    for lo, hi in zip(lefts, rights):
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        d0, d1, d2, d3, d4, d5, d6 = h * x0, h * x1, h * x2, h * x3, h * x4, h * x5, h * x6
        out += (c - d0, c - d1, c - d2, c - d3, c - d4, c - d5, c - d6, c,
                c + d6, c + d5, c + d4, c + d3, c + d2, c + d1, c + d0)


def _gk15(fv: list, h: float) -> tuple[float, float]:
    """One Kronrod application from the 15 node values `fv` (in the order of
    `_nodes`) of a panel of half-width h: (integral, error estimate)."""
    fc = fv[7]
    left, right = fv[:7], fv[14:7:-1]
    pairs = [f1 + f2 for f1, f2 in zip(left, right)]
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    for w, f1, f2, p in zip(_WGK, left, right, pairs):
        resk += w * p
        resabs += w * (abs(f1) + abs(f2))
    resg = _WG[3] * fc + _WG[0] * pairs[1] + _WG[1] * pairs[3] + _WG[2] * pairs[5]
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for w, f1, f2 in zip(_WGK, left, right):
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    value = resk * h
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs * abs(h))
    return value, err


class _Job:
    """The adaptive state of one integral of `integrate_many`: its heap of
    panels, the panels it can no longer split, their error sums, the next
    serial number and the evaluation count."""

    __slots__ = ("sign", "span", "heap", "done", "heap_err", "done_err", "serial", "evals")

    def __init__(self, lo: float, hi: float, sign: float):
        self.sign = sign
        self.span = hi - lo
        self.heap: list[tuple[float, int, float, float, float, float, int]] = []
        self.done: list[tuple[float, float]] = []
        self.heap_err = 0.0
        self.done_err = 0.0
        self.serial = 0
        self.evals = 0

    def step(self, lefts, rights, fv, pos: int, depth: int, tol: float):
        """Push the panels [lefts[i], rights[i]], whose node values start at
        fv[pos], then pop panels until one needs a bisection.  Returns the
        (lefts, rights, depth) of its two halves, or None once the job is
        finished."""
        heap = self.heap
        serial = self.serial
        added = 0.0  # summed before it joins heap_err, so both halves add as e1 + e2
        for left, right in zip(lefts, rights):
            v, e = _gk15(fv[pos:pos + 15], 0.5 * (right - left))
            heapq.heappush(heap, (-e, serial, left, right, v, e, depth))
            serial += 1
            added += e
            pos += 15
        self.serial = serial
        self.evals += 15 * len(lefts)
        heap_err = self.heap_err + added
        done_err = self.done_err
        halves = None
        while heap and heap_err + done_err > tol and serial <= _MAX_PANELS:
            _, _, left, right, v, e, depth = heapq.heappop(heap)
            heap_err -= e
            if depth >= MAX_DEPTH or right - left <= 4.0 * _EPS * max(abs(left), abs(right), self.span):
                self.done.append((v, e))
                done_err += e
                continue
            mid = 0.5 * (left + right)
            halves = [left, mid], [mid, right], depth + 1
            break
        self.heap_err, self.done_err = heap_err, done_err
        return halves

    def result(self, tol: float) -> QuadratureResult:
        heap, done = self.heap, self.done
        value = math.fsum(v for _, _, _, _, v, _, _ in heap) + math.fsum(v for v, _ in done)
        err = math.fsum(e for _, _, _, _, _, e, _ in heap) + math.fsum(e for _, e in done)
        return QuadratureResult(self.sign * value, err, self.evals, err <= tol)


def integrate_many(
    batch: Callable[[list[float], list[int]], Sequence[float]],
    jobs: Iterable[tuple[float, float, Iterable[float]]],
    tol: float,
) -> list[QuadratureResult]:
    """Independent adaptive integrals run in lockstep, one batch per round.

    Each job (a, b, interior_singularities) is the oriented integral over
    [a, b] of one integrand, with panels split at its interior singular
    points.  The first round evaluates the initial panels of every job.
    Each later round lets every unfinished job pop panels as a lone
    integral does, until it needs a bisection, and then evaluates the
    halves of all those bisections together.

    `batch(ts, owners)` gets the round's nodes as a list of floats, 15 per
    panel, and `owners`, the index in `jobs` of each panel's job: panel p
    covers ts[15p:15p + 15].  It returns the integrand values at ts as a
    list of floats.

    Every job keeps its own heap, serial numbers, depth and panel budgets,
    error sums and `fsum` order, so its result is the one a lone `integrate`
    of its integrand gives, bit for bit.  A job that cannot meet `tol`
    within the depth and panel budgets returns converged=False and does not
    raise.
    """
    if tol <= 0.0 or not math.isfinite(tol):
        raise RejectedInputError("quadrature tolerance must be positive")
    states = []
    pending = []  # (job index, lefts, rights, depth) of the panels to evaluate
    for a, b, singular in jobs:
        lo, hi, sign = (a, b, 1.0) if a <= b else (b, a, -1.0)
        if a != b:
            cuts = sorted({float(p) for p in singular if lo < p < hi})
            edges = [lo, *cuts, hi]
            pending.append((len(states), edges[:-1], edges[1:], 0))
        states.append(_Job(lo, hi, sign))
    while pending:
        nodes: list[float] = []
        owners: list[int] = []
        for j, lefts, rights, _ in pending:
            _nodes(lefts, rights, nodes)
            owners += [j] * len(lefts)
        fv = batch(nodes, owners)
        pos = 0
        split = []
        for j, lefts, rights, depth in pending:
            halves = states[j].step(lefts, rights, fv, pos, depth, tol)
            pos += 15 * len(lefts)
            if halves is not None:
                split.append((j, *halves))
        pending = split
    return [job.result(tol) for job in states]


def integrate(
    phi: Callable[[float], float] | Vectorized,
    a: float,
    b: float,
    tol: float = 1e-10,
    interior_singularities: Iterable[float] = (),
) -> QuadratureResult:
    """Oriented adaptive integral of phi over [a, b]: `integrate_many` with one job.

    `phi` is either a scalar function of one float or a `Vectorized`
    integrand.  Each refinement step makes one batch of nodes: first the 15
    nodes of every initial panel, then the 30 nodes of the two halves of the
    bisected panel.  A `Vectorized` integrand receives the batch as one
    ndarray; a scalar one is called node by node.  Panel choice, error
    control and summation do not depend on which form is given.

    Points in `interior_singularities` that fall strictly inside the range
    become panel boundaries, so the integrand is never evaluated there.
    Returns converged=False (never raises) when the error estimate cannot be
    pushed below `tol` within the depth and panel budgets.
    """
    if isinstance(phi, Vectorized):
        fn = phi.fn
        batch = lambda ts, owners: fn(np.array(ts)).tolist()
    else:
        batch = lambda ts, owners: [phi(t) for t in ts]
    return integrate_many(batch, ((a, b, interior_singularities),), tol)[0]


def stall_error(context: str, a: float, b: float, res: QuadratureResult, tol: float) -> ConvergenceError:
    """The error that reports an unconverged integral over [a, b]."""
    return ConvergenceError(
        f"{context}: quadrature stalled on [{a:g}, {b:g}] "
        f"(estimate {res.error_estimate:.3g} > tol {tol:.3g})"
    )


def converged_integral(phi, a, b, tol, context, interior_singularities=()) -> float:
    """The value of `integrate`, raising ConvergenceError (naming `context` and
    the range) when the error estimate misses `tol`."""
    res = integrate(phi, a, b, tol=tol, interior_singularities=interior_singularities)
    if not res.converged:
        raise stall_error(context, a, b, res, tol)
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
