"""Adaptive quadrature and the small-scale limit extrapolator.

The integrator runs an embedded 7/15 Gauss-Kronrod pair on each panel (no
panel endpoint is ever sampled, so integrable endpoint singularities such as
log t at 0 are safe), splits panels at caller-listed interior singular
points, and refines the worst panel globally until the summed error estimate
meets the tolerance, or until the tolerance is out of reach: the panels at
the depth limit already exceed it, or every panel left sits at the roundoff
floor of its estimate.  Orientation is handled by sign so that swapping the
endpoints negates the result exactly.

`integrate_many` runs many independent integrals in lockstep.  Each round
evaluates the nodes of every job's next refinement step in one batch: first
those of every initial panel, then those of both halves of each bisection.
This is the batching of `scipy.integrate.quad_vec`, applied across
integrals rather than within one.  Every job keeps its own QUADPACK-style
panel choice and error control (Piessens et al., 1983), so its result is
bit for bit that of a lone `integrate`, which is the one-job case.  The
batch gets the round's nodes as one ndarray and may return an ndarray.  An
integrand wrapped in `Vectorized` receives that array; a scalar integrand is
still accepted and is called node by node.  Panel selection, error control
and the order of every sum are the same either way, so the two forms give
identical results.

A round of at least `_COLUMN_MIN` panels builds its nodes and runs its
Kronrod sums as ndarray columns, one element per panel (`_gk15_columns`);
a narrower round builds them in Python and sums panel by panel (`_gk15`).
Both do the same float operations in the same order, so a panel gets the
same bits whichever round it falls in.
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

# A round of at least this many panels builds its nodes and Kronrod sums as
# ndarray columns.  Measured on a 2-vCPU host (numpy 2.4), a column round
# costs ~55-95 us plus ~1 us a panel, a Python round ~4-6 us a panel; they
# break even at 12-16 panels.
_COLUMN_MIN = 16

# A job whose heap panels all sit at their roundoff floor gives up once its
# error sum exceeds this multiple of tol.  Bisecting such panels changes
# their floor sum, 50 eps times the Kronrod estimate of the integral of |f|,
# only by the change in that estimate, and on panels resolved to roundoff
# that change is far below 2x.  In 1,500 seeded integrals with tolerances
# near the floor, even a margin of 1 left every converging result unchanged.
_FLOOR_MARGIN = 2.0


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


def _gk15(fv: list, h: float) -> tuple[float, float, float]:
    """One Kronrod application from the 15 node values `fv` (in the order of
    `_nodes`) of a panel of half-width h: (integral, error estimate, floor).

    The floor is the estimate's roundoff term 50 eps resabs |h|; the error
    estimate never falls below it.  Straight-line code over the unpacked
    values: the sums run in QUADPACK's order, pair by pair from the
    outermost nodes in, and the power stays Python's float `**`.
    """
    f0, f1, f2, f3, f4, f5, f6, fc, f8, f9, f10, f11, f12, f13, f14 = fv
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g0, g1, g2, g3 = _WG
    p0 = f0 + f14
    p1 = f1 + f13
    p2 = f2 + f12
    p3 = f3 + f11
    p4 = f4 + f10
    p5 = f5 + f9
    p6 = f6 + f8
    resk = w7 * fc + w0 * p0 + w1 * p1 + w2 * p2 + w3 * p3 + w4 * p4 + w5 * p5 + w6 * p6
    resabs = (w7 * abs(fc) + w0 * (abs(f0) + abs(f14)) + w1 * (abs(f1) + abs(f13))
              + w2 * (abs(f2) + abs(f12)) + w3 * (abs(f3) + abs(f11))
              + w4 * (abs(f4) + abs(f10)) + w5 * (abs(f5) + abs(f9)) + w6 * (abs(f6) + abs(f8)))
    resg = g3 * fc + g0 * p1 + g1 * p3 + g2 * p5
    m = 0.5 * resk
    resasc = (w7 * abs(fc - m) + w0 * (abs(f0 - m) + abs(f14 - m))
              + w1 * (abs(f1 - m) + abs(f13 - m)) + w2 * (abs(f2 - m) + abs(f12 - m))
              + w3 * (abs(f3 - m) + abs(f11 - m)) + w4 * (abs(f4 - m) + abs(f10 - m))
              + w5 * (abs(f5 - m) + abs(f9 - m)) + w6 * (abs(f6 - m) + abs(f8 - m)))
    ah = abs(h)
    resasc *= ah
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        scale = (200.0 * err / resasc) ** 1.5
        err = resasc * scale if scale < 1.0 else resasc
    floor = 50.0 * _EPS * resabs * ah
    return resk * h, (floor if floor > err else err), floor


# The 15 abscissae in the order of `_nodes` and the Kronrod weights as a
# column (centre weight first, then the pair weights from the outermost nodes
# in), for the column forms of `_nodes` and `_gk15`.
_X15 = np.array((*(-x for x in _XGK[:7]), 0.0, *_XGK[6::-1]))
_WK_COL = np.array((_WGK[7], *_WGK[:7]))[:, None]
_WG_COL = np.array((_WG[3], *_WG[:3]))[:, None]


def _column_nodes(lefts: list[float], rights: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """`_nodes` as one array expression: the Kronrod nodes of the panels
    [lefts[p], rights[p]] as a flat ndarray, panel after panel, and their
    half-widths h.  c + (-x) h is c - h x exactly, and the centre node is
    c itself, as in `_nodes`."""
    lo, hi = np.array(lefts), np.array(rights)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    ts = c[:, None] + h[:, None] * _X15
    ts[:, 7] = c
    return ts.ravel(), h


def _centre_and_pairs(f: np.ndarray) -> np.ndarray:
    """The rows f[7], f[0] + f[14], f[1] + f[13], ..., f[6] + f[8]."""
    out = np.empty((8, f.shape[1]))
    out[0] = f[7]
    np.add(f[:7], f[14:7:-1], out=out[1:])
    return out


def _weighted_sum(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights[0] rows[0] + weights[1] rows[1] + ..., per column, added left
    to right: `np.add.accumulate` is sequential, unlike `sum` or `@`."""
    return np.add.accumulate(weights * rows)[-1]


def _gk15_columns(fv: np.ndarray, h: np.ndarray) -> tuple[list, list, list]:
    """`_gk15` over the columns of the (15, P) node values `fv` of P panels
    with half-widths h: the lists of their integrals, error estimates and
    floors, bit for bit those of `_gk15` panel by panel.

    Each step is one ndarray operation with `_gk15`'s order of operations;
    only the power `** 1.5` runs per panel, on Python floats, because
    numpy's `power` rounds ~5 % of its inputs differently.
    """
    n = h.size
    with np.errstate(all="ignore"):
        pairs = _centre_and_pairs(np.concatenate((fv, np.abs(fv)), axis=1))  # f, then |f|
        resg = _weighted_sum(pairs[0:7:2, :n], _WG_COL)  # g3 fc + g0 p1 + g1 p3 + g2 p5
        sums = _weighted_sum(pairs, _WK_COL)
        resk, resabs = sums[:n], sums[n:]
        resasc = _weighted_sum(_centre_and_pairs(np.abs(fv - 0.5 * resk)), _WK_COL)
        ah = np.abs(h)
        resasc *= ah
        err = np.abs((resk - resg) * h)
        scale = np.array([t ** 1.5 for t in (200.0 * err / resasc).tolist()])
        scaled = np.where(scale < 1.0, resasc * scale, resasc)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        floor = 50.0 * _EPS * resabs * ah
        est = np.where(floor > err, floor, err)
        return (resk * h).tolist(), est.tolist(), floor.tolist()


def _out_of_reach(heap_err: float, done_err: float, above: int, tol: float) -> bool:
    """True when no bisection can bring a job's error sum down to tol: the
    panels it can no longer split already exceed tol (their error sum only
    grows), or every panel left to split sits at its roundoff floor and the
    sum exceeds `_FLOOR_MARGIN` * tol (QUADPACK reports such a case as
    roundoff, ier = 2)."""
    return done_err > tol or (not above and heap_err + done_err > _FLOOR_MARGIN * tol)


class _Job:
    """The adaptive state of one integral of `integrate_many`: its heap of
    panels, the panels it can no longer split, their error sums, the number
    of heap panels whose error estimate is above its roundoff floor, the
    next serial number and the evaluation count."""

    __slots__ = ("sign", "span", "heap", "done", "heap_err", "done_err", "above", "serial", "evals")

    def __init__(self, lo: float, hi: float, sign: float):
        self.sign = sign
        self.span = hi - lo
        self.heap: list[tuple[float, int, float, float, float, float, int, bool]] = []
        self.done: list[tuple[float, float]] = []
        self.heap_err = 0.0
        self.done_err = 0.0
        self.above = 0
        self.serial = 0
        self.evals = 0

    def step(self, lefts, rights, fv, pos: int, depth: int, tol: float):
        """Push the panels [lefts[i], rights[i]], whose node values start at
        fv[pos], then pop panels until one needs a bisection.  Returns the
        (lefts, rights, depth) of its two halves, or None once the job is
        finished: converged, out of budget, or out of reach of tol."""
        heap = self.heap
        serial = self.serial
        above = self.above
        added = 0.0  # summed before it joins heap_err, so both halves add as e1 + e2
        for left, right in zip(lefts, rights):
            v, e, floor = _gk15(fv[pos:pos + 15], 0.5 * (right - left))
            up = e > floor
            heapq.heappush(heap, (-e, serial, left, right, v, e, depth, up))
            serial += 1
            above += up
            added += e
            pos += 15
        self.serial = serial
        self.evals += 15 * len(lefts)
        heap_err = self.heap_err + added
        done_err = self.done_err
        halves = None
        while heap and heap_err + done_err > tol and serial <= _MAX_PANELS:
            if _out_of_reach(heap_err, done_err, above, tol):
                break
            _, _, left, right, v, e, depth, up = heapq.heappop(heap)
            heap_err -= e
            above -= up
            if depth >= MAX_DEPTH or right - left <= 4.0 * _EPS * max(abs(left), abs(right), self.span):
                self.done.append((v, e))
                done_err += e
                continue
            mid = 0.5 * (left + right)
            halves = [left, mid], [mid, right], depth + 1
            break
        self.heap_err, self.done_err, self.above = heap_err, done_err, above
        return halves

    def push(self, lefts, rights, triples, depth: int) -> None:
        """Push the panels [lefts[i], rights[i]] with their (integral, error
        estimate, floor) taken in turn from the iterator `triples`, as
        `step` does; a `step` with no panels then pops."""
        heap = self.heap
        serial = self.serial
        above = self.above
        added = 0.0
        for left, right, (v, e, floor) in zip(lefts, rights, triples):
            up = e > floor
            heapq.heappush(heap, (-e, serial, left, right, v, e, depth, up))
            serial += 1
            above += up
            added += e
        self.serial, self.above = serial, above
        self.evals += 15 * len(lefts)
        self.heap_err += added

    def result(self, tol: float) -> QuadratureResult:
        heap, done = self.heap, self.done
        value = math.fsum(p[4] for p in heap) + math.fsum(v for v, _ in done)
        err = math.fsum(p[5] for p in heap) + math.fsum(e for _, e in done)
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

    `batch(ts, owners)` gets the round's nodes as a float ndarray, 15 per
    panel, and `owners`, the list of the index in `jobs` of each panel's
    job: panel p covers ts[15p:15p + 15].  It returns the integrand values
    at ts as a float ndarray or a list of floats.  A round of at least
    `_COLUMN_MIN` panels builds its nodes and Kronrod sums as ndarray
    columns; a narrower one panel by panel, with the same bits.

    Every job keeps its own heap, serial numbers, depth and panel budgets,
    error sums and `fsum` order, so its result is the one a lone `integrate`
    of its integrand gives, bit for bit.  A job that cannot meet `tol`
    within the depth and panel budgets returns converged=False and does not
    raise.  So does a job that no bisection can bring to tol, as soon as
    that shows (`_out_of_reach`): the error of its panels at the depth or
    width limit exceeds tol, or tol lies below the roundoff floor of its
    error estimate.  It stops there instead of spending the panel budget.
    """
    if tol <= 0.0 or not math.isfinite(tol):
        raise RejectedInputError("quadrature tolerance must be positive")
    states = []
    pending = []  # (job index, lefts, rights, depth) of the panels to evaluate
    width = 0  # the number of panels in pending
    for a, b, singular in jobs:
        lo, hi, sign = (a, b, 1.0) if a <= b else (b, a, -1.0)
        if a != b:
            cuts = sorted({float(p) for p in singular if lo < p < hi})
            edges = [lo, *cuts, hi]
            pending.append((len(states), edges[:-1], edges[1:], 0))
            width += len(cuts) + 1
        states.append(_Job(lo, hi, sign))
    while pending:
        owners: list[int] = []
        split = []
        if width < _COLUMN_MIN:
            nodes: list[float] = []
            for j, lefts, rights, _ in pending:
                _nodes(lefts, rights, nodes)
                owners += [j] * len(lefts)
            fv = batch(np.array(nodes), owners)
            if isinstance(fv, np.ndarray):
                fv = fv.tolist()
            pos = 0
            for j, lefts, rights, depth in pending:
                halves = states[j].step(lefts, rights, fv, pos, depth, tol)
                pos += 15 * len(lefts)
                if halves is not None:
                    split.append((j, *halves))
        else:
            los: list[float] = []
            his: list[float] = []
            for j, lefts, rights, _ in pending:
                los += lefts
                his += rights
                owners += [j] * len(lefts)
            ts, h = _column_nodes(los, his)
            fv = np.asarray(batch(ts, owners), dtype=float)
            triples = zip(*_gk15_columns(fv.reshape(width, 15).T, h))
            for j, lefts, rights, depth in pending:
                job = states[j]
                job.push(lefts, rights, triples, depth)
                halves = job.step((), (), (), 0, depth, tol)
                if halves is not None:
                    split.append((j, *halves))
        pending = split
        width = 2 * len(split)  # both halves of each bisection
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
    pushed below `tol` within the depth and panel budgets, and stops early
    once no bisection can reach `tol` (see `integrate_many`).
    """
    if isinstance(phi, Vectorized):
        fn = phi.fn
        batch = lambda ts, owners: fn(ts)
    else:
        batch = lambda ts, owners: [phi(t) for t in ts.tolist()]
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
) -> LimitResult:
    """Limit of seq(a) as a -> 0+ along a_k = 2^-k.

    With `smooth` the sequence is assumed to behave like L + c1 a + c2 a^2 +
    ... and is Richardson-accelerated, stopping once two consecutive diagonal
    differences fall below `tol`.  Jump-type sequences (floor-like functions)
    bypass Richardson: their bias is O(a) with an oscillating factor that can
    plateau by accident, so differences are only trusted once a itself is
    below tolerance scale, and the stopping tolerance is doubled.  The
    result is unconverged when no stop comes by k = MAX_LIMIT_STEPS.
    """
    rows: list[list[float]] = []
    prev = math.nan
    small_streak = 0
    for k in range(MAX_LIMIT_STEPS + 1):
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
    return LimitResult(prev, math.inf, MAX_LIMIT_STEPS + 1, False)


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
