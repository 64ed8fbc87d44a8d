"""Adaptive quadrature and the small-scale limit extrapolator.

The integrator runs an embedded 7/15 Gauss-Kronrod pair on each panel (no
panel endpoint is ever sampled, so integrable endpoint singularities such as
log t at 0 are safe), splits panels at caller-listed interior singular
points, and refines the worst panel globally until the summed error estimate
meets the tolerance, or until the tolerance is out of reach
(`_out_of_reach`, one rule for both engines below): the panels set aside at
the depth or width limit already exceed it, or every panel left sits at the
roundoff floor of its estimate.  Orientation is handled by sign so that
swapping the endpoints negates the result exactly.

`integrate_many` runs many independent integrals in lockstep.  Each round
evaluates the nodes of every job's next refinement step in one batch: first
those of every initial panel, then those of both halves of each bisection,
or of a tanh-sinh level (below).
This is the batching of `scipy.integrate.quad_vec`, applied across
integrals rather than within one.  Every job keeps its own QUADPACK-style
panel choice and error control (Piessens et al., 1983), so its result is
bit for bit that of a lone `integrate`, which is the one-job case.  The
batch gets the round's nodes as one ndarray and may return an ndarray.  An
integrand wrapped in `Vectorized` receives that array; a scalar integrand is
called node by node, straight from the node list.  Panel selection, error
control and the order of every sum are the same either way, so the two
forms give identical results.

A call decides once, from its job count, how it keeps its panels.  A wide
call, of at least `_TABLE_MIN` jobs, keeps its live panels in one
structure-of-arrays table, in push order: each round builds its nodes as
ndarray columns, each job's pop is a segmented selection over the table,
one panel a job a round, and the round drops the popped rows as it
appends the next round's.  A narrow call, such as a lone `integrate` or a
one-point convolution, keeps a heap per job and builds its panels one by
one in Python.  One Kronrod kernel, `_gk15`, serves both engines: the same
straight-line sums run on the 15 floats of a heap panel or on the 15 rows
of a table round, one column per panel, so a panel gets the same bits,
and a job the same result, either way.

Bisection alone reaches an endpoint singularity slowly: a log kernel takes
about 33 levels per singular edge at tol 1e-10, and |t - c|^-1/2 cannot
get below ~1e-6 within `MAX_DEPTH`.  So a job extrapolates, as QUADPACK's
QAGS and QAGP do (Piessens et al. 1983), in the one loop of
`_Job._level_step`, whose level 0 is plain bisection: it resolves the
panels above the current level, then feeds the sum of all its panels, one
area per level, to Wynn's epsilon algorithm (Wynn 1956; `_Wynn` is
dqelg), and stops once the table's error, with the rounding noise of its
areas (`_node_noise`), is within tol.  A job whose caller listed a
singular point, as a cut or at an end, engages its table (`_Job._engage`)
at its first bisection, as QAGP extrapolates from the start at its
breakpoints; any other job once a bisection takes it to depth `_ENGAGE`
(10), for a singularity no caller listed.  A job that never gets that
deep keeps the bits of plain bisection.  Only the heap code runs levels
(below), extrapolates or sets aside a panel it cannot split: a wide call's
table never holds a job with a listed point, and a job of it leaves the
table when it would engage, or when it pops a panel at the width floor,
too narrow to split.  Once the table is done, those jobs run alone on the
heap code, so lone and lockstep results stay equal, at the cost of the
table rounds of the jobs that left.  An extrapolation that fails QUADPACK's
divergence test (`_diverges`) is dropped for the panel sum, and one that
cannot meet tol hands the job back to plain bisection, keeping the
table's best result once the table has an error of its own.

A job with a listed point does not bisect at all while it can help it:
when its initial panels miss tol, the heap code runs them as levels of the
double-exponential (tanh-sinh) rule (`_Levels`; Takahasi and Mori 1974,
Mori and Sugihara 2001), which takes an endpoint log or algebraic
singularity at a geometric rate.  Each level halves the step in u and
evaluates only its new nodes, whose places are fixed per level (`_DE`), so
a level is one batch shared with the round's other jobs, and a job gives
the same bits alone or in lockstep.  The job settles once the difference
of its last two level sums, with a truncation term and the rounding noise
of its nodes, is within tol.  One that cannot settle (a noise or
truncation term above tol, as at |t - c|^-1/2 with c != 0, a value that is
not finite, differences that stop shrinking, or the last level) takes up
the bisection its first round set out on, with its table engaged at depth
1: its value and estimate are those of the table path, and its
evaluations add the nodes its levels spent.  A job with an initial panel
too narrow for level 0's nodes, next to a listed point a few dozen ulps
from an end, takes up that bisection at once.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConvergenceError, RejectedInputError, positive

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

# A call of at least this many jobs keeps its panels in one table and runs
# every round as ndarray columns.  A table round costs ~0.1-0.3 ms whatever
# its width, a heap round ~5 us a panel.  Timed on both paths, call by call,
# over `verify --all` on a 2-vCPU host (numpy 2.4): the table took 1.2-1.3x
# the heap's time at 22-30 jobs, 0.86x at 60 and 0.52x at 352.
_TABLE_MIN = 40

# A job whose heap panels all sit at their roundoff floor gives up once its
# error sum exceeds this multiple of tol.  Bisecting such panels changes
# their floor sum, 50 eps times the Kronrod estimate of the integral of |f|,
# only by the change in that estimate, and on panels resolved to roundoff
# that change is far below 2x.  In 1,500 seeded integrals with tolerances
# near the floor, even a margin of 1 left every converging result unchanged.
_FLOOR_MARGIN = 2.0

# A job without a listed singular point starts extrapolating
# (`_Job._engage`) once a bisection takes it to this depth.  A wide call's
# table lets none of its jobs get this deep: a job leaves it when its next
# bisection would, as it does when it pops a panel at the width floor
# (`_table_rounds`).  One with a listed point engages at its first
# bisection (`_starts`), when its tanh-sinh levels (`_Levels`) cannot
# settle it.  Over `verify --all --seed 42` (15,660 jobs) every job without
# one but golden `euler` stops by depth 9, while log kernels reach depth
# 26-37 by bisection alone; a job that never gets this deep keeps the bits
# of plain bisection.
_ENGAGE = 10

_OFLOW = 1.7976931348623157e308  # dqelg's "no error estimate yet"


def _de_table(levels: int) -> tuple:
    """The nodes of the double-exponential (tanh-sinh) levels (Takahasi and
    Mori 1974; Mori and Sugihara 2001): t = lo + d or hi - d on a panel of
    half-width `half`, with d = half r, r = 1 - tanh s = 2/(e^(2s) + 1) and
    s = (pi/2) sinh u, over the grid u = k / 2^(L+1) of level L, |u| <= 3.2.
    For each level, the (r, w) of its new nodes u > 0, by increasing u, with
    w = (pi/2) cosh u (1 - tanh^2 s) the weight in u: level 0 takes u = 1/2,
    1, ..., 3, each later level the odd multiples of its step.  u = 0, the
    centre, with r = 1 and w = pi/2, is level 0's own.  Both are formed from
    e^(-2s), so neither cancels.  At u = 3.2, r ~ 4e-17, below the node
    floor of any panel, 128 eps half at least (`_Levels`)."""
    table = []
    for level in range(levels + 1):
        step = 0.5 ** (level + 1)
        us = [k * step for k in range(1, int(3.2 / step) + 1, 1 if level == 0 else 2)]
        rows = []
        for u in us:
            e = math.exp(-math.pi * math.sinh(u))
            rows.append((2.0 * e / (1.0 + e), 0.5 * math.pi * math.cosh(u) * 4.0 * e / (1.0 + e) ** 2))
        table.append(tuple(rows))
    return tuple(table)


# The last tanh-sinh level (`_Levels`), of step 1/64, and the node table.
_DE_LEVELS = 5
_DE = _de_table(_DE_LEVELS)
_DE_W0 = 0.5 * math.pi  # the centre's weight


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


def _gk15(fv, h: float | np.ndarray) -> tuple:
    """One Kronrod application from the 15 node values `fv` (in the order of
    `_nodes`) of a panel of half-width h: (integral, error estimate, floor).

    The floor is the estimate's roundoff term 50 eps resabs |h|; the error
    estimate never falls below it.  Straight-line code over the unpacked
    values: the sums run in QUADPACK's order, pair by pair from the
    outermost nodes in, and its scale (200 err / resasc)^1.5 is q sqrt(q),
    with `sqrt` correctly rounded on every CPU.

    The same code sums one panel of Python floats, in `_heap_rounds`, or
    the columns of (15, P) node values of P panels with an ndarray h, in
    `_table_rounds`, each column bit for bit the panel's own sums.  Only
    the last selects depend on the type.  The column form runs under
    `np.errstate(all="ignore")`, as Python floats run: inf - inf is nan,
    and a column with resasc or err 0 keeps err.
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
    floor = 50.0 * _EPS * resabs * ah
    if isinstance(h, np.ndarray):
        q = 200.0 * err / resasc
        scale = q * np.sqrt(q)
        err = np.where((resasc != 0.0) & (err != 0.0), np.where(scale < 1.0, resasc * scale, resasc), err)
        return resk * h, np.where(floor > err, floor, err), floor
    if resasc != 0.0 and err != 0.0:
        q = 200.0 * err / resasc
        scale = q * math.sqrt(q)
        err = resasc * scale if scale < 1.0 else resasc
    return resk * h, (floor if floor > err else err), floor


# The 15 abscissae in the order of `_nodes`, for its column form.
_X15 = np.array((*(-x for x in _XGK[:7]), 0.0, *_XGK[6::-1]))


def _column_nodes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_nodes` as one array expression: the Kronrod nodes of the panels
    [lo[p], hi[p]] as a flat ndarray, panel after panel, and their
    half-widths h.  c + (-x) h is c - h x exactly, and the centre node is
    c itself, as in `_nodes`."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    ts = c[:, None] + h[:, None] * _X15
    ts[:, 7] = c
    return ts.ravel(), h


def _out_of_reach(heap_err: float, done_err: float, above: int, tol: float) -> bool:
    """True when no bisection can bring a job's error sum down to tol: the
    panels it can no longer split already exceed tol (their error sum only
    grows), or every panel left to split sits at its roundoff floor and the
    sum exceeds `_FLOOR_MARGIN` * tol (QUADPACK reports such a case as
    roundoff, ier = 2).  The one statement of the rule: `_Job._level_step`
    calls it on floats, and `_table_rounds` on arrays, one element per job,
    with a done_err of 0.0, since a job that would set a panel aside leaves
    the table."""
    return (done_err > tol) | ((above == 0) & (heap_err + done_err > _FLOOR_MARGIN * tol))


class _Wynn:
    """Wynn's epsilon algorithm over a job's sequence of level areas, a port
    of QUADPACK's dqelg (Wynn 1956; Piessens et al. 1983).

    `add` appends the next area and returns the table's estimate of the
    limit and its error.  As in QAGP, the table only starts working at its
    third area, and its error is `_OFLOW` (no estimate) until it has three
    earlier results to compare with.  A job extrapolates at most once per
    level, from the level it engages at, 1 at the earliest, to MAX_DEPTH
    (`_Job._extrapolate`), so the table holds at most MAX_DEPTH + 1 = 41
    areas and never reaches dqelg's 50-element limit.
    """

    __slots__ = ("tab", "last3", "calls")

    def __init__(self):
        self.tab = [0.0]  # tab[1:] is dqelg's epstab(1), ..., epstab(n)
        self.last3: list[float] = []
        self.calls = 0

    def add(self, area: float) -> tuple[float, float]:
        e = self.tab
        e.append(area)
        n = num = len(e) - 1
        if n < 3:
            return area, _OFLOW
        self.calls += 1
        result, abserr = area, _OFLOW
        e += (0.0, area)  # epstab(n + 2) = epstab(n)
        e[n] = _OFLOW
        newelm = (n - 1) // 2
        k1 = n
        for i in range(1, newelm + 1):
            res = e[k1 + 2]
            e0, e1, e2 = e[k1 - 2], e[k1 - 1], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPS
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPS
            if err2 <= tol2 and err3 <= tol3:
                # e0, e1 and e2 agree to machine accuracy: converged
                del e[n + 1:]
                return res, max(err2 + err3, 5.0 * _EPS * abs(res))
            e3 = e[k1]
            e[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPS
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # two elements agree: drop the rest of the table
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if abs(ss * e1) <= 1e-4:
                n = i + i - 1  # irregular behaviour: drop the rest of the table
                break
            res = e1 + 1.0 / ss
            e[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if error <= abserr:
                abserr, result = error, res
        # shift the table down to its new length n
        ib = 1 if num % 2 else 2
        for _ in range(newelm + 1):
            e[ib] = e[ib + 2]
            ib += 2
        if num != n:
            e[1:n + 1] = e[num - n + 1:num + 1]
        del e[n + 1:]
        last3 = self.last3
        if self.calls < 4:
            last3.append(result)
            abserr = _OFLOW
        else:
            abserr = abs(result - last3[2]) + abs(result - last3[1]) + abs(result - last3[0])
            last3[:] = last3[1], last3[2], result
        return result, max(abserr, 5.0 * _EPS * abs(result))


def _diverges(result: float, area: float, errsum: float, absarea: float) -> bool:
    """QUADPACK's divergence test (dqagse's ier = 5) on an extrapolated
    result: it is suspect when it is far from the panel sum `area`, or when
    the panels' error sum exceeds |area|, unless the integrand changes sign
    and both are below 1 % of the integral of |f|, `absarea`."""
    if abs(area) < (1.0 - 50.0 * _EPS) * absarea and max(abs(result), abs(area)) <= 0.01 * absarea:
        return False
    return not (area != 0.0 and 0.01 <= result / area <= 100.0) or errsum > abs(area)


def _fsum(values: list[float]) -> float:
    """`math.fsum`, the correctly rounded sum, but where fsum raises: nan
    where the values hold both infinities, as Python floats add (panel
    values that overflow to +inf and -inf), and, where a partial sum
    overflows, 16 times the sum of the values scaled by 1/16, again while
    that overflows too: the correctly rounded sum, or +-inf when the sum
    itself overflows.  The scaling is exact for every value of magnitude
    2^-1018 or more, so only a sum that cancels huge values down to the
    subnormals can lose a bit.  Every panel sum of this module goes
    through it, so none raises; a job whose sum is not finite ends
    unconverged."""
    try:
        return math.fsum(values)
    except ValueError:
        return math.nan
    except OverflowError:
        return 16.0 * _fsum([v / 16.0 for v in values])


def _node_noise(panel) -> float:
    """A bound on the change in a panel's value from rounding its nodes to
    doubles, when the integrand has an integrable singularity of order
    p <= 1 at a panel end, like |t - c|^-p or log|t - c|.  Rounding moves a
    node t by up to eps |t| / 2 and the integrand there by up to
    p |f| eps |t| / (2 d), d >= (1 - x_0) h being the node's distance from
    the end; summed with the Kronrod weights, that is the panel's roundoff
    floor 50 eps resabs h times max|t| / (100 (1 - x_0) h).  Near a
    singular point far from 0 it is far above the floor: in a panel of
    half-width 1e-6 next to t = 0.6 it is ~7e5 floors."""
    _, _, left, right, _, _, _, floor = panel
    return floor * max(abs(left), abs(right)) / (50.0 * (1.0 - _XGK[0]) * (right - left))


class _Levels:
    """The tanh-sinh stage of a job with a listed singular point that missed
    tol on its initial panels: those panels run as double-exponential levels
    (`_DE`), one level a round, each evaluating only the nodes that halve
    the step of the one before.

    A node d from its panel's nearer end is evaluated only if d is at least
    64 eps max(|lo|, |hi|, span), 16 bisection floors: nearer, rounding moves
    the node by more than 1/128 of d, and a lattice entry's own band test
    calls it on its lattice point and returns the value at the point.  After
    level L the job has S_L, the level's step times the weighted values of
    every node so far (one fsum), and its error estimate: |S_L - S_(L-1)|,
    plus the truncation term, 4 |f| d at each panel's two outermost kept
    nodes, which bounds the integral over the d left out for |f| ~ d^-p
    with p <= 3/4 or a log, plus the rounding noise of the nodes, the step
    times |half w f| eps |t| / (2 d) summed over them (a node moves by up to
    eps |t| / 2, and the integrand by |f| / d times that, as `_node_noise`
    prices a panel).  The job settles once the estimate is within tol.

    A panel too narrow for level 0's nodes past the centre, as between a
    listed point a few dozen ulps from an end and that end, would keep only
    its centre, and neither difference nor truncation term would see the
    rest of its integral; a job with such a panel does not run levels at
    all (`fits`), so every panel of one that does has a node off its centre
    from level 0 on.  The job cannot settle when a node value is not
    finite, when the noise plus the least truncation term it could reach,
    4 |f| floor at its outermost nodes (|f| does not fall toward a singular
    end), exceeds tol, when a difference is no smaller than the one before,
    or after level `_DE_LEVELS`; it then goes back to the bisection it had
    set out on (`halves`).
    """

    __slots__ = ("panels", "fits", "halves", "level", "terms", "noise", "outer", "last", "diff", "spent",
                 "took", "result")

    def __init__(self, lefts, rights, span: float, halves):
        self.panels = [(lo, hi, 0.5 * (hi - lo), 64.0 * _EPS * max(abs(lo), abs(hi), span))
                       for lo, hi in zip(lefts, rights)]
        r = _DE[0][0][0]  # level 0's largest node distance, at u = 1/2, per unit half-width
        self.fits = all(half * r >= floor for _, _, half, floor in self.panels)
        self.halves = halves
        self.level = 0
        self.terms: list[float] = []  # half w f of every node so far
        self.noise = 0.0  # the sum of |half w f| |t| / d over them
        self.outer = [(math.inf, 0.0)] * len(self.panels)  # per panel: d and |f| + |f| outermost
        self.last = self.diff = math.inf  # S_(L-1) and |S_(L-1) - S_(L-2)|
        self.spent = 0  # nodes evaluated
        self.took: list = []  # this level's half w and |t| / d per node, and per panel its end
        self.result: tuple[float, float] | None = None

    def nodes(self, out: list[float]) -> None:
        """Append this level's nodes to `out`: per panel, the centre at level
        0, then lo + d and hi - d for each d down to the floor."""
        rows = _DE[self.level]
        hws, qs, ends = [], [], []
        for lo, hi, half, floor in self.panels:
            if not self.level:
                c = 0.5 * (lo + hi)
                out.append(c)
                hws.append(half * _DE_W0)
                qs.append(abs(c) / half)
            d = math.inf
            for r, w in rows:
                dr = half * r
                if dr < floor:
                    break
                d = dr
                a, b = lo + d, hi - d
                out += (a, b)
                hw = half * w
                hws += (hw, hw)
                qs += (abs(a) / d, abs(b) / d)
            ends.append((d, len(hws)))
        self.took = [hws, qs, ends]

    def take(self, fv: list[float], tol: float) -> bool:
        """Fold in this level's node values fv; True once the stage is over,
        with `result` its (value, error estimate) when it settled and None
        when it cannot settle."""
        hws, qs, ends = self.took
        self.spent += len(fv)
        terms = [hw * f for hw, f in zip(hws, fv)]
        if not math.isfinite(sum(terms)):  # also keeps inf - inf out of the fsum below
            return True
        self.terms += terms
        self.noise += sum([abs(p) * q for p, q in zip(terms, qs)])
        outer = self.outer
        for k, (d, end) in enumerate(ends):
            if d < outer[k][0]:
                outer[k] = d, abs(fv[end - 2]) + abs(fv[end - 1])
        step = 0.5 ** (self.level + 1)
        value = step * _fsum(self.terms)
        noise = step * 0.5 * _EPS * self.noise
        if noise + 4.0 * _fsum([p[3] * f for p, (_, f) in zip(self.panels, outer)]) > tol:
            return True
        if self.level:
            diff = abs(value - self.last)
            err = diff + 4.0 * _fsum([d * f for d, f in outer]) + noise
            if err <= tol:
                self.result = value, err
                return True
            if self.level == _DE_LEVELS or not diff < self.diff:
                return True
            self.diff = diff
        self.last = value
        self.level += 1
        return False


class _Job:
    """The adaptive state of one integral: its heap of panels, the panels it
    can no longer split, their error sums, the number of panels left to
    split whose error estimate is above its roundoff floor, and the next
    serial number, which counts its panels: each took 15 evaluations.  A
    panel is the tuple (-estimate, serial, left, right, value, estimate,
    depth, floor), which orders the heap.

    One loop, `_level_step`, runs the job.  Once a bisection takes it to
    depth `engage` (1 or `_ENGAGE`, from `_starts`), it extrapolates
    (`_engage`) and keeps: `wynn`, its epsilon table; `best`, the table's
    best (result, error) so far; `levmax`, the depth from which a panel
    counts as small, or 0 while it bisects plainly; `erlarg`, the error of
    the large panels; `erlast`, the error of the panel it bisected last;
    `extrap`, whether it bisects only large panels; `parked`, the panels it
    sets aside meanwhile; `ktmin`, the number of extrapolations since the
    table's result last improved; and `area_serial`, its next serial number
    when it took its last area.  `spent` counts the nodes its tanh-sinh
    levels evaluated, and `settled` is their (value, error estimate) when
    they settled it (`_heap_rounds`).
    """

    __slots__ = ("sign", "span", "engage", "heap", "done", "heap_err", "done_err", "above", "serial",
                 "wynn", "best", "levmax", "erlarg", "erlast", "extrap", "parked", "ktmin", "area_serial",
                 "spent", "settled")

    def __init__(self, lo: float, hi: float, sign: float, engage: int = _ENGAGE):
        self.sign = sign
        self.span = hi - lo
        self.engage = engage
        self.heap: list[tuple[float, int, float, float, float, float, int, float]] = []
        self.done: list[tuple[float, int, float, float, float, float, int, float]] = []
        self.heap_err = 0.0
        self.done_err = 0.0
        self.above = 0
        self.serial = 0
        self.wynn: _Wynn | None = None
        self.best: tuple[float, float] | None = None
        self.levmax = 0
        self.erlarg = self.erlast = 0.0
        self.extrap = False
        self.parked: list = []
        self.spent = 0
        self.settled: tuple[float, float] | None = None

    def step(self, lefts, rights, sums, depth: int, tol: float):
        """Push the panels [lefts[i], rights[i]] at `depth`, whose Kronrod
        (value, estimate, floor) are sums[i], then pop panels until one
        needs a bisection.  Returns the (lefts, rights, depth) of its two
        halves, or None once the job is finished: converged, out of budget,
        or out of reach of tol."""
        heap = self.heap
        serial = self.serial
        above = self.above
        added = 0.0  # summed before it joins heap_err, so both halves add as e1 + e2
        for left, right, (v, e, floor) in zip(lefts, rights, sums):
            up = e > floor
            heapq.heappush(heap, (-e, serial, left, right, v, e, depth, floor))
            serial += 1
            above += up
            added += e
        self.serial = serial
        self.heap_err += added
        self.above = above
        return self._level_step(added, depth, tol)

    def _engage(self, depth: int, heap_err: float, v: float) -> None:
        """Start extrapolating as the job bisects a panel of value v into
        halves at `depth`: every other panel it keeps is less deep, so all
        of them are large, and the halves are the first small ones.  The
        epsilon table starts from the area at that moment, as QAGP's starts
        from its first."""
        self.wynn = _Wynn()
        self.wynn.add(_fsum([p[4] for p in self._kept()] + [v]))
        self.area_serial = self.serial
        self.levmax = depth
        self.erlarg = heap_err
        self.erlast = 0.0
        self.ktmin = 0

    def _level_step(self, added: float, depth: int, tol: float):
        """The rest of `step`, after the job has pushed its new panels: the
        loop of QUADPACK's QAGP, with a panel's depth as its level
        (Piessens et al. 1983, dqagpe), and plain bisection as its level 0.

        At `levmax` 0 it bisects the panel of largest error (`_bisect`).
        Above it, it does so while that panel is large (less deep than
        `levmax`).  Once the largest is small, it bisects only the large
        ones (`_splits`), in order of error, until their error sum `erlarg`
        is within tol or none is left.  Then it extrapolates
        (`_extrapolate`), makes the small panels large, and starts over.
        At any level it stops once the error sum is not above tol (a NaN
        sum stops it too), the panel budget is spent, no panel is left,
        the tol is `_out_of_reach`, or the table's error is within tol.
        """
        self.erlarg -= self.erlast
        if depth < self.levmax:
            self.erlarg += added
        heap, parked = self.heap, self.parked
        while True:
            heap_err, done_err = self.heap_err, self.done_err
            if (not heap_err + done_err > tol or self.serial > _MAX_PANELS or not (heap or parked)
                    or _out_of_reach(heap_err, done_err, self.above, tol)):
                return None
            if not self.levmax or (not self.extrap and self._splits(heap[0])):
                halves = self._bisect()
                if halves is not None:
                    return halves
                continue
            self.extrap = True
            while heap and self.erlarg > tol:
                if not self._splits(heap[0]):
                    parked.append(heapq.heappop(heap))
                    continue
                halves = self._bisect()
                if halves is not None:
                    return halves
            if not self._extrapolate(tol):
                return None

    def _splits(self, panel) -> bool:
        """Whether an extrapolating job bisects this panel: a large one
        whose estimate is above its roundoff floor.  A panel at its floor
        keeps about the same error summed over its halves, so bisecting it
        cannot bring erlarg down."""
        return panel[6] < self.levmax and panel[5] > panel[7]

    def _bisect(self):
        """Pop the heap's top, the panel of largest error: its halves, or
        None when it can no longer be split and joins the done panels.  A
        job whose halves are the first at depth `engage` starts
        extrapolating."""
        panel = heapq.heappop(self.heap)
        _, _, left, right, _, e, depth, floor = panel
        self.heap_err -= e
        self.above -= e > floor
        if depth >= MAX_DEPTH or right - left <= 4.0 * _EPS * max(abs(left), abs(right), self.span):
            self.done.append(panel)
            self.done_err += e
            self.erlarg -= e
            return None
        self.erlast = e
        if depth + 1 >= self.engage and self.wynn is None:
            self._engage(depth + 1, self.heap_err, panel[4])
        mid = 0.5 * (left + right)
        return [left, mid], [mid, right], depth + 1

    def _kept(self) -> list:
        """The panels the job keeps: on its heap, parked, or done."""
        return self.heap + self.parked + self.done

    def _extrapolate(self, tol: float) -> bool:
        """Append the area, the sum of every panel's value, to the epsilon
        table and make the small panels large; False once the table's error
        is within tol.

        The table's error also counts the rounding noise of the area,
        `_node_noise` summed over the panels: no table resolves its limit
        more finely than its inputs are known.  Once that noise alone
        exceeds tol, or five extrapolations in a row have not improved the
        table's result although its error is below 1e-3 of the panels'
        error sum (QUADPACK's roundoff stop in the table), or the table has
        shrunk to one element (QUADPACK's noext), or the level has reached
        MAX_DEPTH, the job stops extrapolating and goes on by plain
        bisection (`levmax` = 0).  So it does, without a new area, when it
        has bisected no panel since the last one (every panel left sits at
        its floor): the table would take the same area again for a limit.
        """
        plain = self.serial == self.area_serial
        if not plain:
            self.area_serial = self.serial
            errsum = self.heap_err + self.done_err
            kept = self._kept()
            reseps, abseps = self.wynn.add(_fsum([p[4] for p in kept]))
            noise = _fsum([_node_noise(p) for p in kept])
            abseps += noise
            self.ktmin += 1
            best = _OFLOW if self.best is None else self.best[1]
            stalled = self.ktmin > 5 and best < 1e-3 * errsum
            if abseps < best:
                self.ktmin = 0
                self.best = reseps, abseps
                if abseps <= tol:
                    return False
            plain = (stalled or (noise > tol and self.best is not None) or self.levmax >= MAX_DEPTH
                     or (self.wynn.calls and len(self.wynn.tab) == 2))
        self.levmax = 0 if plain else self.levmax + 1
        for p in self.parked:
            heapq.heappush(self.heap, p)
        self.parked.clear()
        self.extrap = False
        self.erlarg = self.heap_err
        return True

    def result(self, tol: float) -> QuadratureResult:
        """One fsum over the panels the job kept, or the table's result when
        its error is the smaller and it passes `_diverges`."""
        if self.settled is not None:
            value, err = self.settled
            return QuadratureResult(self.sign * value, err, 15 * self.serial + self.spent, True)
        kept = self._kept()
        value = _fsum([p[4] for p in kept])
        err = _fsum([p[5] for p in kept])
        if self.best is not None and self.best[1] < err:
            absarea = _fsum([p[7] for p in kept]) / (50.0 * _EPS)
            if not _diverges(self.best[0], value, err, absarea):
                value, err = self.best
        return QuadratureResult(self.sign * value, err, 15 * self.serial + self.spent, err <= tol)


def _starts(jobs: Iterable[tuple[float, float, Iterable[float]]], tol: float) -> list:
    """The (lo, hi, sign, edges, engage) of each job (a, b,
    interior_singularities): [lo, hi] is the range in order, sign its
    orientation, edges the ends of its initial panels, none when a == b,
    and engage the depth of the bisection at which it starts extrapolating.
    A singular point no farther from an end than the bisection floor makes
    no cut, but that end is singular all the same.  A job with a singular
    edge, a cut or such an end, has one on every initial panel, so it
    engages at its first bisection, depth 1, as QAGP extrapolates from the
    start at its breakpoints; any other job at `_ENGAGE`.  A job without
    singular points takes [lo, hi] without a scan."""
    positive("quadrature tolerance", tol)
    starts = []
    for a, b, singular in jobs:
        lo, hi, sign = (a, b, 1.0) if a <= b else (b, a, -1.0)
        if not math.isfinite(hi - lo):  # an end that is inf or nan, or a span past the doubles
            raise RejectedInputError(f"quadrature range [{a}, {b}] must be finite, with a finite length")
        engage = _ENGAGE
        if a == b:
            edges = []
        elif singular := list(singular):
            floor = 4.0 * _EPS * max(abs(lo), abs(hi), hi - lo)
            cuts = sorted({float(p) for p in singular if p - lo > floor and hi - p > floor})
            edges = [lo, *cuts, hi]
            # a point listed at an end itself, as callers list lattice
            # points, needs no scan for the ulps within the floor
            if cuts or lo in singular or hi in singular or any(
                    abs(p - lo) <= floor or abs(hi - p) <= floor for p in singular):
                engage = 1
        else:
            edges = [lo, hi]
        starts.append((lo, hi, sign, edges, engage))
    return starts


def _heap_rounds(batch: Callable[[list[float], list[int], list[int]], Sequence[float]], starts, tol: float):
    """The rounds of a narrow call, and of the jobs a wide call's table
    does not finish (`_table_rounds`): a heap per job, and each round's
    nodes built and summed panel by panel.  `batch` gets the nodes as a
    list, the jobs that own them in order, and the number of nodes of each.

    A job with a listed singular point (`engage` 1) that misses tol on its
    initial panels runs them as tanh-sinh levels (`_Levels`), one a round,
    instead of the bisection `step` sets out on.  When the levels cannot
    settle, it takes up that bisection in the next round, from the state
    its first round left."""
    states = [_Job(lo, hi, sign, engage) for lo, hi, sign, _, engage in starts]
    # per running job: (j, lefts, rights, depth, None) for Kronrod panels, or
    # (j, None, None, None, levels) for its tanh-sinh stage
    pending = [(j, edges[:-1], edges[1:], 0, None) for j, (_, _, _, edges, _) in enumerate(starts) if edges]
    while pending:
        nodes: list[float] = []
        jobs: list[int] = []
        counts: list[int] = []
        for j, lefts, rights, _, levels in pending:
            jobs.append(j)
            if levels is None:
                _nodes(lefts, rights, nodes)
                counts.append(15 * len(lefts))
            else:
                n = len(nodes)
                levels.nodes(nodes)
                counts.append(len(nodes) - n)
        fv = batch(nodes, jobs, counts)
        if isinstance(fv, np.ndarray):
            fv = fv.tolist()
        split = []
        pos = 0
        for (j, lefts, rights, depth, levels), n in zip(pending, counts):
            job = states[j]
            if levels is not None:
                if not levels.take(fv[pos:pos + n], tol):
                    split.append((j, None, None, None, levels))
                elif levels.result is None:
                    job.spent = levels.spent
                    split.append((j, *levels.halves, None))
                else:
                    job.spent, job.settled = levels.spent, levels.result
                pos += n
                continue
            sums = []
            for left, right in zip(lefts, rights):
                sums.append(_gk15(fv[pos:pos + 15], 0.5 * (right - left)))
                pos += 15
            halves = job.step(lefts, rights, sums, depth, tol)
            if halves is None:
                continue
            levels = _Levels(lefts, rights, job.span, halves) if depth == 0 and job.engage == 1 else None
            if levels is not None and levels.fits:
                split.append((j, None, None, None, levels))
            else:
                split.append((j, *halves, None))
        pending = split
    return [job.result(tol) for job in states]


def _table_rounds(batch: Callable[[np.ndarray, np.ndarray], Sequence[float]], starts, tol: float):
    """The rounds of a wide call, with the panels of its jobs that list no
    singular point in one table.

    The table holds the live panels, those on their jobs' heaps, one row
    each, in push order: left, right, value, estimate, roundoff floor,
    depth and job.  Each round drops the rows popped in the round before
    and appends the panels it pushes, so a job's rows run in the order of
    its serial numbers.  Each job's running sums and counts are per-job
    arrays that advance by `_Job.step`'s operations in its order.  A job's
    pop is its row of largest estimate, ties to its first row, as `heapq`
    orders (-estimate, serial).  The bookkeeping runs with numpy's warnings
    off, as Python floats run: inf - inf is nan.

    Every round is one batch of table panels.  A job with a listed point
    (`engage` 1 in `_starts`) never enters the table, so each job the
    table holds starts from its one panel [lo, hi], none when lo == hi.
    After the batch, every running job pops exactly one panel, its top,
    and either bisects it or leaves the table: when its next bisection
    would reach depth `_ENGAGE`, or when the top is at the width floor,
    too narrow to split.  So the table never runs levels, extrapolates or
    keeps a done panel.  Once the table is empty, the jobs with a listed
    point and those that left run from their initial panels in
    `_heap_rounds`, in a lockstep of their own whose batch gets their
    indices in `starts`, and their results replace the table's: each is a
    lone integral, so it runs levels, extrapolates or sets panels aside as
    one does.  The table rounds a job that left took are spent.
    """
    n_jobs = len(starts)
    lo = np.fromiter((s[0] for s in starts), float, n_jobs)
    hi = np.fromiter((s[1] for s in starts), float, n_jobs)
    listed = np.fromiter((s[4] == 1 for s in starts), bool, n_jobs)
    restart = np.flatnonzero(listed).tolist()  # the jobs the heap code runs
    jobs = np.flatnonzero(~listed & (lo != hi))  # the jobs with panels to push, in order
    span = hi - lo
    left, right = lo[jobs], hi[jobs]
    job = jobs  # the job of each panel to push
    depth = np.zeros(job.size, dtype=np.int64)
    heap_err = np.zeros(n_jobs)
    above, serial = np.zeros(n_jobs, dtype=np.int64), np.zeros(n_jobs, dtype=np.int64)
    # left, right, value, est, floor, depth and job of each live panel
    table = [np.empty(0)] * 5 + [np.empty(0, dtype=np.int64)] * 2
    keep = slice(None)  # the rows not popped in the round before
    picked = np.zeros(n_jobs, dtype=bool)
    row_of = np.zeros(n_jobs, dtype=np.int64)
    while jobs.size:
        ts, h = _column_nodes(left, right)
        fv = np.asarray(batch(ts, job.repeat(15)), dtype=float)
        with np.errstate(all="ignore"):
            value, est, floor = _gk15(fv.reshape(job.size, 15).T, h)
            # push: a job's new panels, its initial one or the two halves of
            # a bisection, take its next serials, and their estimates add
            # up in order before they join heap_err
            count = job.size // jobs.size
            added = est.reshape(-1, count).sum(axis=1)
            ups = (est > floor).reshape(-1, count).sum(axis=1)
            table = [np.concatenate((col[keep], new))
                     for col, new in zip(table, (left, right, value, est, floor, depth, job))]
            t_left, t_right, _, t_est, t_floor, t_depth, t_job = table
            heap_err[jobs] += added
            above[jobs] += ups
            serial[jobs] += count
            # pop each running job's top; a running job has no nan estimate
            # on its heap, or its heap_err is nan
            he = heap_err[jobs]
            go = (he > tol) & (serial[jobs] <= _MAX_PANELS) & ~_out_of_reach(he, 0.0, above[jobs], tol)
            jobs = jobs[go]
            picked[:] = False
            picked[jobs] = True
            rows = np.flatnonzero(picked[t_job])
            owner, e = t_job[rows], t_est[rows]
            best = np.full(n_jobs, -np.inf)
            np.maximum.at(best, owner, e)
            hit = e == best[owner]
            rows, owner = rows[hit], owner[hit]
            row_of[owner] = rows
            if rows.size > jobs.size:  # ties: each job's first row, of the smaller serial
                np.minimum.at(row_of, owner, rows)
            top = row_of[jobs]  # in job order
            e = t_est[top]
            heap_err[jobs] -= e
            above[jobs] -= e > t_floor[top]
            keep = np.ones(t_est.size, dtype=bool)
            keep[top] = False
            lo, hi = t_left[top], t_right[top]
            depth = t_depth[top] + 1
            # a job leaves before a bisection takes it to depth _ENGAGE, so
            # no row is deeper than _ENGAGE - 1 and MAX_DEPTH never binds
            # here, and when its top is at the width floor, where a lone job
            # sets the panel aside
            width = np.maximum(np.maximum(np.abs(lo), np.abs(hi)), span[jobs])
            leave = (depth >= _ENGAGE) | (hi - lo <= 4.0 * _EPS * width)
            if leave.any():
                restart += jobs[leave].tolist()
                stay = ~leave
                jobs, lo, hi, depth = jobs[stay], lo[stay], hi[stay], depth[stay]
            job = np.repeat(jobs, 2)
            mid = 0.5 * (lo + hi)
            left = np.column_stack((lo, mid)).ravel()
            right = np.column_stack((mid, hi)).ravel()
            depth = np.repeat(depth, 2)
    # value and error: one fsum over the panels a job kept, or, for a job
    # that kept one panel, its value and estimate plus 0.0, which is that
    # fsum.  Every row is a kept panel but the tops popped in the last
    # round, which belong to jobs that left, whose results are replaced
    _, _, t_value, t_est, _, _, t_job = table
    kept = np.argsort(t_job, kind="stable")
    bounds = np.searchsorted(t_job[kept], np.arange(n_jobs + 1))
    sizes = np.diff(bounds)
    value, err = np.zeros(n_jobs), np.zeros(n_jobs)
    one = kept[bounds[:-1][sizes == 1]]
    value[sizes == 1] = t_value[one] + 0.0
    err[sizes == 1] = t_est[one] + 0.0
    many = np.flatnonzero(sizes > 1)
    values, ests = t_value[kept].tolist(), t_est[kept].tolist()
    for j, a, b in zip(many.tolist(), bounds[many].tolist(), bounds[many + 1].tolist()):
        value[j] = _fsum(values[a:b])
        err[j] = _fsum(ests[a:b])
    value *= [sign for _, _, sign, _, _ in starts]
    out = list(map(QuadratureResult, value.tolist(), err.tolist(), (15 * serial).tolist(),
                   (err <= tol).tolist()))
    if restart:
        restart.sort()
        jobs = np.array(restart)
        restarted = _heap_rounds(lambda nodes, ks, counts: batch(np.array(nodes), jobs[ks].repeat(counts)),
                                 [starts[j] for j in restart], tol)
        for j, res in zip(restart, restarted):
            out[j] = res
    return out


def integrate_many(
    batch: Callable[[np.ndarray, np.ndarray], Sequence[float]],
    jobs: Iterable[tuple[float, float, Iterable[float]]],
    tol: float,
) -> list[QuadratureResult]:
    """Independent adaptive integrals run in lockstep, one batch per round.

    Each job (a, b, interior_singularities) is the oriented integral over
    [a, b] of one integrand, with panels split at its interior singular
    points.  A point no farther from an end than the bisection floor,
    4 eps max(|a|, |b|, |b - a|), makes no cut: a cut there, such as a
    point that rounding pulled back an ulp inside, would make a panel too
    narrow to bisect whose nodes all sit on the singularity.  It marks that
    end singular instead, as listing the end itself does.  A range with an
    end that is not finite, or whose length overflows, raises
    RejectedInputError before any node is evaluated.  The first round
    evaluates the initial panels of every job.  Each later round lets every
    unfinished job pop panels as a lone integral does, until it needs a
    bisection, and then evaluates the halves of all those bisections
    together.

    A job with a listed point, as a cut or at an end, whose initial panels
    miss tol does not bisect them at once: it runs them as tanh-sinh
    levels, one a round, each adding the nodes that halve the step of the
    one before (`_Levels`).  It settles there once the difference of two
    level sums, with a truncation and a rounding-noise term, is within tol.
    When it cannot settle, or when a panel is too narrow for level 0's
    nodes, it bisects and starts extrapolating at its first bisection, and
    its value and estimate are those of that path; its evaluations add the
    nodes its levels spent.  Any other job extrapolates once a bisection
    reaches depth `_ENGAGE` (see the module docstring).

    `batch(ts, owners)` gets the round's nodes as a float ndarray and
    `owners`, an int ndarray aligned with ts that holds, for each node, the
    index in `jobs` of the job it belongs to, in non-decreasing order.  A
    round's nodes are 15 per Kronrod panel, or a tanh-sinh level's, whose
    count is no multiple of 15.  It returns the integrand values at ts as a
    float ndarray or a list of floats.  A call of at least `_TABLE_MIN`
    jobs keeps its live panels in one table, in push order, and builds
    each round's nodes as ndarray columns; a narrower call keeps a heap per
    job and builds them panel by panel.  The choice is made once per call,
    and both give the same bits: one Kronrod kernel, `_gk15`, sums a heap
    panel of floats or a table round's columns with the same operations,
    and a table pop takes a job's first row of largest estimate, where the
    heap takes its smaller serial.  Only the heap code runs tanh-sinh
    levels, extrapolates or sets aside a panel too narrow to split: a wide
    call's table holds only the jobs without a listed point, each from its
    one panel, and each round every running job of it pops one panel and
    bisects it, or leaves the table when that bisection would reach
    `_ENGAGE` or the panel is at the width floor.  After the table's last
    round, the jobs with a listed point and those that left run as lone
    integrals on the heap code, in more rounds of one batch each for all
    of them; a job that left reports only the evaluations of its restart.

    Every job keeps its own panel order, serial numbers, depth and panel
    budgets and error sums, and its result is one `fsum` over the panels it
    kept (`_fsum`, which does not raise where a partial sum overflows), so
    it is the one a lone `integrate` of its integrand gives, bit for bit.
    A job that cannot meet `tol` within the depth and panel budgets returns
    converged=False and does not raise.  So does a job that no bisection
    can bring to tol, as soon as that shows (`_out_of_reach`): the error of
    its panels at the depth or width limit exceeds tol, or tol lies below
    the roundoff floor of its error estimate.  It stops there instead of
    spending the panel budget.
    """
    starts = _starts(jobs, tol)
    if len(starts) >= _TABLE_MIN:
        return _table_rounds(batch, starts, tol)
    return _heap_rounds(lambda nodes, jobs, counts: batch(np.array(nodes), np.array(jobs).repeat(counts)), starts, tol)


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
    bisected panel, or the new nodes of a tanh-sinh level when the caller
    listed a singular point.  A `Vectorized` integrand receives the batch as one
    ndarray; a scalar one is called node by node, straight from the node
    list.  Panel choice, error control and summation do not depend on which
    form is given.

    Points in `interior_singularities` that fall strictly inside the range,
    farther than the bisection floor from its ends, become panel boundaries,
    so the integrand is never evaluated there.  A point at an end, or
    within the floor of one, makes no boundary.  Either way the integral
    runs tanh-sinh levels on its initial panels when they miss tol, and
    extrapolates from its first bisection if the levels cannot settle it
    or a panel is too narrow for them, where one with no listed point
    bisects plainly to depth `_ENGAGE` first.  Only this one-job code runs
    levels, extrapolates or sets aside a panel at the width floor: a wide
    `integrate_many` call runs a job with a listed point, or one that
    reaches `_ENGAGE` or the width floor, alone on it.  Returns
    converged=False (never raises) when the error estimate cannot be pushed
    below `tol` within the depth and panel budgets, and stops early once no
    bisection can reach `tol` (see `integrate_many`).  A range that is not
    finite raises RejectedInputError.
    """
    starts = _starts(((a, b, interior_singularities),), tol)
    if isinstance(phi, Vectorized):
        fn = phi.fn
        return _heap_rounds(lambda nodes, jobs, counts: fn(np.array(nodes)), starts, tol)[0]
    return _heap_rounds(lambda nodes, jobs, counts: list(map(phi, nodes)), starts, tol)[0]


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


def fd_step(y: float) -> float:
    """The step h of `y_partial_fd`'s central difference at scale y > 0."""
    h = _EPS ** (1.0 / 3.0) * max(1.0, abs(y))
    return 0.5 * y if h >= y else h


def y_partial_fd(f, x: float, y: float) -> float:
    """d f / d y at (x, y); analytic rule when present, else central difference."""
    y = positive("y", y)
    if f.dy is not None:
        return f.dy(x, y)
    h = fd_step(y)
    return (f.value(x, y + h) - f.value(x, y - h)) / (2.0 * h)
