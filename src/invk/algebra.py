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
from itertools import repeat

import numpy as np

from .catalog import make
from .core import InvariantFunction, _no_points
from .errors import RejectedInputError, positive
from .quadrature import Vectorized, converged_integral, integrate_many, stall_error

# The most points whose term integrals run in one `integrate_many`.  Peak
# RSS of the standard suite, on a 2-vCPU x86-64 host: 37.9 MB at 21 points
# (one sample), 40.7 MB at 176, 43.6 MB at 352 and 48.1 MB at 704.
_MAX_POINTS = 176

_TERMS = ("first", "second")


def _require_integrable(f: InvariantFunction, op: str) -> None:
    if not f.integrable_in_x:
        raise RejectedInputError(
            f"{f.name} has a non-integrable singularity and cannot enter {op}"
        )


def _sinh_cosh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S(s), S'(s)) for the sinh of `convolve`'s map: S = (E - 1/E)/2 with
    E(s) = (1 + s/16)^16 in place of e^s, for s > -16.  The change of
    variables is exact for any smooth increasing S whose weight is its exact
    derivative, here S' = (E + 1/E)/(2 (1 + s/16)), and E grows much as e^s
    does over the few units of s a term spans, so the nodes still grade
    geometrically away from the pole.  It takes only IEEE arithmetic, which
    rounds alike on every CPU: numpy's and libm's sinh, cosh and exp take
    other code paths under other CPU dispatch and round otherwise (numpy's
    sinh at a quarter of seeded nodes, libm's at ~1 in 2,000)."""
    p = 1.0 + s * 0.0625
    e = p * p
    for _ in range(3):
        e = e * e
    inv = 1.0 / e
    return 0.5 * (e - inv), 0.5 * (e + inv) / p


def _arsinh(v: np.ndarray) -> np.ndarray:
    """The s with S(s) = v (`_sinh_cosh`), from IEEE arithmetic and square
    roots: E = v + sqrt(v^2 + 1), and s = 16 (E^(1/16) - 1)."""
    root = np.sqrt(v * v + 1.0)
    e = np.where(v >= 0.0, v + root, 1.0 / (root + np.abs(v)))  # no cancellation either side
    for _ in range(4):
        e = np.sqrt(e)
    return 16.0 * (e - 1.0)


def _pole_columns(f: InvariantFunction, scales: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """f's near poles with real parts in [-y, 2y], for each scale y of
    `scales`, as rows (real parts, distances) padded with (inf, 1.0)."""
    lists = [f.near_poles(y, -y, 2.0 * y) for y in scales]
    width = max(map(len, lists), default=0)
    cs, ds = np.full((len(lists), width), np.inf), np.ones((len(lists), width))
    for i, poles in enumerate(lists):
        if poles:
            cs[i, :len(poles)], ds[i, :len(poles)] = zip(*poles)
    return cs, ds


def _sinh_pieces(g: InvariantFunction, h: InvariantFunction, lo: np.ndarray, hi: np.ndarray,
                 shift: np.ndarray, scale: np.ndarray):
    """The pieces of the terms g(t) h(shift - t) over [lo, hi] (float
    ndarrays, one element per term, lo <= hi <= lo + scale, within
    [0, scale]), each to be integrated in s with t = c + d S(s) about the
    pole c + i d (`_sinh_cosh`): (term, a, b, c, d, share) per piece, in
    term order, with share the number of pieces of its term.

    The candidates are g's near poles and h's pulled back through
    t -> shift - t, of real part in [-y, 2y] of each operand's argument.
    Each end of a term takes the candidate of real part nearest to it, the
    first listed on a tie.  When both ends take the same pole, the term is
    one piece about it; else it is cut at its midpoint, and each half is
    mapped about its end's pole.  A term without candidates is one piece
    about lo with d = hi - lo, or 1 when that is 0: the map is exact for
    any d > 0."""
    index: dict[float, int] = {}
    which = np.array([index.setdefault(y, len(index)) for y in scale.tolist()])
    gc, gd = _pole_columns(g, list(index))
    hc, hd = _pole_columns(h, list(index))
    span = hi - lo
    cs = np.concatenate((lo[:, None], gc[which], shift[:, None] - hc[which]), axis=1)
    ds = np.concatenate((np.where(span > 0.0, span, 1.0)[:, None], gd[which], hd[which]), axis=1)
    rows = np.arange(lo.size)
    # the first column, the fallback, is taken only where no pole is listed
    ends = []
    for end in (lo, hi):
        gap = np.abs(cs - end[:, None])
        gap[:, 0] = np.inf
        k = np.argmin(gap, axis=1)
        ends.append((cs[rows, k], ds[rows, k]))
    (c_lo, d_lo), (c_hi, d_hi) = ends
    cut = c_lo != c_hi  # both ends take the first column of a real part they share
    share = 1 + cut
    term = np.repeat(rows, share)
    a, b, c, d = lo[term], hi[term], c_lo[term], d_lo[term]
    first = np.cumsum(share)[cut] - 2  # the first piece of each cut term
    mid = 0.5 * (lo[cut] + hi[cut])
    b[first] = mid
    a[first + 1], c[first + 1], d[first + 1] = mid, c_hi[cut], d_hi[cut]
    return term, a, b, c, d, share[term]


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

    A folded product whose operands list near poles (`near_poles`, as E7,
    E8 and E9 do) and no singular points integrates each term in the
    variable s of t = c + d S(s) about a pole c + i d, g's or h's pulled
    back through t -> shift - t: the sinh transformation of Johnston and
    Elliott (2005), with S a sinh built from IEEE arithmetic
    (`_sinh_cosh`).  The integrand becomes g(t) h(shift - t) d S'(s), smooth
    on the scale of s, where in t it peaks within d of c and panels crowd
    there.  The map is exact for any d > 0, so d sets only the speed.
    Every term of such a product has a pole at an end (at the x-end for h's
    lattice poles, at 0 or y for g's); it is cut at its midpoint when the
    pole nearest its far end is another one, such as the next lattice pole
    just past that end, and each half is mapped about the pole nearest its
    own end (`_sinh_pieces`).  Each piece is one job, so a point's value is
    still one lockstep of jobs that each equal a lone `integrate`.  The
    pieces of a term share its tolerance, tol/2: each integrates twice its
    integrand at tol/2 and the term is half their sum, which is exact, so
    the declared `series_tolerance` still bounds the error.  Whether a
    product maps is decided here, once; any other integrates in t, with the
    bits it always had.  An operand with singular points lists each term's
    ends, where the poles sit too, so its jobs run tanh-sinh levels whose
    nodes crowd at both ends already: E9*E10 at 30 points takes 8,970 nodes
    that way, and 8,714 mapped, in half as many jobs again.
    """
    tol = positive("convolution tolerance", tol)
    _require_integrable(g, "convolution")
    _require_integrable(h, "convolution")
    half = 0.5 * tol
    label = f"convolve({g.name},{h.name})"
    g_points, h_points = (f.singular_points is not _no_points for f in (g, h))
    fold = g.periodic or h.periodic
    mapped = (fold and not (g_points or h_points)
              and (g.near_poles is not _no_points or h.near_poles is not _no_points))

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
        if mapped:
            return mapped_products(shifts, ys, per_point)
        scales = np.repeat(ys, 2) if per_point else None  # the scale of each job

        def batch(ts, owners):
            at = ys if scales is None else scales[owners]
            return g.values(ts, at) * h.values(shifts[owners] - ts, at)

        results = integrate_many(batch, jobs, half)
        for k, ((a, b, _), res) in enumerate(zip(jobs, results)):
            if not res.converged:
                raise stall_error(f"{label} {_TERMS[k % 2]} term", a, b, res, half)
        return [t1.value + t2.value for t1, t2 in zip(results[::2], results[1::2])]

    def mapped_products(shifts, ys, per_point):
        """`products` of a mapped product from its terms' shifts x and
        x + y at the folded x, each term cut into `_sinh_pieces`."""
        x0 = shifts[0::2]
        y0 = np.array(ys) if per_point else np.full(x0.size, ys)
        lo = np.column_stack((np.zeros(x0.size), x0)).ravel()
        hi = np.column_stack((x0, y0)).ravel()
        term, a, b, c, d, share = _sinh_pieces(g, h, lo, hi, shifts, np.repeat(y0, 2))
        s_a, s_b = _arsinh((a - c) / d).tolist(), _arsinh((b - c) / d).tolist()
        weight = share * d  # a cut term's pieces take twice its integrand
        at_shift = shifts[term]
        scales = y0[term // 2] if per_point else None

        def batch(ss, owners):
            at = ys if scales is None else scales[owners]
            sinh, cosh = _sinh_cosh(ss)
            ts = c[owners] + d[owners] * sinh
            return g.values(ts, at) * h.values(at_shift[owners] - ts, at) * (weight[owners] * cosh)

        results = integrate_many(batch, list(zip(s_a, s_b, repeat(()))), half)
        for k, res in enumerate(results):
            if not res.converged:
                i = int(term[k])
                raise stall_error(f"{label} {_TERMS[i % 2]} term", lo[i], hi[i], res, half)
        firsts = np.flatnonzero(np.diff(term, prepend=-1))
        values = np.add.reduceat(np.array([res.value for res in results]), firsts) / share[firsts]
        return (values[0::2] + values[1::2]).tolist()

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
