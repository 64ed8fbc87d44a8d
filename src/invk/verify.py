"""Property-verification engine.

Every identity the package claims is turned into a seeded, tolerance-checked
report here: the defining scale-sum identity, the summation-exchange rule,
the period-integral and step-difference limits, partial-derivative
identities, parity consequences, the convolution product laws, the Bernoulli
and zeta convolution families, the three golden integrals, and covering
certificates.  Reports are deterministic given (seed, grid, tolerances) and
serialize to a fixed JSON schema.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import traceback
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from . import catalog
from .algebra import convolve
from .core import (
    EPS_SING,
    InvariantFunction,
    _no_points,
    affine_transform,
    step_difference,
    x_derivative,
)
from .covering import CoveringSystem, certificate_report, require_accepted
from .errors import ConvergenceError, RejectedInputError, finite, integer, positive
from .quadrature import (
    Vectorized,
    converged_integral,
    extrapolate_limit,
    fd_step,
    limit_scaled,
    y_partial_fd,
)
from .report import (
    ShiftTable,
    VerificationReport,
    _report,
    _sample_values,
    _worst_index,
    report_sort_key,
)
from .special import ZETA_NEG_TOLERANCE, bernoulli_poly, bernoulli_scaled_array, log_gamma_abs

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GridSpec:
    """Deterministic sampling specification for property checks.

    `x_range` is expressed in multiples of the sampled y.  Every sample
    keeps `EPS_SING` times the evaluation scale from f's singular points.
    """

    seed: int = 42
    x_range: tuple[float, float] = (-3.0, 3.0)
    y_range: tuple[float, float] = (0.25, 4.0)
    samples: int = 64
    n_max: int = 10

    def __post_init__(self):
        integer("seed", self.seed, 0)
        integer("samples", self.samples, 1)
        integer("n_max", self.n_max, 1)
        try:
            (x0, x1), (y0, y1) = self.x_range, self.y_range
        except (TypeError, ValueError):
            raise RejectedInputError("x_range and y_range must be pairs of numbers") from None
        x0, x1 = finite("x_range", x0), finite("x_range", x1)
        y0, y1 = positive("y_range", y0), positive("y_range", y1)
        if not (x0 < x1 and y0 < y1):
            raise RejectedInputError("x_range and y_range must be increasing")


DEFAULT_GRID = GridSpec()


# ---------------------------------------------------------------------------
# seeded sampling with singularity clearance
# ---------------------------------------------------------------------------


@cache
def _invariance_table(n_max: int) -> ShiftTable:
    """The points of an invariance sample: (x, y) itself, then the shifts
    (x + r y, n y) for n = 2, ..., n_max.  The n = 1 shift is (x, y), so
    the first value serves both sides of that term."""
    return ShiftTable([(1, 0, 1)] + [(1, r, n) for n in range(2, n_max + 1) for r in range(n)])


def _exchange_table(m: int, n: int) -> ShiftTable:
    """(x + r m y, n y) for r < n, then (x + r n y, m y) for r < m."""
    return ShiftTable([(1, r * m, n) for r in range(n)] + [(1, r * n, m) for r in range(m)])


# (x, y) and (x + y, y); with (x - y, y) too; (x, y) and (y - x, y)
_LIMIT_TABLE = ShiftTable([(1, 0, 1), (1, 1, 1)])
_Y_DERIVATIVE_TABLE = ShiftTable([(1, 0, 1), (1, -1, 1), (1, 1, 1)])
_PARITY_TABLE = ShiftTable([(1, 0, 1), (-1, 1, 1)])


def _sample_clear(f: InvariantFunction, scales: Iterable[tuple[float, list[float]]]) -> bool:
    """True when each point (x', y'), for each (y', xs) of `scales` and x' of
    xs, lies in f's domain and at least EPS_SING * y' from f's singular
    points at scale y'.  Those are asked for once per (y', xs), over a
    window that covers xs; a locator's points do not depend on the window
    it is given, so a scale may come in more than one piece.  Each point s
    is tested against its neighbours among the sorted x', the nearest below
    and above it: s - x' falls as x' grows, so they are the closest."""
    domain = f.domain
    if domain is not None and not all(domain(x, y) for y, xs in scales for x in xs):
        return False
    for y, xs in scales:
        margin = EPS_SING * y
        w = 4.0 * margin
        xs = sorted(xs)
        for s in f.singular_points(y, xs[0] - w, xs[-1] + w):
            i = bisect_left(xs, s)
            if (i and s - xs[i - 1] < margin) or (i < len(xs) and xs[i] - s < margin):
                return False
    return True


def grid_points(
    f: InvariantFunction, grid: GridSpec, table: ShiftTable
) -> list[tuple[float, float]]:
    """Seeded (x, y) samples for which every point a check touches is clear.

    `table` gives the points (x', y') the check evaluates at a sample; each
    must lie in f's domain and at least EPS_SING * y' away from f's singular
    locus at scale y'.  Candidates are drawn in blocks of `grid.samples`,
    one `uniform` call over (y, x / y) pairs that gives the doubles of
    alternating scalar draws.  Without a domain and singular points every
    candidate is clear, and the first block is the samples; otherwise a
    block's points come from one array expression, and `_sample_clear`
    tests the candidates in draw order, at most `grid.samples * 500` of them.
    """
    rng = np.random.default_rng(grid.seed)
    low, high = (grid.y_range[0], grid.x_range[0]), (grid.y_range[1], grid.x_range[1])
    free = f.domain is None and f.singular_points is _no_points
    pts: list[tuple[float, float]] = []
    left = grid.samples * 500
    while len(pts) < grid.samples and left:
        draws = rng.uniform(low, high, size=(min(grid.samples, left), 2))
        left -= len(draws)
        ys = draws[:, 0]
        xs = draws[:, 1] * ys
        drawn = zip(xs.tolist(), ys.tolist())
        if free:
            pts += drawn
            continue
        px, py = table.arrays(xs, ys)
        for sample, row_x, row_y in zip(drawn, px.tolist(), py.tolist()):
            if _sample_clear(f, [(row_y[i], row_x[i:j]) for i, j in table.spans]):
                pts.append(sample)
                if len(pts) == grid.samples:
                    break
    if len(pts) < grid.samples:
        raise RejectedInputError(
            f"could not place {grid.samples} clear samples for {f.name}"
        )
    return pts


def _period_integral(f: InvariantFunction, y: float, lo: float, hi: float, tol: float) -> float:
    """int_lo^hi f(t, y) dt with panels split at f's singular points."""
    return converged_integral(
        Vectorized(lambda ts: f.values(ts, y)), lo, hi, tol, f"{f.name} at y={y:g}",
        f.singular_points(y, lo, hi),
    )


# ---------------------------------------------------------------------------
# the defining identity and its relatives
# ---------------------------------------------------------------------------


def check_invariance(
    f: InvariantFunction, grid: GridSpec = DEFAULT_GRID, tol: float = 1e-8
) -> VerificationReport:
    """sum_{r<n} f(x + r y, n y) against f(x, y) over the seeded grid.

    Each sample touches n_max (n_max + 1) / 2 points, (x, y) serving as the
    n = 1 term too, and the points of all samples go to `f.values` in one
    call (`_sample_values`).
    """
    pts = grid_points(f, grid, _invariance_table(grid.n_max))
    return _invariance_report(
        "invariance", f, f.params, grid, tol, len(pts), [_invariance_worst(f, grid.n_max, pts)]
    )


def _invariance_worst(f: InvariantFunction, n_max: int, pts: list[tuple[float, float]]) -> tuple:
    """The worst invariance row (err, x, y, n, lhs, rhs) over the samples
    `pts`: one `values` call and one `_worst_index` reduction."""
    # term n sums the n values from n (n - 1) / 2 on; term 1 is row[0:1], the rhs
    terms = [(n * (n - 1) // 2, n) for n in range(1, n_max + 1)]
    vals = _sample_values(f, pts, _invariance_table(n_max))
    lhs = [math.fsum(row[k:k + n]) for row in vals for k, n in terms]
    rhs = [row[0] for row in vals for _ in terms]
    errs = [abs(a - b) for a, b in zip(lhs, rhs)]
    i = _worst_index(errs)
    return (errs[i], *pts[i // n_max], i % n_max + 1, lhs[i], rhs[i])


def _invariance_report(prop, f, params, grid, tol, samples, rows) -> VerificationReport:
    eff_tol = tol + grid.n_max * f.series_tolerance
    flags = set(f.flags)
    if grid.n_max * f.series_tolerance > tol:
        flags.add("truncation-dominated")
    return _report(prop, f, params, samples, rows, eff_tol, flags)


def check_exchange(
    f: InvariantFunction,
    m: int,
    n: int,
    grid: GridSpec = DEFAULT_GRID,
    tol: float = 1e-8,
) -> VerificationReport:
    """sum_{r<n} f(x + r m y, n y) against sum_{r<m} f(x + r n y, m y).

    The shifts reach (mn - min(m,n)) y, where exponential entries grow to
    ~1e17 and a fixed absolute tolerance would only measure float rounding,
    so the recorded error is normalized by 1 + |lhs| + |rhs|.
    """
    m, n = integer("m", m, 1), integer("n", n, 1)
    table = _exchange_table(m, n)
    pts = grid_points(f, grid, table)
    vals = _sample_values(f, pts, table)
    lhs = [math.fsum(row[:n]) for row in vals]
    rhs = [math.fsum(row[n:]) for row in vals]
    errs = [abs(a - b) / (1.0 + abs(a) + abs(b)) for a, b in zip(lhs, rhs)]
    i = _worst_index(errs)
    eff_tol = tol + (m + n) * f.series_tolerance
    return _report(
        "exchange", f, {**f.params, "m": m, "n": n}, len(pts),
        [(errs[i], *pts[i], n, lhs[i], rhs[i])], eff_tol, f.flags,
    )


def _limit_report(prop, f, grid, tol, side, limit) -> VerificationReport:
    """side(x, y) against limit(x) over the seeded grid; samples
    whose limit does not converge are skipped and flagged."""
    pts = grid_points(f, grid, _LIMIT_TABLE)
    rows = []
    flags = set(f.flags)
    for x, y in pts:
        lim = limit(x)
        if not lim.converged:
            flags.add("limit-nonconverged-skipped")
            continue
        lhs = side(x, y)
        rows.append((abs(lhs - lim.value), x, y, 0, lhs, lim.value))
    return _report(prop, f, f.params, len(rows), rows, tol, flags)


def check_integral_limit(
    f: InvariantFunction, grid: GridSpec = DEFAULT_GRID, tol: float = 1e-6
) -> VerificationReport:
    """Period integral int_x^{x+y} f(t, y) dt against lim_{a->0+} a f(x, a)."""
    return _limit_report(
        "integral-limit", f, grid, tol,
        lambda x, y: _period_integral(f, y, x, x + y, 1e-10),
        lambda x: limit_scaled(f, x, tol=min(1e-8, 0.25 * tol)),
    )


def check_step_limit(
    f: InvariantFunction, grid: GridSpec = DEFAULT_GRID, tol: float = 1e-6
) -> VerificationReport:
    """f(x+y, y) - f(x, y) against lim_{a->0+} (f(x+a, a) - f(x, a))."""
    step = step_difference(f)
    return _limit_report(
        "step-limit", f, grid, tol, step,
        lambda x: extrapolate_limit(
            lambda a: step(x, a), tol=min(1e-8, 0.25 * tol), smooth=not f.piecewise
        ),
    )


def _fd_y_partial(f: InvariantFunction, y: float) -> Vectorized:
    """The central difference of `y_partial_fd` at scale y, as an integrand
    over an array of x: two `values` calls, at y + h and y - h, equal to
    the scalar difference bit for bit."""
    h = fd_step(y)
    return Vectorized(lambda ts: (f.values(ts, y + h) - f.values(ts, y - h)) / (2.0 * h))


def check_y_derivative_identities(
    f: InvariantFunction,
    grid: GridSpec = DEFAULT_GRID,
    tol: float = 1e-6,
    use_fd: bool = False,
) -> VerificationReport:
    """Two identities tying f to g = df/dy on smooth entries:

    (a) f(x, y) = int_x^{x-y} g(t, y) dt
    (b) df/dx  = g(x - y, y) - g(x, y)

    df/dx is `x_derivative(f)`, whose flags the report carries.  In fd
    mode (a) integrates `_fd_y_partial`, a panel's nodes at a time; an
    analytic `dy` has no array rule, so that mode integrates node by node.
    """
    fd_mode = use_fd or f.dy is None
    probe = replace(f, dy=None) if fd_mode else f
    dfdx = x_derivative(f)

    g = partial(y_partial_fd, probe)
    pts = grid_points(f, grid, _Y_DERIVATIVE_TABLE)
    rows = []
    flags = set(dfdx.flags)
    if fd_mode:
        flags.add("fd-fallback")
    for x, y in pts:
        fxy = f.value(x, y)
        phi = _fd_y_partial(f, y) if fd_mode else (lambda t: g(t, y))
        quad = converged_integral(phi, x, x - y, 1e-9, f"d/dy {f.name}")
        err_a = abs(fxy - quad)
        err_b = abs(dfdx.value(x, y) - (g(x - y, y) - g(x, y)))
        rows.append((max(err_a, err_b), x, y, 0, fxy, quad))
    params = {**f.params, "mode": "fd" if fd_mode else "analytic"}
    return _report("y-derivative", f, params, len(pts), rows, tol, flags)


def check_parity(
    f: InvariantFunction,
    parity: str,
    grid: GridSpec = DEFAULT_GRID,
    tol: float = 1e-7,
) -> VerificationReport:
    """Consequences of even/odd df/dy: reflection symmetry, from one `values`
    call, plus the half-period (even) or full-period (odd) integral value."""
    if parity not in ("even", "odd"):
        raise RejectedInputError(f"parity must be 'even' or 'odd', got {parity!r}")
    even = parity == "even"
    sign = 1.0 if even else -1.0

    pts = grid_points(f, grid, _PARITY_TABLE)
    rows = []
    for (x, y), (fxy, lhs) in zip(pts, _sample_values(f, pts, _PARITY_TABLE)):
        rhs = sign * fxy
        rows.append((abs(lhs - rhs), x, y, 0, lhs, rhs))
    # int_0^{y/2} f = (1/2) lim a f(0, a) when even, int_0^y f = 0 when odd
    expected = 0.0
    if even:
        lim = limit_scaled(f, 0.0, tol=1e-9)
        if not lim.converged:
            raise ConvergenceError(
                f"parity of {f.name}: lim a f(0, a) did not converge "
                f"(estimate {lim.error_estimate:.3g} after {lim.steps} steps)"
            )
        expected = 0.5 * lim.value
    for y in sorted({y for _, y in pts[:5]}):
        quad = _period_integral(f, y, 0.0, 0.5 * y if even else y, 1e-10)
        rows.append((abs(quad - expected), 0.0, y, 0, quad, expected))
    return _report("parity", f, {**f.params, "parity": parity}, len(pts), rows, tol, f.flags)


# ---------------------------------------------------------------------------
# convolution laws
# ---------------------------------------------------------------------------


def check_product_integral(
    g: InvariantFunction,
    h: InvariantFunction,
    y_list: Sequence[float] = (1.0, 0.7),
    tol: float = 1e-7,
) -> VerificationReport:
    """Period integral of g * h against the product of period integrals."""
    y_list = [positive("y", y) for y in y_list]
    conv = convolve(g, h, tol=1e-9)
    rows = []
    for y in y_list:
        lhs = _period_integral(conv, y, 0.0, y, 1e-9)
        rhs = _period_integral(g, y, 0.0, y, 1e-11) * _period_integral(h, y, 0.0, y, 1e-11)
        rows.append((abs(lhs - rhs), 0.0, y, 0, lhs, rhs))
    return _report("product-integral", f"{g.name}*{h.name}", _pair_params(g, h), len(y_list),
                   rows, tol)


def _pair_params(g: InvariantFunction, h: InvariantFunction) -> dict:
    return {"g": g.name, "g_params": dict(g.params), "h": h.name, "h_params": dict(h.params)}


def check_convolution_invariance(
    g: InvariantFunction,
    h: InvariantFunction,
    grid: GridSpec = DEFAULT_GRID,
    tol: float = 1e-7,
) -> VerificationReport:
    """The convolution product re-enters the defining-identity suite."""
    parts, report = _convolution_invariance_parts(g, h, grid, tol)
    return report([part() for part in parts])


def _convolution_invariance_parts(g, h, grid, tol):
    """`check_convolution_invariance` cut into independent parts: (the
    thunks that give the worst row of each 8 consecutive samples, the
    function that makes the report from their rows in order).  The report
    equals the uncut check's bit for bit: a convolution value does not depend
    on the points beside it, and `_worst_index` over the parts' worst rows in
    order picks the first NaN, else the first maximum, as over all samples."""
    conv = convolve(g, h, tol=1e-9)
    pts = grid_points(conv, grid, _invariance_table(grid.n_max))
    # at the suite's n_max = 6 a part is 168 points, one `convolve` chunk
    parts = [partial(_invariance_worst, conv, grid.n_max, pts[i:i + 8])
             for i in range(0, len(pts), 8)]
    report = partial(_invariance_report, "convolution-invariance", conv, _pair_params(g, h),
                     grid, tol, len(pts))
    return parts, report


def _scaled_bernoulli_entry(m: int) -> InvariantFunction:
    return affine_transform(catalog.make("E2", m=m), a=-1.0 / math.factorial(m), b=0.0, c=1.0)


def check_bernoulli_convolution(
    m: int,
    n: int,
    y_list: Sequence[float] = (1.0, 0.7),
    x_count: int = 11,
    tol: float = 1e-8,
) -> VerificationReport:
    """Convolution of scaled Bernoulli entries against the closed form.

    (-y^(m-1) B_m(x/y)/m!) * (-y^(n-1) B_n(x/y)/n!) should equal
    -y^(m+n-1) B_{m+n}(x/y)/(m+n)! on 0 <= x <= y.
    """
    m, n = integer("m", m, 1), integer("n", n, 1)
    y_list = [positive("y", y) for y in y_list]
    conv = convolve(_scaled_bernoulli_entry(m), _scaled_bernoulli_entry(n), tol=1e-10)
    fac = math.factorial(m + n)
    rows = []
    for y in y_list:
        xs = np.linspace(0.0, y, x_count)
        for x, lhs in zip(xs.tolist(), conv.values(xs, y).tolist()):
            rhs = -(y ** (m + n - 1)) * bernoulli_poly(m + n, x / y) / fac
            rows.append((abs(lhs - rhs), x, y, 0, lhs, rhs))
    samples = len(y_list) * x_count
    return _report("bernoulli-convolution", "E2*E2", {"m": m, "n": n}, samples, rows, tol)


def _bernoulli_identity_integrands(m: int, n: int, x: float) -> tuple[Vectorized, Vectorized]:
    """B_m(x - t) B_n(t) and (x - t)^(m-1) B_n(t) over an array of t, equal
    to their scalar forms with `bernoulli_poly` bit for bit: B_k(t) is
    `bernoulli_scaled_array(k, t, 1.0)`, and (x - t)^(m-1) stays Python's
    float power per node, which numpy's power does not match in the last
    bit."""
    return (
        Vectorized(lambda ts: bernoulli_scaled_array(m, x - ts, 1.0)
                   * bernoulli_scaled_array(n, ts, 1.0)),
        Vectorized(lambda ts: np.array([(x - t) ** (m - 1) for t in ts.tolist()])
                   * bernoulli_scaled_array(n, ts, 1.0)),
    )


def check_bernoulli_integral_identity(
    m: int, n: int, x_count: int = 11, tol: float = 1e-8
) -> VerificationReport:
    """Direct quadrature of the kernel identity

        B_{m+n}(x) = -C(m+n, m) ( int_0^1 B_m(x-t) B_n(t) dt
                                  + m int_x^1 (x-t)^(m-1) B_n(t) dt )

    The integrands (`_bernoulli_identity_integrands`) take a panel's nodes
    as one array.
    """
    m, n = integer("m", m, 1), integer("n", n, 1)
    cmn = math.comb(m + n, m)
    ctx = f"bernoulli-identity m={m} n={n}"
    rows = []
    for x in np.linspace(0.0, 1.0, x_count).tolist():
        cyclic, tail = _bernoulli_identity_integrands(m, n, x)
        i1 = converged_integral(cyclic, 0.0, 1.0, 1e-12, ctx)
        i2 = converged_integral(tail, x, 1.0, 1e-12, ctx)
        lhs = -cmn * (i1 + m * i2)
        rhs = bernoulli_poly(m + n, x)
        rows.append((abs(lhs - rhs), x, 1.0, 0, lhs, rhs))
    return _report("bernoulli-identity", "B_{m+n}", {"m": m, "n": n}, x_count, rows, tol)


def zeta_power_kernel(alpha: float) -> InvariantFunction:
    """The fractional-order kernel y^(alpha-1) zeta(1-alpha, x/y) / Gamma(alpha):
    the catalog entry E13(s = 1 - alpha) scaled by 1/Gamma(alpha), with the
    series tolerance of E13(s < 0) itself.

    For integer alpha this reduces to the scaled Bernoulli entry of the same
    order; the family is closed under convolution with orders adding.
    """
    if not alpha > 1.0:
        raise RejectedInputError(f"kernel order must exceed 1, got alpha={alpha}")
    zeta = catalog.make("E13", s=1.0 - alpha)
    kernel = affine_transform(zeta, a=1.0 / math.exp(log_gamma_abs(alpha)), b=0.0, c=1.0)
    return replace(kernel, name=f"F({alpha:g})", params={"alpha": alpha},
                   series_tolerance=ZETA_NEG_TOLERANCE)


def check_zeta_convolution(
    alpha: float,
    beta: float,
    y: float = 1.0,
    x_samples: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    tol: float = 1e-5,
) -> VerificationReport:
    """Convolution closure of the fractional kernels: F_a * F_b = F_{a+b}.

    Stated without proof for non-integer orders, so this is a numerical
    check; for integer orders it must reproduce the Bernoulli closed form.
    """
    positive("y", y)
    fa = zeta_power_kernel(alpha)
    fb = zeta_power_kernel(beta)
    fab = zeta_power_kernel(alpha + beta)
    conv = convolve(fa, fb, tol=max(1e-10, tol * 1e-2))
    xs = [float(u) * y for u in x_samples]
    rows = []
    for x, lhs in zip(xs, conv.values(np.array(xs), y).tolist()):
        rhs = fab.value(x, y)
        rows.append((abs(lhs - rhs), x, y, 0, lhs, rhs))
    return _report(
        "zeta-convolution",
        f"F({alpha:g})*F({beta:g})",
        {"alpha": alpha, "beta": beta, "y": y},
        len(x_samples),
        rows,
        tol,
    )


# ---------------------------------------------------------------------------
# golden integrals
# ---------------------------------------------------------------------------


def golden_integral(name: str, **params) -> tuple[float, float]:
    """(computed, expected) for the named reference integral.

    euler:          int_0^{pi/2} log sin t dt          = -(pi/2) log 2
    poisson (r):    int_0^pi log(1 - 2 r cos t + r^2) dt = 2 pi log r (r>1), 0 (0<r<1)
    raabe (a):      int_a^{a+1} log Gamma(t) dt        = a (log a - 1) + log sqrt(2 pi)

    Each takes only its own parameter, a finite number > 0 (by default r = 2, a = 1).
    """
    defaults = {"euler": {}, "poisson": {"r": 2.0}, "raabe": {"a": 1.0}}.get(name)
    if defaults is None or not set(params) <= set(defaults):
        raise RejectedInputError(
            f"no integral {name!r} with parameters {sorted(params)}; "
            "options: euler, poisson (r), raabe (a)"
        )
    args = {k: positive(k, params.get(k, v)) for k, v in defaults.items()}
    if name == "euler":
        got = converged_integral(lambda t: math.log(math.sin(t)), 0.0, 0.5 * math.pi, 1e-11, name)
        return got, -0.5 * math.pi * math.log(2.0)
    if name == "poisson":
        r = args["r"]
        if r == 1.0:
            raise RejectedInputError("poisson integral needs r != 1")
        got = converged_integral(
            lambda t: math.log(1.0 - 2.0 * r * math.cos(t) + r * r), 0.0, math.pi, 1e-11, name
        )
        expected = 2.0 * math.pi * math.log(r) if r > 1.0 else 0.0
        return got, expected
    a = args["a"]
    got = converged_integral(lambda t: log_gamma_abs(t), a, a + 1.0, 1e-11, name)
    return got, a * (math.log(a) - 1.0) + _LOG_SQRT_2PI


def check_known_integrals(tol: float = 1e-7) -> VerificationReport:
    """All golden integrals at their reference parameters, one report."""
    cases = [
        ("euler", {}),
        ("poisson", {"r": 2.0}),
        ("poisson", {"r": 0.5}),
        ("raabe", {"a": 1.0}),
        ("raabe", {"a": 2.0}),
        ("raabe", {"a": 0.5}),
    ]
    rows = []
    for name, params in cases:
        value, expected = golden_integral(name, **params)
        arg = next(iter(params.values()), 0.0)
        rows.append((abs(value - expected), arg, 1.0, 0, value, expected))
    worst_case = cases[_worst_index([row[0] for row in rows])][0]
    return _report(
        "known-integrals", "golden", {"cases": len(cases), "worst_case": worst_case},
        len(cases), rows, tol,
    )


# ---------------------------------------------------------------------------
# covering certificates
# ---------------------------------------------------------------------------


def check_covering_certificates(
    system: CoveringSystem,
    f: InvariantFunction,
    grid: GridSpec = DEFAULT_GRID,
    tol: float = 1e-8,
) -> VerificationReport:
    """`certificate_report` over seeded points clear of f's singular points;
    a rejected system raises RejectedInputError."""
    require_accepted(system)
    return certificate_report(system, f, grid_points(f, grid, system.table), tol)


# ---------------------------------------------------------------------------
# the standard suite
# ---------------------------------------------------------------------------

_EXCHANGE_SET = (("E2", {"m": 2}), ("E3a", {}), ("E5", {"a": 2.0}), ("E9", {"r": 0.5}))
_EXCHANGE_PAIRS = ((1, 2), (2, 3), (3, 4), (4, 5), (2, 5))

_SMOOTH_LIMIT_SET = (
    ("E1", {}),
    ("E2", {"m": 1}),
    ("E2", {"m": 2}),
    ("E2", {"m": 3}),
    ("E3a", {}),
    ("E5", {"a": 2.0}),
    ("E9", {"r": 0.5}),
)

_Y_DERIVATIVE_SET = (
    ("E1", {}),
    ("E2", {"m": 2}),
    ("E5", {"a": 2.0}),
    ("E9", {"r": 0.5}),
)

_PRODUCT_PAIRS = (
    (("E1", {}), ("E1", {})),
    (("E5", {"a": 2.0}), ("E1", {})),
    (("E2", {"m": 1}), ("E2", {"m": 1})),
    (("E2", {"m": 1}), ("E9", {"r": 0.5})),
    (("E5", {"a": 2.0}), ("E9", {"r": 0.5})),
)

_CERT_SYSTEM = ((0, 2), (1, 4), (3, 4))
_CERT_FUNCTIONS = (
    ("E5", {"a": 2.0}),
    ("E2", {"m": 2}),
    ("E10", {}),
    ("E11", {}),
)


def default_tolerance(f: InvariantFunction) -> float:
    """The invariance tolerance for f when none is given: 1e-6 for an entry
    whose value is a truncated series, 1e-8 otherwise."""
    return 1e-6 if f.series_tolerance > 0.0 else 1e-8


def _suite_plan(grid: GridSpec) -> list[tuple[list[Callable[[], object]], Callable]]:
    """The standard suite in canonical order, one (parts, report) entry per
    report: `report` makes the report from the results of `parts`, in order.
    A convolution-invariance check is cut into parts of 8 samples; every
    other check is one part."""
    plan: list[tuple[list[Callable[[], object]], Callable]] = []

    def add(check, *args, **kwargs):
        plan.append(([partial(check, *args, **kwargs)], itemgetter(0)))

    for eid, params in catalog.standard_configs():
        f = catalog.make(eid, **params)
        add(check_invariance, f, grid, default_tolerance(f))

    for eid, params in _EXCHANGE_SET:
        f = catalog.make(eid, **params)
        for m, n in _EXCHANGE_PAIRS:
            add(check_exchange, f, m, n, grid, 1e-8)

    probe_grid = replace(grid, samples=9)
    for eid, params in _SMOOTH_LIMIT_SET:
        f = catalog.make(eid, **params)
        add(check_integral_limit, f, probe_grid, 1e-6)
        add(check_step_limit, f, probe_grid, 1e-6)

    for eid, params in _Y_DERIVATIVE_SET:
        f = catalog.make(eid, **params)
        add(check_y_derivative_identities, f, probe_grid, 1e-6)
        add(check_y_derivative_identities, f, probe_grid, 1e-4, use_fd=True)

    add(check_parity, catalog.make("E9", r=0.5), "even", probe_grid, 1e-7)
    add(check_parity, catalog.make("E2", m=1), "odd", probe_grid, 1e-7)
    add(check_parity, catalog.make("E8", r=0.5), "odd", probe_grid, 1e-7)

    conv_grid = replace(grid, n_max=6)
    for (gid, gp), (hid, hp) in _PRODUCT_PAIRS:
        g = catalog.make(gid, **gp)
        h = catalog.make(hid, **hp)
        add(check_product_integral, g, h, (1.0, 0.7), 1e-7)
        plan.append(_convolution_invariance_parts(g, h, conv_grid, 1e-7))

    for m in (1, 2, 3):
        for n in (1, 2, 3):
            add(check_bernoulli_convolution, m, n, (1.0, 0.7), 11, 1e-8)
            add(check_bernoulli_integral_identity, m, n, 11, 1e-8)

    add(check_zeta_convolution, 2.0, 2.0, 1.0, tol=1e-8)
    add(check_zeta_convolution, 1.5, 2.5, 1.0, tol=1e-5)

    add(check_known_integrals, 1e-7)

    system = CoveringSystem(_CERT_SYSTEM)
    cert_grid = replace(grid, samples=9)
    for eid, params in _CERT_FUNCTIONS:
        f = catalog.make(eid, **params)
        add(check_covering_certificates, system, f, cert_grid, 1e-8)
    return plan


def standard_suite(grid: GridSpec = DEFAULT_GRID) -> list[VerificationReport]:
    """Every check the package ships, with pinned tolerances, in canonical order.

    The parts of the checks run in `_run_tasks`, spread over the CPUs this
    process may use; the reports are the same bytes on any number of them.
    """
    plan = _suite_plan(grid)
    results = iter(_run_tasks([part for parts, _ in plan for part in parts]))
    reports = [report([next(results) for _ in parts]) for parts, report in plan]
    reports.sort(key=report_sort_key)
    return reports


# ---------------------------------------------------------------------------
# the suite runner
# ---------------------------------------------------------------------------


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform
    cannot say (there is no `os.sched_getaffinity` on macOS or Windows)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity is not None else 1


def _run_share(tasks: Sequence[Callable[[], object]], first: int, step: int):
    """(results, None) of tasks first, first + step, ... run in order, or
    (the results before it, (index, exception)) at the first that raises."""
    results = []
    for i in range(first, len(tasks), step):
        try:
            results.append(tasks[i]())
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _run_tasks(tasks: Sequence[Callable[[], object]]) -> list:
    """The result of every task, in task order, computed in k shares, one per
    CPU of `_cpus()`: this process runs tasks 0, k, 2k, ... and a forked child
    j runs tasks j, j + k, ..., then pickles its results, or the exception it
    stopped at, to a pipe and leaves with `os._exit`.  Every child is reaped
    before this returns or raises; when this process stops before it has
    read them all, they are killed first.  When tasks raised, the exception
    of the earliest is raised, as a serial run would raise it.
    """
    shares = max(1, min(_cpus(), len(tasks)))
    children = []  # (pid, read end of its pipe)
    read = False
    try:
        for j in range(1, shares):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: run share j, send the outcome, leave at once
                try:
                    os.close(r)
                    done, failure = _run_share(tasks, j, shares)
                    if failure is not None:  # a traceback does not pickle: send its text
                        exc = failure[1]
                        exc.__notes__ = [*getattr(exc, "__notes__", ()),
                                         "".join(traceback.format_exception(exc))]
                    data = pickle.dumps((done, failure), pickle.HIGHEST_PROTOCOL)
                    with os.fdopen(w, "wb") as out:
                        out.write(data)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        outcomes = [_run_share(tasks, 0, shares)]
        for j, (pid, pipe) in enumerate(children, start=1):
            data = pipe.read()
            if not data:
                raise RuntimeError(f"suite share {j} of {shares} (pid {pid}) sent no result")
            outcomes.append(pickle.loads(data))
        read = True
    finally:
        for pid, pipe in children:
            pipe.close()
            if not read:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    results: list = [None] * len(tasks)
    failures = []
    for j, (done, failure) in enumerate(outcomes):
        if failure is None:
            results[j::shares] = done
        else:
            failures.append(failure)
    if failures:
        raise min(failures, key=itemgetter(0))[1]
    return results
