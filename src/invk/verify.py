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
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

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
from .errors import ConvergenceError, RejectedInputError
from .quadrature import (
    Vectorized,
    converged_integral,
    extrapolate_limit,
    limit_scaled,
    y_partial_fd,
)
from .report import VerificationReport, _report, _Worst, report_sort_key
from .special import ZETA_NEG_TOLERANCE, bernoulli_poly, log_gamma_abs

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
        if self.seed < 0:
            raise RejectedInputError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.samples < 1 or self.n_max < 1:
            raise RejectedInputError("samples and n_max must be >= 1")
        if not (self.x_range[0] < self.x_range[1]):
            raise RejectedInputError("x_range must be non-degenerate")
        if not (0.0 < self.y_range[0] < self.y_range[1]):
            raise RejectedInputError("y_range must be positive and non-degenerate")


DEFAULT_GRID = GridSpec()


# ---------------------------------------------------------------------------
# seeded sampling with singularity clearance
# ---------------------------------------------------------------------------


def _sample_clear(f: InvariantFunction, needed: Iterable[tuple[float, float]]) -> bool:
    """True when every (x', y') of `needed` lies in f's domain and at least
    EPS_SING * y' from f's singular points at scale y'.  Those are asked for
    once per scale, over a window that covers every x' of that scale; a
    locator's points do not depend on the window it is given.  Each x' is
    tested against its neighbours among the sorted points, the nearest
    below and above it: x' - s falls as s grows, so they are the closest."""
    domain = f.domain
    if domain is not None and not all(domain(x, y) for x, y in needed):
        return False
    by_scale: dict[float, list[float]] = {}
    for x, y in needed:
        by_scale.setdefault(y, []).append(x)
    for y, xs in by_scale.items():
        margin = EPS_SING * y
        w = 4.0 * margin
        near = sorted(f.singular_points(y, min(xs) - w, max(xs) + w))
        for x in xs if near else ():
            i = bisect_left(near, x)
            if (i and x - near[i - 1] < margin) or (i < len(near) and near[i] - x < margin):
                return False
    return True


def grid_points(
    f: InvariantFunction,
    grid: GridSpec,
    eval_points: Optional[Callable[[float, float], Iterable[tuple[float, float]]]] = None,
) -> list[tuple[float, float]]:
    """Seeded (x, y) samples for which every point a check touches is clear.

    `eval_points(x, y)` enumerates the (x', y') pairs the check will evaluate;
    each must lie in f's domain and at least EPS_SING * y' away from f's
    singular locus at scale y'.  Without a domain and singular points every
    attempt is clear, and its points are not built.
    """
    rng = np.random.default_rng(grid.seed)
    pts: list[tuple[float, float]] = []
    attempts = 0
    cap = grid.samples * 500
    free = f.domain is None and f.singular_points is _no_points
    while len(pts) < grid.samples and attempts < cap:
        attempts += 1
        y = float(rng.uniform(*grid.y_range))
        x = float(rng.uniform(*grid.x_range)) * y
        if free or _sample_clear(f, eval_points(x, y) if eval_points else ((x, y),)):
            pts.append((x, y))
    if len(pts) < grid.samples:
        raise RejectedInputError(
            f"could not place {grid.samples} clear samples for {f.name}"
        )
    return pts


def _invariance_eval_points(grid: GridSpec):
    shifts = [(r, n) for n in range(1, grid.n_max + 1) for r in range(n)]

    def points(x, y):
        return [(x, y)] + [(x + r * y, n * y) for r, n in shifts]

    return points


# Consecutive samples of a check share one `values` call of at most this
# many points: eight samples of a convolution product at n_max = 6, whose 352
# term integrals run in one `integrate_many` that holds all their panels at
# once.  In-process `verify --all` runs on a 2-vCPU host, CPU time and peak
# RSS: one sample a call 2.6 s, 37.9 MB; 88 points 2.0 s, 39.8 MB; 176 points
# 1.75 s, 40.7 MB; 352 points 1.6 s, 43.6 MB; 704 points 1.4 s, 48.1 MB.
_MAX_POINTS = 176


def _sample_groups(
    pts: Sequence[tuple[float, float]],
    eval_points: Callable[[float, float], Sequence[tuple[float, float]]],
) -> Iterator[tuple[Sequence[tuple[float, float]], list]]:
    """Consecutive runs of the samples `pts`, each with the eval_points lists
    of its samples: at most `_MAX_POINTS` points a run, at least one sample."""
    needed = [eval_points(x, y) for x, y in pts]
    start = 0
    while start < len(pts):
        stop, width = start + 1, len(needed[start])
        while stop < len(pts) and width + len(needed[stop]) <= _MAX_POINTS:
            width += len(needed[stop])
            stop += 1
        yield pts[start:stop], needed[start:stop]
        start = stop


def _sample_values(
    f: InvariantFunction,
    pts: Sequence[tuple[float, float]],
    eval_points: Callable[[float, float], Sequence[tuple[float, float]]],
) -> Iterator[tuple[float, float, list[float]]]:
    """(x, y, f at every point of eval_points(x, y)) for each sample (x, y)
    of `pts`, in order.  The samples of one `_sample_groups` run share one
    `f.values` call."""
    for group, needed in _sample_groups(pts, eval_points):
        xs, ys = zip(*chain.from_iterable(needed))
        vals = f.values(np.array(xs), np.array(ys)).tolist()
        k = 0
        for (x, y), points in zip(group, needed):
            yield x, y, vals[k:k + len(points)]
            k += len(points)


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

    Each sample touches 1 + n_max (n_max + 1) / 2 points, and the points of
    consecutive samples go to `f.values` in one call (`_sample_values`).
    """
    pts = grid_points(f, grid, _invariance_eval_points(grid))
    return _invariance_report(f, grid, tol, len(pts), _invariance_worst(f, grid, pts))


def _invariance_worst(
    f: InvariantFunction, grid: GridSpec, pts: Sequence[tuple[float, float]]
) -> _Worst:
    """The worst invariance error over the samples `pts`."""
    worst = _Worst()
    for x, y, (rhs, *shifted) in _sample_values(f, pts, _invariance_eval_points(grid)):
        k = 0
        for n in range(1, grid.n_max + 1):
            lhs = math.fsum(shifted[k:k + n])
            k += n
            worst.add(abs(lhs - rhs), x, y, n, lhs, rhs)
    return worst


def _invariance_report(f, grid, tol, samples, worst) -> VerificationReport:
    eff_tol = tol + grid.n_max * f.series_tolerance
    flags = set(f.flags)
    if grid.n_max * f.series_tolerance > tol:
        flags.add("truncation-dominated")
    return _report("invariance", f, f.params, samples, worst, eff_tol, flags)


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
    if m < 1 or n < 1:
        raise RejectedInputError("m and n must be positive integers")

    def eval_points(x, y):
        out = [(x + r * m * y, n * y) for r in range(n)]
        out += [(x + r * n * y, m * y) for r in range(m)]
        return out

    pts = grid_points(f, grid, eval_points)
    worst = _Worst()
    for x, y, vals in _sample_values(f, pts, eval_points):
        lhs, rhs = math.fsum(vals[:n]), math.fsum(vals[n:])
        worst.add(abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)), x, y, n, lhs, rhs)
    eff_tol = tol + (m + n) * f.series_tolerance
    return _report(
        "exchange", f, {**f.params, "m": m, "n": n}, len(pts), worst, eff_tol, f.flags
    )


def _limit_report(prop, f, grid, tol, side, limit) -> VerificationReport:
    """side(x, y) against limit(x) over the seeded grid; samples
    whose limit does not converge are skipped and flagged."""
    pts = grid_points(f, grid, lambda x, y: ((x, y), (x + y, y)))
    worst = _Worst()
    flags = set(f.flags)
    used = 0
    for x, y in pts:
        lim = limit(x)
        if not lim.converged:
            flags.add("limit-nonconverged-skipped")
            continue
        used += 1
        lhs = side(x, y)
        worst.add(abs(lhs - lim.value), x, y, 0, lhs, lim.value)
    return _report(prop, f, f.params, used, worst, tol, flags)


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


def check_y_derivative_identities(
    f: InvariantFunction,
    grid: GridSpec = DEFAULT_GRID,
    tol: float = 1e-6,
    use_fd: bool = False,
) -> VerificationReport:
    """Two identities tying f to g = df/dy on smooth entries:

    (a) f(x, y) = int_x^{x-y} g(t, y) dt
    (b) df/dx  = g(x - y, y) - g(x, y)

    df/dx is `x_derivative(f)`, whose flags the report carries.
    """
    fd_mode = use_fd or f.dy is None
    probe = replace(f, dy=None) if fd_mode else f
    dfdx = x_derivative(f)

    def g(x, y):
        return y_partial_fd(probe, x, y)

    def eval_points(x, y):
        return ((x, y), (x - y, y), (x + y, y))

    pts = grid_points(f, grid, eval_points)
    worst = _Worst()
    flags = set(dfdx.flags)
    if fd_mode:
        flags.add("fd-fallback")
    for x, y in pts:
        fxy = f.value(x, y)
        quad = converged_integral(lambda t: g(t, y), x, x - y, 1e-9, f"d/dy {f.name}")
        err_a = abs(fxy - quad)
        err_b = abs(dfdx.value(x, y) - (g(x - y, y) - g(x, y)))
        worst.add(max(err_a, err_b), x, y, 0, fxy, quad)
    params = {**f.params, "mode": "fd" if fd_mode else "analytic"}
    return _report("y-derivative", f, params, len(pts), worst, tol, flags)


def check_parity(
    f: InvariantFunction,
    parity: str,
    grid: GridSpec = DEFAULT_GRID,
    tol: float = 1e-7,
) -> VerificationReport:
    """Consequences of even/odd df/dy: reflection symmetry plus the
    half-period (even) or full-period (odd) integral value."""
    if parity not in ("even", "odd"):
        raise RejectedInputError(f"parity must be 'even' or 'odd', got {parity!r}")
    even = parity == "even"
    sign = 1.0 if even else -1.0

    def eval_points(x, y):
        return ((x, y), (y - x, y))

    pts = grid_points(f, grid, eval_points)
    worst = _Worst()
    for x, y in pts:
        lhs = f.value(y - x, y)
        rhs = sign * f.value(x, y)
        worst.add(abs(lhs - rhs), x, y, 0, lhs, rhs)
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
        worst.add(abs(quad - expected), 0.0, y, 0, quad, expected)
    return _report("parity", f, {**f.params, "parity": parity}, len(pts), worst, tol, f.flags)


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
    conv = convolve(g, h, tol=1e-9)
    worst = _Worst()
    for y in y_list:
        lhs = _period_integral(conv, y, 0.0, y, 1e-9)
        rhs = _period_integral(g, y, 0.0, y, 1e-11) * _period_integral(h, y, 0.0, y, 1e-11)
        worst.add(abs(lhs - rhs), 0.0, y, 0, lhs, rhs)
    params = {"g": g.name, "g_params": dict(g.params), "h": h.name, "h_params": dict(h.params)}
    return _report("product-integral", f"{g.name}*{h.name}", params, len(y_list), worst, tol)


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
    thunks that give each `_sample_groups` run's worst error, the function
    that makes the report from their results in order).  The report equals
    the uncut check's bit for bit: each run makes the same `values` call, and
    `_Worst.add` over the runs' worsts in sample order keeps the first
    strictly largest error, as it does over the samples."""
    conv = convolve(g, h, tol=1e-9)
    eval_points = _invariance_eval_points(grid)
    pts = grid_points(conv, grid, eval_points)
    parts = [partial(_invariance_worst, conv, grid, group)
             for group, _ in _sample_groups(pts, eval_points)]

    def report(worsts: Sequence[_Worst]) -> VerificationReport:
        worst = _Worst()
        for part in worsts:
            worst.add(part.err, *part.sample)
        rep = _invariance_report(conv, grid, tol, len(pts), worst)
        rep.property = "convolution-invariance"
        rep.params = {"g": g.name, "g_params": dict(g.params),
                      "h": h.name, "h_params": dict(h.params)}
        return rep

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
    conv = convolve(_scaled_bernoulli_entry(m), _scaled_bernoulli_entry(n), tol=1e-10)
    fac = math.factorial(m + n)
    worst = _Worst()
    for y in y_list:
        xs = np.linspace(0.0, y, x_count)
        for x, lhs in zip(xs.tolist(), conv.values(xs, y).tolist()):
            rhs = -(y ** (m + n - 1)) * bernoulli_poly(m + n, x / y) / fac
            worst.add(abs(lhs - rhs), x, y, 0, lhs, rhs)
    samples = len(y_list) * x_count
    return _report("bernoulli-convolution", "E2*E2", {"m": m, "n": n}, samples, worst, tol)


def check_bernoulli_integral_identity(
    m: int, n: int, x_count: int = 11, tol: float = 1e-8
) -> VerificationReport:
    """Direct quadrature of the kernel identity

        B_{m+n}(x) = -C(m+n, m) ( int_0^1 B_m(x-t) B_n(t) dt
                                  + m int_x^1 (x-t)^(m-1) B_n(t) dt )
    """
    cmn = math.comb(m + n, m)
    ctx = f"bernoulli-identity m={m} n={n}"
    worst = _Worst()
    for x in np.linspace(0.0, 1.0, x_count):
        x = float(x)
        i1 = converged_integral(lambda t: bernoulli_poly(m, x - t) * bernoulli_poly(n, t), 0.0, 1.0, 1e-12, ctx)
        i2 = converged_integral(lambda t: (x - t) ** (m - 1) * bernoulli_poly(n, t), x, 1.0, 1e-12, ctx)
        lhs = -cmn * (i1 + m * i2)
        rhs = bernoulli_poly(m + n, x)
        worst.add(abs(lhs - rhs), x, 1.0, 0, lhs, rhs)
    return _report("bernoulli-identity", "B_{m+n}", {"m": m, "n": n}, x_count, worst, tol)


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
    if not (alpha > 1.0 and beta > 1.0):
        raise RejectedInputError("kernel orders must exceed 1")
    fa = zeta_power_kernel(alpha)
    fb = zeta_power_kernel(beta)
    fab = zeta_power_kernel(alpha + beta)
    conv = convolve(fa, fb, tol=max(1e-10, tol * 1e-2))
    worst = _Worst()
    xs = [float(u) * y for u in x_samples]
    for x, lhs in zip(xs, conv.values(np.array(xs), y).tolist()):
        rhs = fab.value(x, y)
        worst.add(abs(lhs - rhs), x, y, 0, lhs, rhs)
    return _report(
        "zeta-convolution",
        f"F({alpha:g})*F({beta:g})",
        {"alpha": alpha, "beta": beta, "y": y},
        len(x_samples),
        worst,
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
    """
    if name == "euler":
        got = converged_integral(lambda t: math.log(math.sin(t)), 0.0, 0.5 * math.pi, 1e-11, name)
        return got, -0.5 * math.pi * math.log(2.0)
    if name == "poisson":
        r = float(params.get("r", 2.0))
        if r <= 0.0 or r == 1.0:
            raise RejectedInputError(f"poisson integral needs r > 0, r != 1, got r={r}")
        got = converged_integral(
            lambda t: math.log(1.0 - 2.0 * r * math.cos(t) + r * r), 0.0, math.pi, 1e-11, name
        )
        expected = 2.0 * math.pi * math.log(r) if r > 1.0 else 0.0
        return got, expected
    if name == "raabe":
        a = float(params.get("a", 1.0))
        if a <= 0.0:
            raise RejectedInputError(f"raabe integral needs a > 0, got a={a}")
        got = converged_integral(lambda t: log_gamma_abs(t), a, a + 1.0, 1e-11, name)
        return got, a * (math.log(a) - 1.0) + _LOG_SQRT_2PI
    raise RejectedInputError(f"unknown integral {name!r}; options: euler, poisson, raabe")


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
    worst = _Worst()
    worst_case = ""
    for name, params in cases:
        value, expected = golden_integral(name, **params)
        arg = next(iter(params.values()), 0.0)
        if worst.add(abs(value - expected), arg, 1.0, 0, value, expected):
            worst_case = name
    return _report(
        "known-integrals", "golden", {"cases": len(cases), "worst_case": worst_case},
        len(cases), worst, tol,
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
    return certificate_report(system, f, grid_points(f, grid, system.sample_points), tol)


# ---------------------------------------------------------------------------
# the standard suite
# ---------------------------------------------------------------------------

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
    A convolution-invariance check is cut into its sample runs; every other
    check is one part."""
    plan: list[tuple[list[Callable[[], object]], Callable]] = []

    def add(check, *args, **kwargs):
        plan.append(([partial(check, *args, **kwargs)], itemgetter(0)))

    for eid, params in catalog.standard_configs():
        f = catalog.make(eid, **params)
        add(check_invariance, f, grid, default_tolerance(f))

    for eid, params in (("E2", {"m": 2}), ("E3a", {}), ("E5", {"a": 2.0}), ("E9", {"r": 0.5})):
        f = catalog.make(eid, **params)
        for m, n in ((1, 2), (2, 3), (3, 4), (4, 5), (2, 5)):
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
