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
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import catalog
from .algebra import convolve
from .core import (
    EPS_SING,
    InvariantFunction,
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
    locator's points do not depend on the window it is given."""
    domain = f.domain
    by_scale: dict[float, list[float]] = {}
    for x, y in needed:
        if domain is not None and not domain(x, y):
            return False
        by_scale.setdefault(y, []).append(x)
    for y, xs in by_scale.items():
        margin = EPS_SING * y
        w = 4.0 * margin
        near = f.singular_points(y, min(xs) - w, max(xs) + w)
        if any(abs(x - s) < margin for x in xs for s in near):
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
    singular locus at scale y'.
    """
    rng = np.random.default_rng(grid.seed)
    pts: list[tuple[float, float]] = []
    attempts = 0
    cap = grid.samples * 500
    while len(pts) < grid.samples and attempts < cap:
        attempts += 1
        y = float(rng.uniform(*grid.y_range))
        x = float(rng.uniform(*grid.x_range)) * y
        needed = eval_points(x, y) if eval_points else ((x, y),)
        if _sample_clear(f, needed):
            pts.append((x, y))
    if len(pts) < grid.samples:
        raise RejectedInputError(
            f"could not place {grid.samples} clear samples for {f.name}"
        )
    return pts


def _invariance_eval_points(grid: GridSpec):
    def points(x, y):
        out = [(x, y)]
        for n in range(1, grid.n_max + 1):
            ny = n * y
            out.extend((x + r * y, ny) for r in range(n))
        return out

    return points


def _sample_values(f: InvariantFunction, points: Sequence[tuple[float, float]]) -> list[float]:
    """f at every (x, y) that one sample of a check touches, from one
    `values` call."""
    xs, ys = zip(*points)
    return f.values(np.array(xs), np.array(ys)).tolist()


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

    The 1 + n_max (n_max + 1) / 2 points of one sample go to `f.values` in
    one call.
    """
    eval_points = _invariance_eval_points(grid)
    pts = grid_points(f, grid, eval_points)
    worst = _Worst()
    for x, y in pts:
        rhs, *shifted = _sample_values(f, eval_points(x, y))
        k = 0
        for n in range(1, grid.n_max + 1):
            lhs = math.fsum(shifted[k:k + n])
            k += n
            worst.add(abs(lhs - rhs), x, y, n, lhs, rhs)
    eff_tol = tol + grid.n_max * f.series_tolerance
    flags = set(f.flags)
    if grid.n_max * f.series_tolerance > tol:
        flags.add("truncation-dominated")
    return _report("invariance", f, f.params, len(pts), worst, eff_tol, flags)


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
    for x, y in pts:
        vals = _sample_values(f, eval_points(x, y))
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
    conv = convolve(g, h, tol=1e-9)
    rep = check_invariance(conv, grid, tol)
    rep.property = "convolution-invariance"
    rep.params = {"g": g.name, "g_params": dict(g.params), "h": h.name, "h_params": dict(h.params)}
    return rep


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


def standard_suite(grid: GridSpec = DEFAULT_GRID) -> list[VerificationReport]:
    """Every check the package ships, with pinned tolerances, in canonical order."""
    reports: list[VerificationReport] = []

    for eid, params in catalog.standard_configs():
        f = catalog.make(eid, **params)
        tol = 1e-6 if f.series_tolerance > 0.0 else 1e-8
        reports.append(check_invariance(f, grid, tol))

    for eid, params in (("E2", {"m": 2}), ("E3a", {}), ("E5", {"a": 2.0}), ("E9", {"r": 0.5})):
        f = catalog.make(eid, **params)
        for m, n in ((1, 2), (2, 3), (3, 4), (4, 5), (2, 5)):
            reports.append(check_exchange(f, m, n, grid, 1e-8))

    probe_grid = replace(grid, samples=9)
    for eid, params in _SMOOTH_LIMIT_SET:
        f = catalog.make(eid, **params)
        reports.append(check_integral_limit(f, probe_grid, 1e-6))
        reports.append(check_step_limit(f, probe_grid, 1e-6))

    for eid, params in _Y_DERIVATIVE_SET:
        f = catalog.make(eid, **params)
        reports.append(check_y_derivative_identities(f, probe_grid, 1e-6))
        reports.append(check_y_derivative_identities(f, probe_grid, 1e-4, use_fd=True))

    reports.append(check_parity(catalog.make("E9", r=0.5), "even", probe_grid, 1e-7))
    reports.append(check_parity(catalog.make("E2", m=1), "odd", probe_grid, 1e-7))
    reports.append(check_parity(catalog.make("E8", r=0.5), "odd", probe_grid, 1e-7))

    conv_grid = replace(grid, n_max=6)
    for (gid, gp), (hid, hp) in _PRODUCT_PAIRS:
        g = catalog.make(gid, **gp)
        h = catalog.make(hid, **hp)
        reports.append(check_product_integral(g, h, (1.0, 0.7), 1e-7))
        reports.append(check_convolution_invariance(g, h, conv_grid, 1e-7))

    for m in (1, 2, 3):
        for n in (1, 2, 3):
            reports.append(check_bernoulli_convolution(m, n, (1.0, 0.7), 11, 1e-8))
            reports.append(check_bernoulli_integral_identity(m, n, 11, 1e-8))

    reports.append(check_zeta_convolution(2.0, 2.0, 1.0, tol=1e-8))
    reports.append(check_zeta_convolution(1.5, 2.5, 1.0, tol=1e-5))

    reports.append(check_known_integrals(1e-7))

    system = CoveringSystem(_CERT_SYSTEM)
    cert_grid = replace(grid, samples=9)
    for eid, params in _CERT_FUNCTIONS:
        f = catalog.make(eid, **params)
        reports.append(check_covering_certificates(system, f, cert_grid, 1e-8))

    reports.sort(key=report_sort_key)
    return reports
