"""Invariant-function descriptors and their closure combinators.

An invariant function is a real function f(x, y) defined for all real x and
y > 0 that satisfies, for every positive integer n,

    sum_{r=0}^{n-1} f(x + r*y, n*y) = f(x, y).

A descriptor packages the evaluation rule with optional analytic partials,
the locus of non-smooth or branch-defined points in x, and enough metadata
for the verification engine to sample safely.  Descriptors are immutable and
evaluation rules are pure, so everything here is safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import CapacityError, ConvergenceError, RejectedInputError, finite, positive

_EPS = 2.220446049250313e-16
_EXACT_INT = 2.0 ** 52  # every float at least this large is an integer
_TWO_PI = 2.0 * math.pi

#: relative margin (in units of y) that sample grids keep from singular points
EPS_SING = 1e-6
#: |x/y - round(x/y)| <= LATTICE_BAND counts as on-lattice: a few ulps, as a
#: float lattice point k*y lies within |k| eps/2 of k (on for |k| <= 128)
LATTICE_BAND = 64.0 * _EPS
# the most points one lattice window lists, a memory cap: E3b's antiderivative
# cut at 250,000 of them converges with a peak RSS of 420 MB
_MAX_WINDOW_POINTS = 250_000

ValueRule = Callable[[float, float], float]
ArrayRule = Callable[[np.ndarray, "float | np.ndarray"], np.ndarray]


def lattice_parts(x: float, y: float) -> tuple[float, float, bool]:
    """The lattice test at one point: (k, d, on), with k the integer nearest
    u = x/y (as a float; a tie goes to even k, as `np.rint` does), d = u - k
    the offset to it, in [-1/2, 1/2], and `on` the absolute band
    |d| <= LATTICE_BAND.  This is the one place that decides "on the
    lattice"; the entries read `on` and never widen it.
    The remainder r = fmod(x, y) is exact in IEEE arithmetic, and folding it
    into [-y/2, y/2] with one subtraction of y is exact by Sterbenz's lemma,
    so d = r/y carries one rounding: branch selection and near-lattice
    evaluation (log-sine, cotangent) keep the offset to full relative
    accuracy at any |u|.  The lattice-aware floor of u is k on the band,
    else k - (d < 0).  The bounds are chained comparisons, not `abs`, which
    would cost a builtin call each."""
    r = math.fmod(x, y) + 0.0  # a zero remainder is +0.0, as in `lattice_split`
    h = 0.5 * y
    if r > h:
        r -= y
    elif r < -h:
        r += y
    q = (x - r) / y  # k, up to a rounding or two
    k = float(round(q)) if -_EXACT_INT < q < _EXACT_INT else q
    if (r == h or r == -h) and k % 2.0 != 0.0:  # a tie goes to even k
        k += 1.0 if r > 0.0 else -1.0
        r = -r
    d = r / y
    return k, d, -LATTICE_BAND <= d <= LATTICE_BAND


def _fold(xs: np.ndarray, ys) -> np.ndarray:
    """The remainder x - k y of each x, folded into [-y/2, y/2], exact."""
    r = np.fmod(xs, ys)
    # rint(r/y) is 1 exactly where r > y/2 and -1 where r < -y/2, since y/2
    # divides to 1/2 exactly: the fold of `lattice_parts` in one expression
    r -= np.rint(r / ys) * ys
    return r


def lattice_offset(xs: np.ndarray, ys) -> tuple[np.ndarray, np.ndarray]:
    """(d, on) of `lattice_split` without k: the offset d of each x/y to its
    nearest integer and the band test, for a rule that reads only |d| and
    `on`.  At a tie, |d| = 1/2, d may have the other sign than
    `lattice_split`'s, which moves d to the even k; every other d has the
    same bits."""
    d = _fold(xs, ys) / ys
    return d, np.abs(d) <= LATTICE_BAND


def lattice_split(xs: np.ndarray, ys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`lattice_parts` at each x of a float ndarray, at one scale ys or at
    an array of scales aligned with xs, element for element: the fold of
    `lattice_offset`, plus k and the tie rule."""
    r = _fold(xs, ys)
    k = np.rint((xs - r) / ys) + 0.0  # +0.0 at x = -0.0, as `round` gives
    d = r / ys
    ad = np.abs(d)
    tie = ad == 0.5
    if np.count_nonzero(tie):
        tie &= np.fmod(k, 2.0) != 0.0  # a tie goes to even k
        k = np.where(tie, k + np.sign(d), k)
        d = np.where(tie, -d, d)
    return k, d, ad <= LATTICE_BAND


def per_scale(fn: Callable[[float], float], ys):
    """fn at one scale ys, or at each scale of a float ndarray, called once
    per run of equal scales: a value that must come from a Python float
    function, such as `math.log` or `math.expm1`, which numpy may round
    differently.  Where fn returns a tuple, the result unpacks into one
    array per item.
    The nodes of one panel, of one quadrature job and the points of one
    check sample share a scale, so a batch holds few runs."""
    if not isinstance(ys, np.ndarray):
        return fn(ys)
    starts = np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1]))[:ys.size])
    lengths = np.diff(np.append(starts, ys.size))
    return np.repeat(np.array([fn(y) for y in ys[starts].tolist()]), lengths, axis=0).T


def _no_points(y: float, lo: float, hi: float) -> tuple[float, ...]:
    return ()


def lattice_points(offset: float, step: float, lo: float, hi: float) -> tuple[float, ...]:
    """Points offset + k*step inside [lo, hi], k integer.  A window of more
    than `_MAX_WINDOW_POINTS` raises CapacityError before any is listed."""
    if step <= 0.0:
        return ()
    k0 = math.ceil((lo - offset) / step - 1e-12)
    k1 = math.floor((hi - offset) / step + 1e-12)
    if k1 - k0 >= _MAX_WINDOW_POINTS:
        raise CapacityError(f"{k1 - k0 + 1} lattice points in [{lo:g}, {hi:g}] exceed the window cap")
    return tuple(offset + k * step for k in range(k0, k1 + 1))


@dataclass(frozen=True)
class EvalPoint:
    """A sample point (x, y); y must be strictly positive."""

    x: float
    y: float

    def __post_init__(self):
        finite("x", self.x)
        positive("y", self.y)


@dataclass(frozen=True)
class InvariantFunction:
    """Immutable descriptor of an invariant function.

    `value` is the evaluation rule; `dx`/`dy` are optional analytic partials
    with the same signature.  `singular_points(y, lo, hi)` lists the x in
    [lo, hi] where the value at scale y is non-smooth or branch-defined, so
    sample grids keep clear of them and integrators split panels there.
    Each point's value must not depend on the window: a wider window lists
    the same floats plus more, as `lattice_points` and every combinator's
    locator do, so a sample grid asks once per scale over a window that
    covers all of that scale's points.  `domain`, when set, restricts the
    valid x-region (e.g. x > 0).
    `series_tolerance` is the truncation budget when the value rule sums a
    series; `piecewise` marks jump-type functions for which smooth limit
    extrapolation is invalid; `integrable_in_x` is False only for entries
    whose singularities are non-integrable (cotangent-type).

    `array_value(xs, ys)`, when set, is the value rule over a float ndarray
    of x, with ys one scale or a float ndarray aligned with xs, equal to
    `value` at each point bit for bit, on the lattice (inside
    `LATTICE_BAND`) too.  `values(xs, ys)` calls it, or maps the scalar
    `value` when it is absent, so an integrand can evaluate all the nodes
    of a quadrature round, and a check all the points of a sample, in one
    call.  Every catalog entry has one, as do the zeta kernels F(alpha),
    affine transforms of entries that have one, and every convolution
    product; the other combinators map `value`.  The two rules
    must agree: a descriptor made with `dataclasses.replace(f, value=...)`
    has to replace or clear `array_value` too, or `values` keeps evaluating
    the old rule.

    `periodic` states that f(x + y, y) = f(x, y) for every x, and is False
    when that is not known; `algebra.convolve` folds x into [0, y) when an
    operand has it.  The catalog sets it on E1, E3b, E4, E7..E11, E13
    (s < 0) and E14; no combinator sets it, so a combined descriptor is
    False.  `dataclasses.replace(f, value=...)` keeps the flag, so a
    replaced rule that is not y-periodic in x has to clear it; a flag left
    False where it could be True costs only speed.

    `near_poles(y, lo, hi)` lists the poles of the value at scale y that sit
    near the real x-axis, off it, as (real part, distance) pairs whose real
    part lies in [lo, hi]: a pole c +- i*distance makes the value smooth on
    the real line but slow to integrate over panels in x near c.  The rule
    of `singular_points` holds: a wider window lists the same pairs plus
    more.  It lists none by default.  The catalog sets it on E7, E8 and E9,
    whose D vanishes at x = k y +- i |log r|/(2 pi); `algebra.convolve`
    integrates a folded product of such an operand, when neither operand
    lists singular points, in a sinh variable about them.  No combinator
    sets it, as none sets `periodic`, and `dataclasses.replace(f,
    value=...)` keeps it, as it keeps `periodic`: a replaced rule with
    other poles has to replace it too.  The map is exact for any pole
    listed, so a wrong list costs only speed.
    """

    name: str
    value: ValueRule
    params: Mapping[str, object] = field(default_factory=dict)
    dx: Optional[ValueRule] = None
    dy: Optional[ValueRule] = None
    singular_points: Callable[[float, float, float], Sequence[float]] = _no_points
    domain: Optional[Callable[[float, float], bool]] = None
    series_tolerance: float = 0.0
    piecewise: bool = False
    integrable_in_x: bool = True
    flags: frozenset = frozenset()
    array_value: Optional[ArrayRule] = None
    periodic: bool = False
    near_poles: Callable[[float, float, float], Sequence[tuple[float, float]]] = _no_points

    def __post_init__(self):
        object.__setattr__(self, "series_tolerance",
                           positive("series_tolerance", self.series_tolerance, zero=True))
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def values(self, xs: np.ndarray, ys: "float | np.ndarray") -> np.ndarray:
        """The value at each point (xs[i], ys[i]) of the float ndarray xs,
        where ys is one scale for every point or a float ndarray aligned
        with xs; equal to `value` at each point, bit for bit."""
        if self.array_value is not None:
            return self.array_value(xs, ys)
        scales = ys.tolist() if isinstance(ys, np.ndarray) else repeat(ys)
        return np.array([self.value(x, y) for x, y in zip(xs.tolist(), scales)], dtype=float)


def evaluate(f: InvariantFunction, p: EvalPoint) -> float:
    """Value of f at p, after domain validation; OverflowError when it is not
    a finite double."""
    if not isinstance(p, EvalPoint):
        p = EvalPoint(*p)
    if f.domain is not None and not f.domain(p.x, p.y):
        raise RejectedInputError(
            f"({p.x}, {p.y}) outside the domain of {f.name}"
        )
    v = float(f.value(p.x, p.y))
    if not math.isfinite(v):
        raise OverflowError(f"{f.name} at ({p.x}, {p.y}) is {v}, not a finite double")
    return v


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------


def affine_transform(f: InvariantFunction, a: float, b: float, c: float) -> InvariantFunction:
    """F(x, y) = a * f(b + c*x, c*y); invariance is preserved for c > 0."""
    a, b, c = finite("a", a), finite("b", b), positive("c", c)

    def value(x, y):
        return a * f.value(b + c * x, c * y)

    def array_value(xs, ys):
        return a * f.values(b + c * xs, c * ys)

    dx = (lambda x, y: a * c * f.dx(b + c * x, c * y)) if f.dx else None
    dy = (lambda x, y: a * c * f.dy(b + c * x, c * y)) if f.dy else None
    dom = (lambda x, y: f.domain(b + c * x, c * y)) if f.domain else None

    def points(y, lo, hi):
        return tuple((s - b) / c for s in f.singular_points(c * y, b + c * lo, b + c * hi))

    return InvariantFunction(
        name=f"affine({f.name})",
        value=value,
        params={"a": a, "b": b, "c": c, "inner": f.name},
        array_value=array_value if f.array_value is not None else None,
        dx=dx,
        dy=dy,
        singular_points=points,
        domain=dom,
        series_tolerance=abs(a) * f.series_tolerance,
        piecewise=f.piecewise,
        integrable_in_x=f.integrable_in_x,
        flags=f.flags,
    )


def x_derivative(f: InvariantFunction) -> InvariantFunction:
    """d f / d x as an invariant function.

    Uses the analytic rule when the descriptor has one; otherwise falls back
    to a central difference with step ~ eps^(1/3), and the result carries the
    "fd-dx" flag so reports can surface the degraded accuracy.
    """
    if f.dx is not None:
        value = f.dx
        flags = f.flags
    else:
        def value(x, y):
            h = _EPS ** (1.0 / 3.0) * max(1.0, abs(x))
            return (f.value(x + h, y) - f.value(x - h, y)) / (2.0 * h)

        flags = f.flags | frozenset(["fd-dx"])
    return InvariantFunction(
        name=f"d/dx {f.name}",
        value=value,
        params=dict(f.params),
        singular_points=f.singular_points,
        domain=f.domain,
        series_tolerance=f.series_tolerance,
        piecewise=f.piecewise,
        # at the branch points of a piecewise entry the derivative can blow
        # up non-integrably: d/dx E10 is cotangent-like
        integrable_in_x=f.integrable_in_x and not f.piecewise,
        flags=flags,
    )


def reflect(f: InvariantFunction) -> InvariantFunction:
    """F(x, y) = f(y - x, y)."""

    def value(x, y):
        return f.value(y - x, y)

    dx = (lambda x, y: -f.dx(y - x, y)) if f.dx else None
    dy = (
        (lambda x, y: f.dy(y - x, y) + f.dx(y - x, y))
        if (f.dx and f.dy)
        else None
    )

    def points(y, lo, hi):
        return tuple(sorted(y - s for s in f.singular_points(y, y - hi, y - lo)))

    return InvariantFunction(
        name=f"reflect({f.name})",
        value=value,
        params=dict(f.params),
        dx=dx,
        dy=dy,
        singular_points=points,
        domain=(lambda x, y: f.domain(y - x, y)) if f.domain else None,
        series_tolerance=f.series_tolerance,
        piecewise=f.piecewise,
        integrable_in_x=f.integrable_in_x,
        flags=f.flags,
    )


def frac_compose(f: InvariantFunction, t: float) -> InvariantFunction:
    """F(x, y) = f(y * {(t + x)/y}, y), f composed with the y-scaled
    fractional part of (t + x)/y; f(y * {(t - x)/y}, y) is its `reflect`.

    The wrapped argument lives in [0, y), so the result is periodic in x with
    period y and is marked piecewise (the wrap introduces jump points).
    """
    t = finite("t", t)

    def inner_arg(x, y):
        _, d, on = lattice_parts(t + x, y)
        return y * (0.0 if on else d if d >= 0.0 else 1.0 + d)

    def value(x, y):
        return f.value(inner_arg(x, y), y)

    dx = (lambda x, y: f.dx(inner_arg(x, y), y)) if f.dx else None

    def points(y, lo, hi):
        pts = set(lattice_points(-t, y, lo, hi))
        # wrap points where (t + x)/y is an integer: x = k*y - t
        for s in f.singular_points(y, 0.0, y):
            pts.update(lattice_points(s - t, y, lo, hi))
        return tuple(sorted(pts))

    return InvariantFunction(
        name=f"frac({f.name})",
        value=value,
        params={"t": t, "inner": f.name},
        dx=dx,
        singular_points=points,
        series_tolerance=f.series_tolerance,
        piecewise=True,
        integrable_in_x=f.integrable_in_x,
        flags=f.flags,
    )


def linear_combination(
    terms: Sequence[tuple[float, InvariantFunction]]
) -> InvariantFunction:
    """Pointwise sum of coefficient * function over a non-empty term list."""
    terms = [(finite("coefficient", c), f) for c, f in terms]
    if not terms:
        raise RejectedInputError("linear combination needs at least one term")

    def value(x, y):
        return math.fsum(c * f.value(x, y) for c, f in terms)

    dx = None
    if all(f.dx for _, f in terms):
        dx = lambda x, y: math.fsum(c * f.dx(x, y) for c, f in terms)
    dy = None
    if all(f.dy for _, f in terms):
        dy = lambda x, y: math.fsum(c * f.dy(x, y) for c, f in terms)

    doms = [f.domain for _, f in terms if f.domain]

    def points(y, lo, hi):
        pts: set[float] = set()
        for _, f in terms:
            pts.update(f.singular_points(y, lo, hi))
        return tuple(sorted(pts))

    return InvariantFunction(
        name="lincomb(" + ",".join(f.name for _, f in terms) + ")",
        value=value,
        params={"coefficients": tuple(c for c, _ in terms)},
        dx=dx,
        dy=dy,
        singular_points=points,
        domain=(lambda x, y: all(d(x, y) for d in doms)) if doms else None,
        series_tolerance=math.fsum(abs(c) * f.series_tolerance for c, f in terms),
        piecewise=any(f.piecewise for _, f in terms),
        integrable_in_x=all(f.integrable_in_x for _, f in terms),
        flags=frozenset().union(*(f.flags for _, f in terms)),
    )


def step_difference(f: InvariantFunction) -> ValueRule:
    """The rule (x, y) -> f(x + y, y) - f(x, y).

    For invariant f this difference does not change when y is replaced by
    n*y, and it equals the limit of f(x + a, a) - f(x, a) as a -> 0+.
    """

    def delta(x, y):
        return f.value(x + y, y) - f.value(x, y)

    return delta


# ---------------------------------------------------------------------------
# series constructors
# ---------------------------------------------------------------------------

_SERIES_KMAX = 10 ** 6
_SERIES_PROBE_WINDOW = 6


def _tail_bound(
    absf: Callable[[float], float],
    arg_of: Callable[[int], float],
    k: int,
    step: float,
    prefactor: float,
) -> float:
    """Upper bound on prefactor * sum_{j>k} |h(arg_of(j))|.

    The arguments arg_of(j) advance arithmetically with `step`.  Tries a
    geometric bound (ratio of consecutive |h| bounded below 1 over a probe
    window) and an integral bound for power-law decay t^-p with p > 1;
    returns the smaller, or +inf when neither applies yet.
    """
    window = [absf(arg_of(k + i)) for i in range(_SERIES_PROBE_WINDOW)]
    if all(w == 0.0 for w in window) and absf(arg_of(2 * k)) == 0.0:
        return 0.0
    best = math.inf
    ratios = [
        window[i + 1] / window[i]
        for i in range(len(window) - 1)
        if window[i] > 0.0
    ]
    if len(ratios) == _SERIES_PROBE_WINDOW - 1:
        q = max(ratios)
        if q < 0.99:
            best = min(best, prefactor * window[0] * q / (1.0 - q))
    hk = window[0]
    h2k = absf(arg_of(2 * k))
    t1, t2 = arg_of(k), arg_of(2 * k)
    if hk > 0.0 and 0.0 < h2k < hk and t2 > t1 > 0.0:
        p = math.log(hk / h2k) / math.log(t2 / t1)
        if p > 1.0:
            best = min(best, prefactor * hk * t1 / ((p - 1.0) * step))
    return best


def _series_cutoff(absf, arg_of, tol: float, step: float, prefactor: float) -> int:
    k = 16
    while k <= _SERIES_KMAX:
        if _tail_bound(absf, arg_of, k, step, prefactor) < tol:
            return k + _SERIES_PROBE_WINDOW
        k = min(2 * k, _SERIES_KMAX) if k < _SERIES_KMAX else 2 * k
    raise ConvergenceError(
        f"series tail bound not below {tol:g} within {_SERIES_KMAX} terms"
    )


def _call_vectorized(h, args: np.ndarray) -> np.ndarray:
    try:
        out = np.asarray(h(args), dtype=float)
        if out.shape == args.shape:
            return out
    except (TypeError, ValueError):  # a scalar-only h: math.* or an `if t > 0` branch
        pass
    return np.array([h(float(t)) for t in args], dtype=float)


def from_fourier(h, mode: str = "cos", tol: float = 1e-10) -> InvariantFunction:
    """Invariant function (1/y) * sum_{k>=1} h(k/y) * cos(2 pi k x / y) (or sin).

    The caller asserts that |h| is eventually monotone decreasing so the tail
    admits a geometric or power-decay bound; the series is truncated once that
    bound drops below `tol`, which becomes the descriptor's series tolerance.
    Raises ConvergenceError when no bound is reached within 10^6 terms.
    """
    if mode not in ("cos", "sin"):
        raise RejectedInputError(f"mode must be 'cos' or 'sin', got {mode!r}")
    tol = positive("tolerance", tol)
    trig = np.cos if mode == "cos" else np.sin

    def value(x, y):
        kmax = _series_cutoff(
            lambda t: abs(h(t)), lambda k: k / y, tol, step=1.0 / y, prefactor=1.0 / y
        )
        ks = np.arange(1, kmax + 1, dtype=float)
        hv = _call_vectorized(h, ks / y)
        phase = (_TWO_PI * x / y) * ks
        return float(hv @ trig(phase)) / y

    return InvariantFunction(
        name=f"fourier_{mode}",
        value=value,
        params={"mode": mode, "tol": tol},
        series_tolerance=tol,
    )


def from_tail_series(h, tol: float = 1e-10) -> InvariantFunction:
    """Invariant function sum_{k>=0} h(x + k*y), truncated under `tol`.

    Same convergence contract as `from_fourier`: |h| must eventually decrease
    monotonically with a computable geometric or power-law tail bound.
    """
    tol = positive("tolerance", tol)

    def value(x, y):
        kmax = _series_cutoff(
            lambda t: abs(h(t)), lambda k: x + k * y, tol, step=y, prefactor=1.0
        )
        ks = np.arange(0, kmax + 1, dtype=float)
        hv = _call_vectorized(h, x + ks * y)
        return float(math.fsum(hv))

    return InvariantFunction(
        name="tail_series",
        value=value,
        params={"tol": tol},
        series_tolerance=tol,
    )
