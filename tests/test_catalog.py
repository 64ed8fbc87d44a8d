import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from invk.catalog import _TWO_PI, ENTRY_IDS, _rho_parts, _trig_parts, make, standard_configs
from invk.core import LATTICE_BAND, EvalPoint, affine_transform, evaluate, lattice_split
from invk.errors import RejectedInputError
from invk.quadrature import integrate
from invk.special import bernoulli_poly, bernoulli_poly_coeffs, bernoulli_poly_exact
from invk.verify import check_invariance, default_tolerance, zeta_power_kernel

from conftest import SMALL_GRID, scale_sum


class TestParameterValidation:
    @pytest.mark.parametrize(
        "eid,params",
        [
            ("E2", {"m": 0}),
            ("E2", {"m": 1.5}),
            ("E5", {"a": 1.0}),
            ("E5", {"a": -2.0}),
            ("E6", {"r": 1.0, "theta": 0.0, "part": "cos"}),
            ("E6", {"r": 2.0, "theta": 0.0, "part": "tan"}),
            ("E7", {"r": 0.0}),
            ("E9", {"r": 2.0}),
            ("E9", {"r": 1.0}),
            ("E13", {"s": 1.0}),
            ("E13", {"s": 0.5}),
            # a number is a finite real but no bool, and an order is an int
            ("E2", {"m": 2.0}),
            ("E2", {"m": True}),
            ("E4", {"a": True}),
            ("E4", {"a": "2"}),
            ("E5", {"a": math.inf}),
            ("E13", {"s": math.nan}),
        ],
    )
    def test_rejected(self, eid, params):
        with pytest.raises(RejectedInputError):
            make(eid, **params)

    def test_unknown_entry_and_parameters(self):
        with pytest.raises(RejectedInputError):
            make("E99")
        with pytest.raises(RejectedInputError):
            make("E1", a=2.0)
        with pytest.raises(RejectedInputError):
            make("E5")  # missing a

    def test_all_ids_buildable(self):
        assert len(ENTRY_IDS) == 15
        for eid, params in standard_configs():
            f = make(eid, **params)
            assert f.name == eid


class TestPointValues:
    def test_reciprocal(self):
        assert evaluate(make("E1"), EvalPoint(1.0, 2.0)) == 0.5

    def test_log_sine_lattice_branch(self):
        assert evaluate(make("E10"), EvalPoint(2.0, 1.0)) == 0.0
        assert evaluate(make("E10"), EvalPoint(6.0, 2.0)) == pytest.approx(-math.log(2.0), abs=1e-15)

    def test_cotangent_zero_at_half(self):
        assert evaluate(make("E11"), EvalPoint(0.5, 1.0)) == pytest.approx(0.0, abs=1e-15)
        assert evaluate(make("E11"), EvalPoint(1.0, 1.0)) == 0.0  # lattice branch

    def test_sign_entry_three_branches(self):
        f = make("E14")
        assert f.value(0.2, 1.0) == 1.0
        assert f.value(0.5, 1.0) == 0.0
        assert f.value(0.8, 1.0) == -1.0
        assert f.value(1.0, 1.0) == 1.0  # fractional part 0

    def test_indicator_entry(self):
        f = make("E4", a=2.0)
        assert f.value(2.0 - 3.0 * 0.5, 0.5) == 1.0
        assert f.value(2.0 - 3.1 * 0.5, 0.5) == 0.0

    def test_floor_and_centered_fraction(self):
        assert make("E3a").value(1.7, 1.0) == 1.0
        assert make("E3b").value(1.7, 1.0) == pytest.approx(0.2, abs=1e-14)


class TestHandComputedIdentitySums:
    def test_exponential_quotient_exact_fractions(self):
        f = make("E5", a=2.0)
        # 2/3 + 4/3 = 2
        assert f.value(1.0, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert f.value(2.0, 2.0) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert f.value(1.0, 2.0) + f.value(2.0, 2.0) == pytest.approx(f.value(1.0, 1.0), abs=1e-14)

    def test_bernoulli_doubling(self):
        # B_2(0) + B_2(1/2) = 1/6 - 1/12 = 1/12 = 2^(-1) B_2(0)
        f = make("E2", m=2)
        assert f.value(0.0, 2.0) + f.value(1.0, 2.0) == pytest.approx(f.value(0.0, 1.0), abs=1e-15)
        assert bernoulli_poly(2, 0.0) + bernoulli_poly(2, 0.5) == pytest.approx(1 / 12, abs=1e-15)

    def test_log_sine_lattice_sum(self):
        f = make("E10")
        assert f.value(0.0, 2.0) + f.value(1.0, 2.0) == pytest.approx(f.value(0.0, 1.0), abs=1e-14)

    def test_log_gamma_lattice_sum(self):
        f = make("E12")
        got = f.value(0.0, 2.0) + f.value(1.0, 2.0)
        assert got == pytest.approx(0.5 * math.log(2 * math.pi), abs=1e-12)
        assert got == pytest.approx(f.value(0.0, 1.0), abs=1e-12)

    def test_floor_triple(self):
        f = make("E3a")
        lhs = scale_sum(f, 1.0, 0.7, 3)
        assert lhs == f.value(1.0, 0.7) == 1.0


class TestCrossIdentities:
    def test_theta_zero_reduces_to_exponential(self):
        e6 = make("E6", r=3.0, theta=0.0, part="cos")
        e5 = make("E5", a=3.0)
        for x, y in ((0.7, 1.1), (-0.4, 0.6), (2.0, 3.0)):
            assert e6.value(x, y) == pytest.approx(e5.value(x, y), rel=1e-12)

    def test_log_quotient_derivative_is_sine_quotient(self):
        e7, e8 = make("E7", r=0.5), make("E8", r=0.5)
        for x, y in ((0.2, 1.0), (0.45, 0.7), (-1.1, 2.3)):
            assert e7.dx(x, y) == pytest.approx(4 * math.pi * e8.value(x, y), rel=1e-11)

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_log_quotient_partials_equal_the_two_split_formulas(self, r):
        # dx and dy share one lattice split with D; the formulas that split
        # the lattice once for D and again for the sines give the same bits
        e7, L = make("E7", r=r), math.log(r)

        def two_splits(x, y):
            rho, rm1 = _rho_parts(L, y)
            s1, _ = _trig_parts(x, y)
            D = rm1 * rm1 + 4.0 * rho * s1 * s1
            s1, s2 = _trig_parts(x, y)
            dx = _TWO_PI / y * 2.0 * rho * s2 / D
            drho = -rho * L / y ** 2
            dc = s2 * _TWO_PI * x / y ** 2
            return dx, (2.0 * drho * (rm1 + 2.0 * s1 * s1) - 2.0 * rho * dc) / D

        rng = np.random.default_rng(7)
        ys = rng.uniform(0.25, 40.0, 40)
        points = [(float(u * y), float(y)) for u, y in zip(rng.uniform(-3.0, 3.0, 40), ys)]
        for k, y in zip(range(-3, 4), ys[:7].tolist()):
            points += [(k * y, y), (k * y + 1e-6 * y, y), (k * y - 1e-6 * y, y)]
        for x, y in points:
            want = two_splits(x, y)
            assert (e7.dx(x, y).hex(), e7.dy(x, y).hex()) == tuple(v.hex() for v in want), (x, y)

    def test_floor_plus_fraction_is_linear(self):
        e3a, e3b, e2 = make("E3a"), make("E3b"), make("E2", m=1)
        for x, y in ((1.7, 1.0), (-0.4, 0.9), (5.2, 2.1)):
            assert e3a.value(x, y) + e3b.value(x, y) == pytest.approx(e2.value(x, y), abs=1e-12)

    @pytest.mark.parametrize("m", [2, 4])
    def test_negative_order_zeta_is_scaled_bernoulli(self, m):
        f = make("E13", s=1.0 - m)
        g = make("E2", m=m)
        for u in (0.1, 0.3, 0.62, 0.97):
            for y in (1.0, 0.5, 2.0):
                assert f.value(u * y, y) == pytest.approx(-g.value(u * y, y) / m, abs=1e-8)

    def test_poisson_kernel_even(self):
        f = make("E9", r=0.5)
        for x, y in ((0.3, 1.0), (0.81, 0.67), (-1.2, 2.0)):
            assert f.value(y - x, y) == pytest.approx(f.value(x, y), rel=1e-12)


def _quotient_oracle(eid, r, x, y):
    """E7, E8 or E9 at the exact float point (x, y) from w = r^(1/y)
    e^(2 pi i x/y) in 40-digit complex arithmetic, with its x- and
    y-partials by mpmath's numerical differentiation."""
    r = mpmath.mpf(r)

    def f(x, y):
        w = mpmath.power(r, 1 / y) * mpmath.expjpi(2 * x / y)
        if eid == "E7":
            return mpmath.log(abs(1 - w) ** 2)
        if eid == "E8":
            return mpmath.im(w / (1 - w)) / y
        return mpmath.re((1 + w) / (1 - w)) / y

    with mpmath.workdps(40):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        return tuple(float(v) for v in (
            f(x, y), mpmath.diff(lambda t: f(t, y), x), mpmath.diff(lambda t: f(x, t), y)))


class TestQuotientEntriesAgainstMpmath:
    """E7, E8 and E9 read one real D = |1 - r^(1/y) e^(2 pi i u)|^2; their
    values and partials against a 40-digit oracle, on seeded points and
    1e-6 y off the lattice."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(31)
        ys = rng.uniform(0.25, 40.0, 40)
        points = [(float(u * y), float(y)) for u, y in zip(rng.uniform(-3.0, 3.0, 40), ys)]
        for k, y in zip(range(-3, 4), ys[:7].tolist()):
            points += [(k * y + 1e-6 * y, y), (k * y - 1e-6 * y, y)]
        return points

    @pytest.mark.parametrize("eid,r", [("E7", 0.5), ("E7", 2.0), ("E8", 0.5), ("E8", 2.0), ("E9", 0.5), ("E9", 0.9)])
    def test_values_and_partials(self, eid, r):
        # a partial is held to 1e-13 of the larger of itself and the scale
        # |f| 2 pi/y (dx) or |f| (1 + 2 pi |x|/y)/y (dy): E8 vanishes on the
        # lattice where its partials do not, so |f| alone is no scale there
        f = make(eid, r=r)
        for x, y in self._points():
            value, dx, dy = _quotient_oracle(eid, r, x, y)
            assert abs(f.value(x, y) - value) <= 1e-13 * abs(value), (x, y)
            dx_scale = max(abs(value) * _TWO_PI / y, abs(dx))
            assert abs(f.dx(x, y) - dx) <= 1e-13 * dx_scale, (x, y)
            dy_scale = max(abs(value) * (1.0 + _TWO_PI * abs(x) / y) / y, abs(dy))
            assert abs(f.dy(x, y) - dy) <= 1e-13 * dy_scale, (x, y)

    @pytest.mark.parametrize("r", [0.9, 0.99, 1.1])
    def test_log_quotient_dy_near_unit_radius(self, r):
        # rho - cos(2 pi u) cancels where both are near 1 (r near 1, large y,
        # near the lattice); E7's dy reads it as (rho - 1) + 2 sin^2(pi u)
        f = make("E7", r=r)
        for x, y in self._points():
            value, _, dy = _quotient_oracle("E7", r, x, y)
            dy_scale = max(abs(value) * (1.0 + _TWO_PI * abs(x) / y) / y, abs(dy))
            assert abs(f.dy(x, y) - dy) <= 2e-15 * dy_scale, (x, y)


_EPS = 2.0 ** -52


def _bernoulli_oracle(m, x, y):
    """(E2_m, dx, dy) at the exact float point (x, y) in rationals, with
    E2_k = y^(k-1) B_k(x/y), dx = m E2_(m-1), dy = ((m-1) E2_m - m x E2_(m-1))/y,
    and the scale of each: the same sums over |coefficient| |x/y|^j."""
    X, Y = Fraction(x), Fraction(y)
    u = X / Y
    value = Y ** (m - 1) * bernoulli_poly_exact(m, u)
    lower = Y ** (m - 2) * bernoulli_poly_exact(m - 1, u)

    def size(k):
        return Y ** (k - 1) * sum(abs(c) * abs(u) ** j for j, c in enumerate(bernoulli_poly_coeffs(k)))

    dy_scale = ((m - 1) * size(m) + m * abs(X) * size(m - 1)) / Y
    return ((value, size(m)), (m * lower, m * size(m - 1)),
            (((m - 1) * value - m * X * lower) / Y, dy_scale))


class TestBernoulliAndHurwitzEntries:
    """E2 and E13 are `special`'s scaled values: against exact and
    high-precision oracles at the floats' exact values, scalar and array."""

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_bernoulli_value_and_partials_against_fractions(self, m):
        # rounding x/y moves B_m by up to m/2 eps of its scale; each result is
        # held to (m + 2) eps of its scale
        f = make("E2", m=m)
        rng = np.random.default_rng(71)
        ys = rng.uniform(0.25, 40.0, 150)
        xs = rng.uniform(-25.0, 25.0, 150) * ys
        assert np.array_equal(_bits(f.values(xs, ys)), _bits([f.value(x, y) for x, y in zip(xs, ys)]))
        for x, y in zip(xs.tolist(), ys.tolist()):
            for rule, (want, scale) in zip((f.value, f.dx, f.dy), _bernoulli_oracle(m, x, y)):
                assert abs(Fraction(rule(x, y)) - want) <= (m + 2) * _EPS * scale, (rule, x, y)

    @pytest.mark.parametrize("s", [2.0, 3.0, -1.0, -2.0, -0.5, -3.7])
    def test_hurwitz_values_against_mpmath(self, s):
        # s > 1: within 4 eps; s < 0: within the sum's 4e-14 max(1, |zeta|),
        # times y^(-s), at the periodized exact ratio
        f = make("E13", s=s)
        rng = np.random.default_rng(73)
        ys = rng.uniform(0.25, 40.0, 120)
        us = rng.uniform(0.0 if s > 1.0 else -3.0, 3.0, 120)
        xs = us * ys
        got = f.values(xs, ys)
        assert np.array_equal(_bits(got), _bits([f.value(x, y) for x, y in zip(xs, ys)]))
        with mpmath.workdps(50):
            for x, y, value in zip(xs.tolist(), ys.tolist(), got.tolist()):
                u = Fraction(x) / Fraction(y)
                if s < 0.0:
                    u = u - math.floor(u) or Fraction(1)
                zeta = mpmath.zeta(s, mpmath.mpf(u.numerator) / u.denominator)
                power = mpmath.power(mpmath.mpf(y), -s)
                bound = 4 * _EPS * abs(power * zeta) if s > 1.0 else 4e-14 * power * max(1, abs(zeta))
                assert abs(value - power * zeta) <= bound, (x, y)

    @pytest.mark.parametrize("s", [-1.0, -2.0])
    def test_periodized_hurwitz_at_large_ratios(self, s):
        # {x/y} comes from the exact split, so it carries d's one rounding at
        # any |x/y|; x/y - floor(x/y) carried |x/y| eps, 7e-8 at |x/y| ~ 1e9
        f = make("E13", s=s)
        rng = np.random.default_rng(79)
        ys = rng.uniform(0.25, 40.0, 120)
        us = rng.choice([-1.0, 1.0], 120) * 10.0 ** rng.uniform(4.0, 9.0, 120)
        xs = us * ys
        got = f.values(xs, ys)
        assert np.array_equal(_bits(got), _bits([f.value(x, y) for x, y in zip(xs, ys)]))
        with mpmath.workdps(50):
            for x, y, value in zip(xs.tolist(), ys.tolist(), got.tolist()):
                u = Fraction(x) / Fraction(y)
                u = u - math.floor(u) or Fraction(1)
                zeta = mpmath.zeta(s, mpmath.mpf(u.numerator) / u.denominator)
                power = mpmath.power(mpmath.mpf(y), -s)
                assert abs(value - power * zeta) <= 4e-14 * power * max(1, abs(zeta)), (x, y)


class TestGrowingBaseQuotients:
    """E5 and E6 with a > 1 (r > 1) evaluate a^(x-y) / (1 - a^(-y)): where
    a^x and a^y overflow a double but the value does not, the value and
    both partials match mpmath within 4 eps (1 + |(x - y) L|) of |f|."""

    @pytest.mark.parametrize("eid,params", [
        ("E5", {"a": 2.0}), ("E5", {"a": math.e}),
        ("E6", {"r": 2.0, "theta": 0.0, "part": "cos"}),
        ("E6", {"r": 2.0, "theta": 1.0, "part": "cos"}),
        ("E6", {"r": 2.0, "theta": 1.0, "part": "sin"}),
    ])
    def test_value_and_partials_past_the_powers(self, eid, params):
        f = make(eid, **params)
        base = params.get("a", params.get("r"))
        rng = np.random.default_rng(79)
        ys = rng.uniform(700.0, 3000.0, 40)
        xs = ys + rng.uniform(-600.0, 600.0, 40) / math.log(base)
        if f.array_value is not None:
            assert np.array_equal(_bits(f.values(xs, ys)), _bits([f.value(x, y) for x, y in zip(xs, ys)]))
        pick = mpmath.re if params.get("part", "cos") == "cos" else mpmath.im
        with mpmath.workdps(60):
            L = mpmath.log(base) + 1j * params.get("theta", 0.0)
            for x, y in zip(xs.tolist(), ys.tolist()):
                g = mpmath.exp(y * L)
                value = mpmath.exp(x * L) / (g - 1)
                tol = 4 * _EPS * (1 + abs((x - y) * L)) * abs(value)
                for rule, want in zip((f.value, f.dx, f.dy), (value, L * value, -L * g * value / (g - 1))):
                    assert abs(rule(x, y) - pick(want)) <= tol * abs(want / value), (rule, x, y)


def _near_lattice_points(seed, count, k_max):
    """Seeded (x, y) with x/y within 1e-12 to 1e-4 of an integer k, |k| up to
    k_max (log-uniform), y in [0.25, 40]; float x rounds the offset, so an
    oracle reads the float's exact value."""
    rng = np.random.default_rng(seed)
    ks = np.rint(np.exp(rng.uniform(0.0, math.log(k_max), count))) * rng.choice([-1.0, 1.0], count)
    offsets = np.exp(rng.uniform(math.log(1e-12), math.log(1e-4), count)) * rng.choice([-1.0, 1.0], count)
    ys = rng.uniform(0.25, 40.0, count)
    return (ks + offsets) * ys, ys


class TestNearLatticeValues:
    """Off the absolute lattice band, branch entries read the split's exact
    offset, at any |x/y|: against mpmath at the float's exact ratio."""

    def test_log_sine_against_mpmath(self):
        f = make("E10")
        xs, ys = _near_lattice_points(61, 600, 1e6)
        points = list(zip(xs.tolist(), ys.tolist()))
        assert np.array_equal(_bits(f.values(xs, ys)), _bits([f.value(x, y) for x, y in points]))
        with mpmath.workdps(50):
            for x, y in points:
                u = Fraction(x) / Fraction(y)
                if abs(float(u - round(u))) <= LATTICE_BAND:  # x rounded onto the lattice
                    want = -math.log(y)
                else:
                    want = float(mpmath.log(abs(2 * mpmath.sinpi(mpmath.mpf(x) / mpmath.mpf(y)))))
                assert abs(f.value(x, y) - want) <= 1e-15 * abs(want), (x, y)

    def test_log_gamma_near_its_poles_against_mpmath(self):
        # k <= 0: log|Gamma| comes from the offset by reflection, so x/y's
        # rounding does not swamp the offset
        f = make("E12")
        xs, ys = _near_lattice_points(67, 760, 40.0)
        xs = -np.abs(xs)  # k <= -1, and k = 0 below: |x/y| < 1/2
        xs = np.append(xs, np.linspace(-0.45, 0.45, 40) ** 3 * ys[:40])
        ys = np.append(ys, ys[:40])
        points = list(zip(xs.tolist(), ys.tolist()))
        assert np.array_equal(_bits(f.values(xs, ys)), _bits([f.value(x, y) for x, y in points]))
        with mpmath.workdps(40):
            for x, y in points:
                u, yy = mpmath.mpf(x) / mpmath.mpf(y), mpmath.mpf(y)
                want = float(u * mpmath.log(yy) + mpmath.log(abs(mpmath.gamma(u)))
                             - (mpmath.log(2 * mpmath.pi) + mpmath.log(yy)) / 2)
                assert abs(f.value(x, y) - want) <= 2e-14 * max(1.0, abs(want)), (x, y)

    @pytest.mark.parametrize("y", [0.3, 1.0, 7.0])
    def test_log_sine_period_integral_vanishes(self, y):
        f = make("E10")
        res = integrate(lambda t: f.value(t, y), 0.0, y, tol=1e-10)
        assert res.converged and abs(res.value) <= 1e-12, (res.value, res.converged)


class TestLatticeBranchInvariance:
    """Binary-exact on-lattice probes: x = k*y with y a power of two."""

    @pytest.mark.parametrize("eid,params", [("E4", {"a": 2.0}), ("E10", {}), ("E11", {}), ("E12", {})])
    def test_full_identity_on_lattice(self, eid, params):
        f = make(eid, **params)
        for y in (0.5, 1.0, 2.0):
            for k in (0, 1, -2):
                x = k * y
                if eid == "E4":
                    x = 2.0 - k * y  # put the point on the indicator's lattice
                if eid == "E12" and k > 0:
                    continue  # positive lattice is a regular point there
                rhs = f.value(x, y)
                for n in range(1, 11):
                    assert scale_sum(f, x, y, n) == pytest.approx(rhs, abs=1e-9), (eid, y, k, n)

    def test_sign_entry_odd_scales_only(self):
        # the sign entry satisfies the identity for odd n (and on the
        # half-lattice for all n) but genuinely fails it for even n
        f = make("E14")
        for n in (1, 3, 5, 7, 9):
            assert scale_sum(f, 0.2, 1.0, n) == f.value(0.2, 1.0)
        for n in (2, 4, 6, 8, 10):
            assert scale_sum(f, 0.2, 1.0, n) == 0.0 != f.value(0.2, 1.0)
        # on the lattice and half-lattice every n works
        for n in range(1, 11):
            assert scale_sum(f, 0.0, 1.0, n) == f.value(0.0, 1.0)
            assert scale_sum(f, 0.5, 1.0, n) == f.value(0.5, 1.0)


class TestCatalogInvariance:
    @pytest.mark.parametrize(
        "eid,params",
        [(e, p) for e, p in standard_configs() if e != "E14"],
        ids=lambda v: str(v),
    )
    def test_small_grid(self, eid, params):
        f = make(eid, **params)
        rep = check_invariance(f, SMALL_GRID, default_tolerance(f))
        assert rep.passed, (eid, params, rep.max_abs_error, rep.worst_witness)

    def test_partials_available_where_promised(self):
        with_partials = {"E1", "E2", "E5", "E6", "E7", "E8", "E9"}
        for eid, params in standard_configs():
            f = make(eid, **params)
            if eid in with_partials:
                assert f.dx is not None and f.dy is not None, eid
            else:
                assert f.dy is None, eid

    @pytest.mark.parametrize(
        "eid,params",
        [("E2", {"m": 2}), ("E5", {"a": 2.0}), ("E7", {"r": 0.5}), ("E8", {"r": 2.0}), ("E9", {"r": 0.5}), ("E6", {"r": 2.0, "theta": 1.0, "part": "sin"})],
    )
    def test_analytic_partials_match_finite_differences(self, eid, params):
        f = make(eid, **params)
        h = 1e-6
        for x, y in ((0.37, 1.3), (-0.8, 0.6)):
            fd_x = (f.value(x + h, y) - f.value(x - h, y)) / (2 * h)
            fd_y = (f.value(x, y + h) - f.value(x, y - h)) / (2 * h)
            assert f.dx(x, y) == pytest.approx(fd_x, rel=2e-7, abs=2e-7)
            assert f.dy(x, y) == pytest.approx(fd_y, rel=2e-7, abs=2e-7)


_PERIODIC = {"E1", "E3b", "E4", "E7", "E8", "E9", "E10", "E11", "E13", "E14"}


class TestPeriodicFlag:
    """`periodic` promises f(x + y, y) = f(x, y) for every x."""

    def test_flagged_entries(self):
        flagged = {(e, str(p)) for e, p in standard_configs() if make(e, **p).periodic}
        want = {(e, str(p)) for e, p in standard_configs()
                if e in _PERIODIC and not (e == "E13" and p["s"] > 1.0)}
        assert flagged == want
        # no combinator carries it
        assert not affine_transform(make("E9", r=0.5), a=2.0, b=0.0, c=1.0).periodic

    @pytest.mark.parametrize(
        "eid,params",
        [(e, p) for e, p in standard_configs() if make(e, **p).periodic],
        ids=lambda v: str(v),
    )
    def test_shift_by_one_period(self, eid, params):
        f = make(eid, **params)
        rng = np.random.default_rng(31)
        checked = 0
        for y, u in zip(rng.uniform(0.25, 4.0, 400).tolist(), rng.uniform(-3.0, 3.0, 400).tolist()):
            x = u * y
            near = f.singular_points(y, x - 0.05 * y, x + 1.05 * y)
            if any(abs(s - x) < 0.05 * y or abs(s - x - y) < 0.05 * y for s in near):
                continue
            v = f.value(x, y)
            # x + y carries one rounding, which moves u by a few ulps
            assert abs(f.value(x + y, y) - v) <= 64.0 * 2.0 ** -52 * max(1.0, abs(v)), (x, y)
            # where x + y is exact the two values are the same bits
            y2 = round(y * 64.0) / 64.0
            x2 = round(u * 2.0 ** 20) / 2.0 ** 20 * y2
            assert f.value(x2 + y2, y2).hex() == f.value(x2, y2).hex(), (x2, y2)
            checked += 1
        assert checked > 200


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _probe_points(f, rng, y, n_random):
    """Seeded points at scale y, with the lattice points of f, the points
    1e-6 y off them (the grids' singular margin), 1e-10 y off them (off the
    lattice, where only the exact offset keeps the value) and half the band
    off them (on the lattice); half-lattice points too, which are E14's.
    Only points inside the domain the scalar rule accepts."""
    offset = f.params["a"] if f.name == "E4" else 0.0
    lattice = offset + np.arange(-50.0, 51.0) * (0.5 * y)
    xs = np.concatenate([
        rng.uniform(-25.0, 25.0, n_random) * y,
        lattice, lattice + 1e-6 * y, lattice - 1e-6 * y,
        lattice + 1e-10 * y, lattice - 1e-10 * y,
        lattice + 0.5 * LATTICE_BAND * y, lattice - 0.5 * LATTICE_BAND * y, [0.0, -0.0],
    ])
    if f.name == "E5":  # keep a^x finite, as the scalar rule needs
        xs = xs[np.abs(xs * math.log(f.params["a"])) < 700.0]
    if f.name == "E13" and f.params["s"] > 1.0:
        xs = xs[xs / y > 0.0]
    return xs


# Every array rule: appended to as entries gained one, so ids stay stable
_ARRAY_CONFIGS = [
    ("E1", {}),
    ("E2", {"m": 1}), ("E2", {"m": 2}), ("E2", {"m": 3}), ("E2", {"m": 6}),
    ("E5", {"a": 2.0}), ("E5", {"a": 0.5}), ("E5", {"a": math.e}),
    ("E9", {"r": 0.5}),
    ("E3a", {}), ("E3b", {}),
    ("E4", {"a": 2.0}), ("E4", {"a": 0.5}), ("E4", {"a": math.e}),
    ("E7", {"r": 0.5}), ("E7", {"r": 2.0}), ("E8", {"r": 0.5}), ("E8", {"r": 2.0}),
    ("E10", {}), ("E11", {}), ("E12", {}),
    ("E13", {"s": 2.0}), ("E13", {"s": 3.0}), ("E13", {"s": -1.0}), ("E13", {"s": -2.0}),
    ("E13", {"s": -0.5}), ("E13", {"s": -3.7}),
    ("E14", {}),
]


class TestArrayRules:
    """Each `array_value` equals the scalar `value` bit for bit, on, near and
    off the lattice, inside the lattice band too, at the scales that the
    invariance and exchange checks reach."""

    @pytest.mark.parametrize("eid,params", _ARRAY_CONFIGS)
    def test_equals_scalar_rule(self, eid, params):
        f = make(eid, **params)
        assert f.array_value is not None
        rng = np.random.default_rng(5)
        for y in [0.25, 1.0, 40.0, *rng.uniform(0.25, 40.0, 12).tolist()]:
            xs = _probe_points(f, rng, y, 64)
            scalar = [f.value(x, y) for x in xs.tolist()]
            got = f.values(xs, y)
            assert got.shape == xs.shape
            assert np.array_equal(_bits(got), _bits(scalar)), (eid, params, y)

    @pytest.mark.parametrize("f", [
        make("E1"),
        make("E2", m=1), make("E2", m=2), make("E2", m=3), make("E2", m=6),
        make("E5", a=2.0), make("E5", a=0.5), make("E5", a=math.e),
        make("E9", r=0.5),
        affine_transform(make("E2", m=2), a=-0.5, b=0.25, c=1.5),
        *(make(eid, **params) for eid, params in _ARRAY_CONFIGS[9:]),
        affine_transform(make("E10"), a=2.0, b=-0.3, c=0.75),
        zeta_power_kernel(1.5), zeta_power_kernel(2.0), zeta_power_kernel(2.5),
        zeta_power_kernel(4.0),
    ], ids=lambda f: f"{f.name}{dict(f.params)}")
    def test_equals_scalar_rule_at_mixed_scales(self, f):
        # ys aligned with xs, as a batched check or convolution passes them
        assert f.array_value is not None
        rng = np.random.default_rng(11)
        ys = np.concatenate([[0.25, 1.0, 40.0], rng.uniform(0.25, 40.0, 29)])
        xs, scales = [], []
        for y in ys.tolist():
            pts = _probe_points(f, rng, y, 16)
            xs.append(pts)
            scales.append(np.full(pts.size, y))
        order = rng.permutation(sum(p.size for p in xs))  # mix the scales
        xs, ys = np.concatenate(xs)[order], np.concatenate(scales)[order]
        scalar = [f.value(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        got = f.values(xs, ys)
        assert got.shape == xs.shape
        assert np.array_equal(_bits(got), _bits(scalar))

    @pytest.mark.parametrize("eid,params", [
        ("E2", {"m": 1}), ("E2", {"m": 2}), ("E7", {"r": 0.5}), ("E7", {"r": 2.0}), ("E9", {"r": 0.5}),
        ("E10", {}),
    ])
    def test_rules_without_unread_work(self, eid, params):
        # E2 takes no power y^(m-1) at m <= 2, and E7, E9 and E10 take
        # neither sin(2 pi u) nor the parity sign of sin(pi u), nor k or
        # the sign of d at a tie: each scalar rule still equals its array
        # rule, at one scale and at mixed ones, on seeded points inside the
        # lattice band and off it, at exact ties (|d| = 1/2, where the
        # array rules' fold may give d the other sign), at scales from 1e-3
        # to 1e3, and where E7's D overflows.  E2 also equals the old power
        # form, up to overflow
        f = make(eid, **params)
        rng = np.random.default_rng(2020)
        ys = 10.0 ** rng.uniform(-3.0, 3.0, 300)
        ks = rng.integers(-60, 61, 300).astype(float)
        offsets = np.concatenate([rng.uniform(-1.0, 1.0, 200) * LATTICE_BAND,
                                  rng.uniform(-0.5, 0.5, 60), np.zeros(20), np.full(20, 0.5)])
        xs = (ks + offsets) * ys
        if eid == "E2":  # the quotient, the polynomial or the scale product past the doubles
            xs = np.concatenate([xs, [1e306, -1e306, 1e200, -3e180]])
            ys = np.concatenate([ys, [1e-3, 1e-3, 1.0, 1e3]])
        else:  # log(r)/y where 4 rho overflows but rho - 1 does not, on the lattice and off it
            xs = np.concatenate([xs, [0.0, -2.0 * 9.77e-4, 0.3 * 9.77e-4]])
            ys = np.concatenate([ys, [9.77e-4, 9.77e-4, 9.77e-4]])
        tie_ys = np.repeat([0.25, 0.5, 0.75, 1.0, 3.0, 40.0, 1e3], 8)
        ties = (rng.integers(-60, 61, tie_ys.size) + 0.5) * tie_ys
        assert (np.abs(lattice_split(ties, tie_ys)[1]) == 0.5).all()
        xs, ys = np.concatenate([ties, xs]), np.concatenate([tie_ys, ys])
        scalar = [f.value(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert np.array_equal(_bits(f.values(xs, ys)), _bits(scalar))
        for y in (1e-3, 0.7, 1e3):
            assert np.array_equal(_bits(f.values(xs, y)), _bits([f.value(x, y) for x in xs.tolist()]))
        for y in (0.75, 3.0):  # the ties at one scale
            at = (np.arange(-60.0, 61.0) + 0.5) * y
            assert np.array_equal(_bits(f.values(at, y)), _bits([f.value(x, y) for x in at.tolist()]))
        if eid == "E2":
            m = params["m"]
            old = [float(np.longdouble(y) ** (m - 1) * np.longdouble(bernoulli_poly(m, float(
                np.longdouble(x) / np.longdouble(y))))) for x, y in zip(xs.tolist(), ys.tolist())]
            assert np.array_equal(_bits(scalar), _bits(old))
            assert math.isinf(scalar[-4]) and math.isinf(scalar[-3])  # x/y past the doubles

    @pytest.mark.parametrize("r", [0.5, 2.0])
    def test_e8_array_rule_overflows_as_its_scalar_rule(self, r):
        # where (rho - 1)^2 or 4 rho passes the doubles (r > 1 at y ~ 1e-3),
        # the scalar rule's floats give 0.0, or nan on the lattice, without
        # a warning, and the array rule gives the same bits without one, at
        # scales aligned with xs and at one scale
        f = make("E8", r=r)
        rng = np.random.default_rng(2021)
        ys = 10.0 ** rng.uniform(-3.0, 3.0, 300)
        xs = (rng.integers(-60, 61, 300) + rng.uniform(-0.5, 0.5, 300)) * ys
        xs = np.concatenate([xs, [3e-4, 0.1, 0.0, -2.0 * 9.77e-4, 0.3 * 9.77e-4]])
        ys = np.concatenate([ys, [1e-3, 1e-3, 9.77e-4, 9.77e-4, 9.77e-4]])
        scalar = [f.value(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert np.array_equal(_bits(f.values(xs, ys)), _bits(scalar))
        for y in (1e-3, 0.7, 1e3):
            assert np.array_equal(_bits(f.values(xs, y)), _bits([f.value(x, y) for x in xs.tolist()]))
        if r > 1.0:
            assert scalar[-5:-3] == [0.0, 0.0] and math.isnan(scalar[-3])

    def test_zeta_entry_below_minus_four_maps_its_series(self):
        # below s = -4 the array rule runs the scalar trigonometric series
        # point by point; a few points suffice, each costs ~0.2 ms
        f = make("E13", s=-6.0)
        rng = np.random.default_rng(13)
        ys = rng.uniform(0.25, 40.0, 24)
        xs = np.concatenate([rng.uniform(-3.0, 3.0, 12), np.arange(-6.0, 6.0)]) * ys
        scalar = [f.value(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert np.array_equal(_bits(f.values(xs, ys)), _bits(scalar))
        assert np.array_equal(_bits(f.values(xs[:6], 0.7)), _bits([f.value(x, 0.7) for x in xs[:6]]))

    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_zeta_entry_rejects_nonpositive_ratio(self, s):
        # as the scalar rule does, on a lone point or anywhere in a batch
        f = make("E13", s=s)
        for x in (0.0, -0.0, -0.7):
            with pytest.raises(RejectedInputError):
                f.value(x, 1.3)
            with pytest.raises(RejectedInputError):
                f.values(np.array([0.4, x, 1.1]), 1.3)
            with pytest.raises(RejectedInputError):
                f.values(np.array([x, 0.2]), np.array([1.3, 0.5]))

    def test_entry_without_array_rule_maps_its_value(self):
        f = make("E6", r=2.0, theta=1.0, part="sin")
        assert f.array_value is None
        xs = np.array([-1.3, 0.0, 0.25, 0.5, 2.0])
        assert np.array_equal(_bits(f.values(xs, 0.5)), _bits([f.value(x, 0.5) for x in xs.tolist()]))
        ys = np.array([0.5, 0.3, 2.0, 0.25, 1.7])
        want = [f.value(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert np.array_equal(_bits(f.values(xs, ys)), _bits(want))
