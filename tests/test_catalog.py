import math

import mpmath
import numpy as np
import pytest

from invk.catalog import _TWO_PI, ENTRY_IDS, _rho_parts, _trig_parts, make, standard_configs
from invk.core import EvalPoint, affine_transform, evaluate
from invk.errors import RejectedInputError
from invk.special import bernoulli_poly
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
            rho, rm1 = _rho_parts(r, y)
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


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def _probe_points(f, rng, y, n_random):
    """Seeded points at scale y, with the lattice points of f, the points
    1e-6 y off them (the grids' singular margin), and the points 1e-10 y off
    them (inside the 1e-9 detection band); half-lattice points too, which
    are E14's.  Only points inside the domain the scalar rule accepts."""
    offset = f.params["a"] if f.name == "E4" else 0.0
    lattice = offset + np.arange(-50.0, 51.0) * (0.5 * y)
    xs = np.concatenate([
        rng.uniform(-25.0, 25.0, n_random) * y,
        lattice, lattice + 1e-6 * y, lattice - 1e-6 * y,
        lattice + 1e-10 * y, lattice - 1e-10 * y, [0.0, -0.0],
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
    off the lattice, inside the detection band too, at the scales that the
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
