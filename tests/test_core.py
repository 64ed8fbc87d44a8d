import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invk.catalog import make
from invk.algebra import antiderivative, convolve
from invk.core import (
    LATTICE_BAND,
    EvalPoint,
    InvariantFunction,
    _call_vectorized,
    affine_transform,
    evaluate,
    frac_compose,
    from_fourier,
    from_tail_series,
    lattice_offset,
    lattice_parts,
    lattice_split,
    linear_combination,
    reflect,
    step_difference,
    x_derivative,
)
from invk.errors import ConvergenceError, RejectedInputError
from invk.verify import check_invariance

from conftest import SMALL_GRID, scale_sum


class TestEvalPoint:
    def test_positive_y_required(self):
        with pytest.raises(RejectedInputError):
            EvalPoint(1.0, 0.0)
        with pytest.raises(RejectedInputError):
            EvalPoint(1.0, -2.0)
        with pytest.raises(RejectedInputError):
            EvalPoint(math.nan, 1.0)

    @pytest.mark.parametrize("fn, params, x, y", [
        # the long-double values of E13 and E2 round to inf without raising
        ("E13", {"s": 170.0}, 0.01, 1.0),
        ("E2", {"m": 200}, 1000.0, 1.0),
    ])
    def test_evaluate_refuses_a_value_past_the_doubles(self, fn, params, x, y):
        with pytest.raises(OverflowError, match=fn):
            evaluate(make(fn, **params), EvalPoint(x, y))

    def test_evaluate_enforces_domain(self):
        f = make("E13", s=2.0)
        with pytest.raises(RejectedInputError):
            evaluate(f, EvalPoint(-1.0, 1.0))
        assert evaluate(f, EvalPoint(1.0, 1.0)) == pytest.approx(math.pi ** 2 / 6, abs=1e-10)

    def test_descriptor_immutable(self):
        f = make("E5", a=2.0)
        with pytest.raises(Exception):
            f.name = "other"
        with pytest.raises(Exception):
            f.params["a"] = 3.0


def _exact_offset(x, y):
    """|d| for the float inputs: the exact x/y less its nearest integer,
    rounded once."""
    u = Fraction(x) / Fraction(y)
    return abs(float(u - round(u)))


class TestLatticeDetection:
    def test_binary_exact_ratios(self):
        assert lattice_parts(3.0 * 0.25, 0.25)[2]
        assert lattice_parts(-8.0, 2.0)[2]
        assert not lattice_parts(0.2500001, 0.25)[2]

    def test_large_ratio_point_is_off_the_lattice(self):
        # within 1e-12 relative of the lattice, but d ~ 1e-6 off it: the band
        # is absolute, so the point is off and E10 is log|2 sin(pi d)|
        y = 1.0
        x = 1e6 * y * (1.0 + 1e-12)
        k, d, on = lattice_parts(x, y)
        assert not on and k == 1e6
        assert d == float(Fraction(x) - 1_000_000) and 9e-7 < d < 1.1e-6
        want = math.log(2.0 * math.sin(math.pi * d))
        assert make("E10").value(x, y) == pytest.approx(want, rel=1e-15)

    def test_band_edges_against_fraction_oracle(self):
        eps = sys.float_info.epsilon
        assert LATTICE_BAND == 64.0 * eps
        # an exact offset of 64 eps is on, the next float out is off, on
        # either side of k
        for k in (0.0, 1.0, -1.0, 3.0):
            for sign in (1.0, -1.0):
                edge = k + sign * 64.0 * eps
                out = math.nextafter(edge, sign * math.inf)
                assert Fraction(edge) - Fraction(k) == sign * Fraction(64.0 * eps)
                assert lattice_parts(edge, 1.0)[2], (k, sign)
                assert not lattice_parts(out, 1.0)[2], (k, sign)
        # a few ulps either side of (k +- 64 eps) y: on exactly when the
        # rounded exact offset of x/y is within the band, scalar and array
        rng = np.random.default_rng(29)
        for y in rng.uniform(0.25, 40.0, 24).tolist():
            for k in rng.integers(-64, 65, 4).tolist():
                for sign in (1.0, -1.0):
                    x0 = (k + sign * LATTICE_BAND) * y
                    xs = x0 + np.arange(-6, 7) * math.ulp(x0)
                    on = lattice_split(xs, y)[2]
                    want = [_exact_offset(x, y) <= LATTICE_BAND for x in xs.tolist()]
                    assert on.tolist() == want and any(want) and not all(want), (x0, y)
                    assert [lattice_parts(x, y)[2] for x in xs.tolist()] == want

    def test_lattice_products_are_on(self):
        # fl(k y) is within |k| eps / 2 of k y in units of y, so every product
        # is on for |k| <= 128; beyond that it is on exactly when the Fraction
        # oracle says so, and always when the product is exact
        rng = np.random.default_rng(31)
        ys = rng.uniform(0.25, 40.0, 400)
        for kmax in (128, 10 ** 6):
            xs = rng.integers(-kmax, kmax + 1, ys.size) * ys
            on = lattice_split(xs, ys)[2]
            want = [_exact_offset(x, y) <= LATTICE_BAND for x, y in zip(xs.tolist(), ys.tolist())]
            assert on.tolist() == want
            assert all(want) == (kmax == 128)
        ks = np.arange(-10 ** 6, 10 ** 6 + 1, 997.0)
        for y in (0.25, 0.75, 1.0, 40.0):  # short mantissas: k y is exact
            assert lattice_split(ks * y, y)[2].all(), y
            assert all(lattice_parts(k * y, y)[2] for k in ks[::50].tolist()), y

    def test_scalar_test_equals_array_test(self):
        # k, d and on of each point equal those of `lattice_split`, signs of
        # zero too, at seeded and exact-lattice points, 1e-10 y and 1e-6 y off
        # the lattice, small relative offsets, offsets just inside and outside
        # the band, and half-lattice points
        rng = np.random.default_rng(17)
        for y in [0.25, 1.0, 40.0, *rng.uniform(0.25, 40.0, 12).tolist()]:
            lattice = np.arange(-50.0, 51.0) * y
            xs = np.concatenate([
                rng.uniform(-50.0, 50.0, 64) * y, lattice, [0.0, -0.0],
                lattice + 1e-10 * y, lattice - 1e-10 * y,
                lattice + 1e-6 * y, lattice - 1e-6 * y,
                lattice * (1.0 + 5e-10), lattice * (1.0 - 2e-9),
                lattice + LATTICE_BAND * y, lattice - 2.0 * LATTICE_BAND * y,
                lattice + 0.5 * y,
            ])
            k, d, on = lattice_split(xs, y)
            parts = [lattice_parts(x, y) for x in xs.tolist()]
            for got, want in ((k, [p[0] for p in parts]), (d, [p[1] for p in parts])):
                want = np.array(want)
                assert np.array_equal(want, got) and np.array_equal(np.signbit(want), np.signbit(got)), y
            assert [p[2] for p in parts] == on.tolist(), y
            assert on.any() and not on.all()

    def test_split_at_an_array_of_scales(self):
        rng = np.random.default_rng(5)
        ys = rng.uniform(0.25, 40.0, 200)
        xs = rng.uniform(-30.0, 30.0, 200) * ys
        k, d, on = lattice_split(xs, ys)
        for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            assert (k[i], d[i], on[i]) == lattice_parts(x, y)

    def test_offset_fold_equals_the_split(self):
        # (d, on) of the fold without k equal the split's, bit for bit, signs
        # of zero too, except that at a tie, |d| = 1/2, the split may turn d
        # to the even k: at exact ties, -0.0, the band edges (+-64 eps from
        # a lattice point, and the next floats out), past |x/y| = 2^52,
        # seeded points, at one scale and at an array of them
        rng = np.random.default_rng(41)
        ks = np.arange(-9.0, 10.0)
        edges = np.array([LATTICE_BAND, -LATTICE_BAND])
        units = np.concatenate([
            ks + 0.5, ks - 0.5,  # exact ties at a dyadic scale
            (ks[:, None] + edges).ravel(),
            np.nextafter((ks[:, None] + edges).ravel(), (ks[:, None] + 2.0 * edges).ravel()),
            [0.0, -0.0, 2.0 ** 52, -(2.0 ** 52) - 2.0, 2.0 ** 60 + 2.0 ** 8, 3.0 * 2.0 ** 53],
            rng.uniform(-40.0, 40.0, 200),
        ])
        for y in (0.25, 1.0, 0.75, 40.0):
            xs = units * y
            self._assert_offset_is_split(xs, y)
        ys = rng.choice([0.25, 1.0, 0.75, 40.0, 3.0], units.size)
        self._assert_offset_is_split(units * ys, ys)
        tie = np.abs(lattice_split(ks * 1.0 + 0.5, 1.0)[1]) == 0.5
        assert tie.all()
        moved = lattice_offset(ks + 0.5, 1.0)[0] != lattice_split(ks + 0.5, 1.0)[1]
        assert moved.any() and not moved.all()  # the tie rule turns every other d

    @staticmethod
    def _assert_offset_is_split(xs, ys):
        d, on = lattice_offset(xs, ys)
        _, want_d, want_on = lattice_split(xs, ys)
        assert np.array_equal(on, want_on)
        tie = np.abs(want_d) == 0.5
        assert np.array_equal(np.abs(d), np.abs(want_d))
        assert np.array_equal(d[~tie].view(np.int64), want_d[~tie].view(np.int64))
        assert (on & ~tie).any() and (~on & ~tie).any() and tie.any()


class TestExactSplit:
    """The split is exact up to one rounding: k is the integer nearest x/y,
    ties to even, and d the correctly rounded x/y - k, checked against
    `Fraction` arithmetic."""

    @staticmethod
    def _points(seed, count):
        rng = np.random.default_rng(seed)
        ks = rng.integers(-1000, 1001, count)
        offsets = np.exp(rng.uniform(math.log(1e-10), math.log(0.3), count))
        offsets *= rng.choice([-1.0, 1.0], count)
        ys = rng.uniform(0.25, 40.0, count)
        return (ks + offsets) * ys, ys

    def test_fraction_oracle(self):
        xs, ys = self._points(2024, 4000)
        k, d, _ = lattice_split(xs, ys)
        for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            u = Fraction(x) / Fraction(y)
            exact_k = round(u)  # half-even, as np.rint
            assert k[i] == exact_k, (x, y)
            assert d[i] == float(u - exact_k), (x, y)  # one rounding of the exact offset
            assert lattice_parts(x, y)[:2] == (k[i], d[i])

    @pytest.mark.parametrize("x, y", [(2.5, 1.0), (-2.5, 1.0), (3.5, 1.0), (-3.5, 1.0),
                                      (1.25, 0.5), (0.5, 1.0), (-0.5, 1.0), (1.5, 1.0)])
    def test_ties_go_to_even(self, x, y):
        k, d, on = lattice_parts(x, y)
        assert k == np.rint(x / y) and k % 2.0 == 0.0
        assert d == x / y - k and abs(d) == 0.5 and not on
        ka, da, _ = lattice_split(np.array([x, x]), y)
        assert ka.tolist() == [k, k] and da.tolist() == [d, d]

    @pytest.mark.parametrize("y", [0.25, 0.7, 1.0, 3.7, 40.0])
    def test_branch_entries_on_lattice_and_half_lattice(self, y):
        e3a, e3b, e14 = make("E3a"), make("E3b"), make("E14")
        ks = np.arange(-6.0, 7.0)
        lattice, halves = ks * y, (ks + 0.5) * y
        for f in (e3a, e3b, e14):
            for xs in (lattice, halves):
                assert f.values(xs, y).tolist() == [f.value(x, y) for x in xs.tolist()]
        assert e3a.values(lattice, y).tolist() == ks.tolist()
        assert e3a.values(halves, y).tolist() == ks.tolist()
        assert e3b.values(lattice, y).tolist() == [-0.5] * ks.size
        assert e3b.values(halves, y) == pytest.approx(0.0, abs=1e-13)
        assert e14.values(lattice, y).tolist() == [1.0] * ks.size
        assert e14.values(halves, y).tolist() == [0.0] * ks.size
        # just off the half-lattice, the sign of 1/2 - {u}
        assert e14.value(halves[3] - 1e-6 * y, y) == 1.0
        assert e14.value(halves[3] + 1e-6 * y, y) == -1.0
        assert e3b.value(lattice[3] - 1e-6 * y, y) == pytest.approx(0.5 - 1e-6, abs=1e-12)


class TestAffineTransform:
    def test_scaled_reciprocal(self):
        F = affine_transform(make("E1"), 2.0, 0.0, 3.0)
        assert F.value(1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_shifted_floor_identity_sum(self):
        F = affine_transform(make("E3a"), 1.0, 0.5, 1.0)
        assert F.value(0.0, 2.0) + F.value(1.0, 2.0) == pytest.approx(F.value(0.0, 1.0), abs=0)

    def test_identity_transform(self):
        f = make("E9", r=0.5)
        F = affine_transform(f, 1.0, 0.0, 1.0)
        for x, y in ((0.0, 1.0), (-1.3, 0.7), (2.4, 3.1)):
            assert F.value(x, y) == pytest.approx(f.value(x, y), abs=0)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(RejectedInputError):
            affine_transform(make("E1"), 1.0, 0.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-3.0, 3.0),
        b=st.floats(-2.0, 2.0),
        c=st.floats(0.1, 4.0),
        n=st.integers(1, 6),
    )
    def test_preserves_invariance(self, a, b, c, n):
        F = affine_transform(make("E2", m=2), a, b, c)
        x, y = 0.37, 1.21
        assert scale_sum(F, x, y, n) == pytest.approx(F.value(x, y), abs=1e-9 * (1 + abs(a)))


class TestXDerivative:
    def test_constant_in_x(self):
        d = x_derivative(make("E1"))
        assert d.value(0.3, 2.0) == 0.0

    def test_bernoulli_degree_drop(self):
        d = x_derivative(make("E2", m=2))
        assert d.value(0.3, 1.0) == pytest.approx(2 * (0.3 - 0.5), abs=1e-12)

    def test_log_quotient_chain_rule(self):
        d = x_derivative(make("E7", r=0.5))
        e8 = make("E8", r=0.5)
        assert d.value(0.2, 1.0) == pytest.approx(4 * math.pi * e8.value(0.2, 1.0), abs=1e-8)

    def test_integrability(self):
        assert x_derivative(make("E2", m=2)).integrable_in_x
        assert x_derivative(make("E7", r=0.5)).integrable_in_x
        assert not x_derivative(make("E10")).integrable_in_x
        assert not x_derivative(make("E11")).integrable_in_x

    def test_fd_fallback_flagged(self):
        d = x_derivative(make("E10"))
        assert "fd-dx" in d.flags
        assert d.value(0.3, 1.0) == pytest.approx(math.pi / math.tan(0.3 * math.pi), abs=1e-6)


class TestReflect:
    def test_negates_odd_entry(self):
        f = make("E2", m=1)
        R = reflect(f)
        for x, y in ((0.3, 1.0), (-1.7, 2.5)):
            assert R.value(x, y) == pytest.approx(-f.value(x, y), abs=1e-14)

    def test_fixes_x_free_entry(self):
        f = make("E1")
        R = reflect(f)
        assert R.value(0.9, 0.4) == f.value(0.9, 0.4)

    def test_floor_reflection_sum(self):
        R = reflect(make("E3a"))
        assert R.value(0.3, 2.0) + R.value(1.3, 2.0) == pytest.approx(R.value(0.3, 1.0), abs=0)


class TestFracCompose:
    def test_wraps_linear_entry(self):
        F = frac_compose(make("E2", m=1), 0.0)
        assert F.value(1.7, 1.0) == pytest.approx(0.2, abs=1e-14)

    def test_x_free_entry_unchanged(self):
        F = frac_compose(make("E1"), 0.37)
        assert F.value(5.3, 2.0) == pytest.approx(0.5, abs=0)



class TestLinearCombination:
    def test_cancellation(self):
        f = make("E1")
        z = linear_combination([(1.0, f), (-1.0, f)])
        assert z.value(0.4, 2.0) == 0.0

    def test_scaling(self):
        g = linear_combination([(2.0, make("E1"))])
        assert g.value(0.0, 0.5) == pytest.approx(4.0, abs=0)

    def test_floor_plus_wrapped_fraction_is_linear(self):
        parts = linear_combination(
            [(1.0, make("E3a")), (1.0, frac_compose(make("E2", m=1), 0.0))]
        )
        whole = make("E2", m=1)
        for x, y in ((1.7, 1.0), (-0.4, 0.9), (3.3, 2.2)):
            assert parts.value(x, y) == pytest.approx(whole.value(x, y), abs=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(RejectedInputError):
            linear_combination([])


class TestStepDifference:
    def test_linear_entry(self):
        d = step_difference(make("E2", m=1))
        for x, y in ((0.3, 1.0), (-2.4, 0.6)):
            assert d(x, y) == pytest.approx(1.0, abs=1e-13)

    def test_x_free_entry(self):
        assert step_difference(make("E1"))(0.4, 1.7) == 0.0

    def test_floor_entry(self):
        assert step_difference(make("E3a"))(0.3, 1.0) == 1.0

    @pytest.mark.parametrize("eid,params", [("E3a", {}), ("E5", {"a": 2.0}), ("E10", {})])
    def test_scale_free(self, eid, params):
        f = make(eid, **params)
        d = step_difference(f)
        base = d(0.37, 0.8)
        for n in range(1, 9):
            assert d(0.37, 0.8 * n) == pytest.approx(base, abs=1e-10 * (1 + abs(base)))


class TestFourierConstructor:
    def test_geometric_closed_form(self):
        f = from_fourier(lambda t: 0.5 ** t, "cos", 1e-10)
        assert f.value(0.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_sine_series_matches_catalog_quotient(self):
        f = from_fourier(lambda t: 0.5 ** t, "sin", 1e-10)
        e8 = make("E8", r=0.5)
        assert f.value(0.2, 1.0) == pytest.approx(e8.value(0.2, 1.0), abs=1e-9)

    def test_zero_coefficients(self):
        f = from_fourier(lambda t: 0.0, "cos", 1e-10)
        assert f.value(0.3, 2.0) == 0.0

    def test_nonconvergence_raises(self):
        f = from_fourier(lambda t: t ** -1.05, "cos", 1e-10)
        with pytest.raises(ConvergenceError):
            f.value(0.3, 1.0)

    def test_rejects_bad_mode(self):
        with pytest.raises(RejectedInputError):
            from_fourier(lambda t: 0.5 ** t, "tan", 1e-10)


class TestCallVectorized:
    def test_error_of_the_array_call_propagates(self):
        calls = []

        def h(t):
            calls.append(t)
            return 1.0 / 0.0

        with pytest.raises(ZeroDivisionError):
            _call_vectorized(h, np.arange(3.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("h", [math.exp, lambda t: 1.0 if t > 0 else 0.0, lambda t: 0.0])
    def test_scalar_only_callable_is_mapped(self, h):
        args = np.array([-1.0, 0.5, 2.0])
        assert _call_vectorized(h, args).tolist() == [float(h(t)) for t in args.tolist()]


class TestTailSeriesConstructor:
    def test_exponential_closed_form(self):
        f = from_tail_series(lambda t: math.exp(-t), 1e-10)
        assert f.value(1.0, 1.0) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-9)

    def test_inverse_square_matches_zeta(self):
        f = from_tail_series(lambda t: t ** -2.0, 1e-6)
        assert f.value(0.5, 1.0) == pytest.approx(math.pi ** 2 / 2, abs=2e-6)

    def test_inverse_square_tight_tolerance_unreachable(self):
        f = from_tail_series(lambda t: t ** -2.0, 1e-9)
        with pytest.raises(ConvergenceError):
            f.value(0.5, 1.0)

    def test_zero_function(self):
        f = from_tail_series(lambda t: 0.0, 1e-10)
        assert f.value(0.3, 0.7) == 0.0


def _h(t):
    return 1.0 / (1.0 + t * t)


@pytest.mark.parametrize("build", [
    lambda: InvariantFunction("f", lambda x, y: 0.0, series_tolerance=math.inf),
    lambda: InvariantFunction("f", lambda x, y: 0.0, series_tolerance=math.nan),
    lambda: InvariantFunction("f", lambda x, y: 0.0, series_tolerance=-1e-9),
    lambda: frac_compose(make("E1"), math.nan),
    lambda: frac_compose(make("E1"), math.inf),
    lambda: linear_combination([(math.inf, make("E1"))]),
    lambda: linear_combination([(True, make("E1"))]),
    lambda: affine_transform(make("E1"), math.nan, 0.0, 1.0),
    lambda: from_fourier(_h, tol=math.inf),
    lambda: from_fourier(_h, tol=math.nan),
    lambda: from_tail_series(_h, tol=math.nan),
    lambda: convolve(make("E1"), make("E1"), tol=math.nan),
    lambda: antiderivative(make("E1"), tol=math.inf),
    lambda: EvalPoint(True, 1.0),
], ids=[
    "series-tolerance-inf", "series-tolerance-nan", "series-tolerance-negative",
    "frac-nan", "frac-inf", "lincomb-inf", "lincomb-bool", "affine-nan",
    "fourier-tol-inf", "fourier-tol-nan", "tail-tol-nan", "convolve-tol-nan",
    "antiderivative-tol-inf", "point-bool",
])
def test_constructors_reject_numbers_outside_the_definition(build):
    # numbers are finite reals but no bools; tolerances are finite and > 0
    with pytest.raises(RejectedInputError):
        build()


class TestCombinatorsStayInvariant:
    """Every constructor output re-enters the defining-identity suite."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: affine_transform(make("E5", a=2.0), 1.5, 0.25, 2.0),
            lambda: reflect(make("E10")),
            lambda: frac_compose(make("E2", m=2), 0.3),
            lambda: reflect(frac_compose(make("E2", m=2), 0.3)),
            lambda: linear_combination([(0.5, make("E1")), (2.0, make("E2", m=1))]),
            lambda: x_derivative(make("E7", r=2.0)),
            lambda: from_fourier(lambda t: 0.5 ** t, "cos", 1e-9),
            lambda: from_fourier(lambda t: 0.25 ** t, "sin", 1e-9),
        ],
    )
    def test_invariance(self, build):
        rep = check_invariance(build(), SMALL_GRID, 1e-7)
        assert rep.passed, (rep.function, rep.max_abs_error, rep.worst_witness)

    def test_tail_series_invariance(self):
        # positive-x window: at x = -3y the terms reach ~1e10 and an absolute
        # error measurement would only see float rounding
        from dataclasses import replace

        f = from_tail_series(lambda t: math.exp(-2.0 * t), 1e-9)
        grid = replace(SMALL_GRID, x_range=(0.05, 3.0))
        rep = check_invariance(f, grid, 1e-7)
        assert rep.passed, (rep.max_abs_error, rep.worst_witness)
