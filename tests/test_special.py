import math
import re
import subprocess
import sys
import threading
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from invk import special
from invk.catalog import make
from invk.errors import (
    CapacityError,
    ConvergenceError,
    PoleError,
    RejectedInputError,
    UnsupportedRegionError,
)
from conftest import child_env
from invk.special import (
    TABLE_LIMIT,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_coeffs,
    bernoulli_poly_exact,
    bernoulli_scaled,
    bernoulli_scaled_array,
    hurwitz_zeta,
    hurwitz_zeta_scaled,
    hurwitz_zeta_scaled_array,
    log_gamma_abs,
    log_gamma_abs_array,
)


class TestBernoulliNumbers:
    def test_first_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(3) == 0
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_defining_recurrence_exact(self):
        # sum_{k<n} C(n,k) B_k = 0 for n >= 2
        # up to B_130: the table skips the vanishing odd terms, and the
        # Euler-Maclaurin coefficients use B_2..B_118
        for n in range(2, 131):
            acc = sum(math.comb(n, k) * bernoulli_number(k) for k in range(n))
            assert acc == 0, n

    def test_odd_indices_vanish(self):
        for m in range(1, 32):
            assert bernoulli_number(2 * m + 1) == 0

    def test_capacity_bound(self):
        with pytest.raises(CapacityError):
            bernoulli_number(TABLE_LIMIT + 1)
        for bad in (-1, 4.0, 2.5):  # an index is an int >= 0
            with pytest.raises(RejectedInputError):
                bernoulli_number(bad)
        with pytest.raises(RejectedInputError):
            bernoulli_poly_coeffs(2.0)

    def test_tangent_number_table_equals_the_defining_recurrence(self):
        # the even Bernoulli numbers that import converts to the
        # Euler-Maclaurin coefficients, at every even n up to the cap, and
        # the coefficients themselves from the recurrence's Fractions
        table = special._even_bernoulli_numbers(TABLE_LIMIT)
        assert len(table) == TABLE_LIMIT // 2
        for j, b in enumerate(table, start=1):
            assert b == bernoulli_number(2 * j), 2 * j
        want = tuple(special._ld(bernoulli_number(2 * j)) / np.longdouble(math.factorial(2 * j))
                     for j in range(1, len(special._EM_COEFFS) + 1))
        assert special._EM_COEFFS == want

    def test_import_leaves_the_recurrence_cache_empty(self):
        # the Euler-Maclaurin table no longer runs the O(n^2) Fraction
        # recurrence at import
        code = ("import invk, invk.cli\n"
                "from invk.special import bernoulli_number\n"
                "print(bernoulli_number.cache_info().currsize)")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "0"

    def test_matches_akiyama_tanigawa_up_to_the_cap(self):
        oracle = _akiyama_tanigawa(TABLE_LIMIT)
        for n in range(TABLE_LIMIT + 1):
            assert bernoulli_number(n) == oracle[n], n

    def test_concurrent_first_use(self):
        # every thread races the others through an empty cache
        oracle = _akiyama_tanigawa(200)
        coeffs_40 = tuple(math.comb(40, j) * oracle[40 - j] for j in range(41))
        bernoulli_number.cache_clear()
        bernoulli_poly_coeffs.cache_clear()
        start = threading.Barrier(8, timeout=30)
        results = []

        def work():
            start.wait()
            results.append((bernoulli_number(200), bernoulli_poly_coeffs(40)))

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [(oracle[200], coeffs_40)] * 8


def _akiyama_tanigawa(n_max):
    """B_0..B_n_max by the Akiyama-Tanigawa transform, an algorithm
    independent of the defining recurrence; it yields B_1 = +1/2, so the
    sign is turned to the package's B_1 = -1/2."""
    row, out = [], []
    for m in range(n_max + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    out[1] = -out[1]
    return out


class TestBernoulliPolynomials:
    def test_midpoint_of_linear(self):
        assert bernoulli_poly(1, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_value(self):
        # t^2 - t + 1/6 at t = 0.3
        assert bernoulli_poly(2, 0.3) == pytest.approx(0.09 - 0.3 + 1 / 6, abs=1e-15)

    def test_exact_rational_evaluation(self):
        assert bernoulli_poly_exact(3, Fraction(1, 2)) == 0
        assert bernoulli_poly_exact(2, Fraction(1, 4)) == Fraction(1, 16) - Fraction(1, 4) + Fraction(1, 6)

    def test_coefficients_match_binomial_form(self):
        cs = bernoulli_poly_coeffs(4)
        assert cs[4] == 1 and cs[3] == -2 and cs[2] == 1 and cs[0] == Fraction(-1, 30)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=12),
        t=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    def test_reflection_symmetry(self, m, t):
        lhs = bernoulli_poly(m, 1.0 - t)
        rhs = (-1.0) ** m * bernoulli_poly(m, t)
        assert lhs == pytest.approx(rhs, abs=1e-11 * (1 + abs(rhs)))

    def test_multiplication_theorem_exact(self):
        # sum_{r<n} B_m(x + r/n) = n^(1-m) B_m(n x), exactly in rationals
        for m in range(0, 6):
            for n in range(1, 6):
                for x in (Fraction(1, 3), Fraction(2, 7), Fraction(-3, 5)):
                    lhs = sum(bernoulli_poly_exact(m, x + Fraction(r, n)) for r in range(n))
                    rhs = Fraction(1, n) ** (m - 1) * bernoulli_poly_exact(m, n * x)
                    assert lhs == rhs, (m, n, x)


def _zeta_sum_oracle(s, x, terms=10 ** 6):
    """Brute-force partial sum with an integral bracket for the tail."""
    k = np.arange(terms, dtype=float)
    partial = float(np.sum((k + x) ** (-s)))
    hi = (terms - 1 + x) ** (1 - s) / (s - 1)  # tail <= integral from terms-1
    lo = (terms + x) ** (1 - s) / (s - 1)
    return partial + lo, partial + hi


class TestHurwitzZetaUpperBranch:
    def test_against_direct_summation(self):
        lo, hi = _zeta_sum_oracle(2.0, 1.0)
        val = hurwitz_zeta(2.0, 1.0)
        assert lo - 1e-12 <= val <= hi + 1e-12
        assert val == pytest.approx(math.pi ** 2 / 6, abs=1e-12)

    def test_index_shift(self):
        assert hurwitz_zeta(2.0, 2.0) == pytest.approx(hurwitz_zeta(2.0, 1.0) - 1.0, abs=1e-12)

    def test_half_argument(self):
        assert hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi ** 2 / 2, abs=1e-12)

    @pytest.mark.parametrize("s", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("x", [0.3, 1.0, 2.7, 15.0])
    def test_against_scipy(self, s, x):
        assert hurwitz_zeta(s, x) == pytest.approx(
            float(scipy.special.zeta(s, x)), rel=1e-12, abs=1e-13
        )

    def test_rejects_bad_arguments(self):
        # the scaled value and its array twin reject what zeta(s, x/y) does
        scaled = (
            lambda s, x: hurwitz_zeta_scaled(s, 0.5 * x, 0.5),
            lambda s, x: hurwitz_zeta_scaled_array(s, np.array([0.5, 0.5 * x]), 0.5),
        )
        for zeta in (hurwitz_zeta, *scaled):
            with pytest.raises(UnsupportedRegionError):
                zeta(0.5, 1.0)
            with pytest.raises(UnsupportedRegionError):
                zeta(1.0, 1.0)
            for s, x in ((2.0, 0.0), (2.0, -1.0), (2.0, math.nan), (-1.0, math.inf), (math.nan, 1.0)):
                with pytest.raises(RejectedInputError):
                    zeta(s, x)

    @pytest.mark.parametrize("s", [30.0, 40.0, 50.0, 80.0, 160.0])
    def test_large_order_against_high_precision(self, s):
        # the Euler-Maclaurin tail is asymptotic, with term ratio
        # ~ (s + 2j)^2 / (2 pi a)^2, so it starts at a >= s; a 16 start left
        # 5.6e-10 at s = 40, x = 15.9 and 7.32e-88 for 7.79e-97 at s = 80
        rng = np.random.default_rng(int(s))
        lo = max(0.01, 10.0 ** (-300.0 / s))  # keep x^-s inside the doubles
        xs = np.concatenate([np.exp(rng.uniform(math.log(lo), math.log(100.0), 12)),
                             [15.9, 16.0, s - 0.5, s, 1000.0]])
        got = [hurwitz_zeta(s, x) for x in xs.tolist()]
        assert special._hurwitz_sum_ld(s, xs).astype(float).tolist() == got
        for x, value in zip(xs.tolist(), got):
            want = _zeta_oracle(s, x, 2.0 * s)
            assert abs(_zeta_oracle(s, x, 3.0 * s) - want) <= 1e-30 * want
            if want > 1e-290:  # past that the double is subnormal or 0
                assert abs(value - want) <= 4 * _EPS * want, (s, x)

    def test_tail_out_of_coefficients_raises(self, monkeypatch):
        # the tail does not reach its stop within the coefficients: an error,
        # not the partial sum
        monkeypatch.setattr(special, "_EM_COEFFS", special._EM_COEFFS[:1])
        with pytest.raises(ConvergenceError):
            hurwitz_zeta(2.0, 0.5)
        with pytest.raises(ConvergenceError):
            special._hurwitz_sum_ld(2.0, np.array([0.5, 3.0]))

    def test_huge_order_stops_in_the_direct_sum(self):
        # past the anchor a direct term below 1e-17 of the sum ends it
        for x, want in ((1.0, 1.0), (20.0, 0.0), (1e301, 0.0)):
            assert hurwitz_zeta(1e300, x) == want
            assert special._hurwitz_sum_ld(1e300, np.array([x])).astype(float).tolist() == [want]


def _zeta_oracle(s, x, start):
    """zeta(s, x) in 40 digits, for s > 1: the direct sum until x + n >= start,
    then the Euler-Maclaurin tail, whose terms fall like (s + 2j)^2 / (2 pi
    start)^2.  mpmath.zeta is no oracle at a large s: at (40, 1000) it is off
    by 3e-10 relative at 120 digits, and at (80, 1000) by 3e-15 at 200."""
    with mpmath.workdps(40):
        s, x = mpmath.mpf(s), mpmath.mpf(x)
        n = max(0, math.ceil(start - x))
        acc = mpmath.fsum((x + k) ** -s for k in range(n))
        a = x + n
        acc += a ** (1 - s) / (s - 1) + a ** -s / 2
        rising, apow = s, a ** (-s - 1)
        for j in range(1, 40):
            acc += mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * rising * apow
            rising *= (s + 2 * j - 1) * (s + 2 * j)
            apow /= a * a
        return acc


_EPS = 2.0 ** -52
_UNIT_INTERVAL_X = (1e-7, 0.3, 0.85, 1.0 - 1e-12, 1.0)


class TestHurwitzZetaLowerBranch:
    def test_quarter_point_closed_form(self):
        # zeta(-1, 1/4) = -B_2(1/4)/2 = 1/96
        assert hurwitz_zeta(-1.0, 0.25) == pytest.approx(1 / 96, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 4])
    def test_bridge_to_bernoulli(self, m):
        for x in np.arange(0.1, 0.95, 0.1):
            x = float(x)
            want = -bernoulli_poly(m, x) / m
            assert hurwitz_zeta(1.0 - m, x) == pytest.approx(want, abs=1e-6), (m, x)

    def test_against_mpmath_inside_unit_interval(self):
        # Euler-Maclaurin side of the split, -4 <= s < 0
        for s in (-0.5, -1.0, -1.5, -2.0, -2.5, -3.0, -3.7, -4.0):
            for x in _UNIT_INTERVAL_X + (0.4, 0.6):
                want = float(mpmath.zeta(s, x))
                assert abs(hurwitz_zeta(s, x) - want) <= 1e-13 * max(1.0, abs(want)), (s, x)

    @pytest.mark.parametrize("s", [-5.5, -6.0, -7.0, -8.0, -10.5, -12.0, -15.0, -20.5])
    def test_trigonometric_series_side_against_mpmath(self, s):
        # s < -4, where the direct sum would cancel catastrophically
        for x in _UNIT_INTERVAL_X:
            want = float(mpmath.zeta(s, x))
            assert abs(hurwitz_zeta(s, x) - want) <= 1e-11 * max(1.0, abs(want)), (s, x)

    @pytest.mark.parametrize("s", [-6.0, -8.0, -40.0, -100.0, -168.0])
    def test_trivial_zeros_are_exact(self, s):
        # zeta(-2m) = 0, and zeta(-2m, 1/2) = (2^(2m) - 1) zeta(-2m) = 0; the
        # series prefactor is ~5e77 at s = -100, so any rounding shows
        for x in (1.0, 0.5, 3.0):
            assert math.copysign(1.0, hurwitz_zeta(s, x)) == 1.0 and hurwitz_zeta(s, x) == 0.0

    @pytest.mark.parametrize("s", [-2.0, -4.0])
    def test_trivial_zeros_of_the_direct_sum_are_exact(self, s):
        # the Euler-Maclaurin side, where the sum once left -3.7e-17 at
        # zeta(-2, 1) and -2.9e-15 at zeta(-4, 1), which y^-s scales up:
        # E13 gave -3,708 at (x, y) = (0, 1e10) and -inf at y = 1e300
        for x in (1.0, 0.5, 3.0, 2.5):
            assert math.copysign(1.0, hurwitz_zeta(s, x)) == 1.0 and hurwitz_zeta(s, x) == 0.0
        for y in (1.0, 0.75, 1e10, 1e300):
            xs = np.array([0.0, 0.5 * y, -y, 2.5 * y, 0.3 * y])
            got = [hurwitz_zeta_scaled(s, x, y) for x in xs.tolist()]
            assert [v.hex() for v in got[:4]] == [(0.0).hex()] * 4, (s, y)
            assert got[4] != 0.0
            assert np.array_equal(hurwitz_zeta_scaled_array(s, xs, y), got)
            assert make("E13", s=s).value(0.0, y) == 0.0
        # off the zeros nothing moves: zeta(-2, u) = -B_3(u)/3
        assert hurwitz_zeta(-2.0, 0.25) == pytest.approx(-bernoulli_poly(3, 0.25) / 3.0, abs=1e-15)

    @pytest.mark.parametrize("s", [-171.0, -200.0, -1e4])
    def test_overflowing_region_is_unsupported(self, s):
        with pytest.raises(UnsupportedRegionError, match="overflows"):
            hurwitz_zeta(s, 0.3)

    def test_periodized_outside_unit_interval(self):
        # the expansion is 1-periodic: outside (0, 1] the periodized value is
        # returned, which differs from the unreduced continuation
        assert hurwitz_zeta(-1.5, 2.7) == pytest.approx(hurwitz_zeta(-1.5, 0.7), abs=1e-12)
        assert abs(hurwitz_zeta(-1.5, 2.7) - float(mpmath.zeta(-1.5, 2.7))) > 1e-3

    def test_lattice_value_is_riemann_zeta(self):
        # continuity at integers: value equals zeta(s)
        assert hurwitz_zeta(-1.0, 1.0) == pytest.approx(-1 / 12, abs=1e-14)
        assert hurwitz_zeta(-1.0, 3.0) == pytest.approx(-1 / 12, abs=1e-14)


class TestArrayTwinsPastTheDoubles:
    """E2's and E13's array rules round a value past the largest double to
    inf, as their scalar rules do, and raise no overflow warning on the way
    (tier-1 turns one into an error)."""

    @pytest.mark.parametrize("eid, params, x", [("E13", {"s": 160.0}, 0.01), ("E2", {"m": 200}, 1000.0)])
    def test_descriptor_values_equal_value(self, eid, params, x):
        f = make(eid, **params)
        assert f.value(x, 1.0) == math.inf
        assert f.values(np.array([x, 0.5]), 1.0).tolist() == [math.inf, f.value(0.5, 1.0)]

    def test_seeded_orders_and_scales(self):
        # overflow in the quotient x/y, in the polynomial or the sum, and in
        # the scale power y^(m-1) or y^-s.  Past the long double too (y^-s
        # at y = 1e-200 and 1e200, (x/y)^-s near x/y = 1e-3 at s = 1000),
        # where both rules give inf without a warning; and where y^(m-1)
        # underflows to 0 and B_m(x/y) is past the doubles, both give 0.0,
        # since B_m(x/y) stays a long double; and E13's zeta(s, x/y) stays a
        # long double where its double is 0 or inf, so neither entry forms
        # 0 * inf or warns
        rng = np.random.default_rng(160)
        outcomes, warned = [], set()
        for y in (1.0, 0.25, 7.0, 1e-3, 1e-200, 1e200):
            xs = (10.0 ** rng.uniform(-3.0, 5.0, 12) * y).tolist()
            rules = [(partial(bernoulli_scaled, m), partial(bernoulli_scaled_array, m), x)
                     for m in (2, 3, 120, 200, 256) for x in xs + [-x for x in xs]]
            rules += [(partial(hurwitz_zeta_scaled, s), partial(hurwitz_zeta_scaled_array, s), x)
                      for s in (20.0, 160.0, 1000.0, -3.5, -40.0) for x in xs]
            for scalar, array, x in rules:
                want = _outcome(lambda: scalar(x, y))
                assert _outcome(lambda: array(np.array([x]), y)[0]) == want, (scalar, x, y)
                outcomes.append(want)
                if want == "RuntimeWarning":
                    warned.add(scalar.func)
        assert outcomes.count(math.inf) + outcomes.count(-math.inf) > 100
        assert warned == set()

    @pytest.mark.parametrize("m, x, y", [(100, 1e3, 1e-5), (120, 1e-195, 1e-200)])
    def test_bernoulli_past_the_doubles_before_the_power(self, m, x, y):
        # B_m(x/y) past the doubles, times a y^(m-1) that brings the value
        # inside them (B_100(1e8) y^99 ~ 1e305) or below them (B_120(1e5)
        # y^119 ~ 1e-23201, y^119 itself below the long double): both rules
        # keep B_m(x/y) in the long double, and give neither inf nor 0 * inf
        got = _outcome(lambda: bernoulli_scaled(m, x, y))
        twin = _outcome(lambda: bernoulli_scaled_array(m, np.array([x]), y)[0])
        assert got.hex() == float(twin).hex()
        with mpmath.workdps(50):
            want = float(mpmath.mpf(y) ** (m - 1) * mpmath.bernpoly(m, mpmath.mpf(x) / mpmath.mpf(y)))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert want != 0.0 or got == 0.0

    @pytest.mark.parametrize("m, x, y", [(256, 1e-180, 1e-200), (64, 1e-170, 1e-190), (256, 1e20, 1.0)])
    def test_bernoulli_past_the_reach(self, m, x, y):
        # |x/y| = 1e20 is past _BERNOULLI_REACH, where the value is x^m / y
        # within an ulp: 0.0 where B_m(x/y) passes the long double and y^(m-1)
        # falls below it (once 0 * inf = nan, with numpy's invalid-value
        # warning), inf where x^m / y passes the doubles
        got = _outcome(lambda: bernoulli_scaled(m, x, y))
        twin = _outcome(lambda: bernoulli_scaled_array(m, np.array([x]), y)[0])
        assert got.hex() == float(twin).hex()
        with mpmath.workdps(50):
            want = float(mpmath.mpf(y) ** (m - 1) * mpmath.bernpoly(m, mpmath.mpf(x) / mpmath.mpf(y)))
        assert got == want

    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_bernoulli_exact_zero_past_the_long_double(self, x):
        # B_255(0) = 0 exactly, and y^254 = 1e5080 passes the long double:
        # the value is 0.0, once 0 * inf = nan with numpy's invalid-value
        # warning.  (255, 5e19, 1e20) still gives -inf: B_255(1/2) = 0, but
        # its ill-conditioned Horner sum rounds to a nonzero long double
        got = _outcome(lambda: bernoulli_scaled(255, x, 1e20))
        twin = _outcome(lambda: bernoulli_scaled_array(255, np.array([x]), 1e20)[0])
        assert got.hex() == float(twin).hex() == (0.0).hex()

    @pytest.mark.parametrize("s, x, y, want", [
        (160.0, 1.3e-196, 1e-200, math.inf),  # zeta ~1e-658 rounds to 0, y^-s passes the long double
        (160.0, 2.7e197, 1e200, 0.0),  # zeta ~1e411 rounds to inf, y^-s underflows it
        (-40.0, 0.0, 1e200, 0.0),  # the trivial zero zeta(-40, 1) = 0 times y^40 = 1e8000
        (-40.0, 5e199, 1e200, 0.0),  # zeta(-40, 1/2) = 0
    ])
    def test_zeta_rounded_to_zero_or_inf(self, s, x, y, want):
        # once nan from 0 * inf, with numpy's invalid-value warning
        got = _outcome(lambda: hurwitz_zeta_scaled(s, x, y))
        twin = _outcome(lambda: hurwitz_zeta_scaled_array(s, np.array([x]), y)[0])
        assert got.hex() == float(twin).hex() == want.hex()
        if s > 1.0:
            with mpmath.workdps(30):
                assert float(mpmath.mpf(y) ** -s * mpmath.zeta(s, mpmath.mpf(x) / mpmath.mpf(y))) == want

    @pytest.mark.parametrize("rule, twin, args", [
        (hurwitz_zeta_scaled, hurwitz_zeta_scaled_array, (80.0, 2e-201, 1e-200)),  # y^-s
        (hurwitz_zeta_scaled, hurwitz_zeta_scaled_array, (80.0, 1e-70, 1.0)),  # (x/y)^-s
        (hurwitz_zeta_scaled, hurwitz_zeta_scaled_array, (-40.0, 0.3, 1e300)),  # y^-s, s < 0
        (bernoulli_scaled, bernoulli_scaled_array, (200, 1e30, 1.0)),  # Horner's loop
        (bernoulli_scaled, bernoulli_scaled_array, (256, 1e20, 1e20)),  # y^(m-1)
    ])
    def test_scalar_rule_past_the_long_double_is_infinite(self, rule, twin, args):
        # as its twin gives it, and without the overflow warning that
        # tier-1's warning policy turns into an error
        order, x, y = args
        got = rule(order, x, y)
        assert math.isinf(got) and got == twin(order, np.array([x]), y)[0]

    def test_scalar_rules_hand_only_rare_points_to_their_twins(self, monkeypatch):
        # on E2's and E13's suite scales every scalar call stays scalar; the
        # points past the long double above go to the array twins
        calls = []
        for name in ("bernoulli_scaled_array", "hurwitz_zeta_scaled_array"):
            twin = getattr(special, name)
            monkeypatch.setattr(special, name, lambda *a, twin=twin: calls.append(a) or twin(*a))
        rng = np.random.default_rng(4)
        for y in rng.uniform(0.25, 40.0, 20).tolist():
            for x in (rng.uniform(-3.0, 3.0, 5) * y).tolist():
                for m in (1, 2, 3, 6):
                    bernoulli_scaled(m, x, y)
                for s in (-1.0, -2.0, -3.7):
                    hurwitz_zeta_scaled(s, x, y)
                for s in (2.0, 3.0):
                    hurwitz_zeta_scaled(s, abs(x) + 1e-3, y)
        for s in (-2.0, -4.0, -6.0):  # the trivial zeros, at u = 1 and 1/2
            for y in (0.75, 4.0):
                assert hurwitz_zeta_scaled(s, 3.0 * y, y) == hurwitz_zeta_scaled(s, 2.5 * y, y) == 0.0
        assert calls == []
        assert bernoulli_scaled(200, 1e30, 1.0) == math.inf and len(calls) == 1
        assert hurwitz_zeta_scaled(80.0, 2e-201, 1e-200) == math.inf and len(calls) == 2

    def test_bernoulli_reach_keeps_every_order_inside_the_long_double(self):
        # below the reach in |x/y| and y, B_m's Horner sums (at most
        # sum_j |c_j| max(1, |t|)^m) and y^(m-1) times a double stay inside
        # the long double, for every order the table serves
        reach = special._BERNOULLI_REACH
        for m in range(TABLE_LIMIT + 1):
            total = sum(abs(c) for c in bernoulli_poly_coeffs(m))  # past the doubles at m ~ 250
            log_sum = math.log(total.numerator) - math.log(total.denominator)
            assert log_sum + m * math.log(reach) < special._LD_LOG_MAX - 1.0, m
            assert (m - 1) * math.log(reach) < special._POWER_REACH, m


def _outcome(call):
    try:
        return call()
    except RuntimeWarning:
        return "RuntimeWarning"


def _log_gamma_ref(t):
    with mpmath.workdps(40):
        return float(mpmath.log(abs(mpmath.gamma(mpmath.mpf(t)))))


class TestLogGammaAbs:
    def test_anchor_values(self):
        assert log_gamma_abs(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma_abs(2.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma_abs(5.0) == pytest.approx(math.log(24.0), abs=1e-13)
        assert log_gamma_abs(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)

    @pytest.mark.parametrize(
        "t",
        [0.01, 0.1, 0.37, 1.5, 3.0, 9.99, 10.0, 25.0, 123.456, 1e4, 1e6,
         -0.5, -2.5, -7.3, -19.99, -123.4],
    )
    def test_against_libm(self, t):
        # the reference is mpmath at 40 digits: math.lgamma is what
        # log_gamma_abs returns, so it cannot serve as its own oracle
        want = _log_gamma_ref(t)
        got = log_gamma_abs(t)
        if abs(want) <= 1e3:
            assert got == pytest.approx(want, abs=1e-12)
        else:
            assert got == pytest.approx(want, rel=5e-14)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_rejects_a_non_finite_argument(self, t):
        # math.lgamma(+-inf) is inf without raising
        with pytest.raises(RejectedInputError, match="finite"):
            log_gamma_abs(t)

    def test_near_pole_reflection_accuracy(self):
        t = -3.0 + 1e-7
        assert log_gamma_abs(t) == pytest.approx(_log_gamma_ref(t), rel=1e-11)

    def test_seeded_and_near_pole_accuracy(self):
        # within 1e-14 * max(1, |ref|) of 40 digits on both half-lines and at
        # 1e-12 .. 1e-3 on either side of the poles 0, -1, ..., -24; the
        # array form is the scalar one, bit for bit
        rng = np.random.default_rng(20261018)
        near = [-k + side * 10.0 ** -e for k in range(25) for e in range(3, 13) for side in (-1.0, 1.0)]
        ts = np.concatenate((rng.uniform(0.001, 50.0, 400), rng.uniform(-30.0, 0.0, 400), near))
        got = [log_gamma_abs(t) for t in ts.tolist()]
        for t, g in zip(ts.tolist(), got):
            want = _log_gamma_ref(t)
            assert abs(g - want) <= 1e-14 * max(1.0, abs(want)), t
        assert log_gamma_abs_array(ts).tolist() == got

    @pytest.mark.parametrize("ts,pole", [
        ([0.0, 0.5, 2.5], 0.0),
        ([0.5, 2.5, -3.0, 1.5, -4.0], -3.0),
        ([1.5, -0.0, 0.25], -0.0),
        ([1.5, -2.0 ** 53, -0.5], -2.0 ** 53),
        ([-1e300, -0.5], -1e300),
    ])
    def test_array_rule_names_the_first_pole(self, ts, pole):
        # math.lgamma raises at each pole; the array rule names the first
        with pytest.raises(PoleError, match=f"t={re.escape(repr(pole))}$"):
            log_gamma_abs_array(np.array(ts))
        with pytest.raises(RejectedInputError):
            log_gamma_abs_array(np.array([0.5, math.inf]))

    def test_unit_arguments_are_exact(self):
        assert log_gamma_abs(1.0) == log_gamma_abs(2.0) == 0.0

    def test_poles_raise(self):
        for t in (0.0, -1.0, -6.0):
            with pytest.raises(PoleError):
                log_gamma_abs(t)

    def test_recurrence(self):
        # log Gamma(t+1) = log t + log Gamma(t)
        for t in (0.3, 2.6, 7.9):
            assert log_gamma_abs(t + 1.0) == pytest.approx(
                math.log(t) + log_gamma_abs(t), abs=1e-12
            )
