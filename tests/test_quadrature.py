import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invk.catalog import make
from invk.errors import RejectedInputError
from invk.quadrature import (
    Vectorized,
    extrapolate_limit,
    integrate,
    integrate_many,
    limit_scaled,
    y_partial_fd,
)


class TestIntegrate:
    def test_linear(self):
        res = integrate(lambda t: t, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-14)
        assert res.evaluations >= 15

    def test_empty_interval(self):
        res = integrate(lambda t: 1.0 / t, 2.0, 2.0)
        assert res.value == 0.0 and res.converged

    def test_polynomial_exactness_to_degree_ten(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            deg = int(rng.integers(0, 11))
            coeffs = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(deg + 1)]
            a, b = Fraction(-1, 2), Fraction(5, 4)
            exact = sum(c * (b ** (j + 1) - a ** (j + 1)) / (j + 1) for j, c in enumerate(coeffs))

            def poly(t, cs=[float(c) for c in coeffs]):
                acc = 0.0
                for c in reversed(cs):
                    acc = acc * t + c
                return acc

            res = integrate(poly, float(a), float(b), tol=1e-13)
            assert res.value == pytest.approx(float(exact), rel=1e-13, abs=1e-13)

    def test_orientation_is_exact_negation(self):
        res_fwd = integrate(math.exp, 0.0, 2.0)
        res_rev = integrate(math.exp, 2.0, 0.0)
        assert res_rev.value == -res_fwd.value

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
        c=st.floats(-2.0, 2.0),
    )
    def test_additivity(self, a, b, c):
        f = math.cos
        whole = integrate(f, a, c, tol=1e-12).value
        split = integrate(f, a, b, tol=1e-12).value + integrate(f, b, c, tol=1e-12).value
        assert whole == pytest.approx(split, abs=5e-12)

    def test_endpoint_log_singularity(self):
        res = integrate(math.log, 0.0, 1.0, tol=1e-10)
        assert res.converged
        assert res.value == pytest.approx(-1.0, abs=1e-10)

    def test_euler_log_sine(self):
        res = integrate(lambda t: math.log(math.sin(t)), 0.0, math.pi / 2, tol=1e-11)
        assert res.value == pytest.approx(-math.pi / 2 * math.log(2.0), abs=1e-8)

    def test_interior_jump_with_split(self):
        f = make("E3a")
        res = integrate(
            lambda t: f.value(t, 1.0), -0.5, 1.5,
            tol=1e-12, interior_singularities=(0.0, 1.0),
        )
        assert res.value == pytest.approx(0.0, abs=1e-13)

    def test_converged_respects_tolerance_invariant(self):
        res = integrate(lambda t: math.exp(-t * t), -3.0, 3.0, tol=1e-9)
        assert res.converged and res.error_estimate <= 1e-9

    def test_honest_failure_on_nonintegrable(self):
        res = integrate(lambda t: 1.0 / t if t > 0 else 0.0, 0.0, 1.0, tol=1e-10)
        assert not res.converged

    def test_rejects_bad_tolerance(self):
        with pytest.raises(RejectedInputError):
            integrate(math.sin, 0.0, 1.0, tol=0.0)


def _inverse_sqrt_kink(t):
    return 1.0 / math.sqrt(abs(t - 0.3))


class TestVectorized:
    """An array integrand reaches the same panels, sums and counts as its
    scalar form; only the number of integrand calls changes."""

    E9 = make("E9", r=0.5)
    E10 = make("E10")

    CASES = [
        # (scalar, array, a, b, tol, interior singularities)
        (lambda t: TestVectorized.E9.value(t, 0.7), lambda ts: TestVectorized.E9.values(ts, 0.7),
         -1.1, 2.3, 1e-11, ()),
        (lambda t: TestVectorized.E9.value(t, 0.7), lambda ts: TestVectorized.E9.values(ts, 0.7),
         2.3, -1.1, 1e-11, ()),
        (_inverse_sqrt_kink, lambda ts: 1.0 / np.sqrt(np.abs(ts - 0.3)), 1.0, -0.5, 1e-8, (0.3,)),
        (lambda t: TestVectorized.E10.value(t, 0.4), lambda ts: TestVectorized.E10.values(ts, 0.4),
         -0.9, 1.3, 1e-10, (-0.8, -0.4, 0.0, 0.4, 0.8, 1.2)),
        (lambda t: t * t, lambda ts: ts * ts, 0.5, 0.5, 1e-10, ()),
        (lambda t: 1.0 / t if t > 0 else 0.0, lambda ts: np.where(ts > 0, 1.0 / ts, 0.0),
         0.0, 1.0, 1e-10, ()),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_same_result_as_scalar_form(self, case):
        scalar, array, a, b, tol, cuts = self.CASES[case]
        want = integrate(scalar, a, b, tol=tol, interior_singularities=cuts)
        got = integrate(Vectorized(array), a, b, tol=tol, interior_singularities=cuts)
        assert got.value.hex() == want.value.hex()
        assert got.error_estimate.hex() == want.error_estimate.hex()
        assert (got.evaluations, got.converged) == (want.evaluations, want.converged)

    def test_one_call_per_refinement_step(self):
        sizes = []

        def phi(ts):
            sizes.append(ts.size)
            return np.exp(-ts * ts)

        res = integrate(Vectorized(phi), -3.0, 3.0, tol=1e-12, interior_singularities=(-1.0, 1.0))
        assert sizes[0] == 3 * 15  # every initial panel at once
        assert sizes[1:] and all(n == 30 for n in sizes[1:])  # both halves of a bisection
        assert sum(sizes) == res.evaluations


class TestIntegrateMany:
    """Lockstep integrals: each job's result is a lone `integrate` of its
    integrand, bit for bit, and every round makes one batch call."""

    E9 = make("E9", r=0.5)
    E10 = make("E10")

    JOBS = [
        # (array integrand, a, b, interior singularities)
        (lambda ts: TestIntegrateMany.E9.values(ts, 0.7), -1.1, 2.3, ()),   # deep
        (lambda ts: TestIntegrateMany.E9.values(ts, 0.7), 2.3, -1.1, ()),   # reversed
        (lambda ts: np.exp(-ts * ts), -3.0, 3.0, (-1.0, 1.0)),              # shallow, cut
        (lambda ts: ts * ts, 0.5, 0.5, ()),                                 # a == b
        (lambda ts: 1.0 / np.sqrt(np.abs(ts - 0.3)), 1.0, -0.5, (0.3,)),    # reversed, cut
        (lambda ts: np.where(ts > 0, 1.0 / ts, 0.0), 0.0, 1.0, ()),         # unconverged
        (lambda ts: TestIntegrateMany.E10.values(ts, 0.4), -0.9, 1.3,
         (-0.8, -0.4, 0.0, 0.4, 0.8, 1.2)),                                 # many cuts
    ]
    TOL = 1e-10

    def test_each_job_equals_a_lone_integral(self):
        calls, sizes = [], []

        def batch(ts, owners):
            ts = np.array(ts)
            own = np.repeat(owners, 15)
            out = np.empty(ts.size)
            for j in set(owners):
                out[own == j] = self.JOBS[j][0](ts[own == j])
            calls.append(sorted(set(owners)))
            sizes.append(ts.size)
            return out.tolist()

        jobs = [(a, b, cuts) for _, a, b, cuts in self.JOBS]
        got = integrate_many(batch, jobs, self.TOL)
        lone_calls = []
        for (fn, a, b, cuts), res in zip(self.JOBS, got):
            n = []
            want = integrate(Vectorized(lambda ts: n.append(0) or fn(ts)), a, b, self.TOL, cuts)
            lone_calls.append(len(n))
            assert res.value.hex() == want.value.hex()
            assert res.error_estimate.hex() == want.error_estimate.hex()
            assert (res.evaluations, res.converged) == (want.evaluations, want.converged)
        assert [r.converged for r in got] == [True, True, True, True, False, False, True]
        assert len({r.evaluations for r in got}) >= 5  # the jobs stop at different rounds
        assert len(calls) == max(lone_calls)  # one batch per round
        assert sum(sizes) == sum(r.evaluations for r in got)
        # a job takes part in exactly the rounds of its lone integral
        for j, n in enumerate(lone_calls):
            assert sum(j in c for c in calls) == n

    def test_integrate_is_the_one_job_case(self):
        seen = []

        def batch(ts, owners):
            seen.append(owners)
            return np.cos(np.array(ts)).tolist()

        (res,) = integrate_many(batch, [(0.0, 5.0, (1.0,))], 1e-12)
        want = integrate(math.cos, 0.0, 5.0, 1e-12, (1.0,))
        assert (res.value.hex(), res.evaluations) == (want.value.hex(), want.evaluations)
        assert seen[0] == [0, 0] and all(o == [0, 0] for o in seen[1:])

    def test_rejects_bad_tolerance(self):
        with pytest.raises(RejectedInputError):
            integrate_many(lambda ts, owners: ts, [(0.0, 1.0, ())], -1.0)


class TestLimitScaled:
    def test_reciprocal_entry_is_constant_one(self):
        res = limit_scaled(make("E1"), 123.4)
        assert res.converged and res.value == pytest.approx(1.0, abs=1e-12)

    def test_floor_entry_recovers_x(self):
        res = limit_scaled(make("E3a"), 0.7)
        assert res.converged
        assert res.value == pytest.approx(0.7, abs=1e-7)

    def test_floor_entry_with_plateauing_binary_expansion(self):
        res = limit_scaled(make("E3a"), 4.108897076)
        assert res.converged
        assert res.value == pytest.approx(4.108897076, abs=1e-7)

    def test_bernoulli_entry_gives_power(self):
        res = limit_scaled(make("E2", m=2), 0.5)
        assert res.converged
        assert res.value == pytest.approx(0.25, abs=1e-10)

    def test_nonconvergence_reported(self):
        # sin(2^k) keeps oscillating along the dyadic sequence; no limit
        res = extrapolate_limit(lambda a: math.sin(1.0 / a), tol=1e-10, smooth=False)
        assert not res.converged
        res = extrapolate_limit(lambda a: math.sin(1.0 / a), tol=1e-10, smooth=True)
        assert not res.converged

    def test_extrapolate_known_quadratic(self):
        res = extrapolate_limit(lambda a: 3.0 + 2.0 * a - a * a, tol=1e-10)
        assert res.converged and res.value == pytest.approx(3.0, abs=1e-9)


class TestYPartialFd:
    def test_analytic_rule_preferred(self):
        assert y_partial_fd(make("E1"), 0.0, 1.0) == pytest.approx(-1.0, abs=1e-14)

    def test_scaled_bernoulli_fd(self):
        f = replace(make("E2", m=2), dy=None)
        got = y_partial_fd(f, 1.0, 2.0)
        assert got == pytest.approx(-(1.0 / 2.0) ** 2 + 1 / 6, abs=1e-9)

    def test_matches_analytic(self):
        f = make("E9", r=0.5)
        fd = y_partial_fd(replace(f, dy=None), 0.3, 1.1)
        assert fd == pytest.approx(f.dy(0.3, 1.1), abs=1e-8)

    def test_floor_locally_constant(self):
        assert y_partial_fd(make("E3a"), 0.3, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_y(self):
        with pytest.raises(RejectedInputError):
            y_partial_fd(make("E1"), 0.0, 0.0)
