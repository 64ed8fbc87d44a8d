import functools
import math
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invk import quadrature
from invk.algebra import convolve
from invk.catalog import make
from invk.errors import ConvergenceError, RejectedInputError
from invk.quadrature import (
    _EPS,
    _WG,
    _WGK,
    _XGK,
    Vectorized,
    _gk15,
    _gk15_columns,
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


def _gk15_loop(fv, h):
    """The loop form of `_gk15`, QUADPACK's order of operations written with
    zips and slices: the oracle for the straight-line kernel."""
    fc = fv[7]
    left, right = fv[:7], fv[14:7:-1]
    pairs = [f1 + f2 for f1, f2 in zip(left, right)]
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    for w, f1, f2, p in zip(_WGK, left, right, pairs):
        resk += w * p
        resabs += w * (abs(f1) + abs(f2))
    resg = _WG[3] * fc + _WG[0] * pairs[1] + _WG[1] * pairs[3] + _WG[2] * pairs[5]
    reskh = 0.5 * resk
    resasc = _WGK[7] * abs(fc - reskh)
    for w, f1, f2 in zip(_WGK, left, right):
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    value = resk * h
    resasc *= abs(h)
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    floor = 50.0 * _EPS * resabs * abs(h)
    return value, max(err, floor), floor


def _outcome(fn, fv, h):
    try:
        return tuple(v.hex() if v == v else "nan" for v in fn(fv, h))
    except ArithmeticError as exc:  # a ** 1.5 that overflows
        return (type(exc).__name__,)


@functools.cache
def _seeded_panels(panels=100_000):
    """Node values and half-widths of seeded panels (smooth, wide-ranging,
    arbitrary-bit and constant rows, with NaN, +-inf, +-0.0, subnormals and
    h < 0 injected) and the loop oracle's outcome on each."""
    rng = np.random.default_rng(1983)
    specials = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                         2.2250738585072014e-308, 1e-310, -1e-310, 1.7e308, -1.7e308])
    smooth = rng.uniform(-1.0, 1.0, (panels, 1)) + rng.uniform(-1e-9, 1e-9, (panels, 15))
    wide = rng.standard_normal((panels, 15)) * 10.0 ** rng.integers(-320, 300, (panels, 15))
    bits = rng.integers(0, 2 ** 63, (panels, 15), dtype=np.int64).view(float)  # any double
    pick = rng.integers(0, 4, (panels, 1))
    fvs = np.where(pick == 0, smooth, np.where(pick == 1, wide, np.where(pick == 2, bits, 0.0)))
    flip = rng.random((panels, 15)) < 0.5
    fvs[flip] = -fvs[flip]
    constant = (pick == 3)[:, 0]
    fvs[constant] = rng.uniform(-2.0, 2.0, (int(constant.sum()), 1))  # resasc and err of 0
    inject = rng.random((panels, 15)) < 0.03
    fvs[inject] = rng.choice(specials, int(inject.sum()))
    hs = rng.uniform(-1.0, 1.0, panels) * 10.0 ** rng.integers(-320, 5, panels)
    hs[rng.random(panels) < 0.02] = rng.choice(specials, 1)[0]
    return fvs, hs, [_outcome(_gk15_loop, fv, h) for fv, h in zip(fvs.tolist(), hs.tolist())]


class TestKernel:
    def test_straight_line_kernel_equals_loop_oracle(self):
        fvs, hs, outcomes = _seeded_panels()
        with_nan = 0
        for fv, h, want in zip(fvs.tolist(), hs.tolist(), outcomes):
            assert _outcome(_gk15, fv, h) == want, (fv, h)
            with_nan += "nan" in want
        assert 0 < with_nan < len(hs) // 2
        assert (hs < 0.0).any() and np.isnan(fvs).any() and np.isinf(fvs).any()
        assert ((fvs != 0.0) & (np.abs(fvs) < 2.2250738585072014e-308)).any()  # subnormals

    def test_column_kernel_equals_loop_oracle(self):
        # one round of all 10^5 panels; the power never overflows on them,
        # nor anywhere: resasc bounds |resk - resg| up to the rounding of
        # the weights, so 200 err / resasc stays far below 1e205
        fvs, hs, outcomes = _seeded_panels()
        got = zip(*_gk15_columns(fvs.T, hs))
        assert [tuple(v.hex() if v == v else "nan" for v in t) for t in got] == outcomes

    def test_column_kernel_keeps_the_python_power_on_smooth_panels(self):
        # smooth panels scale their error by (200 err / resasc) ** 1.5 < 1;
        # numpy's power rounds ~5 % of such ratios differently from Python's
        rng = np.random.default_rng(1501)
        panels = 20_000
        xs = np.array([-x for x in _XGK[:7]] + [0.0] + list(_XGK[6::-1]))
        k = rng.uniform(0.0, 8.0, (panels, 1))
        fvs = np.exp(k * xs) * rng.uniform(-3.0, 3.0, (panels, 1)) + rng.uniform(-1.0, 1.0, (panels, 1))
        hs = rng.uniform(1e-4, 2.0, panels)
        want = [_gk15_loop(fv, h) for fv, h in zip(fvs.tolist(), hs.tolist())]
        assert list(zip(*_gk15_columns(fvs.T, hs))) == want


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

    def _lockstep(self, specs):
        """integrate_many over the jobs `specs`, each checked against a lone
        `integrate` bit for bit; returns the results and the job indices and
        width of each round."""
        calls, widths = [], []

        def batch(ts, owners):
            assert isinstance(ts, np.ndarray)
            own = np.repeat(owners, 15)
            out = np.empty(ts.size)
            for j in set(owners):
                out[own == j] = specs[j][0](ts[own == j])
            calls.append(sorted(set(owners)))
            widths.append(len(owners))
            return out

        jobs = [(a, b, cuts) for _, a, b, cuts in specs]
        got = integrate_many(batch, jobs, self.TOL)
        lone_calls = []
        for (fn, a, b, cuts), res in zip(specs, got):
            n = []
            want = integrate(Vectorized(lambda ts: n.append(0) or fn(ts)), a, b, self.TOL, cuts)
            lone_calls.append(len(n))
            assert res.value.hex() == want.value.hex()
            assert res.error_estimate.hex() == want.error_estimate.hex()
            assert (res.evaluations, res.converged) == (want.evaluations, want.converged)
        assert len(calls) == max(lone_calls)  # one batch per round
        assert 15 * sum(widths) == sum(r.evaluations for r in got)
        # a job takes part in exactly the rounds of its lone integral
        for j, n in enumerate(lone_calls):
            assert sum(j in c for c in calls) == n
        return got, widths

    def test_each_job_equals_a_lone_integral(self):
        got, _ = self._lockstep(self.JOBS)
        assert [r.converged for r in got] == [True, True, True, True, False, False, True]
        assert len({r.evaluations for r in got}) >= 5  # the jobs stop at different rounds

    def test_wide_rounds_run_as_columns(self, monkeypatch):
        columns = []

        def counted(fv, h):
            columns.append(h.size)
            return _gk15_columns(fv, h)

        monkeypatch.setattr(quadrature, "_gk15_columns", counted)
        got, widths = self._lockstep(self.JOBS * 6)
        wide = [w for w in widths if w >= quadrature._COLUMN_MIN]
        assert len(wide) >= 3 and min(widths) < quadrature._COLUMN_MIN  # both kinds of round
        assert columns == wide
        assert [r.converged for r in got] == [True, True, True, True, False, False, True] * 6

    def test_narrow_rounds_never_run_as_columns(self, monkeypatch):
        def refuse(fv, h):
            raise AssertionError("a narrow round reached the column kernel")

        monkeypatch.setattr(quadrature, "_gk15_columns", refuse)
        _, widths = self._lockstep(self.JOBS[:4])
        assert max(widths) < quadrature._COLUMN_MIN
        for fn, a, b, cuts in self.JOBS:
            integrate(Vectorized(fn), a, b, self.TOL, cuts)

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


class TestOutOfReach:
    """A job that no bisection can bring to its tolerance, because tol lies
    below the roundoff floor of its error estimate or below the error of
    its panels at the depth limit, ends unconverged at once; no job that
    converges changes."""

    def test_constant_below_floor_returns_unconverged(self):
        for tol in (5e-17, 1e-15):
            res = integrate(lambda t: 1.0, 0.0, 0.4, tol)
            assert not res.converged and res.evaluations <= 300
            assert res.value == 0.4 and res.error_estimate > tol
        assert integrate(lambda t: 1.0, 0.0, 0.4, 1e-14).converged

    def test_convolution_below_floor_raises_fast(self):
        conv = convolve(make("E1"), make("E1"), tol=1e-16)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            conv.value(0.3, 1.0)
        assert time.perf_counter() - start < 0.05

    def test_error_at_the_depth_limit_above_tol_stops(self):
        # an inverse-square-root singularity at a cut leaves ~1.5e-6 in its
        # panels at MAX_DEPTH, and 1/t at 0 is not integrable; both used to
        # spend the 20,000-panel budget (300,015 evaluations)
        kink = integrate(Vectorized(lambda ts: 1.0 / np.sqrt(np.abs(ts - 0.3))), 1.0, -0.5, 1e-8, (0.3,))
        pole = integrate(lambda t: 1.0 / t if t > 0 else 0.0, 0.0, 1.0, 1e-10)
        for res in (kink, pole):
            assert not res.converged and res.evaluations < 5_000

    E9 = make("E9", r=0.5)
    E10 = make("E10")
    CASES = [
        # (array integrand, a, b, interior singularities, tols at which it
        # converges, down to about its floor)
        (np.exp, 0.0, 1.0, (), (1e-13, 3e-14)),
        (lambda ts: np.cos(40.0 * ts), -1.0, 2.0, (), (1e-12, 3e-14)),
        (lambda ts: TestOutOfReach.E9.values(ts, 0.7), -1.1, 2.3, (), (1e-12, 1e-13)),
        (lambda ts: TestOutOfReach.E10.values(ts, 0.4), -0.9, 1.3,
         (-0.8, -0.4, 0.0, 0.4, 0.8, 1.2), (1e-10,)),
        (lambda ts: np.log(np.abs(ts)), 0.0, 1.0, (), (1e-12,)),
        (lambda ts: np.exp(-ts * ts), -3.0, 3.0, (-1.0, 1.0), (1e-13, 3e-14)),
    ]

    @staticmethod
    def _without_stop(monkeypatch, fn, a, b, tol, cuts=()):
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_out_of_reach", lambda *state: False)
            return integrate(Vectorized(fn), a, b, tol, cuts)

    @staticmethod
    def _same(got, want):
        assert got.value.hex() == want.value.hex()
        assert got.error_estimate.hex() == want.error_estimate.hex()
        assert (got.evaluations, got.converged) == (want.evaluations, want.converged)

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_converging_jobs_are_unchanged(self, case, monkeypatch):
        fn, a, b, cuts, tols = self.CASES[case]
        for tol in tols:
            want = self._without_stop(monkeypatch, fn, a, b, tol, cuts)
            assert want.converged, tol
            self._same(integrate(Vectorized(fn), a, b, tol, cuts), want)

    def test_seeded_tolerances_near_the_floor(self, monkeypatch):
        # tolerances from 3e-17 to 1e-11 across integrands with and without
        # endpoint singularities; a small panel budget keeps the runs that
        # cannot converge short, and the stop rules do not depend on it
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 400)
        rng = np.random.default_rng(7)
        integrands = [
            lambda p: lambda ts: np.exp(p * ts),
            lambda p: lambda ts: np.cos(20.0 * p * ts),
            lambda p: lambda ts: np.abs(ts - p / 3.0),
            lambda p: lambda ts: np.log(np.abs(ts)) * p,
            lambda p: lambda ts: 1.0 / (1.0 + (10.0 * p * ts) ** 2),
            lambda p: lambda ts: np.full(ts.shape, p),
        ]
        converged = stopped = 0
        for _ in range(120):
            fn = integrands[int(rng.integers(len(integrands)))](float(rng.uniform(-2.0, 2.0)))
            a = 0.0 if rng.random() < 0.3 else float(rng.uniform(-1.0, 1.0))
            b = float(rng.uniform(-1.0, 2.0))
            tol = float(10.0 ** rng.uniform(-16.5, -11.0))
            want = self._without_stop(monkeypatch, fn, a, b, tol)
            got = integrate(Vectorized(fn), a, b, tol)
            if want.converged:
                converged += 1
                self._same(got, want)
            else:
                assert not got.converged and got.evaluations <= want.evaluations
                stopped += got.evaluations < want.evaluations
        assert converged > 40 and stopped > 10


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
