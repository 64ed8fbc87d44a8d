import json
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from invk import covering, quadrature, verify
from invk.catalog import make
from invk.core import EPS_SING, affine_transform, frac_compose, linear_combination, reflect
from invk.covering import parse_system
from invk.errors import ConvergenceError, RejectedInputError
from invk.quadrature import LimitResult, QuadratureResult, integrate
from invk.special import ZETA_NEG_TOLERANCE, bernoulli_poly, log_gamma_abs
from invk.verify import (
    DEFAULT_GRID,
    GridSpec,
    check_bernoulli_convolution,
    check_bernoulli_integral_identity,
    check_covering_certificates,
    check_exchange,
    check_integral_limit,
    check_invariance,
    check_known_integrals,
    check_parity,
    check_product_integral,
    check_step_limit,
    check_y_derivative_identities,
    check_zeta_convolution,
    golden_integral,
    zeta_power_kernel,
)

from conftest import SMALL_GRID, scale_sum

PROBE_GRID = replace(SMALL_GRID, samples=9)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(RejectedInputError):
            GridSpec(samples=0)
        with pytest.raises(RejectedInputError):
            GridSpec(n_max=0)
        with pytest.raises(RejectedInputError):
            GridSpec(x_range=(2.0, 2.0))
        with pytest.raises(RejectedInputError):
            GridSpec(y_range=(0.0, 1.0))
        with pytest.raises(RejectedInputError):
            GridSpec(seed=-1)


def _points_clear(f, needed):
    """The per-point clearance test: each point asks for the singular points
    in its own window of 4 EPS_SING y' around it."""
    for x, y in needed:
        if f.domain is not None and not f.domain(x, y):
            return False
        margin = EPS_SING * y
        if any(abs(x - s) < margin for s in f.singular_points(y, x - 4.0 * margin, x + 4.0 * margin)):
            return False
    return True


class TestGridPoints:
    E10 = make("E10")
    CASES = [
        make("E3a"), E10, make("E12"), make("E14"), make("E13", s=2.0),
        affine_transform(E10, 2.0, -0.3, 0.75),
        reflect(make("E3b")),
        frac_compose(make("E3a"), 0.3, "minus"),
        linear_combination([(1.0, make("E3a")), (2.0, affine_transform(E10, 1.0, 0.1, 1.0))]),
    ]

    @pytest.mark.parametrize("f", CASES, ids=lambda f: f.name)
    def test_per_scale_clearance_equals_the_per_point_test(self, f):
        # invariance samples, most with one eval point moved to within
        # 2 EPS_SING y' of a singular point of its scale, inside or outside
        # the margin
        rng = np.random.default_rng(23)
        points = verify._invariance_eval_points(replace(DEFAULT_GRID, n_max=6))
        outcomes = set()
        for _ in range(300):
            y = float(rng.uniform(0.25, 4.0))
            needed = points(float(rng.uniform(-3.0, 3.0)) * y, y)
            i = int(rng.integers(len(needed)))
            xe, ye = needed[i]
            near = f.singular_points(ye, xe - ye, xe + ye)
            if near and rng.random() < 0.7:
                s = near[int(rng.integers(len(near)))]
                needed[i] = (s + float(rng.uniform(-2.0, 2.0)) * EPS_SING * ye, ye)
            want = _points_clear(f, needed)
            assert verify._sample_clear(f, needed) == want, needed
            outcomes.add(want)
        assert outcomes == {True, False}


class TestInvariance:
    def test_floor_single_probe_by_hand(self):
        f = make("E3a")
        assert scale_sum(f, 1.0, 0.7, 3) == 1.0 == f.value(1.0, 0.7)

    def test_reciprocal_near_machine(self):
        rep = check_invariance(make("E1"), SMALL_GRID, 1e-8)
        assert rep.passed and rep.max_abs_error <= 1e-15

    def test_cubic_bernoulli_tight(self):
        rep = check_invariance(make("E2", m=3), DEFAULT_GRID, 1e-9)
        assert rep.passed

    def test_report_shape(self):
        rep = check_invariance(make("E5", a=2.0), SMALL_GRID, 1e-8)
        d = rep.to_json_dict()
        assert set(d) == {
            "property", "function", "params", "samples", "max_abs_error",
            "tolerance", "pass", "worst_witness", "flags",
        }
        assert set(d["worst_witness"]) == {"x", "y", "n", "lhs", "rhs"}
        assert d["pass"] is True and d["samples"] == SMALL_GRID.samples
        json.dumps(d)  # serializable

    def test_nan_sample_fails_the_report(self):
        # one NaN among good samples is the worst error, not a skipped one
        e1 = make("E1")
        x0, y0 = verify.grid_points(e1, SMALL_GRID, verify._invariance_eval_points(SMALL_GRID))[3]
        # a consistent descriptor: the replaced value rule has no array rule
        nan_at_one_point = replace(
            e1, value=lambda x, y: math.nan if (x, y) == (x0, y0) else 1.0 / y,
            array_value=None,
        )
        rep = check_invariance(nan_at_one_point, SMALL_GRID, 1e-8)
        assert rep.passed is False
        assert math.isnan(rep.max_abs_error)
        assert (rep.worst_witness["x"], rep.worst_witness["y"]) == (x0, y0)
        assert check_invariance(e1, SMALL_GRID, 1e-8).passed

    def test_nan_from_array_rule_fails_the_report(self):
        # the batched path: the array rule returns NaN at one shifted point
        # of one sample, and that sample becomes the witness
        e1 = make("E1")
        eval_points = verify._invariance_eval_points(SMALL_GRID)
        x0, y0 = verify.grid_points(e1, SMALL_GRID, eval_points)[5]
        xb, yb = eval_points(x0, y0)[4]

        def array_value(xs, ys):
            return np.where((xs == xb) & (ys == yb), math.nan, e1.array_value(xs, ys))

        rep = check_invariance(replace(e1, array_value=array_value), SMALL_GRID, 1e-8)
        assert rep.passed is False
        assert math.isnan(rep.max_abs_error)
        assert (rep.worst_witness["x"], rep.worst_witness["y"]) == (x0, y0)

    def test_one_values_call_per_sample(self):
        calls = []
        e9 = make("E9", r=0.5)

        def counted(xs, ys):
            calls.append(xs.size)
            return e9.array_value(xs, ys)

        f = replace(e9, array_value=counted)
        rep = check_invariance(f, SMALL_GRID, 1e-8)
        points = 1 + SMALL_GRID.n_max * (SMALL_GRID.n_max + 1) // 2
        assert calls == [points] * SMALL_GRID.samples
        assert rep.to_json_dict() == check_invariance(e9, SMALL_GRID, 1e-8).to_json_dict()
        calls.clear()
        rep = check_exchange(f, 2, 3, SMALL_GRID, 1e-8)
        assert calls == [2 + 3] * SMALL_GRID.samples
        assert rep.to_json_dict() == check_exchange(e9, 2, 3, SMALL_GRID, 1e-8).to_json_dict()

    def test_deterministic_bytes(self):
        a = check_invariance(make("E10"), SMALL_GRID, 1e-8).to_json_dict()
        b = check_invariance(make("E10"), SMALL_GRID, 1e-8).to_json_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_truncation_flag_for_series_entries(self):
        # flagged once n_max * series_tolerance exceeds the requested tol
        rep = check_invariance(make("E13", s=-2.0), SMALL_GRID, 1e-10)
        assert "truncation-dominated" in rep.flags
        rep = check_invariance(make("E13", s=-2.0), SMALL_GRID, 1e-6)
        assert "truncation-dominated" not in rep.flags


class TestExchange:
    def test_floor_by_hand(self):
        f = make("E3a")
        lhs = math.fsum(f.value(0.4 + r * 2 * 0.5, 3 * 0.5) for r in range(3))
        rhs = math.fsum(f.value(0.4 + r * 3 * 0.5, 2 * 0.5) for r in range(2))
        assert lhs == rhs == 1.0

    def test_equal_orders_are_identical(self):
        rep = check_exchange(make("E5", a=2.0), 3, 3, SMALL_GRID, 1e-12)
        assert rep.passed and rep.max_abs_error == 0.0

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (4, 5)])
    def test_entries(self, m, n):
        for eid, params in (("E3a", {}), ("E5", {"a": 2.0}), ("E9", {"r": 0.5})):
            rep = check_exchange(make(eid, **params), m, n, SMALL_GRID, 1e-8)
            assert rep.passed, (eid, m, n, rep.max_abs_error)


class TestLimits:
    def test_integral_limit_reciprocal_both_sides_one(self):
        rep = check_integral_limit(make("E1"), PROBE_GRID, 1e-6)
        assert rep.passed
        assert rep.worst_witness["lhs"] == pytest.approx(1.0, abs=1e-10)

    def test_integral_limit_floor(self):
        quad = integrate(lambda t: make("E3a").value(t, 1.0), 0.7, 1.7,
                         tol=1e-12, interior_singularities=(1.0,))
        assert quad.value == pytest.approx(0.7, abs=1e-12)
        rep = check_integral_limit(make("E3a"), PROBE_GRID, 1e-6)
        assert rep.passed

    def test_step_limit_linear_exact(self):
        rep = check_step_limit(make("E2", m=1), PROBE_GRID, 1e-8)
        assert rep.passed

    def test_step_limit_floor(self):
        rep = check_step_limit(make("E3a"), PROBE_GRID, 1e-6)
        assert rep.passed

    def test_report_that_skipped_every_sample_fails(self, monkeypatch):
        unconverged = LimitResult(value=1.0, error_estimate=1.0, steps=1, converged=False)
        monkeypatch.setattr(verify, "limit_scaled", lambda f, x, tol=1e-8: unconverged)
        rep = check_integral_limit(make("E1"), PROBE_GRID, 1e-6)
        assert rep.samples == 0 and rep.max_abs_error < 0.0
        assert "limit-nonconverged-skipped" in rep.flags
        assert not rep.passed


    def test_unconverged_parity_limit_raises(self, monkeypatch):
        # the even-parity expectation must not come from a limit that missed its tolerance
        unconverged = LimitResult(value=1.0, error_estimate=1.0, steps=49, converged=False)
        monkeypatch.setattr(verify, "limit_scaled", lambda f, x, tol=1e-8: unconverged)
        with pytest.raises(ConvergenceError, match="E9"):
            check_parity(make("E9", r=0.5), "even", PROBE_GRID, 1e-7)
        assert check_parity(make("E2", m=1), "odd", PROBE_GRID, 1e-7).passed

    def test_unconverged_quadrature_raises(self, monkeypatch):
        # an integral that misses its tolerance must not feed a report
        def stalled(phi, a, b, tol=1e-10, interior_singularities=()):
            return QuadratureResult(value=0.0, error_estimate=1.0, evaluations=15, converged=False)

        monkeypatch.setattr(quadrature, "integrate", stalled)
        with pytest.raises(ConvergenceError, match="stalled"):
            check_integral_limit(make("E1"), PROBE_GRID, 1e-6)
        with pytest.raises(ConvergenceError):
            check_known_integrals(1e-7)
        with pytest.raises(ConvergenceError):
            golden_integral("euler")


class TestYDerivative:
    def test_scaled_quadratic_by_hand(self):
        # f = y B_2(x/y): int_1^{-1} (-t^2/4 + 1/6) dt = -1/6 = f(1, 2)
        f = make("E2", m=2)
        got = integrate(lambda t: f.dy(t, 2.0), 1.0, -1.0, tol=1e-12).value
        assert got == pytest.approx(f.value(1.0, 2.0), abs=1e-11)
        assert f.value(1.0, 2.0) == pytest.approx(-1.0 / 6.0, abs=1e-14)

    @pytest.mark.parametrize("eid,params", [
        ("E1", {}), ("E2", {"m": 2}), ("E5", {"a": 2.0}), ("E9", {"r": 0.5}),
    ])
    def test_analytic_and_fd_modes(self, eid, params):
        f = make(eid, **params)
        rep = check_y_derivative_identities(f, PROBE_GRID, 1e-6)
        assert rep.passed and "fd-fallback" not in rep.flags
        rep_fd = check_y_derivative_identities(f, PROBE_GRID, 1e-4, use_fd=True)
        assert rep_fd.passed and "fd-fallback" in rep_fd.flags

    def test_central_difference_dx(self):
        # with no analytic dx, df/dx is x_derivative's central difference
        rep = check_y_derivative_identities(replace(make("E5", a=2.0), dx=None))
        assert rep.passed and "fd-dx" in rep.flags and "fd-fallback" not in rep.flags
        assert "fd-dx" not in check_y_derivative_identities(make("E5", a=2.0), PROBE_GRID).flags


class TestParity:
    def test_even_kernel(self):
        rep = check_parity(make("E9", r=0.5), "even", PROBE_GRID, 1e-7)
        assert rep.passed

    def test_even_half_period_integral_value(self):
        got = integrate(lambda t: make("E9", r=0.5).value(t, 1.0), 0.0, 0.5, tol=1e-11).value
        assert got == pytest.approx(0.5, abs=1e-9)

    def test_odd_entries(self):
        for eid, params in (("E2", {"m": 1}), ("E8", {"r": 0.5})):
            rep = check_parity(make(eid, **params), "odd", PROBE_GRID, 1e-7)
            assert rep.passed, (eid, rep.max_abs_error)

    def test_rejects_unknown_parity(self):
        with pytest.raises(RejectedInputError):
            check_parity(make("E1"), "sideways", PROBE_GRID)


class TestConvolutionChecks:
    def test_product_integral_reciprocal(self):
        rep = check_product_integral(make("E1"), make("E1"), (1.0,), 1e-9)
        assert rep.passed
        assert rep.worst_witness["lhs"] == pytest.approx(1.0, abs=1e-9)

    def test_product_integral_exponential(self):
        rep = check_product_integral(make("E5", a=2.0), make("E1"), (1.0,), 1e-7)
        assert rep.passed
        assert rep.worst_witness["rhs"] == pytest.approx(1.0 / math.log(2.0), abs=1e-9)

    def test_bernoulli_convolution_orders(self):
        for m, n in ((1, 1), (2, 2), (1, 3)):
            rep = check_bernoulli_convolution(m, n, (1.0, 0.7), 7, 1e-8)
            assert rep.passed, (m, n, rep.max_abs_error)

    def test_bernoulli_integral_identity_vanishing_odd_order(self):
        # at x = 0 the order-3 value is B_3(0) = 0
        rep = check_bernoulli_integral_identity(1, 2, 5, 1e-8)
        assert rep.passed
        assert bernoulli_poly(3, 0.0) == 0.0

    def test_zeta_kernel_matches_bernoulli_for_integer_order(self):
        fa = zeta_power_kernel(2.0)
        for u in (0.3, 0.7):
            want = -bernoulli_poly(2, u) / 2.0
            assert fa.value(u, 1.0) == pytest.approx(want, abs=1e-9)

    def test_zeta_convolution_integer_orders(self):
        rep = check_zeta_convolution(2.0, 2.0, 1.0, tol=1e-8)
        assert rep.passed
        rep = check_zeta_convolution(2.0, 3.0, 1.0, tol=1e-8)
        assert rep.passed

    def test_zeta_convolution_fractional_orders(self):
        rep = check_zeta_convolution(1.5, 2.5, 1.0, tol=1e-5)
        assert rep.passed

    @pytest.mark.parametrize(
        "f, s, gamma",
        [(make("E13", s=-1.0), -1.0, 1.0), (make("E13", s=-2.0), -2.0, 1.0),
         (zeta_power_kernel(1.5), -0.5, math.gamma(1.5))],
        ids=["E13(-1)", "E13(-2)", "F(1.5)"],
    )
    def test_zeta_entries_meet_declared_series_tolerance_near_lattice(self, f, s, gamma):
        # y^(-s) zeta(s, x/y) / gamma, periodized, on the lattice and 1e-7 y,
        # 1e-4 y and 0.023 y off it on either side
        for y in (0.25, 1.0, 4.0):
            for k in (-2, 0, 1, 3):
                for d in (0.0, 1e-7, -1e-7, 1e-4, -1e-4, 0.023, -0.023):
                    x = (k + d) * y
                    u = mpmath.mpf(x) / y
                    u -= mpmath.floor(u)
                    want = mpmath.mpf(y) ** -s * mpmath.zeta(s, u if u > 0 else 1) / gamma
                    assert abs(f.value(x, y) - float(want)) <= f.series_tolerance, (y, k, d)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 4.0])
    def test_zeta_kernel_is_the_scaled_zeta_entry(self, alpha):
        # F(alpha) = E13(s = 1 - alpha) / Gamma(alpha), bit for bit, through
        # value and values, off, on and 1e-6 y beside the lattice
        f = zeta_power_kernel(alpha)
        zeta = make("E13", s=1.0 - alpha)
        scale = 1.0 / math.exp(log_gamma_abs(alpha))
        rng = np.random.default_rng(19)
        for y in [0.25, 1.0, 40.0, *rng.uniform(0.25, 40.0, 5).tolist()]:
            lattice = np.arange(-5.0, 6.0) * y
            xs = np.concatenate([rng.uniform(-5.0, 5.0, 32) * y, lattice,
                                 lattice + 1e-6 * y, lattice - 1e-6 * y])
            want = [scale * zeta.value(x, y) for x in xs.tolist()]
            assert [f.value(x, y).hex() for x in xs.tolist()] == [w.hex() for w in want], y
            assert [v.hex() for v in f.values(xs, y).tolist()] == [w.hex() for w in want], y
            assert f.singular_points(y, -5.5 * y, 5.5 * y) == tuple(lattice.tolist())
        assert f.name == f"F({alpha:g})" and dict(f.params) == {"alpha": alpha}
        assert f.piecewise and f.integrable_in_x and f.domain is None
        assert f.series_tolerance == ZETA_NEG_TOLERANCE == 1e-10

    def test_zeta_kernel_rejects_small_order(self):
        with pytest.raises(RejectedInputError):
            zeta_power_kernel(1.0)


class TestGoldenIntegrals:
    def test_euler(self):
        value, expected = golden_integral("euler")
        assert expected == pytest.approx(-math.pi / 2 * math.log(2.0), abs=0)
        assert value == pytest.approx(expected, abs=1e-8)

    def test_poisson_both_regimes(self):
        value, expected = golden_integral("poisson", r=2.0)
        assert expected == pytest.approx(2 * math.pi * math.log(2.0), abs=0)
        assert value == pytest.approx(expected, abs=1e-7)
        value, expected = golden_integral("poisson", r=0.5)
        assert expected == 0.0 and value == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("a", [1.0, 2.0, 0.5])
    def test_raabe(self, a):
        value, expected = golden_integral("raabe", a=a)
        assert expected == pytest.approx(a * (math.log(a) - 1.0) + 0.5 * math.log(2 * math.pi), abs=0)
        assert value == pytest.approx(expected, abs=1e-8)

    def test_reference_decimals(self):
        assert golden_integral("euler")[1] == pytest.approx(-1.0887930, abs=5e-8)
        assert golden_integral("poisson", r=2.0)[1] == pytest.approx(4.3551722, abs=5e-8)
        assert golden_integral("raabe", a=1.0)[1] == pytest.approx(-0.0810615, abs=5e-8)
        assert golden_integral("raabe", a=2.0)[1] == pytest.approx(0.3052329, abs=5e-8)

    def test_rejects_unknown(self):
        with pytest.raises(RejectedInputError):
            golden_integral("gauss")
        with pytest.raises(RejectedInputError):
            golden_integral("poisson", r=1.0)

    def test_aggregate_report(self):
        rep = check_known_integrals(1e-7)
        assert rep.passed and rep.samples == 6


class TestCoveringCertificates:
    def test_seeded_certificates(self):
        sys_ = parse_system("0/2,1/4,3/4")
        for eid, params in (("E2", {"m": 2}), ("E10", {}), ("E11", {})):
            rep = check_covering_certificates(sys_, make(eid, **params), PROBE_GRID, 1e-8)
            assert rep.passed, (eid, rep.max_abs_error)

    def test_rejected_system_refused(self):
        with pytest.raises(RejectedInputError):
            check_covering_certificates(parse_system("0/2,0/3"), make("E1"), PROBE_GRID)

    def test_decides_once_and_matches_pointwise_certificates(self, monkeypatch):
        sys_ = parse_system("0/2,1/4,3/4")
        f = make("E10")
        decisions = []
        decide = covering.is_disjoint_covering
        monkeypatch.setattr(covering, "is_disjoint_covering",
                            lambda s: decisions.append(s) or decide(s))
        rep = check_covering_certificates(sys_, f, PROBE_GRID, 1e-8)
        assert decisions == [sys_]
        monkeypatch.undo()
        pts = verify.grid_points(f, PROBE_GRID, lambda x, y: (
            [(x, y)] + [(x + a * y, n * y) for a, n in sys_.classes]))
        pointwise = [covering.covering_identity_check(sys_, f, x, y, 1e-8) for x, y in pts]
        worst = max(pointwise, key=lambda r: r.max_abs_error)
        assert rep.samples == len(pointwise) == PROBE_GRID.samples
        assert rep.max_abs_error == worst.max_abs_error
        # the scalar rule gives the same errors as the batched `values` calls
        scalar = [abs(math.fsum(f.value(x + a * y, n * y) for a, n in sys_.classes) - f.value(x, y))
                  for x, y in pts]
        assert rep.max_abs_error == max(scalar)
        assert rep.worst_witness == worst.worst_witness
        assert rep.tolerance == worst.tolerance
