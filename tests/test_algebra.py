import math
import resource
import subprocess
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from invk.algebra import antiderivative, convolve, geometric_convolve
from invk.catalog import make
from invk import algebra, core, quadrature
from invk.core import EPS_SING, affine_transform, lattice_points, x_derivative
from invk.errors import CapacityError, ConvergenceError, RejectedInputError
from invk.quadrature import Vectorized, integrate
from invk.special import bernoulli_poly
from invk.verify import (
    DEFAULT_GRID,
    _PRODUCT_PAIRS,
    GridSpec,
    _invariance_table,
    _sample_clear,
    check_invariance,
    grid_points,
)

from conftest import SMALL_GRID, child_env, table_points


def _scaled_bernoulli(m):
    return affine_transform(make("E2", m=m), a=-1.0 / math.factorial(m), b=0.0, c=1.0)


class TestConvolve:
    def test_reciprocal_pair_reproduces_reciprocal(self):
        c = convolve(make("E1"), make("E1"))
        for x, y in ((0.4, 1.0), (-2.3, 1.0), (5.0, 2.0)):
            assert c.value(x, y) == pytest.approx(1.0 / y, abs=1e-11)

    def test_bernoulli_pair_closed_form(self):
        c = convolve(_scaled_bernoulli(1), _scaled_bernoulli(1))
        assert c.value(0.3, 1.0) == pytest.approx(-bernoulli_poly(2, 0.3) / 2.0, abs=1e-10)
        # evaluating the formula literally stays on the closed form off [0, y)
        assert c.value(2.0, 1.0) == pytest.approx(-bernoulli_poly(2, 2.0) / 2.0, abs=1e-9)

    def test_commutes(self):
        g, h = make("E5", a=2.0), make("E9", r=0.5)
        gh, hg = convolve(g, h), convolve(h, g)
        for x, y in ((0.37, 1.1), (0.9, 0.7)):
            assert gh.value(x, y) == pytest.approx(hg.value(x, y), abs=1e-9)

    def test_associates_on_base_period(self):
        f, g, h = make("E1"), make("E2", m=1), make("E5", a=2.0)
        left = convolve(convolve(f, g, 1e-10), h, 1e-8)
        right = convolve(f, convolve(g, h, 1e-10), 1e-8)
        for x in (0.2, 0.75):
            assert left.value(x, 1.0) == pytest.approx(right.value(x, 1.0), abs=3e-8)

    def test_period_integral_factorizes(self):
        g, h = make("E5", a=2.0), make("E9", r=0.5)
        c = convolve(g, h, 1e-10)
        lhs = integrate(lambda x: c.value(x, 1.0), 0.0, 1.0, tol=1e-9).value
        rhs = (
            integrate(lambda t: g.value(t, 1.0), 0.0, 1.0, tol=1e-11).value
            * integrate(lambda t: h.value(t, 1.0), 0.0, 1.0, tol=1e-11).value
        )
        assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_rejects_derivative_of_jump_entry(self):
        # d/dx E10 is cotangent-like: not integrable across the lattice
        with pytest.raises(RejectedInputError):
            convolve(x_derivative(make("E10")), make("E1"))

    def test_rejects_nonintegrable_operands(self):
        with pytest.raises(RejectedInputError):
            convolve(make("E11"), make("E1"))
        with pytest.raises(RejectedInputError):
            convolve(make("E1"), make("E13", s=2.0))

    def test_propagates_quadrature_failure(self):
        c = convolve(make("E1"), make("E1"), tol=1e-16)
        with pytest.raises(ConvergenceError):
            c.value(0.4, 1.0)

    def test_splits_at_operand_jumps(self):
        # with a constant second operand the two terms join up to the full
        # period integral of the floor entry, which vanishes; the oriented
        # ranges cross several jump points that the panel splitting absorbs
        c = convolve(make("E3a"), make("E1"), 1e-10)
        for x in (0.5, 2.5, -1.3):
            assert c.value(x, 1.0) == pytest.approx(0.0, abs=1e-9), x

    def test_log_sine_operand_against_mpmath(self):
        # the E10 operand is log|2 sin(pi (x - t)/y)| up to a log singularity
        # at t = x, so mpmath integrates one period split there
        x, y = 1.7, 2.5
        with mpmath.workdps(30):
            want = float(mpmath.quad(
                lambda t: mpmath.power(2, t) / (mpmath.power(2, y) - 1)
                * mpmath.log(abs(2 * mpmath.sinpi((x - t) / y))), [0, x, y]))
        assert convolve(make("E5", a=2.0), make("E10")).value(x, y) == pytest.approx(want, abs=1e-10)

    def test_log_sine_square_near_the_lattice(self):
        # E10 * E10 = (pi^2 / 2) E2(m=2) on 0 <= x < y, from the Fourier
        # coefficients c_k(g * h) = y c_k(g) c_k(h)
        c = convolve(make("E10"), make("E10"))
        want = 0.5 * math.pi ** 2 * make("E2", m=2).value(0.001, 1.0)
        assert c.value(0.001, 1.0) == pytest.approx(want, abs=1e-11)

    def test_invariance_small_grid(self):
        c = convolve(make("E2", m=1), make("E9", r=0.5), 1e-9)
        rep = check_invariance(c, SMALL_GRID, 1e-7)
        assert rep.passed, (rep.max_abs_error, rep.worst_witness)


# operand name: (entry, params, its value in mpmath)
_MP_OPERANDS = {
    "E2(1)": ("E2", {"m": 1}, lambda t, y: t / y - mpmath.mpf(1) / 2),
    "E2(2)": ("E2", {"m": 2}, lambda t, y: y * mpmath.bernpoly(2, t / y)),
    "E5": ("E5", {"a": 2.0}, lambda t, y: mpmath.power(2, t) / (mpmath.power(2, y) - 1)),
    "E9": ("E9", {"r": 0.5}, lambda t, y: (1 - mpmath.power(0.5, 2 / y)) / (y * (
        1 - 2 * mpmath.power(0.5, 1 / y) * mpmath.cospi(2 * t / y) + mpmath.power(0.5, 2 / y)))),
    "E10": ("E10", {}, lambda t, y: mpmath.log(abs(2 * mpmath.sinpi(t / y)))),
    "E7(2)": ("E7", {"r": 2.0}, lambda t, y: mpmath.log(
        1 - 2 * mpmath.power(2, 1 / y) * mpmath.cospi(2 * t / y) + mpmath.power(2, 2 / y))),
}


def _operand(name):
    eid, params, _ = _MP_OPERANDS[name]
    return make(eid, **params)


def _literal_convolution(gid, hid, x, y):
    """The two-term formula at x itself, unfolded, by mpmath quadrature split
    at every lattice point of g and every one of h pulled back, which holds
    every singular point of these operands."""
    g, h = _MP_OPERANDS[gid][2], _MP_OPERANDS[hid][2]
    x, y = mpmath.mpf(x), mpmath.mpf(y)

    def term(a, b, shift):
        lo, hi = min(a, b), max(a, b)
        cuts = {lo, hi}
        for k in range(int(mpmath.floor(lo / y)) - 1, int(mpmath.ceil(hi / y)) + 2):
            cuts.update(c for c in (k * y, shift - k * y) if lo < c < hi)
        v = mpmath.quad(lambda t: g(t, y) * h(shift - t, y), sorted(cuts))
        return v if b >= a else -v

    return float(term(0, x, x) + term(x, y, x + y))


class TestPeriodicFold:
    """With a periodic operand, `convolve` evaluates at x mod y in [0, y)."""

    @pytest.mark.parametrize("pair", [
        ("E5", "E9"), ("E2(1)", "E9"), ("E9", "E5"), ("E10", "E2(2)"), ("E5", "E10"),
    ], ids="*".join)
    def test_against_the_unfolded_formula(self, pair):
        gid, hid = pair  # E9 * E5: only g is periodic
        conv = convolve(_operand(gid), _operand(hid))
        with mpmath.workdps(15):
            for x in (-2.7, 3.9, 7.45):
                want = _literal_convolution(gid, hid, x, 1.1)
                assert conv.value(x, 1.1) == pytest.approx(want, abs=1e-10), x

    def test_identity_on_the_base_period(self):
        g, h = make("E5", a=2.0), make("E10")
        folded = convolve(g, h)
        literal = convolve(g, replace(h, periodic=False))
        for x in (0.0, 0.3, 1.0999):
            assert folded.value(x, 1.1).hex() == literal.value(x, 1.1).hex()

    def test_far_point_converges(self):
        # x is ~7 periods out, where the literal formula's long integrals stall
        g, h = make("E10"), make("E2", m=2)
        assert math.isfinite(convolve(g, h).value(7.45, 1.1))
        with pytest.raises(ConvergenceError):
            convolve(replace(g, periodic=False), h).value(7.45, 1.1)


def _mp_convolution(g, h, x, y, delta):
    """(g * h)(x, y) at the folded x in [0, y), by mpmath at 30 digits: each
    term split at its ends, where the poles' real parts lie, and at
    distances delta 4^j from them, so that no piece is much longer than its
    distance from a pole.  g and h are mpmath functions of (t, y)."""
    with mpmath.workdps(30):
        x, y, delta = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(delta)

        def term(lo, hi, shift):
            cuts = {lo, hi}
            for j in range(12):
                step = delta * mpmath.power(4, j)
                cuts.update(c for c in (lo + step, hi - step) if lo < c < hi)
            return mpmath.quad(lambda t: g(t, y) * h(shift - t, y), sorted(cuts))

        return float(term(0, x, x) + term(x, y, x + y))


def _pole_points(rng, delta, count):
    """Seeded (x, y) with y up to 24: x inside the period, within delta of
    0 and of y, and some periods out, where the product folds."""
    points = [(0.3 * 24.0, 24.0), (24.0 - 0.5 * delta, 24.0), (0.5 * delta, 24.0)]
    for _ in range(count):
        y = float(rng.uniform(0.3, 24.0))
        x = [float(rng.uniform(0.0, y)), float(rng.uniform(0.0, delta)),
             y - float(rng.uniform(0.0, delta))][len(points) % 3]
        points.append((x + int(rng.integers(-2, 3)) * y, y))
    return points


class TestPoleMappedProducts:
    """A folded product with an E7..E9 operand integrates its terms in the
    sinh variable about the operand's complex poles, 0.110 off the real
    axis for r = 1/2 or 2, whatever the scale."""

    @pytest.mark.parametrize("pair", [
        ("E5", "E9"), ("E2(1)", "E9"), ("E9", "E2(1)"), ("E7(2)", "E2(1)"),  # E9 * E2: g's poles
    ], ids="*".join)
    def test_against_mpmath(self, pair):
        gid, hid = pair
        g, h = _operand(gid), _operand(hid)
        delta = math.log(2.0) / (2.0 * math.pi)
        conv = convolve(g, h)
        points = _pole_points(np.random.default_rng(2005), delta, 5)
        xs, ys = (np.array(c) for c in zip(*points))
        got = conv.values(xs, ys).tolist()
        for (x, y), value in zip(points, got):
            assert value.hex() == conv.value(x, y).hex()
            want = _mp_convolution(_MP_OPERANDS[gid][2], _MP_OPERANDS[hid][2],
                                   _folded(g, h, x, y), y, delta)
            assert abs(value - want) <= conv.series_tolerance, (x, y, value - want)

    def test_pole_sum_is_the_product_of_radii(self):
        # E9(r) * E9(s) = E9(rs): c_k(E9(r)) = r^(|k|/y)/y and
        # c_k(g * h) = y c_k(g) c_k(h), so the Fourier coefficients agree.
        # Each term has a pole at both ends, so every term is cut
        rng = np.random.default_rng(31)
        for r, s in ((0.5, 0.5), (0.5, 0.3), (0.8, 0.6)):
            conv, want = convolve(make("E9", r=r), make("E9", r=s)), make("E9", r=r * s)
            points = _pole_points(rng, math.log(1.0 / max(r, s)) / (2.0 * math.pi), 5)
            xs, ys = (np.array(c) for c in zip(*points))
            got = conv.values(xs, ys).tolist()
            for (x, y), value in zip(points, got):
                assert value.hex() == conv.value(x, y).hex()
                assert abs(value - want.value(x, y)) <= conv.series_tolerance, (r, s, x, y)

    def test_log_sine_operand_keeps_the_t_variable(self):
        # E9(r) * E10 = E7(r)/2 on the Fourier side.  E10 lists its log
        # singularities, at each term's ends, so the terms run tanh-sinh
        # levels in t, whose nodes crowd at the poles there too
        conv, e7 = convolve(make("E9", r=0.5), make("E10")), make("E7", r=0.5)
        assert not _mapped(make("E9", r=0.5), make("E10"))
        rng = np.random.default_rng(1974)
        ys = rng.uniform(0.3, 6.0, 30)
        xs = rng.uniform(-2.0, 2.0, 30) * ys
        got = conv.values(xs, ys)
        for x, y, value in zip(xs.tolist(), ys.tolist(), got.tolist()):
            assert value.hex() == conv.value(x, y).hex()
        assert np.max(np.abs(got - 0.5 * e7.values(xs, ys))) <= conv.series_tolerance

    def test_pieces(self):
        # E5 * E9: h's poles sit at t = x - k y, so each term has one at its
        # x-end; the first term is cut once x >= y/2 puts x - y within its
        # length of 0, the second once x <= y/2 puts x + y within its length
        # of y
        g, h = make("E5", a=2.0), make("E9", r=0.5)
        delta = math.log(2.0) / (2.0 * math.pi)
        y = 2.0
        for x, cut in ((0.3, 1), (1.7, 0)):
            term, a, b, c, d, share = algebra._sinh_pieces(
                g, h, np.array([0.0, x]), np.array([x, y]), np.array([x, x + y]), np.array([y, y]))
            assert term.tolist() == sorted([0, 1, cut])
            assert share.tolist() == [2 if k == cut else 1 for k in term.tolist()]
            assert d.tolist() == [delta] * term.size
            # h's poles pulled back through t -> shift - t, an ulp from x
            if cut == 1:  # [x, mid] about x, [mid, y] about x + y
                assert c.tolist() == pytest.approx([x, x, x + y], abs=1e-15)
                assert a.tolist() == [0.0, x, 0.5 * (x + y)]
            else:  # [0, mid] about x - y, [mid, x] about x
                assert c.tolist() == pytest.approx([x - y, x, x], abs=1e-15)
                assert b.tolist() == [0.5 * x, x, y]

    def test_map_is_exact_for_any_distance(self):
        # the distance sets only the speed: E5 * E9 with E9's poles listed at
        # other distances gives the same value within the tolerance
        g, h = make("E5", a=2.0), make("E9", r=0.5)
        base = convolve(g, h).value(1.3, 2.5)
        for dist in (1e-3, 1.0, 10.0):
            moved = replace(h, near_poles=lambda y, lo, hi, dist=dist: tuple(
                (c, dist) for c in lattice_points(0.0, y, lo, hi)))
            assert abs(convolve(g, moved).value(1.3, 2.5) - base) <= 2e-10, dist

    def test_unmapped_products_keep_the_t_variable(self):
        # without a listed pole, or unfolded, a product integrates in t
        g, h = make("E5", a=2.0), make("E9", r=0.5)
        assert _mapped(g, h) and not _mapped(g, replace(h, near_poles=core._no_points))
        assert not _mapped(g, replace(h, periodic=False))
        assert make("E7", r=0.5).near_poles(1.0, -1.0, 1.0) == (
            (-1.0, math.log(2.0) / (2.0 * math.pi)), (0.0, math.log(2.0) / (2.0 * math.pi)),
            (1.0, math.log(2.0) / (2.0 * math.pi)))
        for f in (core.reflect(h), core.x_derivative(h), affine_transform(h, 1.0, 0.0, 1.0)):
            assert f.near_poles is core._no_points


def _folded(g, h, x, y):
    """The x at which `convolve(g, h)` evaluates its two terms: x mod y in
    [0, y) when an operand is periodic, else x itself."""
    if not (g.periodic or h.periodic):
        return x
    x = math.fmod(x, y)
    return x + y if x < 0.0 else x


def _mapped(g, h):
    """Whether `convolve(g, h)` integrates its terms in the sinh variable:
    folded, with an operand that lists near poles and none that lists
    singular points."""
    return ((g.periodic or h.periodic) and any(f.near_poles is not core._no_points for f in (g, h))
            and all(f.singular_points is core._no_points for f in (g, h)))


def _lone_pieces(g, h, x, y):
    """The lone jobs of `convolve(g, h)`'s terms at the folded x, for
    operands without singular points: (term, a, b, shift, phi) with phi
    the integrand over [a, b] as a function of a float node.  A mapped
    product's term is one job or two, in the sinh variable, whose pieces
    `algebra._sinh_pieces` picks; phi then applies the map in float
    arithmetic and carries the share of a cut term's pieces in its weight."""
    x = _folded(g, h, x, y)
    if not _mapped(g, h):
        return [(k, a, b, shift, lambda t, shift=shift: g.value(t, y) * h.value(shift - t, y))
                for k, (a, b, shift) in enumerate(((0.0, x, x), (x, y, x + y)))]
    term, a, b, c, d, share = algebra._sinh_pieces(
        g, h, np.array([0.0, x]), np.array([x, y]), np.array([x, x + y]), np.array([y, y]))
    pieces = []
    for k, ak, bk, ck, dk, n in zip(term.tolist(), a.tolist(), b.tolist(), c.tolist(), d.tolist(),
                                     share.tolist()):
        shift = (x, x + y)[k]

        def phi(s, shift=shift, c=ck, d=dk, w=n * dk):
            p = 1.0 + s * 0.0625
            e = p * p
            e = e * e
            e = e * e
            e = e * e
            t = c + d * (0.5 * (e - 1.0 / e))
            return g.value(t, y) * h.value(shift - t, y) * (w * (0.5 * (e + 1.0 / e) / p))

        s_a, s_b = algebra._arsinh((np.array([ak, bk]) - ck) / dk).tolist()
        pieces.append((k, s_a, s_b, shift, phi))
    return pieces


def _scalar_convolution(g, h, x, y, tol):
    """`convolve(g, h, tol).value(x, y)` rebuilt from scalar integrands, for
    operands without singular points: a cut term is the mean of its
    pieces, each integrated over twice its integrand."""
    terms = [[], []]
    for k, a, b, _, phi in _lone_pieces(g, h, x, y):
        terms[k].append(integrate(phi, a, b, 0.5 * tol).value)
    term1, term2 = (v[0] if len(v) == 1 else (v[0] + v[1]) / 2 for v in terms)
    return term1 + term2


FIXED_POINTS = ((0.3, 1.0), (-1.7, 0.6), (2.9, 1.4), (0.0, 0.25), (5.1, 3.7))


class TestArrayIntegrands:
    """The batched integrands give the values of their scalar forms, bit for bit."""

    @pytest.mark.parametrize("pair", _PRODUCT_PAIRS, ids=lambda p: f"{p[0][0]}*{p[1][0]}")
    def test_product_pairs(self, pair):
        (gid, gp), (hid, hp) = pair
        g, h = make(gid, **gp), make(hid, **hp)
        conv = convolve(g, h, tol=1e-9)
        for x, y in FIXED_POINTS:
            assert conv.value(x, y).hex() == _scalar_convolution(g, h, x, y, 1e-9).hex()

    def test_antiderivative_and_geometric_convolution(self):
        f = make("E9", r=0.5)
        anti, geo = antiderivative(f), geometric_convolve(f, 2.0)
        conv = convolve(make("E5", a=2.0), f, 1e-10)
        for x, y in FIXED_POINTS:
            run = integrate(lambda t: f.value(t, y), y, x, 0.5e-10).value
            mean = integrate(lambda t: t * f.value(t, y), 0.0, y, 0.5e-10).value
            assert anti.value(x, y).hex() == (run + mean / y).hex()
            assert geo.value(x, y).hex() == conv.value(x, y).hex()


def _conv_grid_sample(conv):
    """The 21 points of the first sample of the suite's convolution grid."""
    grid = replace(DEFAULT_GRID, n_max=6)
    table = _invariance_table(grid.n_max)
    return table_points(table, *grid_points(conv, grid, table)[0])


class TestLockstepConvolution:
    """`values` runs the 2N term integrals of N points in lockstep."""

    @pytest.mark.parametrize("pair", _PRODUCT_PAIRS, ids=lambda p: f"{p[0][0]}*{p[1][0]}")
    def test_grid_sample_equals_scalar_form(self, pair):
        (gid, gp), (hid, hp) = pair
        g, h = make(gid, **gp), make(hid, **hp)
        conv = convolve(g, h, tol=1e-9)
        points = _conv_grid_sample(conv)
        assert len(points) == 21
        xs, ys = (np.array(c) for c in zip(*points))
        got = conv.values(xs, ys).tolist()
        want = [_scalar_convolution(g, h, x, y, 1e-9) for x, y in points]
        assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_operand_is_called_once_per_round(self):
        g, h = make("E5", a=2.0), make("E9", r=0.5)
        sizes = []

        def counted(xs, ys):
            sizes.append(xs.size)
            return g.array_value(xs, ys)

        conv = convolve(replace(g, array_value=counted), h, tol=1e-9)
        points = _conv_grid_sample(conv)
        xs, ys = (np.array(c) for c in zip(*points))
        conv.values(xs, ys)
        rounds, nodes = len(sizes), sum(sizes)
        lone_rounds, lone_nodes = [], 0
        for x, y in points:
            for _, a, b, _, phi in _lone_pieces(g, h, x, y):
                calls = []

                def counted_phi(ts, phi=phi):
                    calls.append(ts.size)
                    return np.array([phi(t) for t in ts.tolist()])

                lone_nodes += integrate(Vectorized(counted_phi), a, b, 0.5e-9).evaluations
                lone_rounds.append(len(calls))
        assert rounds == max(lone_rounds) and nodes == lone_nodes
        assert nodes > 10 * rounds  # the batches are wide

    def test_scalar_value_is_the_one_point_case(self):
        conv = convolve(make("E2", m=1), make("E9", r=0.5), tol=1e-9)
        for x, y in FIXED_POINTS:
            assert conv.value(x, y).hex() == conv.values(np.array([x]), y)[0].hex()

    def test_stalled_batch_raises_the_scalar_message(self):
        conv = convolve(make("E1"), make("E1"), tol=1e-16)
        xs = np.array([0.4, 1.3, -0.6])
        with pytest.raises(ConvergenceError) as scalar:
            conv.value(0.4, 1.0)
        with pytest.raises(ConvergenceError) as batched:
            conv.values(xs, 1.0)
        assert str(batched.value) == str(scalar.value)
        assert str(scalar.value).startswith(
            "convolve(E1,E1) first term: quadrature stalled on [0, 0.4] (estimate "
        )

    def test_stalled_mapped_batch_names_the_term_in_t(self):
        # a mapped term's pieces run in s; the error names the term's range in t
        conv = convolve(make("E5", a=2.0), make("E9", r=0.5), tol=1e-18)
        with pytest.raises(ConvergenceError) as scalar:
            conv.value(0.4, 1.0)
        with pytest.raises(ConvergenceError) as batched:
            conv.values(np.array([0.4, 1.3, -0.6]), 1.0)
        assert str(batched.value) == str(scalar.value)
        assert str(scalar.value).startswith(
            "convolve(E5,E9) first term: quadrature stalled on [0, 0.4] (estimate "
        )


class TestAntiderivative:
    def test_of_reciprocal_is_centered_linear(self):
        F = antiderivative(make("E1"))
        g = make("E2", m=1)
        for x, y in ((1.0, 2.0), (0.3, 1.0), (-2.7, 0.8), (4.4, 1.9)):
            assert F.value(x, y) == pytest.approx(g.value(x, y), abs=1e-10)

    def test_of_centered_linear_is_scaled_quadratic(self):
        F = antiderivative(make("E2", m=1))
        assert F.value(0.0, 1.0) == pytest.approx(1.0 / 12.0, abs=1e-10)
        for x, y in ((0.4, 1.0), (1.3, 0.7)):
            assert F.value(x, y) == pytest.approx(y * bernoulli_poly(2, x / y) / 2.0, abs=1e-9)

    def test_derivative_contract(self):
        f = make("E2", m=1)
        F = antiderivative(f)
        assert F.dx is f.value
        h = 1e-6
        fd = (F.value(0.4 + h, 1.0) - F.value(0.4 - h, 1.0)) / (2 * h)
        assert fd == pytest.approx(f.value(0.4, 1.0), abs=1e-6)
        assert f.value(0.4, 1.0) == pytest.approx(-0.1, abs=1e-14)

    def test_rejects_nonintegrable(self):
        with pytest.raises(RejectedInputError):
            antiderivative(make("E11"))

    def test_carries_the_singular_points(self):
        # F has a kink wherever f jumps, so sample grids keep clear of them
        f = make("E3b")
        F = antiderivative(f)
        assert F.singular_points(1.0, -2.0, 2.0) == f.singular_points(1.0, -2.0, 2.0)
        assert F.singular_points(1.0, -2.0, 2.0) == (-2.0, -1.0, 0.0, 1.0, 2.0)
        assert not _sample_clear(F, [(1.0, [1.0 + 0.5 * EPS_SING])])
        grid = GridSpec(seed=3, samples=32, n_max=3)
        pts = grid_points(F, grid, _invariance_table(grid.n_max))
        for x, y in pts:
            for n in range(1, grid.n_max + 1):
                for r in range(n):
                    u = (x + r * y) / (n * y)
                    assert abs(u - round(u)) * n * y >= EPS_SING * n * y * (1 - 1e-9)


# A child interpreter that may map at most this much memory: listing the
# lattice points of [0, 1e9] would take tens of GB.
_CHILD_AS = 512 << 20

_ANTIDERIVATIVE_CHILD = """
from invk.algebra import antiderivative
from invk.catalog import make
try:
    antiderivative(make("E3a")).value(1e9, 1.0)
except Exception as exc:
    print(type(exc).__name__)
"""


def _limited(args):
    """Run a child interpreter under an address-space limit of `_CHILD_AS`."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (_CHILD_AS, _CHILD_AS))

    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=2,
                          env=child_env(), preexec_fn=limit)


class TestWideLatticeWindow:
    """A window of more lattice points than `core._MAX_WINDOW_POINTS`
    raises CapacityError before any point is listed, however wide it is;
    a narrower window past the panel budget still integrates."""

    def test_lattice_points_refuse_a_window_past_the_cap(self):
        cap = core._MAX_WINDOW_POINTS
        assert cap > quadrature._MAX_PANELS
        assert len(lattice_points(0.0, 1.0, 0.0, cap - 1.0)) == cap
        with pytest.raises(CapacityError):
            lattice_points(0.0, 1.0, 0.0, float(cap))
        with pytest.raises(CapacityError):
            lattice_points(0.5, 1e-9, -1.0, 1.0)

    @pytest.mark.parametrize("name, x, expected", [
        # 30,000 panels at period 1e-3, each at its roundoff floor: the
        # first pass converges though it starts past the panel budget
        ("E3b", 30.0, "0x1.5d867c3f3827ap-14"),
        # E14's points step by y/2: 30,000 of them
        ("E14", 15.0, "-0x1.0624dd2f2c9fdp-12"),
    ])
    def test_a_bounded_operand_past_the_panel_budget_converges(self, name, x, expected):
        assert antiderivative(make(name)).value(x, 1e-3).hex() == expected

    def test_cli_convolution_is_a_usage_error(self):
        proc = _limited(["-m", "invk", "convolve", "--g", "E3a", "--h", "E2:m=1", "--x", "1e9", "--y", "1"])
        assert proc.returncode == 2, proc.stderr
        assert "window cap" in proc.stderr

    def test_antiderivative_raises_capacity_error(self):
        proc = _limited(["-c", _ANTIDERIVATIVE_CHILD])
        assert proc.stdout.strip() == "CapacityError", proc.stderr


class TestGrowingOperandReach:
    """The tolerance of `antiderivative` and `convolve` is absolute, while
    the roundoff floor of their term integrals, 50 eps int |f|, grows with
    x for an operand that is neither periodic nor bounded: a few dozen
    periods out the floor passes the tolerance, and the value raises
    instead of returning."""

    @pytest.mark.parametrize("make_f, at_ten, x", [
        # floor 5.55e-11 > 5e-11 on the running term over [1, 100.5]
        (lambda: antiderivative(make("E3a")), 50.0, 100.5),
        # floor 5.24e-11 > 5e-11 on the second term
        (lambda: convolve(make("E3a"), make("E2", m=1)), -50.0, 30.5),
    ], ids=["antiderivative", "convolve"])
    def test_past_the_reach_raises(self, make_f, at_ten, x):
        f = make_f()
        assert f.value(10.5, 1.0) == at_ten  # within reach: the exact sum
        with pytest.raises(ConvergenceError, match="stalled"):
            f.value(x, 1.0)


class TestGeometricConvolve:
    def test_reciprocal_closed_form(self):
        f = geometric_convolve(make("E1"), 2.0)
        assert f.value(0.0, 1.0) == pytest.approx(1.0 / math.log(2.0), abs=1e-10)

    def test_matches_generic_convolution(self):
        fast = geometric_convolve(make("E1"), 2.0)
        slow = convolve(make("E5", a=2.0), make("E1"))
        for x, y in ((0.3, 1.0), (1.7, 0.9)):
            assert fast.value(x, y) == pytest.approx(slow.value(x, y), abs=1e-8)

    def test_period_integral(self):
        f = geometric_convolve(make("E1"), 2.0)
        got = integrate(lambda x: f.value(x, 1.0), 0.0, 1.0, tol=1e-9).value
        assert got == pytest.approx(1.0 / math.log(2.0), abs=1e-7)

    @pytest.mark.parametrize("g", [make("E9", r=0.5), make("E2", m=1)], ids=lambda g: g.name)
    def test_split_form_oracle(self, g):
        # the exponential factor integrates in closed split form:
        # a^x/(a^y-1) int_0^y a^-t g dt + a^x int_x^y a^-t g dt
        geo = geometric_convolve(g, 2.0)
        L = math.log(2.0)
        for x, y in FIXED_POINTS:
            def phi(t):
                return math.exp((x - t) * L) * g.value(t, y)

            def term(a, b):
                cuts = g.singular_points(y, min(a, b), max(a, b))
                return integrate(phi, a, b, 1e-13, cuts).value

            split = term(0.0, y) / math.expm1(y * L) + term(x, y)
            assert geo.value(x, y) == pytest.approx(split, abs=1e-12)

    def test_rejects_unit_base(self):
        with pytest.raises(RejectedInputError):
            geometric_convolve(make("E1"), 1.0)

    def test_invariance_small_grid(self):
        # modest windows: the exponential factor reaches a^(-8y)
        # at the widest identity shifts, and values ~1e7 drown an absolute
        # quadrature tolerance in round-off
        from invk.verify import GridSpec

        f = geometric_convolve(make("E2", m=1), 0.5, 1e-9)
        grid = GridSpec(seed=7, samples=12, n_max=4,
                        x_range=(-0.5, 0.5), y_range=(0.25, 1.5))
        rep = check_invariance(f, grid, 1e-7)
        assert rep.passed, (rep.max_abs_error, rep.worst_witness)
