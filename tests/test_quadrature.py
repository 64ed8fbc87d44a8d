import functools
import math
import time
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invk import quadrature, verify
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
from invk.verify import golden_integral


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

    @pytest.mark.parametrize("cut, sing", [
        (math.nextafter(0.02, 1.0), 0.02),   # 1 ulp inside the left end
        (0.02 + 0.4 - 0.4, 0.02),            # a pulled-back point, 5 ulps inside
        (math.nextafter(0.5, 0.0), 0.5),     # 1 ulp inside the right end
    ])
    def test_cut_within_ulps_of_an_end_is_dropped(self, cut, sing):
        # a cut there would make a panel too narrow to bisect, its 15 nodes
        # on the log singularity at the end; the point marks that end
        # singular instead, as listing the end itself does
        a, b = 0.02, 0.5
        assert 0.0 < min(cut - a, b - cut) <= 4.0 * 2.220446049250313e-16 * b  # the floor
        phi = Vectorized(lambda ts: np.log(np.abs(ts - sing)))
        cut_res = integrate(phi, a, b, 1e-10, (cut,))
        listed = integrate(phi, a, b, 1e-10, (sing,))
        assert listed.converged
        assert (cut_res.value.hex(), cut_res.error_estimate.hex(), cut_res.evaluations) == (
            listed.value.hex(), listed.error_estimate.hex(), listed.evaluations
        )

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

    def test_one_call_per_refinement_step(self, monkeypatch):
        sizes, levels = [], []
        nodes = quadrature._Levels.nodes

        def level(lv, out):
            n = len(out)
            nodes(lv, out)
            levels.append(len(out) - n)

        def phi(ts):
            sizes.append(ts.size)
            return np.exp(-ts * ts)

        monkeypatch.setattr(quadrature._Levels, "nodes", level)
        res = integrate(Vectorized(phi), -3.0, 3.0, tol=1e-12, interior_singularities=(-1.0, 1.0))
        assert sizes[0] == 3 * 15  # every initial panel at once
        assert sizes[1:] == levels and len(levels) >= 2  # a listed job's tanh-sinh levels, one a call
        assert sum(sizes) == res.evaluations
        sizes.clear()
        levels.clear()
        res = integrate(Vectorized(phi), -3.0, 3.0, tol=1e-12)
        assert sizes[0] == 15 and not levels  # no level without a listed point
        assert sizes[1:] and all(n == 30 for n in sizes[1:])  # both halves of a bisection
        assert sum(sizes) == res.evaluations


def _watch_restarts(m):
    """Wrap `_heap_rounds` while `_table_rounds` runs, with the monkeypatch
    context m.  Returns two lists: one that gets an entry per table call,
    and one that gets, per table call that restarts jobs, their indices in
    its call, when the restart begins."""
    tables, restarts = [], []
    table_rounds, heap_rounds = quadrature._table_rounds, quadrature._heap_rounds

    def table(batch, starts, tol):
        tables.append(starts)
        try:
            return table_rounds(batch, starts, tol)
        finally:
            tables[-1] = None

    def heap(batch, starts, tol):
        if tables and tables[-1] is not None:
            index = {id(start): j for j, start in enumerate(tables[-1])}
            restarts.append([index[id(start)] for start in starts])
        return heap_rounds(batch, starts, tol)

    m.setattr(quadrature, "_table_rounds", table)
    m.setattr(quadrature, "_heap_rounds", heap)
    return tables, restarts


def _owner_batch(specs):
    """A batch for `integrate_many` over `specs`, whose job j has the array
    integrand specs[j][0]: each job's integrand at the nodes it owns."""

    def batch(ts, owners):
        out = np.empty(ts.size)
        for j in np.unique(owners).tolist():
            at = owners == j
            out[at] = specs[j][0](ts[at])
        return out

    return batch


class TestIntegrateMany:
    """Lockstep integrals: each job's result is a lone `integrate` of its
    integrand, bit for bit.  Every table round is one batch call.  A job of
    a wide call with a listed singular point never enters the table, and
    one that would engage its epsilon table leaves it; once the table is
    done, both run alone on the heap path, in rounds of one batch call for
    all such jobs."""

    E9 = make("E9", r=0.5)
    E10 = make("E10")

    JOBS = [
        # (array integrand, a, b, interior singularities)
        (lambda ts: TestIntegrateMany.E9.values(ts, 0.7), -1.1, 2.3, ()),   # deep
        (lambda ts: TestIntegrateMany.E9.values(ts, 0.7), 2.3, -1.1, ()),   # reversed
        (lambda ts: np.exp(-ts * ts), -3.0, 3.0, (-1.0, 1.0)),              # shallow, cut
        (lambda ts: ts * ts, 0.5, 0.5, ()),                                 # a == b
        (lambda ts: 1.0 / np.sqrt(np.abs(ts - 0.3)), 1.0, -0.5, (0.3,)),    # reversed, cut, extrapolated
        (lambda ts: np.where(ts > 0, 1.0 / ts, 0.0), 0.0, 1.0, ()),         # unconverged
        (lambda ts: TestIntegrateMany.E10.values(ts, 0.4), -0.9, 1.3,
         (-0.8, -0.4, 0.0, 0.4, 0.8, 1.2)),                                 # many cuts
    ]
    TOL = 1e-10

    def _lockstep(self, specs):
        """integrate_many over the jobs `specs`, each checked against a lone
        `integrate` bit for bit, and the rounds against the lone rounds.
        Returns the results, the widths of the table rounds (of every round
        in a narrow call), the widths of the restart rounds and the jobs
        that restarted.

        A job that does not restart takes part in exactly its lone rounds.
        A restarted job takes part in its lone rounds up to the one in
        which it engages, in the table, and then in all of them alone."""
        rounds = []  # per round: its owners, panels summed as columns, one by one, restarts begun, level nodes
        kernels = quadrature._gk15_columns, quadrature._gk15
        level_nodes = [0]
        nodes = quadrature._Levels.nodes

        def levels(lv, out):
            n = len(out)
            nodes(lv, out)
            level_nodes[0] += len(out) - n

        def batch(ts, owners):
            assert isinstance(owners, np.ndarray) and owners.shape == ts.shape
            assert isinstance(ts, np.ndarray) and np.all(np.diff(owners) >= 0)
            out = _owner_batch(specs)(ts, owners)
            rounds.append([owners, 0, 0, len(restarts), level_nodes[0]])
            level_nodes[0] = 0
            return out

        def columns(fv, h):
            rounds[-1][1] += h.size
            return kernels[0](fv, h)

        def panel(fv, h):
            rounds[-1][2] += 1
            return kernels[1](fv, h)

        with pytest.MonkeyPatch.context() as m:
            _, restarts = _watch_restarts(m)
            m.setattr(quadrature, "_gk15_columns", columns)
            m.setattr(quadrature, "_gk15", panel)
            m.setattr(quadrature._Levels, "nodes", levels)
            got = integrate_many(batch, [(a, b, cuts) for _, a, b, cuts in specs], self.TOL)
        lone = []  # per job: its rounds, and its rounds and evaluations before it engages
        engage = quadrature._Job._engage
        for (fn, a, b, cuts), res in zip(specs, got):
            n, engaged = [], []

            def counted(job, *args, n=n, engaged=engaged):
                engaged.append((len(n), 15 * job.serial))
                return engage(job, *args)

            with pytest.MonkeyPatch.context() as m:
                m.setattr(quadrature._Job, "_engage", counted)
                want = integrate(Vectorized(lambda ts: n.append(0) or fn(ts)), a, b, self.TOL, cuts)
            lone.append((len(n), *(engaged[0] if engaged else (None, 0))))
            assert res.value.hex() == want.value.hex()
            assert res.error_estimate.hex() == want.error_estimate.hex()
            assert (res.evaluations, res.converged) == (want.evaluations, want.converged)
        wide = len(specs) >= quadrature._TABLE_MIN
        restarted = [j for j, (_, k, _) in enumerate(lone) if wide and k is not None]
        assert restarts == ([restarted] if restarted else [])
        first = sum(not begun for *_, begun, _ in rounds)  # the table's rounds, or a narrow call's
        for j, (n, k, _) in enumerate(lone):
            took = [sum(j in owners for owners, *_ in part) for part in (rounds[:first], rounds[first:])]
            assert took == ([k, n] if j in restarted else [n, 0])
        # batch calls = table rounds + restart rounds
        assert first == max(k if j in restarted else n for j, (n, k, _) in enumerate(lone))
        assert len(rounds) - first == max((lone[j][0] for j in restarted), default=0)
        widths = [len(owners) for owners, *_ in rounds]  # nodes
        wasted = sum(lone[j][2] for j in restarted)  # 15 x the restarted jobs' table panels
        assert sum(widths) == sum(r.evaluations for r in got) + wasted
        # a wide call's table rounds run as columns, its restart rounds and
        # every round of a narrow call on the heap path, where a tanh-sinh
        # level's nodes join the round's panels
        for owners, summed, one_by_one, begun, level in rounds:
            panels = (len(owners) - level) // 15
            assert 15 * panels + level == len(owners)
            assert (summed, one_by_one, level) == (
                (panels, 0, 0) if wide and not begun else (0, panels, level))
        return got, widths[:first], widths[first:], restarted

    def test_each_job_equals_a_lone_integral(self):
        got, _, restart, _ = self._lockstep(self.JOBS)
        assert not restart  # a narrow call has no table to leave
        assert [r.converged for r in got] == [True, True, True, True, True, False, True]
        assert len({r.evaluations for r in got}) >= 5  # the jobs stop at different rounds

    @staticmethod
    def _kernel_rounds(monkeypatch, specs, tol, rounds):
        """integrate_many over `specs` with both Kronrod kernels counted:
        appends to `rounds`, per round, [its owners, the panels
        `_gk15_columns` summed, the panels `_gk15` summed, the restarts
        begun].  Returns the restarts (`_watch_restarts`)."""

        def columns(fv, h):
            rounds[-1][1] += h.size
            return _gk15_columns(fv, h)

        def panel(fv, h):
            rounds[-1][2] += 1
            return _gk15(fv, h)

        def batch(ts, owners):
            rounds.append([owners, 0, 0, len(restarts)])
            return _owner_batch(specs)(ts, owners)

        with monkeypatch.context() as m:
            _, restarts = _watch_restarts(m)
            m.setattr(quadrature, "_gk15_columns", columns)
            m.setattr(quadrature, "_gk15", panel)
            integrate_many(batch, [(a, b, cuts) for _, a, b, cuts in specs], tol)
        return restarts

    def test_wide_rounds_run_as_columns(self):
        # a call of at least _TABLE_MIN jobs runs every table round as
        # columns, its late rounds of a few panels too; the three singular
        # jobs of each copy of JOBS engage and restart on the heap path.
        # The copies list no points, so a singular job bisects to depth
        # _ENGAGE in the table before it leaves, and the shallow job that
        # JOBS cuts does not engage at its cuts
        specs = [(fn, a, b, ()) for fn, a, b, _ in self.JOBS] * 8
        assert len(specs) >= quadrature._TABLE_MIN
        got, widths, restart, restarted = self._lockstep(specs)
        assert len(widths) >= 3 and min(widths) <= 15 * 16 < max(widths)  # wide and narrow rounds
        assert restart and restarted == [j for j in range(len(specs)) if j % 7 in (4, 5, 6)]
        assert [r.converged for r in got] == [True, True, True, True, True, False, True] * 8

    def test_narrow_rounds_never_run_as_columns(self, monkeypatch):
        # a call of fewer than _TABLE_MIN jobs sums panel by panel, its
        # first round of more than 16 panels too, and so does a lone integral
        def refuse(fv, h):
            raise AssertionError("a narrow call reached the column kernel")

        monkeypatch.setattr(quadrature, "_gk15_columns", refuse)
        specs = (self.JOBS * 8)[:quadrature._TABLE_MIN - 1]
        _, widths, restart, _ = self._lockstep(specs)
        assert widths[0] >= 16 and not restart
        for fn, a, b, cuts in self.JOBS:
            integrate(Vectorized(fn), a, b, self.TOL, cuts)

    def test_table_equals_lone_integrals_on_seeded_jobs(self, monkeypatch):
        # 380 jobs in one call.  240 mixed ones: equal and reversed ranges,
        # cuts within the bisection floor of an end, jumps that pop panels
        # at the depth limit, roundoff floors above tol (constants, and
        # large smooth integrands whose panels sink to their floors), NaN
        # and inf values, and a panel budget of 400 that some jobs run out
        # of.  40 odd integrands
        # cut at the centre of a symmetric range, whose mirror panels tie
        # on their estimates.  100 pairs of jumps far from 0, whose
        # panels reach the width floor with less error than tol, so the job
        # pops again after it
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 400)
        rng = np.random.default_rng(2024)
        kinds = [
            lambda p: lambda ts: np.exp(p * ts),
            lambda p: lambda ts: np.cos(40.0 * p * ts),
            lambda p: lambda ts: np.cos(3000.0 * p * ts),
            lambda p: lambda ts: np.abs(ts - p / 3.0),
            lambda p: lambda ts: np.where(ts > p / 3.0, 10.0 ** (4.0 * abs(p)), 0.0),
            lambda p: lambda ts: np.full(ts.shape, 1e7 * p),
            lambda p: lambda ts: 1.0 / np.sqrt(np.abs(ts - p / 2.0)),
            lambda p: lambda ts: np.where(ts > p, np.nan, ts),
            lambda p: lambda ts: np.where(np.abs(ts - p) < 0.01, np.inf, 1.0),
            lambda p: lambda ts: np.sin(ts) * (1.0 + 1e6 * (p > 1.5)),
            lambda p: lambda ts: 1e6 * np.exp(p * ts),
        ]
        specs = []
        for _ in range(240):
            kind = int(rng.integers(len(kinds)))
            p = float(rng.uniform(-2.0, 2.0))
            a, b = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
            if rng.random() < 0.05:
                b = a
            cuts = [p / 2.0] if kind == 6 else []
            if rng.random() < 0.2:
                cuts += [np.nextafter(a, b), np.nextafter(b, a), 0.5 * (a + b)]  # two sub-floor cuts
            specs.append((kinds[kind](p), a, b, cuts))
        for _ in range(40):
            k, a = (float(v) for v in rng.uniform((2.0, 0.5), (80.0, 2.0)))
            specs.append((lambda ts, k=k: ts / (1.0 + (k * ts) ** 2), -a, a, [0.0]))
        for _ in range(100):
            off = 10.0 ** float(rng.uniform(4.5, 7.0))
            c1, c2 = (off + float(v) for v in rng.uniform((0.1, 1.1), (0.9, 1.9)))
            jump = 10.0 ** float(rng.uniform(-1.5, 1.0))
            specs.append((lambda ts, c1=c1, c2=c2, jump=jump, off=off: np.where(ts > c1, jump, 0.0)
                          + np.where(ts > c2, jump, 0.0) + np.cos(3.0 * (ts - off)), off, off + 2.0, []))

        def batch(ts, owners):
            assert owners.shape == ts.shape and np.all(np.diff(owners) >= 0)
            return _owner_batch(specs)(ts, owners)

        tol = 1e-10
        got = integrate_many(batch, [(a, b, cuts) for _, a, b, cuts in specs], tol)
        outcomes = set()
        for (fn, a, b, cuts), res in zip(specs, got):
            want = integrate(Vectorized(fn), a, b, tol, cuts)
            assert res.value.hex() == want.value.hex()
            assert res.error_estimate.hex() == want.error_estimate.hex()
            assert (res.evaluations, res.converged) == (want.evaluations, want.converged)
            outcomes.add((res.converged, math.isnan(res.value), res.evaluations >= 15 * 400))
        assert outcomes >= {(True, False, False), (False, False, False), (False, True, False),
                            (False, False, True)}

    def test_wide_call_that_narrows(self, monkeypatch):
        # 64 jobs: 56 finish in round 1, so the table runs its later rounds
        # for fewer than _TABLE_MIN jobs, still as columns.  A few take 20
        # or more rounds, and the kinked and singular ones would engage
        # their epsilon tables only then: each leaves the table in the round
        # before, and restarts, after the table's last round, on the heap
        # path, where it engages in the same round of its own.  A zero
        # integrand of -0.0 returns +0.0, as fsum does
        rng = np.random.default_rng(20)
        specs = []
        for _ in range(55):
            p, a = (float(v) for v in rng.uniform((-1.0, -1.0), (1.0, 1.0)))
            specs.append((lambda ts, p=p: np.exp(p * ts), a, a + 0.25, ()))
        specs.append((lambda ts: np.full(ts.shape, -0.0), 0.2, 1.7, ()))
        for c in (-0.31, 0.17, 0.42):
            specs.append((lambda ts, c=c: np.abs(ts - c) * np.cos(ts), -1.0, 1.0, ()))
        for k in (30.0, 45.0):
            specs.append((lambda ts, k=k: np.cos(k * ts) * np.exp(ts), -2.0, 2.0, ()))
        # singular at points they do not list, so they bisect to _ENGAGE
        specs.append((lambda ts: np.log(np.abs(ts - 0.3)), 1.0, -0.5, ()))
        specs.append((lambda ts: np.abs(ts - 0.7) ** -0.5, 0.0, 1.0, ()))
        specs.append((lambda ts: ts * ts, 0.5, 0.5, ()))
        engaged, rounds = [], []
        engage = quadrature._Job._engage

        def counted_engage(job, *args):
            engaged.append(len(rounds))
            return engage(job, *args)

        monkeypatch.setattr(quadrature._Job, "_engage", counted_engage)
        monkeypatch.setattr(quadrature, "_Wynn", _CountedWynn)
        _CountedWynn.started = 0
        (restarted,) = self._kernel_rounds(monkeypatch, specs, self.TOL, rounds)
        first = sum(not begun for *_, begun in rounds)  # the table's rounds
        jobs = [set(owners) for owners, *_ in rounds]
        assert len(rounds) >= 20 and len(jobs[0]) == len(specs) - 1 >= quadrature._TABLE_MIN
        assert len(jobs[1]) < quadrature._TABLE_MIN
        # table rounds run as columns, restart rounds on the heap path
        assert all(15 * summed == len(owners) and not heap for owners, summed, heap, _ in rounds[:first])
        assert all(15 * heap == len(owners) and not summed for owners, summed, heap, _ in rounds[first:])
        assert restarted == [56, 57, 58, 61, 62] == sorted(set().union(*jobs[first:]))
        table_rounds = [sum(j in js for js in jobs[:first]) for j in restarted]
        assert sorted(first + k for k in table_rounds) == sorted(engaged)
        assert min(table_rounds) > 1 and _CountedWynn.started == len(engaged)
        got = integrate_many(_owner_batch(specs), [(a, b, cuts) for _, a, b, cuts in specs], self.TOL)
        long, lone_rounds = 0, []
        for (fn, a, b, cuts), res in zip(specs, got):
            n = []
            want = integrate(Vectorized(lambda ts: n.append(0) or fn(ts)), a, b, self.TOL, cuts)
            lone_rounds.append(len(n))
            assert res.value.hex() == want.value.hex()
            assert res.error_estimate.hex() == want.error_estimate.hex()
            assert (res.evaluations, res.converged) == (want.evaluations, want.converged)
            long += res.evaluations >= 15 + 30 * 19
        assert long >= 3
        assert all(r.evaluations == 15 for r in got[:56])
        assert got[55].value.hex() == "0x0.0p+0"
        # batch calls = table rounds + restart rounds, and the panels of
        # every round are the evaluations reported plus the restarted jobs'
        # table panels
        assert first == max([n for j, n in enumerate(lone_rounds) if j not in restarted] + table_rounds)
        assert len(rounds) - first == max(lone_rounds[j] for j in restarted)
        nodes = sum(len(owners) for owners, *_ in rounds)
        wasted = sum(np.count_nonzero(owners == j) for owners, *_ in rounds[:first] for j in restarted)
        assert nodes == sum(r.evaluations for r in got) + wasted

    def test_done_panels_move_with_their_jobs(self, monkeypatch):
        # pairs of jumps far from 0, whose panels reach the width floor and
        # go to done with less error than tol while their jobs go on: the
        # jobs that would engage their epsilon tables restart, and keep
        # done panels as a lone integral does, and each ends as one does
        rng = np.random.default_rng(31)
        specs = []
        for _ in range(60):
            off = 10.0 ** float(rng.uniform(4.5, 7.0))
            c1, c2 = (off + float(v) for v in rng.uniform((0.1, 1.1), (0.9, 1.9)))
            jump = 10.0 ** float(rng.uniform(-1.5, 1.0))
            specs.append((lambda ts, c1=c1, c2=c2, jump=jump: np.where(ts > c1, jump, 0.0)
                          + np.where(ts > c2, jump, 0.0), off, off + 2.0, []))
        engaged = []
        engage = quadrature._Job._engage

        def counted(job, *args):
            engaged.append(job)
            return engage(job, *args)

        monkeypatch.setattr(quadrature._Job, "_engage", counted)
        _, _, restart, restarted = self._lockstep(specs)
        assert any(job.done for job in engaged) and restart and 0 < len(restarted) < len(specs)

    def test_integrate_is_the_one_job_case(self):
        seen = []

        def batch(ts, owners):
            seen.append((ts.size, owners.tolist()))
            return np.cos(np.array(ts)).tolist()

        (res,) = integrate_many(batch, [(0.0, 5.0, (1.0,))], 1e-12)
        want = integrate(math.cos, 0.0, 5.0, 1e-12, (1.0,))
        assert (res.value.hex(), res.evaluations) == (want.value.hex(), want.evaluations)
        # `owners` names the job of each node: the 30 of the two initial
        # panels first, then those of each later round
        assert seen[0] == (30, [0] * 30) and all(owners == [0] * n for n, owners in seen[1:])
        assert sum(n for n, _ in seen) == res.evaluations

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
        # 1/t at 0 is not integrable: its panel at the singularity keeps its
        # error at every depth, and the job stops once that panel reaches
        # MAX_DEPTH instead of spending the 20,000-panel budget (300,015
        # evaluations).  An inverse-square-root singularity at a cut leaves
        # ~1.5e-6 in its panels at MAX_DEPTH under bisection alone, but its
        # extrapolated levels meet tol
        pole = integrate(lambda t: 1.0 / t if t > 0 else 0.0, 0.0, 1.0, 1e-10)
        assert not pole.converged and pole.evaluations < 5_000
        kink = integrate(Vectorized(lambda ts: 1.0 / np.sqrt(np.abs(ts - 0.3))), 1.0, -0.5, 1e-8, (0.3,))
        assert kink.converged and kink.evaluations < 5_000
        assert abs(kink.value + 2.0 * (math.sqrt(0.8) + math.sqrt(0.7))) <= 1e-8

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


def _watch_levels(m):
    """Wrap `_Levels.take` with the monkeypatch context m.  Returns a list
    that gets, per job that leaves the tanh-sinh stage, True when it settled
    there and False when it went back to bisection, and the list of the
    nodes each level evaluated."""
    ends, nodes = [], []
    take = quadrature._Levels.take

    def watched(lv, fv, tol):
        nodes.append(len(fv))
        done = take(lv, fv, tol)
        if done:
            ends.append(lv.result is not None)
        return done

    m.setattr(quadrature._Levels, "take", watched)
    return ends, nodes


def _offset_reference(g, a, b, c):
    """The oriented integral over [a, b] of g(t - c), with g singular at 0,
    by mpmath at 30 digits.  Each side of c is integrated in s, with
    t - c = +-s^4, so the integrand is smooth there and the offsets of
    mpmath's nodes from c keep their 30 digits however close they come."""
    lo, hi = min(a, b), max(a, b)
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        if lo < c:
            total += mpmath.quad(lambda s: 4 * s ** 3 * g(-s ** 4), [0, mpmath.root(c - mpmath.mpf(lo), 4)])
        if c < hi:
            total += mpmath.quad(lambda s: 4 * s ** 3 * g(s ** 4), [0, mpmath.root(mpmath.mpf(hi) - c, 4)])
        return float(total if a <= b else -total)


class _CountedWynn(quadrature._Wynn):
    """The epsilon table, counting the jobs that start one."""

    started = 0

    def __init__(self):
        type(self).started += 1
        super().__init__()


def _conv_reference(g, h, x, y=1.0):
    """(g * h)(x, y) for 0 < x < y by mpmath at 30 digits: the integral of
    g(t) h(x - t) over [0, x] plus that of g(t) h(x + y - t) over [x, y].
    g and h are mpmath functions of (t, y) for t in [0, y]."""
    with mpmath.workdps(30):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        return float(mpmath.quad(lambda t: g(t, y) * h(x - t, y), [0, x])
                     + mpmath.quad(lambda t: g(t, y) * h(x + y - t, y), [x, y]))


def _mp_e10(t, y):
    return mpmath.log(abs(2 * mpmath.sin(mpmath.pi * t / y)))


def _mp_e12(t, y):
    u, log_y = t / y, mpmath.log(y)
    return u * log_y + mpmath.log(abs(mpmath.gamma(u))) - (mpmath.log(2 * mpmath.pi) + log_y) / 2


def _mp_e2_m2(t, y):
    return y * mpmath.bernpoly(2, t / y)


class TestExtrapolation:
    """A job extrapolates its level areas with Wynn's epsilon algorithm
    (QUADPACK's QAGP), from its first bisection when it lists a singular
    point, else once a bisection takes it to depth `_ENGAGE`."""

    def _cases(self):
        """Seeded integrands singular at an end or at a cut c: (name, phi,
        the integrand as a function of t - c in mpmath, a, b, c)."""
        rng = np.random.default_rng(1956)
        cases = []

        def span(c):
            lo, hi = (c, c + float(rng.uniform(0.1, 2.0))) if rng.random() < 0.5 else (
                c - float(rng.uniform(0.1, 1.0)), c + float(rng.uniform(0.1, 1.0)))
            return (hi, lo) if rng.random() < 0.3 else (lo, hi)

        for _ in range(6):
            c = float(rng.uniform(-1.0, 1.0))
            cases.append(("log|t - c|", Vectorized(lambda ts, c=c: np.log(np.abs(ts - c))),
                          lambda d: mpmath.log(abs(d)), *span(c), c))
        for _ in range(6):
            k = float(rng.integers(0, 2))
            a, b = k - float(rng.uniform(0.0, 0.9)), k + float(rng.uniform(0.05, 0.9))
            cases.append(("log|2 sin pi t|", Vectorized(lambda ts: np.log(np.abs(2.0 * np.sin(np.pi * ts)))),
                          lambda d: mpmath.log(abs(2 * mpmath.sin(mpmath.pi * d))),
                          k if rng.random() < 0.3 else a, b, k))
        for _ in range(6):
            a = 0.0 if rng.random() < 0.5 else float(rng.uniform(-0.9, -0.1))
            cases.append(("lgamma", math.lgamma, lambda d: mpmath.log(abs(mpmath.gamma(d))),
                          a, float(rng.uniform(0.1, 3.0)), 0.0))
        for p in (0.25, 0.5, 0.75):
            for _ in range(6):
                c = float(rng.uniform(-1.0, 1.0))
                cases.append((f"|t - c|^-{p}", Vectorized(lambda ts, c=c, p=p: np.abs(ts - c) ** -p),
                              lambda d, p=p: abs(d) ** -p, *span(c), c))
        return cases

    def test_converged_results_are_within_tol_of_mpmath(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_Wynn", _CountedWynn)
        _CountedWynn.started = 0
        ends, _ = _watch_levels(monkeypatch)
        runs = converged = 0
        for name, phi, g, a, b, c in self._cases():
            want = _offset_reference(g, a, b, c)
            for tol in (1e-8, 1e-10, 1e-12):
                res = integrate(phi, a, b, tol, (c,))
                runs += 1
                if res.converged:
                    converged += 1
                    assert abs(res.value - want) <= tol, (name, a, b, c, tol, res)
        # every run missed tol on its initial panels and ran tanh-sinh
        # levels, then settled there or extrapolated from the table it had
        # engaged at its first bisection
        assert _CountedWynn.started == runs == len(ends)
        assert 0 < sum(ends) < runs
        assert converged >= 0.7 * runs

    def test_log_kernel_counts(self):
        e10 = make("E10")
        x, y = 0.123, 1.0
        period = integrate(lambda t: e10.value(t, y), x, x + y, 1e-10, e10.singular_points(y, x, x + y))
        # 222 evaluations by tanh-sinh levels; 360 by the table from depth 1,
        # 960 with it engaged at depth _ENGAGE, 2,010 by bisection alone
        assert period.converged and period.evaluations <= 222
        assert abs(period.value) <= 1e-10  # E10 has period integral 0
        rounds = []
        heap_rounds = quadrature._heap_rounds

        def counted(batch, starts, tol):
            def counting(nodes, jobs, counts):
                rounds.append(len(nodes))
                return batch(nodes, jobs, counts)
            return heap_rounds(counting, starts, tol)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(quadrature, "_heap_rounds", counted)
            value = convolve(e10, e10).value(0.35, 1.0)
        # 5 by tanh-sinh levels; 14 by the table from depth 1, 28 engaged at
        # depth _ENGAGE, 67 by bisection alone
        assert len(rounds) <= 5
        assert abs(value - _conv_reference(_mp_e10, _mp_e10, 0.35)) <= 1e-10
        euler = integrate(lambda t: math.log(math.sin(t)), 0.0, 0.5 * math.pi, 1e-11)
        assert euler.converged and euler.evaluations <= 600  # 1,125 by bisection alone
        assert golden_integral("euler") == (euler.value, -0.5 * math.pi * math.log(2.0))
        assert abs(euler.value + 0.5 * math.pi * math.log(2.0)) <= 1e-11

    def test_shallow_jobs_never_start_a_table(self, monkeypatch):
        # the integrals of verify --all stop by depth 9; a job that never
        # bisects to depth _ENGAGE keeps the bits of plain bisection
        monkeypatch.setattr(quadrature, "_Wynn", _CountedWynn)
        _CountedWynn.started = 0
        e9, e2 = make("E9", r=0.5), make("E2", m=1)
        integrate(Vectorized(lambda ts: e9.values(ts, 0.7)), -1.1, 2.3, 1e-12)
        convolve(e2, e9).values(np.linspace(0.05, 0.95, 30), 1.0)
        assert _CountedWynn.started == 0

    @pytest.mark.parametrize("phi, cuts", [
        (lambda ts: 1.0 / ts, ()),
        (lambda ts: 1.0 / np.abs(ts - 0.3), (0.3,)),
        (lambda ts: ts ** -1.5, ()),
        (lambda ts: np.abs(ts - 0.3) ** -2.0, (0.3,)),
    ])
    def test_non_integrable_stays_unconverged(self, phi, cuts):
        for tol in (1e-6, 1e-10):
            res = integrate(Vectorized(phi), 0.0, 1.0, tol, cuts)
            assert not res.converged and res.evaluations < 5_000

    def test_divergence_test_rejects_an_antilimit(self, monkeypatch):
        # the areas of t^-1.2 grow geometrically, and the epsilon algorithm
        # takes them to their antilimit -5, of the other sign
        phi = Vectorized(lambda ts: ts ** -1.2)
        res = integrate(phi, 0.0, 1.0, 1e-10)
        assert not res.converged and res.value > 100.0
        monkeypatch.setattr(quadrature, "_diverges", lambda *args: False)
        fooled = integrate(phi, 0.0, 1.0, 1e-10)
        assert fooled.converged and abs(fooled.value + 5.0) < 1e-10

    def test_a_level_that_bisects_nothing_takes_no_area(self):
        # an engaged job whose one panel left sits at its floor, while done
        # panels hold more error: its level loop can bisect nothing, and the
        # same area taken again would let the table converge on it, with an
        # error that leaves out the done panels.  It bisects plainly instead
        tol = 1e-10
        job = quadrature._Job(-1.0, 1.0, 1.0)
        job.heap = [(-0.6 * tol, 0, -1.0, 0.9, 0.3, 0.6 * tol, 9, 0.6 * tol)]
        job.done = [(-0.5 * tol, 1, 0.9, 1.0, 0.1, 0.5 * tol, quadrature.MAX_DEPTH, 0.0)]
        job.heap_err, job.done_err, job.serial = 0.6 * tol, 0.5 * tol, 2
        job._engage(10, job.heap_err, 0.0)
        halves = job._level_step(0.0, 10, tol)
        mid = 0.5 * (-1.0 + 0.9)
        assert halves == ([-1.0, mid], [mid, 0.9], 10)
        assert job.best is None and job.levmax == 0

    @pytest.mark.parametrize("engaged", [False, True])
    def test_a_nan_error_sum_stops_at_any_level(self, engaged):
        # a NaN error sum is neither within tol nor above it: the one loop
        # stops the job, whether it bisects plainly or extrapolates
        job = quadrature._Job(-1.0, 1.0, 1.0)
        job.heap = [(-1e-3, 0, -1.0, 0.0, 0.5, 1e-3, 5, 0.0)]
        job.heap_err, job.above, job.serial = math.nan, 1, 1
        if engaged:
            job._engage(10, 1e-3, 0.0)
        assert job._level_step(0.0, 10, 1e-10) is None
        assert len(job.heap) == 1 and job.levmax == (10 if engaged else 0)

    def test_panels_that_overflow_both_ways_end_unconverged(self):
        # finite values whose Kronrod sums overflow to +inf on one panel and
        # -inf on the other: their sum is nan, as Python floats add, where
        # fsum raises, so the job ends unconverged as the unlisted one does,
        # lone and in a wide call alike
        def step(ts):
            return np.where(ts > 0.5, 1e308, -1e308)

        unlisted = integrate(lambda t: 1e308 if t > 0.5 else -1e308, -3.0, 3.0, 1e-10)
        assert not unlisted.converged
        lone = integrate(lambda t: 1e308 if t > 0.5 else -1e308, -3.0, 3.0, 1e-10, (0.5,))
        assert not lone.converged and math.isnan(lone.value)
        specs = [(step, -3.0, 3.0, (0.5,))]
        specs += [(np.cos, 0.0, 1.0 + k, ()) for k in range(quadrature._TABLE_MIN)]
        wide = integrate_many(_owner_batch(specs), [(a, b, cuts) for _, a, b, cuts in specs], 1e-10)
        assert not wide[0].converged and math.isnan(wide[0].value)
        assert (wide[0].error_estimate, wide[0].evaluations) == (lone.error_estimate, lone.evaluations)
        assert all(res.converged for res in wide[1:])

    def test_rounding_noise_bounds_the_table(self):
        # nodes near c = 3.16... round by up to 2.2e-16, which moves
        # |t - c|^-3/4 by 0.75 x 2.2e-16 / |t - c| relative, 1.6e-10 at
        # 1e-6 from c, on the small panels the levels add; the epsilon
        # table fed those areas settles 1.4e-10 from the
        # integral with an error of its own of 9.9e-11, so only its noise
        # term keeps the result from a false convergence
        c = 3.1618392208381576
        a, b = 3.1446805611000626, 3.8656861773076807
        want = _offset_reference(lambda d: abs(d) ** -0.75, a, b, c)
        res = integrate(Vectorized(lambda ts: np.abs(ts - c) ** -0.75), a, b, 1e-10, (c,))
        assert not res.converged and abs(res.value - want) > 1e-10
        at_zero = integrate(Vectorized(lambda ts: np.abs(ts) ** -0.75), a - c, b - c, 1e-10, (0.0,))
        assert at_zero.converged and abs(at_zero.value - want) <= 1e-10

    def test_noise_stop_keeps_the_table_result(self):
        # the noise of the areas exceeds tol from the first extrapolation
        # on, before the table has an error of its own; the job extrapolates
        # until it has one and keeps that result, with its error plus the
        # noise, where it used to drop it for the panel sum 8.8e-4 off
        c = 0.9355749558027877
        a, b = 0.9846342338366979, 0.6725765374415519
        want = _offset_reference(lambda d: abs(d) ** -0.75, a, b, c)
        res = integrate(Vectorized(lambda ts: np.abs(ts - c) ** -0.75), a, b, 1e-12, (c,))
        assert not res.converged and 1e-12 < res.error_estimate <= 1e-10
        assert abs(res.value - want) <= res.error_estimate


class TestWideEngagedJobs:
    """A job of a wide call that would start extrapolating leaves the table
    and restarts alone, one with a listed point runs alone without a table
    round, and each equals a lone `integrate` bit for bit."""

    @staticmethod
    def _same(got, want):
        assert got.value.hex() == want.value.hex()
        assert got.error_estimate.hex() == want.error_estimate.hex()
        assert (got.evaluations, got.converged) == (want.evaluations, want.converged)

    def test_mixed_singular_and_smooth_jobs(self, monkeypatch):
        _, restarts = _watch_restarts(monkeypatch)
        rng = np.random.default_rng(83)
        kinds = [
            lambda c: (lambda ts: np.log(np.abs(ts - c)), (c,)),
            lambda c: (lambda ts: np.log(np.abs(ts - c)) * np.cos(ts), ()),
            lambda c: (lambda ts: np.abs(ts - c) ** -0.5, (c,)),
            lambda c: (lambda ts: np.abs(ts - c) ** -0.25 + ts, (c,)),
            lambda c: (lambda ts: np.exp(c * ts), ()),
            lambda c: (lambda ts: np.cos(20.0 * c * ts), ()),
        ]
        specs = []
        for _ in range(2 * quadrature._TABLE_MIN):
            kind = int(rng.integers(len(kinds)))
            c = float(rng.uniform(-1.0, 1.0))
            fn, cuts = kinds[kind](c)
            a, b = (c, c + float(rng.uniform(0.2, 2.0))) if kind == 1 else (
                float(rng.uniform(-2.0, -1.0)), float(rng.uniform(1.0, 2.0)))
            if rng.random() < 0.3:
                a, b = b, a
            specs.append((fn, a, b, cuts))
        # jobs that stay in the table: a == b, with and without a listed
        # point, and smooth ones that list only points outside their range
        kept = range(len(specs), len(specs) + 12)
        for k in range(12):
            c = float(rng.uniform(-1.0, 1.0))
            if k < 4:
                a = b = c
                cuts = (c,) if k < 2 else ()
            else:
                a, b = c, c + float(rng.uniform(0.2, 2.0))
                cuts = (a - 0.5, b + 1e-3, 9.0)
            if k % 2:
                a, b = b, a
            specs.append((lambda ts, c=c: np.exp(c * ts) + ts * ts, a, b, cuts))

        def batch(ts, owners):
            assert owners.shape == ts.shape and np.all(np.diff(owners) >= 0)
            return _owner_batch(specs)(ts, owners)

        tol = 1e-10
        got = integrate_many(batch, [(a, b, cuts) for _, a, b, cuts in specs], tol)
        (restarted,) = restarts
        for (fn, a, b, cuts), res in zip(specs, got):
            self._same(res, integrate(Vectorized(fn), a, b, tol, cuts))
        assert len(restarted) >= 20 and restarted == sorted(set(restarted))
        assert not set(kept) & set(restarted)
        assert [got[j].evaluations for j in kept[:4]] == [0] * 4 and all(got[j].converged for j in kept)
        assert sum(r.converged for r in got) >= len(got) - 5

    def test_serial_suite_restarts_no_job(self, monkeypatch):
        # no job of a wide call in verify --all lists a singular point: the
        # 29 that do (zeta-convolution, integral-limit) run in narrow calls,
        # where they may extrapolate without a restart.  The wide calls'
        # jobs, the convolution terms and the E2*E9 and E5*E9 products'
        # sinh-mapped pieces among them, stop short of depth _ENGAGE, so no
        # job restarts.  A family that makes wide calls of log kernels, or of
        # terms that list a point, would run jobs on the heap path after the
        # table, and trips this
        monkeypatch.setattr(verify, "_cpus", lambda: 1)
        tables, restarts = _watch_restarts(monkeypatch)
        verify.standard_suite(verify.DEFAULT_GRID)
        assert len(tables) >= 40 and restarts == []

    def test_log_sine_convolution_values(self):
        e10 = make("E10")
        conv = convolve(e10, e10)
        xs = np.linspace(0.04, 0.96, 24)  # 48 term integrals, a wide call
        got = conv.values(xs, 1.0)
        assert 2 * xs.size >= quadrature._TABLE_MIN
        for x, value in zip(xs.tolist(), got.tolist()):
            assert value.hex() == conv.value(x, 1.0).hex()
        assert abs(got[7] - _conv_reference(_mp_e10, _mp_e10, xs[7])) <= 1e-10


def _log_antiderivative(t, c):
    """(t - c) log|t - c| - t, an antiderivative of log|t - c|."""
    return -t if t == c else (t - c) * math.log(abs(t - c)) - t


def _ulps_inside(end, toward, k):
    """The float k ulps from `end` toward `toward`."""
    for _ in range(k):
        end = math.nextafter(end, toward)
    return end


class TestListedSingularPoints:
    """A job starts extrapolating at its first bisection of a panel that
    ends at a listed singular point: an interior cut, or an end that a
    listed point lies within the bisection floor of.  A singularity that no
    caller listed waits for depth `_ENGAGE`."""

    @staticmethod
    def _engaged(m):
        """Wrap `_Job._engage` with the monkeypatch context m; returns the
        list that gets the depth of each engagement."""
        depths = []
        engage = quadrature._Job._engage

        def counted(job, depth, *args):
            depths.append(depth)
            return engage(job, depth, *args)

        m.setattr(quadrature._Job, "_engage", counted)
        return depths

    @pytest.mark.parametrize("a, b, c, listed", [
        (-0.4, 0.9, 0.3, 0.3),                                 # an interior cut
        (0.3, 1.1, 0.3, 0.3),                                  # at the left end
        (0.9, -0.2, 0.9, 0.9),                                 # at the right end, reversed
        (0.3, 1.1, 0.3, math.nextafter(0.3, 1.0)),             # 1 ulp inside the left end
        (-0.2, 0.7, 0.7, _ulps_inside(0.7, 0.0, 5)),           # 5 ulps inside the right end
        (1.3, 0.02, 0.02, 0.02 + 0.4 - 0.4),                   # pulled back 5 ulps inside, reversed
    ])
    def test_a_listed_log_singularity_engages_at_depth_one(self, a, b, c, listed):
        # the job engages its table at its first bisection, and then runs
        # that bisection's round as its first tanh-sinh level instead; the
        # levels settle it.  Without the listed point it bisects plainly
        # and engages at depth _ENGAGE, with no level
        assert abs(listed - c) <= 4.0 * _EPS * max(abs(a), abs(b), abs(b - a))  # within the floor
        phi = Vectorized(lambda ts: np.log(np.abs(ts - c)))
        tol = 1e-10
        exact = _log_antiderivative(b, c) - _log_antiderivative(a, c)
        with pytest.MonkeyPatch.context() as m:
            depths = self._engaged(m)
            ends, _ = _watch_levels(m)
            res = integrate(phi, a, b, tol, (listed,))
            early, depths[:] = depths[:], []
            settled, ends[:] = ends[:], []
            plain = integrate(phi, a, b, tol)
        assert early == [1] and depths == [quadrature._ENGAGE]
        assert settled == [True] and ends == []
        assert res.converged and abs(res.value - exact) <= tol
        assert plain.converged and res.evaluations < plain.evaluations

    def test_an_unlisted_job_starts_from_at_most_one_panel(self):
        # the table takes a job from `_starts` only when it lists no point,
        # at `_ENGAGE`, and pushes its one panel [lo, hi], or none when
        # lo == hi.  Seeded jobs list points outside [a, b], at an end,
        # within the floor of an end and strictly inside, over reversed
        # and equal ranges too
        rng = np.random.default_rng(33)
        jobs, want = [], []
        for k in range(600):
            a, b = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
            kind = k % 6
            if kind == 5:
                b = a
            lo, hi = min(a, b), max(a, b)
            floor = 4.0 * _EPS * max(abs(lo), abs(hi), hi - lo)
            points = [float(p) for p in rng.uniform(hi + 2.0 * floor, 3.0, 2)]
            points.append(float(rng.uniform(-3.0, lo - 2.0 * floor)))  # outside, beyond the floor
            if kind in (1, 5):
                points.append(a if rng.random() < 0.5 else b)  # at an end
            elif kind == 2:
                points.append(_ulps_inside(lo, hi, int(rng.integers(1, 4))))  # within the floor of an end
            elif kind == 3:
                points.append(_ulps_inside(hi, hi + 1.0, int(rng.integers(1, 4))))  # just past an end
            elif kind == 4:
                points.append(float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))))  # inside
            jobs.append((a, b, points))
            want.append(1 if kind in (1, 2, 3, 4) and a != b else quadrature._ENGAGE)
        starts = quadrature._starts(jobs, 1e-10)
        assert [engage for *_, engage in starts] == want
        for lo, hi, _, edges, engage in starts:
            if engage == quadrature._ENGAGE:
                assert edges == ([] if lo == hi else [lo, hi])
        assert {len(edges) for *_, edges, engage in starts if engage == 1} == {2, 3}

    def test_wide_call_runs_them_on_the_heap_only(self, monkeypatch):
        # 24 log kernels, each listing its singular point as a cut, an end
        # or an ulp inside an end, so that every initial panel ends at it,
        # between 24 oscillating jobs that list none and keep the table
        # going: no singular job's node is in a table round.  Once the table
        # is done, each runs alone on the heap path, settles by tanh-sinh
        # levels and ends as a lone integral does, bit for bit, so the
        # rounds evaluate exactly the nodes the results report
        rng = np.random.default_rng(29)
        specs = []
        for k in range(24):
            c = float(rng.uniform(-1.0, 1.0))
            w = float(rng.uniform(0.2, 1.5))
            a, b, listed = ((c - w, c + w, c), (c, c + w, c), (c - w, c, c),
                            (c, c + w, math.nextafter(c, 2.0)))[k % 4]
            if rng.random() < 0.3:
                a, b = b, a
            specs.append((lambda ts, c=c: np.log(np.abs(ts - c)), a, b, (listed,)))
            p = float(rng.uniform(10.0, 40.0))
            specs.append((lambda ts, p=p: np.cos(p * ts) * np.exp(ts), -1.0, 1.0, ()))
        assert len(specs) >= quadrature._TABLE_MIN
        tol = 1e-10
        rounds = []
        (restarted,) = TestIntegrateMany._kernel_rounds(monkeypatch, specs, tol, rounds)
        first = sum(not begun for *_, begun in rounds)  # the table's rounds
        assert restarted == list(range(0, len(specs), 2)) and first > 1
        assert not any(j in owners for owners, *_ in rounds[:first] for j in restarted)
        assert all(15 * summed == len(owners) and not heap for owners, summed, heap, _ in rounds[:first])
        ends, _ = _watch_levels(monkeypatch)
        got = integrate_many(_owner_batch(specs), [(a, b, cuts) for _, a, b, cuts in specs], tol)
        assert ends == [True] * len(restarted)
        for j, ((fn, a, b, cuts), res) in enumerate(zip(specs, got)):
            with pytest.MonkeyPatch.context() as m:
                depths = self._engaged(m)
                want = integrate(Vectorized(fn), a, b, tol, cuts)
            assert depths == ([1] if j in restarted else [])
            TestWideEngagedJobs._same(res, want)
            assert res.converged
        assert sum(len(owners) for owners, *_ in rounds) == sum(r.evaluations for r in got)

    def test_table_stays_within_dqelg_limit(self, monkeypatch):
        # t^-1/2 times a factor that is constant on each dyadic shell
        # [2^-k-1, 2^-k) and drawn with no pattern: the level areas defeat
        # the epsilon table, so the job engaged at depth 1 takes one area
        # per level up to MAX_DEPTH, and its table never holds more than
        # dqelg's 50 elements
        sizes = []

        class Sized(quadrature._Wynn):
            def add(self, area):
                out = super().add(area)
                sizes.append(len(self.tab) - 1)
                return out

        monkeypatch.setattr(quadrature, "_Wynn", Sized)
        depths = self._engaged(monkeypatch)
        phi = Vectorized(lambda ts: ts ** -0.5 * (1.0 + (np.floor(-np.log2(ts)) * 0.37) % 1.0))
        integrate(phi, 0.0, 1.0, 1e-10, (0.0,))
        assert depths == [1] and len(sizes) == quadrature.MAX_DEPTH + 1
        assert max(sizes) <= 50


class TestTanhSinhLevels:
    """A job with a listed singular point that misses tol on its initial
    panels runs them as tanh-sinh levels, one batch a level.  Its nodes and
    sums do not depend on the integrand's form or on the jobs beside it, and
    a job that cannot settle goes back to the bisection it set out on."""

    E10 = make("E10")

    def _periods(self, count, seed=10):
        """Seeded E10 period integrals, as (scalar, array, a, b, points)."""
        rng = np.random.default_rng(seed)
        e10, out = self.E10, []
        for _ in range(count):
            y = float(rng.uniform(0.5, 2.0))
            x = float(rng.uniform(-3.0, 3.0)) * y
            out.append((lambda t, y=y: e10.value(t, y), lambda ts, y=y: e10.values(ts, y),
                        x, x + y, e10.singular_points(y, x, x + y)))
        return out

    @staticmethod
    def _same(got, want):
        assert got.value.hex() == want.value.hex()
        assert got.error_estimate.hex() == want.error_estimate.hex()
        assert (got.evaluations, got.converged) == (want.evaluations, want.converged)

    def test_scalar_and_vectorized_forms_agree(self, monkeypatch):
        ends, _ = _watch_levels(monkeypatch)
        for tol in (1e-8, 1e-10):
            for scalar, array, a, b, points in self._periods(8):
                want = integrate(scalar, a, b, tol, points)
                self._same(integrate(Vectorized(array), a, b, tol, points), want)
                assert want.converged
        assert len(ends) == 32 and all(ends)

    def test_lone_equals_lockstep_narrow_and_restarted(self, monkeypatch):
        # the same E10 period jobs, with smooth unlisted ones between them,
        # in a narrow call and in a wide one, where they run on the heap
        # path once the table is done; each equals a lone integral
        ends, _ = _watch_levels(monkeypatch)
        periods = self._periods(12, seed=31)
        specs = []
        for k, (_, array, a, b, points) in enumerate(periods):
            specs.append((array, a, b, points))
            specs.append((lambda ts, k=k: np.cos((k + 1.0) * ts) * np.exp(ts), -1.0, 1.0, ()))
        tol = 1e-10
        for width in (10, 2 * quadrature._TABLE_MIN):
            jobs = (specs * 4)[:width]
            got = integrate_many(_owner_batch(jobs), [(a, b, cuts) for _, a, b, cuts in jobs], tol)
            for (fn, a, b, cuts), res in zip(jobs, got):
                self._same(res, integrate(Vectorized(fn), a, b, tol, cuts))
        assert ends and all(ends)

    @pytest.mark.parametrize("p", [0.5, 0.75])
    def test_unsettled_kernels_keep_the_table_bits(self, p, monkeypatch):
        # |t - c|^-p at a cut c != 0: rounding a node moves it by eps |t| / 2,
        # so the noise of the nodes near c keeps the levels from settling,
        # and the job returns the value and estimate of the table path; its
        # evaluations add the nodes the levels spent
        rng = np.random.default_rng(75)
        specs = []
        for _ in range(6):
            c = float(rng.uniform(0.2, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            a, b = c - float(rng.uniform(0.1, 1.0)), c + float(rng.uniform(0.1, 1.0))
            specs.append((c, *((b, a) if rng.random() < 0.3 else (a, b))))
        for c, a, b in specs:
            phi = Vectorized(lambda ts, c=c: np.abs(ts - c) ** -p)
            want = _offset_reference(lambda d: abs(d) ** -p, a, b, c)
            for tol in (1e-8, 1e-10):
                with pytest.MonkeyPatch.context() as m:
                    ends, nodes = _watch_levels(m)
                    res = integrate(phi, a, b, tol, (c,))
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(quadrature._Levels, "nodes", lambda lv, out: None)
                    m.setattr(quadrature._Levels, "take", lambda lv, fv, tol: True)
                    table = integrate(phi, a, b, tol, (c,))
                assert ends == [False] and sum(nodes) > 0
                assert res.value.hex() == table.value.hex()
                assert res.error_estimate.hex() == table.error_estimate.hex()
                assert (res.evaluations, res.converged) == (table.evaluations + sum(nodes), table.converged)
                assert not res.converged or abs(res.value - want) <= tol

    @pytest.mark.parametrize("ulps", [8, 40, 100, 1000])
    def test_a_listed_jump_ulps_from_an_end(self, ulps):
        # the cut makes a panel of a few ulps; too narrow for level 0's
        # nodes (under ~400 ulps of 1 here), its job bisects at once, with
        # the bits of the table path; a wider one runs levels.  Either way
        # a converged value is within tol
        for left in (True, False):
            if left:
                c = ulps * _EPS
                true = 3e4 * c + (math.sin(50.0) - math.sin(50.0 * c)) / 50.0

                def f(t):
                    return 3e4 if t < c else math.cos(50.0 * t)
            else:
                c = 1.0 - ulps * _EPS
                true = 3e4 * (1.0 - c) + math.sin(50.0 * c) / 50.0

                def f(t):
                    return 3e4 if t > c else math.cos(50.0 * t)
            for tol in (1e-10, 1e-12):
                with pytest.MonkeyPatch.context() as m:
                    ends, nodes = _watch_levels(m)
                    res = integrate(f, 0.0, 1.0, tol, (c,))
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(quadrature._Levels, "nodes", lambda lv, out: None)
                    m.setattr(quadrature._Levels, "take", lambda lv, fv, tol: True)
                    table = integrate(f, 0.0, 1.0, tol, (c,))
                if ulps < 400:
                    assert nodes == []
                    self._same(res, table)
                else:
                    assert nodes
                assert not res.converged or abs(res.value - true) <= tol

    def test_evaluation_pins(self, monkeypatch):
        e10 = self.E10
        x, y = 0.123, 1.0
        period = integrate(lambda t: e10.value(t, y), x, x + y, 1e-10, e10.singular_points(y, x, x + y))
        # 30 for the two initial panels, then levels 0-3 of both: 360 by
        # the table from depth 1
        assert period.converged and period.evaluations == 222
        rounds = []
        heap_rounds = quadrature._heap_rounds

        def counted(batch, starts, tol):
            def counting(nodes, jobs, counts):
                rounds.append(len(nodes))
                return batch(nodes, jobs, counts)
            return heap_rounds(counting, starts, tol)

        monkeypatch.setattr(quadrature, "_heap_rounds", counted)
        value = convolve(e10, e10).value(0.35, 1.0)
        # both terms in every round: 810 nodes in 14 rounds by the table
        assert rounds == [30, 24, 24, 48, 48]
        assert abs(value - _conv_reference(_mp_e10, _mp_e10, 0.35)) <= 1e-10


class TestAcceleratedFamilies:
    """The integrals of the paper's log-sine and Gamma entries, whose jobs
    run tanh-sinh levels, or extrapolate, from their listed singular
    points: E10 period integrals and the E10*E10 and E12*E2(m=2)
    convolution values, at seeded points, each within its tolerance of the
    exact value or of mpmath at 30 digits."""

    def test_log_sine_period_integrals_vanish(self):
        e10 = make("E10")
        rng = np.random.default_rng(10)
        for _ in range(12):
            y = float(rng.uniform(0.5, 2.0))
            x = float(rng.uniform(-3.0, 3.0)) * y
            res = integrate(lambda t: e10.value(t, y), x, x + y, 1e-10, e10.singular_points(y, x, x + y))
            assert res.converged and abs(res.value) <= 1e-10, (x, y, res)

    def test_log_sine_period_integrals_at_tol_1e_12(self):
        # at 1e-12 the truncation term of a log singularity, 4 |f| d at
        # d = 64 eps max(|lo|, |hi|, span), is 1.8e-12 and up a side, so
        # the levels cannot settle and the table path takes over: every
        # converged result is within tol of 0 all the same
        e10 = make("E10")
        rng = np.random.default_rng(12)
        converged = 0
        for _ in range(12):
            y = float(rng.uniform(0.5, 2.0))
            x = float(rng.uniform(-3.0, 3.0)) * y
            res = integrate(lambda t: e10.value(t, y), x, x + y, 1e-12, e10.singular_points(y, x, x + y))
            converged += res.converged
            assert not res.converged or abs(res.value) <= 1e-12, (x, y, res)
            assert abs(res.value) <= res.error_estimate, (x, y, res)
        assert converged >= 4

    @pytest.mark.parametrize("g, h, mp_g, mp_h", [
        (("E10", {}), ("E10", {}), _mp_e10, _mp_e10),
        (("E12", {}), ("E2", {"m": 2}), _mp_e12, _mp_e2_m2),
    ])
    def test_convolution_values(self, g, h, mp_g, mp_h):
        conv = convolve(make(g[0], **g[1]), make(h[0], **h[1]))
        tol = conv.params["tol"]
        rng = np.random.default_rng(12)
        for _ in range(4):
            y = float(rng.uniform(0.5, 2.0))
            x = float(rng.uniform(0.04, 0.96)) * y
            value = conv.value(x, y)
            assert abs(value - _conv_reference(mp_g, mp_h, x, y)) <= tol, (x, y, value)


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
        for y in (0.0, math.inf, math.nan):  # a scale is finite and > 0
            with pytest.raises(RejectedInputError):
                y_partial_fd(make("E1"), 0.0, y)
