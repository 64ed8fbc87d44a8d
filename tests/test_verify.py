import json
import math
from dataclasses import FrozenInstanceError, replace
from functools import partial

import mpmath
import numpy as np
import pytest

from invk import algebra, covering, quadrature, verify
from invk.algebra import convolve
from invk.catalog import make, standard_configs
from invk.core import (
    EPS_SING,
    InvariantFunction,
    affine_transform,
    frac_compose,
    linear_combination,
    reflect,
)
from invk.covering import parse_system
from invk.errors import ConvergenceError, RejectedInputError
from invk.quadrature import LimitResult, QuadratureResult, integrate
from invk.report import _report, _worst_index
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
    grid_points,
    zeta_power_kernel,
)

from conftest import SMALL_GRID, scale_sum, table_points

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
        # what the sampler cannot draw from: an infinite range end, or a
        # count or seed that is not an integer
        for bad in (
            {"y_range": (0.25, math.inf)},
            {"x_range": (-math.inf, 3.0)},
            {"x_range": (0.0, math.nan)},
            {"samples": 2.5},
            {"n_max": 2.5},
            {"seed": 1.0},
            {"samples": True},
            {"n_max": "3"},
        ):
            with pytest.raises(RejectedInputError):
                GridSpec(**bad)

    @pytest.mark.parametrize("bad", [
        {"x_range": (1.0, 2.0, 3.0)},
        {"y_range": (1.0,)},
        {"x_range": None},
    ])
    def test_a_range_must_be_a_pair(self, bad):
        with pytest.raises(RejectedInputError, match="pair"):
            GridSpec(**bad)

    def test_any_pair_of_numbers_is_a_range(self):
        grid = GridSpec(x_range=np.array([-3.0, 3.0]), y_range=[0.25, 4.0])
        f, table = make("E2", m=1), verify._LIMIT_TABLE
        assert grid_points(f, grid, table) == grid_points(f, DEFAULT_GRID, table)


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


def _hex_points(points):
    return [(x.hex(), y.hex()) for x, y in points]


# The points of each kind of check as the checks listed them before they
# became shift tables, and the suite's descriptors for each kind, plus some
# with singular points, so that their grids reject candidates.
_CERT = covering.CoveringSystem(verify._CERT_SYSTEM)
_WIDE_COVER = covering.CoveringSystem(((-1, 3), (7, 1000003), (0, 1)))


def _point_kind(kind, grid):
    """(shift table, the point list it stands for) of a kind of points."""
    if kind == "invariance":
        n_max = grid.n_max
        return verify._invariance_table(n_max), lambda x, y: (
            [(x, y)] + [(x + r * y, n * y) for n in range(2, n_max + 1) for r in range(n)])
    if kind.startswith("exchange"):
        m, n = (int(k) for k in kind.split("-")[1:])
        return verify._exchange_table(m, n), lambda x, y: (
            [(x + r * m * y, n * y) for r in range(n)] + [(x + r * n * y, m * y) for r in range(m)])
    return {
        "limit": (verify._LIMIT_TABLE, lambda x, y: ((x, y), (x + y, y))),
        "y-derivative": (verify._Y_DERIVATIVE_TABLE, lambda x, y: ((x, y), (x - y, y), (x + y, y))),
        "parity": (verify._PARITY_TABLE, lambda x, y: ((x, y), (y - x, y))),
        "covering": (_CERT.table, lambda x, y: (
            [(x, y)] + [(x + a * y, n * y) for a, n in _CERT.classes])),
        "covering-wide": (_WIDE_COVER.table, lambda x, y: (
            [(x, y)] + [(x + a * y, n * y) for a, n in _WIDE_COVER.classes])),
    }[kind]


def _made(configs):
    return [make(eid, **params) for eid, params in configs]


POINT_KINDS = {
    "invariance": _made(standard_configs()),
    **{f"exchange-{m}-{n}": _made(verify._EXCHANGE_SET) for m, n in verify._EXCHANGE_PAIRS},
    "limit": _made(verify._SMOOTH_LIMIT_SET),
    "y-derivative": _made(verify._Y_DERIVATIVE_SET + (("E3a", {}),)),
    "parity": _made((("E9", {"r": 0.5}), ("E2", {"m": 1}), ("E8", {"r": 0.5}), ("E10", {}))),
    "covering": _made(verify._CERT_FUNCTIONS),
    "covering-wide": _made((("E5", {"a": 2.0}), ("E12", {}), ("E13", {"s": 2.0}))),
}
POINT_KINDS["limit"].append(replace(make("E5", a=2.0), domain=lambda x, y: x > 0.0))


class TestGridPoints:
    E10 = make("E10")
    CASES = [
        make("E3a"), E10, make("E12"), make("E14"), make("E13", s=2.0),
        affine_transform(E10, 2.0, -0.3, 0.75),
        reflect(make("E3b")),
        reflect(frac_compose(make("E3a"), 0.3)),
        linear_combination([(1.0, make("E3a")), (2.0, affine_transform(E10, 1.0, 0.1, 1.0))]),
    ]

    @pytest.mark.parametrize("f", CASES, ids=lambda f: f.name)
    def test_per_scale_clearance_equals_the_per_point_test(self, f):
        # invariance samples, most with one eval point moved to within
        # 2 EPS_SING y' of a singular point of its scale, inside or outside
        # the margin
        rng = np.random.default_rng(23)
        table = verify._invariance_table(6)
        outcomes = set()
        for _ in range(300):
            y = float(rng.uniform(0.25, 4.0))
            needed = table_points(table, float(rng.uniform(-3.0, 3.0)) * y, y)
            i = int(rng.integers(len(needed)))
            xe, ye = needed[i]
            near = f.singular_points(ye, xe - ye, xe + ye)
            if near and rng.random() < 0.7:
                s = near[int(rng.integers(len(near)))]
                needed[i] = (s + float(rng.uniform(-2.0, 2.0)) * EPS_SING * ye, ye)
            want = _points_clear(f, needed)
            by_scale = {}
            for xe, ye in needed:
                by_scale.setdefault(ye, []).append(xe)
            # each scale in one piece, or each point a piece of its own
            assert verify._sample_clear(f, list(by_scale.items())) == want, needed
            assert verify._sample_clear(f, [(ye, [xe]) for xe, ye in needed]) == want, needed
            outcomes.add(want)
        assert outcomes == {True, False}


    @staticmethod
    def _all_pairs_grid(f, grid, eval_points):
        """`grid_points` with every attempt's points built and tested by an
        all-pairs scan: each x' of a scale against each singular point in
        its window.  Returns the samples and the number of attempts."""
        rng = np.random.default_rng(grid.seed)
        pts = []
        attempts = 0
        while len(pts) < grid.samples:
            attempts += 1
            y = float(rng.uniform(*grid.y_range))
            x = float(rng.uniform(*grid.x_range)) * y
            by_scale = {}
            for xe, ye in eval_points(x, y):
                if f.domain is not None and not f.domain(xe, ye):
                    break
                by_scale.setdefault(ye, []).append(xe)
            else:
                for ye, xs in by_scale.items():
                    margin = EPS_SING * ye
                    w = 4.0 * margin
                    near = f.singular_points(ye, min(xs) - w, max(xs) + w)
                    if any(abs(xe - s) < margin for xe in xs for s in near):
                        break
                else:
                    pts.append((x, y))
        return pts, attempts

    def test_grid_points_equal_the_all_pairs_test(self):
        # every attempt gets the same decision, so every grid is the same,
        # and every sample's point arrays are its point list, bit for bit
        other_grids = (replace(DEFAULT_GRID, samples=9),
                       GridSpec(seed=11, x_range=(-0.5, 6.0), y_range=(0.05, 1.5),
                                samples=24, n_max=5))
        grids = [(kind, f, grid) for kind, fs in POINT_KINDS.items() for f in fs
                 for grid in (DEFAULT_GRID, *other_grids)]
        grids += [("invariance", convolve(make(g, **gp), make(h, **hp), 1e-9),
                   replace(DEFAULT_GRID, n_max=6)) for (g, gp), (h, hp) in verify._PRODUCT_PAIRS]
        grids.append(("invariance", replace(make("E5", a=2.0), domain=lambda x, y: x > 0.0),
                      DEFAULT_GRID))
        second_block = set()
        for kind, f, grid in grids:
            table, points = _point_kind(kind, grid)
            want, attempts = self._all_pairs_grid(f, grid, points)
            got = grid_points(f, grid, table)
            assert got == want, (kind, f.name, grid)
            xs, ys = np.array(got).T  # the points that the checks evaluate
            px, py = table.arrays(xs, ys)
            assert [_hex_points(zip(*row)) for row in zip(px.tolist(), py.tolist())] \
                == [_hex_points(points(x, y)) for x, y in got], (kind, f.name, grid)
            if attempts > grid.samples:  # the grid took a second block of draws
                second_block.add((kind, f.name))
        # E13(s > 0) and the E5s whose domain is x > 0
        assert {("invariance", "E13"), ("invariance", "E5"), ("limit", "E5"),
                ("covering-wide", "E13")} <= second_block

    @pytest.mark.parametrize("kind", sorted(POINT_KINDS))
    def test_tables_equal_the_point_lists(self, kind):
        # seeded samples over wide ranges, and x = 0.0 at each scale
        rng = np.random.default_rng(31)
        ys = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 200))
        xs = rng.uniform(-50.0, 50.0, 200) * ys
        xs[::10] = 0.0
        for grid in (DEFAULT_GRID, replace(DEFAULT_GRID, n_max=6)):
            table, points = _point_kind(kind, grid)
            px, py = table.arrays(xs, ys)
            assert px.shape == py.shape == (200, len(points(1.0, 1.0)))
            for x, y, row_x, row_y in zip(xs.tolist(), ys.tolist(), px.tolist(), py.tolist()):
                assert _hex_points(zip(row_x, row_y)) == _hex_points(points(x, y)), (kind, x, y)

    def test_parts_and_chunks_hold_at_most_max_points(self, monkeypatch):
        # the suite cuts each convolution check into parts of 8 samples, in
        # order, 168 points each: one chunk of the convolution's values
        cuts = [parts for parts, _ in verify._suite_plan(DEFAULT_GRID) if len(parts) > 1]
        assert len(cuts) == len(verify._PRODUCT_PAIRS) and sum(map(len, cuts)) == 40
        table = verify._invariance_table(6)
        for cut in cuts:
            conv, n_max, pts = cut[0].args
            assert n_max == 6 and [len(part.args[2]) for part in cut] == [8] * 8
            assert [p for part in cut for p in part.args[2]] == grid_points(
                conv, replace(DEFAULT_GRID, n_max=6), table)
        assert 8 * len(table.rows) <= algebra._MAX_POINTS
        # N points of one `values` call run in ceil(N / 176) `integrate_many`
        # calls of at most 176 points (two term integrals each), and equal
        # the scalar values bit for bit, with one scale or a scale per point
        jobs = []
        many = algebra.integrate_many

        def counted(batch, terms, tol):
            jobs.append(len(terms))
            return many(batch, terms, tol)

        monkeypatch.setattr(algebra, "integrate_many", counted)
        conv = convolve(make("E5", a=2.0), make("E1"), 1e-9)
        rng = np.random.default_rng(5)
        ys = rng.uniform(0.25, 4.0, 2 * algebra._MAX_POINTS + 5)
        xs = rng.uniform(-3.0, 3.0, ys.size) * ys
        for scales in (ys, 1.3):
            jobs.clear()
            got = conv.values(xs, scales).tolist()
            assert jobs == [2 * algebra._MAX_POINTS] * 2 + [2 * 5]
            at = np.broadcast_to(scales, xs.shape).tolist()
            want = [conv.value(x, y) for x, y in zip(xs.tolist(), at)]
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("seed", range(40))
    def test_worst_index_is_where_the_worst_settles(self, seed):
        # ties, NaNs and infinities: the index ranked first by (not a NaN,
        # larger error first, earlier index first)
        rng = np.random.default_rng(seed)
        errs = rng.choice([0.0, 1e-9, 2e-9, 3.0, math.inf, math.nan], size=int(rng.integers(1, 30)),
                          p=[0.3, 0.3, 0.2, 0.1, 0.05, 0.05]).tolist()
        rank = sorted(range(len(errs)), key=lambda i: (not math.isnan(errs[i]),
                                                       0.0 if math.isnan(errs[i]) else -errs[i], i))
        assert _worst_index(errs) == rank[0]

    @pytest.mark.parametrize("errs, want", [
        ([1.0, math.inf, 2.0, math.nan, math.nan], 3),  # a NaN wins even after an inf
        ([1e-9, 3.0, 0.0, 3.0, 2.0], 1),  # the first of equal maxima wins
        ([1e300, 1.7976931348623157e308, math.inf, 5.0, math.inf], 2),  # inf beats every finite
    ])
    def test_worst_index_by_hand(self, errs, want):
        assert _worst_index(errs) == want

    def test_report_of_the_picked_row(self):
        rows = [(1e-9, 0.5, 1.0, 2, 3.0, 3.0), (math.inf, 1.5, 2.0, 3, math.inf, 1.0),
                (math.nan, 2.5, 3.0, 4, math.nan, 2.0), (math.nan, 3.5, 4.0, 5, 1.0, math.nan)]
        rep = _report("p", "f", {}, 4, rows, 1e-8)
        assert math.isnan(rep.max_abs_error) and rep.passed is False
        assert rep.worst_witness["x"] == 2.5 and rep.worst_witness["n"] == 4
        rep = _report("p", "f", {}, 2, rows[:2], 1e-8)
        assert rep.max_abs_error == math.inf and rep.passed is False
        assert rep.worst_witness == {"x": 1.5, "y": 2.0, "n": 3, "lhs": math.inf, "rhs": 1.0}
        rep = _report("p", "f", {}, 1, rows[:1], 1e-8)
        assert rep.max_abs_error == 1e-9 and rep.passed is True

    def test_no_rows_fail_the_report(self):
        # a report that compared nothing: error -1 at (0, 1, 0, 0, 0)
        rep = _report("p", "f", {}, 0, [], 1e-8)
        assert rep.max_abs_error == -1.0 and rep.passed is False
        assert rep.worst_witness == {"x": 0.0, "y": 1.0, "n": 0, "lhs": 0.0, "rhs": 0.0}
        with pytest.raises(FrozenInstanceError):
            rep.passed = True


def _report_bytes(rep) -> str:
    return json.dumps(rep.to_json_dict(), sort_keys=True)


class TestBatchedSamples:
    """A check evaluates the points of all its samples in one `values` call.
    A catalog entry's reports are the ones that each sample's report,
    computed alone and folded with `_worst_index` in sample order, gives,
    byte for byte; a convolution's are the ones of one point a chunk."""

    CONV_GRID = replace(SMALL_GRID, n_max=6)

    @staticmethod
    def _checks(grid):
        """(check, shift table, points a sample) of invariance and of the
        (2, 3) exchange."""
        n_max = grid.n_max
        return [
            (partial(check_invariance, grid=grid, tol=1e-7), verify._invariance_table(n_max),
             n_max * (n_max + 1) // 2),
            (partial(check_exchange, m=2, n=3, grid=grid, tol=1e-8), verify._exchange_table(2, 3),
             2 + 3),
        ]

    def _batched(self, monkeypatch, f, grid):
        """The checks' report bytes, each check making one `values` call on f."""
        calls = []
        values = InvariantFunction.values

        def counted(self, xs, ys):
            if self is f:
                calls.append(xs.size)
            return values(self, xs, ys)

        monkeypatch.setattr(InvariantFunction, "values", counted)
        reports = []
        for check, _, points in self._checks(grid):
            calls.clear()
            reports.append(_report_bytes(check(f)))
            assert calls == [grid.samples * points]
        return reports

    def _alone(self, monkeypatch, f, grid):
        """The checks' report bytes from each sample's report computed alone,
        folded with `_worst_index` in sample order."""
        reports = []
        for check, table, _ in self._checks(grid):
            pts = grid_points(f, grid, table)
            alone = []
            with monkeypatch.context() as m:
                for p in pts:
                    m.setattr(verify, "grid_points", lambda *_: [p])
                    alone.append(check(f))
            assert len({(r.tolerance, tuple(r.flags)) for r in alone}) == 1
            worst = alone[_worst_index([r.max_abs_error for r in alone])]
            reports.append(_report_bytes(replace(worst, samples=len(pts))))
        return reports

    @pytest.mark.parametrize("config", standard_configs(), ids=lambda c: f"{c[0]}{c[1]}")
    def test_standard_configs(self, config, monkeypatch):
        eid, params = config
        f = make(eid, **params)
        batched = self._batched(monkeypatch, f, DEFAULT_GRID)
        assert batched == self._alone(monkeypatch, f, DEFAULT_GRID)

    @pytest.mark.parametrize("pair", verify._PRODUCT_PAIRS, ids=lambda p: f"{p[0][0]}*{p[1][0]}")
    def test_convolution_pairs(self, pair, monkeypatch):
        (g, gp), (h, hp) = pair
        f = convolve(make(g, **gp), make(h, **hp), 1e-9)
        batched = self._batched(monkeypatch, f, self.CONV_GRID)
        monkeypatch.setattr(algebra, "_MAX_POINTS", 1)  # one point an `integrate_many`
        assert [_report_bytes(check(f)) for check, _, _ in self._checks(self.CONV_GRID)] == batched

    def test_stalled_term_raises_the_same_error(self, monkeypatch):
        # g is nan at scales from a threshold that the first three samples
        # stay below, so a later sample, inside the first chunk, stalls first
        e5 = make("E5", a=2.0)
        grid = self.CONV_GRID
        e9 = make("E9", r=0.5)
        pts = grid_points(convolve(e5, e9, 1e-9), grid, verify._invariance_table(grid.n_max))
        bound = max(grid.n_max * y for _, y in pts[:3])
        assert any(grid.n_max * y > bound for _, y in pts[3:8])

        def nan_above(xs, ys):
            return np.where(np.asarray(ys) > bound, np.nan, e5.array_value(xs, ys))

        conv = convolve(replace(e5, array_value=nan_above), e9, 1e-9)
        with pytest.raises(ConvergenceError) as batched:
            check_invariance(conv, grid, 1e-7)
        monkeypatch.setattr(algebra, "_MAX_POINTS", 1)
        with pytest.raises(ConvergenceError) as single:
            check_invariance(conv, grid, 1e-7)
        assert "stalled" in str(batched.value)
        assert str(batched.value) == str(single.value)


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
        x0, y0 = verify.grid_points(e1, SMALL_GRID, verify._invariance_table(SMALL_GRID.n_max))[3]
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
        table = verify._invariance_table(SMALL_GRID.n_max)
        x0, y0 = verify.grid_points(e1, SMALL_GRID, table)[5]
        xb, yb = table_points(table, x0, y0)[4]

        def array_value(xs, ys):
            return np.where((xs == xb) & (ys == yb), math.nan, e1.array_value(xs, ys))

        rep = check_invariance(replace(e1, array_value=array_value), SMALL_GRID, 1e-8)
        assert rep.passed is False
        assert math.isnan(rep.max_abs_error)
        assert (rep.worst_witness["x"], rep.worst_witness["y"]) == (x0, y0)

    @pytest.mark.parametrize("config", [("E9", {"r": 0.5}), ("E2", {"m": 1}), ("E8", {"r": 0.5})],
                             ids=lambda c: f"{c[0]}{c[1]}")
    def test_one_values_call_per_check(self, config):
        # the points of all samples go to `values` in one call, and no
        # sample point to the scalar rule
        calls, scalar_calls = [], []
        eid, params = config
        entry = make(eid, **params)

        def counted(xs, ys):
            calls.append(xs.size)
            return entry.array_value(xs, ys)

        def scalar(x, y):
            scalar_calls.append(x)
            return entry.value(x, y)

        f = replace(entry, value=scalar, array_value=counted)
        samples = SMALL_GRID.samples
        rep = check_invariance(f, SMALL_GRID, 1e-8)
        assert calls == [samples * SMALL_GRID.n_max * (SMALL_GRID.n_max + 1) // 2]
        assert rep.to_json_dict() == check_invariance(entry, SMALL_GRID, 1e-8).to_json_dict()
        calls.clear()
        rep = check_exchange(f, 2, 3, SMALL_GRID, 1e-8)
        assert calls == [(2 + 3) * samples]
        assert rep.to_json_dict() == check_exchange(entry, 2, 3, SMALL_GRID, 1e-8).to_json_dict()
        calls.clear()
        system = covering.CoveringSystem(verify._CERT_SYSTEM)
        rep = check_covering_certificates(system, f, SMALL_GRID, 1e-8)
        assert calls == [(1 + 3) * samples]
        assert rep.to_json_dict() == check_covering_certificates(
            system, entry, SMALL_GRID, 1e-8).to_json_dict()
        assert scalar_calls == []
        # parity's reflection: one call of 2 points a sample, before the
        # period integrals, whose panels come 15 nodes at a time; only the
        # limit a f(0, a) calls the scalar rule
        parity = "even" if eid == "E9" else "odd"
        calls.clear()
        rep = check_parity(f, parity, SMALL_GRID, 1e-7)
        assert calls[0] == 2 * samples and all(c % 15 == 0 for c in calls[1:])
        assert set(scalar_calls) <= {0.0}
        assert rep.to_json_dict() == check_parity(entry, parity, SMALL_GRID, 1e-7).to_json_dict()

    def test_each_point_is_evaluated_once(self):
        # (x, y) is the n = 1 term as well as the rhs, so `values` never
        # gets it twice, and that term's error is fsum([rhs]) - rhs = 0
        e9 = make("E9", r=0.5)
        seen = []

        def recorded(xs, ys):
            seen.extend(zip(xs.tolist(), np.broadcast_to(ys, xs.shape).tolist()))
            return e9.array_value(xs, ys)

        f = replace(e9, array_value=recorded)
        rep = check_invariance(f, SMALL_GRID, 1e-8)
        points = SMALL_GRID.n_max * (SMALL_GRID.n_max + 1) // 2
        assert len(seen) == len(set(seen)) == SMALL_GRID.samples * points
        assert set(grid_points(e9, SMALL_GRID, verify._invariance_table(SMALL_GRID.n_max))) <= set(seen)
        assert rep.to_json_dict() == check_invariance(e9, SMALL_GRID, 1e-8).to_json_dict()
        only_n1 = check_invariance(f, replace(SMALL_GRID, n_max=1), 1e-8)
        assert only_n1.passed and only_n1.max_abs_error == 0.0
        witness = only_n1.worst_witness
        assert witness["n"] == 1 and witness["lhs"] == witness["rhs"]

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


def _panel_nodes(a, b):
    """The 15 Kronrod nodes of the panel [a, b], as `integrate` makes them."""
    nodes = []
    quadrature._nodes([a], [b], nodes)
    return nodes


def _hexes(values):
    return [float(v).hex() for v in values]


class TestBatchedIntegrands:
    """The array integrands of the y-derivative and Bernoulli-identity checks
    equal their scalar forms bit for bit, on one panel's 15 nodes."""

    @pytest.mark.parametrize("eid,params", verify._Y_DERIVATIVE_SET, ids=lambda v: str(v))
    def test_central_difference(self, eid, params):
        f = make(eid, **params)
        probe = replace(f, dy=None)
        for x, y in ((0.37, 1.3), (-2.1, 0.6), (5.5, 3.9), (0.1, 0.25)):
            nodes = _panel_nodes(x, x - y)
            got = verify._fd_y_partial(f, y).fn(np.array(nodes))
            assert _hexes(got) == _hexes(quadrature.y_partial_fd(probe, t, y) for t in nodes)

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bernoulli_identity(self, m, n):
        # at x = 0.3159435453677002 numpy's (x - ts) ** 2 differs from
        # Python's (x - t) ** 2 in the last bit at one node of [x, 1]
        for x in (0.0, 0.3, 0.7, 0.3159435453677002):
            cyclic, tail = verify._bernoulli_identity_integrands(m, n, x)
            nodes = _panel_nodes(0.0, 1.0)
            want = [bernoulli_poly(m, x - t) * bernoulli_poly(n, t) for t in nodes]
            assert _hexes(cyclic.fn(np.array(nodes))) == _hexes(want)
            nodes = _panel_nodes(x, 1.0)
            want = [(x - t) ** (m - 1) * bernoulli_poly(n, t) for t in nodes]
            assert _hexes(tail.fn(np.array(nodes))) == _hexes(want)


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


@pytest.mark.parametrize("call", [
    lambda: check_bernoulli_convolution(1, 1, (0.0,)),
    lambda: check_bernoulli_convolution(1, 1, (1.0, math.inf)),
    lambda: check_bernoulli_convolution(0, 1),
    lambda: check_product_integral(make("E1"), make("E1"), (-1.0,)),
    lambda: check_product_integral(make("E1"), make("E1"), (math.nan,)),
    lambda: check_zeta_convolution(2.0, 2.0, y=-1.0),
    lambda: check_zeta_convolution(2.0, 2.0, y=0.0),
    lambda: check_bernoulli_integral_identity(1.5, 2),
    lambda: check_bernoulli_integral_identity(0, 2),
    lambda: check_bernoulli_integral_identity(2, True),
    lambda: check_exchange(make("E1"), 1.5, 2),
    lambda: check_exchange(make("E1"), True, 2),
    lambda: check_exchange(make("E1"), 2, 0),
    # the tolerance every report turns into its verdict
    lambda: check_invariance(make("E1"), SMALL_GRID, math.inf),
    lambda: check_invariance(make("E1"), SMALL_GRID, math.nan),
], ids=[
    "bernoulli-conv-zero-scale", "bernoulli-conv-infinite-scale", "bernoulli-conv-order-0",
    "product-negative-scale", "product-nan-scale", "zeta-conv-negative-scale",
    "zeta-conv-zero-scale", "bernoulli-identity-fractional-order", "bernoulli-identity-order-0",
    "bernoulli-identity-bool-order", "exchange-fractional-order", "exchange-bool-order",
    "exchange-order-0", "invariance-infinite-tolerance", "invariance-nan-tolerance",
])
def test_checks_reject_arguments_outside_the_definition(call):
    # orders are integers >= 1, scales and tolerances finite and > 0; a bool is no order
    with pytest.raises(RejectedInputError):
        call()


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
        for name, params in (
            ("gauss", {}), ("poisson", {"r": 1.0}),
            # a parameter the integral does not take, or one that is not a finite number
            ("raabe", {"a": 1.0, "b": 2.0}), ("euler", {"r": 2.0}), ("poisson", {"a": 2.0}),
            ("poisson", {"r": "abc"}), ("poisson", {"r": math.nan}), ("raabe", {"a": math.inf}),
            ("raabe", {"a": True}), ("poisson", {"r": "2"}),
        ):
            with pytest.raises(RejectedInputError):
                golden_integral(name, **params)

    def test_aggregate_report(self):
        rep = check_known_integrals(1e-7)
        assert rep.passed and rep.samples == 6

    @pytest.mark.parametrize("case", [
        ("euler", {}), ("poisson", {"r": 2.0}), ("poisson", {"r": 0.5}),
        ("raabe", {"a": 1.0}), ("raabe", {"a": 2.0}), ("raabe", {"a": 0.5}),
    ], ids=lambda c: f"{c[0]}{c[1]}")
    def test_worst_case_names_the_witness(self, case, monkeypatch):
        # the chosen case misses by 1e-3, every other by 1e-9: the report's
        # worst case and witness are the chosen one's
        def golden(name, **params):
            miss = 1e-3 if (name, params) == case else 1e-9
            return 1.0 + miss, 1.0

        monkeypatch.setattr(verify, "golden_integral", golden)
        rep = check_known_integrals(1e-7)
        name, params = case
        assert rep.params["worst_case"] == name
        assert rep.worst_witness["x"] == next(iter(params.values()), 0.0)
        assert rep.worst_witness["lhs"] == 1.0 + 1e-3 and rep.passed is False


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
        pts = verify.grid_points(f, PROBE_GRID, sys_.table)
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
