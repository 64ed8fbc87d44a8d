"""The benchmark's three workloads: inputs made from a seed, and their checks.

Each workload is closed-loop with one caller: the next operation starts when
the previous one returns.  `build(name, seed, scratch)` makes the inputs and
builds the descriptors (that is the set-up the benchmark times); the
workload's `judge` compares the outputs of one round with their references
after the timed phase.  All invk entry points are reached through module
attributes at call time, so a traced run sees the same calls through its
wrappers.

  suite       `invk verify --all --seed 42` through invk.cli.run, 114 reports.
              Mostly verify, algebra + quadrature, and the s < 0 zeta branch.
  eval_sweep  scalar `evaluate` at seeded points: the same number of points
              for every standard_configs() entry and for a few core
              descriptors; a quarter of the points lie on the lattice and a
              quarter 1e-6 (relative to y) off it.  catalog, core and special.
  integrals   golden integrals, period integrals, shallow and deep
              convolution values, antiderivative and geometric-convolution
              values.  quadrature and algebra, without verify or zeta.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from invk import algebra, catalog, cli, core, quadrature, verify
from invk.errors import ConvergenceError


@dataclass(frozen=True)
class Finding:
    """A failure the package documents, or that the benchmark records.

    It counts in pass_frac but keeps the run correct only while the failure
    stays the recorded one: a miss of at most `ceiling` * max(1, |reference|)
    (a few times the largest miss seen), or an exception of type `raises`.
    Anything larger or different is an unexpected failure.
    """
    reason: str
    ceiling: float = 0.0
    raises: Optional[type] = None

    def covers(self, out, err) -> bool:
        if isinstance(out, BaseException):
            return self.raises is not None and isinstance(out, self.raises)
        return err is not None and err <= self.ceiling


KNOWN_E14 = "E14 satisfies the scale-sum identity for odd n only (README, known red)"
KNOWN_BAND = Finding(
    "E10 and E12 return their on-lattice branch value inside the 1e-9 detection band, "
    "where the true value is near -19 (E10) or +20 (E12); integrals whose nodes reach "
    "the band miss by 1e-10 to 3.2e-7", ceiling=1e-6)
KNOWN_CONV_STALL = Finding(
    "convolve(E10, E10).value raises ConvergenceError after ~4.5 s (quadrature stalls "
    "at the log singularity) for x within 2.3% of either end of the period",
    raises=ConvergenceError)
KNOWN_E13_NEG = Finding(
    "E13(s<0) exceeds its declared series_tolerance 1e-10 within 0.023 y of the "
    "lattice: by up to 9e-7 (s=-1, on and 1e-7 y off it) and 1e-8 (s=-2)", ceiling=2e-6)
KNOWN_E12 = Finding(
    "E12 divides x/y in double precision, so 1e-6 y from a pole it keeps only "
    "~1e-10 relative accuracy (misses up to 3e-11 relative seen)", ceiling=1e-10)
E13_NEG_BAND = 0.04     # lattice distance, in units of y, inside which KNOWN_E13_NEG applies
CONV_STALL_BAND = 0.04  # distance of x/y from 0 or 1 that seeded E10*E10 points keep

SUITE_REPORTS = 114
SUITE_VERIFY_SEED = 42
SUITE_KNOWN_RED = {("invariance", "E14"): KNOWN_E14}

POINTS_PER_DESCRIPTOR = 96
NEAR = 1e-6           # relative offset of near-lattice points, in units of y
CORNER_Y = (0.25, 0.5, 1.0, 2.0, 3.0, 4.0)
EVAL_RTOL = 1e-12


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    reference: Optional[tuple] = None   # (oracles function, args), run after timing
    tol: float = 0.0            # pass when |value - ref| <= tol + rtol * max(1, |ref|)
    rtol: float = 0.0
    known: tuple = ()           # Findings that may cover a failure of this operation
    fixed: bool = False         # inputs do not depend on the seed


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0                 # every failed operation
    unexpected: list = field(default_factory=list)
    known: dict = field(default_factory=dict)   # reason -> count
    err_ratio_max: float = 0.0
    worst: str = ""
    digest: str = ""


@dataclass
class Workload:
    name: str
    ops: list
    judge: Callable[[list, Any], Verdict]   # outputs of ops + untimed, their references
    cleanup: Callable[[], None] = lambda: None
    untimed: list = field(default_factory=list)  # run once after the timed phase


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


def build_suite(seed: int, scratch: str) -> Workload:
    """`verify --all --seed 42` whatever the benchmark seed: the verify seed
    moves the largest report error ratio between 0.17 and 0.43 (seeds 1, 2,
    3, 5, 7, 42), more than any usable bound, and 42 is the ROADMAP number."""
    path = os.path.join(scratch, f"suite-report-{os.getpid()}.json")
    argv = ["verify", "--all", "--seed", str(SUITE_VERIFY_SEED), "--out", path]

    def call():
        code = cli.run(argv)
        with open(path, "rb") as fh:
            return code, fh.read()

    def cleanup():
        if os.path.exists(path):
            os.remove(path)

    return Workload("suite", [Op("verify --all", call)], _judge_suite, cleanup)


def _judge_suite(outputs, _refs) -> Verdict:
    v = Verdict()
    out = outputs[0]
    if isinstance(out, BaseException):
        v.attempted = SUITE_REPORTS
        v.failed = SUITE_REPORTS
        v.unexpected.append(f"verify --all raised {out!r}")
        return v
    code, data = out
    v.digest = hashlib.sha256(data).hexdigest()
    reports = json.loads(data)
    v.attempted = len(reports)
    if len(reports) != SUITE_REPORTS:
        v.unexpected.append(f"{len(reports)} reports, expected {SUITE_REPORTS}")
    seen_known = set()
    for r in reports:
        key = (r["property"], r["function"])
        if not r["pass"]:
            v.failed += 1
            if key in SUITE_KNOWN_RED:
                seen_known.add(key)
                reason = SUITE_KNOWN_RED[key]
                v.known[reason] = v.known.get(reason, 0) + 1
            else:
                v.unexpected.append(f"report {key} {r['params']} failed")
        elif r["max_abs_error"] >= 0.0:
            ratio = r["max_abs_error"] / r["tolerance"]
            if ratio > v.err_ratio_max:
                v.err_ratio_max = ratio
                v.worst = f"{r['property']}/{r['function']} {r['params']}"
    for key in SUITE_KNOWN_RED.keys() - seen_known:
        v.unexpected.append(f"known-red report {key} passed or is missing")
    expected_code = cli.EXIT_FAILED if seen_known else cli.EXIT_OK
    if code != expected_code:
        v.unexpected.append(f"exit code {code}, expected {expected_code}")
    return v


# ---------------------------------------------------------------------------
# shared judge for operations with a numeric reference
# ---------------------------------------------------------------------------


def _judge_values(ops):
    def judge(outputs, refs) -> Verdict:
        v = Verdict(attempted=len(ops))
        for op, out, ref in zip(ops, outputs, refs):
            scale = max(1.0, abs(float(ref)))
            tol = op.tol + op.rtol * scale
            err = None
            if isinstance(out, BaseException):
                problem = f"{op.label} raised {out!r}"
            elif not (isinstance(out, float) and math.isfinite(out)):
                problem = f"{op.label} returned {out!r}"
            else:
                err = abs(out - float(ref))
                if err <= tol:
                    # the largest ratio over seeded inputs depends on the draw
                    # (0.07 to 0.11 on eval_sweep), and inside a finding's
                    # region an operation passes or misses by chance; accuracy
                    # is compared on fixed inputs outside those regions only
                    if op.fixed and not op.known and err / tol > v.err_ratio_max:
                        v.err_ratio_max = err / tol
                        v.worst = op.label
                    continue
                problem = f"{op.label} misses its reference by {err:.3g} > {tol:.3g}"
            v.failed += 1
            rel = None if err is None else err / scale
            finding = next((f for f in op.known if f.covers(out, rel)), None)
            if finding is not None:
                v.known[finding.reason] = v.known.get(finding.reason, 0) + 1
            else:
                v.unexpected.append(problem)
        return v

    return judge


# ---------------------------------------------------------------------------
# eval_sweep
# ---------------------------------------------------------------------------


def _sweep_points(rng, n, lattice_offset=0.0, positive=False):
    """(x, y, near_k, fixed) for n points: fixed lattice points, then seeded ones.

    The fixed points sit on the lattice x = offset + k y at the largest |k|
    and across the y range, and 1e-6 y to either side of it, where rounding
    hurts most; they keep the largest error ratio from depending on which
    seeded points happen to come close to the worst case.
    Of the seeded points half are generic, a quarter on the lattice and a
    quarter 1e-6 (in units of y) off it.  near_k is k for points off the
    lattice by 1e-6, else None.
    """
    ks = (1.0, 2.0, 3.0) if positive else (-3.0, -2.0, 2.0, 3.0)
    pts = [(lattice_offset + (k + d) * y, y, k if d else None, True)
           for y in CORNER_Y for k in ks for d in (0.0, NEAR, -NEAR)]
    for i in range(n - len(pts)):
        y = float(rng.uniform(0.25, 4.0))
        kind = i % 4
        if kind < 2:
            u = float(rng.uniform(0.05, 3.0) if positive else rng.uniform(-3.0, 3.0))
            pts.append((u * y, y, None, False))
            continue
        k = float(rng.integers(1, 4) if positive else rng.integers(-3, 4))
        d = 0.0 if kind == 2 else (NEAR if rng.random() < 0.5 else -NEAR)
        pts.append((lattice_offset + (k + d) * y, y, k if d else None, False))
    return pts


def _eval_known(label, x, y, near_k):
    """The findings that may cover a failure at this point: E13(s<0) close to
    the lattice, E12 close to a pole; none elsewhere."""
    if label == "E13_neg":
        u = x / y
        return (KNOWN_E13_NEG,) if abs(u - round(u)) < E13_NEG_BAND else ()
    if label == "E12" and near_k is not None and near_k <= 0:
        return (KNOWN_E12,)
    return ()


_AFFINE = (-0.5, 0.25, 2.0)
_FRAC_T = 0.3


def _core_descriptors():
    """(label, descriptor, reference name, constants the factory was given)."""
    e5 = catalog.make("E5", a=2.0)
    return [
        ("core:affine", core.affine_transform(catalog.make("E2", m=2), *_AFFINE),
         "core_affine", _AFFINE),
        ("core:reflect", core.reflect(catalog.make("E9", r=0.5)), "core_reflect", ()),
        ("core:frac_compose", core.frac_compose(e5, _FRAC_T), "core_frac_compose", (_FRAC_T,)),
        ("core:x_derivative", core.x_derivative(catalog.make("E7", r=0.5)),
         "core_x_derivative", ()),
        ("core:linear_combination",
         core.linear_combination([(2.0, catalog.make("E1")), (-0.5, e5),
                                  (1.0, catalog.make("E10"))]),
         "core_linear_combination", ()),
        ("core:from_fourier", core.from_fourier(lambda s: np.exp(-1.5 * s), "cos", 1e-10),
         "core_from_fourier", ()),
        ("core:from_tail_series", core.from_tail_series(lambda s: np.exp(-s), 1e-10),
         "core_from_tail_series", ()),
    ]


def build_eval_sweep(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []

    def add(label, f, ref, consts, offset=0.0, positive=False):
        for x, y, near_k, fixed in _sweep_points(rng, POINTS_PER_DESCRIPTOR, offset, positive):
            ops.append(Op(label, lambda f=f, p=core.EvalPoint(x, y): core.evaluate(f, p),
                          (ref, (*consts, x, y)), tol=f.series_tolerance, rtol=EVAL_RTOL,
                          known=_eval_known(label, x, y, near_k), fixed=fixed))

    for eid, params in catalog.standard_configs():
        label = eid if eid != "E13" else ("E13_pos" if params["s"] > 1 else "E13_neg")
        add(label, catalog.make(eid, **params), "entry", (eid, params),
            params["a"] if eid == "E4" else 0.0, label == "E13_pos")
    for label, f, ref, consts in _core_descriptors():
        add(label, f, ref, consts)
    return Workload("eval_sweep", ops, _judge_values(ops))


# ---------------------------------------------------------------------------
# integrals
# ---------------------------------------------------------------------------

PERIOD_TOL = 1e-10      # what check_integral_limit and check_parity request
GOLDEN_TOL = 1e-11      # what golden_integral requests from integrate
CONV_TOL = 1e-10        # the algebra constructors' default


def _period_op(f, eid, params, x, y, fixed=False):
    def call():
        return quadrature.integrate(
            lambda t: f.value(t, y), x, x + y,
            tol=PERIOD_TOL, interior_singularities=f.singular_points(y, x, x + y),
        ).value

    return Op(f"period:{eid}", call, ("period_integral", (eid, params, x, y)),
              tol=PERIOD_TOL, known=(KNOWN_BAND,) if eid == "E10" else (), fixed=fixed)


def _value_op(label, f, ref, x, y, known=(), fixed=False):
    return Op(label, lambda: f.value(x, y), (ref[0], (*ref[1], x, y)), tol=CONV_TOL,
              known=known, fixed=fixed)


# Fixed inputs for every kind, so that err_ratio_max sees each of them; the
# E10 period and the convolution at x = 0.001 y record the findings above on
# every seed.
FIXED_Y = 1.0
FIXED_PERIOD_X = {"E10": 0.123, "E12": 0.35, "E3a": 0.35, "E7": -0.4}
FIXED_UNIT_X = 0.35
FIXED_STALL_X = 0.001


def build_integrals(seed: int) -> Workload:
    """Fixed operation counts per kind; the seed moves parameters and points.

    Counts are chosen so the median latency falls inside the 21 shallow
    E2*E2 convolution values and the tail inside the 14 deep ones.
    """
    rng = np.random.default_rng(seed)

    def period_point(positive=False):
        y = float(rng.uniform(0.5, 2.0))
        u = float(rng.uniform(0.05, 3.0) if positive else rng.uniform(-3.0, 3.0))
        return u * y, y

    def unit_point(margin=0.0):
        y = float(rng.uniform(0.5, 2.0))
        return float(rng.uniform(margin, 1.0 - margin)) * y, y

    ops = []
    reference = [("euler", None), ("poisson", 2.0), ("poisson", 0.5), ("raabe", 1.0),
                 ("raabe", 2.0), ("raabe", 0.5)]   # check_known_integrals' cases
    seeded = [("poisson", float(rng.uniform(1.5, 4.0))), ("poisson", float(rng.uniform(0.2, 0.7))),
              ("raabe", float(rng.uniform(0.25, 4.0))), ("raabe", float(rng.uniform(0.25, 4.0)))]
    for name, p in reference + seeded:
        kwargs = {} if p is None else {"r" if name == "poisson" else "a": p}
        ops.append(Op(f"golden:{name}",
                      lambda name=name, kw=kwargs: verify.golden_integral(name, **kw)[0],
                      ("golden", (name, p)), tol=GOLDEN_TOL,
                      fixed=(name, p) in reference))

    periods = [(catalog.make("E10"), "E10", {}, 4, False), (catalog.make("E12"), "E12", {}, 4, True),
               (catalog.make("E3a"), "E3a", {}, 4, False)]
    periods += [(catalog.make("E7", r=r), "E7", {"r": r}, 2, False) for r in (0.5, 2.0)]
    for f, eid, params, count, positive in periods:
        ops.append(_period_op(f, eid, params, FIXED_PERIOD_X[eid], FIXED_Y, fixed=True))
        for _ in range(count):
            ops.append(_period_op(f, eid, params, *period_point(positive)))

    # Seeded E10*E10 points keep CONV_STALL_BAND from the ends of the period:
    # a seed that drew one would add a ~4.5 s stall to a round of ~1 s.
    # The stall is recorded instead by one untimed operation on every run.
    pairs = [("E5", {"a": 2.0}, "E1", {}, 6, (), 0.0),
             ("E2", {"m": 1}, "E2", {"m": 1}, 20, (), 0.0),
             ("E10", {}, "E10", {}, 6, (KNOWN_BAND,), CONV_STALL_BAND),
             ("E12", {}, "E2", {"m": 2}, 6, (KNOWN_BAND,), 0.0)]
    untimed = []
    for gid, gp, hid, hp, count, known, margin in pairs:
        conv = algebra.convolve(catalog.make(gid, **gp), catalog.make(hid, **hp))
        label, ref = f"conv:{gid}*{hid}", ("convolution", (gid, gp, hid, hp))
        ops.append(_value_op(label, conv, ref, FIXED_UNIT_X, FIXED_Y, known, fixed=True))
        for _ in range(count):
            ops.append(_value_op(label, conv, ref, *unit_point(margin), known))
        if gid == "E10":
            untimed.append(_value_op(label, conv, ref, FIXED_STALL_X, FIXED_Y,
                                     (KNOWN_BAND, KNOWN_CONV_STALL), fixed=True))

    for eid, params in (("E2", {"m": 2}), ("E5", {"a": 2.0})):
        anti = algebra.antiderivative(catalog.make(eid, **params))
        ref = ("antiderivative", (eid, params))
        ops.append(_value_op(f"antider:{eid}", anti, ref, -0.4, FIXED_Y, fixed=True))
        for _ in range(3):
            ops.append(_value_op(f"antider:{eid}", anti, ref, *period_point()))
    geo = algebra.geometric_convolve(catalog.make("E2", m=1), 2.0)
    ref = ("defining_convolution", ("E5", {"a": 2.0}, "E2", {"m": 1}))
    ops.append(_value_op("geomconv:E2", geo, ref, FIXED_UNIT_X, FIXED_Y, fixed=True))
    for _ in range(6):
        ops.append(_value_op("geomconv:E2", geo, ref, *unit_point()))
    return Workload("integrals", ops, _judge_values(ops + untimed), untimed=untimed)


def build(name: str, seed: int, scratch: str) -> Workload:
    if name == "suite":
        return build_suite(seed, scratch)
    if name == "eval_sweep":
        return build_eval_sweep(seed)
    if name == "integrals":
        return build_integrals(seed)
    raise ValueError(f"unknown workload {name!r}")


def references(ops):
    """Reference values for every operation; imports mpmath only now."""
    import oracles

    return [None if op.reference is None else getattr(oracles, op.reference[0])(*op.reference[1])
            for op in ops]
