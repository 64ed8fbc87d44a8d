"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from invk.algebra import antiderivative
from invk.catalog import make, standard_configs
from invk.covering import covering_identity_check, is_disjoint_covering, parse_system
from invk.special import bernoulli_poly, hurwitz_zeta
from invk.verify import (
    DEFAULT_GRID,
    _invariance_table,
    check_bernoulli_convolution,
    check_bernoulli_integral_identity,
    check_covering_certificates,
    check_integral_limit,
    check_invariance,
    check_product_integral,
    check_convolution_invariance,
    check_y_derivative_identities,
    check_zeta_convolution,
    default_tolerance,
    golden_integral,
    grid_points,
    standard_suite,
)

from conftest import child_env, scale_sum

PROBE_GRID = replace(DEFAULT_GRID, samples=9)


def _line(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status}  {detail}")


# Entries whose defining identity holds for odd n only, with the reason.
ODD_N_ONLY = {
    "E14": "sign(1/2 - {u}) is a square wave with odd harmonics only, so for even n "
    "the shifted values cancel in pairs while f(x, y) is +-1; exact counterexample "
    "x=0.2, y=1, n=2 in tests/test_catalog.py::TestHandComputedIdentitySums"
    "::test_sign_entry_odd_scales_only",
}


def _odd_n_residual(f, grid):
    """Largest scale-sum residual over odd n <= grid.n_max, on the same seeded
    points that check_invariance draws."""
    pts = grid_points(f, grid, _invariance_table(grid.n_max))
    return max(
        abs(scale_sum(f, x, y, n) - f.value(x, y))
        for x, y in pts
        for n in range(1, grid.n_max + 1, 2)
    )


def test_c01_invariance_suite():
    failures = []
    odd_n = {}
    for eid, params in standard_configs():
        f = make(eid, **params)
        tol = default_tolerance(f)
        rep = check_invariance(f, DEFAULT_GRID, tol)
        if eid in ODD_N_ONLY:
            # the odd-n identity must hold, and the engine must still report
            # the even-n failure
            worst = _odd_n_residual(f, DEFAULT_GRID)
            even_failure = not rep.passed and rep.worst_witness["n"] % 2 == 0
            odd_n[eid] = (worst, even_failure)
            if worst > tol or not even_failure:
                failures.append((eid, params, worst, even_failure))
        elif rep.max_abs_error > tol:
            failures.append((eid, params, rep.max_abs_error))
    assert set(odd_n) == set(ODD_N_ONLY), odd_n
    _line(
        "C1", not failures,
        f"catalog invariance, defaults grid; odd-n only (residual, even-n failure "
        f"reported): {odd_n}; failures: {failures}",
    )
    assert not failures, failures


def test_c02_euler_integral():
    value, expected = golden_integral("euler")
    err = abs(value - expected)
    _line("C2", err <= 1e-8, f"log-sine integral err={err:.2e}")
    assert err <= 1e-8


def test_c03_poisson_integral():
    v2, e2 = golden_integral("poisson", r=2.0)
    vh, eh = golden_integral("poisson", r=0.5)
    ok = abs(v2 - e2) <= 1e-7 and abs(vh - 0.0) <= 1e-7
    _line("C3", ok, f"r=2 err={abs(v2 - e2):.2e}, r=1/2 err={abs(vh):.2e}")
    assert ok


def test_c04_raabe_integral():
    errs = {}
    for a in (1.0, 2.0, 0.5):
        value, expected = golden_integral("raabe", a=a)
        errs[a] = abs(value - expected)
    ok = all(e <= 1e-8 for e in errs.values())
    _line("C4", ok, f"errs={ {k: f'{v:.2e}' for k, v in errs.items()} }")
    assert ok, errs


def test_c05_period_integral_equals_scaled_limit():
    worst = {}
    for eid, params in (
        ("E1", {}), ("E2", {"m": 1}), ("E2", {"m": 2}), ("E2", {"m": 3}),
        ("E3a", {}), ("E5", {"a": 2.0}), ("E9", {"r": 0.5}),
    ):
        rep = check_integral_limit(make(eid, **params), PROBE_GRID, 1e-6)
        worst[(eid, str(params))] = rep.max_abs_error
        assert rep.samples == 9
    ok = all(v <= 1e-6 for v in worst.values())
    _line("C5", ok, f"max err={max(worst.values()):.2e} over {len(worst)} entries x 9 probes")
    assert ok, worst


def test_c06_y_derivative_identities():
    errs_analytic, errs_fd = [], []
    for eid, params in (("E1", {}), ("E2", {"m": 2}), ("E5", {"a": 2.0}), ("E9", {"r": 0.5})):
        f = make(eid, **params)
        rep = check_y_derivative_identities(f, PROBE_GRID, 1e-6)
        assert "fd-fallback" not in rep.flags
        errs_analytic.append(rep.max_abs_error)
        rep_fd = check_y_derivative_identities(f, PROBE_GRID, 1e-4, use_fd=True)
        assert "fd-fallback" in rep_fd.flags
        errs_fd.append(rep_fd.max_abs_error)
    ok = max(errs_analytic) <= 1e-6 and max(errs_fd) <= 1e-4
    _line(
        "C6", ok,
        f"analytic max={max(errs_analytic):.2e} (tol 1e-6), fd max={max(errs_fd):.2e} (tol 1e-4)",
    )
    assert ok


PAIRS = (
    (("E1", {}), ("E1", {})),
    (("E5", {"a": 2.0}), ("E1", {})),
    (("E2", {"m": 1}), ("E2", {"m": 1})),
    (("E2", {"m": 1}), ("E9", {"r": 0.5})),
    (("E5", {"a": 2.0}), ("E9", {"r": 0.5})),
)


def test_c07_convolution_invariance_and_product_integral():
    grid = replace(DEFAULT_GRID, n_max=6)
    worst_inv, worst_int = -1.0, -1.0
    for (gid, gp), (hid, hp) in PAIRS:
        g, h = make(gid, **gp), make(hid, **hp)
        rep_inv = check_convolution_invariance(g, h, grid, 1e-7)
        rep_int = check_product_integral(g, h, (1.0, 0.7), 1e-7)
        worst_inv = max(worst_inv, rep_inv.max_abs_error)
        worst_int = max(worst_int, rep_int.max_abs_error)
    ok = worst_inv <= 1e-7 and worst_int <= 1e-7
    _line("C7", ok, f"invariance max={worst_inv:.2e}, integral identity max={worst_int:.2e}")
    assert ok


def test_c08_antiderivative_matches_closed_forms():
    rng = np.random.default_rng(11)
    F1 = antiderivative(make("E1"))
    ref = make("E2", m=1)
    err1 = -1.0
    for _ in range(20):
        y = float(rng.uniform(0.25, 4.0))
        x = float(rng.uniform(-3.0, 3.0)) * y
        err1 = max(err1, abs(F1.value(x, y) - ref.value(x, y)))
    F2 = antiderivative(make("E2", m=1))
    err2 = -1.0
    for _ in range(20):
        y = float(rng.uniform(0.25, 4.0))
        x = float(rng.uniform(-3.0, 3.0)) * y
        err2 = max(err2, abs(F2.value(x, y) - y * bernoulli_poly(2, x / y) / 2.0))
    ok = err1 <= 1e-9 and err2 <= 1e-8
    _line("C8", ok, f"vs centered linear err={err1:.2e} (tol 1e-9), vs scaled quadratic err={err2:.2e} (tol 1e-8)")
    assert ok


def test_c09_bernoulli_convolution_family():
    worst_conv, worst_ident = -1.0, -1.0
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            rep = check_bernoulli_convolution(m, n, (1.0, 0.7), 11, 1e-8)
            worst_conv = max(worst_conv, rep.max_abs_error)
            rep_id = check_bernoulli_integral_identity(m, n, 11, 1e-8)
            worst_ident = max(worst_ident, rep_id.max_abs_error)
    ok = worst_conv <= 1e-8 and worst_ident <= 1e-8
    _line("C9", ok, f"convolution max={worst_conv:.2e}, kernel identity max={worst_ident:.2e}")
    assert ok


def test_c10_zeta_bernoulli_bridge():
    worst = -1.0
    for m in (2, 4):
        for x in np.arange(0.1, 0.95, 0.1):
            x = float(x)
            err = abs(hurwitz_zeta(1.0 - m, x) - (-bernoulli_poly(m, x) / m))
            worst = max(worst, err)
    ok = worst <= 1e-6
    _line("C10", ok, f"max err={worst:.2e} over m in {{2,4}}, x in 0.1..0.9")
    assert ok


def test_c11_covering_decisions_and_certificates():
    good = parse_system("0/2,1/4,3/4")
    bad = parse_system("0/2,0/3")
    d_good = is_disjoint_covering(good)
    d_bad = is_disjoint_covering(bad)
    ok = d_good.accepted and (not d_bad.accepted) and d_bad.witness is not None

    rep = covering_identity_check(good, make("E5", a=2.0), 0.0, 1.0, tol=1e-12)
    ok = ok and rep.passed and abs(rep.worst_witness["lhs"] - 1.0) <= 1e-12 \
        and abs(rep.worst_witness["rhs"] - 1.0) <= 1e-12

    cert_errs = {}
    for eid, params in (("E2", {"m": 2}), ("E10", {}), ("E11", {})):
        cert = check_covering_certificates(good, make(eid, **params), PROBE_GRID, 1e-8)
        cert_errs[eid] = cert.max_abs_error
        ok = ok and cert.max_abs_error <= 1e-8
    _line("C11", ok, f"witness={d_bad.witness}, certificate errs={ {k: f'{v:.1e}' for k, v in cert_errs.items()} }")
    assert ok


def test_c12_fractional_kernel_convolution():
    rep_int = check_zeta_convolution(2.0, 2.0, 1.0, tol=1e-8)
    ok_integer = rep_int.max_abs_error <= 1e-8

    # conjecture-level: a failure here is a reported finding, not a build failure
    rep_frac = check_zeta_convolution(
        1.5, 2.5, 1.0, x_samples=(0.1, 0.3, 0.5, 0.7, 0.9), tol=1e-5
    )
    finding = "holds" if rep_frac.passed else (
        f"VIOLATED (max err {rep_frac.max_abs_error:.2e} > 1e-5); recorded as a finding"
    )
    _line(
        "C12", ok_integer,
        f"integer orders err={rep_int.max_abs_error:.2e}; fractional orders: {finding}",
    )
    assert ok_integer


# sha256 of the report bytes; a change that moves one byte must say why
VERIFY_ALL_SHA256 = "6f54f7b8394fdcc8c550597f993d987bcf0b3ee15033e802ba35984418f2e5ab"


def test_c13_verify_all_is_byte_deterministic():
    cmd = [sys.executable, "-m", "invk.cli", "verify", "--all", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, timeout=500, env=child_env())
    second = subprocess.run(cmd, capture_output=True, timeout=500, env=child_env())
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    digest = hashlib.sha256(first.stdout).hexdigest()
    ok = ok and digest == VERIFY_ALL_SHA256
    reports = json.loads(first.stdout)
    ok = ok and first.returncode == second.returncode
    # the standing outcome: every report passes except E14's invariance (odd n only)
    failed = [(r["property"], r["function"]) for r in reports if not r["pass"]]
    ok = ok and len(reports) == 114 and first.returncode == 1
    ok = ok and failed == [("invariance", "E14")]
    _line(
        "C13", ok,
        f"{len(reports)} reports, {len(first.stdout)} bytes, sha256={digest[:8]}, "
        f"exit={first.returncode} twice, failed={failed}",
    )
    assert ok


@pytest.mark.parametrize("seed", [1, 7, 30])
def test_c13_verdicts_hold_at_other_seeds(seed):
    # the suite's outcome is no accident of seed 42: at other seeds the
    # same 114 reports come back, and only E14's invariance is red
    reports = standard_suite(replace(DEFAULT_GRID, seed=seed))
    failed = [(r.property, r.function) for r in reports if not r.passed]
    assert len(reports) == 114 and failed == [("invariance", "E14")]


# numpy's x86-64 dispatch groups above its X86_V2 baseline, and glibc's
# AVX2, FMA and AVX-512 libm variants: with them off, numpy's ufuncs and
# libm's log, exp and sin take other code paths, and some round otherwise
_DISPATCH_GROUPS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
_GLIBC_HWCAPS = "glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F"
# the C13 run, after it checks that numpy really turned the groups off
_DISPATCH_CHILD = """\
import sys
from numpy._core._multiarray_umath import __cpu_features__
if any(__cpu_features__[group] for group in sys.argv[1:]):
    sys.exit(99)
from invk.cli import run
sys.exit(run(["verify", "--all", "--seed", "42"]))
"""


def test_c13_verify_all_under_other_cpu_dispatch():
    groups = [g for g in _DISPATCH_GROUPS if g in __cpu_dispatch__ and __cpu_features__.get(g)]
    if not groups:
        pytest.skip("numpy dispatches none of the x86-64 groups above its baseline here")
    env = child_env()
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(groups)
    env["GLIBC_TUNABLES"] = _GLIBC_HWCAPS
    run = subprocess.run([sys.executable, "-c", _DISPATCH_CHILD, *groups],
                         capture_output=True, timeout=500, env=env)
    digest = hashlib.sha256(run.stdout).hexdigest()
    ok = run.returncode == 1 and digest == VERIFY_ALL_SHA256
    _line("C13-dispatch", ok, f"without {groups} and {_GLIBC_HWCAPS}: sha256={digest[:8]}, "
          f"exit={run.returncode}")
    assert run.returncode != 99, "numpy kept a disabled dispatch group"
    assert ok, run.stderr.decode()[-2000:]
