import hashlib
import json
import subprocess
import sys

import pytest

from invk.cli import run

from conftest import child_env


def run_cli(args, capsys):
    code = run(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestEval:
    def test_reciprocal(self, capsys):
        code, out, _ = run_cli(["eval", "--fn", "E1", "--x", "3", "--y", "2"], capsys)
        assert code == 0
        assert json.loads(out) == {"value": 0.5}

    def test_with_params(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--fn", "E5", "--params", "a=2", "--x", "1", "--y", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.0)

    def test_unknown_entry_usage_error(self, capsys):
        code, _, err = run_cli(["eval", "--fn", "E99", "--x", "1", "--y", "1"], capsys)
        assert code == 2 and "unknown catalog entry" in err

    def test_domain_violation_usage_error(self, capsys):
        code, _, err = run_cli(
            ["eval", "--fn", "E13", "--params", "s=2", "--x", "-1", "--y", "1"], capsys
        )
        assert code == 2 and "domain" in err

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run_cli(["eval", "--fn", "E1", "--x", "1", "--y", "1", "--bogus", "3"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "E5", "--params", "a=2", "--x", "2000", "--y", "1"],
        ["eval", "--fn", "E5", "--params", "a=0.5", "--x", "-2000", "--y", "1"],
        ["eval", "--fn", "E6", "--params", "r=2,theta=0.5,part=cos", "--x", "2000", "--y", "1"],
        # log |Gamma(1e306)| overflows a double
        ["eval", "--fn", "E12", "--x", "1e306", "--y", "1"],
        # the long-double values of E13 and E2 round to inf
        ["eval", "--fn", "E13", "--params", "s=170", "--x", "0.01", "--y", "1"],
        ["eval", "--fn", "E2", "--params", "m=200", "--x", "1000", "--y", "1"],
    ])
    def test_float_overflow_is_a_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("invk:") and "overflow" in err

    @pytest.mark.parametrize("fn, params, x, y, want", [
        # a^x / (a^y - 1) where a^x or a^y overflows a double but the value does not
        ("E5", "a=2", "1100", "1000", 2.0 ** 100),
        ("E5", "a=2", "0.3", "2000", 0.0),
        ("E6", "r=2,theta=0,part=cos", "1100", "1000", 2.0 ** 100),
        ("E6", "r=2,theta=0.5,part=sin", "0.3", "2000", 0.0),
    ])
    def test_representable_value_past_the_powers(self, fn, params, x, y, want, capsys):
        code, out, err = run_cli(
            ["eval", "--fn", fn, "--params", params, "--x", x, "--y", y], capsys
        )
        assert code == 0 and err == ""
        assert json.loads(out)["value"] == pytest.approx(want, rel=1e-14)

    def test_zeta_overflow_is_a_usage_error(self, capsys):
        # below s ~ -170 zeta(s, u) overflows a double: unsupported region, exit 2
        code, _, err = run_cli(
            ["eval", "--fn", "E13", "--params", "s=-200", "--x", "0.3", "--y", "1"], capsys
        )
        assert code == 2 and "overflows" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "--fn", "E1", "--x", "1", "--y", "1", "--format", "json"],
        ["verify", "--fn", "E1", "--samples", "4", "--format", "csv"],
        ["table", "--fn", "E1", "--y", "1", "--x0", "0", "--x1", "1", "--steps", "2",
         "--format", "json"],
    ])
    def test_format_flag_is_gone(self, argv, capsys):
        # output is JSON, or CSV for table; there is no --format to choose it
        code, out, _ = run_cli(argv, capsys)
        assert code == 2 and out == ""


class TestVerify:
    def test_single_entry(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--fn", "E5", "--params", "a=2", "--samples", "16"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["property"] == "invariance" and rep["pass"] is True

    def test_failing_entry_exit_code(self, capsys):
        code, out, _ = run_cli(["verify", "--fn", "E14", "--samples", "16"], capsys)
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_deterministic_output(self, capsys):
        args = ["verify", "--fn", "E10", "--samples", "16", "--seed", "42"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_malformed_parameter_usage_error(self, capsys):
        code, out, err = run_cli(["verify", "--fn", "E5", "--params", "a2"], capsys)
        assert code == 2 and out == ""
        assert "malformed parameter 'a2'" in err

    def test_nmax_bounds_the_scales(self, capsys):
        code, out, _ = run_cli(["verify", "--fn", "E1", "--nmax", "3"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True and 1 <= rep["worst_witness"]["n"] <= 3

    def test_needs_fn_or_all(self, capsys):
        code, _, err = run_cli(["verify"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--tol", "1e-3"], ["--fn", "E5"], ["--params", "a=2"],
        ["--fn", "E9", "--params", "r=0.5", "--tol", "1e-3"],
    ])
    def test_all_rejects_the_single_entry_flags(self, flags, capsys):
        # the suite pins its own entries and tolerances; these flags would
        # be silently ignored, so they are a usage error
        code, out, err = run_cli(["verify", "--all", *flags], capsys)
        assert code == 2 and out == ""
        assert err.startswith("invk: verify --all") and flags[0] in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--all", "--seed", "-1"],
        ["verify", "--fn", "E9", "--params", "r=0.5", "--seed", "-1"],
    ])
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("invk:") and "seed" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--fn", "E5", "--params", "a=2", "--tol", "inf"],
    ["verify", "--fn", "E5", "--params", "a=2", "--tol", "nan"],
    ["verify", "--fn", "E5", "--params", "a=2", "--tol", "-1"],
    ["integral", "--name", "euler", "--tol", "nan"],
    ["covering", "--check", "0/1", "--certify", "--tol", "nan"],
    ["convolve", "--g", "E1", "--h", "E1", "--x", "0.4", "--y", "1", "--tol", "0"],
])
def test_bad_tolerance_is_a_usage_error(argv, capsys):
    # every --tol is a finite number > 0, checked before any work starts
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "--tol" in err


class TestConvolve:
    def test_bernoulli_pair(self, capsys):
        code, out, _ = run_cli(
            ["convolve", "--g", "E2:m=1", "--h", "E2:m=1", "--x", "0.3", "--y", "1"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.0216667, abs=1e-6)

    def test_nonconvergence_exit_code(self, capsys):
        code, _, err = run_cli(
            ["convolve", "--g", "E1", "--h", "E1", "--x", "0.4", "--y", "1",
             "--tol", "1e-16"], capsys
        )
        assert code == 3 and "non-convergence" in err

    def test_nonintegrable_operand_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["convolve", "--g", "E11", "--h", "E1", "--x", "0.4", "--y", "1"], capsys
        )
        assert code == 2


class TestIntegral:
    def test_raabe(self, capsys):
        code, out, _ = run_cli(["integral", "--name", "raabe", "--params", "a=1"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["value"] == pytest.approx(-0.0810615, abs=1e-6)
        assert rep["expected"] == pytest.approx(rep["value"], abs=1e-8)
        assert rep["error"] <= 1e-8

    def test_poisson_inside_unit_disk(self, capsys):
        code, out, _ = run_cli(["integral", "--name", "poisson", "--params", "r=0.5"], capsys)
        assert code == 0
        assert json.loads(out)["expected"] == 0.0

    def test_bad_name(self, capsys):
        code, _, _ = run_cli(["integral", "--name", "gauss"], capsys)
        assert code == 2

    @pytest.mark.parametrize("name,params", [
        ("poisson", "r=abc"), ("poisson", "r=nan"), ("raabe", "a=inf"),
        ("raabe", "a=1,b=2"), ("euler", "r=2"),
    ])
    def test_bad_parameters_are_usage_errors(self, name, params, capsys):
        # a value that is no finite number, or a key the integral does not take
        code, out, err = run_cli(["integral", "--name", name, "--params", params], capsys)
        assert code == 2 and out == "" and err.startswith("invk:")


class TestCovering:
    def test_reject_with_witness(self, capsys):
        code, out, _ = run_cli(["covering", "--check", "0/2,0/3"], capsys)
        assert code == 1
        rep = json.loads(out)
        assert rep["accepted"] is False and rep["witness"] == 1

    def test_accept_and_certify(self, capsys):
        code, out, _ = run_cli(
            ["covering", "--check", "0/2,1/4,3/4", "--certify", "--fn", "E5",
             "--params", "a=2"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["accepted"] is True
        assert rep["certificate"]["pass"] is True
        assert rep["certificate"]["worst_witness"]["lhs"] == pytest.approx(1.0, abs=1e-12)

    def test_accepted_system_with_failing_certificate(self, capsys):
        # E14 is invariant at odd n only: 0/2,1/4,3/4 covers the integers,
        # but its certificate at x = 0.7 sums +1 against -1
        code, out, _ = run_cli(
            ["covering", "--check", "0/2,1/4,3/4", "--certify", "--fn", "E14",
             "--params", "", "--x", "0.7"], capsys
        )
        assert code == 1
        rep = json.loads(out)
        assert rep["accepted"] is True and rep["certificate"]["pass"] is False
        assert rep["certificate"]["max_abs_error"] == 2.0

    def test_certify_bytes_pinned(self, capsys):
        # sha256 of the report bytes; a change that moves one byte must say why
        code, out, _ = run_cli(
            ["covering", "--check", "0/2,1/4,3/4", "--certify", "--fn", "E5",
             "--params", "a=2"], capsys
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "35e2ecd0eafb191e998c604af5256a2a9855e11d64c0f6264f2977183d5b294a"
        )

    def test_malformed_text(self, capsys):
        code, _, err = run_cli(["covering", "--check", "0/2;1/2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["covering", "--check", "0/2,1/2", "--certify", "--fn", "E1", "--params", "",
         "--y", "inf"],
        ["covering", "--check", "0/2,1/4,3/4", "--certify", "--fn", "E5", "--params", "a=2",
         "--x", "nan"],
    ])
    def test_non_finite_certificate_point_is_a_usage_error(self, argv, capsys):
        # a non-finite point has no certificate, and its witness is no JSON
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("invk:")


class TestTable:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            ["table", "--fn", "E9", "--params", "r=0.5", "--y", "1",
             "--x0", "0", "--x1", "1", "--steps", "4"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,value"
        assert len(lines) == 6
        x, v = lines[1].split(",")
        assert float(x) == 0.0 and float(v) == pytest.approx(3.0)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "tab.csv"
        code, out, _ = run_cli(
            ["table", "--fn", "E1", "--y", "2", "--x0", "0", "--x1", "1",
             "--steps", "2", "--out", str(path)], capsys
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("x,value\n")

    def test_bad_steps(self, capsys):
        code, _, _ = run_cli(
            ["table", "--fn", "E1", "--y", "1", "--x0", "0", "--x1", "1", "--steps", "0"],
            capsys,
        )
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "invk.cli", "eval", "--fn", "E1", "--x", "1", "--y", "4"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"value": 0.25}

    def test_package_invocation(self):
        # `python -m invk` runs the same front end from a checkout
        proc = subprocess.run(
            [sys.executable, "-m", "invk", "verify", "--fn", "E1"],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["pass"] is True
