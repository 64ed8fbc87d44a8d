"""Every demo script runs to completion against the package in ./src.

Demos 04 and 06 hand scalar lambdas to `integrate`, so this also guards the
scalar-integrand path of the quadrature.
"""

import subprocess
import sys

import pytest

from conftest import ROOT, child_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
