import math
import os
from pathlib import Path

import numpy as np
import pytest

from invk.verify import GridSpec

ROOT = Path(__file__).resolve().parent.parent

# small deterministic grid for module-level property sweeps
SMALL_GRID = GridSpec(seed=7, samples=16, n_max=6)


def child_env() -> dict:
    """The environment for a child interpreter that imports invk from ./src,
    which pytest's `pythonpath` setting gives only to the test process, and
    runs under its warning policy: a RuntimeWarning is an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = ",".join(filter(None, [env.get("PYTHONWARNINGS"), "error::RuntimeWarning"]))
    return env


def table_points(table, x, y):
    """The points (x', y') of one sample (x, y) of a shift table, as a list."""
    px, py = table.arrays(np.array([x]), np.array([y]))
    return list(zip(px[0].tolist(), py[0].tolist()))


def scale_sum(f, x, y, n):
    """Left side of the defining identity at one point."""
    return math.fsum(f.value(x + r * y, n * y) for r in range(n))


@pytest.fixture
def small_grid():
    return SMALL_GRID
