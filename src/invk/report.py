"""Verification reports: the JSON-ready record of one checked identity, its
canonical sort key, and what the checks build it from: a sample's points
(`ShiftTable`), their values and the one worst-error rule (`_worst_index`)."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import InvariantFunction
from .errors import positive


@dataclass(frozen=True)
class VerificationReport:
    property: str
    function: str
    params: dict
    samples: int
    max_abs_error: float
    tolerance: float
    passed: bool
    worst_witness: dict
    flags: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "property": self.property,
            "function": self.function,
            "params": _jsonable(self.params),
            "samples": self.samples,
            "max_abs_error": self.max_abs_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "worst_witness": _jsonable(self.worst_witness),
            "flags": list(self.flags),
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def report_sort_key(r: VerificationReport):
    return (r.property, r.function, json.dumps(_jsonable(r.params), sort_keys=True, default=str))


class ShiftTable:
    """The points a check evaluates at a sample (x, y), as rows (c, a, b) of
    integers: row (c, a, b) is the point (c x + a y, b y), with c = 1
    but for parity's reflection (y - x, y), row (-1, 1, 1).  As c = +-1 and
    a and b are exact doubles, each coordinate is the written shift's float
    operations, x + a y, y - x or b y, to the bit; (x, y) itself comes out
    as x + 0.0, which is x for every draw (no draw is -0.0)."""

    def __init__(self, rows: Iterable[tuple[int, int, int]]):
        self.rows = tuple(rows)
        self._c, self._a, self._b = np.array(self.rows, dtype=float).T
        # (i, j): rows i to j - 1 share one b, and so one scale b y
        edges = [i for i in range(1, len(self.rows)) if self.rows[i][2] != self.rows[i - 1][2]]
        self.spans = list(zip([0, *edges], [*edges, len(self.rows)]))

    def arrays(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(px, py): point j of the sample (xs[i], ys[i]) is (px[i, j], py[i, j])."""
        x, y = xs[:, None], ys[:, None]
        return self._c * x + self._a * y, self._b * y


def _sample_values(
    f: InvariantFunction, pts: Sequence[tuple[float, float]], table: ShiftTable
) -> list[list[float]]:
    """f at the points of `table` of every sample of `pts`: the points from
    one array expression, their values from one `f.values` call, however
    many.  Row i holds sample i's values, in the table's order."""
    xs, ys = np.array(pts).T
    px, py = table.arrays(xs, ys)
    return f.values(px.ravel(), py.ravel()).reshape(px.shape).tolist()


def _worst_index(errs: list[float]) -> int:
    """The one worst-error rule: the index of the first NaN, else of the
    first maximum.  A NaN is the worst, so a report fails instead of
    passing on the samples that did compare."""
    if math.isnan(sum(errs)):
        return next(i for i, e in enumerate(errs) if math.isnan(e))
    return errs.index(max(errs))


def _report(prop, f_or_name, params, samples, rows, tol, flags=()):
    """The report of a check from its rows (err, x, y, n, lhs, rhs), in
    sample order: the row `_worst_index` picks is the error and witness.
    With no rows the error is -1 at (0, 1, 0, 0, 0), and the report fails."""
    name = f_or_name if isinstance(f_or_name, str) else f_or_name.name
    tol = positive("tolerance", tol)
    err, x, y, n, lhs, rhs = (
        rows[_worst_index([row[0] for row in rows])] if rows else (-1.0, 0.0, 1.0, 0, 0.0, 0.0)
    )
    return VerificationReport(
        property=prop,
        function=name,
        params=dict(params),
        samples=samples,
        max_abs_error=float(err),
        tolerance=tol,
        passed=bool(0.0 <= err <= tol),  # a report that compared nothing fails
        worst_witness={"x": float(x), "y": float(y), "n": int(n),
                       "lhs": float(lhs), "rhs": float(rhs)},
        flags=sorted(flags),
    )
