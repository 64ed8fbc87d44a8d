"""Verification reports: the JSON-ready record of one checked identity, its
canonical sort key, and the worst-error reducer the checks build it from."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import positive


@dataclass
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


class _Worst:
    """The first strictly largest error of a check and its witness.

    A NaN error becomes the worst and stays there, so the report fails
    instead of passing on the samples that did compare.
    """

    err = -1.0
    sample = (0.0, 1.0, 0, 0.0, 0.0)  # x, y, n, lhs, rhs

    def add(self, err, x=0.0, y=1.0, n=0, lhs=0.0, rhs=0.0) -> bool:
        """Record one sample; True when it became the worst."""
        if math.isnan(self.err) or not (err > self.err or math.isnan(err)):
            return False
        self.err, self.sample = err, (x, y, n, lhs, rhs)
        return True

    def witness(self) -> dict:
        x, y, n, lhs, rhs = self.sample
        return {"x": float(x), "y": float(y), "n": int(n), "lhs": float(lhs), "rhs": float(rhs)}


def _report(prop, f_or_name, params, samples, worst: _Worst, tol, flags=()):
    name = f_or_name if isinstance(f_or_name, str) else f_or_name.name
    tol = positive("tolerance", tol)
    return VerificationReport(
        property=prop,
        function=name,
        params=dict(params),
        samples=samples,
        max_abs_error=float(worst.err),
        tolerance=tol,
        passed=bool(0.0 <= worst.err <= tol),  # a report that compared nothing fails
        worst_witness=worst.witness(),
        flags=sorted(flags),
    )
