"""Exact decision procedure for disjoint covering systems.

A system of residue classes a_1(n_1), ..., a_k(n_k) partitions the integers
iff every residue modulo lcm(n_1..n_k) is hit exactly once; that finite check
is exact and yields a witness residue on rejection.  An accepted system turns
any invariant function f into the certificate identity

    sum_s f(x + a_s*y, n_s*y) = f(x, y).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import EvalPoint, InvariantFunction
from .errors import CapacityError, ParseError, RejectedInputError, integer
from .report import ShiftTable, VerificationReport, _report, _sample_values, _worst_index

LCM_CAP = 10 ** 9
_CHUNK = 1 << 22
_CLASS_RE = re.compile(r"^([+-]?\d+)/(\d+)$")


@dataclass(frozen=True)
class CoveringSystem:
    """Residue classes (a, n) with a stored reduced modulo n."""

    classes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.classes:
            raise RejectedInputError("covering system needs at least one class")
        reduced = []
        for a, n in self.classes:
            n = integer("modulus", n, 1)
            reduced.append((integer("residue", a) % n, n))
        object.__setattr__(self, "classes", tuple(reduced))

    @property
    def lcm(self) -> int:
        return math.lcm(*(n for _, n in self.classes))

    @property
    def density(self) -> Fraction:
        return sum((Fraction(1, n) for _, n in self.classes), Fraction(0))

    def __str__(self) -> str:
        return ",".join(f"{a}/{n}" for a, n in self.classes)

    @cached_property
    def table(self) -> ShiftTable:
        """The points the certificate identity at (x, y) evaluates: (x, y),
        then (x + a y, n y) for each class a(n)."""
        return ShiftTable([(1, 0, 1)] + [(1, a, n) for a, n in self.classes])


@dataclass(frozen=True)
class CoveringDecision:
    accepted: bool
    lcm: int
    density: Fraction
    witness: Optional[int] = None
    witness_kind: Optional[str] = None  # "uncovered" | "multiply-covered"

    def to_json_dict(self) -> dict:
        out = {
            "accepted": self.accepted,
            "lcm": self.lcm,
            "density": {
                "numerator": self.density.numerator,
                "denominator": self.density.denominator,
            },
        }
        if self.witness is not None:
            out["witness"] = self.witness
            out["witness_kind"] = self.witness_kind
        return out


def parse_system(text: str) -> CoveringSystem:
    """Parse `a/n[,a/n]*` with integer a and positive integer n."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty covering-system text", 0)
    classes = []
    pos = 0
    for piece in text.split(","):
        stripped = piece.strip()
        m = _CLASS_RE.match(stripped)
        if not m:
            raise ParseError(f"malformed residue class {stripped!r}", pos)
        a, n = int(m.group(1)), int(m.group(2))
        if n <= 0:
            raise ParseError(f"modulus must be positive in {stripped!r}", pos)
        classes.append((a, n))
        pos += len(piece) + 1
    return CoveringSystem(tuple(classes))


def is_disjoint_covering(system: CoveringSystem) -> CoveringDecision:
    """Exact partition test over one full period of the system.

    Scans residues 0..lcm-1 with a coverage counter.  The witness is the
    smallest uncovered residue when one exists, otherwise the smallest
    multiply-covered one.
    """
    L = system.lcm
    if L > LCM_CAP:
        raise CapacityError(f"lcm {L} exceeds the scan cap {LCM_CAP}")
    density = system.density
    first_uncovered: Optional[int] = None
    first_multiple: Optional[int] = None
    for start in range(0, L, _CHUNK):
        end = min(L, start + _CHUNK)
        counts = np.zeros(end - start, dtype=np.uint16)
        for a, n in system.classes:
            first = start + ((a - start) % n)
            if first < end:
                counts[first - start :: n] += 1
        if first_uncovered is None:
            idx = np.flatnonzero(counts == 0)
            if idx.size:
                first_uncovered = start + int(idx[0])
        if first_multiple is None:
            idx = np.flatnonzero(counts > 1)
            if idx.size:
                first_multiple = start + int(idx[0])
        if first_uncovered is not None:
            break
    if first_uncovered is not None:
        return CoveringDecision(False, L, density, first_uncovered, "uncovered")
    if first_multiple is not None:
        return CoveringDecision(False, L, density, first_multiple, "multiply-covered")
    return CoveringDecision(True, L, density)


def require_accepted(system: CoveringSystem) -> None:
    """RejectedInputError unless the system partitions the integers: a
    certificate identity on a rejected system is a precondition error."""
    decision = is_disjoint_covering(system)
    if not decision.accepted:
        raise RejectedInputError(
            f"covering certificate requires an accepted system; witness {decision.witness}"
        )


def certificate_report(
    system: CoveringSystem,
    f: InvariantFunction,
    pts: Sequence[tuple[float, float]],
    tol: float,
) -> VerificationReport:
    """Certificate identity sum_s f(x + a_s*y, n_s*y) against f(x, y) at each
    (x, y) of pts: one `values` call over the points of `system.table` of
    every sample, and one `_worst_index` reduction whose row goes to `_report`.

    The system must already be accepted (`require_accepted`).
    """
    k = len(system.classes)
    vals = _sample_values(f, pts, system.table)
    lhs = [math.fsum(shifted) for _, *shifted in vals]
    errs = [abs(a - row[0]) for a, row in zip(lhs, vals)]
    i = _worst_index(errs)
    eff_tol = tol + (k + 1) * f.series_tolerance
    params = {**f.params, "system": str(system)}
    return _report("covering-certificate", f, params, len(pts),
                   [(errs[i], *pts[i], k, lhs[i], vals[i][0])], eff_tol, f.flags)


def covering_identity_check(
    system: CoveringSystem,
    f: InvariantFunction,
    x: float,
    y: float,
    tol: float = 1e-8,
) -> VerificationReport:
    """Certificate report at one point (x, y): the one-sample case of
    `certificate_report`, after the system is decided.  A rejected system, a
    non-finite point or y <= 0 raises RejectedInputError."""
    require_accepted(system)
    EvalPoint(x, y)
    return certificate_report(system, f, [(x, y)], tol)
