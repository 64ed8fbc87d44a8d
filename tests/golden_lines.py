"""One golden line per `verify --all --seed 42` report, and their diff.

Each line holds a report's property, function, params, pass, max_abs_error
and worst witness, and the sha256 of the report's own JSON bytes under the
CLI's serializer, so a moved report shows up by name with its before and
after values.  `tests/test_golden_lines.py` checks a fresh run against the
checked-in lines; run as a script on a saved report to print the same diff:

    PYTHONPATH=src python tests/golden_lines.py verify-all.json
"""

import hashlib
import json
import sys
from pathlib import Path

from invk.cli import _dump_json

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all_seed42.jsonl"


def golden_lines(stdout: bytes) -> list[str]:
    """The line of each report of a `verify --all` output, in its order."""
    lines = []
    for report in json.loads(stdout):
        digest = hashlib.sha256(_dump_json(report).encode("utf-8")).hexdigest()
        line = {key: report[key] for key in
                ("property", "function", "params", "pass", "max_abs_error", "worst_witness")}
        lines.append(json.dumps({**line, "sha256": digest}))
    return lines


def _key(line: str) -> str:
    rec = json.loads(line)
    return f"{rec['property']}/{rec['function']} {json.dumps(rec['params'], sort_keys=True)}"


def _values(line: str) -> str:
    rec = json.loads(line)
    return (f"pass={rec['pass']} max_abs_error={rec['max_abs_error']!r} "
            f"witness={json.dumps(rec['worst_witness'], sort_keys=True)}")


def golden_diff(before: list[str], after: list[str]) -> list[str]:
    """One message per report that moved, appeared or vanished, in the
    order of `after`, then of `before`; empty when the lines agree."""
    old = {_key(line): line for line in before}
    new = {_key(line): line for line in after}
    out = []
    for key, line in new.items():
        if key not in old:
            out.append(f"appeared {key}: {_values(line)}")
        elif old[key] != line:
            out.append(f"moved {key}:\n  before {_values(old[key])}\n  after  {_values(line)}")
    out += [f"vanished {key}: {_values(line)}" for key, line in old.items() if key not in new]
    if not out and before != after:
        out.append("the same reports in another order")
    return out


def read_golden() -> list[str]:
    return GOLDEN.read_text(encoding="utf-8").splitlines()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: golden_lines.py VERIFY_ALL_JSON", file=sys.stderr)
        return 2
    diff = golden_diff(read_golden(), golden_lines(Path(argv[0]).read_bytes()))
    print("\n".join(diff) if diff else f"every report matches {GOLDEN.name}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
