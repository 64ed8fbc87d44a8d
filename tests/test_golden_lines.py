"""`verify --all --seed 42` against its golden lines, one per report.

C13 (`tests/test_acceptance.py`) pins one sha256 over all the reports; this
test names each report that moved, appeared or vanished, with its before
and after error and witness.  A change that moves report bytes rewrites
`tests/golden/verify_all_seed42.jsonl`, and the diff of that file is the
record of what moved.
"""

import json
import subprocess
import sys

from conftest import child_env
from golden_lines import golden_diff, golden_lines, read_golden


def test_verify_all_matches_its_golden_lines():
    run = subprocess.run([sys.executable, "-m", "invk.cli", "verify", "--all", "--seed", "42"],
                         capture_output=True, timeout=500, env=child_env())
    assert run.returncode == 1, run.stderr.decode()[-2000:]
    diff = golden_diff(read_golden(), golden_lines(run.stdout))
    assert not diff, "verify --all moved from its golden lines:\n" + "\n".join(diff)


def _line(prop, fn, err, x=0.5):
    report = {"flags": [], "function": fn, "max_abs_error": err, "params": {"a": 2.0},
              "pass": True, "property": prop, "samples": 4, "tolerance": 1e-8,
              "worst_witness": {"lhs": 1.0, "n": 2, "rhs": 1.0, "x": x, "y": 1.0}}
    return golden_lines(json.dumps([report]).encode())[0]


def test_diff_names_moved_appeared_and_vanished_reports():
    kept, moved, gone = _line("invariance", "E4", 0.0), _line("invariance", "E5", 1e-14), _line("parity", "E9", 0.0)
    moved_after, new = _line("invariance", "E5", 2e-14, x=0.25), _line("exchange", "E5", 3e-15)
    assert golden_diff([kept, moved, gone], [kept, moved, gone]) == []
    diff = golden_diff([kept, moved, gone], [kept, moved_after, new])
    assert len(diff) == 3
    assert diff[0].startswith('moved invariance/E5 {"a": 2.0}')
    assert "1e-14" in diff[0] and "2e-14" in diff[0] and '"x": 0.25' in diff[0]
    assert diff[1].startswith('appeared exchange/E5 {"a": 2.0}') and "3e-15" in diff[1]
    assert diff[2].startswith('vanished parity/E9 {"a": 2.0}')
    assert golden_diff([kept, moved], [moved, kept]) == ["the same reports in another order"]


def test_each_line_carries_its_report_digest():
    # the sha256 of the report's own bytes under the CLI's serializer, so a
    # report that moved only in a field the line does not show still moves
    a, b = _line("invariance", "E4", 0.0), _line("invariance", "E4", 0.0)
    assert a == b and len(json.loads(a)["sha256"]) == 64
    report = json.loads(a)
    assert set(report) == {"property", "function", "params", "pass", "max_abs_error",
                           "worst_witness", "sha256"}
