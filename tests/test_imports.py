"""Every module of the package imports what it needs at module top.

An import inside a function body is how a cycle between two modules gets
papered over; with none, the import graph of `invk` stays acyclic and every
dependency shows at the head of its module.
"""

import ast
from pathlib import Path

import invk
import invk.report
import invk.verify

SRC = Path(__file__).resolve().parent.parent / "src" / "invk"


def _function_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_import_inside_a_function_body():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 11
    found = [hit for path in modules for hit in _function_level_imports(path)]
    assert found == []


def test_function_level_import_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\n\ndef f():\n    from os import path\n    return path\n")
    assert _function_level_imports(probe) == ["probe.py:4"]


def test_report_type_is_shared():
    assert invk.VerificationReport is invk.report.VerificationReport
    assert invk.verify.VerificationReport is invk.report.VerificationReport
