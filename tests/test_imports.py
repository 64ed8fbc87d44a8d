"""Every module of the package imports what it needs at module top.

An import inside a function body is how a cycle between two modules gets
papered over; with none, the import graph of `invk` stays acyclic and every
dependency shows at the head of its module.  Every name a module imports
is used there, so an import that a change leaves behind does not linger.
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


def _unused_imports(path):
    """The names that `path` imports and never uses, as "file:line name".

    A name counts as used when it appears as a name anywhere in the module,
    annotations included.  `from __future__` imports are directives, and a
    package's `__init__` imports to re-export, so neither counts."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_unused_import():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 11
    found = [hit for path in modules for hit in _unused_imports(path)]
    assert found == []


def test_unused_import_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\n\nimport os.path\nfrom itertools import chain, repeat\n"
                     "import numpy as np\n\n\ndef f(n: np.ndarray):\n    return list(repeat(os.sep, n))\n")
    assert _unused_imports(probe) == ["probe.py:4 chain"]
    init = tmp_path / "__init__.py"
    init.write_text("from os import path\n")
    assert _unused_imports(init) == []


def test_report_type_is_shared():
    assert invk.VerificationReport is invk.report.VerificationReport
    assert invk.verify.VerificationReport is invk.report.VerificationReport
