"""`quadrature._out_of_reach` alone states when a job's tolerance is out
of reach.

The heap code calls it on floats and the table on arrays, one element per
job.  A function that names `_FLOOR_MARGIN` could restate the rule, as the
table's pop pass once did with an inline copy of its own, so in `src/invk`
only `_out_of_reach` names it, besides its one assignment in `quadrature`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "invk"
NAME = "_FLOOR_MARGIN"
OWNER = "_out_of_reach"


def _margin_names(path):
    """`file:line` of each name, attribute or import NAME, but for those in
    `quadrature.py`'s OWNER and its module-level `NAME = ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set()
    for node in tree.body if path.name == "quadrature.py" else ():
        if isinstance(node, ast.FunctionDef) and node.name == OWNER:
            allowed.update(map(id, ast.walk(node)))
        elif isinstance(node, ast.Assign):
            allowed.update(id(t) for t in node.targets if isinstance(t, ast.Name) and t.id == NAME)
    found = []
    for node in ast.walk(tree):
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name.rpartition(".")[2], node.asname or "")
        if NAME in names and id(node) not in allowed:
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_only_out_of_reach_names_the_floor_margin():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "quadrature.py" in modules
    assert [hit for path in modules for hit in _margin_names(path)] == []


def test_quadrature_assigns_the_margin_once_and_the_rule_reads_it():
    tree = ast.parse((SRC / "quadrature.py").read_text(encoding="utf-8"))
    assigned = [
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id == NAME
    ]
    owner = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == OWNER]
    assert assigned == [NAME] and len(owner) == 1
    assert any(isinstance(n, ast.Name) and n.id == NAME for n in ast.walk(owner[0]))


def test_planted_copy_of_the_rule_is_detected(tmp_path):
    probe = tmp_path / "quadrature.py"
    probe.write_text(
        "from .quadrature import _FLOOR_MARGIN\n"
        "from . import quadrature\n"
        "_FLOOR_MARGIN = 2.0\n"
        "\n"
        "def _out_of_reach(he, de, above, tol):\n"
        "    return de > tol or (not above and he + de > _FLOOR_MARGIN * tol)\n"
        "\n"
        "def pop_pass(he, de, above, tol):\n"
        "    return not (de > tol or (above == 0 and he + de > quadrature._FLOOR_MARGIN * tol))\n"
    )
    assert _margin_names(probe) == ["quadrature.py:1", "quadrature.py:9"]
    other = tmp_path / "verify.py"
    other.write_text(probe.read_text(encoding="utf-8"))
    assert _margin_names(other) == ["verify.py:1", "verify.py:3", "verify.py:6", "verify.py:9"]
