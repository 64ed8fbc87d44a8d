"""`core` alone decides whether a point is on the lattice.

`core.lattice_parts` and `core.lattice_split` return the flag `on` from one
absolute band on the exact offset, and every branch entry reads that flag.
A module that names a `LATTICE_*` constant could widen or copy the band, as
the sign entry once did with a band of its own, so no module under
`src/invk` other than `core.py` names one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "invk"
PREFIX = "LATTICE_"


def _lattice_names(path):
    """`file:line` of each name, attribute or import that starts with PREFIX."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name.rpartition(".")[2], node.asname or "")
        if any(name.startswith(PREFIX) for name in names):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_only_core_names_a_lattice_constant():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "core.py" in modules
    found = [hit for path in modules if path.name != "core.py" for hit in _lattice_names(path)]
    assert found == []


def test_core_defines_one_band():
    tree = ast.parse((SRC / "core.py").read_text(encoding="utf-8"))
    defined = [
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id.startswith(PREFIX)
    ]
    assert defined == ["LATTICE_BAND"]


def test_planted_lattice_constant_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .core import LATTICE_BAND\n"
        "from . import core\n"
        "\n"
        "def wide(d, u):\n"
        "    return abs(d) <= 2.0 * core.LATTICE_BAND * max(1.0, abs(u))\n"
        "\n"
        "LATTICE_RTOL = 1e-9\n"
        "lattice_band = 0.0\n"
    )
    assert _lattice_names(probe) == ["probe.py:1", "probe.py:5", "probe.py:7"]
