"""The catalog computes in real arithmetic.

E7, E8 and E9 are three views of one real D = |1 - r^(1/y) e^(2 pi i u)|^2,
and E6 is E5 times a rotation, so no value, array or partial rule needs a
complex number or an emulation of complex division.  `catalog` names
neither `complex` nor `cmath`, imports nothing from `cmath` under any name
and writes no imaginary literal.
"""

import ast
from pathlib import Path

CATALOG = Path(__file__).resolve().parent.parent / "src" / "invk" / "catalog.py"

FORBIDDEN = frozenset({"complex", "cmath"})


def _complex_uses(path):
    """Lines of each name, import or imaginary literal that spells complex
    arithmetic in `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.ImportFrom):
            names = (node.module,)
        elif isinstance(node, ast.Import):
            names = tuple(a.name for a in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            names = ("complex",)
        if FORBIDDEN.intersection(names):
            found.append(node.lineno)
    return sorted(found)


def test_catalog_names_no_complex_arithmetic():
    assert _complex_uses(CATALOG) == []


def test_planted_complex_arithmetic_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import cmath\n"
        "import cmath as cm\n"
        "from cmath import exp\n"
        "\n"
        "def _make_e6(x):\n"
        "    return cmath.exp(1j * x)\n"
        "\n"
        "def planted(a, b):\n"
        "    return complex(a, b) / (2.0j + b)\n"
    )
    assert _complex_uses(probe) == [1, 2, 3, 6, 6, 9, 9]
