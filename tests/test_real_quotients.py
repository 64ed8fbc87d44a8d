"""The catalog's trigonometric quotients stay in real arithmetic.

E7, E8 and E9 are three views of one real D = |1 - r^(1/y) e^(2 pi i u)|^2,
so their value, array and partial rules need no complex number and no
emulation of complex division.  In `catalog` only `_make_e6`, the complex
exponential quotient, may name `complex` or `cmath` or write an imaginary
literal.  A plain `import cmath` at module top is allowed, since every use
of it then spells `cmath`; importing from it or under another name is not.
"""

import ast
from pathlib import Path

CATALOG = Path(__file__).resolve().parent.parent / "src" / "invk" / "catalog.py"

FORBIDDEN = frozenset({"complex", "cmath"})
ALLOWED = frozenset({"_make_e6"})


def _complex_uses(path, allowed=ALLOWED):
    """Lines of each name, aliased import or imaginary literal that spells
    complex arithmetic in `path`, outside the top-level functions in `allowed`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = {
        id(node)
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in allowed
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.ImportFrom):
            names = (node.module,)
        elif isinstance(node, ast.Import):
            names = tuple(a.name for a in node.names if a.asname not in (None, a.name))
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            names = ("complex",)
        if FORBIDDEN.intersection(names):
            found.append(node.lineno)
    return sorted(found)


def test_only_the_complex_entry_names_complex_arithmetic():
    assert _complex_uses(CATALOG) == []


def test_the_complex_entry_still_needs_it():
    assert _complex_uses(CATALOG, frozenset()), "drop _make_e6 from ALLOWED"


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
    assert _complex_uses(probe) == [2, 3, 9, 9]
    assert _complex_uses(probe, frozenset()) == [2, 3, 6, 6, 9, 9]
