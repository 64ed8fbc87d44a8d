"""The x87 long double stays out of the lattice and trigonometric layer
and out of log |Gamma|.

`np.longdouble` is the 80-bit x87 format on Linux x86 but plain double on
MSVC Windows and macOS arm64, so a result that needs it is not portable.
`core` names it nowhere.  In `catalog` only the factories on the
allow-list do: E2 and E13, whose Bernoulli, Euler-Maclaurin and y^(-s)
arithmetic still wants the extra bits until it is compensated.  The list
only shrinks.  In `special` only the log-gamma functions are checked: the
Bernoulli Horner loop and the zeta sums still use it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "invk"

#: names that spell the extended format, or the alias that carried it
FORBIDDEN = frozenset({"longdouble", "longfloat", "float96", "float128", "_LD"})
#: module -> the top-level functions that may still name it
ALLOWED = {
    "core.py": frozenset(),
    "catalog.py": frozenset({"_make_e2", "_make_e13"}),
}


#: module -> the top-level functions that must not name it
CHECKED = {
    "special.py": frozenset({"log_gamma_abs", "log_gamma_abs_array"}),
}


def _functions(tree, names):
    return [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in names]


def _long_double_uses(path, allowed=frozenset()):
    """`file:line` of each name, attribute or import of a FORBIDDEN name in
    `path`, outside the top-level functions named in `allowed`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    exempt = {id(node) for fn in _functions(tree, allowed) for node in ast.walk(fn)}
    return _hits(path, (node for node in ast.walk(tree) if id(node) not in exempt))


def _long_double_uses_in(path, names):
    """`file:line` of each FORBIDDEN name inside the top-level functions of
    `path` named in `names`, each of which must exist."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    fns = _functions(tree, names)
    assert {fn.name for fn in fns} == set(names), f"{path.name}: missing {set(names)}"
    return _hits(path, (node for fn in fns for node in ast.walk(fn)))


def _hits(path, nodes):
    found = []
    for node in nodes:
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name.rpartition(".")[2], node.asname)
        if FORBIDDEN.intersection(names):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def test_no_long_double_outside_the_allow_list():
    found = [hit for name, allowed in ALLOWED.items() for hit in _long_double_uses(SRC / name, allowed)]
    assert found == []


def test_checked_functions_name_no_long_double():
    found = [hit for name, names in CHECKED.items() for hit in _long_double_uses_in(SRC / name, names)]
    assert found == []


def test_every_allowed_factory_still_needs_it():
    # an entry whose factory no longer names the long double leaves the list
    for name, allowed in ALLOWED.items():
        for fn in allowed:
            others = allowed - {fn}
            assert _long_double_uses(SRC / name, others), f"{name}: drop {fn} from ALLOWED"


def test_planted_long_double_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy as np\n"
        "from numpy import longdouble as wide\n"
        "\n"
        "def kept(x):\n"
        "    return np.longdouble(x)\n"
        "\n"
        "def planted(x):\n"
        "    return np.longdouble(x) / wide(3)\n"
        "\n"
        "_LD = float\n"
    )
    assert _long_double_uses(probe, frozenset({"kept"})) == ["probe.py:2", "probe.py:8", "probe.py:10"]
    assert _long_double_uses(probe) == ["probe.py:2", "probe.py:5", "probe.py:8", "probe.py:10"]
    # inside named functions only: the import and the alias are not theirs
    assert _long_double_uses_in(probe, {"planted"}) == ["probe.py:8"]
    assert _long_double_uses_in(probe, {"kept", "planted"}) == ["probe.py:5", "probe.py:8"]
    with pytest.raises(AssertionError, match="missing"):
        _long_double_uses_in(probe, {"gone"})
