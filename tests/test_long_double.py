"""`special` alone computes in the x87 long double.

`np.longdouble` is the 80-bit x87 format on Linux x86 but plain double on
MSVC Windows and macOS arm64, so a result that needs it is not portable.
`special` owns every computation that still wants the extra bits: the
Bernoulli Horner loop, the Euler-Maclaurin zeta sums, and the scaled values
y^(m-1) B_m(x/y) and y^(-s) zeta(s, x/y) that E2 and E13 return, until they
are compensated.  No other module under `src/invk` names the format, and
none imports a `_`-prefixed name from `special`, so a caller reaches the
extended arithmetic only through `special`'s public functions.  Inside
`special` the log-gamma functions are float64 and must stay so.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "invk"
OWNER = "special.py"

#: names that spell the extended format, or the alias that carries it
FORBIDDEN = frozenset({"longdouble", "longfloat", "float96", "float128", "_LD"})
#: the top-level functions of `special` that must not name it
CHECKED = frozenset({"log_gamma_abs", "log_gamma_abs_array"})


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _long_double_uses(path):
    """`file:line` of each name, attribute or import of a FORBIDDEN name in `path`."""
    return _hits(path, ast.walk(_tree(path)))


def _long_double_uses_in(path, names):
    """`file:line` of each FORBIDDEN name inside the top-level functions of
    `path` named in `names`, each of which must exist."""
    fns = [fn for fn in _tree(path).body if isinstance(fn, ast.FunctionDef) and fn.name in names]
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


def _private_special_names(path):
    """`file:line` of each `_`-prefixed name imported from `special`, or read
    as an attribute of a module bound to the name `special`."""
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] == "special":
            found += [node.lineno for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "special" and node.attr.startswith("_")):
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def _others():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / OWNER in modules
    return [path for path in modules if path.name != OWNER]


def test_only_special_names_a_long_double():
    assert [hit for path in _others() for hit in _long_double_uses(path)] == []


def test_special_still_names_it():
    # when the compensated float64 series replace the extended format, this
    # fails, and the guard's owner and FORBIDDEN's alias go with it
    assert _long_double_uses(SRC / OWNER)


def test_checked_functions_name_no_long_double():
    assert _long_double_uses_in(SRC / OWNER, CHECKED) == []


def test_no_module_imports_a_private_name_from_special():
    assert [hit for path in _others() for hit in _private_special_names(path)] == []


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
    assert _long_double_uses(probe) == ["probe.py:2", "probe.py:5", "probe.py:8", "probe.py:10"]
    # inside named functions only: the import and the alias are not theirs
    assert _long_double_uses_in(probe, {"planted"}) == ["probe.py:8"]
    assert _long_double_uses_in(probe, {"kept", "planted"}) == ["probe.py:5", "probe.py:8"]
    with pytest.raises(AssertionError, match="missing"):
        _long_double_uses_in(probe, {"gone"})


def test_planted_private_import_is_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .special import ZETA_NEG_TOLERANCE, _hurwitz_sum_branch\n"
        "from invk.special import _LD as wide\n"
        "from . import special\n"
        "from .core import _no_points\n"
        "\n"
        "def planted(x):\n"
        "    return special._horner(2, x) + special.bernoulli_poly(2, x)\n"
    )
    assert _private_special_names(probe) == ["probe.py:1", "probe.py:2", "probe.py:7"]
