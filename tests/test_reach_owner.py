"""Each rule of `quadrature` whose constants could be restated has one owner.

`quadrature._out_of_reach` alone states when a job's tolerance is out of
reach: the heap code calls it on floats and the table on arrays, one
element per job.  A function that names `_FLOOR_MARGIN` could restate the
rule, as the table's pop pass once did with an inline copy of its own.

`quadrature._gk15` alone sums the Kronrod weights `_WGK` and `_WG`: the
same straight-line sums run on one heap panel of floats or on a table
round's columns.  A function that names a weight could be a second kernel,
as the table's column kernel once was, kept equal to the first bit for bit.

So in `src/invk` only the owner names each of these, besides its one
assignment in `quadrature`.

`quadrature._fsum` alone calls `math.fsum`, which raises where a partial
sum overflows or both infinities meet: every panel sum of the module goes
through it, so no sum of finite panel values raises.  Other modules may sum
with `math.fsum`; in `quadrature.py` only `_fsum` names it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "invk"
OWNED = (("_FLOOR_MARGIN", "_out_of_reach"), ("_WGK", "_gk15"), ("_WG", "_gk15"))  # (name, owner)


def _foreign_names(path, name, owner):
    """`file:line` of each name, attribute or import `name`, but for those
    in `quadrature.py`'s `owner` and its module-level `name = ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set()
    for node in tree.body if path.name == "quadrature.py" else ():
        if isinstance(node, ast.FunctionDef) and node.name == owner:
            allowed.update(map(id, ast.walk(node)))
        elif isinstance(node, ast.Assign):
            allowed.update(id(t) for t in node.targets if isinstance(t, ast.Name) and t.id == name)
    found = []
    for node in ast.walk(tree):
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.alias):
            names = (node.name.rpartition(".")[2], node.asname or "")
        if name in names and id(node) not in allowed:
            found.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(found)]


def _foreign_in_src(name, owner):
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "quadrature.py" in modules
    return [hit for path in modules for hit in _foreign_names(path, name, owner)]


def _assigned_once_and_read(name, owner):
    tree = ast.parse((SRC / "quadrature.py").read_text(encoding="utf-8"))
    assigned = [
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name) and target.id == name
    ]
    found = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == owner]
    assert assigned == [name] and len(found) == 1
    assert any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(found[0]))


def test_only_out_of_reach_names_the_floor_margin():
    assert _foreign_in_src("_FLOOR_MARGIN", "_out_of_reach") == []


def test_only_gk15_names_the_kronrod_weights():
    assert [hit for name, owner in OWNED if owner == "_gk15" for hit in _foreign_in_src(name, owner)] == []


def test_only_fsum_names_math_fsum_in_quadrature():
    assert _foreign_names(SRC / "quadrature.py", "fsum", "_fsum") == []


def test_quadrature_assigns_the_margin_once_and_the_rule_reads_it():
    _assigned_once_and_read("_FLOOR_MARGIN", "_out_of_reach")


def test_quadrature_assigns_the_weights_once_and_the_kernel_reads_them():
    for name, owner in OWNED:
        if owner == "_gk15":
            _assigned_once_and_read(name, owner)


def test_planted_copy_of_the_rule_is_detected(tmp_path):
    probe = tmp_path / "quadrature.py"
    probe.write_text(
        "from .quadrature import _FLOOR_MARGIN\n"
        "from . import quadrature\n"
        "_FLOOR_MARGIN = 2.0\n"
        "_WGK = (0.5, 0.5)\n"
        "_WG = (1.0,)\n"
        "\n"
        "def _out_of_reach(he, de, above, tol):\n"
        "    return de > tol or (not above and he + de > _FLOOR_MARGIN * tol)\n"
        "\n"
        "def pop_pass(he, de, above, tol):\n"
        "    return not (de > tol or (above == 0 and he + de > quadrature._FLOOR_MARGIN * tol))\n"
        "\n"
        "def _gk15(fv, h):\n"
        "    return (_WGK[0] * fv[0] + _WGK[1] * fv[1]) * h, _WG[0] * fv[0] * h\n"
        "\n"
        "def _gk15_columns(fv, h):\n"
        "    w0, w1 = _WGK\n"
        "    return (w0 * fv[0] + w1 * fv[1]) * h, quadrature._WG[0] * fv[0] * h\n"
    )
    found = {name: _foreign_names(probe, name, owner) for name, owner in OWNED}
    assert found == {"_FLOOR_MARGIN": ["quadrature.py:1", "quadrature.py:11"],
                     "_WGK": ["quadrature.py:17"], "_WG": ["quadrature.py:18"]}
    other = tmp_path / "verify.py"
    other.write_text(probe.read_text(encoding="utf-8"))
    assert _foreign_names(other, "_FLOOR_MARGIN", "_out_of_reach") == [
        "verify.py:1", "verify.py:3", "verify.py:8", "verify.py:11"]
    assert _foreign_names(other, "_WGK", "_gk15") == [
        "verify.py:4", "verify.py:14", "verify.py:14", "verify.py:17"]


def test_planted_fsum_call_is_detected(tmp_path):
    probe = tmp_path / "quadrature.py"
    probe.write_text(
        "import math\n"
        "from math import fsum\n"
        "\n"
        "def _fsum(values):\n"
        "    try:\n"
        "        return math.fsum(values)\n"
        "    except OverflowError:\n"
        "        return 16.0 * _fsum([v / 16.0 for v in values])\n"
        "\n"
        "def result(kept):\n"
        "    return _fsum(kept), math.fsum(kept), fsum(kept)\n"
    )
    assert _foreign_names(probe, "fsum", "_fsum") == ["quadrature.py:2", "quadrature.py:11", "quadrature.py:11"]
