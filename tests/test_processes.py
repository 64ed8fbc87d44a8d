"""Only the suite runner starts processes.

`verify._run_tasks` forks one child per extra CPU and each child leaves
through `os._exit`, so that it never returns into its parent's caller, runs
its exit handlers or flushes its copy of the parent's stdio buffers.  No
other code under src/ forks, and none imports a process or thread pool.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "invk"

BANNED_MODULES = {"multiprocessing", "concurrent", "subprocess", "threading"}
RUNNER = ("verify.py", "_run_tasks")


def _is_os_attr(node, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _functions(tree):
    return [fn for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _process_uses(path):
    """(module, innermost enclosing function or None, what) for each fork or
    import of a process or thread module in the file at `path`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    owner = {}
    for fn in sorted(_functions(tree), key=lambda fn: fn.lineno):
        for node in ast.walk(fn):
            owner[id(node)] = fn.name  # inner functions come later and win
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.split(".")[0] in BANNED_MODULES]
            what = names[0] if names else None
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in BANNED_MODULES:
                what = node.module
            elif node.module == "os" and any(a.name.startswith("fork") for a in node.names):
                what = "os.fork"
        elif _is_os_attr(node, "fork") or _is_os_attr(node, "forkpty"):
            what = f"os.{node.attr}"
        if what:
            found.append((path.name, owner.get(id(node)), what))
    return found


def _ends_in_exit(body):
    """True when every way out of the statements `body` goes through
    `os._exit`: they end in a call of it, or in a try whose finally does."""
    last = body[-1]
    if isinstance(last, ast.Try):
        return _ends_in_exit(last.finalbody) if last.finalbody else False
    return (isinstance(last, ast.Expr) and isinstance(last.value, ast.Call)
            and _is_os_attr(last.value.func, "_exit")
            and not any(isinstance(n, (ast.Return, ast.Raise)) for s in body for n in ast.walk(s)))


def _child_branches(fn):
    """The bodies of the `if pid == 0` tests on a name assigned from os.fork()."""
    pids = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and _is_os_attr(node.value.func, "fork")
            for t in node.targets if isinstance(t, ast.Name)}
    return [node.body for node in ast.walk(fn) if isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare) and isinstance(node.test.left, ast.Name)
            and node.test.left.id in pids and isinstance(node.test.ops[0], ast.Eq)
            and isinstance(node.test.comparators[0], ast.Constant)
            and node.test.comparators[0].value == 0]


def test_only_the_suite_runner_forks():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 11
    found = [hit for path in modules for hit in _process_uses(path)]
    assert found == [(*RUNNER, "os.fork")]


def test_the_runner_child_branch_ends_in_os_exit():
    tree = ast.parse((SRC / RUNNER[0]).read_text(encoding="utf-8"))
    runner = next(fn for fn in _functions(tree) if fn.name == RUNNER[1])
    branches = _child_branches(runner)
    assert len(branches) == 1
    assert _ends_in_exit(branches[0])


def test_process_uses_and_child_branches_are_detected(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\nimport threading\nfrom concurrent.futures import ThreadPoolExecutor\n\n"
        "def spawn():\n    pid = os.fork()\n    if pid == 0:\n        work()\n    return pid\n\n"
        "def spawn_and_leave():\n    pid = os.fork()\n    if pid == 0:\n"
        "        try:\n            work()\n        finally:\n            os._exit(0)\n"
    )
    assert sorted(_process_uses(probe), key=str) == sorted([
        ("probe.py", None, "threading"), ("probe.py", None, "concurrent.futures"),
        ("probe.py", "spawn", "os.fork"), ("probe.py", "spawn_and_leave", "os.fork"),
    ], key=str)
    tree = ast.parse(probe.read_text())
    spawn, leave = _functions(tree)
    assert [_ends_in_exit(b) for b in _child_branches(spawn)] == [False]
    assert [_ends_in_exit(b) for b in _child_branches(leave)] == [True]
