"""The standard suite runs its checks in forked shares, one per CPU it may use.

The reports must be the same bytes on any number of shares, a failing check
must fail the suite as a serial run would, and no child may outlive
`standard_suite`, whether it returns or raises.
"""

import os
import subprocess
import sys
import time

import pytest

from invk import verify
from invk.errors import ConvergenceError
from invk.verify import GridSpec, standard_suite

from conftest import child_env

# the suite on fewer samples; each convolution-invariance check is two runs
GRID = GridSpec(seed=42, samples=16)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _dicts(reports):
    return [r.to_json_dict() for r in reports]


class _Stop(BaseException):
    """Raised past `_run_share`, as a KeyboardInterrupt would be."""


def test_cpus_without_affinity_is_one_share(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert verify._cpus() == 1


@pytest.mark.parametrize("shares", [1, 2, 3, 4])
def test_results_come_back_in_task_order(monkeypatch, shares):
    monkeypatch.setattr(verify, "_cpus", lambda: shares)
    tasks = [lambda i=i: (i, os.getpid()) for i in range(11)]
    results = verify._run_tasks(tasks)
    _assert_no_children()
    assert [i for i, _ in results] == list(range(11))
    pids = {pid for _, pid in results}
    assert len(pids) == shares
    assert all(pid == os.getpid() for i, pid in results if i % shares == 0)


def test_the_earliest_failing_task_is_raised(monkeypatch):
    monkeypatch.setattr(verify, "_cpus", lambda: 3)

    def fail(i):
        raise ConvergenceError(f"task {i}")

    tasks = [lambda: 0, lambda: fail(1), lambda: fail(2), lambda: 3, lambda: fail(4)]
    with pytest.raises(ConvergenceError) as err:
        verify._run_tasks(tasks)
    _assert_no_children()
    assert str(err.value) == "task 1"
    # raised in a child, it carries the child's traceback as a note
    assert "in fail" in err.value.__notes__[-1]


def test_a_parent_interrupted_kills_and_reaps_its_children(monkeypatch):
    monkeypatch.setattr(verify, "_cpus", lambda: 2)

    def stop():
        raise _Stop

    start = time.monotonic()
    with pytest.raises(_Stop):
        verify._run_tasks([stop, lambda: time.sleep(60)])
    assert time.monotonic() - start < 30.0
    _assert_no_children()


@pytest.mark.parametrize("shares", [2, 3])
def test_suite_reports_equal_the_serial_ones(monkeypatch, shares):
    monkeypatch.setattr(verify, "_cpus", lambda: 1)
    serial = _dicts(standard_suite(GRID))
    monkeypatch.setattr(verify, "_cpus", lambda: shares)
    forked = _dicts(standard_suite(GRID))
    _assert_no_children()
    assert len(forked) == 114
    assert forked == serial


def test_suite_leaves_no_child():
    reports = standard_suite(GRID)
    _assert_no_children()
    assert len(reports) == 114


def test_a_check_failing_in_a_child_fails_the_suite_as_serially(monkeypatch):
    # the first exchange check that lands in child 1 of two shares
    tasks = [t for parts, _ in verify._suite_plan(GRID) for t in parts]
    i = next(i for i, t in enumerate(tasks)
             if i % 2 == 1 and getattr(t, "func", None) is verify.check_exchange)
    f, m, n = tasks[i].args[:3]
    target = (f.name, f.params, m, n)
    real = verify.check_exchange

    def exchange(f, m, n, *args):
        if (f.name, f.params, m, n) == target:
            raise ConvergenceError(f"probe {f.name} m={m} n={n}")
        return real(f, m, n, *args)

    monkeypatch.setattr(verify, "check_exchange", exchange)
    raised = {}
    for shares in (1, 2):
        monkeypatch.setattr(verify, "_cpus", lambda shares=shares: shares)
        with pytest.raises(ConvergenceError) as err:
            standard_suite(GRID)
        _assert_no_children()
        raised[shares] = (type(err.value), str(err.value))
    assert raised[2] == raised[1] == (ConvergenceError, f"probe {f.name} m={m} n={n}")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_verify_all_on_one_cpu_writes_the_same_bytes():
    cmd = [sys.executable, "-m", "invk.cli", "verify", "--all", "--seed", "42"]
    cpu = min(os.sched_getaffinity(0))
    pinned = subprocess.run(cmd, capture_output=True, timeout=500, env=child_env(),
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    default = subprocess.run(cmd, capture_output=True, timeout=500, env=child_env())
    assert len(pinned.stdout) > 0
    assert pinned.stdout == default.stdout
    assert pinned.returncode == default.returncode == 1
