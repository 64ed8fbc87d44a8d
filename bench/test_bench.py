"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed_and_match_the_spec():
    per_layer, _ = run.layer_metrics(spans.Tracer(), 1.0, 0.0)
    names = list(run.END_TO_END) + list(per_layer)
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    spec = _spec()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("n", [1, 5, 11, 21, 22, 76, 3936])
def test_tail_percentile_keeps_ten_samples_beyond_it(n):
    i = run.tail_index(n)
    assert 0 <= i < n
    if i != n - 1:
        assert n - 1 - i == run.TAIL_BEYOND and i >= n // 2
    else:
        assert n - run.TAIL_BEYOND - 1 < n // 2
    lat = [float(k) for k in range(n)]
    p50, tail, pct = run.latency_stats(lat)
    assert tail == lat[i] and p50 <= tail and 0.0 < pct <= 100.0


def _small_integrals(seed=3):
    wl = workloads.build_integrals(seed)
    keep = {"golden:euler", "conv:E5*E1", "antider:E5", "period:E3a"}
    wl.ops = [op for op in wl.ops if op.label in keep]
    return wl


def test_untraced_round_installs_no_wrappers():
    seen = []
    wl = _small_integrals()
    wl.ops.append(workloads.Op("probe", lambda: seen.append(spans.wrapped_attributes()) or 1.0))
    before = spans.snapshot()
    with run.SpeedProbe() as probe:
        run.run_round(wl.ops, probe)
    assert seen == [[]]
    assert spans.snapshot() == before


def test_traced_round_restores_every_wrapped_attribute():
    import invk.catalog
    import invk.quadrature

    original_make = invk.catalog.make
    before = spans.snapshot()
    tracer = spans.Tracer()
    handle = spans.install(tracer)
    try:
        assert spans.wrapped_attributes()
        assert getattr(invk.quadrature.integrate, spans.MARK, False)
        assert invk.catalog.make is not original_make
        wl = _small_integrals()
        outs = [op.call() for op in wl.ops]
    finally:
        handle.restore()
    assert spans.snapshot() == before
    assert spans.wrapped_attributes() == []
    assert invk.catalog.make is original_make
    assert all(isinstance(v, float) for v in outs)
    assert tracer.stats["quadrature.integrate"][0] > 0
    assert tracer.counts["quadrature.integrate.n"] > 0
    # self time never exceeds total time
    assert all(st[2] <= st[1] + 1e-9 for st in tracer.stats.values())


def test_spans_leave_out_time_paused_inside_them():
    import time

    tracer = spans.Tracer()

    def tick():  # what a calibration tick does to the tracer
        time.sleep(0.05)
        tracer.paused += 0.05

    outer = tracer.span("quadrature.integrate", lambda: tracer.span("catalog.value:E1", tick)())
    outer()
    assert tracer.stats["catalog.value:E1"][1] < 0.02
    assert tracer.stats["quadrature.integrate"][1] < 0.02
    assert tracer.stats["quadrature.integrate"][2] < 0.02


def test_traced_verify_charges_time_to_the_report_family():
    import invk.cli

    (BENCH.parent / ".bench_out").mkdir(exist_ok=True)
    tracer = spans.Tracer()
    handle = spans.install(tracer)
    try:
        code = invk.cli.run(["verify", "--fn", "E5", "--params", "a=2", "--samples", "4",
                             "--out", str(BENCH.parent / ".bench_out" / "selftest.json")])
    finally:
        handle.restore()
        (BENCH.parent / ".bench_out" / "selftest.json").unlink(missing_ok=True)
    assert code == 0
    assert tracer.family_s["invariance"] > 0.0
    assert tracer.stats["verify.grid_points"][0] == 1
    assert tracer.stats["catalog.value:E5"][0] > 0


def test_judge_counts_known_findings_apart_from_unexpected_failures():
    finding = workloads.Finding("finding", ceiling=0.5)
    ops = [workloads.Op("a", lambda: 1.0, tol=1e-3, fixed=True),
           workloads.Op("b", lambda: 2.0, tol=1e-3, known=(finding,)),
           workloads.Op("c", lambda: 3.0, tol=1e-3)]
    verdict = workloads._judge_values(ops)([1.0005, 2.5, float("nan")], [1.0, 2.0, 3.0])
    assert verdict.attempted == 3 and verdict.failed == 2
    assert verdict.known == {"finding": 1}
    assert len(verdict.unexpected) == 1
    assert verdict.err_ratio_max == pytest.approx(0.5)


def test_a_miss_beyond_the_findings_ceiling_is_unexpected():
    """A known-tagged operation that returns garbage makes the run incorrect."""
    for finding in (workloads.KNOWN_E13_NEG, workloads.KNOWN_BAND, workloads.KNOWN_E12):
        op = workloads.Op("e", lambda: 0.0, tol=1e-12, known=(finding,))
        judge = workloads._judge_values([op])
        near = judge([2.0 + 0.5 * finding.ceiling * 2.0], [2.0])
        assert near.known == {finding.reason: 1} and not near.unexpected
        far = judge([2.0 + 1e3 * finding.ceiling], [2.0])
        assert far.failed == 1 and not far.known and len(far.unexpected) == 1


def test_only_the_recorded_exception_is_covered():
    op = workloads.Op("conv", lambda: 0.0, tol=1e-10,
                      known=(workloads.KNOWN_BAND, workloads.KNOWN_CONV_STALL))
    judge = workloads._judge_values([op])
    stall = judge([workloads.ConvergenceError("stalled")], [1.0])
    assert stall.known == {workloads.KNOWN_CONV_STALL.reason: 1} and not stall.unexpected
    other = judge([ValueError("bad")], [1.0])
    assert not other.known and len(other.unexpected) == 1


def test_findings_cover_only_their_regions():
    sweep = workloads.build_eval_sweep(3)
    generic = [op for op in sweep.ops if op.label == "E13_neg"
               and abs(op.reference[1][-2] / op.reference[1][-1]
                       - round(op.reference[1][-2] / op.reference[1][-1])) > 0.1]
    assert generic and all(not op.known for op in generic)
    assert all(not op.known for op in sweep.ops if op.label not in ("E13_neg", "E12"))
    integrals = workloads.build_integrals(3)
    shallow = [op for op in integrals.ops if op.label in ("conv:E5*E1", "conv:E2*E2")]
    assert shallow and all(not op.known for op in shallow)
    assert {op.label for op in integrals.ops if op.fixed and not op.known} >= {
        "golden:euler", "period:E12", "period:E3a", "period:E7", "conv:E5*E1",
        "conv:E2*E2", "antider:E2", "antider:E5", "geomconv:E2"}
