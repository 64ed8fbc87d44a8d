"""invk benchmark: one seeded, closed-loop workload per run, with correctness checks.

    python3 bench/run.py --workload suite|eval_sweep|integrals --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the run measures set-up (the median of SETUP_PROBES fresh
interpreters that import invk, make the inputs and build the descriptors),
then repeats the workload's fixed round of operations until --seconds have
passed (at least once) and reports medians over rounds.  With --trace 1 it
runs one untraced and one traced round and reports per-layer metrics from
spans recorded around the calls into each invk module (bench/spans.py); the
spans are written to .bench_out/.  Reference values, and the few untimed
operations that record a slow failure, are computed after the timed phase.
Lines before the last describe the environment, the known findings and any
unexpected failure; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("suite", "eval_sweep", "integrals")
SETUP_PROBES = 7
TAIL_BEYOND = 10          # samples kept beyond the tail percentile
WARM_ROUND_S = 10.0       # traced runs repeat a shorter untraced round once, warm

# Machine-speed reference.  On a shared host the same round runs up to 2x
# slower for phases of several seconds.  Every round is bracketed by, and
# sampled every CAL_PERIOD_S during, a fixed calibration loop; its times are
# reported scaled by CAL_REF_S / (median loop time in that round), which takes
# most of that drift out of run-to-run comparisons.
CAL_ITERS = 2000
CAL_VECTOR = 100_000
CAL_PERIOD_S = 0.25
CAL_REF_S = 0.007

FAMILIES = (
    "bernoulli-convolution", "bernoulli-identity", "convolution-invariance",
    "covering-certificate", "exchange", "integral-limit", "invariance",
    "known-integrals", "parity", "product-integral", "step-limit",
    "y-derivative", "zeta-convolution",
)
CATALOG_LABELS = ("E1", "E2", "E3a", "E3b", "E4", "E5", "E6", "E7", "E8", "E9", "E10",
                  "E11", "E12", "E13_pos", "E13_neg", "E14")

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_us": "us", "op_tail_us": "us",
    "pass_frac": "frac", "err_ratio_max": "ratio", "peak_rss_mb": "MB",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "invk" / "__init__.py").is_file():
        print(f"bench: no invk package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    import workloads

    if args.setup_probe:
        wl = workloads.build(args.workload, args.seed, str(OUT))
        done = time.monotonic()
        wl.cleanup()
        print(repr(done), repr(statistics.median(calibration_loop() for _ in range(3))))
        return 0
    if args.trace:
        return traced_run(workloads, args)
    return timed_run(workloads, args)


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


def calibration_loop() -> float:
    """Seconds for a fixed mix of the work invk does: interpreter and
    numpy-scalar steps, and one vectorised cosine and sum."""
    import numpy as np

    ld = np.longdouble
    t = time.perf_counter()
    acc = 0.0
    for i in range(CAL_ITERS):
        u = ld(i) / ld(7.0)
        acc += float(u - np.rint(u)) + math.sin(i)
    vec = np.arange(CAL_VECTOR, dtype=float) * 1e-3
    acc += float((vec * np.cos(vec)).sum())  # no BLAS call: its threads would spin on
    return time.perf_counter() - t


class SpeedProbe:
    """Runs calibration_loop every CAL_PERIOD_S (SIGALRM) during timed work and
    keeps the wall and CPU time it spent, so callers can subtract it; a
    tracer's open spans leave it out too."""

    def __init__(self, tracer=None):
        self.samples = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self.tracer = tracer

    def _tick(self, *_):
        w, c = time.perf_counter(), time.process_time()
        self.samples.append(calibration_loop())
        wall = time.perf_counter() - w
        self.spent_wall += wall
        self.spent_cpu += time.process_time() - c
        if self.tracer is not None:
            self.tracer.paused += wall

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def run_round(ops, probe, expected=None):
    """One closed-loop pass with the probe's own time taken out of every time.

    Returns (wall s, cpu s, (p50 s, tail s, tail percentile), outputs, speed
    scale); with `expected`, outputs is instead the list of labels whose
    output differs from it, so that rounds do not pile up in memory.
    """
    lat, outs = [], []
    first = len(probe.samples)
    probe.samples.append(calibration_loop())
    sw, sc = probe.spent_wall, probe.spent_cpu
    w0, c0 = time.perf_counter(), time.process_time()
    for op in ops:
        before = probe.spent_wall
        t = time.perf_counter()
        out = call(op)
        lat.append(time.perf_counter() - t - (probe.spent_wall - before))
        outs.append(out)
    wall = time.perf_counter() - w0 - (probe.spent_wall - sw)
    cpu = time.process_time() - c0 - (probe.spent_cpu - sc)
    probe.samples.append(calibration_loop())
    scale = CAL_REF_S / statistics.median(probe.samples[first:])
    if expected is not None:
        outs = [op.label for op, a, b in zip(ops, expected, outs) if not _same(a, b)]
    return wall, cpu, latency_stats(lat), outs, scale


def call(op):
    try:
        return op.call()
    except Exception as exc:  # a raising operation is a failed operation
        return exc


def tail_index(n: int) -> int:
    """Index (ascending) of the highest percentile with TAIL_BEYOND samples beyond
    it; the maximum when that would fall below the median (n < 2 * TAIL_BEYOND + 2)."""
    i = n - TAIL_BEYOND - 1
    return i if i >= n // 2 else n - 1


def latency_stats(lat):
    s = sorted(lat)
    n = len(s)
    i = tail_index(n)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2]), s[i], 100.0 * (i + 1) / n


def setup_seconds(args) -> list:
    """Set-up time of fresh interpreters, from spawn to inputs built, scaled to
    the reference speed by each interpreter's own calibration loop."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        end, cal = map(float, done.stdout.split())
        samples.append((end - t0) * CAL_REF_S / cal)
    return samples


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy

    return {
        "seed": args.seed, "workload": args.workload, "nproc": os.cpu_count(),
        "INVK_THREADS": os.environ.get("INVK_THREADS", "unset"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "openblas_threads": openblas_threads(), "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return repr(a) == repr(b)
    return a == b


def check(workloads, wl, outputs, differing):
    """Run the untimed operations, then judge them and one round's outputs
    against references; `differing` lists, per later round, the operations
    whose output did not repeat."""
    outputs = outputs + [call(op) for op in wl.untimed]
    verdict = wl.judge(outputs, workloads.references(wl.ops + wl.untimed))
    for r, bad in enumerate(differing, start=1):
        if bad:
            verdict.unexpected.append(f"round {r} differs from round 0 at {bad[:3]}")
    if wl.name == "suite" and verdict.digest:
        record_digest(verdict, f"{code_id()}:{workloads.SUITE_VERIFY_SEED}")
    return verdict


def code_id() -> str:
    """Hash of the package sources, so that reports of different code are not compared."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "invk"
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def record_digest(verdict, key):
    """C13 across runs: every run of one code version and verify seed writes
    the same report bytes."""
    path = OUT / "suite-sha256.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen and seen[key] != verdict.digest:
        verdict.unexpected.append(f"report sha256 {verdict.digest} differs from an earlier "
                                  f"run's {seen[key]} for the same seed")
    seen.setdefault(key, verdict.digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, sort_keys=True))
    os.replace(tmp, path)


def emit(info: dict, correct: bool, attempted: int, failed: int, metrics: dict, units: dict):
    for key, value in info.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True, default=str)}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def verdict_info(verdict) -> dict:
    return {"failed_operations": verdict.failed, "fail_frac": verdict.failed / verdict.attempted,
            "known_findings": verdict.known, "unexpected": verdict.unexpected[:20],
            "worst_passing": verdict.worst, "report_sha256": verdict.digest or None}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(workloads, args) -> int:
    setups = setup_seconds(args)
    wl = workloads.build(args.workload, args.seed, str(OUT))
    rounds = []
    start = time.perf_counter()
    try:
        with SpeedProbe() as probe:
            rounds.append(run_round(wl.ops, probe))
            while time.perf_counter() - start < args.seconds:
                rounds.append(run_round(wl.ops, probe, expected=rounds[0][3]))
    finally:
        wl.cleanup()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = check(workloads, wl, rounds[0][3], [r[3] for r in rounds[1:]])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r[0] * r[4] for r in rounds),
        "cpu_s": statistics.median(r[1] * r[4] for r in rounds),
        "op_p50_us": statistics.median(r[2][0] * r[4] for r in rounds) * 1e6,
        "op_tail_us": statistics.median(r[2][1] * r[4] for r in rounds) * 1e6,
        "pass_frac": 1.0 - verdict.failed / verdict.attempted,
        "err_ratio_max": verdict.err_ratio_max,
        "peak_rss_mb": rss_mb,
    }
    info = {
        "environment": environment(args),
        "rounds": len(rounds), "ops_per_round": len(wl.ops), "untimed_ops": len(wl.untimed),
        "tail": {"percentile": round(rounds[0][2][2], 2), "samples_per_round": len(wl.ops),
                 "beyond": len(wl.ops) - 1 - tail_index(len(wl.ops))},
        "speed_scale": [round(r[4], 4) for r in rounds],
        "setup_samples_s": [round(s, 4) for s in setups],
        "round_wall_s": [round(r[0], 4) for r in rounds],
        **verdict_info(verdict),
    }
    unexpected = len(verdict.unexpected)
    untimed = len(wl.untimed)
    emit(info, unexpected == 0, (verdict.attempted - untimed) * len(rounds) + untimed,
         unexpected * len(rounds), metrics, END_TO_END)
    return 0


def traced_run(workloads, args) -> int:
    import spans

    wl = workloads.build(args.workload, args.seed, str(OUT))
    try:
        with SpeedProbe() as plain_probe:
            plain = run_round(wl.ops, plain_probe)
            if plain[0] < WARM_ROUND_S:  # time a warm round, as timed_run's median does
                plain = run_round(wl.ops, plain_probe)
    finally:
        wl.cleanup()
    tracer = spans.Tracer()
    before = spans.snapshot()
    handle = spans.install(tracer)
    try:
        twl = workloads.build(args.workload, args.seed, str(OUT))
        try:
            with SpeedProbe(tracer) as traced_probe:
                traced = run_round(twl.ops, traced_probe)
        finally:
            twl.cleanup()
    finally:
        handle.restore()
    restored = spans.snapshot() == before
    differing = [op.label for op, a, b in zip(wl.ops, plain[3], traced[3]) if not _same(a, b)]
    verdict = check(workloads, wl, traced[3], [differing])
    if not restored:
        verdict.unexpected.append("traced run left wrapped attributes behind")
    spans.write_spans(tracer, OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    metrics, units = layer_metrics(tracer, traced[0],
                                   traced[0] * traced[4] / (plain[0] * plain[4]) - 1.0)
    info = {
        "environment": environment(args),
        "untraced_wall_s": round(plain[0], 4), "traced_wall_s": round(traced[0], 4),
        "speed_scale": {"untraced": round(plain[4], 4), "traced": round(traced[4], 4)},
        "spans_kept": sum(1 for s in tracer.spans if s),
        "layer_self_s": {k: round(v, 4) for k, v in sorted(tracer.layer_self_s.items())},
        "family_layer_s": {f: {k: round(v, 4) for k, v in sorted(d.items())}
                           for f, d in sorted(tracer.family_layer_s.items())},
        **verdict_info(verdict),
    }
    unexpected = len(verdict.unexpected)
    emit(info, unexpected == 0, verdict.attempted, unexpected, metrics, units)
    return 0


def layer_metrics(tr, traced_wall: float, overhead: float):
    """Per-layer metrics from one traced round; every name on every workload.
    `overhead` is the traced round's reference-speed time over the untraced one's, minus 1."""
    m, u = {}, {}

    def put(name, value, unit):
        m[name] = float(value)
        u[name] = unit

    def stat(name):
        return tr.stats.get(name, (0, 0.0, 0.0, 0))

    def mean_us(name):
        calls, total = stat(name)[:2]
        return total / calls * 1e6 if calls else 0.0

    for fam in FAMILIES:
        put(f"verify.family_s.{fam}", tr.family_s.get(fam, 0.0), "s")
    put("verify.grid_points.calls", stat("verify.grid_points")[0], "count")
    put("verify.grid_points.s", stat("verify.grid_points")[1], "s")
    put("verify.self_s", tr.layer_self_s.get("verify", 0.0), "s")
    put("cli.self_s", tr.layer_self_s.get("cli", 0.0), "s")
    for kind in ("conv_value", "antider_value", "geomconv_value"):
        calls, _, self_s, raised = stat(f"algebra.{kind}")
        put(f"algebra.{kind}.calls", calls, "count")
        put(f"algebra.{kind}.us", mean_us(f"algebra.{kind}"), "us")
        put(f"algebra.{kind}.self_s", self_s, "s")
        put(f"algebra.{kind}.raised", raised, "count")
    calls, total, self_s, _ = stat("quadrature.integrate")
    evals = tr.counts.get("quadrature.integrate.n", 0.0)
    put("quadrature.integrate.calls", calls, "count")
    put("quadrature.integrate.us", mean_us("quadrature.integrate"), "us")
    put("quadrature.integrate.self_s", self_s, "s")
    put("quadrature.integrate.evaluations", evals, "count")
    put("quadrature.integrate.evals_per_call", evals / calls if calls else 0.0, "count")
    put("quadrature.integrate.unconverged", tr.counts.get("quadrature.integrate.unconverged", 0),
        "count")
    put("quadrature.limit.calls", stat("quadrature.limit")[0], "count")
    put("quadrature.limit.steps", tr.counts.get("quadrature.limit.n", 0), "count")
    put("quadrature.limit.unconverged", tr.counts.get("quadrature.limit.unconverged", 0), "count")
    cat = [stat(f"catalog.value:{lab}") for lab in CATALOG_LABELS]
    put("catalog.value.calls", sum(s[0] for s in cat), "count")
    put("catalog.value.self_s", sum(s[2] for s in cat), "s")
    for lab in CATALOG_LABELS:
        put(f"catalog.value_us.{lab}", mean_us(f"catalog.value:{lab}"), "us")
    put("core.series_value.us", mean_us("core.series_value"), "us")
    put("core.series_value.raised", stat("core.series_value")[3], "count")
    put("core.combinator_value.us", mean_us("core.combinator_value"), "us")
    put("special.hurwitz_zeta_neg.calls", stat("special.hurwitz_zeta_neg")[0], "count")
    put("special.hurwitz_zeta_neg.us", mean_us("special.hurwitz_zeta_neg"), "us")
    for name in ("hurwitz_zeta_pos", "log_gamma_abs", "bernoulli_poly"):
        put(f"special.{name}.us", mean_us(f"special.{name}"), "us")
    for name in ("decide", "identity"):
        put(f"covering.{name}.calls", stat(f"covering.{name}")[0], "count")
        put(f"covering.{name}.us", mean_us(f"covering.{name}"), "us")
    conv_algebra = tr.family_layer_s.get("convolution-invariance", {}).get("algebra", 0.0)
    zeta_neg = stat("special.hurwitz_zeta_neg")[1]
    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_frac", overhead, "frac")
    put("trace.part.conv_algebra_s", conv_algebra, "s")
    put("trace.part.zeta_neg_s", zeta_neg, "s")
    put("trace.parts_frac",
        (conv_algebra + zeta_neg + tr.layer_self_s.get("verify", 0.0)) / traced_wall, "frac")
    return m, u


if __name__ == "__main__":
    sys.exit(main())
