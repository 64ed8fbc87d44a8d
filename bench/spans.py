"""Span tracing around the calls into each invk layer, from outside the package.

`install(tracer)` replaces public functions with timing wrappers in every
invk module that binds them by name (the defining module, modules that did
`from .x import f`, and the package namespace), and returns a handle whose
`restore()` puts every original object back.  Descriptor factories
(`catalog.make`, the `core` combinators, the `algebra` constructors) are
wrapped so that the descriptor they return carries a traced value rule.

A span is (name, start, end, parent).  Self time is a span's duration minus
the time its child spans cover.  Time added to `Tracer.paused` while a span
is open (the benchmark's calibration ticks) is left out of its duration.  A
call whose nearest open span has the same name is folded into that span, so
recursion inside one layer (check_* calling check_invariance, limit_scaled
calling extrapolate_limit) counts once.

Hot leaf rules (catalog and core value rules, scalar special functions) are
aggregated only; every other span is also kept in memory and written out by
`write_spans` at the end of the run.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import defaultdict
from time import perf_counter

MARK = "__bench_traced__"

# names aggregated without keeping each span: millions of calls per suite run
_LEAF_PREFIXES = ("catalog.value", "core.", "special.bernoulli_poly",
                  "special.log_gamma_abs", "special.hurwitz_zeta_pos")


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total, self, raised
        self.counts = defaultdict(float)
        self.family_s = defaultdict(float)
        self.family_layer_s = defaultdict(lambda: defaultdict(float))
        self.layer_self_s = defaultdict(float)
        self.paused = 0.0         # seconds spent outside the traced code, e.g. in ticks
        self.spans = []           # (name, start, end, parent index or -1)
        self._stack = []          # [name, start, child_time, stored index, layers]
        self._depth = defaultdict(int)
        self._store = {}

    def _stored(self, name):
        keep = self._store.get(name)
        if keep is None:
            keep = self._store[name] = not name.startswith(_LEAF_PREFIXES)
        return keep

    def span(self, name, fn, on_result=None, by_layer=False):
        """`fn` wrapped so that each call records one span called `name`.

        `on_result(tracer, result, duration, layers)` runs after each
        recorded call; with `by_layer`, `layers` maps each other layer to the
        time its outermost spans took inside this one.
        """
        stack = self._stack
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            parent = -1
            for frame in reversed(stack):
                if frame[3] >= 0:
                    parent = frame[3]
                    break
            index = -1
            if self._stored(name):
                index = len(self.spans)
                self.spans.append(None)
            frame = [name, 0.0, 0.0, index, defaultdict(float) if by_layer else None]
            stack.append(frame)
            self._depth[layer] += 1
            raised = False
            paused = self.paused
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self._depth[layer] -= 1
                dur = end - start - (self.paused - paused)
                self._close(name, layer, frame, start, end, dur, parent, raised)
            if on_result is not None:
                on_result(self, result, dur, frame[4])
            return result

        setattr(traced, MARK, True)
        traced.__wrapped__ = fn
        return traced

    def _close(self, name, layer, frame, start, end, dur, parent, raised):
        st = self.stats[name]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[2]
        st[3] += raised
        self.layer_self_s[layer] += dur - frame[2]
        if frame[3] >= 0:
            self.spans[frame[3]] = (name, start, end, parent)
        if self._stack:
            self._stack[-1][2] += dur
        if self._depth[layer] == 0:
            for f in reversed(self._stack):
                if f[4] is not None:
                    f[4][layer] += dur
                    break


def _family(tracer, report, dur, layers):
    """Time of one verify check, charged to its report's property family."""
    tracer.family_s[report.property] += dur
    for layer, s in layers.items():
        tracer.family_layer_s[report.property][layer] += s


def _valued(tracer, name_of, factory):
    """A descriptor factory whose results carry a traced value rule."""
    def make(*args, **kwargs):
        f = factory(*args, **kwargs)
        return dataclasses.replace(f, value=tracer.span(name_of(f), f.value))

    setattr(make, MARK, True)
    make.__wrapped__ = factory
    return make


def _catalog_label(f):
    if f.name == "E13":
        return "catalog.value:E13_pos" if f.params["s"] > 1.0 else "catalog.value:E13_neg"
    return "catalog.value:" + f.name


def _count(key, field):
    def on_result(tr, result, dur, layers):
        tr.counts[key + ".n"] += getattr(result, field)
        tr.counts[key + ".unconverged"] += not result.converged
    return on_result


def _zeta(tracer, fn):
    neg = tracer.span("special.hurwitz_zeta_neg", fn)
    pos = tracer.span("special.hurwitz_zeta_pos", fn)

    def hurwitz_zeta(s, x, *args, **kwargs):
        return (neg if s < 0.0 else pos)(s, x, *args, **kwargs)

    setattr(hurwitz_zeta, MARK, True)
    hurwitz_zeta.__wrapped__ = fn
    return hurwitz_zeta


def _targets(tracer):
    """(defining module, attribute, wrapper factory) for every traced function."""
    import invk.verify as verify

    span = tracer.span
    out = [
        ("invk.cli", "run", lambda f: span("cli.run", f)),
        ("invk.verify", "standard_suite", lambda f: span("verify.suite", f)),
        ("invk.verify", "grid_points", lambda f: span("verify.grid_points", f)),
        ("invk.algebra", "convolve", lambda f: _valued(tracer, lambda d: "algebra.conv_value", f)),
        ("invk.algebra", "antiderivative",
         lambda f: _valued(tracer, lambda d: "algebra.antider_value", f)),
        ("invk.algebra", "geometric_convolve",
         lambda f: _valued(tracer, lambda d: "algebra.geomconv_value", f)),
        ("invk.quadrature", "integrate",
         lambda f: span("quadrature.integrate", f, _count("quadrature.integrate", "evaluations"))),
        ("invk.quadrature", "limit_scaled",
         lambda f: span("quadrature.limit", f, _count("quadrature.limit", "steps"))),
        ("invk.quadrature", "extrapolate_limit",
         lambda f: span("quadrature.limit", f, _count("quadrature.limit", "steps"))),
        ("invk.catalog", "make", lambda f: _valued(tracer, _catalog_label, f)),
        ("invk.special", "hurwitz_zeta", lambda f: _zeta(tracer, f)),
        ("invk.special", "_hurwitz_sum_branch", lambda f: span("special.hurwitz_zeta_pos", f)),
        ("invk.special", "log_gamma_abs", lambda f: span("special.log_gamma_abs", f)),
        ("invk.special", "bernoulli_poly", lambda f: span("special.bernoulli_poly", f)),
        ("invk.covering", "is_disjoint_covering", lambda f: span("covering.decide", f)),
        ("invk.covering", "covering_identity_check", lambda f: span("covering.identity", f)),
    ]
    for name in ("affine_transform", "reflect", "frac_compose", "x_derivative",
                 "linear_combination"):
        out.append(("invk.core", name,
                    lambda f: _valued(tracer, lambda d: "core.combinator_value", f)))
    for name in ("from_fourier", "from_tail_series"):
        out.append(("invk.core", name, lambda f: _valued(tracer, lambda d: "core.series_value", f)))
    for name in sorted(n for n in vars(verify) if n.startswith("check_")):
        out.append(("invk.verify", name,
                    lambda f: span("verify.check", f, _family, by_layer=True)))
    return out


def invk_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "invk" or n.startswith("invk.")]


class Installed:
    def __init__(self, replaced):
        self._replaced = replaced

    def restore(self):
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced = []


def install(tracer) -> Installed:
    """Wrap every target at each invk module that binds it by name."""
    modules = invk_modules()
    replaced = []
    for home, attr, factory in _targets(tracer):
        original = getattr(sys.modules[home], attr)
        wrapped = factory(original)
        for module in modules:
            if vars(module).get(attr) is original:
                replaced.append((module, attr, original))
                setattr(module, attr, wrapped)
    return Installed(replaced)


def snapshot():
    """Identity of every attribute of every loaded invk module."""
    return {(m.__name__, k): id(v) for m in invk_modules() for k, v in vars(m).items()}


def wrapped_attributes():
    """Module attributes that currently hold a benchmark wrapper."""
    return [f"{m.__name__}.{k}" for m in invk_modules() for k, v in vars(m).items()
            if getattr(v, MARK, False)]


def write_spans(tracer, path):
    """One JSON line per kept span: name, start and end in µs, parent index."""
    t0 = min((s[1] for s in tracer.spans if s), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            if s is None:
                continue
            name, start, end, parent = s
            fh.write(json.dumps([name, round((start - t0) * 1e6, 1),
                                 round((end - t0) * 1e6, 1), parent]) + "\n")
