#!/usr/bin/env python3
"""Closure combinators: ways to build new invariant functions from old ones.

Each construction below is checked against the defining identity on a seeded
grid, so the printed max errors double as a live demonstration of the
verification engine.
"""

import math

from invk import (
    GridSpec,
    affine_transform,
    check_invariance,
    frac_compose,
    from_fourier,
    from_tail_series,
    linear_combination,
    make,
    reflect,
    step_difference,
    x_derivative,
)

grid = GridSpec(seed=3, samples=24, n_max=6)

constructions = [
    ("affine: 2 f(0.5 + 3x, 3y) of E5(2)", affine_transform(make("E5", a=2.0), 2.0, 0.5, 3.0)),
    ("reflect: f(y - x, y) of log-sine", reflect(make("E10"))),
    ("frac wrap of quadratic Bernoulli", frac_compose(make("E2", m=2), 0.3)),
    ("x-derivative of the log quotient E7", x_derivative(make("E7", r=0.5))),
    ("linear combination E1 - 2 E2(1)", linear_combination([(1.0, make("E1")), (-2.0, make("E2", m=1))])),
    ("cosine series with geometric weights", from_fourier(lambda t: 0.5 ** t, "cos", 1e-9)),
    ("shifted-argument tail sum of e^-2t", from_tail_series(lambda t: math.exp(-2 * t), 1e-9)),
]

print("defining-identity reports for combinator outputs\n")
pos_grid = GridSpec(seed=3, samples=24, n_max=6, x_range=(0.05, 3.0))
for label, f in constructions:
    g = pos_grid if f.name == "tail_series" else grid
    rep = check_invariance(f, g, 1e-7)
    print(f"  {label:<44} max err {rep.max_abs_error:.2e}  pass={rep.passed}")

print("\nsmall identities worth seeing once:")
f = frac_compose(make("E2", m=1), 0.0)
print(f"  wrapped linear at x=1.7:   {{1.7}} - 1/2 = {f.value(1.7, 1.0):+.4f}")

d = step_difference(make("E3a"))
print(f"  step difference of floor:  f(x+y,y) - f(x,y) = {d(0.3, 1.0):+.0f}")

lhs = x_derivative(make("E7", r=0.5)).value(0.2, 1.0)
rhs = 4 * math.pi * make("E8", r=0.5).value(0.2, 1.0)
print(f"  d/dx log-quotient vs 4*pi*sine-quotient: {lhs:.8f} vs {rhs:.8f}")
