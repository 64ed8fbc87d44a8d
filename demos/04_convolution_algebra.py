#!/usr/bin/env python3
"""The convolution product on integrable invariant functions.

g * h(x,y) = int_0^x g(t,y) h(x-t,y) dt + int_x^y g(t,y) h(x+y-t,y) dt

On one period this is a cyclic convolution: it commutes, its period integral
factorizes, and the scaled Bernoulli family is closed under it with orders
adding.  The fractional-order zeta kernels extend that closure beyond
integer orders.
"""

import math

from invk import (
    antiderivative,
    bernoulli_poly,
    check_product_integral,
    convolve,
    integrate,
    make,
    zeta_power_kernel,
)
from invk.core import affine_transform


def scaled_bernoulli(m):
    return affine_transform(make("E2", m=m), a=-1.0 / math.factorial(m), b=0.0, c=1.0)


print("Bernoulli closure: order m * order n gives order m+n\n")
for m, n in ((1, 1), (1, 2), (2, 3)):
    conv = convolve(scaled_bernoulli(m), scaled_bernoulli(n))
    x = 0.3
    got = conv.value(x, 1.0)
    want = -bernoulli_poly(m + n, x) / math.factorial(m + n)
    print(f"  ({m})*({n}) at x={x}:  {got:+.12f}  closed form {want:+.12f}")

print("\nperiod integrals multiply:")
rep = check_product_integral(make("E5", a=2.0), make("E9", r=0.5), (1.0,), 1e-7)
w = rep.worst_witness
print(f"  int(g*h) = {w['lhs']:.10f}   int(g)*int(h) = {w['rhs']:.10f}")

print("\nfractional kernels behave like fractional-order Bernoulli entries:")
fa = zeta_power_kernel(1.5)
fb = zeta_power_kernel(2.5)
conv = convolve(fa, fb, 1e-8)
fab = zeta_power_kernel(4.0)
for x in (0.1, 0.5, 0.9):
    print(f"  x={x}: F(1.5)*F(2.5) = {conv.value(x, 1.0):+.9f}   F(4) = {fab.value(x, 1.0):+.9f}")

print("\nantiderivative construction (stays in the class, d/dx recovers f):")
F = antiderivative(make("E1"))
print(f"  antiderivative of 1/y at (1, 2): {F.value(1.0, 2.0):+.10f}   x/y - 1/2 = {1/2 - 1/2:+.10f}")

print("\nconvolving with the exponential entry E5(2) = 2^x/(2^y - 1):")
g = convolve(make("E5", a=2), make("E1"))
print(f"  value at (0, 1): {g.value(0.0, 1.0):.10f}   1/log 2 = {1/math.log(2):.10f}")
print(f"  period integral: {integrate(lambda t: g.value(t, 1.0), 0, 1, tol=1e-9).value:.10f}")
