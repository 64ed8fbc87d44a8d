"""Invariant (replicative) functions.

A real function f(x, y) with y > 0 is invariant when

    sum_{r=0}^{n-1} f(x + r*y, n*y) = f(x, y)   for every n >= 1.

The package ships a catalog of concrete families (reciprocal, Bernoulli,
floor/fractional, indicator, exponential and trigonometric quotients,
log-sine, cotangent, log-gamma, Hurwitz zeta, sign), combinators that stay
inside the class, a convolution algebra, exact covering-system certificates,
and a verification engine that turns each identity into a seeded,
tolerance-checked report.
"""

from .algebra import antiderivative, convolve
from .catalog import ENTRY_IDS, make, standard_configs
from .core import (
    EvalPoint,
    InvariantFunction,
    affine_transform,
    evaluate,
    frac_compose,
    from_fourier,
    from_tail_series,
    linear_combination,
    reflect,
    step_difference,
    x_derivative,
)
from .covering import (
    CoveringDecision,
    CoveringSystem,
    covering_identity_check,
    is_disjoint_covering,
    parse_system,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    InvkError,
    ParseError,
    PoleError,
    RejectedInputError,
    UnsupportedRegionError,
)
from .quadrature import (
    LimitResult,
    QuadratureResult,
    Vectorized,
    integrate,
    integrate_many,
    limit_scaled,
    y_partial_fd,
)
from .special import (
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_exact,
    hurwitz_zeta,
    log_gamma_abs,
)
from .verify import (
    DEFAULT_GRID,
    GridSpec,
    VerificationReport,
    check_bernoulli_convolution,
    check_bernoulli_integral_identity,
    check_convolution_invariance,
    check_covering_certificates,
    check_exchange,
    check_integral_limit,
    check_invariance,
    check_known_integrals,
    check_parity,
    check_product_integral,
    check_step_limit,
    check_y_derivative_identities,
    check_zeta_convolution,
    golden_integral,
    standard_suite,
    zeta_power_kernel,
)

__version__ = "0.1.0"
