"""waveforge: closed-form evaluation of wave and heat type equations.

The package evaluates exact solution formulas for higher-order wave and
heat operators on the whole space (odd dimensions via spherical means)
and on boxes (sine eigenfunction expansions), with every solver checked
against independent oracles.
"""

from .errors import (
    ConfigError,
    DataCountMismatch,
    DegenerateSpeeds,
    DimensionError,
    DomainError,
    ExprSyntaxError,
    GridTooCoarse,
    InsufficientDerivatives,
    IntegratorFailure,
    InvalidBox,
    InvalidInterval,
    InvalidOrder,
    NegativeDiffusionTime,
    NonPositiveSpeed,
    UnknownSymbol,
    UnsupportedDimension,
    WaveforgeError,
)
from .expr import (
    Expr,
    compile_field,
    differentiate,
    eval_complex,
    eval_real,
    laplacian,
    parse,
)
from .heat_solver import (
    HeatPropagator,
    HeatPropagatorSpec,
    heat_propagate,
    solve_heat_product,
)
from .ibvp import EigenBasis, ModeCoefficients, build_basis, project, solve_ibvp
from .kernels import (
    PartialFractionWeights,
    exp_divided_differences,
    first_order_weights,
    gm_wave_symbol,
    second_order_weights,
)
from .opcalc import (
    FourierSeriesSpec,
    abel_poisson_sum,
    complex_shift_cos,
    complex_shift_sin,
    dilation_apply,
    poisson_kernel_sum,
    square_derivative_expand,
)
from .oracle import (
    ModeProblem,
    ResidualReport,
    heat_closed_form,
    mode_solve,
    residual_check,
)
from .problems import CauchyProblem, SolutionEvaluator
from .quadrature import (
    QuadratureSpec,
    SinhKernel,
    gauss_legendre,
    iterated_time_integral,
    sinh_kernel_apply,
    sphere_rule,
    spherical_mean,
)
from .wave_solver import solve_distinct_speeds, solve_multiple_wave, solve_wave

__version__ = "0.1.0"
