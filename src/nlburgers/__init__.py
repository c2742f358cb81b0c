"""Traveling waves and Cauchy simulation for the nonlocal Burgers equation

    u_t + u u_x + u - K*u = 0,

with K an even, nonnegative, unit-mass convolution kernel.  The package
computes wave profiles by a descending monotone iteration, classifies them
as continuous or sub-shock by grid refinement of the jump estimate, checks
the amplitude criterion 4 int |y| K(y) dy, and validates profiles against
a finite-volume simulation of the time-dependent equation.
"""

from .cauchy import (
    SimConfig,
    SimState,
    SimulationError,
    Trajectory,
    initial_state,
    l1_distance_to_translate,
    measure_speed,
    simulate,
    state_from_profile,
    step,
)
from .convolve import (
    FieldError,
    FullLineConvolver,
    GridKernelError,
    HalfLineGrid,
    OddConvolver,
    brute_force_convolve,
)
from .kernels import (
    DivergentMomentError,
    Kernel,
    KernelError,
    build_kernel,
    exponential_kernel,
    gaussian_kernel,
    moment_quadrature,
    read_kernel_table,
    tabulated_kernel,
    triangular_kernel,
    uniform_kernel,
    validate_kernel,
)
from .waves import (
    IterateCollapseError,
    IterationTrace,
    ParamsError,
    SchemeInvariantError,
    ShockClassification,
    SubsolutionSpec,
    WaveParams,
    WaveProfile,
    classify_shock,
    flux_balance,
    iterate_once,
    jump_identity,
    pointwise_residual,
    solve_wave,
    subsolution,
    supersolution,
    weak_residual,
)

__version__ = "0.1.0"
