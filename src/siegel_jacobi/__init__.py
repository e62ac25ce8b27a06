"""Computational geometry of the Siegel-Jacobi ball and its parent domains:
closed-form balanced metric, inverse, determinant, curvature,
Laplace-Beltrami operators, group actions, Cayley transforms and Berezin
kernels, each cross-checked against independent finite-difference oracles.
"""

from .domains import (
    JacobiBallPoint,
    PairIndex,
    SiegelBallPoint,
    SiegelUpperPoint,
    TangentVector,
    flatten_point,
    sample_point,
)
from .groups import (
    JacobiElementC,
    JacobiElementR,
    SymplecticC,
    SymplecticR,
    act_ball,
    act_upper,
    cayley_conjugate,
    compose_jacobi_c,
    compose_jacobi_r,
    inverse_cayley_conjugate,
    inverse_fc_transform,
    inverse_partial_cayley,
    partial_cayley,
    random_jacobi_c,
    random_jacobi_r,
    random_symplectic_r,
    theta,
)
from .kernels import (
    KernelEval,
    VolumeData,
    epsilon_function,
    kernel_eval,
    normalization_constant,
    normalized_kernels,
    parseval_check_n1,
    two_point_kernel,
    volume_densities,
)
from .laplacian import (
    LaplacianCoefficients,
    apply_laplacian,
    builtin_field,
    laplacian_coefficients,
)
from .metric import (
    CurvatureData,
    DetResult,
    MetricEval,
    MetricInverse,
    MetricParams,
    ball_metric_pair,
    curvature,
    kahler_potential,
    metric_blocks,
    metric_det,
    metric_inverse,
)
from .oracle import fd_jacobian, fd_wirtinger_gradient, fd_wirtinger_hessian
from .verify import FuzzReport, PropertyResult, fuzz_all

__version__ = "0.1.0"
