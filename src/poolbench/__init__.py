"""Pooling operators that generalize max- and average-pooling.

Forward passes, exact analytic gradients, a numerically stable smooth
maximum, a finite-difference oracle, and a desk-scale training benchmark
comparing the methods on synthetic data.
"""

from .tensor import ShapeError, WindowSpec, output_size
from .ops import (
    HEADLINE_METHODS,
    METHODS,
    ConfigurationError,
    DegenerateWeightsError,
    ParameterError,
    PoolSpec,
    avg_pool,
    conv_pool,
    fixed_temperatures,
    gated_pool,
    learned_norm_pool,
    lse_pool,
    max_pool,
    nearest_pool,
    norm_exponent,
    ordinal_pool,
    project_to_simplex,
    sigmoid,
    smooth_max_pool,
    validate_pool_params,
)
from .grads import (
    FDOracleConfig,
    GradBundle,
    OracleError,
    avg_pool_grad,
    conv_pool_grad,
    fd_check,
    gated_pool_grad,
    learned_norm_pool_grad,
    lse_pool_grad,
    max_pool_grad,
    nearest_pool_grad,
    ordinal_pool_grad,
    smooth_max_pool_grad,
)

__version__ = "0.1.0"
