"""Fisher geometry on singular statistical models.

Numerical toolkit for the Fisher metric and Fisher-Rao distances on
finite-dimensional (possibly singular) statistical models, covering-based
Hausdorff measure and dimension in the Fisher distance, Jeffrey densities,
Markov-kernel pushforwards with their monotonicity properties, and
variance-vs-inverse-Fisher gap checks for estimators.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateRegionError,
    DomainError,
    InsufficientScaleError,
    IntegrationError,
    NotDominated,
    OutsideRangeError,
    SamplingError,
    SigeoError,
    SparseCloudError,
    UsageError,
)
from .measures import (
    Measure,
    SampleSpace,
    TangentVector,
    bhattacharyya_angle,
    finite_space,
    grid1d_space,
    grid2d_space,
    integrate,
    tv_norm,
)
from .models import (
    Box,
    CurveInModel,
    ParamModel,
    bernoulli_family,
    categorical_family,
    gaussian_location2d_family,
    gaussian_location_family,
    gaussian_location_scale_family,
    gaussian_mixture,
    get_model,
    normalized_friedrich_model,
    product_model,
    tangent_at,
    weak_oscillatory_measure,
    weak_oscillatory_model,
    weak_oscillatory_velocity,
)
from .fisher import (
    FisherMatrix,
    fisher_inner,
    fisher_matrix,
    fisher_matrices,
    two_integrability_probe,
)
from .distance import (
    PathResult,
    curve_length,
    fisher_distance,
    metric_axiom_check,
)
from .markov import (
    MarkovKernel,
    monotonicity_gap,
    permutation_kernel,
    pushforward_measure,
    pushforward_model,
    pushforward_tangent,
    random_kernel,
    random_kernel_gaps,
    sufficiency_check,
)
from .hausdorff import (
    ArcCloud,
    CoverReport,
    MetricCloud,
    alpha_k,
    cloud_from_params,
    covering_profile,
    flat_region_dimension_estimate,
    hausdorff_dimension_estimate,
    hausdorff_measure_estimate,
    hausdorff_monotonicity_check,
    jeffrey_density,
    jeffrey_measure,
    jeffrey_vs_hausdorff_check,
)
from .estimation import (
    CramerRaoResult,
    Estimator,
    PhiMap,
    QuadraticForm,
    Sampling,
    cramer_rao_gap,
    identity_chart,
    mean_estimator,
)
