"""curvatura: total mean curvatures of level-set hypersurfaces in model
Riemannian manifolds, with quadrature-backed verification of the comparison
identity and its corollaries."""

from .errors import (
    CapabilityError,
    ChartSingularityError,
    ConfigError,
    CurvaturaError,
    DegenerateGradientError,
    GeometryError,
)
from .symmetric_algebra import (
    double_factorial,
    eigh,
    newton_partial_form,
    sigma_elementary,
    sigma_hessian_kronecker,
)
from .model_manifolds import (
    CurvatureTensorData,
    ModelManifold,
    WarpingProfile,
    constant_curvature,
    euclidean,
    linear_profile,
    poly3_profile,
    profile_by_name,
    sinh_profile,
    sphere_total_mean_curvature,
    unit_sphere_volume,
    warped,
)
from .level_set_geometry import (
    HessianData,
    OffCenterDistanceField,
    PrincipalFrameData,
    QuadraticFormField,
    RadialDistanceField,
    RadialSquaredHalfField,
    ScalarField,
    hessian_frame,
)
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    coarea_volume_integral,
    radial_integral,
    surface_integral,
)
from .curvature_integrals import (
    ComparisonBreakdown,
    MeanCurvatureReport,
    ball_bound,
    comparison_rhs,
    comparison_rhs_constant,
    m1_volume_bound,
    ricci_comparison,
    solanes_prediction,
    total_mean_curvature,
)

__version__ = "0.1.0"
