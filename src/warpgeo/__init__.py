"""Geodesics of warped product metrics with a mixed-signature coupling.

The package rebuilds geodesics of a product metric that subtracts a warped
fiber term from a Riemannian base, out of purely Riemannian ingredients: a
one-parameter conformal rescaling of the base, geodesics of the rescaled
metrics, and explicit reparametrizations of both factors.  On top of that
sit boundary-value connection (including a first-integral fast path for
line bases), curvature formulas for the rescaled family, and a small
expression language for warping functions.
"""

from .errors import (
    BracketingError, ChartDomainError, CompatibilityError, DslError,
    DslEvaluationError, DslNameError, DslSyntaxError, FloatOverflowError,
    InputError, NumericalError, ParameterError, ShootingError, WarpGeoError,
)
from .manifold import (
    MetricChart, TangentVector, christoffel, circle, euclidean, geodesic_rhs,
    metric_eval, poincare_ball, poincare_half_plane, sectional_curvature,
    sharp, sphere, weighted_line,
)
from .warp import (
    WarpField, WarpParameterRange, admissible_range, conformal_metric,
    covariant_hessian, equivalence_bounds, negativity_check,
    rescaled_curvature, sectional_curvature_conformal, value_and_grad,
    values_along,
)
from .integrate import (
    Curve, IntegratorConfig, coupled_residual, curve_from_csv, curve_to_csv,
    geodesic_residual, integrate_coupled_oracle, integrate_geodesic,
    integrate_product_geodesic, speed_drift,
)
from .reparam import (
    MonotoneMap, RiemannianGeodesic, check_compatibility, classify_riemannian,
    compute_a_and_phi, compute_b_and_psi, norm_identity_errors,
    phi_constant_from_trace, reparametrize, riemannize, tangent_transform,
)
from .connect import (
    ShootingReport, beta_bounds, beta_of_r, connect_points, flrw_beta,
    flrw_connect, partial_connect, shoot_boundary, theta_consistency,
)
from . import warpfn

__version__ = "0.1.0"
