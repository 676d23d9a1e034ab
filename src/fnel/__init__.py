"""Computable scaling exponents, Liouville-type classification, and monotone
solvers for positively homogeneous uniformly elliptic (Isaacs) operators."""

from .matcore import (
    EllipticOperator, SymMatrix, eigenvalues_sym, eval_diagonal, eval_operator,
    hessian_xi, isaacs, laplacian, pucci_max, pucci_min, radial_diagonal,
    radial_hessian, verify_ellipticity,
)
from .scaling import (
    EXISTENCE_SUPERSOLUTION, NONEXISTENCE_EXTERIOR, K_coefficient,
    NonlinearitySpec, ScalingReport, Verdict, alpha_star, beta_star, classify,
    critical_exponent, explicit_constant, homogeneity_indicator,
    hypothesis_check, xi_alpha,
)
from .solver import (
    Annulus, Ball, DirichletProblem, Field2D, RadialField, Rectangle,
    convergence_order, fundamental_profile, residual_norm,
    solve_dirichlet_2d, solve_dirichlet_radial,
)
from .spectral import EigenResult, eigen_scaling_check, principal_eigenvalue
from .liouville import (
    HomogeneousProfile, PatchedSupersolution, bend_fundamental,
    build_global_supersolution, cone_map_A, critical_log_check, fit_lower_bound,
    fixed_point, hadamard_check, nonexistence_certificate, rescale,
    sphere_min_curve,
)
from .opspec import load_operator, operator_digest, parse_operator_spec, serialize_operator

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
