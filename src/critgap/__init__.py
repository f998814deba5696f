"""critgap: gap probability of the critical point process arising from
products of Ginibre random matrices.

The package computes P(a), the distribution function of the rightmost
particle, three independent ways (half-line Fredholm determinant, a
two-contour determinant, and its line reduction), exposes the
Riemann-Hilbert observables that give log-derivatives and right-tail
asymptotics of P, and cross-checks everything against direct Monte-Carlo
simulation of the matrix products.
"""

from .contours import (ContourSpec, GeometryError, QuadratureGrid,
                       build_closed_loop, build_hairpin, build_vertical,
                       deformed_contours, truncation_radius, union_grid)
from .fredholm import (DiscreteOperator, GapResult, HalfLineGrid, ROUTES,
                       SingularError, SingularWarning, det_one_minus,
                       gap_probability, halfline_operator, ha_operator,
                       qa_operator, solve_resolvent)
from .kernels import (centering_shift, conjugated_kernel, critical_kernel,
                      factored_kernel, finite_kernel, integrable_kernel,
                      kernel_pair, line_reduced_kernel, qa_pair)
from .mc import (ConvergenceError, McConfig, McResult, center_aN,
                 empirical_gap, sample_rightmost)
from .observables import (RhWorkspace, UnderflowWarning, Y1Matrix,
                          asym_u1_12, asym_u1_21, log_gap_from_u, residue_sum,
                          u_asym_composed, u_asymptotic, u_of_x, y1_matrix)
from .special import DomainError, PoleError, gamma, log_gamma, recip_gamma

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "gamma", "log_gamma", "recip_gamma", "PoleError", "DomainError",
    # contours
    "ContourSpec", "QuadratureGrid", "GeometryError", "build_hairpin",
    "build_vertical", "build_closed_loop", "deformed_contours", "union_grid",
    "truncation_radius",
    # kernels
    "critical_kernel", "conjugated_kernel", "factored_kernel",
    "finite_kernel", "integrable_kernel", "line_reduced_kernel",
    "kernel_pair", "qa_pair", "centering_shift",
    # determinants
    "ROUTES", "HalfLineGrid", "DiscreteOperator", "GapResult",
    "gap_probability", "det_one_minus", "solve_resolvent",
    "halfline_operator", "qa_operator", "ha_operator", "SingularError",
    "SingularWarning",
    # observables
    "Y1Matrix", "RhWorkspace", "y1_matrix", "u_of_x",
    "u_asymptotic", "log_gap_from_u", "residue_sum", "asym_u1_21",
    "asym_u1_12", "u_asym_composed", "UnderflowWarning",
    # Monte-Carlo
    "McConfig", "McResult", "center_aN", "sample_rightmost", "empirical_gap",
    "ConvergenceError",
]
