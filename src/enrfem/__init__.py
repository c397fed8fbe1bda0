"""Enriched unfitted finite elements for 1D elliptic interface problems.

Solves two-point boundary value problems whose solution jumps across
interior interface points, including implicit (Robin-type) jump
conditions of the form [u] = gamma * [u'].  Standard P1/P2 Lagrange
spaces are enriched with a compactly supported, piecewise-linear
function per interface whose slopes encode the jump parameter.
"""

from ._version import __version__
from .mesh import Mesh1D, build_mesh, locate_element, mesh_from_nodes
from .enrichment import (
    EnrichmentFunction,
    build_enrichment,
    eval_enrichment,
    gamma_from_lambda,
)
from .femspace import (
    BoundaryCondition,
    EnrichedSpace,
    build_space,
    eval_basis,
    eval_function,
    quadrature_rule,
)
from .assembly import (
    AssembledSystem,
    InterfaceSpec,
    ProblemSpec,
    assemble_system,
    condition_number,
    solve_system,
    space_for_problem,
)
from .analysis import (
    ErrorReport,
    coefficient_contrast,
    compute_errors,
    interpolate_enriched,
    observed_orders,
    polynomial_branches,
)
from .bench import BenchmarkProblem, catalog_problem, manufactured_rhs
