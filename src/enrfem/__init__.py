"""Enriched unfitted finite elements for 1D elliptic interface problems.

Solves two-point boundary value problems whose solution jumps across
interior interface points, including implicit (Robin-type) jump
conditions [u] = lambda * (D u')(alpha-) with continuous flux
-D u' + 2 delta u.  With the same convection delta- on both sides of
alpha (0 included) these are [u] = gamma * [u'] with
gamma = -lambda D- D+ / (D+ - D- (1 + 2 delta- lambda)), which is
-lambda D- D+ / (D+ - D-) where delta- = 0.  Standard P1/P2 Lagrange
spaces are enriched with a compactly supported, piecewise-linear
function per interface whose slopes encode that gamma.

``problem`` holds the data, the jump law, the file format and the catalog;
``enrfem.cli``, which ``import enrfem`` does not load, runs a study.
"""

from ._version import __version__
from .problem import (
    BenchmarkProblem,
    BoundaryCondition,
    InterfaceSpec,
    ProblemSpec,
    catalog_problem,
    gamma_from_lambda,
    manufactured_rhs,
)
from .mesh import Mesh1D, build_mesh, mesh_from_nodes
from .femspace import (
    EnrichedSpace,
    EnrichmentFunction,
    build_enrichment,
    build_space,
    eval_enrichment,
    eval_function,
    quadrature_rule,
)
from .assembly import (
    BandSystem,
    assemble_system,
    condition_number,
    solve_system,
    space_for_problem,
)
from .analysis import (
    ErrorReport,
    coefficient_contrast,
    compute_errors,
    observed_orders,
)
