"""Error measurement, observed orders and coefficient contrast.

Errors are measured branch-wise: the L2 and broken-H1 norms integrate
each element (split at interfaces) against the exact branch owning that
sub-interval, and the nodal error is the maximum over interior mesh
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .femspace import (
    EnrichedSpace,
    exact_rule_size,
    full_coefficients,
    quadrature_pieces,
)
from .problem import ProblemSpec, layer_ranges, layer_values


@dataclass(frozen=True)
class ErrorReport:
    """L2, broken-H1 seminorm, and interior nodal errors for one run."""

    l2: float
    h1_broken: float
    nodal_max: float

    def __post_init__(self):
        if not all(0 <= e < np.inf for e in (self.l2, self.h1_broken, self.nodal_max)):
            raise ValueError("error measures must be finite and nonnegative")


def error_rule_size(problem: ProblemSpec, degree: int) -> int:
    """``exact_rule_size`` of (u - u_h)^2, u_h of degree ``degree`` + 1 on a cut piece.

    Raises ValueError for a problem without an exact solution u.
    """
    if problem.exact is None:
        raise ValueError("the problem has no exact solution to measure errors against")
    return exact_rule_size(
        ("exact", i, len(u.coef) - 1, 2 * max(len(u.coef) - 1, degree + 1))
        for i, u in enumerate(problem.exact)
    )


def compute_errors(problem: ProblemSpec, space: EnrichedSpace, coeffs) -> list[ErrorReport]:
    """L2 / broken-H1 / nodal errors of the discrete function vs the exact solution, per level.

    ``coeffs`` are the free DOFs; the constrained ones take the space's
    Dirichlet values.  The problem's exact branch j and its derivative
    (``ProblemSpec.tables``) are integrated over layer j of each level by
    ``error_rule_size``'s Gauss rule.  Raises ValueError unless the
    problem has an exact solution, every level of the space has the
    problem's interfaces, and every level's errors are finite.
    """
    mesh, layout = space.mesh, space.layout
    problem.check_mesh(mesh)
    quad = quadrature_pieces(space, error_rule_size(problem, space.degree))
    values, derivatives = problem.tables["exact"], problem.tables["exact_derivative"]
    full = full_coefficients(space, coeffs)
    # e = u_h - u in place: its square has the bits of (u - u_h)^2
    e, de = np.empty_like(quad.xs), np.empty_like(quad.xs)
    for basis, pieces in ((quad.standard, slice(None)), (quad.cut, layout.cut_pieces)):
        coef = full[basis.dofs][:, None]
        e[pieces] = (coef @ basis.values)[:, 0]
        de[pieces] = (coef @ basis.derivatives)[:, 0]
    e -= layer_values(values, layout.layer, quad.xs)
    de -= layer_values(derivatives, layout.layer, quad.xs)
    e *= e
    de *= de
    wq = quad.weights[:, None]
    l2_terms = (wq @ e[..., None])[:, 0, 0]
    h1_terms = (wq @ de[..., None])[:, 0, 0]

    # psi vanishes at element endpoints, so a node's value is its DOF: the
    # last standard DOF of the element to its left
    elements = layout.node_elements
    level = mesh.element_level[elements]
    u_nodes = layer_values(values, layout.node_layer, mesh.nodes[elements + level + 1])
    node_errors = np.abs(u_nodes - full[space.degree * (elements + 1) + level])

    # each level's terms in element order, one row per level, padded with
    # zeros: np.cumsum adds a row's terms one after another, where np.sum
    # would add them pairwise and move the last digits, and adding a zero
    # to a sum of squares keeps its bits
    pieces = mesh.starts + mesh.cut_starts
    counts = np.diff(pieces)
    rows = np.repeat(np.arange(mesh.n_levels), counts)
    columns = np.arange(pieces[-1]) - np.repeat(pieces[:-1], counts)
    table = np.zeros((2, mesh.n_levels, counts.max()))
    table[0, rows, columns] = l2_terms
    table[1, rows, columns] = h1_terms
    l2, h1 = np.sqrt(np.cumsum(table, axis=2)[:, :, -1])
    nodal = np.maximum.reduceat(node_errors, mesh.starts[:-1] - np.arange(mesh.n_levels))
    return [ErrorReport(l2=l2_level, h1_broken=h1_level, nodal_max=nodal_level)
            for l2_level, h1_level, nodal_level in zip(l2.tolist(), h1.tolist(), nodal.tolist())]


def observed_orders(h_list, e_list) -> list[float]:
    """Pairwise convergence orders log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    h_list, e_list = [float(h) for h in h_list], [float(e) for e in e_list]
    if len(h_list) != len(e_list):
        raise ValueError("mesh size and error lists must have equal length")
    if len(h_list) < 2:
        raise ValueError("need at least two refinement levels")
    if not all(0 < h < np.inf for h in h_list) or len(set(h_list)) < len(h_list):
        raise ValueError(f"mesh sizes must be finite, positive and none repeated, got {h_list}")
    if not all(0 < e < np.inf for e in e_list):
        raise ValueError("orders are undefined for zero, negative or non-finite errors")
    return [
        np.log(e0 / e1) / np.log(h0 / h1)
        for (h0, h1, e0, e1) in zip(h_list, h_list[1:], e_list, e_list[1:])
    ]


def coefficient_contrast(problem: ProblemSpec) -> float:
    """max(D) / min(D) over the layers (diagnostic)."""
    a, b = problem.domain
    breaks = np.array([a, *problem.breakpoints, b])
    d_min, d_max = layer_ranges(problem.tables["diffusivity"], breaks)
    return float(np.max(d_max)) / float(np.min(d_min))
