"""Error measurement, observed orders and coefficient contrast.

Errors are measured branch-wise: the L2 and broken-H1 norms integrate
each element (split at interfaces) against the exact branch owning that
sub-interval, and the nodal error is the maximum over interior mesh
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .assembly import ProblemSpec, _as_polynomial, _coefficient_table, _layer_values
from .femspace import EnrichedSpace, full_coefficients, quadrature_pieces, standard_basis

ERROR_QUAD_NPTS = 12  # error norms need a finer rule than assembly
_CONTRAST_SAMPLES = 101


def polynomial_branches(polys: Sequence) -> tuple[tuple[Polynomial, Polynomial], ...]:
    """One (value, derivative) pair per layer from numpy Polynomials.

    Derivatives are taken symbolically; a polynomial branch is its own
    extension, so it can be evaluated on the whole domain.
    """
    return tuple((p, p.deriv()) for p in polys)


@dataclass(frozen=True)
class ErrorReport:
    """L2, broken-H1 seminorm, and interior nodal errors for one run."""

    l2: float
    h1_broken: float
    nodal_max: float

    def __post_init__(self):
        if not all(0 <= e < np.inf for e in (self.l2, self.h1_broken, self.nodal_max)):
            raise ValueError("error measures must be finite and nonnegative")


def compute_errors(
    exact: Sequence[tuple[Polynomial, Polynomial]],
    space: EnrichedSpace,
    coeffs,
    quad_npts: int = ERROR_QUAD_NPTS,
) -> ErrorReport:
    """L2 / broken-H1 / nodal errors of the discrete function vs ``exact``.

    ``coeffs`` are the free DOFs; the constrained ones take the space's
    Dirichlet values.  Branch j of ``exact``, a (value, derivative) pair
    of Polynomials in x, is integrated over layer j of the space; raises
    unless ``exact`` has one branch per layer.
    """
    n_layers = len(space.enrichments) + 1
    if len(exact) != n_layers:
        raise ValueError(f"{len(exact)} exact branches for the space's {n_layers} layers")
    values, derivatives = (
        _coefficient_table([_as_polynomial(f, f"exact on layer {i}") for i, f in enumerate(fs)])
        for fs in zip(*exact)
    )
    full = full_coefficients(space, coeffs)

    quad = quadrature_pieces(space, quad_npts)
    # e = u_h - u in place: its square has the bits of (u - u_h)^2
    e, de = np.empty_like(quad.xs), np.empty_like(quad.xs)
    for basis, pieces in ((quad.standard, slice(None)), (quad.cut, quad.cut_pieces)):
        coef = full[basis.dofs][:, None]
        e[pieces] = (coef @ basis.values)[:, 0]
        de[pieces] = (coef @ basis.derivatives)[:, 0]
    e -= _layer_values(values, quad.layer, quad.xs)
    de -= _layer_values(derivatives, quad.layer, quad.xs)
    e *= e
    de *= de
    wq = quad.weights[:, None]
    # np.cumsum adds the pieces' terms one after another in element order;
    # np.sum would add them pairwise and move the last digits
    l2_sq = np.cumsum((wq @ e[..., None])[:, 0, 0])[-1]
    h1_sq = np.cumsum((wq @ de[..., None])[:, 0, 0])[-1]

    # psi vanishes at element endpoints, so a node's value is the standard
    # part of the element to its left
    nodes = space.mesh.nodes[1:-1]
    u_nodes = _layer_values(values, space.layout.node_layer, nodes)
    dofs, vals, _ = standard_basis(space, np.arange(len(nodes)), nodes[:, None])
    uh = (full[dofs][:, None] @ vals)[:, 0, 0]
    nodal = float(np.max(np.abs(u_nodes - uh), initial=0.0))

    return ErrorReport(l2=np.sqrt(l2_sq), h1_broken=np.sqrt(h1_sq), nodal_max=nodal)


def observed_orders(h_list, e_list) -> list[float]:
    """Pairwise convergence orders log(e_i/e_{i+1}) / log(h_i/h_{i+1})."""
    h_list = [float(h) for h in h_list]
    e_list = [float(e) for e in e_list]
    if len(h_list) != len(e_list):
        raise ValueError("mesh size and error lists must have equal length")
    if len(h_list) < 2:
        raise ValueError("need at least two refinement levels")
    if any(e <= 0 for e in e_list):
        raise ValueError("orders are undefined for zero or negative errors")
    return [
        np.log(e0 / e1) / np.log(h0 / h1)
        for (h0, h1, e0, e1) in zip(h_list, h_list[1:], e_list, e_list[1:])
    ]


def coefficient_contrast(problem: ProblemSpec) -> float:
    """sup(D) / inf(D) over the layers, sampled pointwise (diagnostic)."""
    a, b = problem.domain
    breaks = np.array([a, *problem.breakpoints, b])
    xs = np.linspace(breaks[:-1], breaks[1:], _CONTRAST_SAMPLES, axis=1)
    table = _coefficient_table(problem.diffusivity)
    vals = _layer_values(table, np.arange(table.shape[1])[:, None], xs)
    if np.min(vals) <= 0:
        raise ValueError("diffusivity must be positive to define the contrast")
    return float(np.max(vals)) / float(np.min(vals))
