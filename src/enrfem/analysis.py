"""Error measurement and the optimal-order interpolation oracle.

Errors are measured branch-wise: the L2 and broken-H1 norms integrate
each element (split at interfaces) against the exact branch owning that
sub-interval, and the nodal error is the maximum over interior mesh
nodes.  The interpolation operator assigns exact nodal values to the
standard DOFs and, per interface, enrichment coefficients built from the
extended branch derivative difference plus a jump correction
delta = -[u]_alpha / (alpha - x_{k+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .assembly import ProblemSpec
from .femspace import EnrichedSpace, full_coefficients, quadrature_pieces, standard_basis

ERROR_QUAD_NPTS = 12  # error norms need a finer rule than assembly
_CONTRAST_SAMPLES = 101


def polynomial_branches(polys: Sequence) -> tuple[tuple[Callable, Callable], ...]:
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
        if self.l2 < 0 or self.h1_broken < 0 or self.nodal_max < 0:
            raise ValueError("error measures must be nonnegative")


def interpolate_enriched(
    exact: Sequence[tuple[Callable, Callable]], space: EnrichedSpace
) -> np.ndarray:
    """Free-DOF coefficients of the enriched interpolant of ``exact``.

    Defined for degree-1 spaces only.  Standard DOFs receive nodal values
    of the owning branch; the two enrichment DOFs of cut j receive
    (d2 - d1)(x_k) + delta and (d2 - d1)(x_{k+1}) + delta, where d1, d2
    are the extended derivatives of branches j and j + 1 and delta kills
    the solution jump.  Raises unless ``exact`` has one branch per layer.
    """
    if space.degree != 1:
        raise ValueError("the interpolation operator is defined for degree 1 only")

    full = np.zeros(space.n_dofs)
    full[: space.n_std] = _branch_values(exact, space, space.std_nodes)

    for j, psi in enumerate(space.enrichments):
        (v_left, d_left), (v_right, d_right) = exact[j], exact[j + 1]
        jump = float(v_right(psi.alpha)) - float(v_left(psi.alpha))
        delta = -jump / (psi.alpha - psi.x_right)
        for dof, x in zip(space.element_enriched_dofs(psi.element), (psi.x_left, psi.x_right)):
            full[dof] = float(d_right(x)) - float(d_left(x)) + delta

    free = space.free_index >= 0
    return full[free]


def _branch_values(exact, space: EnrichedSpace, xs) -> np.ndarray:
    """Value at each x of the branch owning it, one vectorized call per branch.

    Branch j owns layer j of the space; a point exactly at a cut belongs to
    the layer on its left.  Raises unless ``exact`` has one branch per layer.
    """
    n_layers = len(space.enrichments) + 1
    if len(exact) != n_layers:
        raise ValueError(f"{len(exact)} exact branches for the space's {n_layers} layers")
    xs = np.asarray(xs, dtype=float)
    owner = np.searchsorted([psi.alpha for psi in space.enrichments], xs, side="left")
    out = np.empty_like(xs)
    for j, (value, _) in enumerate(exact):
        on = owner == j
        if on.any():
            out[on] = value(xs[on])
    return out


def compute_errors(
    exact: Sequence[tuple[Callable, Callable]],
    space: EnrichedSpace,
    coeffs,
    quad_npts: int = ERROR_QUAD_NPTS,
) -> ErrorReport:
    """L2 / broken-H1 / nodal errors of the discrete function vs ``exact``.

    ``coeffs`` are the free DOFs; the constrained ones take the space's
    Dirichlet values.  Branch j of ``exact``, a (value, derivative) pair,
    is integrated over layer j of the space; raises unless ``exact`` has
    one branch per layer.
    """
    nodes = space.mesh.nodes[1:-1]
    u_nodes = _branch_values(exact, space, nodes)
    full = full_coefficients(space, coeffs)

    l2_terms, h1_terms = [], []  # per piece, in element order
    for batch in quadrature_pieces(space, quad_npts):
        coef = full[batch.dofs][:, None]
        uh = (coef @ batch.values)[:, 0]
        duh = (coef @ batch.derivatives)[:, 0]
        value, deriv = exact[batch.layer]
        e = value(batch.xs) - uh
        de = deriv(batch.xs) - duh
        wq = batch.weights[:, None]
        l2_terms.append((wq @ (e * e)[..., None])[:, 0, 0])
        h1_terms.append((wq @ (de * de)[..., None])[:, 0, 0])
    # np.cumsum adds the terms one after another in element order; np.sum
    # would add them pairwise and move the last digits
    l2_sq = np.cumsum(np.concatenate(l2_terms))[-1]
    h1_sq = np.cumsum(np.concatenate(h1_terms))[-1]

    # psi vanishes at element endpoints, so a node's value is the standard
    # part of the element to its left
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
    breaks = [a] + list(problem.breakpoints) + [b]
    hi = -np.inf
    lo = np.inf
    for i, d in enumerate(problem.diffusivity):
        xs = np.linspace(breaks[i], breaks[i + 1], _CONTRAST_SAMPLES)
        vals = d(xs)
        hi = max(hi, float(np.max(vals)))
        lo = min(lo, float(np.min(vals)))
    if lo <= 0:
        raise ValueError("diffusivity must be positive to define the contrast")
    return hi / lo
