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

import bisect
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .assembly import ProblemSpec, eval_coefficient
from .femspace import EnrichedSpace, full_coefficients, quadrature_pieces, standard_basis

ERROR_QUAD_NPTS = 12  # error norms need a finer rule than assembly
_CONTRAST_SAMPLES = 101


@dataclass(frozen=True)
class ExactSolution:
    """Piecewise exact solution with globally evaluable branch extensions.

    ``branches[i]`` is a (value, derivative) pair of callables owning the
    i-th layer; each must be evaluable on the whole domain (polynomial
    branches act as their own extensions).
    """

    branches: tuple[tuple[Callable, Callable], ...]
    breakpoints: tuple[float, ...]

    def __post_init__(self):
        if len(self.branches) != len(self.breakpoints) + 1:
            raise ValueError("need one branch per layer (breakpoints + 1)")
        if any(x >= y for x, y in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @staticmethod
    def from_polynomials(polys: Sequence, breakpoints) -> "ExactSolution":
        """Branches from numpy Polynomials (derivatives taken symbolically)."""
        branches = tuple((p, p.deriv()) for p in polys)
        return ExactSolution(branches=branches, breakpoints=tuple(float(x) for x in breakpoints))

    def branch_of(self, x: float) -> int:
        """Index of the branch owning x (left branch exactly at a breakpoint)."""
        return bisect.bisect_left(self.breakpoints, x)

    def value(self, x: float) -> float:
        v, _ = self.branches[self.branch_of(x)]
        return float(v(x))

    def values(self, xs) -> np.ndarray:
        """``value`` at every point of xs, one vectorized call per branch."""
        xs = np.asarray(xs, dtype=float)
        owner = np.searchsorted(self.breakpoints, xs, side="left")
        out = np.empty_like(xs)
        for i, (v, _) in enumerate(self.branches):
            on = owner == i
            if on.any():
                out[on] = eval_coefficient(v, xs[on])
        return out

    def jump(self, interface: int) -> float:
        alpha = self.breakpoints[interface]
        vl, _ = self.branches[interface]
        vr, _ = self.branches[interface + 1]
        return float(vr(alpha)) - float(vl(alpha))


@dataclass(frozen=True)
class ErrorReport:
    """L2, broken-H1 seminorm, and interior nodal errors for one run."""

    l2: float
    h1_broken: float
    nodal_max: float

    def __post_init__(self):
        if self.l2 < 0 or self.h1_broken < 0 or self.nodal_max < 0:
            raise ValueError("error measures must be nonnegative")


def interpolate_enriched(exact: ExactSolution, space: EnrichedSpace) -> np.ndarray:
    """Free-DOF coefficients of the enriched interpolant of ``exact``.

    Defined for degree-1 spaces only.  Standard DOFs receive nodal values
    of the owning branch; the two enrichment DOFs of cut j receive
    (d2 - d1)(x_k) + delta and (d2 - d1)(x_{k+1}) + delta, where d1, d2
    are the extended derivatives of branches j and j + 1 and delta kills
    the solution jump.  Raises unless ``exact`` breaks at the space's cuts.
    """
    if space.degree != 1:
        raise ValueError("the interpolation operator is defined for degree 1 only")
    _check_breakpoints(exact, space)

    full = np.zeros(space.n_dofs)
    full[: space.n_std] = exact.values(space.std_nodes)

    for j, psi in enumerate(space.enrichments):
        _, d_left = exact.branches[j]
        _, d_right = exact.branches[j + 1]
        delta = -exact.jump(j) / (psi.alpha - psi.x_right)
        for dof, x in zip(space.element_enriched_dofs(psi.element), (psi.x_left, psi.x_right)):
            full[dof] = float(d_right(x)) - float(d_left(x)) + delta

    free = space.free_index >= 0
    return full[free]


def _check_breakpoints(exact: ExactSolution, space: EnrichedSpace) -> None:
    """Branch j of ``exact`` must own layer j of the space: same interface points."""
    cuts = tuple(psi.alpha for psi in space.enrichments)
    if exact.breakpoints != cuts:
        raise ValueError(
            f"exact solution breakpoints {exact.breakpoints} are not the space's "
            f"interface points {cuts}"
        )


def compute_errors(
    exact: ExactSolution,
    space: EnrichedSpace,
    coeffs,
    quad_npts: int = ERROR_QUAD_NPTS,
) -> ErrorReport:
    """L2 / broken-H1 / nodal errors of the discrete function vs ``exact``.

    ``coeffs`` are the free DOFs; the constrained ones take the space's
    Dirichlet values.  Branch j of ``exact`` is integrated over layer j of
    the space; raises unless ``exact`` breaks at the space's cuts.
    """
    _check_breakpoints(exact, space)
    full = full_coefficients(space, coeffs)

    l2_terms, h1_terms = [], []  # per piece, in element order
    for batch in quadrature_pieces(space, quad_npts):
        coef = full[batch.dofs][:, None]
        uh = (coef @ batch.values)[:, 0]
        duh = (coef @ batch.derivatives)[:, 0]
        value, deriv = exact.branches[batch.layer]
        xs = batch.xs.ravel()
        e = eval_coefficient(value, xs).reshape(uh.shape) - uh
        de = eval_coefficient(deriv, xs).reshape(duh.shape) - duh
        wq = batch.weights[:, None]
        l2_terms.append((wq @ (e * e)[..., None])[:, 0, 0])
        h1_terms.append((wq @ (de * de)[..., None])[:, 0, 0])
    # np.cumsum adds the terms one after another in element order; np.sum
    # would add them pairwise and move the last digits
    l2_sq = np.cumsum(np.concatenate(l2_terms))[-1]
    h1_sq = np.cumsum(np.concatenate(h1_terms))[-1]

    # psi vanishes at element endpoints, so a node's value is the standard
    # part of the element to its left
    nodes = space.mesh.nodes[1:-1]
    dofs, vals, _ = standard_basis(space, np.arange(len(nodes)), nodes[:, None])
    uh = (full[dofs][:, None] @ vals)[:, 0, 0]
    nodal = float(np.max(np.abs(exact.values(nodes) - uh), initial=0.0))

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
        vals = eval_coefficient(d, xs)
        hi = max(hi, float(np.max(vals)))
        lo = min(lo, float(np.min(vals)))
    if lo <= 0:
        raise ValueError("diffusivity must be positive to define the contrast")
    return hi / lo
