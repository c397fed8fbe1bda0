"""Enriched conforming P1/P2 spaces: DOF bookkeeping and basis evaluation.

The space is span{standard Lagrange basis} + span{phi * psi} where psi is
the interface enrichment and phi runs over the Lagrange nodal functions of
the interface element (two hats for degree 1, the three quadratic nodal
functions for degree 2).  DOFs are ordered standard-first, then one
enrichment group per interface in position order.

Each interface cuts exactly one element, and the space's enrichment list
is the one table of cuts: cut j, in position order, is interface j, lies
between layers j and j + 1, and owns the enrichment DOFs starting at
n_std + (degree + 1) * j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .enrichment import EnrichmentFunction, build_enrichment, eval_enrichment
from .mesh import Mesh1D, locate_element

MAX_QUAD_NPTS = 16


@dataclass(frozen=True)
class BoundaryCondition:
    """Dirichlet(value) or Neumann(flux value; only zero flux is implemented)."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError("boundary condition kind must be 'dirichlet' or 'neumann'")
        if self.kind == "neumann" and self.value != 0.0:
            raise ValueError("nonzero Neumann flux is not implemented")

    @staticmethod
    def dirichlet(value: float) -> "BoundaryCondition":
        return BoundaryCondition("dirichlet", float(value))

    @staticmethod
    def neumann(value: float = 0.0) -> "BoundaryCondition":
        return BoundaryCondition("neumann", float(value))


@dataclass(frozen=True)
class EnrichedSpace:
    """Standard Lagrange DOFs plus enrichment DOFs per interface.

    ``enrichments`` is the cut table, one psi per cut in position order,
    and ``cut_of[k]`` the cut on element k (-1 if uncut).  ``std_nodes``
    holds the coordinates of the standard DOFs (element endpoints, plus
    midpoints for degree 2).  ``constrained`` lists the global indices of
    Dirichlet-constrained standard DOFs, and ``dirichlet_values`` (read-only)
    the Dirichlet value each one takes; all enrichment DOFs are free.
    ``free_index`` maps global DOF -> position in the free-DOF vector
    (-1 if constrained).
    """

    mesh: Mesh1D
    degree: int
    enrichments: tuple[EnrichmentFunction, ...]
    cut_of: np.ndarray
    std_nodes: np.ndarray
    constrained: tuple[int, ...]
    dirichlet_values: np.ndarray
    free_index: np.ndarray
    n_dofs: int
    n_free: int

    @property
    def n_std(self) -> int:
        return len(self.std_nodes)

    def element_enriched_dofs(self, k: int) -> list[int]:
        """Global indices of the enrichment DOFs living on element k."""
        j = int(self.cut_of[k])
        if j < 0:
            return []
        per = self.degree + 1
        base = self.n_std + per * j
        return list(range(base, base + per))


def build_space(
    mesh: Mesh1D,
    degree: int,
    gammas,
    bc_left: BoundaryCondition,
    bc_right: BoundaryCondition,
) -> EnrichedSpace:
    """Enumerate DOFs and build the cut table for the enriched space on ``mesh``.

    ``gammas`` holds one jump parameter per mesh cut, in position order;
    psi is built on each cut element of ``mesh.interface_hits``.
    A Dirichlet end fixes the boundary standard DOF to its value; a
    Neumann end is natural (free).
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    gammas = tuple(gammas)
    if len(gammas) != len(mesh.interface_hits):
        raise ValueError(
            f"{len(gammas)} gammas given for the mesh's {len(mesh.interface_hits)} "
            "interface elements"
        )

    enrichments = tuple(
        build_enrichment(*mesh.element_bounds(hit.element), hit.alpha, gamma, element=hit.element)
        for hit, gamma in zip(mesh.interface_hits, gammas)
    )
    cut_elements = np.array([hit.element for hit in mesh.interface_hits], dtype=int)
    cut_of = np.full(mesh.n_elements, -1, dtype=int)
    cut_of[cut_elements] = np.arange(len(cut_elements))

    if degree == 1:
        std_nodes = np.array(mesh.nodes, dtype=float)
    else:
        mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
        std_nodes = np.empty(2 * mesh.n_elements + 1)
        std_nodes[0::2] = mesh.nodes
        std_nodes[1::2] = mids

    ends = ((0, bc_left), (len(std_nodes) - 1, bc_right))
    constrained = [dof for dof, bc in ends if bc.kind == "dirichlet"]
    dirichlet_values = np.array([bc.value for _, bc in ends if bc.kind == "dirichlet"])

    n_dofs = len(std_nodes) + (degree + 1) * len(enrichments)
    free_index = np.full(n_dofs, -1, dtype=int)
    mask = np.ones(n_dofs, dtype=bool)
    mask[constrained] = False
    free_index[mask] = np.arange(int(mask.sum()))

    space = EnrichedSpace(
        mesh=mesh,
        degree=degree,
        enrichments=enrichments,
        cut_of=cut_of,
        std_nodes=std_nodes,
        constrained=tuple(constrained),
        dirichlet_values=dirichlet_values,
        free_index=free_index,
        n_dofs=n_dofs,
        n_free=int(mask.sum()),
    )
    for table in (space.cut_of, space.std_nodes, space.dirichlet_values, space.free_index):
        table.flags.writeable = False
    return space


def _lagrange_local(degree: int, xl: np.ndarray, xr: np.ndarray, xs: np.ndarray):
    """Lagrange basis of the E elements [xl, xr] at points xs of shape (E, q).

    Returns values and derivatives of shape (E, n_local, q).
    """
    xl, xr = xl[:, None], xr[:, None]
    h = xr - xl
    if degree == 1:
        vals = np.stack([(xr - xs) / h, (xs - xl) / h], axis=1)
        ders = np.stack(
            [np.broadcast_to(-1.0 / h, xs.shape), np.broadcast_to(1.0 / h, xs.shape)], axis=1
        )
    else:
        xm = 0.5 * (xl + xr)
        h2 = h * h
        vals = np.stack([
            2.0 * (xs - xm) * (xs - xr) / h2,
            -4.0 * (xs - xl) * (xs - xr) / h2,
            2.0 * (xs - xl) * (xs - xm) / h2,
        ], axis=1)
        ders = np.stack([
            2.0 * (2.0 * xs - xm - xr) / h2,
            -4.0 * (2.0 * xs - xl - xr) / h2,
            2.0 * (2.0 * xs - xl - xm) / h2,
        ], axis=1)
    return vals, ders


def standard_basis(space: EnrichedSpace, ks: np.ndarray, xs: np.ndarray):
    """The standard DOFs of elements ks evaluated at points xs of shape (E, q).

    Returns (dofs, values, derivatives) of shapes (E, degree + 1) and
    (E, degree + 1, q); enrichment DOFs are left out.
    """
    p = space.degree
    nodes = space.mesh.nodes
    vals, ders = _lagrange_local(p, nodes[ks], nodes[ks + 1], xs)
    return p * ks[:, None] + np.arange(p + 1), vals, ders


def element_basis(space: EnrichedSpace, k: int, xs: np.ndarray, side: str = "left"):
    """All DOFs supported on element k evaluated at points xs.

    Returns (dof_indices, values, derivatives) with values/derivatives of
    shape (n_local, len(xs)).  Enriched entries are products of the local
    Lagrange multiplier with psi, differentiated by the product rule.
    ``side`` ('left' or 'right') selects psi's limit at alpha.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    xs = np.asarray(xs, dtype=float)
    idx, vals, ders = standard_basis(space, np.array([k]), xs[None])
    idx, vals, ders = idx[0], vals[0], ders[0]

    j = space.cut_of[k]
    if j >= 0:
        pv, pd = eval_enrichment(space.enrichments[j], xs, side)
        idx = np.concatenate([idx, space.element_enriched_dofs(k)])
        enr_vals = vals * pv
        enr_ders = ders * pv + vals * pd
        vals = np.vstack([vals, enr_vals])
        ders = np.vstack([ders, enr_ders])
    return idx, vals, ders


@lru_cache(maxsize=None)
def quadrature_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points/weights on [-1, 1]; exact to degree 2*npts - 1.

    The arrays are computed once per size and are read-only.
    """
    if not 1 <= npts <= MAX_QUAD_NPTS:
        raise ValueError(f"quadrature size must be between 1 and {MAX_QUAD_NPTS}")
    points, weights = np.polynomial.legendre.leggauss(npts)
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


class QuadratureBatch(NamedTuple):
    """Gauss sub-intervals of E consecutive elements in one layer, as stacked arrays.

    ``xs`` and ``weights`` (E, q) are the mapped Gauss rule, ``dofs``
    (E, n_local) the DOFs supported on each element, and
    ``values``/``derivatives`` (E, n_local, q) their basis functions at
    ``xs``.  ``layer`` owns every piece of the batch.
    """

    layer: int
    xs: np.ndarray
    weights: np.ndarray
    dofs: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray


def quadrature_pieces(space: EnrichedSpace, quad_npts: int):
    """Every quadrature sub-interval of the mesh, in batches in element order.

    Each run of uncut elements between two cuts is one batch of standard
    Lagrange elements.  A cut element is split at alpha into two batches
    of one piece each: the left piece owned by layer j, the right by
    layer j + 1, with psi one-sided towards the piece.  The Gauss rule of
    ``quad_npts`` points is mapped to every piece.
    """
    ref_x, ref_w = quadrature_rule(quad_npts)

    def mapped_rule(a: np.ndarray, b: np.ndarray):
        half = 0.5 * (b - a)[:, None]
        return a[:, None] + half * (ref_x + 1.0), half * ref_w

    def uncut_run(start: int, stop: int, layer: int):
        if start < stop:
            ks = np.arange(start, stop)
            nodes = space.mesh.nodes
            xs, wq = mapped_rule(nodes[start:stop], nodes[start + 1:stop + 1])
            yield QuadratureBatch(layer, xs, wq, *standard_basis(space, ks, xs))

    start = 0
    for j, psi in enumerate(space.enrichments):
        k = psi.element
        yield from uncut_run(start, k, j)
        pieces = ((psi.x_left, psi.alpha, j, "left"), (psi.alpha, psi.x_right, j + 1, "right"))
        for a, b, layer, side in pieces:
            xs, wq = mapped_rule(np.array([a]), np.array([b]))
            dofs, vals, ders = element_basis(space, k, xs[0], side)
            yield QuadratureBatch(layer, xs, wq, dofs[None], vals[None], ders[None])
        start = k + 1
    yield from uncut_run(start, space.mesh.n_elements, len(space.enrichments))


def eval_basis(space: EnrichedSpace, x: float, side: str = "left"):
    """Entries (dof index, value, derivative) of all DOFs supported at x."""
    k = locate_element(space.mesh, x)
    idx, vals, ders = element_basis(space, k, np.array([x]), side)
    return [(int(i), float(v[0]), float(d[0])) for i, v, d in zip(idx, vals, ders)]


def full_coefficients(space: EnrichedSpace, coeffs) -> np.ndarray:
    """Expand a free-DOF vector to the full DOF table with the space's Dirichlet values."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.n_free,):
        raise ValueError(f"expected {space.n_free} free coefficients, got {coeffs.shape}")
    full = np.empty(space.n_dofs)
    full[space.free_index >= 0] = coeffs[space.free_index[space.free_index >= 0]]
    full[list(space.constrained)] = space.dirichlet_values
    return full


def eval_function(
    space: EnrichedSpace, coeffs, x: float, side: str = "left"
) -> tuple[float, float]:
    """Value and derivative at x of the function with the given free DOFs."""
    full = full_coefficients(space, coeffs)
    k = locate_element(space.mesh, x)
    idx, vals, ders = element_basis(space, k, np.array([x]), side)
    c = full[idx]
    return float(c @ vals[:, 0]), float(c @ ders[:, 0])
