"""Enriched conforming P1/P2 spaces: DOF bookkeeping and basis evaluation.

The space is span{standard Lagrange basis} + span{phi * psi} where psi is
the interface enrichment and phi runs over the Lagrange nodal functions of
the interface element (two hats for degree 1, the three quadratic nodal
functions for degree 2).  Global DOFs are ordered standard-first, then
one enrichment group per interface in position order.  Free DOFs are
numbered in mesh order instead: each cut's enrichment group follows the
left node of its element, so every element's DOFs lie within 2p + 1
free positions of each other and the free matrix is one band.

Each interface cuts exactly one element, and the space's enrichment list
is the one table of cuts: cut j, in position order, is interface j, lies
between layers j and j + 1, and owns the degree + 1 enrichment DOFs that
``_with_enrichment`` numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
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
    and ``cut_of[k]`` the cut on element k (-1 if uncut).  The n_std =
    degree * n_elements + 1 standard DOFs run left to right, element k's
    at degree * k + (0 .. degree).  ``constrained`` lists the global
    indices of Dirichlet-constrained standard DOFs, and
    ``dirichlet_values`` (read-only) the Dirichlet value each one takes;
    all enrichment DOFs are free.
    ``free_index`` maps global DOF -> position in the free-DOF vector
    (-1 if constrained); free positions run in mesh order, a cut's
    enrichment DOFs right after the left node of its element.
    ``layout``, the geometry of the quadrature pieces, is built once.
    """

    mesh: Mesh1D
    degree: int
    enrichments: tuple[EnrichmentFunction, ...]
    cut_of: np.ndarray
    constrained: tuple[int, ...]
    dirichlet_values: np.ndarray
    free_index: np.ndarray
    n_dofs: int
    n_free: int

    @property
    def n_std(self) -> int:
        return self.degree * self.mesh.n_elements + 1

    @cached_property
    def layout(self) -> "CutLayout":
        """The quadrature pieces' geometry, built on first use and shared by every rule size."""
        return _cut_layout(self)


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

    n_std = degree * mesh.n_elements + 1
    ends = ((0, bc_left), (n_std - 1, bc_right))
    constrained = [dof for dof, bc in ends if bc.kind == "dirichlet"]
    dirichlet_values = np.array([bc.value for _, bc in ends if bc.kind == "dirichlet"])

    n_dofs = n_std + (degree + 1) * len(enrichments)
    mesh_order = np.insert(
        np.arange(n_std),
        np.repeat(degree * cut_elements + 1, degree + 1),
        np.arange(n_std, n_dofs),
    )
    is_free = np.ones(n_dofs, dtype=bool)
    is_free[constrained] = False
    free_dofs = mesh_order[is_free[mesh_order]]
    free_index = np.full(n_dofs, -1, dtype=int)
    free_index[free_dofs] = np.arange(len(free_dofs))

    space = EnrichedSpace(
        mesh=mesh,
        degree=degree,
        enrichments=enrichments,
        cut_of=cut_of,
        constrained=tuple(constrained),
        dirichlet_values=dirichlet_values,
        free_index=free_index,
        n_dofs=n_dofs,
        n_free=len(free_dofs),
    )
    for table in (space.cut_of, space.dirichlet_values, space.free_index):
        table.flags.writeable = False
    return space


def _lagrange_local(degree: int, xl: np.ndarray, xr: np.ndarray, xs: np.ndarray):
    """Lagrange basis of the E elements [xl, xr] at points xs of shape (E, q).

    Returns values and derivatives of shape (E, n_local, q).
    """
    xl, xr = xl[:, None], xr[:, None]
    h = xr - xl
    vals = np.empty((len(xs), degree + 1, xs.shape[1]))
    ders = np.empty_like(vals)
    if degree == 1:
        vals[:, 0], vals[:, 1] = (xr - xs) / h, (xs - xl) / h
        ders[:, 0], ders[:, 1] = -1.0 / h, 1.0 / h
    else:
        xm = 0.5 * (xl + xr)
        h2 = h * h
        vals[:, 0] = 2.0 * (xs - xm) * (xs - xr) / h2
        vals[:, 1] = -4.0 * (xs - xl) * (xs - xr) / h2
        vals[:, 2] = 2.0 * (xs - xl) * (xs - xm) / h2
        ders[:, 0] = 2.0 * (2.0 * xs - xm - xr) / h2
        ders[:, 1] = -4.0 * (2.0 * xs - xl - xr) / h2
        ders[:, 2] = 2.0 * (2.0 * xs - xl - xm) / h2
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
    shape (n_local, len(xs)); a cut element's rows come from
    ``_with_enrichment``.  ``side`` ('left' or 'right') selects psi's
    limit at alpha.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    xs = np.asarray(xs, dtype=float)
    rows = Basis(*standard_basis(space, np.array([k]), xs[None]))
    j = space.cut_of[k]
    if j >= 0:
        psi = eval_enrichment(space.enrichments[j], xs, side)
        rows = _with_enrichment(space, np.array([j]), rows, *(a[None, None] for a in psi))
    return tuple(a[0] for a in rows)


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


def exact_rule_size(integrands) -> int:
    """Fewest ``quadrature_rule`` points exact for each (data, its degree, integrand degree).

    Raises, naming the data and its degree, where MAX_QUAD_NPTS points are too few.
    """
    data, data_degree, degree = max(integrands, key=lambda integrand: integrand[2])
    if degree // 2 + 1 > MAX_QUAD_NPTS:
        raise ValueError(f"{data} has degree {data_degree}: integrating it exactly needs "
                         f"{degree // 2 + 1} Gauss points, more than the {MAX_QUAD_NPTS} available")
    return degree // 2 + 1


class Basis(NamedTuple):
    """DOFs (E, n_local) of E quadrature pieces and their basis functions (E, n_local, q)."""

    dofs: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray


def _with_enrichment(space: EnrichedSpace, cuts, rows: Basis, psi_values, psi_derivatives):
    """The full rows of E pieces on the elements of ``cuts`` (E,), from their standard rows.

    psi's values and derivatives on the pieces are (E, 1, q).  Each
    standard function times psi, differentiated by the product rule, is
    appended; the i-th on cut j has DOF n_std + (degree + 1) * j + i.
    """
    per = space.degree + 1
    vals, ders = rows.values, rows.derivatives
    return Basis(
        np.concatenate([rows.dofs, (space.n_std + per * cuts)[:, None] + np.arange(per)], axis=1),
        np.concatenate([vals, vals * psi_values], axis=1),
        np.concatenate([ders, ders * psi_values + vals * psi_derivatives], axis=1),
    )


class CutLayout(NamedTuple):
    """The rule-independent geometry of a space's P = n + c quadrature pieces.

    Pieces run in element order, one per uncut element and two per cut
    element (split at alpha).  ``ends`` (P + 1,) are the nodes with every
    alpha inserted and ``half`` (P, 1) the pieces' half-lengths;
    ``elements`` (P,) and ``layer`` (P, 1) give each piece's element and
    layer, and ``node_layer`` (n - 1,) each interior node's layer (the
    left one at a cut).  ``cut_pieces`` (2c,) are each cut's left, then
    right piece, ``piece_cuts`` their cuts, and ``psi`` every cut's psi as
    one EnrichmentFunction of (c, 1) columns.  ``load_order`` and
    ``block_order`` index the standard batch's entries followed by the cut
    batch's, loads and local matrices respectively, and list them in the
    order of a per-element assembly: piece by piece, a cut piece's entries
    in place of its standard ones.
    """

    ends: np.ndarray
    half: np.ndarray
    elements: np.ndarray
    layer: np.ndarray
    node_layer: np.ndarray
    cut_pieces: np.ndarray
    piece_cuts: np.ndarray
    psi: EnrichmentFunction
    load_order: np.ndarray
    block_order: np.ndarray


def _cut_layout(space: EnrichedSpace) -> CutLayout:
    names = [field.name for field in fields(EnrichmentFunction)]
    columns = np.array([[getattr(psi, name) for name in names] for psi in space.enrichments])
    psi = EnrichmentFunction(*columns.reshape(-1, len(names)).T[:, :, None])
    n = space.mesh.n_elements
    cut_elements = np.array([psi.element for psi in space.enrichments], dtype=int)
    left_pieces = cut_elements + np.arange(len(cut_elements))
    # each alpha lies inside its element, so sorting puts it between the element's nodes
    ends = np.sort(np.concatenate([space.mesh.nodes, psi.alpha[:, 0]]))
    elements = np.sort(np.concatenate([np.arange(n), cut_elements]))
    cut_pieces = np.repeat(left_pieces, 2) + np.tile([0, 1], len(left_pieces))
    per = space.degree + 1
    layout = CutLayout(
        ends=ends,
        half=0.5 * (ends[1:] - ends[:-1])[:, None],
        elements=elements,
        layer=np.searchsorted(left_pieces + 1, np.arange(len(elements)), side="right")[:, None],
        node_layer=np.searchsorted(cut_elements, np.arange(n - 1), side="right"),
        cut_pieces=cut_pieces,
        piece_cuts=np.repeat(np.arange(len(cut_elements)), 2),
        psi=psi,
        load_order=_element_order(len(elements), cut_pieces, per, 2 * per),
        block_order=_element_order(len(elements), cut_pieces, per * per, 4 * per * per),
    )
    for table in layout:
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return layout


def _element_order(n_pieces: int, cut_pieces: np.ndarray, per_standard: int, per_cut: int):
    """Index into [P * per_standard standard entries, 2c * per_cut cut entries] in element order."""
    start = np.arange(n_pieces) * per_standard
    start[cut_pieces] = n_pieces * per_standard + np.arange(len(cut_pieces)) * per_cut
    size = np.full(n_pieces, per_standard)
    size[cut_pieces] = per_cut
    stop = np.cumsum(size)
    return np.repeat(start + size - stop, size) + np.arange(stop[-1])


class Quadrature(NamedTuple):
    """The P = n + c Gauss pieces of a mesh with c cuts, in element order.

    ``xs`` and ``weights`` (P, q) map the rule to each uncut element and to
    both sides of each cut; ``layer`` (P, 1) is each piece's layer.
    ``standard`` has the standard DOFs of every piece, ``cut`` all DOFs of
    the pieces ``cut_pieces`` (each cut's left, then right piece, psi
    one-sided towards it).  A cut piece's ``cut`` row supersedes its
    ``standard`` one.
    """

    xs: np.ndarray
    weights: np.ndarray
    layer: np.ndarray
    standard: Basis
    cut: Basis
    cut_pieces: np.ndarray


def quadrature_pieces(space: EnrichedSpace, q: int) -> Quadrature:
    """The Gauss rule of ``q`` points mapped to every piece of the mesh.

    The pieces come from ``space.layout``.  The basis comes in two
    batches: the standard basis of all pieces, and the cut pieces' rows
    from ``_with_enrichment``, psi evaluated by one ``eval_enrichment``
    call for the left pieces and one for the right.
    """
    ref_x, ref_w = quadrature_rule(q)
    layout = space.layout
    xs = layout.ends[:-1, None] + layout.half * (ref_x + 1.0)
    standard = Basis(*standard_basis(space, layout.elements, xs))
    left, right = (
        eval_enrichment(layout.psi, xs[pieces], side)
        for pieces, side in ((layout.cut_pieces[::2], "left"), (layout.cut_pieces[1::2], "right"))
    )
    psi = (  # row 2j: cut j's left piece, 2j + 1: its right
        np.concatenate(pair, axis=1).reshape(-1, 1, q) for pair in zip(left, right)
    )
    cut_rows = Basis(*(a[layout.cut_pieces] for a in standard))
    cut = _with_enrichment(space, layout.piece_cuts, cut_rows, *psi)
    return Quadrature(xs, layout.half * ref_w, layout.layer, standard, cut, layout.cut_pieces)


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
