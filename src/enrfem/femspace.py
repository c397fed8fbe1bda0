"""Enriched conforming P1/P2 spaces: the enrichment, DOF bookkeeping and basis evaluation.

The space is span{standard Lagrange basis} + span{phi * psi} where psi is
the interface enrichment and phi runs over the Lagrange nodal functions of
the interface element (two hats for degree 1, the three quadratic nodal
functions for degree 2).  On the interface element [x_k, x_{k+1}]
containing alpha, the enrichment

    psi(x) = m1 * (x - x_k)      on [x_k, alpha)
           = m2 * (x - x_{k+1})  on (alpha, x_{k+1}]
           = 0                   elsewhere

with slopes

    m1 = (alpha - x_{k+1}) / (x_{k+1} - x_k)
    m2 = (alpha - x_k - gamma) * (alpha - x_{k+1})
         / ((x_{k+1} - x_k) * (alpha - x_{k+1} - gamma))

vanishes at both element endpoints and satisfies the Robin-type identity
[psi] = gamma * [psi'] at alpha.  gamma = 0 gives the classical continuous
(kink-only) enrichment with [psi'] = 1; ``problem`` derives every other gamma.

Global DOFs are ordered standard-first, then one enrichment group per
interface in position order.  Free DOFs are numbered in mesh order
instead: each cut's enrichment group follows the left node of its
element, so every element's DOFs lie within 2p + 1 free positions of
each other and the free matrix is one band.

Each interface cuts exactly one element.  The mesh's cut columns
(``cut_elements``, ``alphas``) and the space's psi columns
(``enrichments``) are the one table of cuts: cut j, in position order,
is interface j, lies between layers j and j + 1, and owns the degree + 1
enrichment DOFs that ``_with_enrichment`` numbers.

A space on a stacked mesh (``mesh.build_mesh`` of several counts) is
the direct sum of one space per level, built as one: each level numbers
its own standard DOFs after the levels before it, the cut table runs
level by level, and each level's free DOFs follow those of the level
before, so that the free matrix is block diagonal, one band per level.
A space on a mesh of one level is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .mesh import Mesh1D
from .problem import BoundaryCondition

MAX_QUAD_NPTS = 16
M2_DEGENERACY_RTOL = 1e-10  # |alpha - x_{k+1} - gamma| too small: m2 blows up


@dataclass(frozen=True)
class EnrichmentFunction:
    """Piecewise-linear enrichments, one per cut element: each field holds one value per cut.

    A single psi, as ``build_enrichment`` makes from scalars, has scalar fields.
    """

    x_left: np.ndarray    # x_k
    x_right: np.ndarray   # x_{k+1}
    alpha: np.ndarray
    m1: np.ndarray
    m2: np.ndarray

    def __len__(self) -> int:
        return np.size(self.alpha)

    def __getitem__(self, j) -> EnrichmentFunction:
        """Every column indexed by ``j``: cut j's psi, or (c, 1) columns for ``[:, None]``."""
        return EnrichmentFunction(*(column[j] for column in vars(self).values()))


def build_enrichment(x_k, x_k1, alpha, gamma) -> EnrichmentFunction:
    """Construct psi on [x_k, x_k1] breaking at alpha with parameter gamma, elementwise.

    Scalars give one psi, and arrays of one shape one psi per entry.
    Raises ValueError at the first entry that cannot be built.
    """
    x_k, x_k1, alpha, gamma = (np.asarray(v, dtype=float) for v in (x_k, x_k1, alpha, gamma))
    h = x_k1 - x_k
    denom = alpha - x_k1 - gamma
    outside = ~((x_k < alpha) & (alpha < x_k1))
    bad = np.flatnonzero(outside | (np.abs(denom) < M2_DEGENERACY_RTOL * h))
    if bad.size:
        j = bad[0]
        if outside.flat[j]:
            raise ValueError(
                f"alpha={alpha.flat[j]} not strictly inside ({x_k.flat[j]}, {x_k1.flat[j]})"
            )
        raise ValueError("degenerate enrichment denominator; change mesh size")
    m1 = (alpha - x_k1) / h
    m2 = (alpha - x_k - gamma) * (alpha - x_k1) / (h * denom)
    return EnrichmentFunction(*(v[()] for v in (x_k, x_k1, alpha, m1, m2)))  # 0-d to scalars


def eval_enrichment(psi: EnrichmentFunction, xs, side: str) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives of psi at points xs; one-sided at x = alpha.

    ``side`` ('left' or 'right') selects the limit where a point equals
    alpha and is ignored elsewhere.  Total function: (0, 0) outside the
    support, and exactly 0 at the element endpoints.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    xs = np.asarray(xs, dtype=float)
    inside = (xs >= psi.x_left) & (xs <= psi.x_right)
    on_left = xs <= psi.alpha if side == "left" else xs < psi.alpha
    vals = np.where(on_left, psi.m1 * (xs - psi.x_left), psi.m2 * (xs - psi.x_right))
    ders = np.where(on_left, psi.m1, psi.m2)
    return np.where(inside, vals, 0.0), np.where(inside, ders, 0.0)


@dataclass(frozen=True)
class EnrichedSpace:
    """Standard Lagrange DOFs plus enrichment DOFs per interface.

    ``enrichments`` holds the psi of every cut as (c,) columns, in the
    order of ``mesh.cut_elements`` (each level's first at ``mesh.cut_starts``).
    The n_std = degree * n_elements + L standard DOFs of the L levels run
    left to right, level after level: element k of level l has
    degree * k + l + (0 .. degree).  ``constrained`` lists the global
    indices of Dirichlet-constrained standard DOFs, level by level, and
    ``dirichlet_values`` (read-only) the Dirichlet value each one takes;
    all enrichment DOFs are free.
    ``free_index`` maps global DOF -> position in the free-DOF vector
    (-1 if constrained); free positions run in mesh order, a cut's
    enrichment DOFs right after the left node of its element, and
    ``free_starts`` (L + 1,) holds each level's first free position, then
    n_free.  The sizes n_std, n_dofs and n_free are read from these tables.
    ``layout``, the geometry of the quadrature pieces, is built once.
    """

    mesh: Mesh1D
    degree: int
    enrichments: EnrichmentFunction
    constrained: tuple[int, ...]
    dirichlet_values: np.ndarray
    free_index: np.ndarray
    free_starts: np.ndarray

    @property
    def n_std(self) -> int:
        return self.degree * self.mesh.n_elements + self.mesh.n_levels

    @property
    def n_dofs(self) -> int:
        return len(self.free_index)

    @property
    def n_free(self) -> int:
        return int(self.free_starts[-1])

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

    ``gammas`` holds one jump parameter per mesh cut, in the order of
    ``mesh.cut_elements``; psi is built on each cut element.  On every
    level, a Dirichlet end fixes the boundary standard DOF to its value;
    a Neumann end is natural (free).  Raises ValueError where a cut's psi
    cannot be built.
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    gammas = tuple(gammas)
    cut_elements = mesh.cut_elements
    if len(gammas) != len(cut_elements):
        raise ValueError(
            f"{len(gammas)} gammas given for the mesh's {len(cut_elements)} interface elements"
        )
    left = cut_elements + mesh.element_level[cut_elements]  # each cut element's left node
    enrichments = build_enrichment(mesh.nodes[left], mesh.nodes[left + 1], mesh.alphas, gammas)

    levels = mesh.n_levels
    first = degree * mesh.starts + np.arange(levels + 1)  # each level's first standard DOF, then n_std
    n_std = int(first[-1])
    firsts = first.tolist()
    constrained = [dof for i, j in zip(firsts, firsts[1:])
                   for dof, bc in ((i, bc_left), (j - 1, bc_right)) if bc.kind == "dirichlet"]
    values = [bc.value for bc in (bc_left, bc_right) if bc.kind == "dirichlet"]

    # the DOFs in mesh order: cut j's group follows its element's left node,
    # after the j groups and the standard DOFs before it
    per = degree + 1
    n_dofs = n_std + per * len(cut_elements)
    after_left = degree * cut_elements + mesh.element_level[cut_elements] + 1
    is_enrichment = np.zeros(n_dofs, dtype=bool)
    is_enrichment[((after_left + per * np.arange(len(cut_elements)))[:, None]
                   + np.arange(per)).ravel()] = True
    mesh_order = np.empty(n_dofs, dtype=int)
    mesh_order[~is_enrichment] = np.arange(n_std)
    mesh_order[is_enrichment] = np.arange(n_std, n_dofs)
    is_free = np.ones(n_dofs, dtype=bool)
    is_free[constrained] = False
    free_dofs = mesh_order[is_free[mesh_order]]
    free_index = np.full(n_dofs, -1, dtype=int)
    free_index[free_dofs] = np.arange(len(free_dofs))

    space = EnrichedSpace(
        mesh=mesh,
        degree=degree,
        enrichments=enrichments,
        constrained=tuple(constrained),
        dirichlet_values=np.array(values * levels, dtype=float),
        free_index=free_index,
        # a level's free DOFs follow the earlier levels' DOFs, less their constrained ones
        free_starts=first + (degree + 1) * mesh.cut_starts - len(values) * np.arange(levels + 1),
    )
    for table in (*vars(enrichments).values(), space.dirichlet_values,
                  space.free_index, space.free_starts):
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
        dl, dm, dr, x2 = xs - xl, xs - xm, xs - xr, 2.0 * xs
        vals[:, 0] = 2.0 * dm * dr / h2
        vals[:, 1] = -4.0 * dl * dr / h2
        vals[:, 2] = 2.0 * dl * dm / h2
        ders[:, 0] = 2.0 * (x2 - xm - xr) / h2
        ders[:, 1] = -4.0 * (x2 - xl - xr) / h2
        ders[:, 2] = 2.0 * (x2 - xl - xm) / h2
    return vals, ders


def standard_basis(space: EnrichedSpace, ks: np.ndarray, xs: np.ndarray):
    """The standard DOFs of elements ks evaluated at points xs of shape (E, q).

    Returns (dofs, values, derivatives) of shapes (E, degree + 1) and
    (E, degree + 1, q); enrichment DOFs are left out.
    """
    p = space.degree
    nodes = space.mesh.nodes
    level = space.mesh.element_level[ks]
    left = ks + level  # each element's left node
    vals, ders = _lagrange_local(p, nodes[left], nodes[left + 1], xs)
    return (p * ks + level)[:, None] + np.arange(p + 1), vals, ders


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
    """Fewest ``quadrature_rule`` points exact for each (data, layer, its degree, integrand degree).

    Raises, naming the data on its layer and its degree, where
    MAX_QUAD_NPTS points are too few.
    """
    data, layer, data_degree, degree = max(integrands, key=lambda integrand: integrand[3])
    if degree // 2 + 1 > MAX_QUAD_NPTS:
        raise ValueError(f"{data} on layer {layer} has degree {data_degree}: integrating it "
                         f"exactly needs {degree // 2 + 1} Gauss points, more than the "
                         f"{MAX_QUAD_NPTS} available")
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
    element (split at alpha), so level l's pieces start at piece
    mesh.starts[l] + mesh.cut_starts[l].  ``lower`` and ``half`` (P, 1) are the
    pieces' left ends and half-lengths; ``elements`` (P,) and ``layer``
    (P, 1) give each piece's element and its layer within its level.
    ``node_elements`` (n - L,) is the element left of each interior node,
    level by level, and ``node_layer`` each interior node's layer (the
    left one at a cut).  ``cut_pieces`` (2c,) are each cut's left, then
    right piece.
    """

    lower: np.ndarray
    half: np.ndarray
    elements: np.ndarray
    layer: np.ndarray
    node_elements: np.ndarray
    node_layer: np.ndarray
    cut_pieces: np.ndarray


def _cut_layout(space: EnrichedSpace) -> CutLayout:
    mesh = space.mesh
    n, levels = mesh.n_elements, mesh.n_levels
    cut_elements, cut_starts = mesh.cut_elements, mesh.cut_starts
    left_pieces = cut_elements + np.arange(len(cut_elements))
    # each level's nodes with its alphas inserted, each after its element's left node;
    # the pieces lie between consecutive ends, except where one level's ends meet the next's
    is_alpha = np.zeros(len(mesh.nodes) + len(cut_elements), dtype=bool)
    is_alpha[left_pieces + mesh.element_level[cut_elements] + 1] = True
    ends = np.empty(len(is_alpha))
    ends[is_alpha] = mesh.alphas
    ends[~is_alpha] = mesh.nodes
    is_piece = np.ones(len(ends) - 1, dtype=bool)
    is_piece[(mesh.starts + cut_starts)[1:-1] + np.arange(levels - 1)] = False
    lower, upper = ends[:-1][is_piece], ends[1:][is_piece]
    elements = np.sort(np.concatenate([np.arange(n), cut_elements]))
    layer = np.searchsorted(left_pieces + 1, np.arange(len(elements)), side="right")
    has_right_node = np.ones(n, dtype=bool)  # every element but each level's last
    has_right_node[mesh.starts[1:] - 1] = False
    node_elements = np.flatnonzero(has_right_node)
    node_layer = np.searchsorted(cut_elements, node_elements, side="right")
    cut_pieces = (left_pieces[:, None] + np.arange(2)).ravel()
    layout = CutLayout(
        lower=lower[:, None],
        half=0.5 * (upper - lower)[:, None],
        elements=elements,
        layer=(layer - cut_starts[mesh.element_level[elements]])[:, None],
        node_elements=node_elements,
        node_layer=node_layer - cut_starts[mesh.element_level[node_elements]],
        cut_pieces=cut_pieces,
    )
    for table in layout:
        table.flags.writeable = False
    return layout


class Quadrature(NamedTuple):
    """The P = n + c Gauss pieces of a mesh with c cuts, in element order.

    ``xs`` and ``weights`` (P, q) map the rule to each uncut element and to
    both sides of each cut.  The pieces' geometry is ``space.layout``'s.
    ``standard`` has the standard DOFs of every piece, ``cut`` all DOFs of
    the pieces ``cut_pieces`` (each cut's left, then right piece, psi
    one-sided towards it).  A cut piece's ``cut`` row supersedes its
    ``standard`` one.
    """

    xs: np.ndarray
    weights: np.ndarray
    standard: Basis
    cut: Basis


def quadrature_pieces(space: EnrichedSpace, q: int) -> Quadrature:
    """The Gauss rule of ``q`` points mapped to every piece of the mesh.

    The pieces come from ``space.layout``.  The basis comes in two
    batches: the standard basis of all pieces, and the cut pieces' rows
    from ``cut_rows``.
    """
    ref_x, ref_w = quadrature_rule(q)
    layout = space.layout
    xs = layout.lower + layout.half * (ref_x + 1.0)
    standard = Basis(*standard_basis(space, layout.elements, xs))
    cut = cut_rows(space, Basis(*(a[layout.cut_pieces] for a in standard)), xs[layout.cut_pieces])
    return Quadrature(xs, layout.half * ref_w, standard, cut)


def cut_rows(space: EnrichedSpace, rows: Basis, xs: np.ndarray) -> Basis:
    """The full rows of the 2c cut pieces from their standard ``rows``, at points xs (2c, q).

    Row 2j is cut j's left piece and row 2j + 1 its right piece, psi
    one-sided towards it: one ``eval_enrichment`` call for the left
    pieces and one for the right, interleaved for ``_with_enrichment``.
    """
    psi, q = space.enrichments[:, None], xs.shape[1]
    left, right = (eval_enrichment(psi, xs[i::2], side) for i, side in enumerate(("left", "right")))
    psi_rows = (np.concatenate(pair, axis=1).reshape(-1, 1, q) for pair in zip(left, right))
    return _with_enrichment(space, np.arange(len(xs)) // 2, rows, *psi_rows)


def interface_traces(space: EnrichedSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dofs, left, right), each (c, 2(degree + 1)): every cut's DOFs and their limits at alpha.

    ``left`` and ``right`` hold the values of the cut's functions at its
    alpha from either side, in the order of ``dofs``.  All cuts come in
    one batch: one ``standard_basis`` and one ``cut_rows`` call at the alphas.
    """
    layout = space.layout
    alpha = np.repeat(space.enrichments.alpha, 2)[:, None]  # (2c, 1)
    rows = Basis(*standard_basis(space, layout.elements[layout.cut_pieces], alpha))
    both = cut_rows(space, rows, alpha)
    return both.dofs[::2], both.values[::2, :, 0], both.values[1::2, :, 0]


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
    space: EnrichedSpace, coeffs, xs, side: str = "left"
) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives at the points xs of the function with the given free DOFs.

    ``xs`` is a 1-D array of points in [a, b].  Returns two arrays of
    shape (L, len(xs)), one row per level.  A point on a node is read on
    the element to its right, and b on the last element; ``side`` ('left'
    or 'right') selects psi's limit at alpha.  The rows come in two
    batches, as in ``quadrature_pieces``: the standard basis of every
    point, then all DOFs of the points on cut elements, which supersede
    their standard rows.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"xs must be a 1-D array of points, got shape {xs.shape}")
    full = full_coefficients(space, coeffs)
    mesh = space.mesh
    first = mesh.starts + np.arange(mesh.n_levels + 1)  # each level's first node, then len(nodes)
    ks = np.empty((mesh.n_levels, len(xs)), dtype=int)
    for level in range(mesh.n_levels):
        nodes = mesh.nodes[first[level]:first[level + 1]]
        outside = ~((nodes[0] <= xs) & (xs <= nodes[-1]))  # NaN included
        if outside.any():
            raise ValueError(f"x={float(xs[np.argmax(outside)])} outside "
                             f"[{float(nodes[0])}, {float(nodes[-1])}]")
        right = np.minimum(np.searchsorted(nodes, xs, side="right"), len(nodes) - 1)
        ks[level] = mesh.starts[level] + right - 1
    ks, points = ks.ravel(), np.tile(xs, mesh.n_levels)[:, None]
    rows = Basis(*standard_basis(space, ks, points))
    on_cut = np.flatnonzero(np.isin(ks, mesh.cut_elements))
    cuts = np.searchsorted(mesh.cut_elements, ks[on_cut])
    psi = eval_enrichment(space.enrichments[cuts], points[on_cut, 0], side)
    cut = _with_enrichment(space, cuts, Basis(*(a[on_cut] for a in rows)),
                           *(a[:, None, None] for a in psi))
    values, derivatives = np.empty(len(ks)), np.empty(len(ks))
    for basis, pieces in ((rows, slice(None)), (cut, on_cut)):
        coef = full[basis.dofs][:, None]
        values[pieces] = (coef @ basis.values)[:, 0, 0]
        derivatives[pieces] = (coef @ basis.derivatives)[:, 0, 0]
    return values.reshape(mesh.n_levels, -1), derivatives.reshape(mesh.n_levels, -1)
