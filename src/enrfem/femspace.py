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

import numpy as np

from .enrichment import EnrichmentFunction, build_enrichment, eval_enrichment
from .mesh import Mesh1D, locate_element

BC_KINDS = ("dirichlet", "neumann")


@dataclass(frozen=True)
class EnrichedSpace:
    """Standard Lagrange DOFs plus enrichment DOFs per interface.

    ``enrichments`` is the cut table, one psi per cut in position order.
    ``cut_of[k]`` is the cut on element k (-1 if uncut) and ``layer[k]``
    the layer of element k's left end.  ``std_nodes`` holds the
    coordinates of the standard DOFs (element endpoints, plus midpoints
    for degree 2).  ``constrained`` lists the global indices of
    Dirichlet-constrained standard DOFs; all enrichment DOFs are free.
    ``free_index`` maps global DOF -> position in the free-DOF vector
    (-1 if constrained).
    """

    mesh: Mesh1D
    degree: int
    enrichments: tuple[EnrichmentFunction, ...]
    cut_of: np.ndarray
    layer: np.ndarray
    std_nodes: np.ndarray
    constrained: tuple[int, ...]
    free_index: np.ndarray
    n_dofs: int
    n_free: int

    @property
    def n_std(self) -> int:
        return len(self.std_nodes)

    def element_std_dofs(self, k: int) -> list[int]:
        if self.degree == 1:
            return [k, k + 1]
        return [2 * k, 2 * k + 1, 2 * k + 2]

    def element_enriched_dofs(self, k: int) -> list[int]:
        """Global indices of the enrichment DOFs living on element k."""
        j = int(self.cut_of[k])
        if j < 0:
            return []
        per = self.degree + 1
        base = self.n_std + per * j
        return list(range(base, base + per))

    def dof_table(self) -> list[dict]:
        """Ordered DOF descriptors: standard nodes first, then enrichment.

        Standard entries carry the node coordinate and constrained flag;
        enriched entries the interface position and their attachment node.
        """
        table = [
            {"kind": "standard", "node": float(x), "constrained": i in self.constrained}
            for i, x in enumerate(self.std_nodes)
        ]
        for pos, psi in enumerate(self.enrichments):
            xl, xr = psi.x_left, psi.x_right
            attach = [xl, xr] if self.degree == 1 else [xl, 0.5 * (xl + xr), xr]
            table.extend(
                {"kind": "enriched", "interface": pos, "attach": node, "constrained": False}
                for node in attach
            )
        return table


def build_space(
    mesh: Mesh1D,
    degree: int,
    gammas,
    bc_left: str,
    bc_right: str,
) -> EnrichedSpace:
    """Enumerate DOFs and build the cut table for the enriched space on ``mesh``.

    ``gammas`` holds one jump parameter per mesh cut, in position order;
    psi is built on each cut element of ``mesh.interface_hits``.
    Dirichlet ends constrain the boundary standard DOF; Neumann ends are
    natural (free).
    """
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    if bc_left not in BC_KINDS or bc_right not in BC_KINDS:
        raise ValueError(f"boundary condition kinds must be one of {BC_KINDS}")
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
    layer = np.searchsorted(cut_elements, np.arange(mesh.n_elements))
    cut_of = np.full(mesh.n_elements, -1, dtype=int)
    cut_of[cut_elements] = layer[cut_elements]

    if degree == 1:
        std_nodes = np.array(mesh.nodes, dtype=float)
    else:
        mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
        std_nodes = np.empty(2 * mesh.n_elements + 1)
        std_nodes[0::2] = mesh.nodes
        std_nodes[1::2] = mids

    constrained = []
    if bc_left == "dirichlet":
        constrained.append(0)
    if bc_right == "dirichlet":
        constrained.append(len(std_nodes) - 1)

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
        layer=layer,
        std_nodes=std_nodes,
        constrained=tuple(constrained),
        free_index=free_index,
        n_dofs=n_dofs,
        n_free=int(mask.sum()),
    )
    for table in (space.cut_of, space.layer, space.std_nodes, space.free_index):
        table.flags.writeable = False
    return space


def _lagrange_local(degree: int, xl: float, xr: float, xs: np.ndarray):
    """Local Lagrange basis values/derivatives at points xs in [xl, xr]."""
    h = xr - xl
    if degree == 1:
        vals = np.stack([(xr - xs) / h, (xs - xl) / h])
        ders = np.stack([np.full_like(xs, -1.0 / h), np.full_like(xs, 1.0 / h)])
    else:
        xm = 0.5 * (xl + xr)
        h2 = h * h
        vals = np.stack([
            2.0 * (xs - xm) * (xs - xr) / h2,
            -4.0 * (xs - xl) * (xs - xr) / h2,
            2.0 * (xs - xl) * (xs - xm) / h2,
        ])
        ders = np.stack([
            2.0 * (2.0 * xs - xm - xr) / h2,
            -4.0 * (2.0 * xs - xl - xr) / h2,
            2.0 * (2.0 * xs - xl - xm) / h2,
        ])
    return vals, ders


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
    xl, xr = space.mesh.element_bounds(k)
    vals, ders = _lagrange_local(space.degree, xl, xr, xs)
    idx = list(space.element_std_dofs(k))

    j = space.cut_of[k]
    if j >= 0:
        pv, pd = eval_enrichment(space.enrichments[j], xs, side)
        idx.extend(space.element_enriched_dofs(k))
        enr_vals = vals * pv
        enr_ders = ders * pv + vals * pd
        vals = np.vstack([vals, enr_vals])
        ders = np.vstack([ders, enr_ders])
    return np.array(idx, dtype=int), vals, ders


def quadrature_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre points/weights on [-1, 1]; exact to degree 2*npts - 1."""
    if not 1 <= npts <= 16:
        raise ValueError("quadrature size must be between 1 and 16")
    return np.polynomial.legendre.leggauss(npts)


def quadrature_pieces(space: EnrichedSpace, quad_npts: int):
    """Every quadrature sub-interval of the mesh, cut elements split at alpha.

    Yields (k, layer, xs, weights, dofs, values, derivatives) per piece in
    element order, with the Gauss rule of ``quad_npts`` points mapped to
    the piece and the basis of element k evaluated there (psi one-sided
    towards the piece).  ``layer`` owns the piece.
    """
    ref_x, ref_w = quadrature_rule(quad_npts)
    for k in range(space.mesh.n_elements):
        xl, xr = space.mesh.element_bounds(k)
        layer = int(space.layer[k])
        j = space.cut_of[k]
        if j < 0:
            pieces = ((xl, xr, layer, "left"),)
        else:
            alpha = space.enrichments[j].alpha
            pieces = ((xl, alpha, layer, "left"), (alpha, xr, layer + 1, "right"))
        for a, b, piece_layer, side in pieces:
            half = 0.5 * (b - a)
            xs = a + half * (ref_x + 1.0)
            dofs, vals, ders = element_basis(space, k, xs, side)
            yield k, piece_layer, xs, half * ref_w, dofs, vals, ders


def eval_basis(space: EnrichedSpace, x: float, side: str = "left"):
    """Entries (dof index, value, derivative) of all DOFs supported at x."""
    k = locate_element(space.mesh, x)
    idx, vals, ders = element_basis(space, k, np.array([x]), side)
    return [(int(i), float(v[0]), float(d[0])) for i, v, d in zip(idx, vals, ders)]


def full_coefficients(space: EnrichedSpace, coeffs, constrained_values=None) -> np.ndarray:
    """Expand a free-DOF vector to the full DOF table (Dirichlet lift)."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (space.n_free,):
        raise ValueError(f"expected {space.n_free} free coefficients, got {coeffs.shape}")
    if constrained_values is None:
        constrained_values = np.zeros(len(space.constrained))
    constrained_values = np.asarray(constrained_values, dtype=float)
    if constrained_values.shape != (len(space.constrained),):
        raise ValueError(
            f"expected {len(space.constrained)} constrained values, "
            f"got {constrained_values.shape}"
        )
    full = np.empty(space.n_dofs)
    full[space.free_index >= 0] = coeffs[space.free_index[space.free_index >= 0]]
    for i, dof in enumerate(space.constrained):
        full[dof] = constrained_values[i]
    return full


def eval_function(
    space: EnrichedSpace, coeffs, x: float, side: str = "left", constrained_values=None
) -> tuple[float, float]:
    """Value and derivative at x of the function with the given free DOFs."""
    full = full_coefficients(space, coeffs, constrained_values)
    k = locate_element(space.mesh, x)
    idx, vals, ders = element_basis(space, k, np.array([x]), side)
    c = full[idx]
    return float(c @ vals[:, 0]), float(c @ ders[:, 0])
