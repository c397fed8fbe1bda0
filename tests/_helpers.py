"""Shared builders for the test suite."""

import bisect
import dataclasses

import numpy as np
from numpy.polynomial import Polynomial

from enrfem.analysis import ErrorReport, polynomial_branches
from enrfem.assembly import (
    BoundaryCondition,
    assemble_system,
    solve_system,
    space_for_problem,
)
from enrfem.bench import catalog_problem
from enrfem.enrichment import eval_enrichment
from enrfem.femspace import element_basis, full_coefficients, quadrature_rule
from enrfem.mesh import build_mesh


def solve_benchmark(pid, n, degree=None, quad_npts=6):
    """Mesh, space, assembled system, and solved coefficients for one run."""
    entry = catalog_problem(pid)
    degree = entry.degree if degree is None else degree
    a, b = entry.problem.domain
    mesh = build_mesh(a, b, n, [s.alpha for s in entry.problem.interfaces])
    space = space_for_problem(entry.problem, mesh, degree)
    system = assemble_system(entry.problem, space, quad_npts)
    coeffs = solve_system(system)
    return entry, mesh, space, system, coeffs


def constant_patch_problem(pid, c=0.7):
    """Benchmark geometry with zeroed convection and exact constant solution.

    Keeps the diffusivity, reaction, interfaces (including the implicit
    jump coupling), and boundary-condition kinds of the benchmark; sets
    f = w*c and Dirichlet data c so u == c solves the problem exactly.
    """
    problem = catalog_problem(pid).problem
    n_layers = len(problem.diffusivity)
    zero = Polynomial([0.0])
    const = Polynomial([float(c)])
    exact = polynomial_branches([const] * n_layers)

    def with_value(bc):
        if bc.kind == "dirichlet":
            return BoundaryCondition.dirichlet(c)
        return bc

    patched = dataclasses.replace(
        problem,
        conv_delta=(zero,) * n_layers,
        source=tuple(w * const for w in problem.reaction),
        bc_left=with_value(problem.bc_left),
        bc_right=with_value(problem.bc_right),
        exact=exact,
    )
    return patched, exact


def psi_jumps(psi):
    """([psi], [psi']) at alpha: right minus left limits from eval_enrichment."""
    at = np.array([psi.alpha])
    v_left, d_left = eval_enrichment(psi, at, "left")
    v_right, d_right = eval_enrichment(psi, at, "right")
    return float(v_right[0] - v_left[0]), float(d_right[0] - d_left[0])


def constant_coefficient_vector(space, c):
    """Free-DOF vector representing the constant c (enrichment DOFs zero)."""
    full = np.zeros(space.n_dofs)
    full[: space.n_std] = c
    return full[space.free_index >= 0]


# ------------------------------------------------ per-element reference oracle
#
# The program integrates runs of uncut elements in stacked batches.  The
# functions below integrate one element piece at a time, with the same
# floating-point operations in the same order, so the batched results must
# equal theirs bit for bit.

def reference_pieces(space, quad_npts):
    """(layer, xs, weights, dofs, values, derivatives) per piece, element by element."""
    ref_x, ref_w = quadrature_rule(quad_npts)
    alphas = [psi.alpha for psi in space.enrichments]
    for k in range(space.mesh.n_elements):
        xl, xr = space.mesh.element_bounds(k)
        layer = bisect.bisect_left(alphas, xl)
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
            yield piece_layer, xs, half * ref_w, dofs, vals, ders


def reference_assembly(problem, space, quad_npts):
    """(band, border_cols, border_rows, rhs) from a dense per-element assembly."""
    a_full = np.zeros((space.n_dofs, space.n_dofs))
    b_full = np.zeros(space.n_dofs)
    for layer, xs, wq, dofs, vals, ders in reference_pieces(space, quad_npts):
        d_c = problem.diffusivity[layer](xs)
        conv = problem.conv_delta[layer](xs)
        w_c = problem.reaction[layer](xs)
        f_c = problem.source[layer](xs)
        local = (ders * (wq * d_c)) @ ders.T
        if np.any(conv != 0.0):
            local += (ders * (wq * (-2.0) * conv)) @ vals.T
        if np.any(w_c != 0.0):
            local += (vals * (wq * w_c)) @ vals.T
        a_full[np.ix_(dofs, dofs)] += local
        b_full[dofs] += (vals * (wq * f_c)).sum(axis=1)
    for j, (spec, psi) in enumerate(zip(problem.interfaces, space.enrichments)):
        if spec.lam > 0:
            x = np.array([psi.alpha])
            dofs, v_left, _ = element_basis(space, psi.element, x, "left")
            _, v_right, _ = element_basis(space, psi.element, x, "right")
            jump = v_right[:, 0] - v_left[:, 0]
            a_full[np.ix_(dofs, dofs)] += np.outer(jump, jump) / spec.lam
            # -F(alpha-)[q] with F(alpha-) = -[u]/lam + 2 delta- u-(alpha)
            delta_minus = problem.conv_delta[j](psi.alpha)
            if delta_minus != 0.0:
                a_full[np.ix_(dofs, dofs)] += -2.0 * delta_minus * np.outer(jump, v_left[:, 0])

    free = np.flatnonzero(space.free_index >= 0)
    constrained = list(space.constrained)
    matrix = a_full[np.ix_(free, free)]
    rhs = b_full[free]
    if constrained:
        values = np.array([
            (problem.bc_left if dof == 0 else problem.bc_right).value for dof in constrained
        ])
        rhs = rhs - a_full[np.ix_(free, constrained)] @ values

    p = space.degree
    ns = space.n_std - len(constrained)
    band = np.zeros((2 * p + 1, ns))
    for i in range(ns):
        for j in range(ns):
            if abs(i - j) <= p:
                band[p + i - j, j] = matrix[i, j]
            else:
                assert matrix[i, j] == 0.0, "standard block wider than its band"
    return band, matrix[:ns, ns:], matrix[ns:], rhs


def reference_errors(exact, space, coeffs, quad_npts):
    """ErrorReport summed piece by piece, with the nodal error node by node."""
    full = full_coefficients(space, coeffs)
    l2_sq = 0.0
    h1_sq = 0.0
    for layer, xs, wq, dofs, vals, ders in reference_pieces(space, quad_npts):
        value, deriv = exact[layer]
        e = value(xs) - full[dofs] @ vals
        de = deriv(xs) - full[dofs] @ ders
        l2_sq += float(wq @ (e * e))
        h1_sq += float(wq @ (de * de))
    alphas = [psi.alpha for psi in space.enrichments]
    nodal = 0.0
    for i in range(1, space.mesh.n_elements):
        x = float(space.mesh.nodes[i])
        value, _ = exact[bisect.bisect_left(alphas, x)]  # the left branch at a cut
        dofs, vals, _ = element_basis(space, i - 1, np.array([x]), "left")
        nodal = max(nodal, abs(float(value(x)) - float(full[dofs] @ vals[:, 0])))
    return ErrorReport(l2=np.sqrt(l2_sq), h1_broken=np.sqrt(h1_sq), nodal_max=nodal)
