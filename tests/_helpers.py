"""Shared builders for the test suite."""

import bisect
import dataclasses
from pathlib import Path

import numpy as np
import scipy.linalg
from numpy.polynomial import Polynomial

from enrfem.analysis import ErrorReport, polynomial_branches
from enrfem.assembly import (
    BoundaryCondition,
    assemble_system,
    solve_system,
    space_for_problem,
)
from enrfem.bench import catalog_problem
from enrfem.cli import load_problem_file
from enrfem.enrichment import eval_enrichment
from enrfem.femspace import full_coefficients, quadrature_rule, standard_basis
from enrfem.mesh import build_mesh

FIXTURES = Path(__file__).parent / "fixtures"


def solve_benchmark(pid, n, degree=None):
    """Mesh, space, assembled system, and solved coefficients for one run."""
    entry = catalog_problem(pid)
    degree = entry.degree if degree is None else degree
    a, b = entry.problem.domain
    mesh = build_mesh(a, b, n, [s.alpha for s in entry.problem.interfaces])
    space = space_for_problem(entry.problem, mesh, degree)
    system = assemble_system(entry.problem, space)
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


def derived_rule_cases():
    """(problem, space) of every catalog problem at n = 8 and 16, and of sweep-117.json at P2."""
    cases = [(entry.problem, entry.degree) for entry in map(catalog_problem, range(1, 7))]
    cases.append((load_problem_file(FIXTURES / "sweep-117.json"), 2))
    for n in (8, 16):
        for problem, degree in cases:
            mesh = build_mesh(*problem.domain, n, problem.breakpoints)
            yield problem, space_for_problem(problem, mesh, degree)


def psi_jumps(psi):
    """([psi], [psi']) at alpha: right minus left limits from eval_enrichment."""
    at = np.array([psi.alpha])
    v_left, d_left = eval_enrichment(psi, at, "left")
    v_right, d_right = eval_enrichment(psi, at, "right")
    return float(v_right[0] - v_left[0]), float(d_right[0] - d_left[0])


def interpolate_enriched(exact, space):
    """Free-DOF coefficients of the P1 enriched interpolant of ``exact``: an oracle.

    Standard DOFs receive the nodal values of the branch owning each node
    (the left one at a cut).  The two enrichment DOFs of cut j, n_std + 2j
    and n_std + 2j + 1, receive (d2 - d1)(x_k) + delta and
    (d2 - d1)(x_{k+1}) + delta, where d1, d2 are the extended derivatives
    of branches j and j + 1 and delta = -[u]_alpha / (alpha - x_{k+1})
    kills the solution jump.  Raises unless the space has degree 1 and
    ``exact`` one branch per layer.
    """
    if space.degree != 1:
        raise ValueError("the interpolation operator is defined for degree 1 only")
    n_layers = len(space.enrichments) + 1
    if len(exact) != n_layers:
        raise ValueError(f"{len(exact)} exact branches for the space's {n_layers} layers")
    alphas = [psi.alpha for psi in space.enrichments]
    full = np.zeros(space.n_dofs)
    for i, x in enumerate(space.mesh.nodes):
        value, _ = exact[bisect.bisect_left(alphas, x)]
        full[i] = value(x)
    for j, psi in enumerate(space.enrichments):
        (v_left, d_left), (v_right, d_right) = exact[j], exact[j + 1]
        jump = float(v_right(psi.alpha)) - float(v_left(psi.alpha))
        delta = -jump / (psi.alpha - psi.x_right)
        for dof, x in zip((space.n_std + 2 * j, space.n_std + 2 * j + 1), (psi.x_left, psi.x_right)):
            full[dof] = float(d_right(x)) - float(d_left(x)) + delta

    free = space.free_index >= 0
    coeffs = np.empty(space.n_free)
    coeffs[space.free_index[free]] = full[free]
    return coeffs


def constant_coefficient_vector(space, c):
    """Free-DOF vector representing the constant c (enrichment DOFs zero)."""
    coeffs = np.zeros(space.n_free)
    std = space.free_index[: space.n_std]
    coeffs[std[std >= 0]] = c
    return coeffs


def refined_solve(system, steps=5):
    """The free system solved by a dense LU and `steps` rounds of refinement.

    Each residual is taken in np.longdouble, so the result is accurate to
    about cond(A) times the extended precision's epsilon: a reference for
    the forward error of `solve_system`.
    """
    matrix = system.matrix
    return _refined_lu_solve(matrix, scipy.linalg.lu_factor(matrix), system.rhs, 0, steps)


def _refined_lu_solve(matrix, lu, rhs, trans, steps):
    """A x = rhs (A^T x = rhs for trans = 1) from ``lu``, refined with np.longdouble residuals."""
    wide = matrix.astype(np.longdouble)
    if trans:
        wide = wide.T
    x = scipy.linalg.lu_solve(lu, rhs, trans=trans)
    for _ in range(steps):
        residual = rhs.astype(np.longdouble) - wide @ x.astype(np.longdouble)
        x = x + scipy.linalg.lu_solve(lu, residual.astype(float), trans=trans)
    return x


def dense_condition_number(matrix):
    """2-norm condition number from the full singular spectrum, O(n^3): an oracle."""
    sigma = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    if sigma[-1] == 0.0:
        return float("inf")
    return float(sigma[0] / sigma[-1])


def refined_condition_number(matrix, iterations=8, steps=5):
    """sigma_max from svdvals over sigma_min from inverse iteration on A^T A.

    Each solve of the iteration is refined as in `refined_solve`, so
    sigma_min is not limited to the dense SVD's absolute accuracy of about
    eps * sigma_max.
    """
    lu = scipy.linalg.lu_factor(matrix)
    x = np.ones(len(matrix))
    for _ in range(iterations):
        x = x / np.linalg.norm(x)
        z = _refined_lu_solve(matrix, lu, _refined_lu_solve(matrix, lu, x, 1, steps), 0, steps)
        inverse_sigma_min_sq = x @ z  # Rayleigh quotient of (A^T A)^-1
        x = z
    return float(scipy.linalg.svdvals(matrix)[0] * np.sqrt(inverse_sigma_min_sq))


# ------------------------------------------------ per-element reference oracle
#
# The program integrates all pieces of a level in stacked batches.  The
# functions below integrate one element piece at a time, with the same
# floating-point operations in the same order, so the batched results must
# equal theirs bit for bit.

def reference_basis(space, k, xs, side):
    """(dofs, values, derivatives) of all DOFs on element k at points xs, written out.

    The standard rows come from ``standard_basis``.  On the element of cut
    j, the enrichment rows follow: each standard function times psi, its
    derivative by the product rule, with DOFs n_std + (p + 1) j + (0 .. p).
    """
    dofs, vals, ders = (a[0] for a in standard_basis(space, np.array([k]), xs[None]))
    j = space.cut_of[k]
    if j >= 0:
        per = space.degree + 1
        psi_values, psi_derivatives = eval_enrichment(space.enrichments[j], xs, side)
        dofs = np.concatenate([dofs, space.n_std + per * j + np.arange(per)])
        vals, ders = (
            np.vstack([vals, vals * psi_values]),
            np.vstack([ders, ders * psi_values + vals * psi_derivatives]),
        )
    return dofs, vals, ders


def reference_pieces(space, q):
    """(layer, xs, weights, dofs, values, derivatives) per piece, element by element."""
    ref_x, ref_w = quadrature_rule(q)
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
            dofs, vals, ders = reference_basis(space, k, xs, side)
            yield piece_layer, xs, half * ref_w, dofs, vals, ders


def reference_assembly(problem, space, q):
    """(band, rhs) in free order from a dense per-element assembly with a q-point rule.

    The half-width is 2p + 1 with cuts and p without, as documented for
    AssembledSystem, and every entry outside it must vanish.
    """
    a_full = np.zeros((space.n_dofs, space.n_dofs))
    b_full = np.zeros(space.n_dofs)
    for layer, xs, wq, dofs, vals, ders in reference_pieces(space, q):
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
            dofs, v_left, _ = reference_basis(space, psi.element, x, "left")
            _, v_right, _ = reference_basis(space, psi.element, x, "right")
            jump = v_right[:, 0] - v_left[:, 0]
            a_full[np.ix_(dofs, dofs)] += np.outer(jump, jump) / spec.lam
            # -F(alpha-)[q] with F(alpha-) = -[u]/lam + 2 delta- u-(alpha)
            delta_minus = problem.conv_delta[j](psi.alpha)
            if delta_minus != 0.0:
                a_full[np.ix_(dofs, dofs)] += -2.0 * delta_minus * np.outer(jump, v_left[:, 0])

    free = np.empty(space.n_free, dtype=int)  # global DOF at each free position
    free[space.free_index[space.free_index >= 0]] = np.flatnonzero(space.free_index >= 0)
    constrained = list(space.constrained)
    matrix = a_full[np.ix_(free, free)]
    rhs = b_full[free]
    if constrained:
        values = np.array([
            (problem.bc_left if dof == 0 else problem.bc_right).value for dof in constrained
        ])
        rhs = rhs - a_full[np.ix_(free, constrained)] @ values

    q = 2 * space.degree + 1 if space.enrichments else space.degree
    band = np.zeros((2 * q + 1, space.n_free))
    for i in range(space.n_free):
        for j in range(space.n_free):
            if abs(i - j) <= q:
                band[q + i - j, j] = matrix[i, j]
            else:
                assert matrix[i, j] == 0.0, "free matrix wider than its band"
    return band, rhs


def reference_errors(exact, space, coeffs, q):
    """ErrorReport summed piece by piece with a q-point rule, with the nodal error node by node."""
    full = full_coefficients(space, coeffs)
    l2_sq = 0.0
    h1_sq = 0.0
    for layer, xs, wq, dofs, vals, ders in reference_pieces(space, q):
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
        dofs, vals, _ = reference_basis(space, i - 1, np.array([x]), "left")
        nodal = max(nodal, abs(float(value(x)) - float(full[dofs] @ vals[:, 0])))
    return ErrorReport(l2=np.sqrt(l2_sq), h1_broken=np.sqrt(h1_sq), nodal_max=nodal)
