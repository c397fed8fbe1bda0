"""Shared builders for the test suite."""

import bisect
import dataclasses
from itertools import accumulate
from pathlib import Path

import numpy as np
import scipy.linalg
from numpy.polynomial import Polynomial

from enrfem import eval_enrichment
from enrfem.analysis import ErrorReport, compute_errors, error_rule_size, observed_orders
from enrfem.assembly import (
    BandSystem,
    assemble_system,
    condition_number,
    solve_system,
    space_for_problem,
)
from enrfem.cli import load_problem_file
from enrfem.femspace import (
    Basis,
    full_coefficients,
    quadrature_pieces,
    quadrature_rule,
    standard_basis,
)
from enrfem.mesh import Mesh1D, build_mesh
from enrfem.problem import BoundaryCondition, catalog_problem, layer_values

FIXTURES = Path(__file__).parent / "fixtures"


def stack_meshes(meshes) -> Mesh1D:
    """The disjoint union of ``meshes`` (any iterable), their levels in order, as one mesh.

    ``build_mesh`` of several counts builds the same stack in one pass;
    this is its oracle.
    """
    meshes = list(meshes)
    if not meshes:
        raise ValueError("no mesh to stack")
    offsets = list(accumulate((mesh.n_elements for mesh in meshes), initial=0))
    return Mesh1D(
        nodes=np.concatenate([mesh.nodes for mesh in meshes]),
        cut_elements=np.concatenate(
            [mesh.cut_elements + offset for mesh, offset in zip(meshes, offsets)]
        ),
        alphas=np.concatenate([mesh.alphas for mesh in meshes]),
        starts=np.array([start + offset for mesh, offset in zip(meshes, offsets)
                         for start in mesh.starts[:-1].tolist()] + offsets[-1:]),
    )


def split_levels(system):
    """Each level's system of a stacked ``system``: its band columns and its rhs rows (views)."""
    starts = system.starts.tolist()
    return [BandSystem(system.band[:, i:j], system.rhs[i:j]) for i, j in zip(starts, starts[1:])]


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


def per_level_rows(problem, degree, h0, levels, with_cond=False):
    """``run_convergence``'s rows from a loop over the levels, one space each: an oracle.

    Every mesh is built first; then each level runs space, assembly,
    solve, errors and (with ``with_cond``) cond on its own mesh, and the
    first failure is raised as "level i (n=...): ...".  The orders follow
    as in ``run_convergence``.
    """
    a, b = problem.domain
    n0 = round((b - a) / h0)
    meshes = []
    for level in range(levels):
        try:
            meshes.append(build_mesh(a, b, n0 * 2**level, problem.breakpoints))
        except ValueError as exc:
            raise type(exc)(f"level {level} (n={n0 * 2**level}): {exc}") from exc
    rows = []
    for level, mesh in enumerate(meshes):
        try:
            space = space_for_problem(problem, mesh, degree)
            system = assemble_system(problem, space)
            coeffs = solve_system(system)
            (report,) = compute_errors(problem, space, coeffs)
            rows.append({
                "h": (b - a) / mesh.n_elements,
                "l2": report.l2,
                "h1_broken": report.h1_broken,
                "nodal": report.nodal_max,
                "cond": condition_number(system).item() if with_cond else None,
            })
        except (ValueError, ArithmeticError) as exc:
            raise type(exc)(f"level {level} (n={mesh.n_elements}): {exc}") from exc
    for key, name in (("l2", "order_l2"), ("h1_broken", "order_h1"), ("nodal", "order_nodal")):
        errs = [row[key] for row in rows]
        col = observed_orders([row["h"] for row in rows], errs) if levels > 1 and min(errs) > 0 else []
        for i, row in enumerate(rows):
            row[name] = col[i - 1] if i > 0 and col else None
    return rows


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
    exact = (const,) * n_layers

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
    (``Polynomial.deriv``) of branches j and j + 1 and
    delta = -[u]_alpha / (alpha - x_{k+1}) kills the solution jump.
    Raises unless the space has degree 1 and ``exact`` one branch per
    layer.
    """
    if space.degree != 1:
        raise ValueError("the interpolation operator is defined for degree 1 only")
    n_layers = len(space.enrichments) + 1
    if len(exact) != n_layers:
        raise ValueError(f"{len(exact)} exact branches for the space's {n_layers} layers")
    psi = space.enrichments
    alphas = psi.alpha.tolist()
    full = np.zeros(space.n_dofs)
    for i, x in enumerate(space.mesh.nodes):
        full[i] = exact[bisect.bisect_left(alphas, x)](x)
    for j, alpha in enumerate(alphas):
        v_left, v_right = exact[j], exact[j + 1]
        d_left, d_right = v_left.deriv(), v_right.deriv()
        jump = float(v_right(alpha)) - float(v_left(alpha))
        ends = (float(psi.x_left[j]), float(psi.x_right[j]))
        delta = -jump / (alpha - ends[1])
        for dof, x in zip((space.n_std + 2 * j, space.n_std + 2 * j + 1), ends):
            full[dof] = float(d_right(x)) - float(d_left(x)) + delta

    free = space.free_index >= 0
    coeffs = np.empty(space.n_free)
    coeffs[space.free_index[free]] = full[free]
    return coeffs


def h1_projection(problem, space):
    """Free coefficients of the H1 best approximation of ``problem.exact`` in ``space``.

    The oracle for Galerkin's error: u_h minimizes the sum over the pieces
    of int (u - u_h)'^2 + (u - u_h)^2, with the Dirichlet DOFs fixed at
    their values.  The integrals take the pieces and the Gauss rule of
    ``compute_errors`` (``error_rule_size``); the normal equations are
    one dense solve.
    """
    layout = space.layout
    quad = quadrature_pieces(space, error_rule_size(problem, space.degree))
    u, du = (layer_values(problem.tables[name], layout.layer, quad.xs)
             for name in ("exact", "exact_derivative"))
    uncut = np.ones(len(quad.xs), dtype=bool)
    uncut[layout.cut_pieces] = False
    gram, load = np.zeros((space.n_dofs, space.n_dofs)), np.zeros(space.n_dofs)
    for (dofs, vals, ders), pieces in ((Basis(*(a[uncut] for a in quad.standard)), uncut),
                                       (quad.cut, layout.cut_pieces)):
        wq = quad.weights[pieces][:, None, :]
        local = (ders * wq) @ ders.transpose(0, 2, 1) + (vals * wq) @ vals.transpose(0, 2, 1)
        np.add.at(gram, (dofs[:, :, None], dofs[:, None, :]), local)
        np.add.at(load, dofs, ((ders * wq) @ du[pieces][..., None]
                               + (vals * wq) @ u[pieces][..., None])[..., 0])
    is_free = space.free_index >= 0
    free = np.empty(space.n_free, dtype=int)  # the full DOF at each free position
    free[space.free_index[is_free]] = np.flatnonzero(is_free)
    fixed = list(space.constrained)
    rhs = load[free] - gram[np.ix_(free, fixed)] @ space.dirichlet_values
    return scipy.linalg.solve(gram[np.ix_(free, free)], rhs, assume_a="sym")


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
# The program integrates all pieces of a space in stacked batches.  The
# functions below integrate one element piece at a time, with the same
# floating-point operations in the same order, so the batched results must
# equal theirs bit for bit.

def reference_basis(space, k, xs, side):
    """(dofs, values, derivatives) of all DOFs on element k at points xs, written out.

    The standard rows come from ``standard_basis``.  On the element of cut
    j, the j-th entry of ``mesh.cut_elements``, the enrichment rows follow:
    each standard function times psi, its derivative by the product rule,
    with DOFs n_std + (p + 1) j + (0 .. p).
    """
    dofs, vals, ders = (a[0] for a in standard_basis(space, np.array([k]), xs[None]))
    cuts = space.mesh.cut_elements.tolist()
    if k in cuts:
        j = cuts.index(k)
        per = space.degree + 1
        psi_values, psi_derivatives = eval_enrichment(space.enrichments[j], xs, side)
        dofs = np.concatenate([dofs, space.n_std + per * j + np.arange(per)])
        vals, ders = (
            np.vstack([vals, vals * psi_values]),
            np.vstack([ders, ders * psi_values + vals * psi_derivatives]),
        )
    return dofs, vals, ders


def reference_pieces(space, q):
    """(layer, xs, weights, dofs, values, derivatives) per piece, element by element.

    The space is one of a mesh of one level, so element k lies between
    nodes k and k + 1.
    """
    ref_x, ref_w = quadrature_rule(q)
    alphas = space.mesh.alphas.tolist()
    cuts = space.mesh.cut_elements.tolist()
    for k in range(space.mesh.n_elements):
        xl, xr = space.mesh.nodes[k:k + 2].tolist()
        layer = bisect.bisect_left(alphas, xl)
        if k not in cuts:
            pieces = ((xl, xr, layer, "left"),)
        else:
            alpha = alphas[cuts.index(k)]
            pieces = ((xl, alpha, layer, "left"), (alpha, xr, layer + 1, "right"))
        for a, b, piece_layer, side in pieces:
            half = 0.5 * (b - a)
            xs = a + half * (ref_x + 1.0)
            dofs, vals, ders = reference_basis(space, k, xs, side)
            yield piece_layer, xs, half * ref_w, dofs, vals, ders


def reference_assembly(problem, space, q):
    """(band, rhs) in free order from a dense per-element assembly with a q-point rule.

    The half-width is 2p + 1 with cuts and p without, as documented for
    BandSystem, and every entry outside it must vanish.
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
    cuts = zip(problem.interfaces, space.mesh.cut_elements.tolist(), space.mesh.alphas.tolist())
    for j, (spec, k, alpha) in enumerate(cuts):
        if spec.lam > 0:
            x = np.array([alpha])
            dofs, v_left, _ = reference_basis(space, k, x, "left")
            _, v_right, _ = reference_basis(space, k, x, "right")
            jump = v_right[:, 0] - v_left[:, 0]
            a_full[np.ix_(dofs, dofs)] += np.outer(jump, jump) / spec.lam
            # -F(alpha-)[q] with F(alpha-) = -[u]/lam + 2 delta- u-(alpha)
            delta_minus = problem.conv_delta[j](alpha)
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
    """ErrorReport summed piece by piece with a q-point rule, with the nodal error node by node.

    psi vanishes at every node, so u_h at node i is its standard DOF p * i.
    """
    full = full_coefficients(space, coeffs)
    l2_sq = 0.0
    h1_sq = 0.0
    for layer, xs, wq, dofs, vals, ders in reference_pieces(space, q):
        e = exact[layer](xs) - full[dofs] @ vals
        de = exact[layer].deriv()(xs) - full[dofs] @ ders
        l2_sq += float(wq @ (e * e))
        h1_sq += float(wq @ (de * de))
    alphas = space.mesh.alphas.tolist()
    nodal = 0.0
    for i in range(1, space.mesh.n_elements):
        x = float(space.mesh.nodes[i])
        value = exact[bisect.bisect_left(alphas, x)]  # the left branch at a cut
        nodal = max(nodal, abs(float(value(x)) - float(full[space.degree * i])))
    return ErrorReport(l2=np.sqrt(l2_sq), h1_broken=np.sqrt(h1_sq), nodal_max=nodal)
