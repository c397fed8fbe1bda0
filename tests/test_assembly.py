import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial import Polynomial

from _helpers import (
    constant_coefficient_vector,
    constant_patch_problem,
    psi_jumps,
    reference_assembly,
    reference_errors,
    solve_benchmark,
)
from enrfem.analysis import compute_errors
from enrfem.assembly import (
    BoundaryCondition,
    InterfaceSpec,
    ProblemSpec,
    assemble_system,
    condition_number,
    solve_system,
    space_for_problem,
)
from enrfem.bench import catalog_problem
from enrfem.femspace import quadrature_rule
from enrfem.mesh import build_mesh


def _const(c):
    return Polynomial([float(c)])


def _poisson_problem(beta=1.0):
    return ProblemSpec(
        domain=(0.0, 1.0),
        diffusivity=(_const(beta),),
        conv_delta=(_const(0.0),),
        reaction=(_const(0.0),),
        source=(_const(1.0),),
        bc_left=BoundaryCondition.dirichlet(0.0),
        bc_right=BoundaryCondition.dirichlet(0.0),
    )


# ---------------------------------------------------------------- quadrature

def test_quadrature_cubic_exactness():
    xs, ws = quadrature_rule(2)
    # map to [0, 1]: integral of x^3 is exactly 1/4
    value = 0.5 * np.sum(ws * (0.5 * (xs + 1.0)) ** 3)
    assert value == pytest.approx(0.25, abs=1e-15)


def test_quadrature_midpoint_rule():
    xs, ws = quadrature_rule(1)
    assert xs == pytest.approx([0.0], abs=1e-15)
    assert ws == pytest.approx([2.0], abs=1e-15)


def test_quadrature_weights_sum_to_two():
    for npts in range(1, 17):
        _, ws = quadrature_rule(npts)
        assert np.sum(ws) == pytest.approx(2.0, abs=1e-14)


def test_quadrature_range_rejected():
    for npts in (0, 17, -3):
        with pytest.raises(ValueError, match="between 1 and 16"):
            quadrature_rule(npts)


def test_quadrature_rule_is_computed_once_and_read_only():
    xs, ws = quadrature_rule(6)
    again = quadrature_rule(6)
    assert again[0] is xs and again[1] is ws
    assert not xs.flags.writeable and not ws.flags.writeable


# ------------------------------------------------------------------ assembly

def test_p1_laplacian_stencil():
    problem = _poisson_problem()
    mesh = build_mesh(0.0, 1.0, 8)
    space = space_for_problem(problem, mesh, 1)
    system = assemble_system(problem, space, 6)
    h = 1 / 8
    row = system.matrix[3]
    assert row[2] == pytest.approx(-1 / h, rel=1e-14)
    assert row[3] == pytest.approx(2 / h, rel=1e-14)
    assert row[4] == pytest.approx(-1 / h, rel=1e-14)
    assert np.all(row[:2] == 0.0) and np.all(row[5:] == 0.0)


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6])
def test_constant_patch_residual(pid):
    """With convection zeroed and f = w*c the constant c has zero residual."""
    c = 0.7
    problem, _ = constant_patch_problem(pid, c)
    degree = catalog_problem(pid).degree
    mesh = build_mesh(0.0, 1.0, 8, [s.alpha for s in problem.interfaces])
    space = space_for_problem(problem, mesh, degree)
    system = assemble_system(problem, space, 6)
    coeffs = constant_coefficient_vector(space, c)
    residual = system.matrix @ coeffs - system.rhs
    assert np.max(np.abs(residual)) <= 1e-12 * max(1.0, np.max(np.abs(system.rhs)))


def test_problem1_coarse_l2_error():
    entry, _, space, system, coeffs = solve_benchmark(1, 8)
    report = compute_errors(entry.problem.exact, space, coeffs, 12)
    assert report.l2 == pytest.approx(1.43943e-03, rel=0.10)


def test_symmetry_without_convection():
    for pid in (1, 2, 3):
        problem, _ = constant_patch_problem(pid)
        mesh = build_mesh(0.0, 1.0, 16, [s.alpha for s in problem.interfaces])
        space = space_for_problem(problem, mesh, 1)
        A = assemble_system(problem, space, 6).matrix
        assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))


def test_coercivity_witness_without_convection():
    for pid in (1, 2, 3):
        problem, _ = constant_patch_problem(pid)
        mesh = build_mesh(0.0, 1.0, 16, [s.alpha for s in problem.interfaces])
        space = space_for_problem(problem, mesh, 1)
        A = assemble_system(problem, space, 6).matrix
        assert np.min(np.linalg.eigvalsh(0.5 * (A + A.T))) > 0


def test_jump_term_touches_only_enrichment_block():
    """Removing the interface coupling changes only the enrichment pair."""
    entry = catalog_problem(1)
    problem = entry.problem
    mesh = build_mesh(0.0, 1.0, 8, [s.alpha for s in problem.interfaces])
    space = space_for_problem(problem, mesh, 1)
    with_jump = assemble_system(problem, space, 6).matrix
    no_jump_problem = dataclasses.replace(
        problem, interfaces=(InterfaceSpec(problem.interfaces[0].alpha),)
    )
    without_jump = assemble_system(no_jump_problem, space, 6).matrix

    diff = with_jump - without_jump
    enr = [space.free_index[d] for d in space.element_enriched_dofs(0)]
    mask = np.zeros_like(diff, dtype=bool)
    mask[np.ix_(enr, enr)] = True
    assert np.all(diff[~mask] == 0.0)

    psi = space.enrichments[0]
    hats = np.array([1 / 9, 8 / 9])  # hat values at alpha on the first element
    expected = np.outer(hats, hats) * psi_jumps(psi)[0] ** 2 / problem.interfaces[0].lam
    assert diff[np.ix_(enr, enr)] == pytest.approx(expected, rel=1e-12)


def test_quadrature_refinement_stability():
    """Benchmark integrands are polynomial: 6 and 10 point rules agree."""
    for pid in (1, 2, 3):
        entry = catalog_problem(pid)
        mesh = build_mesh(0.0, 1.0, 16, [s.alpha for s in entry.problem.interfaces])
        space = space_for_problem(entry.problem, mesh, entry.degree)
        coarse = assemble_system(entry.problem, space, 6)
        fine = assemble_system(entry.problem, space, 10)
        scale = np.max(np.abs(fine.matrix))
        assert np.max(np.abs(coarse.matrix - fine.matrix)) <= 1e-12 * scale
        assert np.max(np.abs(coarse.rhs - fine.rhs)) <= 1e-12 * max(1.0, np.max(np.abs(fine.rhs)))


def test_galerkin_residual_small():
    for pid in (1, 2, 3):
        _, _, _, system, coeffs = solve_benchmark(pid, 32)
        rel = np.linalg.norm(system.matrix @ coeffs - system.rhs) / np.linalg.norm(system.rhs)
        assert rel <= 1e-10


def test_coarse_quadrature_warns():
    problem = _poisson_problem()
    mesh = build_mesh(0.0, 1.0, 8)
    space = space_for_problem(problem, mesh, 1)
    with pytest.warns(UserWarning, match="too coarse"):
        assemble_system(problem, space, 3)


def test_nonzero_neumann_rejected():
    with pytest.raises(ValueError, match="nonzero Neumann flux"):
        BoundaryCondition.neumann(1.0)
    with pytest.raises(ValueError, match="nonzero Neumann flux"):
        BoundaryCondition("neumann", -0.5)
    assert BoundaryCondition.neumann(0.0).value == 0.0


def test_space_problem_mismatch_rejected():
    entry = catalog_problem(1)
    mesh = build_mesh(0.0, 1.0, 8, [s.alpha for s in entry.problem.interfaces])
    space = space_for_problem(entry.problem, mesh, 1)
    with pytest.raises(ValueError, match="mesh and interfaces"):
        assemble_system(_poisson_problem(), space, 6)


def test_permuted_mesh_interfaces_assemble_identically():
    """Mesh interface input order must not change coefficients or couplings."""
    entry = catalog_problem(3)
    alphas = [s.alpha for s in entry.problem.interfaces]
    mesh_fwd = build_mesh(0.0, 1.0, 16, alphas)
    mesh_perm = build_mesh(0.0, 1.0, 16, alphas[::-1])
    a_fwd = assemble_system(entry.problem, space_for_problem(entry.problem, mesh_fwd, 1), 6)
    a_perm = assemble_system(entry.problem, space_for_problem(entry.problem, mesh_perm, 1), 6)
    assert np.array_equal(a_fwd.matrix, a_perm.matrix)
    assert np.array_equal(a_fwd.rhs, a_perm.rhs)


def test_constant_reproduced_on_nonuniform_mesh():
    from enrfem.mesh import mesh_from_nodes

    c = 1.3
    problem, exact = constant_patch_problem(1, c)
    rng = np.random.default_rng(17)
    nodes = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.2, 1.0, 10)]))
    mesh = mesh_from_nodes(nodes, [s.alpha for s in problem.interfaces])
    space = space_for_problem(problem, mesh, 1)
    coeffs = solve_system(assemble_system(problem, space, 6))
    assert coeffs == pytest.approx(constant_coefficient_vector(space, c), abs=1e-11)


# -------------------------------------------------------------------- solver

def test_solve_identity():
    rhs = np.array([3.0, -1.0, 2.0])
    system = _fake_system(np.eye(3), rhs)
    assert solve_system(system) == pytest.approx(rhs, abs=1e-15)


def test_solve_hand_example():
    system = _fake_system(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    assert solve_system(system) == pytest.approx([1.0, 1.0], rel=1e-14)


def test_solve_hand_example_through_the_schur_complement():
    system = _fake_system(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]), n_std=1)
    assert solve_system(system) == pytest.approx([1.0, 1.0], rel=1e-14)


def test_solve_zero_matrix_rejected():
    system = _fake_system(np.zeros((3, 3)), np.ones(3))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_system(system)


def test_solve_zero_schur_pivot_rejected():
    """S = [2] is regular, but the Schur complement 0.5 - 1 * 1/2 vanishes."""
    system = _fake_system(np.array([[2.0, 1.0], [1.0, 0.5]]), np.ones(2), n_std=1)
    with pytest.raises(np.linalg.LinAlgError, match="singular.*free DOF 1"):
        solve_system(system)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6])
def test_solve_matches_dense_solve(pid, n):
    _, _, space, system, coeffs = solve_benchmark(pid, n)
    assert system.border_rows.shape[0] == (space.degree + 1) * len(space.enrichments)
    reference = scipy.linalg.solve(system.matrix, system.rhs)
    assert np.max(np.abs(coeffs - reference)) <= 1e-10 * np.max(np.abs(reference))


@pytest.mark.parametrize("degree", [1, 2])
def test_solve_without_interface(degree):
    """No cut element: the border is empty and the band alone is solved."""
    problem = _poisson_problem()
    mesh = build_mesh(0.0, 1.0, 8)
    space = space_for_problem(problem, mesh, degree)
    system = assemble_system(problem, space, 6)
    assert system.border_cols.shape == (space.n_free, 0)
    coeffs = solve_system(system)
    # -u'' = 1 with u(0) = u(1) = 0: the nodal values are exact, u = x(1 - x)/2
    nodes = space.std_nodes[1:-1]
    assert coeffs == pytest.approx(0.5 * nodes * (1.0 - nodes), abs=1e-14)


def _left_convection_problem1():
    """Problem 1 with delta = 3 left of its implicit interface (delta- != 0)."""
    problem = catalog_problem(1).problem
    return dataclasses.replace(problem, conv_delta=(_const(3.0),) + problem.conv_delta[1:])


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6, "1-left-convection"])
def test_batched_quadrature_matches_per_element_reference(pid, n):
    """Batched assembly and errors equal a per-element integration bit for bit."""
    if pid == "1-left-convection":
        problem = _left_convection_problem1()
        mesh = build_mesh(0.0, 1.0, n, problem.breakpoints)
        space = space_for_problem(problem, mesh, 1)
        system = assemble_system(problem, space, 6)
        coeffs = solve_system(system)
    else:
        entry, _, space, system, coeffs = solve_benchmark(pid, n)
        problem = entry.problem
    for got, want in zip(
        (system.band, system.border_cols, system.border_rows, system.rhs),
        reference_assembly(problem, space, 6),
    ):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    report = compute_errors(problem.exact, space, coeffs, 12)
    reference = reference_errors(problem.exact, space, coeffs, 12)
    for name in ("l2", "h1_broken", "nodal_max"):
        got, want = np.float64(getattr(report, name)), np.float64(getattr(reference, name))
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6])
def test_constant_callables_match_polynomials(pid):
    """D, delta and w as scalar-returning lambdas give the Polynomials' bits."""
    entry, mesh, space, system, coeffs = solve_benchmark(pid, 64)

    def constants(polys):
        assert all(len(p.coef) == 1 for p in polys)
        return tuple((lambda x, c=float(p.coef[0]): c) for p in polys)

    problem = dataclasses.replace(
        entry.problem,
        diffusivity=constants(entry.problem.diffusivity),
        conv_delta=constants(entry.problem.conv_delta),
        reaction=constants(entry.problem.reaction),
    )
    space_c = space_for_problem(problem, mesh, entry.degree)
    system_c = assemble_system(problem, space_c, 6)
    coeffs_c = solve_system(system_c)
    for name in ("band", "border_cols", "border_rows", "rhs"):
        assert getattr(system_c, name).tobytes() == getattr(system, name).tobytes(), name
    assert coeffs_c.tobytes() == coeffs.tobytes()
    report = compute_errors(problem.exact, space, coeffs, 12)
    report_c = compute_errors(problem.exact, space_c, coeffs_c, 12)
    assert report_c == report


def test_assemble_and_solve_stay_linear_in_memory():
    """P1 at n = 2048, errors included: the dense free matrix alone would take 33.6 MB."""
    entry = catalog_problem(2)
    mesh = build_mesh(0.0, 1.0, 2048, [s.alpha for s in entry.problem.interfaces])
    space = space_for_problem(entry.problem, mesh, entry.degree)
    tracemalloc.start()
    try:
        system = assemble_system(entry.problem, space, 6)
        coeffs = solve_system(system)
        compute_errors(entry.problem.exact, space, coeffs, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert "matrix" not in vars(system)  # the dense view was never built


def _fake_system(matrix, rhs, n_std=None):
    """System whose first n_std DOFs are the standard block (as a full band)."""
    from enrfem.assembly import AssembledSystem

    n_std = len(rhs) if n_std is None else n_std
    p = max(n_std - 1, 0)
    band = np.zeros((2 * p + 1, n_std))
    for i in range(n_std):
        for j in range(n_std):
            band[p + i - j, j] = matrix[i, j]
    return AssembledSystem(
        band=band,
        border_cols=matrix[:n_std, n_std:],
        border_rows=matrix[n_std:],
        rhs=rhs,
        space=None,
    )


# --------------------------------------------------------- condition numbers

def test_condition_number_identity():
    assert condition_number(np.eye(4)) == pytest.approx(1.0, rel=1e-14)


def test_condition_number_diagonal():
    assert condition_number(np.diag([1.0, 100.0])) == pytest.approx(100.0, rel=1e-12)


def test_condition_number_singular_is_infinite():
    assert condition_number(np.zeros((2, 2))) == float("inf")


def test_condition_number_problem2_magnitude():
    _, _, _, system, _ = solve_benchmark(2, 8)
    cond = condition_number(system.matrix)
    assert 1.27626e4 / 10 <= cond <= 1.27626e4 * 10


# ----------------------------------------------------------- problem checks

def test_problem_validation():
    good = _poisson_problem()
    with pytest.raises(ValueError, match="positive"):
        dataclasses.replace(good, diffusivity=(_const(-1.0),))
    with pytest.raises(ValueError, match="nonnegative"):
        dataclasses.replace(good, reaction=(_const(-1.0),))
    with pytest.raises(ValueError, match="per layer"):
        dataclasses.replace(good, reaction=(_const(0.0), _const(0.0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        ProblemSpec(
            domain=(0.0, 1.0),
            diffusivity=(_const(1),) * 3,
            conv_delta=(_const(0),) * 3,
            reaction=(_const(0),) * 3,
            source=(_const(0),) * 3,
            interfaces=(InterfaceSpec(0.5), InterfaceSpec(0.25)),
        )
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lam must be finite and >= 0"):
            InterfaceSpec(alpha=0.5, lam=lam)


def test_gammas_derived_from_the_problems_diffusivities():
    """A bare implicit interface takes gamma from D at alpha: the catalog's system, bit for bit."""
    entry = catalog_problem(1)
    rebuilt = dataclasses.replace(
        entry.problem, interfaces=(InterfaceSpec(alpha=1 / 9, lam=1 / 243),)
    )
    assert rebuilt.gammas == entry.problem.gammas
    assert rebuilt.gammas[0] == pytest.approx(-1 / 63, rel=1e-12)
    mesh = build_mesh(0.0, 1.0, 16, [1 / 9])
    systems = [assemble_system(p, space_for_problem(p, mesh, 1)) for p in (entry.problem, rebuilt)]
    for name in ("band", "border_cols", "border_rows", "rhs"):
        assert getattr(systems[0], name).tobytes() == getattr(systems[1], name).tobytes()
    assert _poisson_problem().gammas == ()
    assert catalog_problem(2).problem.gammas == (0.0, 0.0)


@pytest.mark.parametrize("d_plus, message", [
    (1.0, "interfaces[0]: diffusivity is continuous across the interface"),
    (-1.0, "interfaces[0]: diffusivity limits must be positive"),
])
def test_implicit_interface_needs_distinct_positive_diffusivities(d_plus, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ProblemSpec(
            domain=(0.0, 1.0),
            diffusivity=(_const(1.0), _const(d_plus)),
            conv_delta=(_const(0.0),) * 2,
            reaction=(_const(0.0),) * 2,
            source=(_const(0.0),) * 2,
            interfaces=(InterfaceSpec(0.5, 0.1),),
        )
