import dataclasses
import re
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import _tables
from _helpers import (
    FIXTURES,
    constant_coefficient_vector,
    constant_patch_problem,
    dense_condition_number,
    derived_rule_cases,
    psi_jumps,
    reference_assembly,
    reference_errors,
    refined_condition_number,
    refined_solve,
    solve_benchmark,
    split_levels,
    stack_meshes,
)
from enrfem import analysis as analysis_module
from enrfem import assembly as assembly_module
from enrfem import cli as cli_module
from enrfem import femspace as femspace_module
from enrfem import problem as problem_module
from enrfem.analysis import compute_errors, error_rule_size
from enrfem.assembly import (
    BandSystem,
    assemble_system,
    assembly_rule_size,
    condition_number,
    solve_system,
    space_for_problem,
)
from enrfem.cli import load_problem_file, run_convergence
from enrfem.femspace import eval_function, quadrature_rule
from enrfem.mesh import build_mesh, mesh_from_nodes
from enrfem.problem import (
    BoundaryCondition,
    InterfaceSpec,
    ProblemSpec,
    catalog_problem,
    coefficient_table,
    gamma_from_lambda,
    layer_values,
    manufactured_rhs,
)


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


@pytest.mark.parametrize("degree, power", [(1, 7), (2, 8)])
def test_derived_rule_is_the_smallest_exact_one(degree, power):
    """A source x^m sets the top integrand degree m + p + 1, odd here, so q = (m + p + 2) / 2.

    On uncut elements f v has degree m + p: q points integrate it exactly
    and q - 1 points, exact to degree m + p - 1, do not.
    """
    problem = ProblemSpec(
        domain=(0.0, 1.0),
        diffusivity=(1.0,), conv_delta=(0.0,), reaction=(0.0,),
        source=(Polynomial([0.0] * power + [1.0]),),
    )
    space = space_for_problem(problem, build_mesh(0.0, 1.0, 2), degree)
    q = assembly_rule_size(problem, degree)
    assert q == (power + degree + 2) // 2
    moments = np.zeros(space.n_dofs)  # int x^m v over each element, v its Lagrange functions
    for k, (xl, xr) in enumerate(zip(space.mesh.nodes, space.mesh.nodes[1:])):
        nodes = np.linspace(xl, xr, degree + 1)
        for j, node in enumerate(nodes):
            others = np.delete(nodes, j)
            v = Polynomial.fromroots(others) / np.prod(node - others)
            integral = (problem.source[0] * v).integ()
            moments[degree * k + j] += integral(xr) - integral(xl)
    exact = moments[space.free_index >= 0]
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(assemble_system(problem, space).rhs - exact)) <= 1e-14 * scale
    _, coarser = reference_assembly(problem, space, q - 1)
    assert np.max(np.abs(coarser - exact)) > 1e-10 * scale


def test_quadrature_rule_is_computed_once_and_read_only():
    xs, ws = quadrature_rule(6)
    again = quadrature_rule(6)
    assert again[0] is xs and again[1] is ws
    assert not xs.flags.writeable and not ws.flags.writeable


# ------------------------------------------------------------------ assembly

# (x - 35/68)^2 - 1e-6 dips below zero only within 1e-3 of 35/68, between
# any two of 33 evenly spaced samples of (0, 1)
_DIP = Polynomial([(35 / 68) ** 2 - 1e-6, -2 * 35 / 68, 1.0])


@pytest.mark.parametrize("name, message", [
    ("diffusivity", "diffusivity must be positive on layer 0"),
    ("reaction", "reaction coefficient must be nonnegative on layer 0"),
])
def test_coefficient_bounds_hold_between_samples(name, message):
    """The minimum is taken at the root of the derivative, not from samples."""
    for domain in ((0.0, 1.0), (0, 1)):  # an integer domain must not round the root
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(_poisson_problem(), domain=domain, **{name: (_DIP,)})
    dataclasses.replace(_poisson_problem(), **{name: (_DIP + 2e-6,)})  # minimum 1e-6


def test_p1_laplacian_stencil():
    problem = _poisson_problem()
    mesh = build_mesh(0.0, 1.0, 8)
    space = space_for_problem(problem, mesh, 1)
    system = assemble_system(problem, space)
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
    system = assemble_system(problem, space)
    coeffs = constant_coefficient_vector(space, c)
    residual = system.matrix @ coeffs - system.rhs
    assert np.max(np.abs(residual)) <= 1e-12 * max(1.0, np.max(np.abs(system.rhs)))


def test_problem1_coarse_l2_error():
    entry, _, space, system, coeffs = solve_benchmark(1, 8)
    (report,) = compute_errors(entry.problem, space, coeffs)
    assert report.l2 == pytest.approx(1.43943e-03, rel=0.10)


def test_symmetry_without_convection():
    for pid in (1, 2, 3):
        problem, _ = constant_patch_problem(pid)
        mesh = build_mesh(0.0, 1.0, 16, [s.alpha for s in problem.interfaces])
        space = space_for_problem(problem, mesh, 1)
        A = assemble_system(problem, space).matrix
        assert np.max(np.abs(A - A.T)) <= 1e-12 * np.max(np.abs(A))


def test_coercivity_witness_without_convection():
    for pid in (1, 2, 3):
        problem, _ = constant_patch_problem(pid)
        mesh = build_mesh(0.0, 1.0, 16, [s.alpha for s in problem.interfaces])
        space = space_for_problem(problem, mesh, 1)
        A = assemble_system(problem, space).matrix
        assert np.min(np.linalg.eigvalsh(0.5 * (A + A.T))) > 0


def test_jump_term_touches_only_enrichment_block():
    """Removing the interface coupling changes only the enrichment pair."""
    entry = catalog_problem(1)
    problem = entry.problem
    mesh = build_mesh(0.0, 1.0, 8, [s.alpha for s in problem.interfaces])
    space = space_for_problem(problem, mesh, 1)
    with_jump = assemble_system(problem, space).matrix
    no_jump_problem = dataclasses.replace(
        problem, interfaces=(InterfaceSpec(problem.interfaces[0].alpha),)
    )
    without_jump = assemble_system(no_jump_problem, space).matrix

    diff = with_jump - without_jump
    enr = [space.free_index[d] for d in (space.n_std, space.n_std + 1)]  # cut 0's, P1
    mask = np.zeros_like(diff, dtype=bool)
    mask[np.ix_(enr, enr)] = True
    assert np.all(diff[~mask] == 0.0)

    psi = space.enrichments[0]
    hats = np.array([1 / 9, 8 / 9])  # hat values at alpha on the first element
    expected = np.outer(hats, hats) * psi_jumps(psi)[0] ** 2 / problem.interfaces[0].lam
    assert diff[np.ix_(enr, enr)] == pytest.approx(expected, rel=1e-12)


def test_quadrature_refinement_stability():
    """The derived rule is exact: band and rhs agree with the oracle at 10, 12 and 16 points."""
    for problem, space in derived_rule_cases():
        system = assemble_system(problem, space)
        for q in (10, 12, 16):
            band, rhs = reference_assembly(problem, space, q)
            assert np.max(np.abs(system.band - band)) <= 1e-12 * np.max(np.abs(band))
            assert np.max(np.abs(system.rhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_galerkin_residual_small():
    for pid in (1, 2, 3):
        _, _, _, system, coeffs = solve_benchmark(pid, 32)
        rel = np.linalg.norm(system.matrix @ coeffs - system.rhs) / np.linalg.norm(system.rhs)
        assert rel <= 1e-10


def test_nonzero_neumann_rejected():
    with pytest.raises(ValueError, match="nonzero Neumann flux"):
        BoundaryCondition.neumann(1.0)
    with pytest.raises(ValueError, match="nonzero Neumann flux"):
        BoundaryCondition("neumann", -0.5)
    assert BoundaryCondition.neumann(0.0).value == 0.0


def test_non_finite_boundary_value_rejected():
    """Named as such when built, not as a nonzero flux or a failed solve."""
    with pytest.raises(ValueError, match="boundary condition value must be finite, got inf"):
        BoundaryCondition.dirichlet(np.inf)
    with pytest.raises(ValueError, match="boundary condition value must be finite, got nan"):
        BoundaryCondition("neumann", np.nan)


def test_space_problem_mismatch_rejected():
    """space_for_problem, assemble_system and compute_errors make one check, with one message."""
    problem, other = catalog_problem(1).problem, catalog_problem(2).problem
    mesh = build_mesh(0.0, 1.0, 8, other.breakpoints)
    space = space_for_problem(other, mesh, 1)
    message = f"mesh interfaces {other.breakpoints} are not the problem's {problem.breakpoints}"
    for stage in (lambda: space_for_problem(problem, mesh, 1),
                  lambda: assemble_system(problem, space),
                  lambda: compute_errors(problem, space, np.zeros(space.n_free))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stage()


def test_permuted_mesh_interfaces_assemble_identically():
    """Mesh interface input order must not change coefficients or couplings."""
    entry = catalog_problem(3)
    alphas = [s.alpha for s in entry.problem.interfaces]
    mesh_fwd = build_mesh(0.0, 1.0, 16, alphas)
    mesh_perm = build_mesh(0.0, 1.0, 16, alphas[::-1])
    a_fwd = assemble_system(entry.problem, space_for_problem(entry.problem, mesh_fwd, 1))
    a_perm = assemble_system(entry.problem, space_for_problem(entry.problem, mesh_perm, 1))
    assert np.array_equal(a_fwd.matrix, a_perm.matrix)
    assert np.array_equal(a_fwd.rhs, a_perm.rhs)


def test_constant_reproduced_on_nonuniform_mesh():
    c = 1.3
    problem, exact = constant_patch_problem(1, c)
    rng = np.random.default_rng(17)
    nodes = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.2, 1.0, 10)]))
    mesh = mesh_from_nodes(nodes, [s.alpha for s in problem.interfaces])
    space = space_for_problem(problem, mesh, 1)
    coeffs = solve_system(assemble_system(problem, space))
    assert coeffs == pytest.approx(constant_coefficient_vector(space, c), abs=1e-11)


# -------------------------------------------------------------------- solver

def test_solve_identity():
    rhs = np.array([3.0, -1.0, 2.0])
    system = _fake_system(np.eye(3), rhs)
    assert solve_system(system) == pytest.approx(rhs, abs=1e-15)


def test_solve_hand_example():
    system = _fake_system(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    assert solve_system(system) == pytest.approx([1.0, 1.0], rel=1e-14)


def test_solve_zero_matrix_rejected():
    system = _fake_system(np.zeros((3, 3)), np.ones(3))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_system(system)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_solve_rejects_a_non_finite_load(value):
    system = _fake_system(np.eye(2), np.array([1.0, value]))
    with pytest.raises(ValueError, match="load vector has non-finite entries"):
        solve_system(system)


@pytest.mark.parametrize("matrix, rhs", [
    ([[1e308, 1e308], [1e308, 0.5e308]], [0.0, 1e308]),  # A x overflows to inf - inf
    ([[1e-300, 0.0], [0.0, 1.0]], [1e300, 1.0]),  # the scaled load overflows
])
def test_solve_rejects_a_nan_residual(matrix, rhs):
    """A residual that is NaN fails the check; ``residual > bound`` let it pass."""
    system = _fake_system(np.array(matrix), np.array(rhs))
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="solver residual nan"):
        solve_system(system)


def test_solve_zero_schur_pivot_rejected():
    """The first pivot is regular, but the second, 0.5 - 1 * 1/2 before scaling, vanishes."""
    system = _fake_system(np.array([[2.0, 1.0], [1.0, 0.5]]), np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match="singular.*free DOF 1"):
        solve_system(system)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6])
def test_solve_matches_dense_solve(pid, n):
    _, _, space, system, coeffs = solve_benchmark(pid, n)
    assert system.band.shape == (2 * (2 * space.degree + 1) + 1, space.n_free)
    reference = scipy.linalg.solve(system.matrix, system.rhs)
    assert np.max(np.abs(coeffs - reference)) <= 1e-10 * np.max(np.abs(reference))


@pytest.mark.parametrize("degree", [1, 2])
def test_solve_without_interface(degree):
    """No cut element: the band has half-width p, the element degree."""
    problem = _poisson_problem()
    mesh = build_mesh(0.0, 1.0, 8)
    space = space_for_problem(problem, mesh, degree)
    system = assemble_system(problem, space)
    assert system.band.shape == (2 * degree + 1, space.n_free)
    coeffs = solve_system(system)
    # -u'' = 1 with u(0) = u(1) = 0: the nodal values are exact, u = x(1 - x)/2
    nodes = np.linspace(0.0, 1.0, space.n_std)[1:-1]
    assert coeffs == pytest.approx(0.5 * nodes * (1.0 - nodes), abs=1e-14)


@pytest.mark.parametrize("pid", [1, 3, 4, 6])
def test_cut_near_a_node_solves(pid):
    """A node moved to alpha +- 10^-k h (k = 1..12) leaves a tiny cut piece.

    The enrichment diagonal then shrinks like the piece, but the scaled
    band stays regular: every case solves, and from k = 2 on the errors
    sit within 5e-3 of their k = 2 value.
    """
    entry = catalog_problem(pid)
    problem = entry.problem
    n = 64
    alpha = problem.interfaces[0].alpha  # 1/9, in element 7
    for node, sign in ((8, 1.0), (7, -1.0)):
        reports = {}
        for k in range(1, 13):
            nodes = np.linspace(0.0, 1.0, n + 1)
            nodes[node] = alpha + sign * 10.0**-k / n
            space = space_for_problem(problem, mesh_from_nodes(nodes, problem.breakpoints),
                                      entry.degree)
            coeffs = solve_system(assemble_system(problem, space))
            (reports[k],) = compute_errors(problem, space, coeffs)
        for k in range(2, 13):
            assert reports[k].l2 == pytest.approx(reports[2].l2, rel=5e-3), (node, k)
            assert reports[k].h1_broken == pytest.approx(reports[2].h1_broken, rel=5e-3), (node, k)


def test_deep_p2_mesh_solves():
    """Problem 6 at n = 32,768: its enrichment pivots once fell below the floor."""
    entry, _, space, _, coeffs = solve_benchmark(6, 32768)
    (report,) = compute_errors(entry.problem, space, coeffs)
    assert report.l2 <= 1e-8
    assert report.h1_broken <= 1e-7


def _forward_error(problem, degree, n):
    space = space_for_problem(problem, build_mesh(*problem.domain, n, problem.breakpoints), degree)
    system = assemble_system(problem, space)
    reference = refined_solve(system)
    return np.linalg.norm(solve_system(system) - reference) / np.linalg.norm(reference)


@pytest.mark.parametrize("n", [64, 512])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6])
def test_solve_forward_error_on_the_catalog(pid, n):
    entry = catalog_problem(pid)
    assert _forward_error(entry.problem, entry.degree, n) <= 1e-9


@pytest.mark.parametrize("n", [24, 48, 96])
def test_solve_forward_error_on_a_high_contrast_file(n):
    """P2 with D = 14.1 | 0.0356 | 15.4: an unscaled one-band LU is off by 1e-7 at n = 48."""
    problem = load_problem_file(FIXTURES / "sweep-117.json")
    assert _forward_error(problem, 2, n) <= 1e-9


def _left_convection_problem1():
    """Problem 1 with delta = 3 left of its implicit interface (delta- != 0)."""
    problem = catalog_problem(1).problem
    return dataclasses.replace(problem, conv_delta=(_const(3.0),) + problem.conv_delta[1:])


def _assert_bits_match_reference(problem, space):
    """Assembly, solve and errors on ``space`` equal the per-element oracle bit for bit.

    The oracle integrates with the rule sizes the program derives.  Returns
    the assembled system.
    """
    system = assemble_system(problem, space)
    q = assembly_rule_size(problem, space.degree)
    for got, want in zip((system.band, system.rhs), reference_assembly(problem, space, q)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    coeffs = solve_system(system)
    (report,) = compute_errors(problem, space, coeffs)
    q = error_rule_size(problem, space.degree)
    reference = reference_errors(problem.exact, space, coeffs, q)
    for name in ("l2", "h1_broken", "nodal_max"):
        got, want = np.float64(getattr(report, name)), np.float64(getattr(reference, name))
        assert got.tobytes() == want.tobytes(), name
    return system


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6, "1-left-convection"])
def test_batched_quadrature_matches_per_element_reference(pid, n):
    """Batched assembly and errors equal a per-element integration bit for bit."""
    if pid == "1-left-convection":
        problem = _left_convection_problem1()
        mesh = build_mesh(0.0, 1.0, n, problem.breakpoints)
        space = space_for_problem(problem, mesh, 1)
    else:
        entry, _, space, _, _ = solve_benchmark(pid, n)
        problem = entry.problem
    _assert_bits_match_reference(problem, space)


def _one_layer_problem():
    """Problem 2's middle layer (D, delta, w, u = x^5) on its own, with no interface."""
    catalog = catalog_problem(2).problem
    layer = [(coefficient[1],) for coefficient in (
        catalog.diffusivity, catalog.conv_delta, catalog.reaction, catalog.exact,
    )]
    d, delta, w, exact = layer
    return ProblemSpec(
        domain=(0.0, 1.0),
        diffusivity=d, conv_delta=delta, reaction=w,
        source=tuple(manufactured_rhs(exact, d, delta, w)),
        bc_left=BoundaryCondition.neumann(),
        bc_right=BoundaryCondition.dirichlet(1.0),
        exact=exact,
    )


# Non-uniform meshes for the interfaces 1/9, 1/3 and 2/3 of problems 3 and 6,
# with the elements they cut: the first, the last, and adjacent ones.
EDGE_LAYOUTS = {
    "first-adjacent-last": ([0.0, 0.2, 0.22, 0.25, 0.3, 0.5, 1.0], [0, 4, 5]),
    "adjacent-first-last": ([0.0, 0.3, 0.4, 0.45, 0.52, 0.6, 1.0], [0, 1, 5]),
    "three-adjacent": ([0.0, 0.05, 0.1, 0.3, 0.5, 0.7, 0.8, 0.95, 1.0], [2, 3, 4]),
}

# Problem 1's one interface 1/9 cut in the element beside a Dirichlet end,
# where no free entry lies 2p + 1 positions off the diagonal: the last
# element, by problem 1's Dirichlet right end, and element 0 with a
# Dirichlet left end (the exact branch x^3/30 is 0 at x = 0).
DIRICHLET_BESIDE_CUT = {
    "cut-by-right-dirichlet": ([0.0, 0.05, 0.1, 1.0], [2], BoundaryCondition.neumann()),
    "cut-by-left-dirichlet": ([0.0, 0.2, 0.6, 1.0], [0], BoundaryCondition.dirichlet(0.0)),
}


def _edge_case(case, degree):
    """(problem, space) of one edge layout, the interface-free problem, or the sweep fixture."""
    if case in EDGE_LAYOUTS:
        problem = catalog_problem(3).problem
        mesh = mesh_from_nodes(EDGE_LAYOUTS[case][0], problem.breakpoints)
    elif case in DIRICHLET_BESIDE_CUT:
        nodes, _, bc_left = DIRICHLET_BESIDE_CUT[case]
        problem = dataclasses.replace(catalog_problem(1).problem, bc_left=bc_left)
        mesh = mesh_from_nodes(nodes, problem.breakpoints)
    elif case == "no-interface":
        problem = _one_layer_problem()
        mesh = mesh_from_nodes(np.linspace(0.0, 1.0, 12) ** 1.5)
    else:
        problem = load_problem_file(FIXTURES / "sweep-117.json")
        mesh = build_mesh(0.0, 1.0, int(case.split("-")[-1]), problem.breakpoints)
    return problem, space_for_problem(problem, mesh, degree)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("case", [
    *EDGE_LAYOUTS, *DIRICHLET_BESIDE_CUT, "no-interface", "sweep-117-24", "sweep-117-48",
])
def test_edge_layouts_match_per_element_reference(case, degree):
    """Cuts in the first, the last, adjacent and Dirichlet-end elements, no cut, a P2 sweep file.

    Every space with a cut has the band half-width 2p + 1.
    """
    problem, space = _edge_case(case, degree)
    layouts = EDGE_LAYOUTS | DIRICHLET_BESIDE_CUT
    if case in layouts:
        assert space.mesh.cut_elements.tolist() == layouts[case][1]
    system = _assert_bits_match_reference(problem, space)
    if space.enrichments:
        assert system.bandwidth == 2 * degree + 1


# the functions a level's cost is counted in, by the modules that call them
_COUNTED = {
    "layer_values": (problem_module, assembly_module, analysis_module),
    "eval_enrichment": (femspace_module,),
    "standard_basis": (femspace_module,),
    "coefficient_table": (problem_module,),
}


def _count_calls(monkeypatch, counted_too=None):
    """Wrap the counted functions where they are called; returns the counter they add to.

    ``counted_too`` maps more names to the modules or classes that hold them.
    """
    counts = Counter()
    for name, owners in (_COUNTED | (counted_too or {})).items():
        function = getattr(owners[0], name)

        def counted(*args, _name=name, _function=function, **kwargs):
            counts[_name] += 1
            return _function(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("degree", [1, 2])
def test_a_levels_calls_do_not_grow_with_its_cuts(monkeypatch, degree):
    """Problems 1, 2 and 3 have 1, 2 and 3 cuts, and each level makes the same calls.

    assemble_system evaluates D, delta, w and f once each on all of the
    level's points (4 evaluator calls), and reads delta- at the implicit
    alphas from the problem; compute_errors evaluates the exact values and
    derivatives on the points and the values on the interior nodes (3),
    and reads u_h at a node from its DOF.  psi and the standard basis are
    evaluated in batches.
    The traces at alpha (``interface_traces``: one standard_basis and two
    eval_enrichment calls) are built only where an interface is implicit:
    problems 1 and 3, not problem 2, whose two interfaces are continuous.
    """
    counts = _count_calls(monkeypatch)
    per_problem = []
    for pid in (1, 2, 3):
        problem = catalog_problem(pid).problem
        space = space_for_problem(problem, build_mesh(0.0, 1.0, 16, problem.breakpoints), degree)
        counts.clear()
        system = assemble_system(problem, space)
        assembled = dict(counts)
        coeffs = solve_system(system)
        counts.clear()
        compute_errors(problem, space, coeffs)
        per_problem.append((len(space.enrichments), assembled, dict(counts)))
    assert [cuts for cuts, _, _ in per_problem] == [1, 2, 3]
    for pid, (_, assembled, errors) in zip((1, 2, 3), per_problem):
        rows_at_alpha = 0 if pid == 2 else 1
        assert assembled == {"layer_values": 4, "eval_enrichment": 2 + 2 * rows_at_alpha,
                             "standard_basis": 1 + rows_at_alpha}
        assert errors == {"layer_values": 3, "eval_enrichment": 2, "standard_basis": 1}


@pytest.mark.parametrize("degree", [1, 2])
def test_a_studys_calls_do_not_grow_with_its_levels(monkeypatch, degree):
    """A small study runs as one stack, whatever its number of levels.

    Problem 3 at 3 and at 7 levels (56 and 1,016 elements, at most
    ONE_STACK_ELEMENTS) makes the same calls: loading it tabulates the
    four coefficients and the exact values and derivatives once each (6
    coefficient_table calls, the only ones of the study), and evaluates D
    at the implicit alpha and delta at every alpha, once each
    (``interface_table``; 2 evaluator calls), D and w being constant, so
    that their bounds need no evaluation, and the one stack makes a level's calls of
    test_a_levels_calls_do_not_grow_with_its_cuts.  At 9 levels (4,088
    elements) the study runs two stacks, its coarse levels and its
    finest, and makes those calls twice.  Each stack's mesh is one
    build_mesh call, and with --cond each stack is one condition_number
    call: 1 at 3 and at 7 levels, 2 at 9.
    """
    counts = _count_calls(monkeypatch, {"build_mesh": (cli_module,),
                                        "condition_number": (cli_module,)})
    catalog_problem(3)
    assert counts == {"layer_values": 2, "coefficient_table": 6}
    per_study = []
    for levels in (3, 7, 9):
        counts.clear()
        run_convergence(3, degree, "1/8", levels)
        per_study.append(dict(counts))
    assert per_study[0] == per_study[1]
    assert per_study[0] == {
        "layer_values": 2 + 4 + 3, "eval_enrichment": 4 + 2, "standard_basis": 2 + 1,
        "build_mesh": 1, "coefficient_table": 6,
    }
    assert per_study[2] == {
        "layer_values": 2 + 2 * (4 + 3), "eval_enrichment": 2 * (4 + 2), "standard_basis": 2 * (2 + 1),
        "build_mesh": 2, "coefficient_table": 6,
    }
    for levels, stacks in ((3, 1), (7, 1), (9, 2)):
        counts.clear()
        run_convergence(3, degree, "1/8", levels, with_cond=True)
        assert counts["build_mesh"] == counts["condition_number"] == stacks


@pytest.mark.parametrize("degree", [1, 2])
def test_eval_functions_calls_do_not_grow_with_its_points_or_levels(monkeypatch, degree):
    """eval_function makes one standard_basis call and at most one eval_enrichment call.

    Problem 3 (3 cuts) on a mesh of 1 level and a stack of 3, at 5 and at
    500 points, u_h read on both sides.
    """
    counts = _count_calls(monkeypatch)
    problem = catalog_problem(3).problem
    rng = np.random.default_rng(4)
    for n in (16, (16, 32, 64)):
        space = space_for_problem(problem, build_mesh(*problem.domain, n, problem.breakpoints), degree)
        coeffs = rng.standard_normal(space.n_free)
        for points in (5, 500):
            for side in ("left", "right"):
                counts.clear()
                eval_function(space, coeffs, rng.uniform(*problem.domain, points), side)
                assert counts["standard_basis"] == 1 and counts["eval_enrichment"] <= 1
                assert set(counts) <= {"standard_basis", "eval_enrichment"}


@pytest.mark.parametrize("case", ["p1", "p2", "p3", "p4", "p5", "p6", "sweep-117"])
def test_a_stack_is_its_levels_side_by_side(case):
    """A space on stacked meshes of n = 8, 16, 32 is the three one-mesh spaces, bit for bit.

    Its band holds each level's band in that level's columns, its rhs
    each level's rhs, one solve_system of the stack gives each level's
    solution, and compute_errors gives each level's report.
    """
    if case == "sweep-117":
        problem, degree = load_problem_file(FIXTURES / "sweep-117.json"), 2
    else:
        entry = catalog_problem(int(case[1:]))
        problem, degree = entry.problem, entry.degree
    meshes = [build_mesh(*problem.domain, n, problem.breakpoints) for n in (8, 16, 32)]
    stack = space_for_problem(problem, stack_meshes(meshes), degree)
    system = assemble_system(problem, stack)
    levels = [assemble_system(problem, space_for_problem(problem, mesh, degree)) for mesh in meshes]
    assert stack.mesh.n_elements == 56 and len(stack.enrichments) == 3 * len(problem.interfaces)
    assert stack.n_free == sum(len(level.rhs) for level in levels)
    assert system.band.tobytes() == np.hstack([level.band for level in levels]).tobytes()
    assert system.rhs.tobytes() == np.concatenate([level.rhs for level in levels]).tobytes()
    coeffs = [solve_system(level) for level in levels]
    for got, want in zip(split_levels(system), levels):
        assert got.band.tobytes() == want.band.tobytes()
    stacked = solve_system(system)
    assert stacked.tobytes() == np.concatenate(coeffs).tobytes()
    assert compute_errors(problem, stack, stacked) == [
        compute_errors(problem, level.space, x)[0] for level, x in zip(levels, coeffs)
    ]


def _p3_stack():
    """The assembled system of catalog problem 3 on stacked meshes of n = 8, 16, 32."""
    problem = catalog_problem(3).problem
    meshes = [build_mesh(*problem.domain, n, problem.breakpoints) for n in (8, 16, 32)]
    return assemble_system(problem, space_for_problem(problem, stack_meshes(meshes), 1))


def _with_level(system, level, change):
    """``system`` with ``change`` applied to level ``level``'s part of a copy of its band and rhs."""
    band, rhs = system.band.copy(), system.rhs.copy()
    i, j = system.starts[level:level + 2].tolist()
    change(band[:, i:j], rhs[i:j])
    return dataclasses.replace(system, band=band, rhs=rhs)


def _alone(system):
    """Each level of ``system`` as a system of its own, on copies of its band and rhs."""
    return [BandSystem(level.band.copy(), level.rhs.copy()) for level in split_levels(system)]


def test_a_stack_with_a_singular_level_raises_that_levels_error():
    """Level 1 of a stack has a zero column: the stack raises the text of level 1 alone.

    Levels 0 and 2 solve alone, and the zero pivot is numbered within
    its level, as a level solved alone numbers it.
    """
    def zero_column(band, rhs):
        band[:, 5] = 0.0
    stack = _with_level(_p3_stack(), 1, zero_column)
    alone = _alone(stack)
    for level in (0, 2):
        solve_system(alone[level])
    with pytest.raises(np.linalg.LinAlgError) as want:
        solve_system(alone[1])
    with pytest.raises(np.linalg.LinAlgError) as got:
        solve_system(stack)
    assert "zero pivot" in str(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("scaled", [0, 1, 2])
def test_a_stacks_checks_are_its_levels(monkeypatch, scaled):
    """One level of a stack times 1e12: each level's pivot floor and residual bound are its own.

    The band and rhs of level ``scaled`` are multiplied by 1e12, so the
    levels differ in scale by about 1e12.  The stack's solution has each
    level's bits; the max|S| of each level, which sets its pivot floor,
    is that of the level alone; and with SOLVER_RESIDUAL_RTOL at 1e-300,
    where a level's residual fails its bound, the stack raises the first
    failing level's message, residual and bound as that level alone
    does.  A bound from the whole stack's norms would be 1e12 times
    larger on a level beside the scaled one.
    """
    def times_1e12(band, rhs):
        band *= 1e12
        rhs *= 1e12
    stack = _with_level(_p3_stack(), scaled, times_1e12)
    alone = _alone(stack)
    original, largest = assembly_module._scaled_lu, []

    def recording(*args):
        factors = original(*args)
        largest.append(factors[3])
        return factors
    monkeypatch.setattr(assembly_module, "_scaled_lu", recording)
    x = solve_system(stack)
    assert x.tobytes() == np.concatenate([solve_system(level) for level in alone]).tobytes()
    assert largest[0].tobytes() == np.concatenate(largest[1:]).tobytes()

    monkeypatch.setattr(assembly_module, "SOLVER_RESIDUAL_RTOL", 1e-300)

    def message(system):
        try:
            solve_system(system)
        except ArithmeticError as exc:
            return str(exc)
        return None
    assert message(stack) == next(filter(None, map(message, alone)))


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6])
def test_constant_callables_match_polynomials(pid):
    """Constant D, delta and w given as floats become degree-0 Polynomials, with the same bits.

    A coefficient is no longer a callable: ProblemSpec promotes a float to
    Polynomial([c]) and rejects anything else.  The band, rhs, solution and
    errors equal those of the same problem with Polynomial([c]) given
    explicitly, and those of the catalog.
    """
    entry, mesh, space, system, coeffs = solve_benchmark(pid, 64)
    names = ("diffusivity", "conv_delta", "reaction")
    constants = {name: [float(p.coef[0]) for p in getattr(entry.problem, name)] for name in names}
    assert all(len(p.coef) == 1 for name in names for p in getattr(entry.problem, name))
    as_floats = dataclasses.replace(entry.problem, **{k: tuple(v) for k, v in constants.items()})
    as_polys = dataclasses.replace(
        entry.problem, **{k: tuple(Polynomial([c]) for c in v) for k, v in constants.items()}
    )
    for name in names:
        for got, want in zip(getattr(as_floats, name), getattr(as_polys, name)):
            assert isinstance(got, Polynomial) and got.coef.tobytes() == want.coef.tobytes()
    for problem in (as_floats, as_polys):
        space_c = space_for_problem(problem, mesh, entry.degree)
        system_c = assemble_system(problem, space_c)
        coeffs_c = solve_system(system_c)
        for name in ("band", "rhs"):
            assert getattr(system_c, name).tobytes() == getattr(system, name).tobytes(), name
        assert coeffs_c.tobytes() == coeffs.tobytes()
        (report,) = compute_errors(problem, space, coeffs)
        assert compute_errors(problem, space_c, coeffs_c) == [report]


@pytest.mark.parametrize("name, value", [
    ("diffusivity", lambda x: 1.35 + 0.0 * x),
    ("reaction", Polynomial([0.0, 1.0], domain=[0.0, 1.0])),
    ("source", Polynomial([1.0], window=[0.0, 1.0])),
    ("conv_delta", "0.5"),
    ("exact", Polynomial([0.0, 1.0], domain=[0.0, 2.0])),
])
def test_problem_rejects_what_is_not_a_polynomial_in_x(name, value):
    """A callable, a mapped Polynomial or a string on layer 1 is rejected, naming field and layer."""
    problem = catalog_problem(1).problem
    entries = list(getattr(problem, name))
    entries[1] = value
    message = rf"^{name} on layer 1: expected a float or a numpy Polynomial in x$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(problem, **{name: tuple(entries)})


def test_exact_branch_is_one_polynomial():
    """A (value, derivative) pair in place of a branch is rejected where the problem is built."""
    problem = catalog_problem(1).problem
    value = problem.exact[0]
    message = r"^exact on layer 0: expected a float or a numpy Polynomial in x$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(problem, exact=((value, value.deriv()), problem.exact[1]))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    layers=st.lists(st.lists(_FINITE, min_size=1, max_size=9), min_size=1, max_size=5),
    points=st.lists(_FINITE, min_size=1, max_size=12),
)
@example(layers=[[-0.0], [2.5], [0.0]], points=[-1.0, -0.0, 0.0, 3.0])
@example(layers=[[0.0, 1.0], [-0.0, 2.0, 0.0]], points=[-0.0, 0.0, -2.0])
def test_layer_values_have_polyval_bits(layers, points):
    """One Horner pass over a zero-padded table of degrees 0-8 equals Polynomial.__call__.

    Bit for bit on every layer and finite point, with one allowed
    difference: the sign of an exact zero.  Polynomial.__call__ maps x to
    0.0 + 1.0 * x first, which turns -0.0 into 0.0, and a constant table is
    a gather, without polyval's c + x * 0.
    """
    polys = [Polynomial(c) for c in layers]
    x = np.array(points)
    with np.errstate(all="ignore"):  # both sides overflow alike on large inputs
        got = layer_values(coefficient_table(layers), np.arange(len(polys))[:, None], x)
        wants = [p(x) for p in polys]
    got = np.broadcast_to(got, (len(polys), len(x)))
    for values, want, p in zip(got, wants, polys):
        same_bits = values.view(np.int64) == want.view(np.int64)
        assert np.all(same_bits | ((values == 0.0) & (want == 0.0))), (p.coef, x)


def test_assemble_and_solve_stay_linear_in_memory():
    """P1 at n = 2048 with errors and --cond: the dense free matrix alone would take 33.6 MB."""
    entry = catalog_problem(2)
    mesh = build_mesh(0.0, 1.0, 2048, [s.alpha for s in entry.problem.interfaces])
    space = space_for_problem(entry.problem, mesh, entry.degree)
    tracemalloc.start()
    try:
        system = assemble_system(entry.problem, space)
        coeffs = solve_system(system)
        compute_errors(entry.problem, space, coeffs)
        condition_number(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert "matrix" not in vars(system)  # the dense view was never built


def _fake_system(matrix, rhs):
    """System holding the dense ``matrix`` as a full band."""
    n = len(rhs)
    band = np.zeros((2 * n - 1, n))
    for i in range(n):
        for j in range(n):
            band[n - 1 + i - j, j] = matrix[i, j]
    return BandSystem(band=band, rhs=rhs)


# --------------------------------------------------------- condition numbers

def test_condition_number_identity():
    (cond,) = condition_number(_fake_system(np.eye(4), np.ones(4)))
    assert cond == pytest.approx(1.0, rel=1e-14)


def test_condition_number_diagonal():
    (cond,) = condition_number(_fake_system(np.diag([1.0, 100.0]), np.ones(2)))
    assert cond == pytest.approx(100.0, rel=1e-12)


def test_condition_number_singular_is_infinite():
    assert condition_number(_fake_system(np.zeros((2, 2)), np.ones(2))).tolist() == [float("inf")]


def test_condition_number_problem2_magnitude():
    _, _, _, system, _ = solve_benchmark(2, 8)
    (cond,) = condition_number(system)
    assert 1.27626e4 / 10 <= cond <= 1.27626e4 * 10


@pytest.mark.parametrize("n", [8, 64, 512])
@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6])
def test_condition_number_matches_the_dense_svd(pid, n):
    """Within 10 eps kappa: the dense SVD's sigma_min is itself only good to about eps kappa."""
    _, _, _, system, _ = solve_benchmark(pid, n)
    (cond,) = condition_number(system)
    reference = dense_condition_number(system.matrix)
    assert abs(cond - reference) <= 10 * np.finfo(float).eps * reference**2


def test_condition_number_beats_the_dense_svd_on_problem4():
    """p4 at n = 512 (kappa 5.8e9): the dense SVD is off by 7e-7, the band by 1e-14."""
    _, _, _, system, _ = solve_benchmark(4, 512)
    reference = refined_condition_number(system.matrix)
    (cond,) = condition_number(system)
    assert cond == pytest.approx(reference, rel=1e-12)


def test_the_papers_cond_column_is_the_1_norm_condition_number():
    """Problem 2 at h = 1/8 ... 1/512: kappa_1 of the free matrix is the cond column.

    The column has six digits on a mantissa of at least 0.1, so it is
    rounded to rel 5e-6.
    """
    for h, want in zip(_tables.H_SEQUENCE, _tables.COND[2]):
        _, _, _, system, _ = solve_benchmark(2, round(1 / h))
        assert np.linalg.cond(system.matrix, 1) == pytest.approx(want, rel=5e-6)


@pytest.mark.parametrize("n", [2, 3])
def test_condition_number_of_one_and_two_free_dofs(n):
    """Poisson with Dirichlet ends on n = 2 and 3 elements: 1 and 2 free DOFs."""
    problem = _poisson_problem()
    system = assemble_system(problem, space_for_problem(problem, build_mesh(0.0, 1.0, n, []), 1))
    assert len(system.rhs) == n - 1
    (cond,) = condition_number(system)
    assert cond == pytest.approx(dense_condition_number(system.matrix), rel=1e-14)


def test_condition_number_of_a_nonsymmetric_band():
    """Convection makes A nonsymmetric: sigma_min needs both A^-1 and A^-T."""
    rng = np.random.default_rng(7)
    matrix = np.diag(rng.uniform(1.0, 2.0, 12)) + np.diag(rng.uniform(-3.0, 3.0, 11), 1)
    matrix += np.diag(rng.uniform(-1.0, 1.0, 10), -2)
    (cond,) = condition_number(_fake_system(matrix, np.ones(12)))
    assert cond == pytest.approx(dense_condition_number(matrix), rel=1e-12)


def test_condition_number_on_a_deep_p2_mesh():
    """p6 at n = 16,384 (32,777 free DOFs) gives a finite kappa without the dense view."""
    _, _, _, system, _ = solve_benchmark(6, 16384)
    (cond,) = condition_number(system)
    assert np.isfinite(cond) and cond > 1.0
    assert "matrix" not in vars(system)


def _stack_of(matrices, q):
    """A system of the square ``matrices``, each of half-width at most q, stacked as levels in one band."""
    dense = scipy.linalg.block_diag(*matrices)
    n = len(dense)
    band = np.zeros((2 * q + 1, n))
    for i, j in zip(*np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= q)):
        band[q + i - j, j] = dense[i, j]
    starts = np.cumsum([0] + [len(matrix) for matrix in matrices])
    return BandSystem(band, np.ones(n), SimpleNamespace(free_starts=starts))


def _random_band(rng, n, q):
    """A nonsymmetric n x n band of half-width q: diagonally dominant rows, rows and columns scaled by 2^k."""
    matrix = np.triu(np.tril(rng.uniform(-1.0, 1.0, (n, n)), q), -q)
    margin = rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n)
    np.fill_diagonal(matrix, np.abs(matrix).sum(axis=1) * np.sign(margin) + margin)
    return matrix * 2.0 ** rng.integers(-4, 5, n)[:, None] * 2.0 ** rng.integers(-4, 5, n)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4), q=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_condition_number_of_random_stacks(sizes, q, seed, data):
    """Stacks of 1-4 random nonsymmetric bands of 1-40 DOFs, one level with a zero column.

    Each level's kappa is the dense SVD's within 10 eps kappa^2, as in
    test_condition_number_matches_the_dense_svd; the level with the zero
    column, whose LU has an exact zero pivot, gives inf; and the stack's
    values have the bits of each level run alone.
    """
    rng = np.random.default_rng(seed)
    singular = data.draw(st.integers(0, len(sizes) - 1), label="singular")
    matrices = [_random_band(rng, n, q) for n in sizes]
    matrices[singular][:, rng.integers(sizes[singular])] = 0.0
    stack = _stack_of(matrices, q)
    cond = condition_number(stack)
    assert cond.tobytes() == np.concatenate([condition_number(s) for s in split_levels(stack)]).tobytes()
    for level, (matrix, kappa) in enumerate(zip(matrices, cond)):
        if level == singular:
            assert kappa == np.inf
        else:
            reference = dense_condition_number(matrix)
            assert abs(kappa - reference) <= 10 * np.finfo(float).eps * reference**2


@pytest.mark.parametrize("case", ["p3", "p4", "p6", "sweep-117"])
def test_a_stacks_condition_numbers_have_the_bits_of_its_levels_alone(case):
    """One condition_number of stacked meshes of n = 8, 16, 32 gives each one-mesh system's, bit for bit."""
    if case == "sweep-117":
        problem, degree = load_problem_file(FIXTURES / "sweep-117.json"), 2
    else:
        entry = catalog_problem(int(case[1:]))
        problem, degree = entry.problem, entry.degree
    meshes = [build_mesh(*problem.domain, n, problem.breakpoints) for n in (8, 16, 32)]
    stack = assemble_system(problem, space_for_problem(problem, stack_meshes(meshes), degree))
    alone = [condition_number(assemble_system(problem, space_for_problem(problem, mesh, degree)))
             for mesh in meshes]
    assert condition_number(stack).tobytes() == np.concatenate(alone).tobytes()


def _record_lanczos_runs(monkeypatch):
    """A list that collects each ``_lanczos`` result: sigma_min's run, then sigma_max's, per call."""
    original, runs = assembly_module._lanczos, []

    def recording(*args):
        runs.append(original(*args))
        return runs[-1]
    monkeypatch.setattr(assembly_module, "_lanczos", recording)
    return runs


def test_condition_number_of_a_convection_dominated_p2_file(monkeypatch):
    """D = 0.001 | 0.002, delta = -3 | 5, P2 (fixtures/convection-p2.json): dense SVD at 256, done at 4,096.

    The flow leaves the interface on both sides.  At 4,096 elements
    both Lanczos runs finish without the bisection that follows a slow
    sigma_max run, so its ten bisection steps gave a close enough shift.
    (With delta = 5 | -3 the flow meets at the interface, and the problem
    itself is near singular: kappa is above 1e16 at 256 elements.)
    """
    problem = load_problem_file(FIXTURES / "convection-p2.json")
    runs = _record_lanczos_runs(monkeypatch)
    for n in (256, 4096):
        system = assemble_system(problem, space_for_problem(problem, build_mesh(0.0, 1.0, n, [0.3]), 2))
        (cond,) = condition_number(system)
        if n == 256:
            reference = dense_condition_number(system.matrix)
            assert abs(cond - reference) <= 10 * np.finfo(float).eps * reference**2
    assert np.isfinite(cond) and not np.isnan(np.concatenate(runs)).any()


def test_a_slow_sigma_max_bisects_to_adjacent_floats(monkeypatch):
    """A = I + 1e-3 S (S skew tridiagonal, A_00 = 0.5), n = 100: its top singular values crowd.

    sigma_max's Lanczos run on the shifted inverse is not done in 20
    steps, so the level bisects on, and kappa is still the dense SVD's.
    """
    n = 100
    matrix = np.eye(n) + 1e-3 * (np.eye(n, k=1) - np.eye(n, k=-1))
    matrix[0, 0] = 0.5
    runs = _record_lanczos_runs(monkeypatch)
    (cond,) = condition_number(_fake_system(matrix, np.ones(n)))
    assert np.isfinite(runs[0]).all() and np.isnan(runs[1]).all()
    assert cond == pytest.approx(dense_condition_number(matrix), rel=1e-14)


def _reaction_system(n, degree):
    """fixtures/reaction.json (D = 1e-6, w = 1, no interface) on n elements."""
    problem = load_problem_file(FIXTURES / "reaction.json")
    return assemble_system(problem, space_for_problem(problem, build_mesh(0.0, 1.0, n, []), degree))


@pytest.mark.parametrize("degree, arpack", [(1, 1.3819007711917284), (2, 6.216818318280079)])
def test_condition_number_of_a_reaction_dominated_file(monkeypatch, degree, arpack):
    """D = 1e-6, w = 1 at n = 512: the smallest singular values crowd, so sigma_min's run restarts.

    Its hundreds of products run on a basis of LANCZOS_BASIS vectors, and
    kappa is ARPACK's (eigsh, which --cond used before) within 1e-12 and
    the dense SVD's within 1e-14: the residual test |beta s_k| <= 1e-14
    theta bounds the relative error of sigma_min^-2 by 1e-14, which at
    kappa = 1.38 is more than 10 eps kappa^2 (ARPACK's value is 6e-15 off).
    A stack of n = 256 and 512, both restarting, has the bits of each
    level alone.
    """
    products = []
    original = assembly_module._lanczos

    def counting(apply, *args):
        products.append(0)

        def counted(v):
            products[-1] += 1
            return apply(v)
        return original(counted, *args)
    monkeypatch.setattr(assembly_module, "_lanczos", counting)
    system = _reaction_system(512, degree)
    (cond,) = condition_number(system)
    assert products[0] > 10 * assembly_module.LANCZOS_BASIS
    assert cond == pytest.approx(arpack, rel=1e-12)
    assert cond == pytest.approx(dense_condition_number(system.matrix), rel=1e-14)
    problem = load_problem_file(FIXTURES / "reaction.json")
    stack = assemble_system(problem, space_for_problem(
        problem, stack_meshes([build_mesh(0.0, 1.0, n, []) for n in (256, 512)]), degree))
    alone = np.concatenate([condition_number(_reaction_system(256, degree)), [cond]])
    assert condition_number(stack).tobytes() == alone.tobytes()


@pytest.mark.parametrize("pid", [1, 2, 3, 4, 5, 6])
def test_a_restarted_lanczos_still_matches_the_dense_svd(monkeypatch, pid):
    """With a basis of 4 vectors, every run past 4 steps restarts from 2 Ritz vectors: n = 64."""
    monkeypatch.setattr(assembly_module, "LANCZOS_BASIS", 4)
    _, _, _, system, _ = solve_benchmark(pid, 64)
    (cond,) = condition_number(system)
    reference = dense_condition_number(system.matrix)
    assert abs(cond - reference) <= 10 * np.finfo(float).eps * reference**2


def test_the_lanczos_step_cap_raises(monkeypatch):
    """With one product per DOF, sigma_min's run on the reaction file at n = 512 is not done.

    It needs about 700 (test_condition_number_of_a_reaction_dominated_file):
    ArithmeticError, and a study reports it by level.
    """
    monkeypatch.setattr(assembly_module, "LANCZOS_STEPS_PER_DOF", 1)
    with pytest.raises(ArithmeticError, match="^Lanczos found no sigma_min in 511 steps$"):
        condition_number(_reaction_system(512, 1))
    with pytest.raises(ArithmeticError,
                       match=r"^level 0 \(n=512\): Lanczos found no sigma_min in 511 steps$"):
        run_convergence(str(FIXTURES / "reaction.json"), 1, "1/512", 1, with_cond=True)


# ----------------------------------------------------------- problem checks

def test_problem_validation():
    good = _poisson_problem()
    for domain in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match=r"^domain ends must be finite, got \("):
            dataclasses.replace(good, domain=domain)
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
    gamma = rebuilt.interface_table["gamma"]
    assert gamma.tobytes() == entry.problem.interface_table["gamma"].tobytes()
    assert gamma[0] == pytest.approx(-1 / 63, rel=1e-12)
    mesh = build_mesh(0.0, 1.0, 16, [1 / 9])
    systems = [assemble_system(p, space_for_problem(p, mesh, 1)) for p in (entry.problem, rebuilt)]
    for name in ("band", "rhs"):
        assert getattr(systems[0], name).tobytes() == getattr(systems[1], name).tobytes()
    assert _poisson_problem().interface_table["gamma"].tolist() == []
    assert catalog_problem(2).problem.interface_table["gamma"].tolist() == [0.0, 0.0]


def test_implicit_interfaces_are_evaluated_once_at_their_alphas():
    """Problem 3's interface table: lam, delta- and gamma at each alpha, read-only, cached.

    gamma at the implicit interface is ``gamma_from_lambda`` of D- and D+
    from Polynomial.__call__, bit for bit, and 0 at a continuous one.
    """
    problem = catalog_problem(3).problem
    table = problem.interface_table
    assert sorted(table) == ["delta_minus", "gamma", "implicit", "lam"]
    assert table["implicit"].tolist() == [True, False, False]
    alphas = [spec.alpha for spec in problem.interfaces]
    assert table["lam"].tolist() == [1 / 243, 0.0, 0.0]
    delta_minus = [float(problem.conv_delta[j](alpha)) for j, alpha in enumerate(alphas)]
    assert table["delta_minus"].tobytes() == np.array(delta_minus).tobytes()
    d_minus, d_plus = (float(problem.diffusivity[j](alphas[0])) for j in (0, 1))
    gamma = gamma_from_lambda(1 / 243, d_minus, d_plus, delta_minus[0])
    assert table["gamma"].tobytes() == np.array([gamma, 0.0, 0.0]).tobytes()
    for column in table.values():
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    assert problem.interface_table is table
    assert catalog_problem(2).problem.interface_table["gamma"].tolist() == [0.0, 0.0]


def test_coefficient_tables_are_read_only():
    """A write to a cached table would change later assemblies or errors but not the Polynomials."""
    tables = catalog_problem(3).problem.tables
    assert sorted(tables) == sorted(("diffusivity", "conv_delta", "reaction", "source", "exact",
                                     "exact_derivative"))
    for table in tables.values():
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] += 1.0


def test_equal_diffusivities_with_equal_convection_have_a_gamma():
    """D- = D+ = D with delta- = 3 beside an implicit interface: gamma = D / (2 delta-)."""
    problem = ProblemSpec(
        domain=(0.0, 1.0),
        diffusivity=(_const(2.0),) * 2,
        conv_delta=(_const(3.0),) * 2,
        reaction=(_const(0.0),) * 2,
        source=(_const(0.0),) * 2,
        interfaces=(InterfaceSpec(0.5, 0.1),),
    )
    assert problem.interface_table["gamma"].tolist() == pytest.approx([2.0 / 6.0], rel=1e-12)


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
