import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from _helpers import derived_rule_cases, interpolate_enriched, reference_errors, solve_benchmark
from enrfem.analysis import (
    ErrorReport,
    coefficient_contrast,
    compute_errors,
    observed_orders,
    polynomial_branches,
)
from enrfem.assembly import InterfaceSpec, assemble_system, solve_system, space_for_problem
from enrfem.bench import catalog_problem
from enrfem.cli import run_convergence
from enrfem.femspace import BoundaryCondition, build_space
from enrfem.mesh import build_mesh


def _p1_space(pid, n, degree=1):
    entry = catalog_problem(pid)
    mesh = build_mesh(0.0, 1.0, n, [s.alpha for s in entry.problem.interfaces])
    return entry, space_for_problem(entry.problem, mesh, degree)


def _space_with_right_value(pid, n, value):
    """The catalog problem's P1 space with Dirichlet value ``value`` at the right end."""
    problem = dataclasses.replace(
        catalog_problem(pid).problem, bc_right=BoundaryCondition.dirichlet(value)
    )
    mesh = build_mesh(0.0, 1.0, n, [s.alpha for s in problem.interfaces])
    return space_for_problem(problem, mesh, 1)


# -------------------------------------------------------------- interpolant

def test_interpolation_reproduces_global_linear():
    line = Polynomial([0.4, -2.0])
    space = _space_with_right_value(1, 8, line(1.0))
    exact = polynomial_branches([line, line])
    coeffs = interpolate_enriched(exact, space)
    report = compute_errors(exact, space, coeffs)
    assert report.l2 <= 1e-14
    assert report.h1_broken <= 1e-13
    assert report.nodal_max <= 1e-14


def test_interpolation_rejected_on_quadratic_space():
    entry, space = _p1_space(1, 8, degree=2)
    with pytest.raises(ValueError, match="degree 1"):
        interpolate_enriched(entry.problem.exact, space)


def test_exact_branch_count_must_be_the_space_layers():
    """Branch j owns layer j, so there is one branch per layer of the space."""
    _, space = _p1_space(1, 8)
    line = Polynomial([0.4, -2.0])
    for count in (1, 3):
        exact = polynomial_branches([line] * count)
        message = f"{count} exact branches for the space's 2 layers"
        with pytest.raises(ValueError, match=message):
            interpolate_enriched(exact, space)
        with pytest.raises(ValueError, match=message):
            compute_errors(exact, space, np.zeros(space.n_free))


def test_interpolation_jump_correction_value():
    """delta = -[u]/(alpha - x_{k+1}) = (1/196830)/(1/72) = 72/196830."""
    entry, space = _p1_space(1, 8)
    coeffs = interpolate_enriched(entry.problem.exact, space)
    delta = 72.0 / 196830.0
    assert delta == pytest.approx(3.658e-4, rel=1e-3)

    # branch derivative difference (4x^3/3 - x^2/10) at the element endpoints
    def ddiff(x):
        return 4 * x**3 / 3 - x**2 / 10

    left = coeffs[space.free_index[space.n_std]]
    right = coeffs[space.free_index[space.n_std + 1]]
    assert left == pytest.approx(ddiff(0.0) + delta, rel=1e-12)
    assert right == pytest.approx(ddiff(1 / 8) + delta, rel=1e-12)


def test_interpolation_error_halves_in_h1():
    entry = catalog_problem(1)
    errors = []
    for n in (64, 128):
        _, space = _p1_space(1, n)
        coeffs = interpolate_enriched(entry.problem.exact, space)
        report = compute_errors(entry.problem.exact, space, coeffs)
        errors.append(report.h1_broken)
    assert errors[0] / errors[1] == pytest.approx(2.0, abs=0.2)


# ------------------------------------------------------------------- errors

def test_errors_vanish_for_space_member():
    line = Polynomial([0.25, 0.5])
    space = _space_with_right_value(1, 8, line(1.0))
    exact = polynomial_branches([line, line])
    coeffs = interpolate_enriched(exact, space)
    report = compute_errors(exact, space, coeffs)
    assert max(report.l2, report.h1_broken, report.nodal_max) <= 1e-12


def test_error_norms_of_linear_difference():
    """u_h = x against exact 0 gives ||x|| = 1/sqrt(3) and |x|_1 = 1."""
    mesh = build_mesh(0.0, 1.0, 8)
    space = build_space(mesh, 1, [], BoundaryCondition.neumann(), BoundaryCondition.neumann())
    coeffs = np.array(space.mesh.nodes, dtype=float)
    exact = polynomial_branches([Polynomial([0.0])])
    report = compute_errors(exact, space, coeffs)
    assert report.l2 == pytest.approx(1 / math.sqrt(3), rel=1e-14)
    assert report.h1_broken == pytest.approx(1.0, rel=1e-14)
    assert report.nodal_max == pytest.approx(7 / 8, rel=1e-14)


def test_problem1_level_two_errors():
    entry, _, space, system, coeffs = solve_benchmark(1, 16)
    report = compute_errors(entry.problem.exact, space, coeffs)
    assert report.l2 == pytest.approx(3.40683e-04, rel=0.05)
    assert report.h1_broken == pytest.approx(3.24574e-02, rel=0.05)


def test_errors_take_the_dirichlet_value_from_the_space():
    """With no boundary argument, the errors are the study's: u(1) = 1/3 comes from the space."""
    entry, _, space, _, coeffs = solve_benchmark(1, 64)
    report = compute_errors(entry.problem.exact, space, coeffs)
    row = run_convergence(1, None, "1/8", 4).rows[3]
    assert row["h"] == 1 / 64
    for name, key in (("l2", "l2"), ("h1_broken", "h1_broken"), ("nodal_max", "nodal")):
        got, want = np.float64(getattr(report, name)), np.float64(row[key])
        assert got.tobytes() == want.tobytes(), name


def test_error_quadrature_stability():
    """The derived rule is exact: the errors agree with the oracle at 10, 12 and 16 points."""
    for problem, space in derived_rule_cases():
        coeffs = solve_system(assemble_system(problem, space))
        report = compute_errors(problem.exact, space, coeffs)
        for q in (10, 12, 16):
            fine = reference_errors(problem.exact, space, coeffs, q)
            assert report.l2 == pytest.approx(fine.l2, rel=1e-10)
            assert report.h1_broken == pytest.approx(fine.h1_broken, rel=1e-10)


def test_error_report_rejects_negative_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        ErrorReport(l2=-1.0, h1_broken=0.0, nodal_max=0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_error_report_rejects_non_finite_entries(value):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ErrorReport(l2=0.0, h1_broken=value, nodal_max=0.0)


def test_cea_bound_single_level():
    entry, _, space, system, coeffs = solve_benchmark(1, 32)
    fem = compute_errors(entry.problem.exact, space, coeffs)
    interp = compute_errors(
        entry.problem.exact, space, interpolate_enriched(entry.problem.exact, space)
    )
    rho = coefficient_contrast(entry.problem)
    assert fem.h1_broken <= 10 * rho * interp.h1_broken


# ------------------------------------------------------------------- orders

def test_observed_orders_exact_ratios():
    assert observed_orders([1 / 8, 1 / 16], [1e-2, 2.5e-3]) == pytest.approx([2.0])
    assert observed_orders([1 / 8, 1 / 16], [1e-2, 5e-3]) == pytest.approx([1.0])


def test_observed_orders_reference_pair():
    orders = observed_orders([1 / 256, 1 / 512], [1.30868e-06, 3.26874e-07])
    assert orders[0] == pytest.approx(math.log2(1.30868e-06 / 3.26874e-07), rel=1e-12)
    assert orders[0] == pytest.approx(2.00, abs=0.01)


def test_observed_orders_rejects_bad_input():
    with pytest.raises(ValueError, match="zero or negative"):
        observed_orders([1 / 8, 1 / 16], [1e-2, 0.0])
    with pytest.raises(ValueError, match="equal length"):
        observed_orders([1 / 8, 1 / 16], [1e-2])
    with pytest.raises(ValueError, match="two refinement"):
        observed_orders([1 / 8], [1e-2])


# ----------------------------------------------------------------- contrast

def test_contrast_uniform_coefficient():
    problem = catalog_problem(1).problem
    import dataclasses

    uniform = dataclasses.replace(
        problem,
        diffusivity=(Polynomial([1.0]), Polynomial([1.0])),
        interfaces=(InterfaceSpec(problem.interfaces[0].alpha),),
    )
    assert coefficient_contrast(uniform) == pytest.approx(1.0, abs=1e-15)


def test_contrast_benchmarks():
    assert coefficient_contrast(catalog_problem(1).problem) == pytest.approx(1.35, rel=1e-12)
    assert coefficient_contrast(catalog_problem(2).problem) == pytest.approx(2.1 / 0.54, rel=1e-12)


def test_contrast_rejects_nonpositive():
    """Negative on part of the layer: past x = 1/2, and within 1e-3 of 35/68 only."""
    dip = Polynomial([(35 / 68) ** 2 - 1e-6, -2 * 35 / 68, 1.0])
    for diffusivity in (Polynomial([0.5, -1.0]), dip):
        fake = SimpleNamespace(domain=(0.0, 1.0), breakpoints=(), diffusivity=(diffusivity,))
        with pytest.raises(ValueError, match="positive"):
            coefficient_contrast(fake)


# ------------------------------------------------------------ exact solution

def test_exact_solution_validation():
    """The problem owns its exact solution: one branch per layer, or it is rejected."""
    problem = catalog_problem(1).problem  # two layers
    for count in (1, 3):
        exact = polynomial_branches([Polynomial([1.0])] * count)
        with pytest.raises(ValueError, match=r"exact needs one entry per layer \(2\)"):
            dataclasses.replace(problem, exact=exact)
