import numpy as np
import pytest

from _helpers import psi_jumps
from enrfem.enrichment import gamma_from_lambda
from enrfem.femspace import (
    BoundaryCondition,
    build_space,
    eval_basis,
    eval_function,
    full_coefficients,
    quadrature_pieces,
)
from enrfem.mesh import build_mesh, mesh_from_nodes


NEUMANN = BoundaryCondition.neumann()
DIRICHLET = BoundaryCondition.dirichlet(0.0)


def _space(n=8, degree=1, interfaces=(1 / 9,), bc=(NEUMANN, DIRICHLET), gamma=0.0):
    mesh = build_mesh(0.0, 1.0, n, list(interfaces))
    return build_space(mesh, degree, [gamma] * len(mesh.interface_hits), *bc)


def _seeded_cut_spaces():
    """(nodes, alphas, space) on 40 seeded non-uniform meshes with 0-3 cuts, degrees 1 and 2."""
    rng = np.random.default_rng(8)
    for trial in range(40):
        nodes = np.sort(rng.uniform(0.0, 1.0, rng.integers(3, 25)))
        n_elements = len(nodes) - 1
        n_cuts = min(trial % 4, n_elements)
        cut_elements = rng.choice(n_elements, n_cuts, replace=False)
        alphas = sorted(
            nodes[k] + rng.uniform(0.05, 0.95) * (nodes[k + 1] - nodes[k]) for k in cut_elements
        )
        mesh = mesh_from_nodes(nodes, rng.permutation(alphas))
        for degree in (1, 2):
            space = build_space(mesh, degree, rng.uniform(-0.1, 0.1, n_cuts), DIRICHLET, NEUMANN)
            yield nodes, alphas, space


def test_cut_table_matches_brute_force():
    """cut_of and the enrichment DOFs agree with their definitions."""
    for nodes, alphas, space in _seeded_cut_spaces():
        n_elements = len(nodes) - 1
        per = space.degree + 1
        for k in range(n_elements):
            xl, xr = nodes[k], nodes[k + 1]
            inside = [j for j, alpha in enumerate(alphas) if xl < alpha < xr]
            if inside:
                (j,) = inside
                assert space.cut_of[k] == j
                assert space.enrichments[j].element == k
                base = space.n_std + per * j
                assert space.element_enriched_dofs(k) == list(range(base, base + per))
            else:
                assert space.cut_of[k] == -1
                assert space.element_enriched_dofs(k) == []


def test_quadrature_batches_cover_the_mesh():
    """The pieces tile the domain in element order, breaking at every node and alpha.

    The weights of each element sum to its length, each piece carries the
    layer it lies in and the DOFs of its element, every run of uncut
    elements is one batch, and each piece of a cut element is a batch.
    """
    adjacent_cuts = 0
    for nodes, alphas, space in _seeded_cut_spaces():
        batches = list(quadrature_pieces(space, 4))
        xs = np.concatenate([batch.xs for batch in batches])
        lengths = np.concatenate([batch.weights.sum(axis=1) for batch in batches])
        mids = xs.mean(axis=1)  # a symmetric rule: the points' mean is the piece's midpoint
        breaks = np.sort(np.concatenate([nodes, alphas]))
        assert mids - lengths / 2 == pytest.approx(breaks[:-1], abs=1e-14)
        assert mids + lengths / 2 == pytest.approx(breaks[1:], abs=1e-14)
        assert (xs > breaks[:-1, None]).all() and (xs < breaks[1:, None]).all()

        elements = np.searchsorted(nodes, mids, side="right") - 1
        per_element = np.zeros(len(nodes) - 1)
        np.add.at(per_element, elements, lengths)
        assert per_element == pytest.approx(np.diff(nodes), rel=1e-13)
        layers = [batch.layer for batch in batches for _ in batch.xs]
        assert layers == np.searchsorted(alphas, mids).tolist()
        dofs = [row for batch in batches for row in batch.dofs.tolist()]
        assert dofs == [
            [*range(space.degree * k, space.degree * (k + 1) + 1), *space.element_enriched_dofs(k)]
            for k in elements
        ]

        cuts = [psi.element for psi in space.enrichments]
        uncut_runs = np.count_nonzero(np.diff([-1, *cuts, len(nodes) - 1]) > 1)
        assert len(batches) == uncut_runs + 2 * len(cuts)
        for batch in batches:
            e, n_local = batch.dofs.shape
            assert e == 1 or n_local == space.degree + 1
            assert batch.xs.shape == batch.weights.shape == (e, 4)
            assert batch.values.shape == batch.derivatives.shape == (e, n_local, 4)
        adjacent_cuts += int(np.any(np.diff(cuts) == 1))
    assert adjacent_cuts > 0


def test_free_dof_counts():
    assert _space(bc=(DIRICHLET, DIRICHLET)).n_free == 7 + 2
    assert _space(bc=(NEUMANN, DIRICHLET)).n_free == 8 + 2
    # degree 2 enriches with the three quadratic nodal functions per interface
    space = _space(degree=2, interfaces=(1 / 9, 1 / 3, 2 / 3))
    assert space.n_free == 16 + 9


@pytest.mark.parametrize("degree", [1, 2])
def test_dirichlet_values_live_in_the_space(degree):
    """Each Dirichlet end fixes its boundary DOF to its value; Neumann ends fix nothing."""
    left, right = BoundaryCondition.dirichlet(0.25), BoundaryCondition.dirichlet(-1.5)
    cases = (
        ((left, NEUMANN), [0.25, 1.0]),
        ((NEUMANN, right), [1.0, -1.5]),
        ((left, right), [0.25, -1.5]),
        ((NEUMANN, NEUMANN), [1.0, 1.0]),
    )
    for bc, ends in cases:
        space = _space(degree=degree, bc=bc)
        full = full_coefficients(space, np.ones(space.n_free))  # free DOFs all 1
        assert [full[0], full[space.n_std - 1]] == ends
        assert np.count_nonzero(full != 1.0) == len(space.constrained)
        with pytest.raises(ValueError, match="read-only"):
            space.dirichlet_values[...] = 0.0


def test_dof_ordering_standard_then_enrichment():
    space = _space(degree=1, interfaces=(1 / 3, 1 / 9))
    assert space.n_std == 9
    assert [psi.alpha for psi in space.enrichments] == [1 / 9, 1 / 3]
    assert space.element_enriched_dofs(0) == [9, 10]   # interface 1/9 group first
    assert space.element_enriched_dofs(2) == [11, 12]


def test_partition_of_unity():
    rng = np.random.default_rng(3)
    for degree in (1, 2):
        space = _space(degree=degree, gamma=-0.01)
        for x in rng.uniform(0.0, 1.0, 40):
            entries = [v for i, v, _ in eval_basis(space, x) if i < space.n_std]
            assert abs(sum(entries) - 1.0) <= 1e-14


def test_standard_lagrange_delta_property():
    for degree in (1, 2):
        space = _space(degree=degree)
        for j, xj in enumerate(space.std_nodes):
            entries = {i: v for i, v, _ in eval_basis(space, float(xj))}
            for i, v in entries.items():
                if i < space.n_std:
                    assert v == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


def test_enriched_dof_vanishes_at_element_endpoints():
    space = _space(gamma=-1 / 63)
    k = space.enrichments[0].element
    xl, xr = space.mesh.element_bounds(k)
    for x in (xl, xr):
        side = "right" if x == xl else "left"
        for i, v, _ in eval_basis(space, x, side):
            if i >= space.n_std:
                assert v == 0.0


def test_polynomial_reproduction():
    rng = np.random.default_rng(11)
    for degree, poly in ((1, np.polynomial.Polynomial([0.3, -1.7])),
                         (2, np.polynomial.Polynomial([0.3, -1.7, 2.2]))):
        space = _space(degree=degree, bc=(NEUMANN, NEUMANN), gamma=-0.02)
        coeffs = poly(space.std_nodes)  # all standard DOFs free, enrichment absent
        coeffs = np.concatenate([coeffs, np.zeros(space.n_dofs - space.n_std)])
        for x in rng.uniform(0.0, 1.0, 50):
            value, deriv = eval_function(space, coeffs, float(x))
            assert value == pytest.approx(float(poly(x)), abs=1e-14)
            assert deriv == pytest.approx(float(poly.deriv()(x)), abs=5e-13)


def test_zero_coefficients_give_zero_function():
    space = _space()
    value, deriv = eval_function(space, np.zeros(space.n_free), 0.37)
    assert (value, deriv) == (0.0, 0.0)


def test_single_enrichment_dof_jump():
    """One unit of the first enrichment DOF jumps by hat(alpha) * [psi].

    On the 8-element mesh with alpha = 1/9 and gamma = -1/63 the jump
    values are exactly 1/81 (left-attached DOF) and 8/81 (right-attached):
    hat values 1/9 and 8/9 at alpha, [psi] = gamma [psi'] = 1/9.
    """
    gamma = gamma_from_lambda(1 / 243, 1.0, 1.35)
    space = _space(gamma=gamma)
    psi = space.enrichments[0]
    jump, derivative_jump = psi_jumps(psi)
    assert derivative_jump == pytest.approx(-7.0, rel=1e-12)
    assert jump == pytest.approx(1 / 9, rel=1e-12)

    for local, expected in ((0, 1 / 81), (1, 8 / 81)):
        coeffs = np.zeros(space.n_free)
        coeffs[space.free_index[space.n_std + local]] = 1.0
        left, _ = eval_function(space, coeffs, 1 / 9, "left")
        right, _ = eval_function(space, coeffs, 1 / 9, "right")
        assert right - left == pytest.approx(expected, rel=1e-12)


def test_member_jump_is_enrichment_combination():
    """[v] at alpha equals (sum of multiplier values at alpha) * [psi]."""
    rng = np.random.default_rng(21)
    for degree in (1, 2):
        space = _space(degree=degree, gamma=-1 / 63)
        psi = space.enrichments[0]
        coeffs = rng.standard_normal(space.n_free)
        left, _ = eval_function(space, coeffs, psi.alpha, "left")
        right, _ = eval_function(space, coeffs, psi.alpha, "right")
        mult = {i: v for i, v, _ in eval_basis(space, psi.alpha, "left") if i < space.n_std}
        enr_dofs = space.element_enriched_dofs(psi.element)
        std_dofs = range(degree * psi.element, degree * (psi.element + 1) + 1)
        q_alpha = sum(
            coeffs[space.free_index[dof]] * mult[std]
            for std, dof in zip(std_dofs, enr_dofs)
        )
        assert right - left == pytest.approx(q_alpha * psi_jumps(psi)[0], rel=1e-11)


def test_basis_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    step = 1e-6
    for degree in (1, 2):
        space = _space(degree=degree, gamma=-0.02)
        for _ in range(25):
            x = rng.uniform(0.05, 0.95)
            if min(abs(x - n) for n in space.mesh.nodes) < 10 * step:
                continue
            if abs(x - 1 / 9) < 10 * step:
                continue
            plus = {i: v for i, v, _ in eval_basis(space, x + step)}
            minus = {i: v for i, v, _ in eval_basis(space, x - step)}
            for i, _, d in eval_basis(space, x):
                fd = (plus[i] - minus[i]) / (2 * step)
                assert d == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_enrichment_element_mismatch_rejected():
    """psi is built on the mesh's own cut elements, so only the gamma count can be wrong."""
    mesh = build_mesh(0.0, 1.0, 8, [1 / 9])
    with pytest.raises(ValueError, match="2 gammas given for the mesh's 1 interface elements"):
        build_space(mesh, 1, [0.0, 0.0], NEUMANN, DIRICHLET)
    with pytest.raises(ValueError, match="0 gammas given for the mesh's 1 interface elements"):
        build_space(mesh, 1, [], NEUMANN, DIRICHLET)
    with pytest.raises(ValueError, match="1 gammas given for the mesh's 0 interface elements"):
        build_space(build_mesh(0.0, 1.0, 8), 1, [0.0], NEUMANN, DIRICHLET)


def test_invalid_degree_and_bc_rejected():
    mesh = build_mesh(0.0, 1.0, 8)
    with pytest.raises(ValueError, match="degree"):
        build_space(mesh, 3, [], NEUMANN, DIRICHLET)
    with pytest.raises(ValueError, match="boundary condition"):
        build_space(mesh, 1, [], BoundaryCondition("robin"), DIRICHLET)


def test_eval_function_rejects_unknown_side():
    space = _space(gamma=-1 / 63)
    coeffs = np.ones(space.n_free)
    for x in (1 / 9, 0.5):  # on the cut element and off it
        with pytest.raises(ValueError, match="side"):
            eval_function(space, coeffs, x, "middle")


def test_coefficient_length_mismatch_rejected():
    space = _space()
    with pytest.raises(ValueError, match="free coefficients"):
        eval_function(space, np.zeros(space.n_free + 1), 0.5)
