import bisect

import numpy as np
import pytest

from _helpers import psi_jumps, reference_basis
from enrfem.femspace import (
    Basis,
    build_space,
    eval_function,
    full_coefficients,
    quadrature_pieces,
)
from enrfem.mesh import build_mesh, mesh_from_nodes
from enrfem.problem import BoundaryCondition, gamma_from_lambda


NEUMANN = BoundaryCondition.neumann()
DIRICHLET = BoundaryCondition.dirichlet(0.0)


def _space(n=8, degree=1, interfaces=(1 / 9,), bc=(NEUMANN, DIRICHLET), gamma=0.0):
    mesh = build_mesh(0.0, 1.0, n, list(interfaces))
    return build_space(mesh, degree, [gamma] * len(mesh.alphas), *bc)


def _unit_functions(space, dofs, xs, side="left"):
    """(values, derivatives) (len(dofs), len(xs)) of the functions of free global DOFs ``dofs``.

    Each is ``eval_function`` of the unit coefficient vector of its DOF,
    on the space's one level.
    """
    values, derivatives = np.empty((2, len(dofs), len(xs)))
    for row, dof in enumerate(dofs):
        coeffs = np.zeros(space.n_free)
        coeffs[space.free_index[dof]] = 1.0
        (values[row],), (derivatives[row],) = eval_function(space, coeffs, xs, side)
    return values, derivatives


def _basis_at(space, x, side="left"):
    """(dof, value, derivative) of every DOF at x.

    Every DOF must be free, as on an all-Neumann space: a constrained
    one would hide its function.
    """
    assert not space.constrained
    vals, ders = _unit_functions(space, range(space.n_dofs), [x], side)
    return [(i, float(v[0]), float(d[0])) for i, (v, d) in enumerate(zip(vals, ders))]


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
    """The cut columns and each element's enrichment DOFs agree with their definitions.

    Cut j's element holds alpha j, psi j spans that element, and its
    enrichment DOFs are n_std + (degree + 1) * j + (0 .. degree): the
    functions of those DOFs, and no other enrichment DOF's, are nonzero a
    third of the way into it, off the P2 nodes.
    """
    for nodes, alphas, space in _seeded_cut_spaces():
        n_elements = len(nodes) - 1
        per = space.degree + 1
        psi = space.enrichments
        assert len(psi) == len(alphas) and space.mesh.alphas.tolist() == alphas
        thirds = nodes[:-1] + np.diff(nodes) / 3
        values, _ = _unit_functions(space, range(space.n_std, space.n_dofs), thirds)
        for k in range(n_elements):
            xl, xr = nodes[k], nodes[k + 1]
            inside = [j for j, alpha in enumerate(alphas) if xl < alpha < xr]
            enriched = (space.n_std + np.flatnonzero(values[:, k])).tolist()
            if inside:
                (j,) = inside
                assert space.mesh.cut_elements[j] == k
                assert (psi.x_left[j], psi.x_right[j], psi.alpha[j]) == (xl, xr, alphas[j])
                base = space.n_std + per * j
                assert enriched == list(range(base, base + per))
            else:
                assert k not in space.mesh.cut_elements
                assert enriched == []


def test_quadrature_batches_cover_the_mesh():
    """The pieces tile the domain in element order, breaking at every node and alpha.

    The weights of each element sum to its length, each piece and each
    interior node carries the layer it lies in, each piece the DOFs of its
    element, and
    the basis comes in at most two batches: the standard DOFs of every
    piece, and all DOFs of the cut pieces.  The cut rows equal the test's
    own ``reference_basis`` on the piece's side of alpha.
    """
    adjacent_cuts = 0
    for nodes, alphas, space in _seeded_cut_spaces():
        quad = quadrature_pieces(space, 4)
        xs, lengths = quad.xs, quad.weights.sum(axis=1)
        mids = xs.mean(axis=1)  # a symmetric rule: the points' mean is the piece's midpoint
        breaks = np.sort(np.concatenate([nodes, alphas]))
        assert mids - lengths / 2 == pytest.approx(breaks[:-1], abs=1e-14)
        assert mids + lengths / 2 == pytest.approx(breaks[1:], abs=1e-14)
        assert (xs > breaks[:-1, None]).all() and (xs < breaks[1:, None]).all()

        elements = np.searchsorted(nodes, mids, side="right") - 1
        per_element = np.zeros(len(nodes) - 1)
        np.add.at(per_element, elements, lengths)
        assert per_element == pytest.approx(np.diff(nodes), rel=1e-13)
        layout = space.layout
        assert layout.layer.shape == (len(xs), 1)
        assert layout.layer[:, 0].tolist() == np.searchsorted(alphas, mids).tolist()
        interior = nodes[1:-1]
        assert layout.node_layer.tolist() == np.searchsorted(alphas, interior).tolist()

        p = space.degree
        assert sum(isinstance(field, Basis) for field in quad) == 2
        assert quad.standard.dofs.tolist() == [list(range(p * k, p * (k + 1) + 1)) for k in elements]
        assert quad.standard.values.shape == quad.standard.derivatives.shape == (len(xs), p + 1, 4)
        cuts = space.mesh.cut_elements
        assert elements[layout.cut_pieces].tolist() == np.repeat(cuts, 2).tolist()
        assert quad.cut.values.shape == quad.cut.derivatives.shape == (2 * len(cuts), 2 * p + 2, 4)
        for row, piece in enumerate(layout.cut_pieces):
            side = ("left", "right")[row % 2]
            dofs, vals, ders = reference_basis(space, elements[piece], xs[piece], side)
            assert quad.cut.dofs[row].tolist() == dofs.tolist()
            assert quad.cut.values[row].tobytes() == vals.tobytes()
            assert quad.cut.derivatives[row].tobytes() == ders.tobytes()
        adjacent_cuts += int(np.any(np.diff(cuts) == 1))
    assert adjacent_cuts > 0


@pytest.mark.parametrize("degree", [1, 2])
def test_each_row_of_a_stack_is_its_levels_function(degree):
    """On a stack of 3 levels, row l of eval_function is eval_function on level l's own space.

    Bit for bit, at random points, every level's nodes and each alpha, on both sides.
    """
    rng = np.random.default_rng(33)
    counts, interfaces = (8, 16, 32), (1 / 9, 2 / 3)
    bc = (BoundaryCondition.dirichlet(0.25), NEUMANN)
    mesh = build_mesh(0.0, 1.0, counts, interfaces)
    gammas = rng.uniform(-0.1, 0.1, len(interfaces))
    stack = build_space(mesh, degree, np.tile(gammas, len(counts)), *bc)
    coeffs = rng.standard_normal(stack.n_free)
    xs = np.concatenate([rng.uniform(0.0, 1.0, 50), mesh.nodes, interfaces])
    for side in ("left", "right"):
        values, derivatives = eval_function(stack, coeffs, xs, side)
        assert values.shape == derivatives.shape == (3, len(xs))
        for level, n in enumerate(counts):
            space = build_space(build_mesh(0.0, 1.0, n, interfaces), degree, gammas, *bc)
            own = coeffs[stack.free_starts[level]:stack.free_starts[level + 1]]
            (value,), (derivative,) = eval_function(space, own, xs, side)
            assert values[level].tobytes() == value.tobytes()
            assert derivatives[level].tobytes() == derivative.tobytes()


def test_eval_function_matches_the_reference_basis():
    """u_h at random points, every node and each alpha is full[dofs] @ ``reference_basis``'s values.

    On the seeded non-uniform cut spaces, P1 and P2, on both sides: a
    point on a node is read on the element to its right, and b on the last.
    """
    rng = np.random.default_rng(12)
    for nodes, alphas, space in _seeded_cut_spaces():
        coeffs = rng.standard_normal(space.n_free)
        full = full_coefficients(space, coeffs)
        xs = np.concatenate([rng.uniform(nodes[0], nodes[-1], 20), nodes, alphas])
        for side in ("left", "right"):
            (values,), (derivatives,) = eval_function(space, coeffs, xs, side)
            for x, value, derivative in zip(xs, values, derivatives):
                k = min(bisect.bisect_right(nodes, x), len(nodes) - 1) - 1
                dofs, vals, ders = reference_basis(space, k, np.array([x]), side)
                assert (value, derivative) == (full[dofs] @ vals[:, 0], full[dofs] @ ders[:, 0])


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
    midpoints = 0.5 * (space.mesh.nodes[:-1] + space.mesh.nodes[1:])
    values, _ = _unit_functions(space, range(9, 13), midpoints)
    # DOFs 9 and 10 on element 0, 11 and 12 on element 2: interface 1/9's group first
    assert [np.flatnonzero(row).tolist() for row in values] == [[0], [0], [2], [2]]


def test_partition_of_unity():
    rng = np.random.default_rng(3)
    for degree in (1, 2):
        space = _space(degree=degree, bc=(NEUMANN, NEUMANN), gamma=-0.01)
        for x in rng.uniform(0.0, 1.0, 40):
            entries = [v for i, v, _ in _basis_at(space, x) if i < space.n_std]
            assert abs(sum(entries) - 1.0) <= 1e-14


def test_standard_lagrange_delta_property():
    for degree in (1, 2):
        space = _space(degree=degree, bc=(NEUMANN, NEUMANN))
        for j, xj in enumerate(np.linspace(0.0, 1.0, space.n_std)):
            entries = {i: v for i, v, _ in _basis_at(space, float(xj))}
            for i, v in entries.items():
                if i < space.n_std:
                    assert v == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


def test_enriched_dof_vanishes_at_element_endpoints():
    space = _space(bc=(NEUMANN, NEUMANN), gamma=-1 / 63)
    (k,) = space.mesh.cut_elements
    xl, xr = space.mesh.nodes[k:k + 2].tolist()
    for x in (xl, xr):
        side = "right" if x == xl else "left"
        for i, v, _ in _basis_at(space, x, side):
            if i >= space.n_std:
                assert v == 0.0


def test_polynomial_reproduction():
    rng = np.random.default_rng(11)
    for degree, poly in ((1, np.polynomial.Polynomial([0.3, -1.7])),
                         (2, np.polynomial.Polynomial([0.3, -1.7, 2.2]))):
        space = _space(degree=degree, bc=(NEUMANN, NEUMANN), gamma=-0.02)
        coeffs = np.zeros(space.n_free)  # all DOFs free, enrichment absent
        coeffs[space.free_index[: space.n_std]] = poly(np.linspace(0.0, 1.0, space.n_std))
        xs = rng.uniform(0.0, 1.0, 50)
        (values,), (derivs,) = eval_function(space, coeffs, xs)
        assert values == pytest.approx(poly(xs), abs=1e-14)
        assert derivs == pytest.approx(poly.deriv()(xs), abs=5e-13)


def test_zero_coefficients_give_zero_function():
    space = _space()
    values, derivs = eval_function(space, np.zeros(space.n_free), [0.37])
    assert (values.tolist(), derivs.tolist()) == ([[0.0]], [[0.0]])


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
        left = eval_function(space, coeffs, [1 / 9], "left")[0][0, 0]
        right = eval_function(space, coeffs, [1 / 9], "right")[0][0, 0]
        assert right - left == pytest.approx(expected, rel=1e-12)


def test_member_jump_is_enrichment_combination():
    """[v] at alpha equals (sum of multiplier values at alpha) * [psi]."""
    rng = np.random.default_rng(21)
    for degree in (1, 2):
        space = _space(degree=degree, bc=(NEUMANN, NEUMANN), gamma=-1 / 63)
        psi = space.enrichments[0]
        coeffs = rng.standard_normal(space.n_free)
        left = eval_function(space, coeffs, [psi.alpha], "left")[0][0, 0]
        right = eval_function(space, coeffs, [psi.alpha], "right")[0][0, 0]
        mult = {i: v for i, v, _ in _basis_at(space, psi.alpha, "left") if i < space.n_std}
        enr_dofs = range(space.n_std, space.n_std + degree + 1)  # cut 0's
        (k,) = space.mesh.cut_elements
        std_dofs = range(degree * k, degree * (k + 1) + 1)
        q_alpha = sum(
            coeffs[space.free_index[dof]] * mult[std]
            for std, dof in zip(std_dofs, enr_dofs)
        )
        assert right - left == pytest.approx(q_alpha * psi_jumps(psi)[0], rel=1e-11)


def test_basis_derivatives_match_finite_differences():
    rng = np.random.default_rng(5)
    step = 1e-6
    for degree in (1, 2):
        space = _space(degree=degree, bc=(NEUMANN, NEUMANN), gamma=-0.02)
        for _ in range(25):
            x = rng.uniform(0.05, 0.95)
            if min(abs(x - n) for n in space.mesh.nodes) < 10 * step:
                continue
            if abs(x - 1 / 9) < 10 * step:
                continue
            plus = {i: v for i, v, _ in _basis_at(space, x + step)}
            minus = {i: v for i, v, _ in _basis_at(space, x - step)}
            for i, _, d in _basis_at(space, x):
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
            eval_function(space, coeffs, [x], "middle")


def test_a_point_outside_the_mesh_is_rejected():
    """eval_function takes finite points in [a, b] only, on every level of a stack."""
    space = _space(gamma=-1 / 63)
    for xs, x in (([0.5, -0.1], "-0.1"), ([1.5], "1.5"), ([0.5, float("nan")], "nan")):
        with pytest.raises(ValueError, match=rf"x={x} outside \[0.0, 1.0\]"):
            eval_function(space, np.ones(space.n_free), xs)
    mesh = build_mesh(0.0, 1.0, [4, 8])
    stack = build_space(mesh, 1, [], NEUMANN, NEUMANN)
    with pytest.raises(ValueError, match=r"x=1.5 outside \[0.0, 1.0\]"):
        eval_function(stack, np.ones(stack.n_free), [0.5, 1.5])


@pytest.mark.parametrize("xs", [0.05, [[0.05, 0.1]]], ids=["scalar", "2-d"])
def test_eval_function_takes_a_1d_array_of_points(xs):
    """A scalar or a 2-D xs is a ValueError naming its shape, not an IndexError from inside."""
    space = _space(gamma=-1 / 63)
    with pytest.raises(ValueError, match=r"xs must be a 1-D array of points, got shape \("):
        eval_function(space, np.ones(space.n_free), xs)


def test_coefficient_length_mismatch_rejected():
    space = _space()
    with pytest.raises(ValueError, match="free coefficients"):
        eval_function(space, np.zeros(space.n_free + 1), [0.5])
