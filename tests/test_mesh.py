import json
import re

import numpy as np
import pytest
from _helpers import FIXTURES, stack_meshes

import enrfem.cli
from enrfem.cli import run_convergence
from enrfem.femspace import build_space, eval_function
from enrfem.mesh import build_mesh, mesh_from_nodes
from enrfem.problem import BoundaryCondition, catalog_problem, load_problem_file

NEUMANN = BoundaryCondition.neumann()


def test_single_interface_element_located():
    mesh = build_mesh(0.0, 1.0, 8, [1 / 9])
    assert mesh.n_elements == 8
    (k,), (alpha,) = mesh.cut_elements, mesh.alphas
    assert k == 0
    assert mesh.nodes[k] < alpha < mesh.nodes[k + 1]


def test_mesh_from_nodes_leaves_the_callers_nodes_writeable():
    """The mesh freezes a copy of the nodes: the caller's array stays writeable."""
    x = np.linspace(0.0, 1.0, 5)
    mesh = mesh_from_nodes(x, [0.3])
    x[0] = -1.0
    assert mesh.nodes[0] == 0.0 and not mesh.nodes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mesh.nodes[0] = -1.0


def test_interface_on_node_rejected():
    with pytest.raises(ValueError, match="coincides with a mesh node"):
        build_mesh(0.0, 1.0, 3, [1 / 3])


def test_three_interfaces_located():
    mesh = build_mesh(0.0, 1.0, 8, [1 / 9, 1 / 3, 2 / 3])
    assert mesh.cut_elements.tolist() == [0, 2, 5]


def test_two_interfaces_in_one_element_rejected():
    with pytest.raises(ValueError, match="same element"):
        build_mesh(0.0, 1.0, 4, [0.30, 0.31])


def test_interface_outside_domain_rejected():
    with pytest.raises(ValueError, match="strictly inside"):
        build_mesh(0.0, 1.0, 4, [1.2])
    with pytest.raises(ValueError, match="strictly inside"):
        build_mesh(0.0, 1.0, 4, [0.0])


def test_duplicate_interfaces_rejected():
    with pytest.raises(ValueError, match="distinct"):
        build_mesh(0.0, 1.0, 8, [0.3, 0.3])


def test_bad_domain_and_count_rejected():
    with pytest.raises(ValueError):
        build_mesh(1.0, 0.0, 8)
    with pytest.raises(ValueError):
        build_mesh(0.0, 1.0, 1)
    # a non-finite end is named before numpy spreads it over the nodes
    for a, b in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError, match=r"domain ends must be finite, got \("):
            build_mesh(a, b, 4)


def test_a_build_without_an_element_count_names_it():
    """build_mesh(a, b, []) was min()'s "arg is an empty sequence"."""
    with pytest.raises(ValueError, match="^no element count given$"):
        build_mesh(0.0, 1.0, [])


def test_a_stack_of_no_mesh_names_it():
    """stack_meshes([]) was np.concatenate's "need at least one array to concatenate"."""
    with pytest.raises(ValueError, match="^no mesh to stack$"):
        stack_meshes([])


def test_an_iterator_of_meshes_stacks_every_level():
    """stack_meshes(iter([m, m])) was np.concatenate's "need at least one array to concatenate".

    The generator of n_elements consumed the iterator before the nodes were read.
    """
    mesh = build_mesh(0.0, 1.0, 8, [1 / 9])
    stack = stack_meshes(iter([mesh, mesh]))
    assert stack.n_levels == 2 and stack.starts.tolist() == [0, 8, 16]
    assert stack.cut_elements.tolist() == [0, 8] and len(stack.nodes) == 18


def test_eval_function_node_rule():
    """A P1 function's derivative at a node is its slope on the element to the right; at b, the last.

    The nodal values 0, 1, 4, ..., 64 give element k the slope 8 (2k + 1).
    """
    space = build_space(build_mesh(0.0, 1.0, 8), 1, [], NEUMANN, NEUMANN)
    coeffs = np.zeros(space.n_free)
    coeffs[space.free_index] = np.arange(9.0) ** 2
    _, (derivatives,) = eval_function(space, coeffs, [0.5, 0.13, 0.0, 1.0])
    assert derivatives.tolist() == [8 * (2 * k + 1) for k in (4, 1, 0, 7)]


def test_interface_located_on_irregular_mesh():
    irregular = mesh_from_nodes([0.0, 0.1, 0.35, 0.5, 1.0], [0.2])
    assert irregular.cut_elements.tolist() == [1]


def test_p1_values_interpolate_the_nodal_dofs():
    """On an irregular mesh a P1 function is np.interp of its nodal DOFs, so each x finds its element."""
    rng = np.random.default_rng(7)
    mesh = mesh_from_nodes(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 30)])))
    space = build_space(mesh, 1, [], NEUMANN, NEUMANN)
    nodal = rng.standard_normal(len(mesh.nodes))
    coeffs = np.zeros(space.n_free)
    coeffs[space.free_index] = nodal
    xs = rng.uniform(0.0, 1.0, 500)
    (values,), _ = eval_function(space, coeffs, xs)
    assert values == pytest.approx(np.interp(xs, mesh.nodes, nodal), abs=1e-14)


def test_permuted_interfaces_give_same_elements():
    a = build_mesh(0.0, 1.0, 8, [1 / 9, 1 / 3, 2 / 3])
    b = build_mesh(0.0, 1.0, 8, [2 / 3, 1 / 9, 1 / 3])
    assert a.alphas.tolist() == b.alphas.tolist() == [1 / 9, 1 / 3, 2 / 3]
    assert a.cut_elements.tolist() == b.cut_elements.tolist()


def test_cut_columns_are_read_only():
    """The cut table is the mesh's two columns, and neither can be written, on a stack too.

    Nor can the cached tables: each element's level and each level's first cut.
    """
    mesh = build_mesh(0.0, 1.0, 8, [1 / 9, 2 / 3])
    stack = stack_meshes([mesh, build_mesh(0.0, 1.0, 16, [1 / 9, 2 / 3])])
    assert stack.cut_elements.tolist() == [0, 5, 8 + 1, 8 + 10]
    assert stack.alphas.tolist() == [1 / 9, 2 / 3] * 2
    assert stack.cut_starts.tolist() == [0, 2, 4] and mesh.cut_starts.tolist() == [0, 2]
    for m in (mesh, stack):
        assert m.cut_elements.dtype.kind == "i" and m.alphas.dtype == float
        for column in (m.cut_elements, m.alphas, m.element_level, m.cut_starts):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0


@pytest.mark.parametrize("nodes, where", [
    ([0.0, 0.5, np.inf], "node 2 is inf"),
    ([-np.inf, 0.5, 1.0], "node 0 is -inf"),
    ([0.0, np.nan, 1.0], "node 1 is nan"),
])
def test_non_finite_nodes_rejected(nodes, where):
    """A non-finite node is named; with an interface, its tolerance is not 1e-14 * inf."""
    for interfaces in ((), (0.25,)):
        with pytest.raises(ValueError, match=f"mesh nodes must be finite; {where}"):
            mesh_from_nodes(nodes, interfaces)


_INTERFACES = {f"p{k}": catalog_problem(k).problem.breakpoints for k in range(1, 7)}
_INTERFACES["sweep-117"] = load_problem_file(FIXTURES / "sweep-117.json").breakpoints


@pytest.mark.parametrize("case", sorted(_INTERFACES))
def test_a_stacked_build_is_its_levels_stacked(case):
    """build_mesh of a study's counts is stack_meshes of its levels' meshes, bit for bit.

    On (0, 1) and on (-0.3, 2.7), the interfaces mapped onto it, from
    h0 = 1/5, 1/8 and 1/12 over 1 to 9 levels; each level's nodes are
    np.linspace's.  Where a level fails alone, the stack raises the
    lowest failing level's message.
    """
    for a, b in ((0.0, 1.0), (-0.3, 2.7)):
        alphas = [a + (b - a) * alpha for alpha in _INTERFACES[case]]
        for h0 in (5, 8, 12):
            n0 = round((b - a) * h0)
            for levels in range(1, 10):
                counts = [n0 * 2**level for level in range(levels)]
                try:
                    meshes = [build_mesh(a, b, n, alphas) for n in counts]
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        build_mesh(a, b, counts, alphas)
                    continue
                got, want = build_mesh(a, b, counts, alphas), stack_meshes(meshes)
                for name in ("nodes", "cut_elements", "alphas", "starts"):
                    column, oracle = getattr(got, name), getattr(want, name)
                    assert column.dtype == oracle.dtype, name
                    assert column.tobytes() == oracle.tobytes(), name
                for mesh, n in zip(meshes, counts):
                    assert mesh.nodes.tobytes() == np.linspace(a, b, n + 1).tobytes()


@pytest.mark.parametrize("counts, power", [
    ([2**61], 61), ([8 * 2**level for level in range(61)], 64), ([2**20000], 20000),
], ids=["one-level", "61-levels", "20000-bit-count"])
def test_a_build_beyond_an_arrays_reach_names_a_power_of_two(counts, power):
    """A stack too long for an array is a MemoryError of one short line, allocating nothing:
    its node count, which may have more digits than int-to-str allows, is given as 2**k."""
    with pytest.raises(MemoryError) as info:
        build_mesh(0.0, 1.0, counts)
    assert str(info.value) == f"2**{power} or more mesh nodes are more than an array can index"


def test_an_interface_on_a_node_of_level_2_only_fails_before_any_solve(tmp_path, monkeypatch):
    """alpha = 3/32 from h0 = 1/8 is inside an element at levels 0 and 1 and on a node at level 2.

    The study names level 2, before it builds any space.
    """
    doc = json.loads((FIXTURES / "sweep-117.json").read_text())
    doc["interfaces"] = doc["interfaces"][:1]
    doc["interfaces"][0]["alpha"] = 3 / 32
    doc["layers"], doc["exact"] = doc["layers"][:2], doc["exact"][:2]
    path = tmp_path / "node.json"
    path.write_text(json.dumps(doc))
    run_convergence(str(path), 1, "1/8", 2)  # levels 0 and 1 solve

    def no_space(*args):
        raise AssertionError("a space was built")
    monkeypatch.setattr(enrfem.cli, "space_for_problem", no_space)
    with pytest.raises(ValueError, match=r"^level 2 \(n=32\): interface 0\.09375 coincides "
                                         r"with a mesh node; choose"):
        run_convergence(str(path), 1, "1/8", 3)
