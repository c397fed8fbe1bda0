import numpy as np
import pytest

from enrfem.mesh import build_mesh, locate_element, mesh_from_nodes


def test_single_interface_element_located():
    mesh = build_mesh(0.0, 1.0, 8, [1 / 9])
    assert mesh.n_elements == 8
    hit = mesh.interface_hits[0]
    assert hit.element == 0
    assert mesh.nodes[hit.element] < hit.alpha < mesh.nodes[hit.element + 1]


def test_interface_on_node_rejected():
    with pytest.raises(ValueError, match="coincides with a mesh node"):
        build_mesh(0.0, 1.0, 3, [1 / 3])


def test_three_interfaces_located():
    mesh = build_mesh(0.0, 1.0, 8, [1 / 9, 1 / 3, 2 / 3])
    assert tuple(h.element for h in mesh.interface_hits) == (0, 2, 5)


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


def test_locate_element_conventions():
    mesh = build_mesh(0.0, 1.0, 8)
    assert locate_element(mesh, 0.5) == 4   # left element at a shared node
    assert locate_element(mesh, 0.13) == 1  # 1/8 < 0.13 < 2/8
    assert locate_element(mesh, 0.0) == 0
    assert locate_element(mesh, 1.0) == 7
    with pytest.raises(ValueError, match="outside"):
        locate_element(mesh, 1.5)
    with pytest.raises(ValueError, match="outside"):
        locate_element(mesh, -0.1)


def test_interface_located_on_irregular_mesh():
    irregular = mesh_from_nodes([0.0, 0.1, 0.35, 0.5, 1.0], [0.2])
    assert tuple(h.element for h in irregular.interface_hits) == (1,)


def test_locate_random_containment():
    rng = np.random.default_rng(7)
    mesh = mesh_from_nodes(np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 30)])))
    for x in rng.uniform(0.0, 1.0, 500):
        k = locate_element(mesh, x)
        assert mesh.nodes[k] <= x <= mesh.nodes[k + 1]


def test_permuted_interfaces_give_same_elements():
    a = build_mesh(0.0, 1.0, 8, [1 / 9, 1 / 3, 2 / 3])
    b = build_mesh(0.0, 1.0, 8, [2 / 3, 1 / 9, 1 / 3])
    assert [h.alpha for h in a.interface_hits] == [h.alpha for h in b.interface_hits]
    assert [h.element for h in a.interface_hits] == [h.element for h in b.interface_hits]
