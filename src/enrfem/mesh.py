"""1D partitions that are unfitted to interface points.

A mesh is an ordinary partition a = x_0 < ... < x_n = b; interface
points are required to fall strictly inside elements (never on a node),
and each element may contain at most one interface.  ``stack_meshes``
stacks the meshes of a convergence study's levels into one mesh, their
disjoint union, so that each later layer handles them in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

# An interface closer to a node than this fraction of the domain length is
# treated as sitting on the node and rejected.
NODE_COINCIDENCE_RTOL = 1e-14


@dataclass(frozen=True)
class Mesh1D:
    """Partitions of [a, b] with located interface elements, one per level.

    A mesh of one level is a partition: ``nodes`` is strictly increasing.
    A stack (``stack_meshes``) is the disjoint union of its levels'
    partitions: ``nodes`` holds each level's nodes, level after level, and
    the elements are numbered through the levels in order, so that
    element k of level l lies between its nodes k + l and k + l + 1.
    ``starts`` (L + 1,) holds each level's first element, then n_elements.
    The cuts, ordered by level, then by position, are two columns:
    ``cut_elements`` (c,), the element x_k < alpha < x_{k+1} of each, and
    ``alphas`` (c,), and ``cut_starts`` (L + 1,) each level's first cut, then c.
    Every array is read-only, so instances are safe to share between
    workers.
    """

    nodes: np.ndarray
    cut_elements: np.ndarray
    alphas: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        for table in (self.nodes, self.cut_elements, self.alphas, self.starts):
            table.flags.writeable = False

    @property
    def a(self) -> float:
        return float(self.nodes[0])

    @property
    def b(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_levels(self) -> int:
        return len(self.starts) - 1

    @property
    def n_elements(self) -> int:
        return int(self.starts[-1])

    @cached_property
    def element_level(self) -> np.ndarray:
        """(n_elements,) the level of each element."""
        level = np.repeat(np.arange(self.n_levels), np.diff(self.starts))
        level.flags.writeable = False
        return level

    @cached_property
    def cut_starts(self) -> np.ndarray:
        """(L + 1,) each level's first cut, then the number of cuts."""
        starts = np.searchsorted(self.cut_elements, self.starts)
        starts.flags.writeable = False
        return starts


def mesh_from_nodes(nodes, interfaces=()) -> Mesh1D:
    """Build a (possibly non-uniform) mesh from explicit node coordinates.

    The nodes must be finite.  Each interface must lie strictly inside an
    element; an interface within ``NODE_COINCIDENCE_RTOL * (b - a)`` of a
    node is rejected, as are two interfaces sharing one element.
    """
    nodes = np.array(nodes, dtype=float)  # a copy: the mesh freezes its nodes, not the caller's
    if nodes.ndim != 1 or nodes.size < 3:
        raise ValueError("mesh needs at least 3 nodes (2 elements)")
    if not np.isfinite(nodes).all():
        k = int(np.argmin(np.isfinite(nodes)))
        raise ValueError(f"mesh nodes must be finite; node {k} is {nodes[k]}")
    if not np.all(np.diff(nodes) > 0):
        raise ValueError("mesh nodes must be strictly increasing")

    a, b = float(nodes[0]), float(nodes[-1])
    tol = NODE_COINCIDENCE_RTOL * (b - a)
    alphas = sorted(float(al) for al in interfaces)
    if len(set(alphas)) != len(alphas):
        raise ValueError("interface points must be pairwise distinct")

    elements = np.searchsorted(nodes, alphas) - 1  # x_k < alpha <= x_{k+1} inside (a, b)
    ks = elements.tolist()
    for alpha, k in zip(alphas, ks):
        if not a < alpha < b:
            raise ValueError(f"interface {alpha} not strictly inside ({a}, {b})")
        if min(alpha - nodes[k], nodes[k + 1] - alpha) <= tol:  # the nearest nodes
            raise ValueError(
                f"interface {alpha} coincides with a mesh node; choose a "
                "different number of elements so the interface falls inside one"
            )
    for j in range(1, len(ks)):
        if ks[j] == ks[j - 1]:
            raise ValueError(
                f"interfaces {alphas[j - 1]} and {alphas[j]} fall in "
                f"the same element {ks[j]}; refine the mesh"
            )
    return Mesh1D(nodes=nodes, cut_elements=elements, alphas=np.array(alphas),
                  starts=np.array([0, len(nodes) - 1]))


def stack_meshes(meshes) -> Mesh1D:
    """The disjoint union of ``meshes``, their levels in order, as one mesh."""
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


def build_mesh(a: float, b: float, n: int, interfaces=()) -> Mesh1D:
    """Uniform partition of [a, b] into n elements with located interfaces."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"domain ends must be finite, got ({a}, {b})")
    if not a < b:
        raise ValueError("domain requires a < b")
    if n < 2:
        raise ValueError("need at least 2 elements")
    return mesh_from_nodes(np.linspace(a, b, n + 1), interfaces)


def locate_element(mesh: Mesh1D, x: float) -> int:
    """Index i of the element with x_i <= x <= x_{i+1}.

    At a shared node x_i the element [x_i, x_{i+1}] is returned (the node is
    its left endpoint); at x_n the last element.  Raises for a stack of
    several levels, where x lies in an element of each.
    """
    if mesh.n_levels != 1:
        raise ValueError("locate_element needs a mesh of one level")
    if not mesh.a <= x <= mesh.b:  # NaN included
        raise ValueError(f"x={x} outside [{mesh.a}, {mesh.b}]")
    k = int(np.searchsorted(mesh.nodes, x, side="right")) - 1
    return min(max(k, 0), mesh.n_elements - 1)
