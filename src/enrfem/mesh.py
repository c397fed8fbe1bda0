"""1D partitions that are unfitted to interface points.

A mesh is an ordinary partition a = x_0 < ... < x_n = b; interface
points are required to fall strictly inside elements (never on a node),
and each element may contain at most one interface.  A stack of
meshes is one mesh, their disjoint union, so that each later layer
handles a convergence study's levels in one batch: ``build_mesh``
builds a stack of uniform levels in one pass.
"""

from __future__ import annotations

import math
import operator
import sys
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
    A stack (``build_mesh`` of several counts) is the disjoint union of
    its levels' partitions: ``nodes`` holds each level's nodes, level
    after level, and the elements are numbered through the levels in
    order, so that element k of level l lies between its nodes k + l and
    k + l + 1.
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


def _located(nodes: np.ndarray, starts: np.ndarray, interfaces) -> Mesh1D:
    """The mesh of ``nodes`` (each level's in turn, ``Mesh1D``), every level cut by ``interfaces``.

    The nodes must be finite and each level's strictly increasing, and
    the interfaces pairwise distinct.  Then, on each level, each
    interface in order of position must lie strictly inside the level's
    ends (a, b) and farther than ``NODE_COINCIDENCE_RTOL * (b - a)`` from
    its element's nodes, and no two may share an element.  The first
    failure raises; in a stack, the lowest level that fails an interface
    check raises its own.  Every level is searched at once: the count of
    a level's nodes below an interface, one ``np.add.reduceat`` over the
    stack, is ``np.searchsorted``'s.
    """
    if not np.isfinite(nodes).all():
        k = int(np.argmin(np.isfinite(nodes)))
        raise ValueError(f"mesh nodes must be finite; node {k} is {nodes[k]}")
    first = starts + np.arange(len(starts))  # each level's first node, then len(nodes)
    increasing = nodes[1:] > nodes[:-1]
    increasing[first[1:-1] - 1] = True  # one level's last node to the next's first
    if not increasing.all():
        raise ValueError("mesh nodes must be strictly increasing")
    alphas = sorted(float(al) for al in interfaces)
    if len(set(alphas)) != len(alphas):
        raise ValueError("interface points must be pairwise distinct")

    alpha = np.array(alphas)
    a, b = nodes[first[:-1], None], nodes[first[1:] - 1, None]  # (L, 1) each level's ends
    # (L, m) x_k < alpha <= x_{k+1} inside (a, b)
    k = np.add.reduceat(nodes[:, None] < alpha, first[:-1], axis=0, dtype=np.intp) - 1
    inside = (a < alpha) & (alpha < b)
    left = first[:-1, None] + k  # outside (a, b), any node: only inside ones are read
    gap = np.minimum(alpha - nodes.take(left, mode="clip"), nodes.take(left + 1, mode="clip") - alpha)
    bad = ~inside | (gap <= NODE_COINCIDENCE_RTOL * (b - a))
    shared = k[:, 1:] == k[:, :-1]
    if bad.any() or shared.any():
        level = int(np.argmax(bad.any(axis=1) | shared.any(axis=1)))
        if bad[level].any():
            j = int(np.argmax(bad[level]))
            if not inside[level, j]:
                raise ValueError(f"interface {alphas[j]} not strictly inside "
                                 f"({float(a[level, 0])}, {float(b[level, 0])})")
            raise ValueError(
                f"interface {alphas[j]} coincides with a mesh node; choose a "
                "different number of elements so the interface falls inside one"
            )
        j = int(np.argmax(shared[level])) + 1
        raise ValueError(
            f"interfaces {alphas[j - 1]} and {alphas[j]} fall in "
            f"the same element {int(k[level, j])}; refine the mesh"
        )
    column = np.empty(k.shape)
    column[:] = alpha
    return Mesh1D(nodes=nodes, cut_elements=(starts[:-1, None] + k).ravel(),
                  alphas=column.ravel(), starts=starts)


def mesh_from_nodes(nodes, interfaces=()) -> Mesh1D:
    """Build a (possibly non-uniform) mesh from explicit node coordinates.

    The nodes must be finite.  Each interface must lie strictly inside an
    element; an interface within ``NODE_COINCIDENCE_RTOL * (b - a)`` of a
    node is rejected, as are two interfaces sharing one element.
    """
    nodes = np.array(nodes, dtype=float)  # a copy: the mesh freezes its nodes, not the caller's
    if nodes.ndim != 1 or nodes.size < 3:
        raise ValueError("mesh needs at least 3 nodes (2 elements)")
    return _located(nodes, np.array([0, len(nodes) - 1]), interfaces)


def build_mesh(a: float, b: float, n, interfaces=()) -> Mesh1D:
    """Uniform partition of [a, b] into n elements with located interfaces.

    ``n`` is an element count, or a sequence of them: then the result is
    the stack of each count's mesh, built in one pass.
    Each level's nodes are ``np.linspace(a, b, n + 1)``'s, bit for bit:
    node i is i * ((b - a) / n) + a, and the last is b.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"domain ends must be finite, got ({a}, {b})")
    if not a < b:
        raise ValueError("domain requires a < b")
    try:
        counts = [operator.index(n)]
    except TypeError:
        counts = [operator.index(count) for count in n]
    if not counts or min(counts) < 2:
        raise ValueError("need at least 2 elements" if counts else "no element count given")
    size = sum(counts) + len(counts)
    if size > sys.maxsize // 8:  # numpy cannot index a float64 node array that long
        raise MemoryError(f"2**{size.bit_length() - 1} or more mesh nodes are more than an "
                          "array can index")
    starts = np.array([0, *accumulate(counts)])
    sizes = np.array(counts) + 1  # each level's nodes
    first = starts[:-1] + np.arange(len(counts))
    nodes = np.arange(size, dtype=float)
    nodes -= np.repeat(first, sizes)  # each node's index in its level
    nodes *= np.repeat((b - a) / (sizes - 1), sizes)
    nodes += a
    nodes[first + sizes - 1] = b
    return _located(nodes, starts, interfaces)

