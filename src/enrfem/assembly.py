"""Assembly and solution of the discrete interface problem.

The strong form on each layer is

    d/dx(-D u' + 2 delta u) + w u = f,

integrated by parts layer-wise against broken test functions q:

    int (D u' - 2 delta u) q' + int w u q
        + sum_{implicit interfaces} ([u] / lambda - 2 delta- u-(alpha)) [q]
        =  int f q,

with a natural zero-flux condition at a Neumann end and a Dirichlet lift
at a Dirichlet end.  The interface term is -F(alpha)[q] for the flux
F = -D u' + 2 delta u: at an implicit interface [u] = lambda * (D u')(alpha-)
gives F(alpha-) = -[u]/lambda + 2 delta- u-(alpha); at a continuous
interface every member of the space is continuous, so the term vanishes.
Interface elements are integrated as two Gauss sub-rules split at alpha.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .femspace import (
    CutLayout,
    EnrichedSpace,
    Quadrature,
    build_space,
    exact_rule_size,
    interface_traces,
    quadrature_pieces,
)
from .mesh import Mesh1D
from .problem import COEFFICIENTS, ProblemSpec, layer_values

SOLVER_RESIDUAL_RTOL = 1e-10
SINGULAR_PIVOT_RTOL = 1e-14


def _load_flapack():
    """scipy's LAPACK extension module, loaded without importing scipy.linalg.

    ``import scipy.linalg`` is more than half of the program's start-up,
    and the solver calls only dgbtrf, dgbtrs and dpbtrf.  The file is
    found beside scipy's package without importing it, and registered
    under its own name, so a later ``import scipy.linalg`` (``--cond``'s
    eigsh, or a user's) reuses this instance.  An extension that cannot be
    found or loaded falls back to scipy.linalg's own import.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    package = importlib.util.find_spec("scipy")
    for directory in package.submodule_search_locations if package else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            spec = importlib.util.spec_from_loader(name, loader)
            try:
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                loader.exec_module(module)
                return module
            except (ImportError, OSError):
                sys.modules.pop(name, None)
    from scipy.linalg import _flapack
    return _flapack


_flapack = _load_flapack()


@dataclass(frozen=True)
class BandSystem:
    """A linear system A x = rhs whose matrix A is one band, or one band per level.

    ``band`` holds A in LAPACK band storage, band[q + i - j, j] = A[i, j],
    shape (2q + 1, n).  Storage is O(n).  ``assemble_system`` gives the
    free-DOF system of its ``space``, the Dirichlet lift folded into the
    rhs.  Free DOFs run in mesh order (``EnrichedSpace.free_index``), so
    the free matrix A of each level is one band, and that of a stacked
    space is block diagonal, its levels' bands side by side in ``band``.
    The half-width q is a rule of the layout, not a measurement: 2p + 1
    for a space with cuts and p for one without, p the element degree.
    Where a Dirichlet end sits beside the only cut, the outermost
    diagonals are zero.
    """

    band: np.ndarray
    rhs: np.ndarray
    space: EnrichedSpace | None = None

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] // 2

    @property
    def starts(self) -> np.ndarray:
        """Each level's first row, then n: the space's ``free_starts``, or one level."""
        return np.array([0, len(self.rhs)]) if self.space is None else self.space.free_starts

    def levels(self) -> list[BandSystem]:
        """Each level's system: its band columns (zero outside its block) and its rhs rows."""
        starts = self.starts.tolist()
        return [BandSystem(self.band[:, i:j], self.rhs[i:j]) for i, j in zip(starts, starts[1:])]

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense free matrix A, O(n^2), built on first access.

        Only tests and the benchmark read it; the program works on ``band``.
        """
        dense = np.zeros((len(self.rhs), len(self.rhs)))
        for row, i, j in _band_diagonals(self.bandwidth, len(self.rhs)):
            np.fill_diagonal(dense[i, j], self.band[row, j])
        return dense


def _band_diagonals(q: int, n: int):
    """(band row, row slice, column slice) of each diagonal of an n x n band."""
    for row in range(2 * q + 1):
        offset = row - q  # i - j
        lo, hi = max(0, -offset), min(n, n - offset)
        yield row, slice(lo + offset, hi + offset), slice(lo, hi)


def space_for_problem(problem: ProblemSpec, mesh: Mesh1D, degree: int) -> EnrichedSpace:
    """The enriched space on ``mesh`` with the problem's gammas and boundary conditions.

    Every level of ``mesh`` must carry the problem's interfaces.
    """
    problem.check_mesh(mesh)
    return build_space(mesh, degree, np.tile(problem.interface_table["gamma"], mesh.n_levels),
                       problem.bc_left, problem.bc_right)


def assembly_rule_size(problem: ProblemSpec, degree: int) -> int:
    """``exact_rule_size`` of D u'v', delta u v', w u v and f v; cut, u and v have degree p + 1."""
    p = degree
    return exact_rule_size(
        (name, i, len(c.coef) - 1, len(c.coef) - 1 + extra)
        for name, extra in zip(COEFFICIENTS, (2 * p, 2 * p + 1, 2 * p + 2, p + 1))
        for i, c in enumerate(getattr(problem, name))
    )


def assemble_system(problem: ProblemSpec, space: EnrichedSpace) -> BandSystem:
    """Assemble the free-DOF matrix and load vector on ``space``.

    A_ij = int (D u_j' - 2 delta u_j) u_i' + int w u_j u_i
           + sum_implicit ([u_j]/lam - 2 delta- u_j(alpha-)) [u_i],
    b_i = int f u_i, followed by the lift of the space's Dirichlet values.
    The Gauss rule is ``assembly_rule_size``'s.  Raises unless every level
    of the space has the problem's interfaces.

    The pieces' loads and element matrices go to ``np.add.at`` in element
    order (``_element_order``, built here for each system), then the
    interface blocks: every entry is summed in the order of a per-element
    assembly of its level.  Each level's lift is its own product, so its
    rhs has the bits of a space of that level alone.
    """
    problem.check_mesh(space.mesh)
    layout, per = space.layout, space.degree + 1
    (std_dofs, std_local, std_load), (cut_dofs, cut_local, cut_load) = _piece_integrals(
        problem, layout, quadrature_pieces(space, assembly_rule_size(problem, space.degree))
    )
    load_order = _element_order(len(layout.elements), layout.cut_pieces, per, 2 * per)
    block_order = _element_order(len(layout.elements), layout.cut_pieces, per * per, 4 * per * per)
    dofs = np.concatenate([std_dofs.ravel(), cut_dofs.ravel()])[load_order]
    f_local = np.concatenate([std_load.ravel(), cut_load.ravel()])[load_order]
    fi = space.free_index[dofs]
    free = fi >= 0
    rhs = np.zeros(space.n_free)
    np.add.at(rhs, fi[free], f_local[free])

    band, lift = _scatter(space, *(
        np.concatenate([np.concatenate([s, c])[block_order], i])
        for s, c, i in zip(
            _triplets(std_dofs, std_local),
            _triplets(cut_dofs, cut_local),
            _triplets(*_interface_blocks(problem, space)),
        )
    ))
    values = space.dirichlet_values[:lift.shape[1]]  # every level's are the same
    starts = space.free_starts.tolist()
    for i, j in zip(starts, starts[1:]):
        rhs[i:j] -= lift[i:j] @ values
    return BandSystem(band, rhs, space)


def _element_order(n_pieces: int, cut_pieces: np.ndarray, per_standard: int, per_cut: int):
    """Index into [P * per_standard standard entries, 2c * per_cut cut entries] in element order."""
    start = np.arange(n_pieces) * per_standard
    start[cut_pieces] = n_pieces * per_standard + np.arange(len(cut_pieces)) * per_cut
    size = np.full(n_pieces, per_standard)
    size[cut_pieces] = per_cut
    stop = np.cumsum(size)
    return np.repeat(start + size - stop, size) + np.arange(stop[-1])


def _piece_integrals(problem: ProblemSpec, layout: CutLayout, quad: Quadrature):
    """(dofs, local matrices, local loads) of the standard batch, then of the cut batch.

    Each coefficient is evaluated once, on all of the level's points.
    """
    d_c, conv, w_c, f_c = (
        layer_values(problem.tables[name], layout.layer, quad.xs) for name in COEFFICIENTS
    )
    has_conv, has_w = (conv != 0.0).any(), (w_c != 0.0).any()
    integrals = []
    for basis, pieces in ((quad.standard, slice(None)), (quad.cut, layout.cut_pieces)):
        wq, vals, ders = quad.weights[pieces], basis.values, basis.derivatives
        vals_t = vals.transpose(0, 2, 1)
        local = (ders * (wq * d_c[pieces])[:, None]) @ ders.transpose(0, 2, 1)
        if has_conv:
            local += (ders * (wq * (-2.0) * conv[pieces])[:, None]) @ vals_t
        if has_w:
            local += (vals * (wq * w_c[pieces])[:, None]) @ vals_t
        integrals.append((basis.dofs, local, (vals * (wq * f_c[pieces])[:, None]).sum(axis=2)))
    return integrals


def _interface_blocks(problem: ProblemSpec, space: EnrichedSpace):
    """(dofs, local) of the implicit interfaces' terms, in position order.

    Each implicit cut gives its jump block [u_j][u_i]/lam, then, where
    delta-(alpha) != 0, its convection block -2 delta- u_j(alpha-) [u_i],
    from the cut's limits at alpha (``interface_traces``).  Without an
    implicit interface there are no terms, and no traces are built.
    """
    k, table = 2 * (space.degree + 1), problem.interface_table
    if not table["implicit"].any():
        return np.empty((0, k), dtype=int), np.empty((0, k, k))
    levels = space.mesh.n_levels  # each with the problem's interfaces, in order
    implicit = np.tile(table["implicit"], levels)
    lam, delta_minus = (np.tile(table[name], levels)[implicit] for name in ("lam", "delta_minus"))
    dofs, v_left, v_right = (a[implicit] for a in interface_traces(space))
    jump = v_right - v_left
    blocks = np.empty((len(jump), 2, k, k))
    np.divide(jump[:, :, None] * jump[:, None, :], lam[:, None, None], out=blocks[:, 0])
    np.multiply((-2.0 * delta_minus)[:, None, None], jump[:, :, None] * v_left[:, None, :],
                out=blocks[:, 1])
    keep = np.ones((len(jump), 2), dtype=bool)
    keep[:, 1] = delta_minus != 0.0
    return np.repeat(dofs, 2, axis=0)[keep.ravel()], blocks.reshape(-1, k, k)[keep.ravel()]


def _triplets(dofs, local):
    """(rows, columns, values) of element matrices ``local`` (E, k, k) on ``dofs`` (E, k)."""
    k = dofs.shape[1]
    rows, cols = dofs[:, :, None].repeat(k, axis=2), dofs[:, None, :].repeat(k, axis=1)
    return rows.ravel(), cols.ravel(), local.ravel()


def _scatter(space: EnrichedSpace, rows, cols, vals):
    """Sum (row, col, value) triplets of the full-DOF matrix into the free band and the lift.

    Returns ``band`` as laid out in BandSystem and ``lift``, the
    free rows of the constrained columns, a level's columns side by side:
    lift[i, k] holds the row's entry in its level's k-th constrained
    column.  np.add.at adds the triplets in the order given.
    """
    fi, fj = space.free_index[rows], space.free_index[cols]
    free_row, free_column = fi >= 0, fj >= 0
    free = free_row & free_column
    fi_f, fj_f = fi[free], fj[free]
    q = 2 * space.degree + 1 if space.enrichments else space.degree
    band = np.zeros((2 * q + 1, space.n_free))
    np.add.at(band, (q + fi_f - fj_f, fj_f), vals[free])
    per_level = len(space.constrained) // space.mesh.n_levels
    lift = np.zeros((space.n_free, per_level))
    sel = free_row & ~free_column
    column = np.searchsorted(space.constrained, cols[sel]) % max(per_level, 1)
    np.add.at(lift, (fi[sel], column), vals[sel])
    return band, lift


def _scaled_lu(band: np.ndarray, starts=(0,)):
    """Banded LU of the Jacobi-scaled free matrix, for solves with A and A^T.

    With s_i = 1/sqrt|A_ii| (1 where A_ii = 0), factors S = diag(s) A diag(s)
    by banded LU with partial pivoting (dgbtrf), so that
    A^-1 = diag(s) S^-1 diag(s).  Returns (s, lu, piv, largest): largest[l]
    is max|S| over the columns from starts[l] to the next start, the whole
    matrix by default.  Row 2q of ``lu`` holds U's diagonal.  Raises on
    non-finite entries.
    """
    if not np.isfinite(band).all():
        raise ValueError("matrix has non-finite entries")
    q, n = band.shape[0] // 2, band.shape[1]
    # The enrichment DOFs scale with psi, so a cut near a node or a deep
    # mesh gives them diagonal entries many orders below the standard ones.
    # Unscaled, the one mesh-order LU lost four digits on a P2 file with
    # D = 14.1 | 0.0356 | 15.4 at n = 48 (relative forward error 1.05e-7,
    # against 2.2e-11 scaled), and a pivot floor relative to max|A| took
    # those small pivots for singular ones.
    diagonal = np.abs(band[q])
    s = np.ones(n)
    np.divide(1.0, np.sqrt(diagonal), out=s, where=diagonal > 0)
    # row q + i - j of column j holds A[i, j]: s_i along each band row is a
    # window of the padded s, row r starting at r (a view, as every row and
    # column steps one entry)
    padded = np.ones(n + 2 * q)
    padded[q:q + n] = s
    s_rows = as_strided(padded, (2 * q + 1, n), padded.strides * 2, writeable=False)
    scaled = band * s_rows * s
    # reduced in C order: the same reduction of the F-order factor storage is ten times slower
    column_max = np.maximum(scaled.max(axis=0), -scaled.min(axis=0))
    largest = np.maximum(np.maximum.reduceat(column_max, starts), np.finfo(float).tiny)
    factor_storage = np.zeros((3 * q + 1, n), order="F")  # q extra rows for pivoting fill
    factor_storage[q:] = scaled
    lu, piv, _ = _flapack.dgbtrf(factor_storage, q, q, overwrite_ab=1)
    return s, lu, piv, largest


def solve_system(system: BandSystem) -> np.ndarray:
    """One banded LU of the Jacobi-scaled free matrix, for every level of a stack at once.

    With s_i = 1/sqrt|A_ii| (1 where A_ii = 0), factor S = diag(s) A diag(s)
    by banded LU with partial pivoting (dgbtrf), solve S y = s b (dgbtrs)
    and return x = s y.  The band of a stack is block diagonal, so no
    pivot or multiplier crosses a level's boundary, and each level's x
    has the bits of its level solved alone.  Raises on non-finite entries
    of A or b, on a pivot of S below SINGULAR_PIVOT_RTOL * max|S|, and
    unless the residual of the unscaled system is at most
    SOLVER_RESIDUAL_RTOL * (||A||_F ||x|| + ||b||), with max|S|, A, x
    and b those of the pivot's or residual's level.  So a stack raises
    exactly when one of its levels alone would, with that level's
    message; where levels fail different checks, the stack raises the
    earlier check's.
    """
    band, b, q = system.band, system.rhs, system.bandwidth
    if not np.isfinite(b).all():
        raise ValueError("load vector has non-finite entries")
    starts = system.starts
    s, lu, piv, largest = _scaled_lu(band, starts[:-1])
    floor = np.repeat(SINGULAR_PIVOT_RTOL * largest, np.diff(starts))
    bad = np.flatnonzero(np.abs(lu[2 * q]) < floor)
    if bad.size:
        first = starts[np.searchsorted(starts, bad[0], side="right") - 1]
        raise np.linalg.LinAlgError(
            f"numerically singular system: zero pivot at free DOF {int(bad[0] - first)}"
        )
    y, _ = _flapack.dgbtrs(lu, q, q, s * b, piv)
    x = s * y

    ax = np.zeros(len(b))
    for row, i, j in _band_diagonals(q, len(b)):
        ax[i] += band[row, j] * x[j]
    # squares of the entries of A (summed down each column), x, b and Ax - b,
    # then summed over each level
    squares = np.empty((4, len(b)))
    np.einsum("ij,ij->j", band, band, out=squares[0])
    np.multiply(x, x, out=squares[1])
    np.multiply(b, b, out=squares[2])
    np.subtract(ax, b, out=squares[3])
    squares[3] *= squares[3]
    norm_a, norm_x, norm_b, residual = np.sqrt(np.add.reduceat(squares, starts[:-1], axis=1))
    bound = SOLVER_RESIDUAL_RTOL * (norm_a * norm_x + norm_b)
    bad = np.flatnonzero(~(residual <= bound))
    if bad.size:
        raise ArithmeticError(
            f"solver residual {residual[bad[0]]:.3e} exceeds tolerance {bound[bad[0]]:.3e}"
        )
    return x


def condition_number(system: BandSystem) -> float:
    """2-norm condition number sigma_max / sigma_min of the free matrix, from its band.

    sigma_max^2 is the largest eigenvalue of A^T A (``_gram_norm``).
    sigma_min^-2 is the largest eigenvalue of A^-1 A^-T, found by Lanczos
    (ARPACK's eigsh) with every product taken through the Jacobi-scaled
    banded LU of ``solve_system``.  Time and memory are O(n) for a fixed
    bandwidth; the dense matrix is never built.  Returns inf when A is
    exactly singular (a zero pivot).
    """
    from scipy.sparse.linalg import LinearOperator, eigsh  # imported by --cond only

    band, q = system.band, system.bandwidth
    n = band.shape[1]
    s, lu, piv, _ = _scaled_lu(band)
    if np.any(lu[2 * q] == 0.0):
        return float("inf")
    if n == 1:
        return 1.0

    def inverse_gram(v):
        # A^-1 A^-T v = s S^-1 (s^2 S^-T (s v))
        w, _ = _flapack.dgbtrs(lu, q, q, s * np.ravel(v), piv, trans=1)
        w, _ = _flapack.dgbtrs(lu, q, q, s * s * w, piv)
        return s * w

    operator = LinearOperator((n, n), matvec=inverse_gram, dtype=float)
    # a fixed start vector keeps the last digits, and so the reports, reproducible
    start = np.random.default_rng(0).standard_normal(n)
    (inverse_sigma_min_sq,) = eigsh(operator, k=1, v0=start, return_eigenvectors=False)
    return float(np.sqrt(_gram_norm(band) * inverse_sigma_min_sq))


def _gram_norm(band: np.ndarray) -> float:
    """Largest eigenvalue of A^T A (sigma_max^2) by bisection on banded Cholesky.

    A^T A is a symmetric band of half-width 2q, formed in O(n q^2).  Its
    largest eigenvalue lies between its largest diagonal entry and its
    largest absolute row sum, and sigma I - A^T A has a Cholesky factor
    (dpbtrf) exactly when sigma lies above it.  Bisection runs until the
    bracket is two adjacent floats, so the value is exact to a few ulps.
    """
    q, n = band.shape[0] // 2, band.shape[1]
    kd = min(2 * q, n - 1)
    # upper band storage: gram[kd - d, j] = (A^T A)[j - d, j]
    #   = sum_k A[k, j - d] A[k, j], with A[k, i] = band[q + k - i, i]
    gram = np.zeros((kd + 1, n), order="F")  # so that -gram goes to dpbtrf uncopied
    row_sums = np.zeros(n)
    for d in range(kd + 1):
        for r in range(d, 2 * q + 1):
            gram[kd - d, d:] += band[r, : n - d] * band[r - d, d:]
        row_sums[: n - d] += np.abs(gram[kd - d, d:])
        if d:
            row_sums[d:] += np.abs(gram[kd - d, d:])
    low, high = float(np.max(gram[kd])), float(np.max(row_sums))
    while low < (mid := 0.5 * (low + high)) < high:
        shifted = -gram
        shifted[kd] += mid
        _, info = _flapack.dpbtrf(shifted, overwrite_ab=1)
        if info == 0:
            high = mid
        else:
            low = mid
    return high
