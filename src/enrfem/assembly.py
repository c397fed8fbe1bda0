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

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .enrichment import gamma_from_lambda
from .femspace import (
    BoundaryCondition,
    EnrichedSpace,
    Quadrature,
    build_space,
    element_basis,
    quadrature_pieces,
)
from .mesh import Mesh1D

SOLVER_RESIDUAL_RTOL = 1e-10
SINGULAR_PIVOT_RTOL = 1e-14
_COEFF_SAMPLES = 33


@dataclass(frozen=True)
class InterfaceSpec:
    """One interface point: continuous for lam = 0, implicit for lam > 0.

    An implicit interface has [u] = lam * (D u')(alpha-).  The
    enrichment's Robin parameter depends on the diffusivities beside the
    interface as well, so it is derived by ``ProblemSpec.gammas``.
    """

    alpha: float
    lam: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"interface lam must be finite and >= 0, got {self.lam}")


Coefficient = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemSpec:
    """Full BVP description with per-layer coefficients.

    Layers are the subintervals between consecutive interfaces (and the
    domain endpoints); every coefficient tuple has one evaluable entry per
    layer (numpy Polynomials, constants via ``lambda x: c``, or any
    array-aware callable).  ``exact``, when known, is one (value,
    derivative) pair per layer, each evaluable on the whole domain.
    """

    domain: tuple[float, float]
    diffusivity: tuple[Coefficient, ...]
    conv_delta: tuple[Coefficient, ...]
    reaction: tuple[Coefficient, ...]
    source: tuple[Coefficient, ...]
    interfaces: tuple[InterfaceSpec, ...] = ()
    bc_left: BoundaryCondition = field(default_factory=lambda: BoundaryCondition.neumann())
    bc_right: BoundaryCondition = field(default_factory=lambda: BoundaryCondition.dirichlet(0.0))
    exact: tuple[tuple[Coefficient, Coefficient], ...] | None = None

    def __post_init__(self):
        a, b = self.domain
        if not a < b:
            raise ValueError("domain requires a < b")
        alphas = [spec.alpha for spec in self.interfaces]
        if any(not a < al < b for al in alphas):
            raise ValueError("interfaces must lie strictly inside the domain")
        if any(x >= y for x, y in zip(alphas, alphas[1:])):
            raise ValueError("interfaces must be strictly increasing")
        n_layers = len(alphas) + 1
        for name in ("diffusivity", "conv_delta", "reaction", "source", "exact"):
            entries = getattr(self, name)
            if entries is not None and len(entries) != n_layers:
                raise ValueError(f"{name} needs one entry per layer ({n_layers})")
        self.gammas  # an implicit interface needs D- != D+, both positive
        breaks = [a] + alphas + [b]
        for i in range(n_layers):
            xs = np.linspace(breaks[i], breaks[i + 1], _COEFF_SAMPLES + 2)[1:-1]
            if np.min(self.diffusivity[i](xs)) <= 0:
                raise ValueError(f"diffusivity must be positive on layer {i}")
            if np.min(self.reaction[i](xs)) < 0:
                raise ValueError(f"reaction coefficient must be nonnegative on layer {i}")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(spec.alpha for spec in self.interfaces)

    @cached_property
    def gammas(self) -> tuple[float, ...]:
        """Robin parameter of each interface's enrichment, in position order.

        Zero at a continuous interface; at an implicit one
        -lam*D-*D+/(D+ - D-) with D- and D+ the diffusivities of the two
        adjacent layers evaluated at alpha.
        """
        out = []
        for j, spec in enumerate(self.interfaces):
            if spec.lam == 0:
                out.append(0.0)
                continue
            d_minus, d_plus = (float(d(spec.alpha)) for d in self.diffusivity[j:j + 2])
            try:
                out.append(gamma_from_lambda(spec.lam, d_minus, d_plus))
            except ValueError as exc:
                raise ValueError(f"interfaces[{j}]: {exc}") from exc
        return tuple(out)


@dataclass(frozen=True)
class AssembledSystem:
    """Free-DOF linear system with the Dirichlet lift folded into the rhs.

    Free DOFs run in mesh order (``EnrichedSpace.free_index``), so the
    free matrix A is one band.  ``band`` holds it in LAPACK band storage,
    band[q + i - j, j] = A[i, j], shape (2q + 1, n_free).  The half-width
    q is a rule of the layout, not a measurement: 2p + 1 for a space with
    cuts and p for one without, p the element degree.  Where a Dirichlet
    end sits beside the only cut, the outermost diagonals are zero.
    Storage is O(n).
    """

    band: np.ndarray
    rhs: np.ndarray
    space: EnrichedSpace

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] // 2

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense free matrix A, O(n^2), built on first access.

        Only tests and the benchmark read it; the program works on ``band``.
        """
        dense = np.zeros((len(self.rhs), len(self.rhs)))
        for row, i, j in _band_diagonals(self.bandwidth, len(self.rhs)):
            dense[i, j] = self.band[row, j]
        return dense


def _band_diagonals(q: int, n: int):
    """(band row, row indices, column indices) of each diagonal of an n x n band."""
    for row in range(2 * q + 1):
        offset = row - q  # i - j
        j = np.arange(max(0, -offset), min(n, n - offset))
        yield row, j + offset, j


def space_for_problem(problem: ProblemSpec, mesh: Mesh1D, degree: int) -> EnrichedSpace:
    """The enriched space on ``mesh`` with the problem's gammas and boundary conditions."""
    mesh_alphas = tuple(hit.alpha for hit in mesh.interface_hits)
    if mesh_alphas != problem.breakpoints:
        raise ValueError(
            f"mesh interfaces {mesh_alphas} are not the problem's {problem.breakpoints}"
        )
    return build_space(mesh, degree, problem.gammas, problem.bc_left, problem.bc_right)


def assemble_system(problem: ProblemSpec, space: EnrichedSpace, quad_npts: int = 6) -> AssembledSystem:
    """Assemble the free-DOF matrix and load vector on ``space``.

    A_ij = int (D u_j' - 2 delta u_j) u_i' + int w u_j u_i
           + sum_implicit ([u_j]/lam - 2 delta- u_j(alpha-)) [u_i],
    b_i = int f u_i, followed by the lift of the space's Dirichlet values.
    Raises if the space's interfaces do not match the problem's.
    """
    if tuple(psi.alpha for psi in space.enrichments) != problem.breakpoints:
        raise ValueError("space was not built from this problem's mesh and interfaces")
    if quad_npts < space.degree + 3:
        warnings.warn(
            f"quadrature with {quad_npts} points may be too coarse for "
            f"degree {space.degree}; recommend at least {space.degree + 3}",
            stacklevel=2,
        )
    runs = _piece_integrals(problem, quadrature_pieces(space, quad_npts))
    blocks = [(dofs, local) for dofs, local, _ in runs]
    for j, (spec, psi) in enumerate(zip(problem.interfaces, space.enrichments)):
        if spec.lam == 0:
            continue
        x = np.array([psi.alpha])
        idx, v_left, _ = element_basis(space, psi.element, x, "left")
        _, v_right, _ = element_basis(space, psi.element, x, "right")
        jump = v_right[:, 0] - v_left[:, 0]
        blocks.append((idx[None], np.outer(jump, jump)[None] / spec.lam))
        delta_minus = problem.conv_delta[j](psi.alpha)
        if delta_minus != 0.0:
            blocks.append((idx[None], (-2.0 * delta_minus * np.outer(jump, v_left[:, 0]))[None]))

    fi = space.free_index[np.concatenate([dofs.ravel() for dofs, _, _ in runs])]
    f_local = np.concatenate([load.ravel() for _, _, load in runs])
    rhs = np.zeros(space.n_free)
    np.add.at(rhs, fi[fi >= 0], f_local[fi >= 0])
    band, lift = _scatter(space, blocks)
    rhs -= lift @ space.dirichlet_values
    return AssembledSystem(band=band, rhs=rhs, space=space)


def _piece_integrals(problem: ProblemSpec, quad: Quadrature):
    """(dofs, local matrices, local loads) of all pieces, as runs in element order.

    Each coefficient is called once per layer.  Keeping element order makes
    every entry sum in the order of a per-element assembly.
    """
    d_c, conv, w_c, f_c = (
        quad.on_layers(coefficient)
        for coefficient in (problem.diffusivity, problem.conv_delta, problem.reaction, problem.source)
    )
    integrals = []
    for basis, pieces in ((quad.standard, slice(None)), (quad.cut, quad.cut_pieces)):
        wq, vals, ders = quad.weights[pieces], basis.values, basis.derivatives
        vals_t = vals.transpose(0, 2, 1)
        local = (ders * (wq * d_c[pieces])[:, None]) @ ders.transpose(0, 2, 1)
        if np.any(conv != 0.0):
            local += (ders * (wq * (-2.0) * conv[pieces])[:, None]) @ vals_t
        if np.any(w_c != 0.0):
            local += (vals * (wq * w_c[pieces])[:, None]) @ vals_t
        integrals.append((basis.dofs, local, (vals * (wq * f_c[pieces])[:, None]).sum(axis=2)))
    (standard, cut), runs, start = integrals, [], 0
    for j, left in enumerate(quad.cut_pieces[::2].tolist()):
        runs += [tuple(a[start:left] for a in standard), tuple(a[2 * j:2 * j + 2] for a in cut)]
        start = left + 2
    return runs + [tuple(a[start:] for a in standard)]


def _scatter(space: EnrichedSpace, blocks):
    """Sum element blocks of the full-DOF matrix into the free band and the lift.

    ``blocks`` holds (dofs, local) pairs of stacked element matrices, dofs
    of shape (E, n_local) and local of shape (E, n_local, n_local).
    Returns ``band`` as laid out in AssembledSystem and ``lift``, the
    free rows of the constrained columns.  np.add.at adds the (row,
    col, value) triplets in the order given, so every entry is summed in
    assembly order.
    """
    rows = np.concatenate([np.repeat(dofs, dofs.shape[1], axis=1).ravel() for dofs, _ in blocks])
    cols = np.concatenate([np.tile(dofs, dofs.shape[1]).ravel() for dofs, _ in blocks])
    vals = np.concatenate([local.ravel() for _, local in blocks])
    fi, fj = space.free_index[rows], space.free_index[cols]

    free = (fi >= 0) & (fj >= 0)
    fi_f, fj_f = fi[free], fj[free]
    q = 2 * space.degree + 1 if space.enrichments else space.degree
    band = np.zeros((2 * q + 1, space.n_free))
    np.add.at(band, (q + fi_f - fj_f, fj_f), vals[free])
    lift = np.zeros((space.n_free, len(space.constrained)))
    sel = (fi >= 0) & (fj < 0)
    np.add.at(lift, (fi[sel], np.searchsorted(space.constrained, cols[sel])), vals[sel])
    return band, lift


def _scaled_lu(band: np.ndarray):
    """Banded LU of the Jacobi-scaled free matrix, for solves with A and A^T.

    With s_i = 1/sqrt|A_ii| (1 where A_ii = 0), factors S = diag(s) A diag(s)
    by banded LU with partial pivoting (dgbtrf), so that
    A^-1 = diag(s) S^-1 diag(s).  Returns (s, lu, piv, max|S|); row 2q of
    ``lu`` holds U's diagonal.  Raises on non-finite entries.
    """
    if not np.all(np.isfinite(band)):
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
    # row q + i - j of column j holds A[i, j]: gather s_i along each band row
    s_rows = sliding_window_view(np.pad(s, q, constant_values=1.0), n)
    factor_storage = np.zeros((3 * q + 1, n), order="F")  # q extra rows for pivoting fill
    factor_storage[q:] = band * s_rows * s
    largest = np.max(np.abs(factor_storage), initial=np.finfo(float).tiny)
    lu, piv, _ = scipy.linalg.lapack.dgbtrf(factor_storage, q, q, overwrite_ab=1)
    return s, lu, piv, largest


def solve_system(system: AssembledSystem) -> np.ndarray:
    """One banded LU of the Jacobi-scaled free matrix.

    With s_i = 1/sqrt|A_ii| (1 where A_ii = 0), factor S = diag(s) A diag(s)
    by banded LU with partial pivoting (dgbtrf), solve S y = s b (dgbtrs)
    and return x = s y.  Raises on non-finite entries of A or b, on a
    pivot of S below SINGULAR_PIVOT_RTOL * max|S|, and unless the residual
    of the unscaled system is at most SOLVER_RESIDUAL_RTOL * (||A||_F ||x||
    + ||b||).
    """
    band, b, q = system.band, system.rhs, system.bandwidth
    if not np.all(np.isfinite(b)):
        raise ValueError("load vector has non-finite entries")
    s, lu, piv, largest = _scaled_lu(band)
    bad = np.flatnonzero(np.abs(lu[2 * q]) < SINGULAR_PIVOT_RTOL * largest)
    if bad.size:
        raise np.linalg.LinAlgError(
            f"numerically singular system: zero pivot at free DOF {int(bad[0])}"
        )
    y, _ = scipy.linalg.lapack.dgbtrs(lu, q, q, s * b, piv)
    x = s * y

    ax = np.zeros(len(b))
    for row, i, j in _band_diagonals(q, len(b)):
        ax[i] += band[row, j] * x[j]
    residual = np.linalg.norm(ax - b)
    bound = SOLVER_RESIDUAL_RTOL * (np.linalg.norm(band) * np.linalg.norm(x) + np.linalg.norm(b))
    if not residual <= bound:
        raise ArithmeticError(
            f"solver residual {residual:.3e} exceeds tolerance {bound:.3e}"
        )
    return x


def condition_number(system: AssembledSystem) -> float:
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
        w, _ = scipy.linalg.lapack.dgbtrs(lu, q, q, s * np.ravel(v), piv, trans=1)
        w, _ = scipy.linalg.lapack.dgbtrs(lu, q, q, s * s * w, piv)
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
        _, info = scipy.linalg.lapack.dpbtrf(shifted, overwrite_ab=1)
        if info == 0:
            high = mid
        else:
            low = mid
    return high
