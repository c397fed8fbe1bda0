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

from .enrichment import gamma_from_lambda
from .femspace import (
    BoundaryCondition,
    EnrichedSpace,
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

    Free DOFs are ordered standard-first, so the free matrix is

        A = [[S, B],
             [C, E]]

    with S the standard block, banded with bandwidth p = element degree,
    and B, C, E the border of the m enrichment DOFs of the cut elements.
    ``band`` holds S in LAPACK band storage, band[p + i - j, j] = S[i, j],
    shape (2p + 1, n_std); ``border_cols`` is B (n_std x m) and
    ``border_rows`` is [C E] (m x n_free).  Storage is O(n) for a fixed
    number of cuts.
    """

    band: np.ndarray
    border_cols: np.ndarray
    border_rows: np.ndarray
    rhs: np.ndarray
    space: EnrichedSpace

    @property
    def n_std(self) -> int:
        return self.band.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.band.shape[0] // 2

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense free matrix A, O(n^2): built on first access, for diagnostics."""
        ns = self.n_std
        dense = np.zeros((len(self.rhs), len(self.rhs)))
        for row, i, j in _band_diagonals(self.bandwidth, ns):
            dense[i, j] = self.band[row, j]
        dense[:ns, ns:] = self.border_cols
        dense[ns:] = self.border_rows
        return dense


def _band_diagonals(p: int, n: int):
    """(band row, row indices, column indices) of each diagonal of an n x n band."""
    for row in range(2 * p + 1):
        offset = row - p  # i - j
        j = np.arange(max(0, -offset), min(n, n - offset))
        yield row, j + offset, j


def _band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros(len(x))
    for row, i, j in _band_diagonals(band.shape[0] // 2, len(x)):
        out[i] += band[row, j] * x[j]
    return out


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
    b = np.zeros(space.n_dofs)
    blocks = []  # (dofs (E, n_local), local matrices (E, n_local, n_local)) in assembly order
    loads = []  # (dofs, local load vectors) in assembly order

    for batch in quadrature_pieces(space, quad_npts):
        xs, wq, vals, ders = batch.xs, batch.weights, batch.values, batch.derivatives
        d_c, conv, w_c, f_c = (
            coefficient[batch.layer](xs)
            for coefficient in (
                problem.diffusivity, problem.conv_delta, problem.reaction, problem.source
            )
        )
        vals_t = vals.transpose(0, 2, 1)
        local = (ders * (wq * d_c)[:, None]) @ ders.transpose(0, 2, 1)
        if np.any(conv != 0.0):
            local += (ders * (wq * (-2.0) * conv)[:, None]) @ vals_t
        if np.any(w_c != 0.0):
            local += (vals * (wq * w_c)[:, None]) @ vals_t
        blocks.append((batch.dofs, local))
        loads.append((batch.dofs, (vals * (wq * f_c)[:, None]).sum(axis=2)))

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

    np.add.at(
        b,
        np.concatenate([dofs.ravel() for dofs, _ in loads]),
        np.concatenate([load.ravel() for _, load in loads]),
    )
    band, border_cols, border_rows, lift = _scatter(space, blocks)
    rhs = b[space.free_index >= 0] - lift @ space.dirichlet_values
    return AssembledSystem(
        band=band,
        border_cols=border_cols,
        border_rows=border_rows,
        rhs=rhs,
        space=space,
    )


def _scatter(space: EnrichedSpace, blocks):
    """Sum element blocks of the full-DOF matrix into the free system's pieces.

    ``blocks`` holds (dofs, local) pairs of stacked element matrices, dofs
    of shape (E, n_local) and local of shape (E, n_local, n_local).
    Returns band, border_cols and border_rows as laid out in
    AssembledSystem, and ``lift``, the free rows of the constrained
    columns.  np.add.at adds the (row, col, value) triplets in the order
    given, so every entry is summed in assembly order.
    """
    rows = np.concatenate([np.repeat(dofs, dofs.shape[1], axis=1).ravel() for dofs, _ in blocks])
    cols = np.concatenate([np.tile(dofs, dofs.shape[1]).ravel() for dofs, _ in blocks])
    vals = np.concatenate([local.ravel() for _, local in blocks])
    fi, fj = space.free_index[rows], space.free_index[cols]

    p = space.degree
    ns = space.n_std - len(space.constrained)
    m = space.n_free - ns
    band = np.zeros((2 * p + 1, ns))
    border_cols = np.zeros((ns, m))
    border_rows = np.zeros((m, space.n_free))
    lift = np.zeros((space.n_free, len(space.constrained)))

    std_row = (fi >= 0) & (fi < ns)
    sel = std_row & (fj >= 0) & (fj < ns)
    np.add.at(band, (p + fi[sel] - fj[sel], fj[sel]), vals[sel])
    sel = std_row & (fj >= ns)
    np.add.at(border_cols, (fi[sel], fj[sel] - ns), vals[sel])
    sel = (fi >= ns) & (fj >= 0)
    np.add.at(border_rows, (fi[sel] - ns, fj[sel]), vals[sel])
    sel = (fi >= 0) & (fj < 0)
    np.add.at(lift, (fi[sel], np.searchsorted(space.constrained, cols[sel])), vals[sel])
    return band, border_cols, border_rows, lift


def solve_system(system: AssembledSystem) -> np.ndarray:
    """Block elimination: banded LU of S, then the enrichment Schur complement.

    With A = [[S, B], [C, E]] as in AssembledSystem: solve S [z W] = [b_s B]
    by banded LU with partial pivoting, factor the m x m Schur complement
    E - C W by dense LU, solve it for the enrichment DOFs
    x_e = (E - C W)^-1 (b_e - C z), and back-substitute x_s = z - W x_e.
    Raises on non-finite entries, on a pivot of either factorization below
    SINGULAR_PIVOT_RTOL * max|A|, and on a residual above
    SOLVER_RESIDUAL_RTOL * (||A||_F ||x|| + ||b||).
    """
    band, cols, rows, b = system.band, system.border_cols, system.border_rows, system.rhs
    p, ns = system.bandwidth, system.n_std
    parts = (band, cols, rows)
    if not all(np.all(np.isfinite(part)) for part in parts):
        raise ValueError("matrix has non-finite entries")
    scale = max((np.max(np.abs(part)) for part in parts if part.size), default=0.0)
    pivot_floor = SINGULAR_PIVOT_RTOL * max(scale, np.finfo(float).tiny)

    factor_storage = np.zeros((3 * p + 1, ns), order="F")  # p extra rows for pivoting fill
    factor_storage[p:] = band
    lu, piv, _ = scipy.linalg.lapack.dgbtrf(factor_storage, p, p, overwrite_ab=1)
    _check_pivots(np.abs(lu[2 * p]), pivot_floor, first_dof=0)  # row 2p holds U's diagonal
    solved, _ = scipy.linalg.lapack.dgbtrs(lu, p, p, np.column_stack([b[:ns], cols]), piv)
    z, w = solved[:, 0], solved[:, 1:]

    c, e = rows[:, :ns], rows[:, ns:]
    x_e = np.zeros(len(e))
    if len(e):  # LAPACK rejects an empty matrix
        # dgetrf reports a zero pivot through its info flag, never as a warning
        schur, schur_piv, _ = scipy.linalg.lapack.dgetrf(e - c @ w)
        _check_pivots(np.abs(np.diag(schur)), pivot_floor, first_dof=ns)
        x_e, _ = scipy.linalg.lapack.dgetrs(schur, schur_piv, b[ns:] - c @ z)
    x = np.concatenate([z - w @ x_e, x_e])

    ax = np.concatenate([_band_matvec(band, x[:ns]) + cols @ x_e, rows @ x])
    residual = np.linalg.norm(ax - b)
    frobenius = np.sqrt(sum(np.sum(part * part) for part in parts))
    bound = SOLVER_RESIDUAL_RTOL * (frobenius * np.linalg.norm(x) + np.linalg.norm(b))
    if residual > bound:
        raise ArithmeticError(
            f"solver residual {residual:.3e} exceeds tolerance {bound:.3e}"
        )
    return x


def _check_pivots(pivots: np.ndarray, floor: float, first_dof: int) -> None:
    bad = np.flatnonzero(pivots < floor)
    if bad.size:
        raise np.linalg.LinAlgError(
            f"numerically singular system: zero pivot at free DOF {first_dof + int(bad[0])}"
        )


def condition_number(matrix: np.ndarray) -> float:
    """2-norm condition number from the full singular spectrum."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if sigma[-1] == 0.0:
        return float("inf")
    return float(sigma[0] / sigma[-1])
