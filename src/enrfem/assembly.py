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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

from .enrichment import eval_enrichment, gamma_from_lambda
from .femspace import (
    Basis,
    BoundaryCondition,
    EnrichedSpace,
    Quadrature,
    _with_enrichment,
    build_space,
    exact_rule_size,
    quadrature_pieces,
    standard_basis,
)
from .mesh import Mesh1D

SOLVER_RESIDUAL_RTOL = 1e-10
SINGULAR_PIVOT_RTOL = 1e-14


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


_COEFFICIENTS = ("diffusivity", "conv_delta", "reaction", "source")


def _as_polynomial(value, where: str) -> Polynomial:
    """``value`` as a numpy Polynomial in powers of x; a float becomes degree 0.

    Raises for anything else, including a Polynomial whose domain and
    window differ: ``_layer_values`` reads coefficients in x only.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Polynomial([float(value)])
    if not isinstance(value, Polynomial) or value.domain.tolist() != value.window.tolist():
        raise ValueError(f"{where}: expected a float or a numpy Polynomial in x")
    return value


def _coefficient_table(polys) -> np.ndarray:
    """(m, L) table of L Polynomials: row i holds each one's x^i coefficient, 0 above its degree."""
    table = np.zeros((max(len(p.coef) for p in polys), len(polys)))
    for column, p in zip(table.T, polys):
        column[:len(p.coef)] = p.coef
    return table


def _layer_values(table: np.ndarray, layer: np.ndarray, x) -> np.ndarray:
    """Each point's layer polynomial from ``table`` (``_coefficient_table``), at points x.

    ``layer`` holds the points' layers and broadcasts against x, and so
    does the result.  One Horner pass serves every layer: each step is
    polyval's c + out * x, so the values have Polynomial.__call__'s bits,
    up to the sign of an exact zero.  A constant table is only a gather.
    """
    if len(table) == 1:
        return table[0][layer]
    out = table[-1][layer] + x * 0
    for coefficients in table[-2::-1]:
        out *= x
        out += coefficients[layer]
    return out


def _layer_ranges(polys, breaks) -> tuple[np.ndarray, np.ndarray]:
    """Each layer's min and max of its Polynomial in ``polys``, on [breaks[i], breaks[i + 1]].

    Both lie at an end of the layer or at a real root of the derivative
    inside it.  Every root's real part, clipped to the layer, is a point
    of the layer, so the other roots add only values taken there.
    """
    table = _coefficient_table(polys)
    xs = np.repeat(breaks[:-1, None], len(table) + 1, axis=1).astype(float)  # deg - 1 roots fit
    xs[:, 1] = breaks[1:]
    for row, p in zip(xs, polys):
        if len(p.coef) > 2:
            roots = P.polyroots(P.polyder(p.coef)).real
            row[2:len(roots) + 2] = np.clip(roots, row[0], row[1])
    values = _layer_values(table, np.arange(len(polys))[:, None], xs)
    return np.min(values, axis=1), np.max(values, axis=1)


@dataclass(frozen=True)
class ProblemSpec:
    """Full BVP description with per-layer polynomial coefficients.

    Layers are the subintervals between consecutive interfaces (and the
    domain endpoints); every coefficient tuple has one numpy Polynomial in
    x per layer, a float given in its place becoming a degree-0 one.
    ``exact``, when known, is one (value, derivative) pair of such
    Polynomials per layer, each evaluable on the whole domain.  Anything
    else, a Polynomial with a mapped domain included, is rejected.
    """

    domain: tuple[float, float]
    diffusivity: tuple[Polynomial, ...]
    conv_delta: tuple[Polynomial, ...]
    reaction: tuple[Polynomial, ...]
    source: tuple[Polynomial, ...]
    interfaces: tuple[InterfaceSpec, ...] = ()
    bc_left: BoundaryCondition = field(default_factory=lambda: BoundaryCondition.neumann())
    bc_right: BoundaryCondition = field(default_factory=lambda: BoundaryCondition.dirichlet(0.0))
    exact: tuple[tuple[Polynomial, Polynomial], ...] | None = None

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
        for name in (*_COEFFICIENTS, "exact"):
            entries = getattr(self, name)
            if entries is not None and len(entries) != n_layers:
                raise ValueError(f"{name} needs one entry per layer ({n_layers})")
        for name in _COEFFICIENTS:
            polys = tuple(
                _as_polynomial(c, f"{name} on layer {i}") for i, c in enumerate(getattr(self, name))
            )
            object.__setattr__(self, name, polys)
        if self.exact is not None:
            object.__setattr__(self, "exact", tuple(
                tuple(_as_polynomial(f, f"exact on layer {i}") for f in branch)
                for i, branch in enumerate(self.exact)
            ))
        self.gammas  # an implicit interface needs D- != D+, both positive
        breaks = np.array([a, *alphas, b])
        d_min, w_min = (
            _layer_ranges(getattr(self, name), breaks)[0] for name in ("diffusivity", "reaction")
        )
        bad = np.flatnonzero((d_min <= 0) | (w_min < 0))
        if bad.size and d_min[bad[0]] <= 0:
            raise ValueError(f"diffusivity must be positive on layer {bad[0]}")
        if bad.size:
            raise ValueError(f"reaction coefficient must be nonnegative on layer {bad[0]}")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(spec.alpha for spec in self.interfaces)

    @cached_property
    def tables(self) -> dict[str, np.ndarray]:
        """Each coefficient's ``_coefficient_table``, by field name."""
        return {name: _coefficient_table(getattr(self, name)) for name in _COEFFICIENTS}

    @cached_property
    def gammas(self) -> tuple[float, ...]:
        """Robin parameter of each interface's enrichment, in position order.

        Zero at a continuous interface; at an implicit one
        -lam*D-*D+/(D+ - D-) with D- and D+ the diffusivities of the two
        adjacent layers evaluated at alpha.
        """
        implicit = np.array(
            [j for j, spec in enumerate(self.interfaces) if spec.lam != 0], dtype=int
        )
        alphas = np.array([self.interfaces[j].alpha for j in implicit.tolist()])
        sides = _layer_values(self.tables["diffusivity"], implicit + np.array([[0], [1]]), alphas)
        out = [0.0] * len(self.interfaces)
        for j, d_minus, d_plus in zip(implicit.tolist(), *sides.tolist()):
            try:
                out[j] = gamma_from_lambda(self.interfaces[j].lam, d_minus, d_plus)
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
            np.fill_diagonal(dense[i, j], self.band[row, j])
        return dense


def _band_diagonals(q: int, n: int):
    """(band row, row slice, column slice) of each diagonal of an n x n band."""
    for row in range(2 * q + 1):
        offset = row - q  # i - j
        lo, hi = max(0, -offset), min(n, n - offset)
        yield row, slice(lo + offset, hi + offset), slice(lo, hi)


def space_for_problem(problem: ProblemSpec, mesh: Mesh1D, degree: int) -> EnrichedSpace:
    """The enriched space on ``mesh`` with the problem's gammas and boundary conditions."""
    mesh_alphas = tuple(hit.alpha for hit in mesh.interface_hits)
    if mesh_alphas != problem.breakpoints:
        raise ValueError(
            f"mesh interfaces {mesh_alphas} are not the problem's {problem.breakpoints}"
        )
    return build_space(mesh, degree, problem.gammas, problem.bc_left, problem.bc_right)


def assembly_rule_size(problem: ProblemSpec, degree: int) -> int:
    """``exact_rule_size`` of D u'v', delta u v', w u v and f v; cut, u and v have degree p + 1."""
    p = degree
    return exact_rule_size(
        (f"{name} on layer {i}", len(c.coef) - 1, len(c.coef) - 1 + extra)
        for name, extra in zip(_COEFFICIENTS, (2 * p, 2 * p + 1, 2 * p + 2, p + 1))
        for i, c in enumerate(getattr(problem, name))
    )


def assemble_system(problem: ProblemSpec, space: EnrichedSpace) -> AssembledSystem:
    """Assemble the free-DOF matrix and load vector on ``space``.

    A_ij = int (D u_j' - 2 delta u_j) u_i' + int w u_j u_i
           + sum_implicit ([u_j]/lam - 2 delta- u_j(alpha-)) [u_i],
    b_i = int f u_i, followed by the lift of the space's Dirichlet values.
    The Gauss rule is ``assembly_rule_size``'s.  Raises if the space's
    interfaces do not match the problem's.

    The pieces' loads and element matrices go to ``np.add.at`` in element
    order (``CutLayout.load_order`` and ``block_order``), then the
    interface blocks: every entry is summed in the order of a per-element
    assembly.
    """
    if tuple(psi.alpha for psi in space.enrichments) != problem.breakpoints:
        raise ValueError("space was not built from this problem's mesh and interfaces")
    layout = space.layout
    (std_dofs, std_local, std_load), (cut_dofs, cut_local, cut_load) = _piece_integrals(
        problem, quadrature_pieces(space, assembly_rule_size(problem, space.degree))
    )
    dofs = np.concatenate([std_dofs.ravel(), cut_dofs.ravel()])[layout.load_order]
    f_local = np.concatenate([std_load.ravel(), cut_load.ravel()])[layout.load_order]
    fi = space.free_index[dofs]
    rhs = np.zeros(space.n_free)
    np.add.at(rhs, fi[fi >= 0], f_local[fi >= 0])

    band, lift = _scatter(space, *(
        np.concatenate([np.concatenate([s, c])[layout.block_order], i])
        for s, c, i in zip(
            _triplets(std_dofs, std_local),
            _triplets(cut_dofs, cut_local),
            _triplets(*_interface_blocks(problem, space)),
        )
    ))
    rhs -= lift @ space.dirichlet_values
    return AssembledSystem(band=band, rhs=rhs, space=space)


def _piece_integrals(problem: ProblemSpec, quad: Quadrature):
    """(dofs, local matrices, local loads) of the standard batch, then of the cut batch.

    Each coefficient is evaluated once, on all of the level's points.
    """
    d_c, conv, w_c, f_c = (
        _layer_values(problem.tables[name], quad.layer, quad.xs) for name in _COEFFICIENTS
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
    return integrals


def _interface_blocks(problem: ProblemSpec, space: EnrichedSpace):
    """(dofs, local) of the implicit interfaces' terms, in position order.

    Each implicit cut gives its jump block [u_j][u_i]/lam, then, where
    delta-(alpha) != 0, its convection block -2 delta- u_j(alpha-) [u_i].
    The rows of every cut at alpha come in one batch: each cut's left,
    then right limit.
    """
    layout = space.layout
    alpha = layout.psi.alpha  # (c, 1)
    rows = standard_basis(space, layout.elements[layout.cut_pieces], np.repeat(alpha, 2, axis=0))
    left, right = (eval_enrichment(layout.psi, alpha, side) for side in ("left", "right"))
    psi = (np.concatenate(pair, axis=1).reshape(-1, 1, 1) for pair in zip(left, right))
    both = _with_enrichment(space, layout.piece_cuts, Basis(*rows), *psi)
    implicit = np.array([spec.lam > 0 for spec in problem.interfaces], dtype=bool)
    lam = np.array([spec.lam for spec in problem.interfaces])[implicit][:, None, None]
    v_left, v_right = (both.values[side::2, :, 0][implicit] for side in (0, 1))
    jump = v_right - v_left
    delta_minus = _layer_values(
        problem.tables["conv_delta"], np.flatnonzero(implicit), alpha[implicit, 0]
    )
    k = jump.shape[1]
    blocks = np.empty((len(jump), 2, k, k))
    np.divide(jump[:, :, None] * jump[:, None, :], lam, out=blocks[:, 0])
    np.multiply((-2.0 * delta_minus)[:, None, None], jump[:, :, None] * v_left[:, None, :],
                out=blocks[:, 1])
    keep = np.ones((len(jump), 2), dtype=bool)
    keep[:, 1] = delta_minus != 0.0
    dofs = both.dofs[::2][implicit]
    return np.repeat(dofs, 2, axis=0)[keep.ravel()], blocks.reshape(-1, k, k)[keep.ravel()]


def _triplets(dofs, local):
    """(rows, columns, values) of element matrices ``local`` (E, k, k) on ``dofs`` (E, k)."""
    k = dofs.shape[1]
    rows, cols = dofs[:, :, None].repeat(k, axis=2), dofs[:, None, :].repeat(k, axis=1)
    return rows.ravel(), cols.ravel(), local.ravel()


def _scatter(space: EnrichedSpace, rows, cols, vals):
    """Sum (row, col, value) triplets of the full-DOF matrix into the free band and the lift.

    Returns ``band`` as laid out in AssembledSystem and ``lift``, the
    free rows of the constrained columns.  np.add.at adds the triplets in
    the order given.
    """
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
    padded = np.ones(n + 2 * q)
    padded[q:q + n] = s
    s_rows = sliding_window_view(padded, n)
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
