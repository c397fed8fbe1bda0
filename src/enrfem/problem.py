"""The problem's data: layers, interfaces, boundary conditions and the problem file.

A problem is a two-point BVP on a multi-layer wall (a, b).  Each layer
carries polynomial coefficients D, delta, w and f in x; each interface
is continuous (lam = 0) or implicit (lam > 0, [u] = lam * (D u')(alpha-));
the flux -D u' + 2 delta u is continuous at every interface.  Each end
is Dirichlet or zero-flux Neumann.  ``ProblemSpec`` holds it all, with
each coefficient's table for the arithmetic below, which works on
coefficient arrays in powers of x.

The catalog is a multi-layer porous-wall model of drug release: six
problems on (0, 1).  A drug concentration is injected at an interface
(where the solution jumps and the jump couples implicitly to the one-sided
flux) and diffuses rightward through layers where it stays continuous.
Problems 1-3 use enriched linear elements, problems 4-6 repeat the same
BVPs with enriched quadratics:

  1/4: one implicit interface at 1/9, discontinuous solution
  2/5: two continuous interfaces at 1/3 and 2/3
  3/6: all three interfaces combined

The BVPs ship as ``catalog/1.json`` to ``3.json``, read by
``load_problem_file`` like any problem file.  Their coefficients derive
from the wall-model parameter n = 4; source terms are manufactured from
the exact solution branches, never transcribed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial import polynomial as P

from .enrichment import gamma_from_lambda


@dataclass(frozen=True)
class InterfaceSpec:
    """One interface point: continuous for lam = 0, implicit for lam > 0.

    An implicit interface has [u] = lam * (D u')(alpha-).  The
    enrichment's Robin parameter depends on the coefficients beside the
    interface as well, so it is derived by ``ProblemSpec.gammas``.
    """

    alpha: float
    lam: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"interface lam must be finite and >= 0, got {self.lam}")


@dataclass(frozen=True)
class BoundaryCondition:
    """Dirichlet(value) or Neumann(flux value; only zero flux is implemented)."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "neumann"):
            raise ValueError("boundary condition kind must be 'dirichlet' or 'neumann'")
        if self.kind == "neumann" and self.value != 0.0:
            raise ValueError("nonzero Neumann flux is not implemented")

    @staticmethod
    def dirichlet(value: float) -> "BoundaryCondition":
        return BoundaryCondition("dirichlet", float(value))

    @staticmethod
    def neumann(value: float = 0.0) -> "BoundaryCondition":
        return BoundaryCondition("neumann", float(value))


COEFFICIENTS = ("diffusivity", "conv_delta", "reaction", "source")


def _as_polynomial(value, where: str) -> Polynomial:
    """``value`` as a numpy Polynomial in powers of x; a float becomes degree 0.

    Raises for anything else, including a Polynomial whose domain and
    window differ: ``layer_values`` reads coefficients in x only.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return Polynomial([float(value)])
    if not isinstance(value, Polynomial) or value.domain.tolist() != value.window.tolist():
        raise ValueError(f"{where}: expected a float or a numpy Polynomial in x")
    return value


_DEFAULT_POLYNOMIAL = vars(Polynomial([0.0]))


def polynomial(coef: np.ndarray) -> Polynomial:
    """Polynomial(coef) for a 1-d float64 array, which it takes, without the argument checks.

    Polynomial's constructor copies ``coef`` through as_series, which costs
    most of the call; this is a default Polynomial with ``coef`` in place
    of its coefficients, equal to what the constructor would give.
    """
    poly = Polynomial.__new__(Polynomial)
    vars(poly).update(_DEFAULT_POLYNOMIAL, coef=coef)
    return poly


# Arithmetic on coefficient arrays in powers of x, with the bits of
# numpy.polynomial.polynomial's polymul, polyadd and polyder but without
# their argument checks and type promotion (as_series, common_type), which
# cost most of each call.

def _trimmed(c: np.ndarray) -> np.ndarray:
    """``c`` less its trailing zeros, keeping one coefficient, as numpy.polynomial trims."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """polymul(a, b): the trimmed convolution of the trimmed factors."""
    return _trimmed(np.convolve(_trimmed(a), _trimmed(b)))


def poly_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """polyadd(a, b): the shorter trimmed term added into a copy of the longer, trimmed."""
    a, b = _trimmed(a), _trimmed(b)
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[:len(b)] += b
    return _trimmed(out)


def _derivative(c: np.ndarray) -> np.ndarray:
    """polyder(c): j * c[j] for j >= 1, untrimmed, and c[0] * 0 for a constant."""
    return np.arange(1, len(c)) * c[1:] if len(c) > 1 else c[:1] * 0


def coefficient_table(coefs) -> np.ndarray:
    """(m, L) table of L coefficient arrays: row i holds each one's x^i coefficient, 0 above it."""
    table = np.zeros((max(len(c) for c in coefs), len(coefs)))
    for column, c in zip(table.T, coefs):
        column[:len(c)] = c
    return table


def layer_values(table: np.ndarray, layer: np.ndarray, x) -> np.ndarray:
    """Each point's layer polynomial from ``table`` (``coefficient_table``), at points x.

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


def layer_ranges(table: np.ndarray, breaks) -> tuple[np.ndarray, np.ndarray]:
    """Each layer's min and max of its polynomial in ``table``, on [breaks[i], breaks[i + 1]].

    ``table`` is a ``coefficient_table``, one column per layer.  Both
    lie at an end of the layer or at a real root of the derivative
    inside it.  Every root's real part, clipped to the layer, is a point
    of the layer, so the other roots add only values taken there.  A
    one-row table, every layer's polynomial a constant, is its own min
    and max.
    """
    if len(table) == 1:
        return table[0], table[0]
    xs = np.repeat(breaks[:-1, None], len(table) + 1, axis=1).astype(float)  # deg - 1 roots fit
    xs[:, 1] = breaks[1:]
    for row, coef in zip(xs, table.T):
        if coef[2:].any():  # polyroots trims the zeros that pad a column
            roots = P.polyroots(_derivative(coef)).real
            row[2:len(roots) + 2] = np.clip(roots, row[0], row[1])
    values = layer_values(table, np.arange(len(xs))[:, None], xs)
    return np.min(values, axis=1), np.max(values, axis=1)


@dataclass(frozen=True)
class ProblemSpec:
    """Full BVP description with per-layer polynomial coefficients.

    Layers are the subintervals between consecutive interfaces (and the
    domain endpoints); every coefficient tuple has one numpy Polynomial in
    x per layer, a float given in its place becoming a degree-0 one.
    ``exact``, when known, is one such Polynomial per layer, the branch
    on that layer, evaluable on the whole domain; ``tables`` holds its
    values and derivatives.  Anything else, a Polynomial with a mapped
    domain or a (value, derivative) pair included, is rejected.
    """

    domain: tuple[float, float]
    diffusivity: tuple[Polynomial, ...]
    conv_delta: tuple[Polynomial, ...]
    reaction: tuple[Polynomial, ...]
    source: tuple[Polynomial, ...]
    interfaces: tuple[InterfaceSpec, ...] = ()
    bc_left: BoundaryCondition = field(default_factory=lambda: BoundaryCondition.neumann())
    bc_right: BoundaryCondition = field(default_factory=lambda: BoundaryCondition.dirichlet(0.0))
    exact: tuple[Polynomial, ...] | None = None

    def __post_init__(self):
        a, b = self.domain
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError(f"domain ends must be finite, got ({a}, {b})")
        if not a < b:
            raise ValueError("domain requires a < b")
        alphas = [spec.alpha for spec in self.interfaces]
        if any(not a < al < b for al in alphas):
            raise ValueError("interfaces must lie strictly inside the domain")
        if any(x >= y for x, y in zip(alphas, alphas[1:])):
            raise ValueError("interfaces must be strictly increasing")
        n_layers = len(alphas) + 1
        for name in (*COEFFICIENTS, "exact"):
            entries = getattr(self, name)
            if name == "exact" and entries is None:
                continue
            if len(entries) != n_layers:
                raise ValueError(f"{name} needs one entry per layer ({n_layers})")
            object.__setattr__(self, name, tuple(
                _as_polynomial(c, f"{name} on layer {i}") for i, c in enumerate(entries)
            ))
        self.gammas  # an implicit interface needs a gamma: D-, D+ > 0 and a nonzero denominator
        breaks = np.array([a, *alphas, b])
        d_min, w_min = (
            layer_ranges(self.tables[name], breaks)[0] for name in ("diffusivity", "reaction")
        )
        bad = np.flatnonzero((d_min <= 0) | (w_min < 0))
        if bad.size and d_min[bad[0]] <= 0:
            raise ValueError(f"diffusivity must be positive on layer {bad[0]}")
        if bad.size:
            raise ValueError(f"reaction coefficient must be nonnegative on layer {bad[0]}")

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(spec.alpha for spec in self.interfaces)

    def check_mesh(self, mesh) -> None:
        """Raise ValueError unless every level of ``mesh`` is cut at the interfaces, in order."""
        if (alphas := tuple(mesh.alphas.tolist())) != self.breakpoints * mesh.n_levels:
            raise ValueError(f"mesh interfaces {alphas} are not the problem's {self.breakpoints}")

    @cached_property
    def tables(self) -> dict[str, np.ndarray]:
        """Each field's ``coefficient_table``, by name, read-only.

        With ``exact`` there is ``exact_derivative`` too, its branches' derivatives.
        """
        coefs = {name: [p.coef for p in getattr(self, name)] for name in COEFFICIENTS}
        if self.exact is not None:
            coefs["exact"] = [u.coef for u in self.exact]
            coefs["exact_derivative"] = [_derivative(u.coef) for u in self.exact]
        tables = {name: coefficient_table(c) for name, c in coefs.items()}
        for table in tables.values():
            table.flags.writeable = False
        return tables

    @cached_property
    def implicit_interfaces(self) -> dict[str, np.ndarray]:
        """The implicit interfaces' lam, and D-, D+ and delta- at alpha, evaluated once.

        Column ``implicit`` (I,) marks them among the interfaces; each of the
        others has one entry per implicit interface, in position order.
        """
        lam = np.array([spec.lam for spec in self.interfaces], dtype=float)
        implicit = lam != 0
        layer = np.flatnonzero(implicit)  # the layer left of each implicit interface
        alphas = np.array(self.breakpoints, dtype=float)[implicit]
        d_minus, d_plus = layer_values(self.tables["diffusivity"], layer + [[0], [1]], alphas)
        table = {"implicit": implicit, "lam": lam[implicit], "d_minus": d_minus, "d_plus": d_plus,
                 "delta_minus": layer_values(self.tables["conv_delta"], layer, alphas)}
        for column in table.values():
            column.flags.writeable = False
        return table

    @cached_property
    def gammas(self) -> tuple[float, ...]:
        """Robin parameter of each interface's enrichment, in position order.

        Zero at a continuous interface; at an implicit one ``gamma_from_lambda``
        of its lam, D-, D+ and delta- (``implicit_interfaces``).
        """
        table = self.implicit_interfaces
        out = [0.0] * len(self.interfaces)
        columns = (table[name].tolist() for name in ("lam", "d_minus", "d_plus", "delta_minus"))
        for j, *values in zip(np.flatnonzero(table["implicit"]).tolist(), *columns):
            try:
                out[j] = gamma_from_lambda(*values)
            except ValueError as exc:
                raise ValueError(f"interfaces[{j}]: {exc}") from exc
        return tuple(out)

class ProblemFileError(ValueError):
    """Usage error (exit 1): a bad problem file, or a study the input cannot set up."""


@dataclass(frozen=True)
class BenchmarkProblem:
    """Catalog entry: BVP (with its exact solution) and element degree."""

    problem: ProblemSpec
    degree: int


def manufactured_rhs(exact, diffusivity, conv_delta, reaction) -> list[Polynomial]:
    """Per-layer source f = (-D u' + 2 delta u)' + w u by polynomial arithmetic.

    For constant D and delta this is -D u'' + 2 delta u' + w u.  ``exact``
    holds one branch per layer, a numpy Polynomial (no numerical
    differentiation), and every Polynomial must be in powers of x
    (default domain and window).  The arithmetic runs on coefficient
    arrays with the operations of the functions that Polynomial's
    operators call (``product``, ``poly_sum`` and ``_derivative``), so the
    result has the operators' bits.
    """
    out = []
    for i, value in enumerate(exact):
        if not isinstance(value, Polynomial) or value.domain.tolist() != value.window.tolist():
            raise ValueError(
                f"layer {i} is not a polynomial in x; manufactured sources need "
                "second derivatives"
            )
        u = value.coef
        d, delta, w = (
            _as_polynomial(c[i], f"layer {i}").coef for c in (diffusivity, conv_delta, reaction)
        )
        flux = poly_sum(product(-d, _derivative(u)), product(product(np.array([2.0]), delta), u))
        out.append(polynomial(poly_sum(_derivative(flux), product(w, u))))
    return out


def catalog_problem(pid: int) -> BenchmarkProblem:
    """Benchmark problem by id; 1-3 are degree 1, 4-6 the same BVPs at degree 2."""
    if pid not in (1, 2, 3, 4, 5, 6):
        raise ProblemFileError(f"unknown benchmark problem id {pid}; valid ids are 1..6")
    path = Path(__file__).with_name("catalog") / f"{(pid - 1) % 3 + 1}.json"
    return BenchmarkProblem(problem=load_problem_file(path), degree=1 if pid <= 3 else 2)


def _coeff_list_to_poly(values, where: str) -> Polynomial:
    if not isinstance(values, list):
        raise ProblemFileError(f"field '{where}': expected a list of numbers")
    if values and all(type(v) is float and abs(v) < math.inf for v in values):
        return polynomial(np.array(values))  # finite floats, as _number would give them
    coeffs = [_number(v, f"{where}[{i}]") for i, v in enumerate(values)]
    if not coeffs:
        raise ProblemFileError(f"field '{where}': empty coefficient list")
    return Polynomial(coeffs)


def _parse_bc(spec, where: str) -> BoundaryCondition:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ProblemFileError(
            f"field '{where}': expected {{\"dirichlet\": value}} or {{\"neumann\": value}}"
        )
    kind, value = next(iter(spec.items()))
    if kind not in ("dirichlet", "neumann"):
        raise ProblemFileError(f"field '{where}': unknown kind '{kind}'")
    return BoundaryCondition(kind, _number(value, f"{where}.{kind}"))


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(f"field '{where}': expected a number")
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond the largest float
        number = math.inf
    if not math.isfinite(number):
        raise ProblemFileError(f"field '{where}': expected a finite number")
    return number


def load_problem_file(path) -> ProblemSpec:
    """Parse a JSON problem file into a ProblemSpec.

    Schema: domain [a, b]; layers (list of {D, delta_conv, w, f}) with
    polynomial coefficient lists in ascending degree, f optionally the
    string "manufactured"; interfaces (list of {alpha, kind, lambda});
    bc {left, right}; optional exact (per-layer coefficient lists).
    Every read, schema or value error is raised as ProblemFileError naming
    the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFileError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        return _parse_problem(doc)
    except ValueError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def _parse_problem(doc) -> ProblemSpec:
    if not isinstance(doc, dict):
        raise ProblemFileError("expected a JSON object")
    for key in ("domain", "layers", "interfaces", "bc"):
        if key not in doc:
            raise ProblemFileError(f"missing required field '{key}'")
    domain = doc["domain"]
    if not isinstance(domain, list) or len(domain) != 2:
        raise ProblemFileError("field 'domain': expected [a, b]")
    a, b = (_number(v, f"domain[{i}]") for i, v in enumerate(domain))

    layers, specs, bc = doc["layers"], doc["interfaces"], doc["bc"]
    if not isinstance(layers, list) or not layers:
        raise ProblemFileError("field 'layers': expected a non-empty list")
    if not isinstance(specs, list):
        raise ProblemFileError("field 'interfaces': expected a list")
    if len(specs) != len(layers) - 1:
        raise ProblemFileError(
            f"{len(layers)} layers require {len(layers) - 1} interfaces, got {len(specs)}"
        )
    if not isinstance(bc, dict):
        raise ProblemFileError("field 'bc': expected {\"left\": ..., \"right\": ...}")

    diffusivity, conv, reaction, f_specs = [], [], [], []
    for i, layer in enumerate(layers):
        if not isinstance(layer, dict):
            raise ProblemFileError(f"layer {i}: expected an object")
        for key in ("D", "delta_conv", "w", "f"):
            if key not in layer:
                raise ProblemFileError(f"layer {i}: missing field '{key}'")
        diffusivity.append(_coeff_list_to_poly(layer["D"], f"layers[{i}].D"))
        conv.append(_coeff_list_to_poly(layer["delta_conv"], f"layers[{i}].delta_conv"))
        reaction.append(_coeff_list_to_poly(layer["w"], f"layers[{i}].w"))
        f_specs.append(layer["f"])

    interfaces = []
    for i, spec in enumerate(specs):
        where = f"interfaces[{i}]"
        if not isinstance(spec, dict) or "alpha" not in spec or "kind" not in spec:
            raise ProblemFileError(f"{where}: needs 'alpha' and 'kind'")
        alpha = _number(spec["alpha"], f"{where}.alpha")
        if spec["kind"] == "continuous":
            if "lambda" in spec:
                raise ProblemFileError(f"{where}: 'lambda' belongs to implicit interfaces only")
            interfaces.append(InterfaceSpec(alpha))
        elif spec["kind"] == "implicit":
            if "lambda" not in spec:
                raise ProblemFileError(f"{where}: implicit kind needs 'lambda'")
            lam = _number(spec["lambda"], f"{where}.lambda")
            if not lam > 0:
                raise ProblemFileError(f"{where}: implicit interface requires lam > 0 (coercivity)")
            interfaces.append(InterfaceSpec(alpha, lam))
        else:
            raise ProblemFileError(f"{where}: unknown kind '{spec['kind']}'")

    exact = None
    if doc.get("exact") is not None:
        branches = doc["exact"]
        if not isinstance(branches, list) or len(branches) != len(layers):
            raise ProblemFileError("field 'exact': need one branch per layer")
        exact = tuple(_coeff_list_to_poly(c, f"exact[{i}]") for i, c in enumerate(branches))

    source = []
    manufactured = None
    for i, f_spec in enumerate(f_specs):
        if f_spec == "manufactured":
            if exact is None:
                raise ProblemFileError(
                    f"layers[{i}].f: \"manufactured\" requires 'exact' branches"
                )
            if manufactured is None:
                manufactured = manufactured_rhs(exact, diffusivity, conv, reaction)
            source.append(manufactured[i])
        else:
            source.append(_coeff_list_to_poly(f_spec, f"layers[{i}].f"))

    return ProblemSpec(
        domain=(a, b),
        diffusivity=tuple(diffusivity),
        conv_delta=tuple(conv),
        reaction=tuple(reaction),
        source=tuple(source),
        interfaces=tuple(interfaces),
        bc_left=_parse_bc(bc.get("left"), "bc.left"),
        bc_right=_parse_bc(bc.get("right"), "bc.right"),
        exact=exact,
    )
