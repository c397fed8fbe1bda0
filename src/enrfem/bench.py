"""Benchmark catalog and the JSON problem-file format.

The catalog is a multi-layer porous-wall model of drug release: six
problems on (0, 1).  A drug concentration is injected at an interface
(where the solution jumps and the jump couples implicitly to the one-sided
flux) and diffuses rightward through layers where it stays continuous;
the flux -D u' + 2 delta u is continuous at every interface.

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
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.polynomial import Polynomial

from .assembly import (
    InterfaceSpec,
    ProblemSpec,
    _as_polynomial,
    _derivative,
    _polynomial,
    _product,
    _sum,
)
from .femspace import BoundaryCondition


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
    (default domain and window).  The
    arithmetic runs on coefficient arrays with the operations of the
    functions that Polynomial's operators call (``assembly._product``,
    ``_sum`` and ``_derivative``), so the result has the operators' bits.
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
        flux = _sum(_product(-d, _derivative(u)), _product(_product(np.array([2.0]), delta), u))
        out.append(_polynomial(_sum(_derivative(flux), _product(w, u))))
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
        return _polynomial(np.array(values))  # finite floats, as _number would give them
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
