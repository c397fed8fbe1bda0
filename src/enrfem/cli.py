"""Command-line driver for convergence studies and benchmark reproduction.

    enrfem --problem 1 --degree 1 --h0 1/8 --levels 7 --cond --format csv

runs the chosen benchmark (or a problem file) over a sequence of halved
mesh sizes and emits a machine-readable table of errors, condition
numbers, and observed orders.  Exit codes: 0 success, 1 usage or parse
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.polynomial import Polynomial

from ._version import __version__
from .analysis import compute_errors, error_rule_size, observed_orders, polynomial_branches
from .assembly import (
    InterfaceSpec,
    ProblemSpec,
    assemble_system,
    assembly_rule_size,
    condition_number,
    solve_system,
    space_for_problem,
)
from .bench import catalog_problem, manufactured_rhs
from .femspace import BoundaryCondition
from .mesh import build_mesh

REPORT_FORMATS = ("csv", "markdown", "json")
_HEADER = ["h", "l2", "h1_broken", "nodal", "cond", "order_l2", "order_h1", "order_nodal"]
_ORDER_OF = {"l2": "order_l2", "h1_broken": "order_h1", "nodal": "order_nodal"}
_NUM = "{:.5e}"       # 6 significant digits


class ProblemFileError(ValueError):
    """Usage error (exit 1): a bad problem file, or a study the input cannot set up."""


@dataclass
class ConvergenceTable:
    """Per-refinement rows of errors, condition numbers and observed orders.

    Each row holds one value per report column (``_HEADER``); ``cond`` and the
    orders are None where they were not computed or are undefined.
    """

    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        hs = [row["h"] for row in self.rows]
        if any(x <= y for x, y in zip(hs, hs[1:])):
            raise ValueError("mesh sizes must be strictly decreasing")


def _coeff_list_to_poly(values, where: str) -> Polynomial:
    if not isinstance(values, list):
        raise ProblemFileError(f"field '{where}': expected a list of numbers")
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
    if not math.isfinite(value):
        raise ProblemFileError(f"field '{where}': expected a finite number")
    return float(value)


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
        polys = [_coeff_list_to_poly(c, f"exact[{i}]") for i, c in enumerate(branches)]
        exact = polynomial_branches(polys)

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


def _resolve_problem(problem) -> tuple[ProblemSpec, str, int]:
    """(spec, label, default degree) from a catalog id or a file path."""
    text = str(problem)
    if text.isdigit():
        try:
            entry = catalog_problem(int(text))
        except ValueError as exc:
            raise ProblemFileError(str(exc)) from exc
        return entry.problem, text, entry.degree
    return load_problem_file(text), text, 1


def _elements_for(h0: Fraction, a: float, b: float) -> int:
    n = (b - a) / float(h0) if h0 > 0 else 0.0
    if abs(n - round(n)) > 1e-9 * max(n, 1.0) or round(n) < 2:
        raise ProblemFileError(
            f"h0={h0} does not tile the domain ({a}, {b}) into >= 2 elements"
        )
    return int(round(n))


def _at_level(level: int, n: int, exc: Exception) -> Exception:
    """``exc`` again, its message prefixed with the level and its element count."""
    return type(exc)(f"level {level} (n={n}): {exc}")


def run_convergence(
    problem,
    degree: int | None,
    h0,
    levels: int,
    with_cond: bool = False,
) -> ConvergenceTable:
    """Solve on meshes h0, h0/2, ... and tabulate errors and orders.

    ``problem`` is a catalog id (1..6) or a problem-file path; the problem
    must carry an exact solution.  ``degree`` None takes the catalog
    entry's degree, or 1 for a problem file; ``build_space`` rejects any
    other than 1 or 2.  Data whose degrees need a larger Gauss rule than
    there is, and every mesh, are checked up front: an interface-node
    collision is reported with its level before any solve.
    Every numerical failure (ValueError or ArithmeticError, LinAlgError
    included) names its level: "level i (n=...): ...".
    """
    if levels < 1:
        raise ValueError("need at least one refinement level")
    spec, label, default_degree = _resolve_problem(problem)
    if degree is None:
        degree = default_degree
    if spec.exact is None:
        raise ProblemFileError(
            "convergence study requires an exact solution "
            "(catalog problem or problem file with 'exact')"
        )
    try:
        assembly_rule_size(spec, degree)
        error_rule_size(spec.exact, degree)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    h0 = Fraction(str(h0)) if not isinstance(h0, Fraction) else h0
    a, b = spec.domain
    n0 = _elements_for(h0, a, b)
    alphas = [s.alpha for s in spec.interfaces]

    meshes = []
    for level in range(levels):
        try:
            meshes.append(build_mesh(a, b, n0 * 2**level, alphas))
        except ValueError as exc:
            raise _at_level(level, n0 * 2**level, exc) from exc

    rows = []
    for level, mesh in enumerate(meshes):
        try:
            space = space_for_problem(spec, mesh, degree)
            system = assemble_system(spec, space)
            coeffs = solve_system(system)
            report = compute_errors(spec.exact, space, coeffs)
            rows.append({
                "h": (b - a) / mesh.n_elements,
                "l2": report.l2,
                "h1_broken": report.h1_broken,
                "nodal": report.nodal_max,
                "cond": condition_number(system) if with_cond else None,
            })
        except (ValueError, ArithmeticError) as exc:
            raise _at_level(level, mesh.n_elements, exc) from exc

    hs = [row["h"] for row in rows]
    for key, name in _ORDER_OF.items():
        errs = [row[key] for row in rows]
        # an exactly reproduced solution has zero errors and no orders
        col = observed_orders(hs, errs) if len(rows) > 1 and min(errs) > 0 else []
        for i, row in enumerate(rows):
            row[name] = col[i - 1] if i > 0 and col else None
    return ConvergenceTable(
        rows=rows,
        metadata={
            "problem": label,
            "degree": degree,
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    )


def _row_cells(row: dict) -> list[str]:
    return ["" if row[key] is None else _NUM.format(row[key]) for key in _HEADER]


def emit_report(table: ConvergenceTable, fmt: str) -> str:
    """Render the table as csv, markdown, or json (byte-stable per input)."""
    if not table.rows:
        raise ValueError("cannot emit an empty table")
    if fmt == "csv":
        lines = [",".join(_HEADER)]
        lines += [",".join(_row_cells(row)) for row in table.rows]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        width = 12
        def fmt_row(cells):
            return "| " + " | ".join(c.ljust(width) for c in cells) + " |"
        lines = [fmt_row(_HEADER), fmt_row(["-" * width] * len(_HEADER))]
        lines += [fmt_row(_row_cells(row)) for row in table.rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        rows = [{key: row[key] for key in _HEADER} for row in table.rows]
        return json.dumps({"metadata": table.metadata, "rows": rows}, indent=2) + "\n"
    raise ValueError(f"unknown format '{fmt}'; valid formats: {', '.join(REPORT_FORMATS)}")


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract wants 1.
    def error(self, message):
        raise ProblemFileError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="enrfem",
        description="Convergence studies for enriched 1D interface finite elements.",
    )
    parser.add_argument("--problem", required=True,
                        help="benchmark id 1..6 or path to a JSON problem file")
    parser.add_argument("--degree", type=int, choices=(1, 2), default=None,
                        help="element degree (default: the benchmark's, else 1)")
    parser.add_argument("--h0", default="1/8", help="coarsest mesh size, e.g. 1/8")
    parser.add_argument("--levels", type=int, default=7, help="number of refinements")
    parser.add_argument("--cond", action="store_true", help="report condition numbers")
    parser.add_argument("--format", choices=REPORT_FORMATS, default="csv")
    parser.add_argument("--out", default="stdout", help="output path or 'stdout'")

    try:
        args = parser.parse_args(argv)
        if args.levels < 1:
            parser.error("argument --levels: must be at least 1")
        h0 = Fraction(args.h0)
    except (ProblemFileError, ValueError, ZeroDivisionError) as exc:
        print(f"enrfem: error: {exc}", file=sys.stderr)
        return 1

    try:
        # overflow ends in a non-finite value that solve_system or ErrorReport
        # rejects; np.errstate would slow every small array operation instead
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "(overflow|invalid value|divide by zero) encountered", RuntimeWarning
            )
            table = run_convergence(args.problem, args.degree, h0, args.levels, with_cond=args.cond)
            text = emit_report(table, args.format)
    except ProblemFileError as exc:
        print(f"enrfem: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"enrfem: numerical failure: {exc}", file=sys.stderr)
        return 2

    if args.out == "stdout":
        sys.stdout.write(text)
        return 0
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        print(f"enrfem: error: {args.out}: cannot write: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
