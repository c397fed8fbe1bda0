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
import re
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from ._version import __version__
from .analysis import compute_errors, error_rule_size, observed_orders
from .assembly import (
    assemble_system,
    assembly_rule_size,
    condition_number,
    solve_system,
    space_for_problem,
)
from .mesh import Mesh1D, build_mesh
from .problem import ProblemFileError, ProblemSpec, catalog_problem, load_problem_file

REPORT_FORMATS = ("csv", "markdown", "json")
_HEADER = ["h", "l2", "h1_broken", "nodal", "cond", "order_l2", "order_h1", "order_nodal"]
_ORDER_OF = {"l2": "order_l2", "h1_broken": "order_h1", "nodal": "order_nodal"}
_NUM = "{:.5e}"       # 6 significant digits

# A study of at most this many elements over all its levels runs as one
# stack; a larger one runs its coarse levels, then its finest alone.  The
# split is for memory: under halving the coarse levels together have
# fewer elements than the finest, so two stacks keep a deep study's peak
# that of its finest level.  In a fresh process, problem 6 over 10 levels
# (8,184 elements) peaks at 45.2 MB as one stack against 41.2 MB split;
# at 2,040 elements (8 levels) one stack costs 1 MB more and saves a
# stack's fixed cost.
ONE_STACK_ELEMENTS = 2048


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


def _resolve_problem(problem) -> tuple[ProblemSpec, str, int]:
    """(spec, label, default degree) from a catalog id or a file path."""
    text = str(problem)
    if text.isascii() and text.isdigit():  # str.isdigit takes '²' and '٣' too
        entry = catalog_problem(int(text))
        return entry.problem, text, entry.degree
    return load_problem_file(text), text, 1


# A decimal exponent of this many digits puts a nonzero h0 far outside the
# float range: its mantissa has at most 4,300 digits on each side of the
# point, Python's limit for int parsing.
_FAR_EXPONENT_DIGITS = 5
_EXPONENT = re.compile(r"e(?P<exponent>[-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _elements_for(h0: str, a: float, b: float, levels: int) -> int:
    """The coarsest level's element count, (b - a) / h0; all levels' are checked before any array.

    ``h0`` is a fraction or a decimal, named as typed in every message.
    Fraction expands a decimal exponent into a power of ten, in time that
    grows faster than the exponent (seconds for 1e-10000000); so a
    decimal with an exponent of _FAR_EXPONENT_DIGITS digits or more is
    parsed with exponent 0, and refused as outside the range of a float
    unless it is zero.
    """
    match = _EXPONENT.search(h0)
    exponent = match["exponent"].lstrip("+-").replace("_", "").lstrip("0") if match else ""
    far = len(exponent) >= _FAR_EXPONENT_DIGITS and "/" not in h0
    try:
        value = Fraction(h0[:match.start()] + "e0" if far else h0)
    except (ValueError, ZeroDivisionError):
        raise ProblemFileError(f"argument --h0: invalid fraction value: {h0!r}") from None
    h0 = h0.strip()  # Fraction takes whitespace only at the ends; each message is one line
    try:
        width = math.inf if far else float(value)
    except OverflowError:
        width = math.inf
    if value and not 0 < abs(width) < math.inf:
        raise ProblemFileError(f"h0={h0} is outside the range of a float")
    n = (b - a) / width if value > 0 else 0.0
    # numpy cannot index a float64 node array of the finest level's length;
    # 64 doublings put any n >= 2 over the limit, and a power of two keeps
    # the float product exact (or inf, which a subnormal h0 gives n)
    if n * 2.0 ** (min(levels, 65) - 1) + 1 > sys.maxsize // 8:
        count = f"{n:.3g}" if n < math.inf else "over 1e308"
        raise ProblemFileError(f"h0={h0} gives {count} * 2**{levels - 1} elements on "
                               f"level {levels - 1}, more than an array can index")
    if abs(n - round(n)) > 1e-9 * max(n, 1.0) or round(n) < 2:
        raise ProblemFileError(f"h0={h0} does not tile the domain ({a}, {b}) into >= 2 elements")
    return int(round(n))


def _stack_rows(spec: ProblemSpec, degree: int, mesh: Mesh1D, with_cond: bool) -> list[dict]:
    """The rows of the stacked ``mesh``'s levels, run as one space.

    Space, assembly, errors from one solve of the whole stack, and with
    ``with_cond`` one condition_number of it.  A failure is raised as it comes.
    """
    space = space_for_problem(spec, mesh, degree)
    system = assemble_system(spec, space)
    reports = compute_errors(spec, space, solve_system(system))
    conds = condition_number(system).tolist() if with_cond else [None] * mesh.n_levels
    a, b = spec.domain
    starts = mesh.starts.tolist()
    return [
        {"h": (b - a) / (j - i), "l2": report.l2, "h1_broken": report.h1_broken,
         "nodal": report.nodal_max, "cond": cond}
        for i, j, report, cond in zip(starts, starts[1:], reports, conds)
    ]


def _level_by_level(spec: ProblemSpec, degree: int, counts: list[int], alphas,
                    with_cond: bool) -> list[dict]:
    """The rows of the levels with ``counts`` elements, run one at a time: the contract.

    Every level's mesh is built first; then each level runs as a stack
    of one, in order.  The first failure, the lowest failing level's at
    its first failing stage, is raised as "level i (n=...): ...".
    """
    a, b = spec.domain
    try:
        meshes = []
        for level, n in enumerate(counts):
            meshes.append(build_mesh(a, b, n, alphas))
        rows = []
        for level, mesh in enumerate(meshes):
            rows += _stack_rows(spec, degree, mesh, with_cond)
    except (ValueError, ArithmeticError) as exc:
        raise type(exc)(f"level {level} (n={counts[level]}): {exc}") from exc
    return rows


def run_convergence(
    problem,
    degree: int | None,
    h0: str,
    levels: int,
    with_cond: bool = False,
) -> ConvergenceTable:
    """Solve on meshes h0, h0/2, ... and tabulate errors and orders.

    ``problem`` is a catalog id (1..6) or a problem-file path; the problem
    must carry an exact solution.  ``degree`` None takes the catalog
    entry's degree, or 1 for a problem file; ``build_space`` rejects any
    other than 1 or 2.  ``h0`` is text, a fraction or a decimal.  Every
    argument is checked here before any mesh is built: a ``levels`` below
    1, data whose degrees need a larger Gauss rule than there is, and a
    bad h0 (``_elements_for``) raise ProblemFileError.  The levels run as
    one stack, or, above ONE_STACK_ELEMENTS elements in all, as two: the
    coarse levels, then the finest alone; each stack is one
    ``build_mesh`` call and one space (``_stack_rows``).  If a stack fails
    (ValueError or ArithmeticError, LinAlgError included), the study runs
    again level by level (``_level_by_level``): every level's mesh first,
    then each level alone, so the failure raised is the level-by-level
    loop's, "level i (n=...): ...", and an interface-node collision
    outranks a numerical failure of an earlier level.
    """
    if levels < 1:
        raise ProblemFileError("argument --levels: must be at least 1")
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
        error_rule_size(spec, degree)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    a, b = spec.domain
    n0 = _elements_for(str(h0), a, b, levels)
    alphas = spec.breakpoints

    counts = [n0 * 2**level for level in range(levels)]
    split = levels if sum(counts) <= ONE_STACK_ELEMENTS else levels - 1
    try:
        rows = [row for stack in (counts[:split], counts[split:]) if stack
                for row in _stack_rows(spec, degree, build_mesh(a, b, stack, alphas), with_cond)]
    except (ValueError, ArithmeticError):
        rows = _level_by_level(spec, degree, counts, alphas, with_cond)

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


@lru_cache(maxsize=None)
def _parser() -> _ArgumentParser:
    """The command line's parser, built on first use and kept for the process."""
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
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        # overflow ends in a non-finite value that solve_system or ErrorReport
        # rejects; np.errstate would slow every small array operation instead
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "(overflow|invalid value|divide by zero) encountered", RuntimeWarning
            )
            table = run_convergence(args.problem, args.degree, args.h0, args.levels,
                                    with_cond=args.cond)
            text = emit_report(table, args.format)
    except ProblemFileError as exc:
        print(f"enrfem: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the input asks for more memory than the machine has
        print(f"enrfem: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:  # np.linalg.LinAlgError is a ValueError
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
