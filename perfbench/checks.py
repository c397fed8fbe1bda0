"""Checks of enrfem's convergence-study output, made apart from the program.

Each study's JSON report is checked against what the benchmark knows on
its own: the paper's reference tables, the convergence orders of the
element degree, the mesh sizes it asked for, and, for condition numbers
beyond the tables, an estimate it computes itself (``cond_estimate``).
Rows whose error sits near the round-off floor are not held to an order.

``check_study`` returns a ``StudyCheck`` with status ``ok``, ``failed``
(the program exited non-zero: the study counts as a failed operation) or
``wrong`` (it exited 0 with output that fails a check).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

EPS = sys.float_info.epsilon

# The paper's reference tables at h = 1/8 ... 1/512 (problem 2: P1 with two
# continuous interfaces; problem 6: P2 with all three interfaces).
PAPER_L2 = {
    2: [8.58406e-03, 2.11391e-03, 5.30238e-04, 1.32359e-04, 3.31638e-05, 8.29035e-06, 2.07405e-06],
    6: [6.27649e-04, 8.13414e-05, 1.02475e-05, 1.28510e-06, 1.60819e-07, 2.01127e-08, 2.51466e-09],
}
PAPER_H1 = {
    2: [2.91716e-01, 1.46341e-01, 7.35572e-02, 3.67855e-02, 1.84188e-02, 9.21011e-03, 4.60678e-03],
    6: [3.33100e-02, 8.48190e-03, 2.12830e-03, 5.33218e-04, 1.33418e-04, 3.33692e-05, 8.34407e-06],
}
PAPER_COND = {
    2: [0.127626e+05, 0.109720e+06, 0.304583e+06, 0.175135e+07, 0.511390e+07, 0.277080e+08, 0.825348e+08],
}
# max |u| of the paper's exact solution on (0, 1): the branch 3(1 - x) x^5
# peaks at x = 5/6; the other branches stay below 0.14 on their layers.
PAPER_U_MAX = 3.0 * (1.0 / 6.0) * (5.0 / 6.0) ** 5
# Largest over smallest layer diffusivity of the paper's wall model (n = 4):
# D = 1, 1.35, 0.54, 2.1.
PAPER_D_RATIO = 2.1 / 0.54

ERROR_BAND = 0.10       # computed / reference error within 10 %, as acceptance criterion 01
COND_BAND = 10.0        # computed / reference cond within a factor 10, as criterion 06
PAIR_BAND = 0.25        # every order above the floor, catalog studies
LAST_BAND = 0.40        # finest order above the floor, coarse sweep studies
MIN_PAIRS = 3           # a catalog study must have this many checked orders per column
COND_EST_RTOL = 1e-3    # estimate / computed cond in [1 - rtol, 1 + 1e-6]
ORDER_ATOL = 1e-9       # reported order vs recomputed from the error columns


@dataclass
class StudyCheck:
    status: str                       # "ok", "failed" or "wrong"
    problems: list[str] = field(default_factory=list)
    known_failure: bool = False       # failed with the expected message


def round_off_floor(h: float, u_max: float, d_ratio: float) -> tuple[float, float]:
    """Error sizes (L2, H1) below which a row may be round-off, not discretisation.

    The free-DOF matrix has a 2-norm condition number of order
    d_ratio / h^2 on the unit interval, so the solve perturbs the solution
    by up to eps * d_ratio / h^2 * max|u|; that perturbation varies on the
    scale of one element, which costs another 1/h in the H1 seminorm.
    """
    l2 = EPS * d_ratio * u_max / (h * h)
    return l2, l2 / h


def _orders(hs, errs):
    return [math.log(e0 / e1) / math.log(h0 / h1)
            for h0, h1, e0, e1 in zip(hs, hs[1:], errs, errs[1:])]


def check_study(expect: dict, code: int, out: str, err: str) -> StudyCheck:
    """Check one study's exit code and JSON report against ``expect``.

    ``expect`` holds: degree, h0 (a fraction string), levels, cond (bool),
    u_max, d_ratio, order_mode ("pairs" or "last"), and optionally paper
    (a reference-table id), cond_estimates ({row index: estimate}) and
    known_failure (a message a failing study is expected to print).
    """
    if code != 0:
        known = bool(expect.get("known_failure")) and expect["known_failure"] in err
        note = "known fault" if known else "unexpected failure"
        return StudyCheck("failed", [f"exit code {code} ({note}): {err.strip()}"], known)
    try:
        rows = json.loads(out)["rows"]
        return _check_rows(expect, rows)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return StudyCheck("wrong", [f"malformed report: {exc!r}"])


def _check_rows(expect: dict, rows: list) -> StudyCheck:
    problems = []
    if len(rows) != expect["levels"]:
        return StudyCheck("wrong", [f"{len(rows)} rows for {expect['levels']} levels"])

    h0 = Fraction(expect["h0"])
    hs = [float(h0 / 2**i) for i in range(expect["levels"])]
    for i, (row, h) in enumerate(zip(rows, hs)):
        if not math.isclose(row["h"], h, rel_tol=1e-12):
            problems.append(f"row {i}: h {row['h']!r} is not {h!r}")
        for key in ("l2", "h1_broken"):
            if not (isinstance(row[key], float) and math.isfinite(row[key]) and row[key] > 0):
                problems.append(f"row {i}: {key} {row[key]!r} is not a positive number")
    if problems:
        return StudyCheck("wrong", problems)

    p = expect["degree"]
    floors = [round_off_floor(h, expect["u_max"], expect["d_ratio"]) for h in hs]
    for key, order_key, expected, which in (("l2", "order_l2", p + 1, 0), ("h1_broken", "order_h1", p, 1)):
        errs = [row[key] for row in rows]
        orders = _orders(hs, errs)
        for i, order in enumerate(orders, start=1):
            reported = rows[i][order_key]
            if reported is None or abs(reported - order) > ORDER_ATOL:
                problems.append(f"row {i}: {order_key} {reported!r} is not {order:.6f}")
        above = [errs[i] > floors[i][which] for i in range(len(errs))]
        pairs = [i for i in range(len(orders)) if above[i] and above[i + 1]]
        if expect["order_mode"] == "last":
            pairs, band = [i for i in pairs if i == len(orders) - 1], LAST_BAND
        else:
            band = PAIR_BAND
            if len(pairs) < min(MIN_PAIRS, len(orders)):
                problems.append(f"{key}: only {len(pairs)} orders above the round-off floor")
        for i in pairs:
            if abs(orders[i] - expected) > band:
                problems.append(
                    f"{key}: order {orders[i]:.3f} between h={hs[i]:.4g} and "
                    f"h={hs[i + 1]:.4g}, expected {expected} +- {band}"
                )

    pid = expect.get("paper")
    if pid is not None:
        for key, table in (("l2", PAPER_L2[pid]), ("h1_broken", PAPER_H1[pid])):
            for i, ref in enumerate(table[: len(rows)]):
                ratio = rows[i][key] / ref
                if abs(ratio - 1.0) > ERROR_BAND:
                    problems.append(f"row {i}: {key} {rows[i][key]:.5e} vs paper {ref:.5e}")

    if expect["cond"]:
        table = PAPER_COND.get(pid, [])
        estimates = expect.get("cond_estimates", {})
        for i, row in enumerate(rows):
            cond = row["cond"]
            if not (isinstance(cond, float) and math.isfinite(cond) and cond >= 1.0):
                problems.append(f"row {i}: cond {cond!r} is not a number >= 1")
                continue
            if i < len(table):
                if not 1.0 / COND_BAND <= cond / table[i] <= COND_BAND:
                    problems.append(f"row {i}: cond {cond:.4e} vs paper {table[i]:.4e}")
            elif str(i) in estimates:
                ratio = estimates[str(i)] / cond
                if not 1.0 - COND_EST_RTOL <= ratio <= 1.0 + 1e-6:
                    problems.append(f"row {i}: cond {cond:.6e} vs estimate {estimates[str(i)]:.6e}")
            else:
                problems.append(f"row {i}: no reference for cond")
    elif any(row["cond"] is not None for row in rows):
        problems.append("cond column filled although not asked for")

    return StudyCheck("wrong" if problems else "ok", problems)


def cond_estimate(matrix, tol: float = 1e-12, max_iter: int = 20000) -> float:
    """sigma_max / sigma_min of ``matrix`` by power iteration on A^T A.

    sigma_min comes from inverse iteration through a sparse LU (SuperLU) of
    the benchmark's own, so the estimate shares no code with the program's
    SVD.  Both Rayleigh quotients approach from inside the spectrum, so the
    estimate is a lower bound that converges to the 2-norm condition number.
    """
    import numpy as np
    import scipy.sparse
    import scipy.sparse.linalg

    a = scipy.sparse.csc_matrix(matrix)
    at = a.T.tocsc()
    rng = np.random.default_rng(0)

    def top(apply):
        x = rng.standard_normal(a.shape[0])
        x /= np.linalg.norm(x)
        value = 0.0
        for _ in range(max_iter):
            y = apply(x)
            new = float(x @ y)
            x = y / np.linalg.norm(y)
            if abs(new - value) <= tol * new:
                break
            value = new
        return new

    lu = scipy.sparse.linalg.splu(a)
    sigma_max_sq = top(lambda x: at @ (a @ x))
    inv_sigma_min_sq = top(lambda x: lu.solve(lu.solve(x, trans="T")))
    return math.sqrt(sigma_max_sq * inv_sigma_min_sq)
