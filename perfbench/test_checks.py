"""Tests of the benchmark's own output checker, sweep generator and timing scale.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import contextlib
import copy
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402


def _study(argv):
    out, err = io.StringIO(), io.StringIO()
    from enrfem.cli import main

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def p2_study():
    """Problem 2 over 4 levels with --cond, as the cond-p2 workload runs it."""
    workload = run.catalog_workload(2, degree=1, levels=4, cond=True)
    code, out, err = _study(workload["studies"][0]["argv"])
    assert code == 0, err
    return workload["expects"][0], out


def _with_rows(out, edit):
    doc = json.loads(out)
    edit(doc["rows"])
    return json.dumps(doc)


def _recompute_orders(rows):
    for i in range(1, len(rows)):
        for key, order_key in (("l2", "order_l2"), ("h1_broken", "order_h1")):
            rows[i][order_key] = math.log(rows[i - 1][key] / rows[i][key]) / math.log(2.0)


def test_good_output_passes(p2_study):
    expect, out = p2_study
    verdict = checks.check_study(expect, 0, out, "")
    assert verdict.status == "ok", verdict.problems


def test_doubled_l2_row_is_wrong(p2_study):
    expect, out = p2_study

    def double(rows):
        rows[2]["l2"] *= 2.0
        _recompute_orders(rows)  # as if the program had produced the row

    verdict = checks.check_study(expect, 0, _with_rows(out, double), "")
    assert verdict.status == "wrong"
    assert any("row 2: l2" in p and "paper" in p for p in verdict.problems)
    assert any("l2: order" in p for p in verdict.problems)


def test_malformed_report_is_wrong(p2_study):
    expect, out = p2_study
    for bad in ("", "{}", _with_rows(out, lambda rows: rows[1].pop("l2"))):
        assert checks.check_study(expect, 0, bad, "").status == "wrong"


def test_cond_off_by_100_is_wrong(p2_study):
    expect, out = p2_study

    def scale(rows):
        rows[1]["cond"] *= 100.0

    verdict = checks.check_study(expect, 0, _with_rows(out, scale), "")
    assert verdict.status == "wrong"
    assert any("row 1: cond" in p for p in verdict.problems)


def test_cond_beyond_the_table_is_checked_against_the_estimate(p2_study):
    from enrfem import assemble_system, build_mesh, catalog_problem, space_for_problem

    expect, out = p2_study
    entry = catalog_problem(2)
    alphas = [s.alpha for s in entry.problem.interfaces]
    estimates = {}
    for i in range(expect["levels"]):
        space = space_for_problem(entry.problem, build_mesh(0.0, 1.0, 8 * 2**i, alphas), 1)
        estimates[str(i)] = checks.cond_estimate(assemble_system(entry.problem, space).matrix)
    no_table = dict(expect, paper=None, cond_estimates=estimates)
    assert checks.check_study(no_table, 0, out, "").status == "ok"

    def scale(rows):
        rows[3]["cond"] *= 1.01

    verdict = checks.check_study(no_table, 0, _with_rows(out, scale), "")
    assert verdict.status == "wrong"
    assert any("row 3: cond" in p and "estimate" in p for p in verdict.problems)


def test_exit_code_2_counts_as_failed_and_names_the_known_fault(p2_study):
    expect = dict(p2_study[0], known_failure=run.KNOWN_FAULT)
    solvable = checks.check_study(expect, 2, "", "enrfem: numerical failure: solver residual\n")
    assert solvable.status == "failed" and not solvable.known_failure
    known = checks.check_study(
        expect, 2, "", f"enrfem: numerical failure: {run.KNOWN_FAULT}; change mesh size\n"
    )
    assert known.status == "failed" and known.known_failure


def test_rows_on_the_round_off_floor_are_not_held_to_an_order():
    h0, levels = Fraction(1, 8), 10
    expect = {
        "degree": 2, "h0": str(h0), "levels": levels, "cond": False,
        "u_max": checks.PAPER_U_MAX, "d_ratio": checks.PAPER_D_RATIO, "order_mode": "pairs",
    }

    def report(stall_at):
        rows = []
        for i in range(levels):
            h = float(h0 / 2**i)
            l2 = 0.3 * h**3 if i < stall_at else 0.3 * float(h0 / 2 ** (stall_at - 1)) ** 3
            rows.append({"h": h, "l2": l2, "h1_broken": 2.0 * h**2, "cond": None,
                         "order_l2": None, "order_h1": None})
        _recompute_orders(rows)
        return json.dumps({"rows": rows})

    # the L2 error stalls near 4e-11 from h = 1/2048 on, as problem 6 does
    assert checks.check_study(expect, 0, report(stall_at=9), "").status == "ok"
    # a stall well above the floor is a lost order
    verdict = checks.check_study(expect, 0, report(stall_at=5), "")
    assert verdict.status == "wrong"
    assert any("l2: order" in p for p in verdict.problems)


@pytest.fixture
def short_sweep(monkeypatch):
    monkeypatch.setattr(sweep, "N_RANDOM", 12)  # both degrees, 1-3 interfaces


def test_sweep_is_seeded_and_solved_files_pass(tmp_path, short_sweep):
    workload = run.sweep_workload(3, tmp_path, tmp_path)
    first = json.loads((tmp_path / "sweep" / "manifest.json").read_text())
    again = sweep.generate(3, tmp_path / "again")
    other = sweep.generate(4, tmp_path / "other")
    assert first == again and first != other
    assert len(first) == 13
    assert [e["file"] for e in first if e["degenerate"]] == [sweep.DEGENERATE_NAME]
    names = [e["file"] for e in first]
    assert all((tmp_path / "sweep" / n).read_text() == (tmp_path / "again" / n).read_text()
               for n in names)

    for k in range(len(names)):
        argv = copy.copy(workload["studies"][k]["argv"])
        argv[1] = str(tmp_path / argv[1])
        verdict = checks.check_study(workload["expects"][k], *_study(argv))
        if names[k] == sweep.DEGENERATE_NAME:
            assert verdict.status == "failed" and verdict.known_failure
        else:
            assert verdict.status == "ok", verdict.problems


def test_generator_rejects_branches_that_break_a_law(tmp_path, short_sweep):
    sweep.generate(5, tmp_path)
    doc = json.loads((tmp_path / "sweep-000.json").read_text())
    branches = [[Fraction(c) for c in branch] for branch in doc["exact"]]
    sweep.check_exact(doc, branches, sweep.ROUNDED_RTOL)
    branches[1][0] += Fraction(1, 1000)
    with pytest.raises(ValueError):
        sweep.check_exact(doc, branches, sweep.ROUNDED_RTOL)


def test_kernel_scaling_takes_out_the_host_speed():
    import refkernel

    nominal = refkernel.NOMINAL_S
    assert refkernel.scale(2.0, [nominal] * 3) == pytest.approx(2.0)
    # At half speed the work and the kernel both take twice as long; the
    # median ignores one disturbed kernel pass.
    assert refkernel.scale(4.0, [2 * nominal, 2 * nominal, 9 * nominal]) == pytest.approx(2.0)
