import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from _helpers import FIXTURES, per_level_rows
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enrfem
from enrfem.cli import (
    ConvergenceTable,
    _elements_for,
    ProblemFileError,
    emit_report,
    load_problem_file,
    main,
    run_convergence,
)
from enrfem.problem import catalog_problem

CSV_HEADER = "h,l2,h1_broken,nodal,cond,order_l2,order_h1,order_nodal"
GOLDEN = Path(__file__).parent / "golden"


def _problem1_file(tmp_path, **overrides):
    doc = {
        "domain": [0.0, 1.0],
        "layers": [
            {"D": [1.0], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
            {"D": [1.35], "delta_conv": [12.15], "w": [0.0], "f": "manufactured"},
        ],
        "interfaces": [{"alpha": 1 / 9, "kind": "implicit", "lambda": 1 / 243}],
        "bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": 1 / 3}},
        "exact": [[0, 0, 0, 1 / 30], [0, 0, 0, 0, 1 / 3]],
    }
    doc.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_convergence_table_shape():
    table = run_convergence(1, 1, "1/8", 2, with_cond=True)
    assert len(table.rows) == 2
    assert table.rows[0]["h"] == 1 / 8 and table.rows[1]["h"] == 1 / 16
    for name in ("order_l2", "order_h1", "order_nodal"):
        assert table.rows[0][name] is None and table.rows[1][name] is not None
    assert table.rows[0]["cond"] > 1
    assert table.metadata["degree"] == 1
    assert table.metadata["problem"] == "1"


def test_degree_is_checked_by_the_space():
    with pytest.raises(ValueError, match="degree must be 1 or 2"):
        run_convergence(1, 3, "1/8", 2)


def test_interface_node_collision_names_level():
    with pytest.raises(ValueError, match="level 0"):
        run_convergence(1, 1, "1/9", 1)


def test_quadratic_elements_on_linear_benchmark():
    """Degree 2 on the continuous-solution benchmark trends to third order."""
    table = run_convergence(2, 2, "1/8", 4)
    assert table.rows[-1]["order_l2"] == pytest.approx(3.0, abs=0.25)


def test_exact_solution_required():
    spec_without_exact = {"exact": None}
    # a file-based problem without exact branches cannot run a study
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        path = _problem1_file(pathlib.Path(d), **spec_without_exact)
        # manufactured f needs exact too, so give explicit f polynomials
        doc = json.loads(path.read_text())
        doc["layers"][0]["f"] = [0.0, -0.2]
        doc["layers"][1]["f"] = [0.0, 0.0, -5.4, 32.4]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="exact solution"):
            run_convergence(str(path), 1, "1/8", 2)


def test_csv_single_row():
    table = run_convergence(1, 1, "1/8", 1)
    text = emit_report(table, "csv")
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert len(cells) == 8
    assert cells[4] == "" and cells[5] == ""  # no cond, no first-row order


def test_json_round_trip_is_bit_exact():
    table = run_convergence(1, 1, "1/8", 3, with_cond=True)
    doc = json.loads(emit_report(table, "json"))
    for i, row in enumerate(table.rows):
        for key in ("h", "l2", "h1_broken", "nodal", "cond"):
            assert doc["rows"][i][key] == row[key]
    for i, row in enumerate(table.rows):
        assert doc["rows"][i]["order_l2"] == row["order_l2"]
    assert doc["metadata"]["version"] == table.metadata["version"]


def test_markdown_columns():
    table = run_convergence(1, 1, "1/8", 2, with_cond=True)
    text = emit_report(table, "markdown")
    header = text.split("\n")[0]
    for name in CSV_HEADER.split(","):
        assert name in header
    assert text.count("\n") == 4  # header, rule, two data rows


def test_unknown_format_rejected():
    table = run_convergence(1, 1, "1/8", 1)
    with pytest.raises(ValueError, match="csv, markdown, json"):
        emit_report(table, "xml")


def test_empty_table_rejected():
    with pytest.raises(ValueError, match="empty"):
        emit_report(ConvergenceTable(), "csv")


@pytest.mark.parametrize("name, argv", [
    ("p1-levels3-cond", ["--problem", "1", "--levels", "3", "--cond"]),
    ("p4-levels2", ["--problem", "4", "--levels", "2"]),
    ("sweep-117-p2-levels4", [
        "--problem", "fixtures/sweep-117.json", "--degree", "2", "--h0", "1/8", "--levels", "4",
    ]),
    ("p3-levels3-cond", ["--problem", "3", "--levels", "3", "--cond"]),
    ("p6-levels3", ["--problem", "6", "--levels", "3"]),
])
@pytest.mark.parametrize("fmt, ext", [("csv", "csv"), ("markdown", "md"), ("json", "json")])
def test_report_bytes_match_golden(capsys, monkeypatch, name, argv, fmt, ext):
    """Reports are byte-identical to the committed ones (json without its timestamp).

    The problem-file case runs from the tests directory, so that the path
    in its json metadata is the same in every checkout.
    """
    monkeypatch.chdir(Path(__file__).parent)
    assert main(argv + ["--format", fmt]) == 0
    text = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', capsys.readouterr().out)
    assert text == (GOLDEN / f"{name}.{ext}").read_text()


def test_reports_are_deterministic():
    a = run_convergence(2, 1, "1/8", 3, with_cond=True)
    b = run_convergence(2, 1, "1/8", 3, with_cond=True)
    assert emit_report(a, "csv") == emit_report(b, "csv")
    assert emit_report(a, "markdown") == emit_report(b, "markdown")
    da, db = (json.loads(emit_report(t, "json")) for t in (a, b))
    da["metadata"].pop("timestamp"), db["metadata"].pop("timestamp")
    assert da == db


@pytest.mark.parametrize("problem, degree, h0, levels, with_cond", [
    *((pid, None, "1/8", 7, pid <= 3) for pid in range(1, 7)),
    *(("sweep-117", degree, h0, 4, False) for degree in (1, 2) for h0 in ("1/8", "1/12")),
    (2, None, "1/8", 9, True),
], ids=lambda value: str(value))
def test_stacked_levels_equal_the_per_level_loop(problem, degree, h0, levels, with_cond):
    """run_convergence's rows equal, with ==, those of one space per level (_helpers.per_level_rows).

    A study of at most ONE_STACK_ELEMENTS elements runs as one stacked
    space; problem 2 over 9 levels (4,088 elements) runs its coarse
    levels as one and its finest alone.  Every value of every row keeps
    its bits.
    """
    if problem == "sweep-117":
        problem, spec = str(FIXTURES / "sweep-117.json"), load_problem_file(FIXTURES / "sweep-117.json")
    else:
        spec = catalog_problem(problem).problem
    table = run_convergence(problem, degree, h0, levels, with_cond=with_cond)
    degree = table.metadata["degree"]
    assert table.rows == per_level_rows(spec, degree, Fraction(h0), levels, with_cond)


def test_problem_file_matches_catalog(tmp_path):
    path = _problem1_file(tmp_path)
    from_file = run_convergence(str(path), 1, "1/8", 2)
    from_catalog = run_convergence(1, 1, "1/8", 2)
    for rf, rc in zip(from_file.rows, from_catalog.rows):
        assert rf["l2"] == pytest.approx(rc["l2"], rel=1e-10)
        assert rf["h1_broken"] == pytest.approx(rc["h1_broken"], rel=1e-10)


def test_problem_file_syntax_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json }")
    with pytest.raises(ProblemFileError, match="line 1"):
        load_problem_file(path)


@pytest.mark.parametrize("text, message", [
    ("[" * 1000, "invalid JSON: nested too deeply"),
    ('{"domain": [0, ' + "1" * 5000 + "]}", r"invalid JSON: Exceeds the limit \(4300 digits\)"),
], ids=["deep-nesting", "long-integer"])
def test_json_beyond_the_parsers_limits_exits_1(tmp_path, capsys, text, message):
    """A 1,000-deep nesting and a 5,000-digit integer are file errors naming the file."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ProblemFileError, match=f"^{re.escape(str(path))}: {message}"):
        load_problem_file(path)
    assert main(["--problem", str(path), "--levels", "1"]) == 1
    err = capsys.readouterr().err
    assert re.match(f"enrfem: error: {re.escape(str(path))}: {message}", err)
    assert "Traceback" not in err


def test_problem_file_schema_errors(tmp_path):
    path = _problem1_file(tmp_path)
    doc = json.loads(path.read_text())
    del doc["layers"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match="'layers'"):
        load_problem_file(path)

    path = _problem1_file(tmp_path)
    doc = json.loads(path.read_text())
    del doc["layers"][0]["w"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match="layer 0: missing field 'w'"):
        load_problem_file(path)

    path = _problem1_file(tmp_path)
    doc = json.loads(path.read_text())
    doc["interfaces"][0]["kind"] = "sliding"
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match="unknown kind"):
        load_problem_file(path)

    path = _problem1_file(tmp_path)
    doc = json.loads(path.read_text())
    del doc["interfaces"][0]["lambda"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError, match="needs 'lambda'"):
        load_problem_file(path)

    path.write_text("5")
    with pytest.raises(ProblemFileError, match="expected a JSON object"):
        load_problem_file(path)


def _implicit_interface(**fields):
    return [{"alpha": 1 / 9, "kind": "implicit", "lambda": 1 / 243} | fields]


def _layers_with_d(d_right):
    return [
        {"D": [1.0], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
        {"D": [d_right], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
    ]


# (x - 35/68)^2 - 1e-6: below zero only within 1e-3 of 35/68
_DIP = [(35 / 68) ** 2 - 1e-6, -2 * 35 / 68, 1.0]

# entries a list of floats must not take, and the loader's message for each
_BAD_ENTRIES = [
    (math.nan, "expected a finite number"),
    (-math.inf, "expected a finite number"),
    (10**400, "expected a finite number"),
    ("0.5", "expected a number"),
    (True, "expected a number"),
]

# only continuous interfaces, so that no gamma needs D > 0 before the bounds are checked
_CONTINUOUS = [{"alpha": 1 / 9, "kind": "continuous"}]


@pytest.mark.parametrize("overrides, message", [
    ({"interfaces": [{"kind": "continuous"}]}, "interfaces[0]: needs 'alpha' and 'kind'"),
    ({"interfaces": 5}, "field 'interfaces': expected a list"),
    ({"bc": [1]}, "field 'bc': expected"),
    ({"layers": ["D delta_conv w f", _layers_with_d(1.35)[1]]}, "layer 0: expected an object"),
    ({"interfaces": _implicit_interface(alpha="abc")}, "field 'interfaces[0].alpha': expected a number"),
    ({"interfaces": _implicit_interface(**{"lambda": "q"})}, "field 'interfaces[0].lambda': expected a number"),
    ({"interfaces": _implicit_interface(**{"lambda": -1})}, "interfaces[0]: implicit interface requires lam > 0"),
    ({"layers": _layers_with_d(1.0)}, "interfaces[0]: diffusivity is continuous across the interface"),
    ({"layers": _layers_with_d(-1.0)}, "interfaces[0]: diffusivity limits must be positive"),
    ({"interfaces": [5]}, "interfaces[0]: needs 'alpha' and 'kind'"),
    ({"exact": 5}, "field 'exact': need one branch per layer"),
    ({"layers": [_layers_with_d(1.35)[0], {"D": "x", "delta_conv": [0.0], "w": [0.0], "f": [0.0]}]},
     "field 'layers[1].D': expected a list of numbers"),
    ({"domain": ["0", True]}, "field 'domain[0]': expected a number"),
    ({"domain": [0.0, 10**400]}, "field 'domain[1]': expected a finite number"),
    ({"layers": [{"D": [True], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
                 _layers_with_d(1.35)[1]]},
     "field 'layers[0].D[0]': expected a number"),
    ({"bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": False}}},
     "field 'bc.right.dirichlet': expected a number"),
    ({"bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": math.nan}}},
     "field 'bc.right.dirichlet': expected a finite number"),
    ({"bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": math.inf}}},
     "field 'bc.right.dirichlet': expected a finite number"),
    ({"layers": [{"D": [math.inf], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
                 _layers_with_d(1.35)[1]]},
     "field 'layers[0].D[0]': expected a finite number"),
    ({"interfaces": _implicit_interface(**{"lambda": math.inf})},
     "field 'interfaces[0].lambda': expected a finite number"),
    ({"bc": {"left": {"neumann": 2.0}, "right": {"dirichlet": 1 / 3}}},
     "nonzero Neumann flux is not implemented"),
    ({"interfaces": [{"alpha": 1 / 9, "kind": "continuous", "lambda": 0.5}]},
     "interfaces[0]: 'lambda' belongs to implicit interfaces only"),
    ({"layers": [_layers_with_d(1.0)[0], _layers_with_d(1.35)[1] | {"D": _DIP}]},
     "diffusivity must be positive on layer 1"),
    ({"layers": [_layers_with_d(1.0)[0], _layers_with_d(1.35)[1] | {"w": _DIP}]},
     "reaction coefficient must be nonnegative on layer 1"),
    *(({"layers": [_layers_with_d(1.0)[0], _layers_with_d(1.35)[1] | {"w": [0.0, 0.0, bad]}]},
       f"field 'layers[1].w[2]': {message}") for bad, message in _BAD_ENTRIES),
    *(({"exact": [[0.0, 0.0, 0.0, bad], [0.0, 0.0, 0.0, 0.0, 1 / 3]]},
       f"field 'exact[0][3]': {message}") for bad, message in _BAD_ENTRIES),
    ({"layers": _layers_with_d(0.0), "interfaces": _CONTINUOUS},
     "diffusivity must be positive on layer 1"),
    ({"layers": [_layers_with_d(1.0)[0], _layers_with_d(1.35)[1] | {"w": [-0.5]}],
      "interfaces": _CONTINUOUS},
     "reaction coefficient must be nonnegative on layer 1"),
], ids=[
    "no-alpha", "interfaces-not-list", "bc-not-object", "layer-string", "alpha-string",
    "lambda-string", "lambda-negative", "implicit-equal-d", "implicit-negative-d",
    "interface-not-object", "exact-not-list", "coefficients-not-numbers",
    "domain-not-numbers", "domain-beyond-float", "coefficient-boolean", "bc-value-boolean", "bc-value-nan",
    "bc-value-infinity", "coefficient-infinite", "lambda-infinite", "neumann-nonzero",
    "lambda-on-continuous", "diffusivity-dips-below-zero", "reaction-dips-below-zero",
    *(f"{field}-{name}" for field in ("coefficient-third", "exact-fourth")
      for name in ("nan", "minus-infinity", "beyond-float", "string", "true")),
    "constant-diffusivity-zero", "constant-reaction-negative",
])
def test_problem_file_type_and_value_errors_exit_1(tmp_path, capsys, overrides, message):
    path = _problem1_file(tmp_path, **overrides)
    assert main(["--problem", str(path), "--levels", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"enrfem: error: {path}: {message}")
    assert "Traceback" not in err


def test_main_success_and_output_file(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["--problem", "1", "--h0", "1/8", "--levels", "2", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_main_usage_errors(capsys):
    assert main(["--problem", "1", "--h0", "not-a-number"]) == 1
    assert main(["--problem", "9", "--levels", "1"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--levels", "0"], "argument --levels: must be at least 1"),
    (["--levels", "-1"], "argument --levels: must be at least 1"),
    (["--quad", "6"], "unrecognized arguments: --quad 6"),
    (["--degree", "3"], "argument --degree: invalid choice: 3"),
    (["--h0", "2/7"], "h0=2/7 does not tile the domain"),
    (["--h0", "0"], "h0=0 does not tile the domain"),
    (["--h0=-1/8"], "h0=-1/8 does not tile the domain"),
    (["--h0", "1/0"], "argument --h0: invalid fraction value: '1/0'"),
    (["--h0", "abc"], "argument --h0: invalid fraction value: 'abc'"),
    pytest.param(["--h0", "1e-400"], "h0=1e-400 is outside the range of a float",
                 id="h0-underflows"),
    pytest.param(["--h0", "1e400"], "h0=1e400 is outside the range of a float",
                 id="h0-overflows"),
    pytest.param(["--h0=-3e-400"], "h0=-3e-400 is outside the range of a float",
                 id="h0-negative-underflows"),
    pytest.param(["--h0", f"1/{3 * 10**50}"],
                 f"h0=1/{3 * 10**50} gives 3e+50 * 2**0 elements on level 0, "
                 "more than an array can index",
                 id="h0-a-long-fraction"),
    pytest.param(["--h0", "0e-10000000"], "h0=0e-10000000 does not tile the domain",
                 id="h0-zero-far-exponent"),
    pytest.param(["--h0", "1e-310"],
                 "h0=1e-310 gives over 1e308 * 2**0 elements on level 0, "
                 "more than an array can index",
                 id="h0-subnormal"),
    pytest.param(["--h0", "5e-324"],
                 "h0=5e-324 gives over 1e308 * 2**0 elements on level 0, "
                 "more than an array can index",
                 id="h0-smallest-subnormal"),
    pytest.param(["--h0", "1e-20"],
                 "h0=1e-20 gives 1e+20 * 2**0 elements on level 0, "
                 "more than an array can index",
                 id="h0-beyond-an-index"),
])
def test_out_of_range_arguments_exit_1(capsys, argv, message):
    assert main(["--problem", "1", "--levels", "1"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"enrfem: error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize("h0", ["1e-5000", "1e5000", "1e-10000000", "-2.5E+1_000_000",
                                "1e-" + "1" * 30],
                         ids=["1e-5000", "1e5000", "1e-10000000", "-2.5E+1_000_000",
                              "a-30-digit-exponent"])
def test_an_h0_far_outside_the_float_range_exits_1_at_once(capsys, h0):
    """Neither Fraction's power of ten nor an int of thousands of digits is built or printed."""
    start = time.perf_counter()
    assert main(["--problem", "1", "--levels", "1", f"--h0={h0}"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"enrfem: error: h0={h0} is outside the range of a float\n"
    assert len(err) < 200


# Texts that look like numbers: fractions p/q, and decimals with signs,
# underscores, surrounding blanks, far exponents and non-ASCII digits.
_H0_LIKE = st.one_of(
    st.from_regex(r"\A[-+]?\d{1,25}/\d{1,25}\Z"),
    st.from_regex(r"\A\s?[-+]?\d{0,5}(_\d)?(\.\d{0,5})?([eE][-+]?0?\d{1,12}(_\d)?)?\s?\Z"),
    st.floats().map(repr),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(h0=st.one_of(st.text(), _H0_LIKE),
       domain=st.sampled_from([(0.0, 1.0), (-1.0, 1.0), (0.1, 0.7), (0.0, 1e-3)]),
       levels=st.sampled_from([1, 4, 64, 10**9]))
@example(h0=" 1e-99999 ", domain=(0.0, 1.0), levels=1)
@example(h0="\t0.3\n", domain=(0.0, 1.0), levels=1)
def test_any_h0_text_gives_an_element_count_or_one_usage_line(h0, domain, levels):
    try:
        n0 = _elements_for(h0, *domain, levels)
    except ProblemFileError as exc:
        assert len(str(exc).splitlines()) == 1
    else:
        assert type(n0) is int and n0 >= 2


def test_run_convergence_checks_its_levels():
    with pytest.raises(ProblemFileError, match="^argument --levels: must be at least 1$"):
        run_convergence(1, 1, "1/8", 0)


@pytest.mark.parametrize("overrides, message", [
    ({"exact": [[0, 0, 0, 1 / 30], [0.0] * 16 + [1.0]]},
     "exact on layer 1 has degree 16: integrating it exactly needs 17 Gauss points"),
    ({"layers": [_layers_with_d(1.0)[0], _layers_with_d(1.35)[1] | {"f": [0.0] * 30 + [1.0]}]},
     "source on layer 1 has degree 30: integrating it exactly needs 17 Gauss points"),
], ids=["errors", "assembly"])
def test_data_beyond_the_largest_rule_exits_1(tmp_path, capsys, monkeypatch, overrides, message):
    """Degree 2 max(16, p + 1) = 32 and 30 + p + 1 = 32 need 17 points; the largest rule has 16."""
    monkeypatch.setattr(enrfem.cli, "space_for_problem", lambda *args: pytest.fail("a level ran"))
    path = _problem1_file(tmp_path, **overrides)
    assert main(["--problem", str(path), "--levels", "1"]) == 1
    assert capsys.readouterr().err == f"enrfem: error: {message}, more than the 16 available\n"


def test_problem_file_without_exact_exits_1(tmp_path, capsys):
    path = _problem1_file(tmp_path, exact=None)
    doc = json.loads(path.read_text())
    doc["layers"][0]["f"], doc["layers"][1]["f"] = [0.0, -0.2], [0.0, 0.0, -5.4, 32.4]
    path.write_text(json.dumps(doc))
    assert main(["--problem", str(path), "--levels", "1"]) == 1
    assert capsys.readouterr().err.startswith(
        "enrfem: error: convergence study requires an exact solution"
    )


def test_unreadable_problem_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["--problem", str(missing), "--levels", "1"]) == 1
    err = capsys.readouterr().err
    assert err == f"enrfem: error: {missing}: cannot read: No such file or directory\n"

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"domain": "\xe9"}')
    assert main(["--problem", str(latin1), "--levels", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"enrfem: error: {latin1}: not UTF-8 text: 'utf-8' codec")
    assert "Traceback" not in err


@pytest.mark.parametrize("problem", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_only_ascii_digits_name_a_catalog_problem(tmp_path, monkeypatch, capsys, problem):
    """'²' and '٣' pass str.isdigit but are no catalog id: each is a path, and a missing one exits 1."""
    monkeypatch.chdir(tmp_path)
    assert main(["--problem", problem, "--levels", "1"]) == 1
    assert capsys.readouterr().err == (
        f"enrfem: error: {problem}: cannot read: No such file or directory\n"
    )


def test_unwritable_output_exits_1(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "table.csv"
    assert main(["--problem", "1", "--levels", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"enrfem: error: {out}: cannot write: No such file or directory\n"
    assert not out.exists()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000001,)"),
     "Unable to allocate 7.28 TiB for an array with shape (1000000000001,)"),
    (MemoryError(), "out of memory"),
], ids=["numpy-message", "no-message"])
def test_a_mesh_beyond_memory_exits_1(capsys, monkeypatch, exc, line):
    """A mesh that asks for more memory than the machine has (say --h0 1/1000000000000) is
    a usage error: one line, no traceback.  The stand-in build_mesh allocates nothing."""
    def build_mesh(*args):
        raise exc
    monkeypatch.setattr(enrfem.cli, "build_mesh", build_mesh)
    assert main(["--problem", "1", "--h0", "1/1000000000000", "--levels", "1"]) == 1
    assert capsys.readouterr().err == f"enrfem: error: {line}\n"


def test_a_stack_beyond_an_arrays_reach_exits_1(capsys, monkeypatch):
    """64 levels from h0 = 1/8 ask for 2**66 elements on the finest: one line, exit 1, no mesh."""
    monkeypatch.setattr(enrfem.cli, "build_mesh", lambda *args: pytest.fail("a mesh was built"))
    assert main(["--problem", "1", "--levels", "64"]) == 1
    assert capsys.readouterr().err == (
        "enrfem: error: h0=1/8 gives 8 * 2**63 elements on level 63, more than an array can index\n"
    )


_NO_MESH = """
import resource, sys
import enrfem.cli as cli
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
def build_mesh(*args):
    raise AssertionError("a mesh was built")
cli.build_mesh = build_mesh
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("levels", [20000, 10**9])
def test_a_huge_level_count_exits_1_at_once(levels):
    """A huge --levels exits 1 with one short line, before any level's element count exists.

    Its counts n0 * 2**l would take O(L**2) bits, and the total node count
    past about 14,300 levels has more digits than int-to-str allows.  The
    fresh interpreter may map 2 GiB and run 30 s, and builds no mesh.
    """
    package_root = str(Path(enrfem.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _NO_MESH, "--problem", "1", "--levels", str(levels)],
        capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (f"enrfem: error: h0=1/8 gives 8 * 2**{levels - 1} elements on level "
                           f"{levels - 1}, more than an array can index\n")
    assert len(proc.stderr) < 200


def test_interface_on_a_node_is_a_numerical_failure(capsys):
    assert main(["--problem", "1", "--h0", "1/9", "--levels", "1"]) == 2
    assert capsys.readouterr().err.startswith("enrfem: numerical failure: level 0 (n=9)")


def test_main_numerical_failure(tmp_path, capsys):
    # lambda tuned so alpha - x_{k+1} - gamma vanishes on the first mesh:
    # gamma = -2*lambda with D = (1, 2); alpha=0.11, h0=1/5 -> gamma = -0.09
    doc_path = _problem1_file(
        tmp_path,
        layers=[
            {"D": [1.0], "delta_conv": [0.0], "w": [0.0], "f": [1.0]},
            {"D": [2.0], "delta_conv": [0.0], "w": [0.0], "f": [1.0]},
        ],
        interfaces=[{"alpha": 0.11, "kind": "implicit", "lambda": 0.045}],
        exact=[[0.0, 1.0], [0.0, 1.0]],
    )
    code = main(["--problem", str(doc_path), "--h0", "1/5", "--levels", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "enrfem: numerical failure: level 0 (n=5): "
        "degenerate enrichment denominator; change mesh size\n"
    )


def _degenerate_file(tmp_path, alpha, lam, **overrides):
    """D = 1 | 2, so gamma = -2 lam: psi's denominator alpha - x_{k+1} - gamma vanishes
    on every level whose cut element ends at alpha + 2 lam."""
    return _problem1_file(
        tmp_path,
        layers=[
            {"D": [1.0], "delta_conv": [0.0], "w": [0.0], "f": [1.0]},
            {"D": [2.0], "delta_conv": [0.0], "w": [0.0], "f": [1.0]},
        ],
        interfaces=[{"alpha": alpha, "kind": "implicit", "lambda": lam}],
        exact=[[0.0, 1.0], [0.0, 1.0]],
        **overrides,
    )


@pytest.mark.parametrize("alpha, lam, levels, message, stacks", [
    (0.07, 0.015, 4, "level 1 (n=10): degenerate enrichment denominator; change mesh size",
     [4, 1, 1]),
    (0.12, 0.015, 3, "level 2 (n=20): degenerate enrichment denominator; change mesh size",
     [3, 1, 1, 1]),
    (0.11, 0.02, 4, "level 2 (n=20): degenerate enrichment denominator; change mesh size",
     [4, 1, 1, 1]),
    (0.50058125, 0.0001, 9,
     "level 8 (n=1280): degenerate enrichment denominator; change mesh size", [8] + [1] * 10),
], ids=["second-level", "finest-level-only", "third-level", "finest-level-alone"])
def test_a_failing_level_is_the_per_level_loops(tmp_path, capsys, monkeypatch,
                                                alpha, lam, levels, message, stacks):
    """The exit code and stderr line are those of one space per level: the lowest failing level's.

    With h0 = 1/5, alpha = 0.07 has its cut element end at 0.1 on levels
    1 and 2, after level 0 has solved; alpha = 0.12 has it end at 0.15 on
    level 2, the finest, alone; alpha = 0.11 has it end at 0.15 on level
    2 after levels 0 and 1 have solved.  These studies have at most
    ONE_STACK_ELEMENTS elements and run as one stack.  Over 9 levels
    (2,555 elements) the coarse levels run as one stack and the finest
    alone; alpha = 0.50058125 has its cut element end at 641/1280 on
    level 8, the finest, alone.  ``stacks`` is the number of levels of
    each space built: a failing stack runs the study again one level at a
    time up to its failing level, the coarse levels of a two-stack study
    included.
    """
    path = _degenerate_file(tmp_path, alpha, lam)
    with pytest.raises(ValueError) as oracle:
        per_level_rows(load_problem_file(path), 1, Fraction(1, 5), levels)
    assert str(oracle.value) == message
    original, built = enrfem.cli.space_for_problem, []
    monkeypatch.setattr(enrfem.cli, "space_for_problem",
                        lambda spec, mesh, degree: built.append(mesh.n_levels)
                        or original(spec, mesh, degree))
    assert main(["--problem", str(path), "--h0", "1/5", "--levels", str(levels)]) == 2
    assert capsys.readouterr().err == f"enrfem: numerical failure: {message}\n"
    assert built == stacks


@pytest.mark.parametrize("levels, message", [
    (9, "level 8 (n=2048): interface 0.50048828125 coincides with a mesh node; choose a "
        "different number of elements so the interface falls inside one"),
    (8, "level 0 (n=8): degenerate enrichment denominator; change mesh size"),
])
def test_a_mesh_failure_outranks_an_earlier_numerical_one_across_stacks(tmp_path, capsys,
                                                                        levels, message):
    """alpha = 1025/2048, lam = 255/4096: psi's denominator vanishes on level 0 (n=8), whose
    cut element ends at alpha + 2 lam = 5/8, and alpha is a node of level 8 (n=2048).

    Over 9 levels (4,088 elements) level 0 runs in the coarse stack and
    level 8 alone, after it: the level-by-level loop builds every mesh
    before it solves, so level 8's mesh failure is the one reported.
    Over 8 levels every mesh builds, and level 0's failure is reported.
    """
    path = _degenerate_file(tmp_path, 1025 / 2048, 255 / 4096,
                            bc={"left": {"neumann": 0.0}, "right": {"dirichlet": 0.0}})
    with pytest.raises(ValueError) as oracle:
        per_level_rows(load_problem_file(path), 1, Fraction(1, 8), levels)
    assert str(oracle.value) == message
    assert main(["--problem", str(path), "--levels", str(levels)]) == 2
    assert capsys.readouterr().err == f"enrfem: numerical failure: {message}\n"


@pytest.mark.parametrize("degree", ["1", "2"])
@pytest.mark.parametrize("interface", [
    {"alpha": 0.3, "kind": "continuous"},
    {"alpha": 0.3, "kind": "implicit", "lambda": 0.1},
    {"alpha": 0.05, "kind": "implicit", "lambda": 0.00625},
])
def test_singular_system_is_a_numerical_failure(tmp_path, capsys, degree, interface):
    """Neumann at both ends with w = 0: constants span the kernel, so no pivot survives.

    The third interface also makes psi's denominator vanish on level 1
    (gamma = -2 lam = 0.05 - 1/16), in the same stack of coarse levels: a
    later level that fails at an earlier stage does not hide the zero
    pivot of level 0.  The whole stderr line is that of one space per
    level.
    """
    doc_path = _problem1_file(
        tmp_path,
        layers=[
            {"D": [1.0], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
            {"D": [2.0], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
        ],
        interfaces=[interface],
        bc={"left": {"neumann": 0.0}, "right": {"neumann": 0.0}},
        exact=[[1.0], [1.0]],
    )
    code = main(["--problem", str(doc_path), "--degree", degree, "--levels", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("enrfem: numerical failure: level 0 (n=8): ")
    assert "zero pivot" in err
    with pytest.raises(np.linalg.LinAlgError) as oracle:
        per_level_rows(load_problem_file(doc_path), int(degree), Fraction(1, 8), 3)
    assert err == f"enrfem: numerical failure: {oracle.value}\n"


@pytest.mark.parametrize("overrides", [
    {"bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": 1e308}}},
    {
        "bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": 1 / 3 + 1e200}},
        "exact": [[1e200, 0, 0, 1 / 30], [1e200, 0, 0, 0, 1 / 3]],
    },
], ids=["dirichlet-1e308", "constant-1e200"])
def test_overflow_is_a_numerical_failure(tmp_path, capsys, overrides):
    """Valid files whose numbers overflow exit 2 with one line, and no inf or nan row."""
    path = _problem1_file(tmp_path, **overrides)
    assert main(["--problem", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("enrfem: numerical failure: level 0 (n=8): ") and err.count("\n") == 1


def _run_module(*args):
    """``python -m enrfem.cli *args`` in a fresh interpreter, importing this checkout."""
    package_root = str(Path(enrfem.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "enrfem.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
    )


def test_console_entry_point():
    """The module form runs from a checkout and prints nothing on stderr."""
    proc = _run_module("--problem", "1", "--levels", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith(CSV_HEADER)
    assert proc.stderr == ""


def test_degree2_benchmark_defaults(tmp_path):
    out = tmp_path / "t.json"
    code = main(["--problem", "5", "--levels", "2", "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["degree"] == 2


def test_default_degree_builds_the_catalog_entry_once(tmp_path, monkeypatch, capsys):
    import enrfem.cli as cli

    calls = []
    original = cli.catalog_problem
    monkeypatch.setattr(cli, "catalog_problem", lambda pid: calls.append(pid) or original(pid))
    assert main(["--problem", "5", "--levels", "1"]) == 0
    assert calls == [5]
    assert run_convergence(5, None, "1/8", 1).metadata["degree"] == 2
    assert run_convergence(str(_problem1_file(tmp_path)), None, "1/8", 1).metadata["degree"] == 1


def test_exactly_reproduced_solution_emits_blank_orders(tmp_path):
    # the zero solution is in the space: all errors are exactly zero and
    # order columns stay empty rather than failing
    path = _problem1_file(
        tmp_path,
        layers=[
            {"D": [1.0], "delta_conv": [0.0], "w": [0.0], "f": [0.0]},
            {"D": [2.0], "delta_conv": [0.0], "w": [0.0], "f": [0.0]},
        ],
        interfaces=[{"alpha": 0.4, "kind": "continuous"}],
        bc={"left": {"dirichlet": 0.0}, "right": {"dirichlet": 0.0}},
        exact=[[0.0], [0.0]],
    )
    table = run_convergence(str(path), 1, "1/8", 2)
    assert all(row["order_l2"] is None for row in table.rows)
    text = emit_report(table, "csv")
    assert len(text.strip().split("\n")) == 3


def _variable_coefficient_file(tmp_path):
    """Kinked quadratic with polynomial D(x) = 1 + x on the left layer.

    The slope deficit s at alpha is chosen so the flux -D u' + 2 delta u
    is continuous; with gamma = 0 the kink s*(x - alpha)_+ is exactly
    representable by the enrichment, so the quadratic space reproduces u.
    """
    alpha = 0.55
    ul = [0.0, 0.0, 1.0]  # x^2
    flux_left = -(1 + alpha) * 2 * alpha + 2 * alpha * alpha**2
    s = -flux_left / 2.0 - 2 * alpha  # right: D = 2, delta = 0
    ur = [s * -alpha, s, 1.0]  # x^2 + s (x - alpha)
    doc = {
        "domain": [0.0, 1.0],
        "layers": [
            {"D": [1.0, 1.0], "delta_conv": [0.0, 1.0], "w": [1.0, 1.0], "f": "manufactured"},
            {"D": [2.0], "delta_conv": [0.0], "w": [2.0], "f": "manufactured"},
        ],
        "interfaces": [{"alpha": alpha, "kind": "continuous"}],
        "bc": {"left": {"dirichlet": 0.0}, "right": {"dirichlet": 1.0 + s * (1 - alpha)}},
        "exact": [ul, ur],
    }
    path = tmp_path / "variable.json"
    path.write_text(json.dumps(doc))
    return path


def test_variable_coefficients_converge_second_order(tmp_path):
    table = run_convergence(str(_variable_coefficient_file(tmp_path)), 1, "1/8", 4)
    assert table.rows[-1]["order_l2"] == pytest.approx(2.0, abs=0.15)
    assert table.rows[-1]["order_h1"] == pytest.approx(1.0, abs=0.15)


def test_variable_coefficients_exact_in_quadratic_space(tmp_path):
    table = run_convergence(str(_variable_coefficient_file(tmp_path)), 2, "1/8", 2)
    for row in table.rows:
        assert row["l2"] <= 1e-12
        assert row["h1_broken"] <= 1e-11


def _equal_convection_file(tmp_path, left, d_plus):
    """Problem 1's interface with D = 1 | d_plus, delta = 3 | 3 and Dirichlet ends.

    u- has the coefficients ``left``; u+ is the quadratic with
    [u] = lam (D u')(alpha-), the flux -D u' + 2 delta u continuous at
    alpha, and u+'' = 1.
    """
    alpha, lam, d_minus, delta = 1 / 9, 1 / 243, 1.0, 3.0
    u_minus = np.polynomial.Polynomial(left)
    value, slope = u_minus(alpha), u_minus.deriv()(alpha)
    v_plus = value + lam * d_minus * slope
    s = (d_minus * slope - 2 * delta * value + 2 * delta * v_plus) / d_plus
    right = [v_plus - s * alpha + alpha**2 / 2, s - alpha, 0.5]
    layer = {"delta_conv": [delta], "w": [0.0], "f": "manufactured"}
    return _problem1_file(
        tmp_path,
        layers=[dict(layer, D=[d_minus]), dict(layer, D=[d_plus])],
        bc={"left": {"dirichlet": left[0]}, "right": {"dirichlet": sum(right)}},
        exact=[left, right],
    )


def test_convection_left_of_implicit_interface_converges(tmp_path):
    """delta- != 0 at an implicit interface: the weak form carries -2 delta- u-(alpha)[q].

    u- = 1/4 + x^3/30, so [u] is about 5e-6.
    """
    path = _equal_convection_file(tmp_path, [0.25, 0, 0, 1 / 30], 1.35)
    table = run_convergence(str(path), 1, "1/8", 5)
    assert table.rows[-1]["h"] == 1 / 128
    assert table.rows[-1]["order_l2"] == pytest.approx(2.0, abs=0.15)
    assert table.rows[-1]["order_h1"] == pytest.approx(1.0, abs=0.15)


@pytest.mark.parametrize("d_plus, levels", [(1.35, 9), (1.0, 7)])
def test_equal_convection_beside_implicit_interface_keeps_its_order(tmp_path, d_plus, levels):
    """With delta- = delta+ = delta the enrichment's gamma carries the factor 1 + 2 delta lam.

    u- = 1 + x + x^2, so [u] is about 5e-3: the delta = 0 gamma lost the
    order from h = 1/1024 on (L2 1.62 and 1.43 at D = 1 | 1.35), and
    D = 1 | 1 has no delta = 0 gamma at all; here gamma = D / (2 delta).
    """
    path = _equal_convection_file(tmp_path, [1.0, 1.0, 1.0], d_plus)
    table = run_convergence(str(path), 1, "1/8", levels)
    assert table.rows[-1]["h"] == 2.0 ** -(levels + 2)
    for row in table.rows[-2:]:
        assert row["order_l2"] == pytest.approx(2.0, abs=0.15)
        assert row["order_h1"] == pytest.approx(1.0, abs=0.15)


def test_levels_solve_identically_under_threads():
    """Concurrent refinement levels match the serial results bit-for-bit."""
    from concurrent.futures import ThreadPoolExecutor

    def level_l2(level):
        return run_convergence(1, 1, "1/8", 1 + level).rows[-1]["l2"]

    serial = [level_l2(k) for k in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(level_l2, range(4)))
    assert threaded == serial
