import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import enrfem
from enrfem.cli import (
    ConvergenceTable,
    ProblemFileError,
    emit_report,
    load_problem_file,
    main,
    run_convergence,
)

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
    ({"layers": [{"D": [True], "delta_conv": [0.0], "w": [0.0], "f": "manufactured"},
                 _layers_with_d(1.35)[1]]},
     "field 'layers[0].D[0]': expected a number"),
    ({"bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": False}}},
     "field 'bc.right.dirichlet': expected a number"),
    ({"bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": math.nan}}},
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
], ids=[
    "no-alpha", "interfaces-not-list", "bc-not-object", "layer-string", "alpha-string",
    "lambda-string", "lambda-negative", "implicit-equal-d", "implicit-negative-d",
    "interface-not-object", "exact-not-list", "coefficients-not-numbers",
    "domain-not-numbers", "coefficient-boolean", "bc-value-boolean", "bc-value-nan",
    "coefficient-infinite", "lambda-infinite", "neumann-nonzero", "lambda-on-continuous",
    "diffusivity-dips-below-zero", "reaction-dips-below-zero",
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
])
def test_out_of_range_arguments_exit_1(capsys, argv, message):
    assert main(["--problem", "1", "--levels", "1"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"enrfem: error: {message}")
    assert "Traceback" not in err


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


def test_unwritable_output_exits_1(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "table.csv"
    assert main(["--problem", "1", "--levels", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"enrfem: error: {out}: cannot write: No such file or directory\n"
    assert not out.exists()


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


@pytest.mark.parametrize("degree", ["1", "2"])
@pytest.mark.parametrize("interface", [
    {"alpha": 0.3, "kind": "continuous"},
    {"alpha": 0.3, "kind": "implicit", "lambda": 0.1},
])
def test_singular_system_is_a_numerical_failure(tmp_path, capsys, degree, interface):
    """Neumann at both ends with w = 0: constants span the kernel, so no pivot survives."""
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
    code = main(["--problem", str(doc_path), "--degree", degree, "--levels", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("enrfem: numerical failure: level 0 (n=8): ")
    assert "zero pivot" in err


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


def test_convection_left_of_implicit_interface_converges(tmp_path):
    """delta- != 0 at an implicit interface: the weak form carries -2 delta- u-(alpha)[q].

    u- = 1/4 + x^3/30; u+ is the quadratic with [u] = lam (D u')(alpha-),
    the flux -D u' + 2 delta u continuous at alpha, and u+'' = 1.
    """
    alpha, lam, d_minus, d_plus, delta = 1 / 9, 1 / 243, 1.0, 1.35, 3.0
    value, slope = 0.25 + alpha**3 / 30, alpha**2 / 10
    v_plus = value + lam * d_minus * slope
    s = (d_minus * slope - 2 * delta * value + 2 * delta * v_plus) / d_plus
    right = [v_plus - s * alpha + alpha**2 / 2, s - alpha, 0.5]
    layer = {"delta_conv": [delta], "w": [0.0], "f": "manufactured"}
    path = _problem1_file(
        tmp_path,
        layers=[dict(layer, D=[d_minus]), dict(layer, D=[d_plus])],
        bc={"left": {"dirichlet": 0.25}, "right": {"dirichlet": sum(right)}},
        exact=[[0.25, 0, 0, 1 / 30], right],
    )
    table = run_convergence(str(path), 1, "1/8", 5)
    assert table.rows[-1]["h"] == 1 / 128
    assert table.rows[-1]["order_l2"] == pytest.approx(2.0, abs=0.15)
    assert table.rows[-1]["order_h1"] == pytest.approx(1.0, abs=0.15)


def test_levels_solve_identically_under_threads():
    """Concurrent refinement levels match the serial results bit-for-bit."""
    from concurrent.futures import ThreadPoolExecutor

    def level_l2(level):
        return run_convergence(1, 1, "1/8", 1 + level).rows[-1]["l2"]

    serial = [level_l2(k) for k in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(level_l2, range(4)))
    assert threaded == serial
