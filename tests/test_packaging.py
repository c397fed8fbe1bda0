import importlib
import importlib.util
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

import enrfem

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.parent / "README.md"
SPANS = PYPROJECT.parent / "perfbench" / "spans.py"


def test_version_is_written_once():
    """pyproject.toml takes the version from enrfem._version, not a literal."""
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    module, name = doc["tool"]["setuptools"]["dynamic"]["version"]["attr"].rsplit(".", 1)
    version = getattr(importlib.import_module(module), name)
    assert isinstance(version, str) and version == enrfem.__version__


def test_import_leaves_scipy_sparse_out():
    """Only --cond imports scipy.sparse.linalg, so startup does not pay for it."""
    src = str(Path(enrfem.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import enrfem, enrfem.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_enrfem_alone_leaves_the_cli_out():
    """``import enrfem`` loads neither enrfem.cli nor any scipy.sparse module."""
    src = str(Path(enrfem.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import enrfem; "
        "print(sorted(m for m in sys.modules if m == 'enrfem.cli' or m.startswith('scipy.sparse')))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_readme_library_example_runs():
    """The one python block under README's "## Library" prints three positive finite errors."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    src = str(Path(enrfem.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r})\n" + example
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    values = [float(word) for word in out.stdout.split()]
    assert len(values) == 3 and all(0 < v < math.inf for v in values), out.stdout


def _benchmark_spans():
    """perfbench/spans.py, loaded from its file (it imports only the standard library)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_trace_finds_what_it_wraps():
    """Each function the benchmark's tracer wraps is in enrfem.cli, and is called per stack or level.

    The tracer reads ``WRAPPED`` by name; a study of 3 levels runs two
    stacks (levels 0-1, then level 2), so it makes 2 spans each of
    space_for_problem, assemble_system and compute_errors, and 3 of
    solve_system, one per level.  The stacks' spans count every level's
    elements, cuts and free DOFs once.
    """
    import enrfem.cli as cli

    spans = _benchmark_spans()
    for attr in spans.WRAPPED.values():
        assert callable(getattr(cli, attr)), attr
    tracer = spans.Tracer()
    tracer.study = "0"
    tracer.install(cli)
    try:
        with tracer.span(spans.STUDY):
            cli.run_convergence(3, None, "1/8", 3)
    finally:
        tracer.uninstall(cli)
    names = [span["name"] for span in tracer.spans]
    for name in ("femspace.space_for_problem", "assembly.assemble_system",
                 "analysis.compute_errors"):
        assert names.count(name) == 2, name
    assert names.count("assembly.solve_system") == 3
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["mesh.elements"] == 8 + 16 + 32
    assert metrics["femspace.cut_elements"] == 3 * 3
    assert metrics["assembly.free_dofs"] == sum(8 * 2**level + 3 * 2 for level in range(3))
