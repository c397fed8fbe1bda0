import ast
import contextlib
import importlib
import importlib.machinery
import importlib.resources
import importlib.util
import json
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
SWEEP_117 = PYPROJECT.parent / "tests" / "fixtures" / "sweep-117.json"
SRC = Path(enrfem.__file__).resolve().parent


def test_version_is_written_once():
    """pyproject.toml takes the version from enrfem._version, not a literal."""
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    module, name = doc["tool"]["setuptools"]["dynamic"]["version"]["attr"].rsplit(".", 1)
    version = getattr(importlib.import_module(module), name)
    assert isinstance(version, str) and version == enrfem.__version__


def test_the_catalog_ships_as_package_data():
    """pyproject.toml declares catalog/*.json, and the package holds the three problem files.

    Every layer's source is "manufactured", so it is derived from the
    exact branches and never transcribed.
    """
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads(PYPROJECT.read_text())
    assert doc["tool"]["setuptools"]["package-data"]["enrfem"] == ["catalog/*.json"]
    catalog = importlib.resources.files("enrfem") / "catalog"
    names = sorted(entry.name for entry in catalog.iterdir() if entry.name.endswith(".json"))
    assert names == ["1.json", "2.json", "3.json"]
    for name in names:
        layers = json.loads((catalog / name).read_text(encoding="utf-8"))["layers"]
        assert [layer["f"] for layer in layers] == ["manufactured"] * len(layers), name


def _private_reads(source: str) -> list[str]:
    """Each private name of an enrfem module that ``source``, another enrfem module, uses.

    A private name has a leading underscore and is not a dunder.  It is
    used by ``from .x import _y`` (or ``from enrfem.x import _y``), and by
    reading ``x._y`` after ``from . import x``, ``import enrfem.x as x``
    or ``from enrfem import x``.
    """
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    def ours(node):
        return node.level > 0 or (node.module or "").split(".")[0] == "enrfem"

    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and ours(node):
            package = node.module in (None, "enrfem")  # from . import x: x is a module
            for alias in node.names:
                if package:
                    modules.add(alias.asname or alias.name)
                elif private(alias.name):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("enrfem.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_names():
    """No module of src/enrfem imports or reads a private name of another enrfem module.

    What one module needs of another is public there.  The checker itself
    finds both forms of use, and passes over dunders and other packages.
    """
    assert _private_reads("from .assembly import _scaled_lu, solve_system") == [
        "from .assembly import _scaled_lu"]
    assert _private_reads("from enrfem.problem import _number") == [
        "from enrfem.problem import _number"]
    assert _private_reads("from . import femspace\nfemspace._cut_layout(space)") == [
        "femspace._cut_layout"]
    assert _private_reads("import enrfem.mesh as m\nm._located") == ["m._located"]
    assert _private_reads("from ._version import __version__\n"
                          "from scipy.linalg import _flapack\nself._x, _flapack.dgbtrf") == []
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    found = {path.name: _private_reads(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}


def _unread_private_names(source: str) -> list[str]:
    """Each module-level private function, class or constant of ``source`` that it never reads.

    A private name has a leading underscore and is not a dunder; it is
    read where it is loaded anywhere in the module, its own body included.
    """
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_every_private_name_is_read_in_its_module():
    """No module of src/enrfem keeps a private helper, class or constant that nothing reads.

    Other modules may not read it (test_no_module_uses_another_modules_private_names),
    so an unread one is dead.  The checker finds each kind and passes over
    public names, dunders and private names that are read.
    """
    snippet = ("_LIMIT = 3\n_A, _B = 1, 2\n_C: int = 0\nclass _Row: pass\n"
               "def _dead(x):\n    return x\n"
               "def _used():\n    return _A + _LIMIT\n"
               "def public():\n    return _used()\n__all__ = ['public']\n")
    assert _unread_private_names(snippet) == ["_B", "_C", "_Row", "_dead"]
    found = {path.name: _unread_private_names(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: unread for name, unread in found.items() if unread} == {}


def test_problem_imports_no_enrfem_module():
    """``problem`` holds the data and its laws and reads no other enrfem module."""
    tree = ast.parse((SRC / "problem.py").read_text(encoding="utf-8"))
    ours = [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("enrfem"))
            or isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "enrfem" for alias in node.names)]
    assert ours == []


_CUT_ELEMENT_NAMES = {"Basis", "cut_rows", "standard_basis", "eval_enrichment", "build_enrichment"}


def _cut_element_reads(source: str) -> list[str]:
    """Each name of ``_CUT_ELEMENT_NAMES`` that ``source`` imports from enrfem or reads off a module.

    ``from .femspace import cut_rows`` and ``femspace.cut_rows`` are both found.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "enrfem"):
            found += [alias.name for alias in node.names if alias.name in _CUT_ELEMENT_NAMES]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.attr in _CUT_ELEMENT_NAMES):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_only_femspace_forms_the_cut_elements_basis():
    """No module but ``femspace`` imports or reads psi or the rows of a piece.

    Assembly and the errors read a cut element only through femspace's
    ``quadrature_pieces``, ``interface_traces`` and ``eval_function``;
    ``__init__`` re-exports psi's names and is passed over.  The checker
    finds both forms of use, and passes over other packages and names.
    """
    assert _cut_element_reads("from .femspace import Basis, cut_rows, build_space") == [
        "Basis", "cut_rows"]
    assert _cut_element_reads("from enrfem import eval_enrichment") == ["eval_enrichment"]
    assert _cut_element_reads("from . import femspace\nfemspace.standard_basis(s, k, x)") == [
        "femspace.standard_basis"]
    assert _cut_element_reads("from numpy import Basis\nfrom .femspace import interface_traces\n"
                              "space.layout.cut_pieces") == []
    found = {path.name: _cut_element_reads(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))
             if path.name not in ("femspace.py", "__init__.py")}
    assert {name: reads for name, reads in found.items() if reads} == {}


def _python(code: str, *flags: str) -> str:
    """The stdout of ``python *flags -c code``, with this checkout's enrfem first on the path."""
    src = str(Path(enrfem.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r})\n" + code
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                         check=True)
    return out.stdout


def test_import_leaves_scipy_sparse_out():
    """Importing enrfem and its CLI loads no scipy.sparse module: nothing in enrfem imports one."""
    out = _python(
        "import enrfem, enrfem.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    )
    assert out.strip() == "[]"


def test_startup_leaves_scipy_linalg_out():
    """A study without --cond loads scipy's LAPACK extension and no other scipy module."""
    out = _python(
        "import enrfem, enrfem.cli as cli\n"
        "assert cli.main(['--problem', '1', '--levels', '2']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert out.splitlines()[-1] == "['scipy.linalg._flapack']"


def test_a_cond_study_leaves_scipy_linalg_out():
    """A --cond study, too, loads scipy's LAPACK extension and no other scipy module."""
    out = _python(
        "import enrfem, enrfem.cli as cli\n"
        "assert cli.main(['--problem', '2', '--levels', '3', '--cond']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert out.splitlines()[-1] == "['scipy.linalg._flapack']"


def test_one_lapack_extension_instance():
    """scipy.linalg, imported after enrfem or before it, shares enrfem's LAPACK module.

    A user's scipy.linalg imported after a --cond study finds, through its
    lapack.py, the module the loader registered; and a loader that runs
    after scipy.linalg takes the module already in sys.modules without
    looking for the file.
    """
    out = _python(
        "import enrfem.cli as cli\n"
        "from enrfem import assembly\n"
        "assert cli.main(['--problem', '2', '--levels', '3', '--cond']) == 0\n"
        "import scipy.linalg\n"
        "print(sys.modules['scipy.linalg._flapack'] is assembly._flapack,"
        " scipy.linalg.lapack.dgbtrf is assembly._flapack.dgbtrf)",
        "-W", "error",
    )
    assert out.splitlines()[-1] == "True True"
    out = _python(
        "import importlib.util, scipy.linalg\n"
        "loaded = sys.modules['scipy.linalg._flapack']\n"
        "searched, find_spec = [], importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *rest: searched.append(name) or find_spec(name, *rest)\n"
        "from enrfem import assembly\n"
        "print(assembly._flapack is loaded, 'scipy' in searched)",
        "-W", "error",
    )
    assert out.strip() == "True False"


@pytest.mark.parametrize("extension", ["missing", "unloadable"])
def test_the_lapack_fallback_gives_the_same_rows(tmp_path, extension):
    """With the extension file hidden or broken, assembly takes scipy.linalg's and reports the same bytes.

    ``importlib.util.find_spec("scipy")`` is pointed at a directory with
    no ``linalg/_flapack`` file, or with one that is not a library.
    """
    if extension == "unloadable":
        (tmp_path / "linalg").mkdir()
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (tmp_path / "linalg" / f"_flapack{suffix}").write_bytes(b"not a shared library")
    study = (
        "import enrfem.cli as cli\n"
        "assert cli.main(['--problem', '4', '--levels', '3', '--cond', '--format', 'csv']) == 0\n"
    )
    hide = (
        "import importlib.util, types\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, package=None: (\n"
        f"    types.SimpleNamespace(submodule_search_locations=[{str(tmp_path)!r}])\n"
        "    if name == 'scipy' else find_spec(name, package))\n"
    )
    check = (
        "import scipy.linalg\n"
        "from enrfem import assembly\n"
        "assert assembly._flapack is scipy.linalg.lapack._flapack\n"
        "assert sys.modules['scipy.linalg._flapack'] is assembly._flapack\n"
    )
    fallback = _python(hide + "import enrfem\nassert 'scipy.linalg' in sys.modules\n" + study + check,
                       "-W", "error")
    assert fallback == _python(study, "-W", "error")


def test_import_enrfem_alone_leaves_the_cli_out():
    """``import enrfem`` loads neither enrfem.cli nor any scipy.sparse module."""
    out = _python(
        "import enrfem\n"
        "print(sorted(m for m in sys.modules if m == 'enrfem.cli' or m.startswith('scipy.sparse')))"
    )
    assert out.strip() == "[]"


def test_readme_library_example_runs():
    """The one python block under README's "## Library" prints three positive finite errors."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    out = _python(example)
    values = [float(word) for word in out.split()]
    assert len(values) == 3 and all(0 < v < math.inf for v in values), out


def _benchmark_spans():
    """perfbench/spans.py, loaded from its file (it imports only the standard library)."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_study(cli, spans, *args, raises=None):
    """The spans of ``cli.run_convergence(*args)`` run under the benchmark's tracer.

    With ``raises``, the study must fail with a ValueError whose message matches it.
    """
    tracer = spans.Tracer()
    tracer.study = "0"
    tracer.install(cli)
    try:
        with tracer.span(spans.STUDY):
            with pytest.raises(ValueError, match=raises) if raises else contextlib.nullcontext():
                cli.run_convergence(*args)
    finally:
        tracer.uninstall(cli)
    return tracer.spans


def test_the_benchmark_trace_finds_what_it_wraps(tmp_path):
    """Each function the benchmark's tracer wraps is in enrfem.cli, and is called once per stack.

    The tracer reads ``WRAPPED`` by name; a study of 3 levels from h0 =
    1/8 runs as one stack, so it makes 1 span each of build_mesh,
    space_for_problem, assemble_system, solve_system and compute_errors;
    one of 9 levels runs two stacks, and makes 2 build_mesh spans.  The
    stack's spans count every level's elements, cuts and free DOFs once,
    the cuts as ``len`` of the space's ``enrichments``: on catalog
    problem 3 at P1 and on the P2 file sweep-117.json, two interfaces and
    both ends Dirichlet.  A study loads its problem once: a catalog id
    through catalog_problem, whose file load is not the wrapped name, and
    a problem file through load_problem_file.

    A failing study's level-by-level rerun is traced too: with D = 1 | 2,
    alpha = 0.07 and lambda = 0.015 from h0 = 1/5, level 1's enrichment
    denominator vanishes, so the stack of 4 levels fails in its space,
    and the rerun builds all 4 levels' meshes, then runs level 0 and
    fails at level 1's space.
    """
    import enrfem.cli as cli

    spans = _benchmark_spans()
    for attr in spans.WRAPPED.values():
        assert callable(getattr(cli, attr)), attr
    study = _traced_study(cli, spans, 3, None, "1/8", 3)
    names = [span["name"] for span in study]
    assert names.count("bench.catalog_problem") == 1 and "cli.load_problem_file" not in names
    for name in ("mesh.build_mesh", "femspace.space_for_problem", "assembly.assemble_system",
                 "assembly.solve_system", "analysis.compute_errors"):
        assert names.count(name) == 1, name
    metrics = spans.layer_metrics(study)
    assert metrics["mesh.elements"] == 8 + 16 + 32
    assert metrics["femspace.cut_elements"] == 3 * 3
    assert metrics["assembly.free_dofs"] == sum(8 * 2**level + 3 * 2 for level in range(3))

    study = _traced_study(cli, spans, 3, 1, "1/8", 9)
    names = [span["name"] for span in study]
    assert names.count("mesh.build_mesh") == names.count("femspace.space_for_problem") == 2
    assert spans.layer_metrics(study)["mesh.elements"] == 8 * (2**9 - 1)

    study = _traced_study(cli, spans, str(SWEEP_117), 2, "1/8", 3)
    names = [span["name"] for span in study]
    assert names.count("cli.load_problem_file") == 1 and "bench.catalog_problem" not in names
    assert names.count("mesh.build_mesh") == names.count("femspace.space_for_problem") == 1
    metrics = spans.layer_metrics(study)
    assert metrics["mesh.elements"] == 8 + 16 + 32
    assert metrics["femspace.cut_elements"] == 2 * 3
    assert metrics["assembly.free_dofs"] == sum(2 * 8 * 2**level - 1 + 3 * 2 for level in range(3))

    degenerate = tmp_path / "degenerate.json"
    degenerate.write_text(json.dumps({
        "domain": [0.0, 1.0],
        "layers": [{"D": [d], "delta_conv": [0.0], "w": [0.0], "f": [1.0]} for d in (1.0, 2.0)],
        "interfaces": [{"alpha": 0.07, "kind": "implicit", "lambda": 0.015}],
        "bc": {"left": {"neumann": 0.0}, "right": {"dirichlet": 1.0}},
        "exact": [[0.0, 1.0], [0.0, 1.0]],
    }))
    study = _traced_study(cli, spans, str(degenerate), 1, "1/5", 4,
                          raises=r"^level 1 \(n=10\): degenerate enrichment denominator")
    elements = [span["attrs"]["elements"] for span in study if span["name"] == "mesh.build_mesh"]
    assert elements == [5 + 10 + 20 + 40, 5, 10, 20, 40]
    names = [span["name"] for span in study]
    assert names.count("femspace.space_for_problem") == 3
    for name in ("assembly.assemble_system", "assembly.solve_system", "analysis.compute_errors"):
        assert names.count(name) == 1, name
