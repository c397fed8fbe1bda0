import importlib
from pathlib import Path

import pytest

import enrfem

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_is_written_once():
    """pyproject.toml takes the version from enrfem._version, not a literal."""
    tomllib = pytest.importorskip("tomllib")
    doc = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    module, name = doc["tool"]["setuptools"]["dynamic"]["version"]["attr"].rsplit(".", 1)
    version = getattr(importlib.import_module(module), name)
    assert isinstance(version, str) and version == enrfem.__version__
