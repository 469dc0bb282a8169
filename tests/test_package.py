"""The package's public surface and version."""

import ast
from pathlib import Path

import pytest

import venturebank

INIT = Path(venturebank.__file__)
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_exported_name_resolves():
    missing = [name for name in venturebank.__all__ if not hasattr(venturebank, name)]
    assert not missing


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(venturebank.__all__) == sorted(imported)
    assert len(set(venturebank.__all__)) == len(venturebank.__all__)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with PYPROJECT.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == venturebank.__version__
