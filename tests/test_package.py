"""The package's public surface, its lazy exports, annotations and version."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import venturebank

SRC = Path(venturebank.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
MODULES = ("bank_engine", "calibrate", "checks", "cli", "din", "market_data", "portfolio", "report", "sweep")


def test_every_exported_name_resolves():
    missing = [name for name in venturebank.__all__ if not hasattr(venturebank, name)]
    assert not missing


def test_all_lists_exactly_the_imported_names():
    mapped = [name for names in venturebank._EXPORTS.values() for name in names]
    assert venturebank.__all__ == sorted(venturebank.__all__)
    assert len(set(venturebank.__all__)) == len(venturebank.__all__)
    assert len(set(mapped)) == len(mapped)
    assert sorted(mapped) == venturebank.__all__


@pytest.mark.parametrize("module", sorted(venturebank._EXPORTS))
def test_each_mapped_name_is_its_modules_object(module):
    mod = importlib.import_module(f"venturebank.{module}")
    for name in venturebank._EXPORTS[module]:
        assert name in vars(mod), f"{module} has no {name}"
        assert getattr(venturebank, name) is vars(mod)[name]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'venturebank' has no attribute 'no_such_name'"):
        venturebank.no_such_name  # noqa: B018
    assert not hasattr(venturebank, "_no_such_private")


def test_import_loads_no_submodule_and_star_binds_every_name():
    script = (
        "import sys\n"
        "import venturebank\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('venturebank.'))\n"
        "assert not loaded, loaded\n"
        "ns = {}\n"
        "exec('from venturebank import *', ns)\n"
        "missing = [n for n in venturebank.__all__ if n not in ns]\n"
        "assert not missing, missing\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _annotated(module):
    """Every function and class defined in ``module``, and every function defined in those classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            yield from (f for f in vars(obj).values()
                        if inspect.isfunction(f) and f.__module__ == module.__name__)


@pytest.mark.parametrize("module", MODULES)
def test_every_annotation_resolves(module):
    mod = importlib.import_module(f"venturebank.{module}")
    objects = list(_annotated(mod))
    assert objects
    for obj in objects:
        typing.get_type_hints(obj)  # NameError on an undefined name


def test_every_public_function_and_class_has_a_caller():
    """A public module-level def is named somewhere in ``src/`` or exported; docstrings do not count."""
    package = SRC / "venturebank"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    exported = {name for names in venturebank._EXPORTS.values() for name in names}
    uncalled = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in named | exported]
    assert not uncalled


def test_no_module_imports_a_private_name_of_another():
    """No package module imports a single-underscore name from a sibling; dunders are exempt."""
    package = SRC / "venturebank"
    private = [f"{path.name}:{node.lineno}: {alias.name}"
               for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "venturebank")
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private


def test_no_module_reads_a_private_attribute_of_another_object():
    """Only ``self``'s single-underscore attributes are used: another object's, argparse's among them,
    may change between releases. Dunders are exempt."""
    package = SRC / "venturebank"
    private = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
               for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__")
               and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert not private


def test_only_checks_imports_numbers():
    """Whether a value is a real number is decided in one place, ``checks.finite_real``."""
    package = SRC / "venturebank"
    importers = sorted(path.name for path in package.glob("*.py")
                       for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                       if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names))
                       or (isinstance(node, ast.ImportFrom) and node.module == "numbers"))
    assert importers == ["checks.py"]


def test_only_the_engine_names_the_flows():
    """The rate-independent flows stay inside ``bank_engine``: no other module names them."""
    package, names = SRC / "venturebank", {"scenario_flows", "Flows"}
    namers = sorted({path.name for path in package.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if {getattr(node, attr, None) for attr in ("id", "attr", "name")} & names})
    assert namers == ["bank_engine.py"]


def test_the_debt_recurrence_is_written_once():
    """One ledger kernel: ``x + x * rate`` appears only in ``bank_engine._roll``, and ``_debts`` is gone."""
    package, found, names = SRC / "venturebank", [], set()
    for path in package.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(func.name)
                found += [f"{path.name}:{func.name}" for node in ast.walk(func)
                          if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
                          and isinstance(node.left, ast.Name) and isinstance(node.right, ast.BinOp)
                          and isinstance(node.right.op, ast.Mult)
                          and node.left.id in {getattr(node.right.left, "id", None),
                                               getattr(node.right.right, "id", None)}]
    assert found == ["bank_engine.py:_roll"]
    assert "_debts" not in names


def test_no_module_reads_the_environment():
    """Every input comes in through a flag, a config key or an argument, never ``os.environ``/``os.getenv``."""
    package = SRC / "venturebank"
    readers = sorted(f"{path.name}:{node.lineno}" for path in package.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv", "getenvb")
                     or isinstance(node, ast.ImportFrom) and node.module == "os"
                     and any(a.name in ("environ", "environb", "getenv", "getenvb") for a in node.names))
    assert not readers


def _writes_stdout(node) -> bool:
    """A call that writes stdout: ``print`` without ``file=sys.stderr``, or a ``sys.stdout`` write method."""
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Name) and node.func.id == "print":
        return not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)
    return ast.unparse(node.func).startswith("sys.stdout.") and ast.unparse(node.func).endswith(("write", "writelines"))


def test_only_run_cli_writes_stdout():
    """Each command's handler returns its text and ``cli.run_cli`` writes it, once: no other function or module
    formats stdout. An ``error:`` line to stderr is a diagnostic, not output."""
    package = SRC / "venturebank"
    writers = [(path.name, getattr(top, "name", None)) for path in sorted(package.glob("*.py"))
               for top in ast.parse(path.read_text(encoding="utf-8")).body
               for node in ast.walk(top) if _writes_stdout(node)]
    assert writers == [("cli.py", "run_cli")]
    handlers = [func for func in ast.parse((package / "cli.py").read_text(encoding="utf-8")).body
                if isinstance(func, ast.FunctionDef) and func.name.startswith("_cmd_")]
    assert len(handlers) == 7 and all(ast.unparse(func.returns) == "str" for func in handlers)


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass"


def test_only_records_that_check_their_fields_are_dataclasses():
    """A record with no ``__post_init__`` is a ``collections.namedtuple``; ``dataclasses`` is imported only where
    one is checked."""
    package = SRC / "venturebank"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    dataclasses_by_module = {
        name: [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               and any(_is_dataclass_decorator(d) for d in node.decorator_list)]
        for name, tree in trees.items()}
    unchecked = [f"{name}:{node.name}" for name, nodes in dataclasses_by_module.items() for node in nodes
                 if not any(isinstance(f, ast.FunctionDef) and f.name == "__post_init__" for f in node.body)]
    assert not unchecked
    importers = sorted(name for name, tree in trees.items() for node in ast.walk(tree)
                       if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
                       or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"))
    assert importers == sorted(name for name, nodes in dataclasses_by_module.items() if nodes)


def _imports_of(tree, module: str) -> list:
    """The ``import`` and ``from ... import`` nodes under ``tree`` that load ``module`` or a submodule of it."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import) and any(a.name.split(".")[0] == module for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == module]


def test_no_typing_and_pathlib_only_inside_functions():
    """A clean start loads neither: ``collections.namedtuple`` makes the records, ``collections.abc`` names
    ``Sequence``, and ``pathlib`` is imported only by the functions that return or print a ``Path``."""
    package = SRC / "venturebank"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    assert not [name for name, tree in trees.items() if _imports_of(tree, "typing")]
    in_functions = {id(node) for tree in trees.values() for func in ast.walk(tree)
                    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for node in _imports_of(func, "pathlib")}
    outside = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in _imports_of(tree, "pathlib")
               if id(node) not in in_functions]
    assert not outside
    # ``ingest`` and ``sweep`` print a ``Path``, ``default_snapshot_path`` returns one; ``emit_report`` only writes
    assert sorted(name for name, tree in trees.items() if _imports_of(tree, "pathlib")) == ["cli.py", "market_data.py"]


RECORDS = [
    ("bank_engine", "Flows", ("premiums", "receipts", "exits", "face_total", "start", "steps")),
    ("bank_engine", "BankYear", ("year", "interest_accrued", "premiums_paid", "din_receipts", "exit_proceeds",
                                 "debt_balance_end", "equity_estimate")),
    ("bank_engine", "BankResult", ("final_multiple", "survived", "ledger")),
    ("calibrate", "CalibrationCase", ("premium_base", "rate_reading", "m30", "m43", "uplift", "score")),
    ("calibrate", "CalibrationReport", ("cases",)),
    ("din", "CoverageAssessment", ("method", "clamp_loss", "recommended_coverage")),
    ("market_data", "WindowStats", ("median", "mean", "count")),
    ("portfolio", "PortfolioStats", ("mean", "stddev")),
    ("sweep", "SweepCurve", ("label", "moc", "multiples", "returns")),
]


@pytest.mark.parametrize("module, name, fields", RECORDS)
def test_records_are_tuples_with_their_fields(module, name, fields):
    """Each record keeps its fields in order, equals the plain tuple of its values, ``_replace`` keeps its type,
    and no instance has a ``__dict__`` (the ones with methods set ``__slots__ = ()``)."""
    record = getattr(importlib.import_module(f"venturebank.{module}"), name)
    values = tuple(range(len(fields)))
    r = record(*values)
    assert record._fields == fields
    assert r == values and hash(r) == hash(values)
    assert type(r._replace(**{fields[0]: -1})) is record and r._replace(**{fields[0]: -1}) == (-1, *values[1:])
    assert not hasattr(r, "__dict__")


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with PYPROJECT.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == venturebank.__version__
