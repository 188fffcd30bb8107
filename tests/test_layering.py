"""The import layering of the package, read from the source with ``ast``.

``fields`` is the bottom layer and imports only ``errors``; ``dynamics``
adds only ``serialize`` for its CSV export; ``config`` reads
the schema and only the front ends (``cli`` and the package ``__init__``)
import it; and every package import sits at the top of its module, so the
layering is visible there.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rcert"
MODULES = sorted(SRC.glob("*.py"))


def package_imports(path: Path) -> list[tuple[str, bool]]:
    """(rcert submodule, inside a function) for each import of the package in ``path``."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                if child.level:
                    names = [child.module] if child.module else [a.name for a in child.names]
                elif child.module and child.module.split(".")[0] == "rcert":
                    rest = child.module.partition(".")[2]
                    names = [rest] if rest else [a.name for a in child.names]
                else:
                    names = []
                found.extend((name.split(".")[0], in_function) for name in names)
            elif isinstance(child, ast.Import):
                found.extend((a.name.partition(".")[2], in_function) for a in child.names if a.name.split(".")[0] == "rcert")
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_the_scan_finds_the_imports():
    imports = dict(package_imports(SRC / "cli.py"))
    assert {"applications", "config", "errors", "fields"} <= set(imports)


def test_fields_imports_only_errors():
    assert {name for name, _ in package_imports(SRC / "fields.py")} == {"errors"}


def test_dynamics_is_only_the_stepper():
    # the residual oracles live in riccati, so the stepper needs no quadrature
    assert {name for name, _ in package_imports(SRC / "dynamics.py")} == {"errors", "fields", "serialize"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_package_import_inside_a_function(path):
    assert [name for name, in_function in package_imports(path) if in_function] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_exported_name_exists(path):
    # A name left in ``__all__`` after its definition is gone breaks ``import *``.
    module = importlib.import_module("rcert" if path.stem == "__init__" else f"rcert.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_only_the_front_ends_import_config():
    importers = {p.name for p in MODULES if any(name == "config" for name, _ in package_imports(p))}
    assert importers == {"cli.py", "__init__.py"}


#: What ``fields`` uses to compile a closed form.  Other modules build a
#: closed-form field through ``_closed_form_field`` or ``_closed_form_time`` only.
EVALUATOR_INTERNALS = {"_closed_form", "_form_source", "_run", "_compiled", "_times", "_W_FACTORS"}


def row_evaluator_uses(source: str) -> list[str]:
    """Each ``products=`` argument, ``ScalarField`` call with a third positional
    argument (its products), and import of an evaluator internal of ``fields`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            found.extend(f"products= at line {node.lineno}" for k in node.keywords if k.arg == "products")
            callee = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if callee == "ScalarField" and len(node.args) > 2:
                found.append(f"ScalarField with products at line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "fields":
            found.extend(f"imports {a.name}" for a in node.names if a.name in EVALUATOR_INTERNALS)
    return sorted(found)


def test_the_row_scan_finds_row_evaluators():
    source = "from .fields import ScalarField, _closed_form, _run\nScalarField(f, 'f', products)\nreplace(fld, products=ps)\n"
    assert row_evaluator_uses(source) == ["ScalarField with products at line 2", "imports _closed_form", "imports _run", "products= at line 3"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"], ids=[p.name for p in MODULES if p.name != "fields.py"])
def test_only_fields_builds_row_evaluators(path):
    # A closed-form field is a list of products; fields alone compiles it into its evaluator.
    assert row_evaluator_uses(path.read_text(encoding="utf-8")) == []


def flat_row_uses(source: str) -> list[int]:
    """The lines of ``source`` that name ``_Flat``: as a name, an attribute or an import."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "_Flat" or isinstance(node, ast.Attribute) and node.attr == "_Flat":
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "_Flat" for a in node.names):
            found.append(node.lineno)
    return sorted(found)


def test_the_flat_row_scan_finds_flat_rows():
    source = "from .fields import _Flat\nif type(row) is fields._Flat:\n    pass\nrow = _Flat(values)\n"
    assert flat_row_uses(source) == [1, 2, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fields.py"], ids=[p.name for p in MODULES if p.name != "fields.py"])
def test_only_fields_names_flat_rows(path):
    # How a row is represented is one module's decision; other modules index, zip and slice rows.
    assert flat_row_uses(path.read_text(encoding="utf-8")) == []


def test_fields_has_no_flat_row_type():
    # A w-free row is a plain list; the scan decides it from its range, as any closed-form row, in one loop.
    assert flat_row_uses((SRC / "fields.py").read_text(encoding="utf-8")) == []
