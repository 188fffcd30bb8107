"""The import layering of the package, read from the source with ``ast``.

``fields`` is the bottom layer and imports only ``errors``; ``dynamics``
adds only ``serialize`` for its CSV export; ``config`` reads
the schema and only the front ends (``cli`` and the package ``__init__``)
import it; and every package import sits at the top of its module, so the
layering is visible there.
"""

import ast
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


def test_only_the_front_ends_import_config():
    importers = {p.name for p in MODULES if any(name == "config" for name, _ in package_imports(p))}
    assert importers == {"cli.py", "__init__.py"}
