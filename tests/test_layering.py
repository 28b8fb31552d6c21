"""Module layering: the solver's stages stay behind its public functions,
no module imports a name it never uses, and none rebinds module-level
state by hand."""

import ast
from pathlib import Path

import pytest

import hardyconst

PACKAGE = Path(hardyconst.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "solver")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_solver_name_is_imported(path):
    private = [
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.module == "solver" and node.level == 1 or node.module == "hardyconst.solver")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__all__`` entries count as read."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_unused_import_check_sees_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "import numpy as np\n"
        "from .errors import DomainError, NoRootError as Missing\n"
        "from . import special\n"
        "__all__ = ['special']\n"
        "x: DomainError = math.pi\n"
        "np = None\n"
    )
    assert unused_imports(source) == ["Missing", "np", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_global_or_nonlocal_statement(path):
    # state a module keeps between calls goes through functools' caches
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rebinds = [
        node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal))
    ]
    assert rebinds == []
