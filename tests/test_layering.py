"""Module layering: the solver's stages stay behind its public functions."""

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
