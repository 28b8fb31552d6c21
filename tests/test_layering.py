"""Module layering: the solver's stages stay behind its public functions,
no module imports a name it never uses, none rebinds module-level state by
hand, none sums through BLAS, whose order depends on the CPU, and none
calls ``np.power``, which may round unlike the C library's pow; nor does
any lane function (named ``*_lanes``) or any formula shared by floats and
lanes (a function with a parameter ``pw``, the power it runs on) use
``**``, which on arrays is ``np.power``.  Only ``lanes._root_lanes``, the
lane kernel, resumes the scalar root kernel part-way: a resumed schedule
anywhere else would move the floats of ``omega``, the solver's certificate
or its u solve.  numpy is loaded by the functions that build arrays, not by
importing the package or the CLI, nor by ``solve`` and ``scan``, which
compute on floats; nor are ``hardy``, ``asymptotics`` and ``verify``, which
only the array commands run, nor ``lanes``, which only ``verify`` runs; no
command loads ``sensitivity``, as ``verify`` forms its derivatives from the
lane solve.  Every annotation in ``lanes`` resolves.  The package
serves each public name lazily, as the very object its defining module
holds.  Every field of ``lanes.LaneSolutions`` is read from a
``solve_lanes`` result outside ``solver``: the lane solve, a loop of
``solve_t`` that hands each lane it cannot finish to ``solve_t``, returns
nothing its callers ignore, and so no verdict but ok.  No docstring or
comment in the package carries history (``HISTORY``): measurements and the
record of changes live in CHANGES.md."""

import ast
import dataclasses
import inspect
import io
import os
import re
import subprocess
import sys
import tokenize
import typing
from pathlib import Path

import pytest
from line_split import _docstring_lines

import hardyconst
import hardyconst.lanes
from hardyconst.lanes import LaneSolutions

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


def lane_reads(source: str) -> set[str]:
    """Attributes read on a name that a ``solve_lanes(...)`` call's result is
    assigned to, called by name or as a module attribute."""
    tree = ast.parse(source)
    results = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and "solve_lanes" in (getattr(node.value.func, "id", None),
                              getattr(node.value.func, "attr", None))
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id in results
    }


def test_lane_read_check_sees_each_kind():
    source = (
        "sol = solve_lanes(e, s1, s2)\n"
        "lanes = solver.solve_lanes(e, s1, s2)\n"
        "other = solve_t(e, pt)\n"
        "x = sol.t + lanes.alpha[sol.ok] + other.tau\n"
        "sol.u = 0\n"
    )
    assert lane_reads(source) == {"alpha", "ok", "t"}


def test_every_lane_solution_field_is_read():
    read = set().union(*(lane_reads(path.read_text(encoding="utf-8")) for path in MODULES))
    assert [f.name for f in dataclasses.fields(LaneSolutions) if f.name not in read] == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; a literal ``__all__``'s entries
    count as read."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple)) and any(
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
        "__all__ = sorted(['Missing', *names])\n"
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


#: numpy calls whose summation order follows the BLAS kernel picked at run
#: time (OpenBLAS's DYNAMIC_ARCH), so their floats could depend on the CPU
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot"}


def blas_uses(source: str) -> list[str]:
    """Uses of BLAS_CALLS, as ``np.dot``, ``a.dot`` or an import from numpy,
    and ``@`` operators, each as name:line."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS:
            uses.append(f"{node.attr}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            uses += [f"{a.name}:{node.lineno}" for a in node.names if a.name in BLAS_CALLS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append(f"@:{node.lineno}")
    return sorted(uses)


def test_blas_check_sees_each_kind():
    source = (
        "import numpy as np\n"
        "from numpy import inner, sum\n"
        "a = np.dot(x, y)\n"
        "b = x @ y\n"
        "b @= y\n"
        "f = numpy.einsum\n"
        "c = x.vdot(y) + np.sum(x) + np.polynomial.legendre.leggauss(4)[0] * y\n"
    )
    assert blas_uses(source) == ["@:4", "@:5", "dot:3", "einsum:6", "inner:2", "vdot:7"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_blas_ordered_reduction(path):
    assert blas_uses(path.read_text(encoding="utf-8")) == []


def power_uses(source: str) -> list[str]:
    """Uses of numpy's ``power``, as ``np.power``, ``numpy.power`` or an
    import from numpy, each as name:line.  ``lanes`` documents the trap:
    on arrays it may run SIMD routines that round unlike ``float_power``."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "power"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            uses.append(f"{node.value.id}.power:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            uses += [f"power:{node.lineno}" for a in node.names if a.name == "power"]
    return sorted(uses)


def test_power_check_sees_each_kind():
    source = (
        "import numpy as np\n"
        "from numpy import power, sqrt\n"
        "from numpy import power as pw\n"
        "a = np.power(x, 2)\n"
        "f = numpy.power\n"
        "c = np.float_power(x, 2) + x ** 2 + x.power(2) + math.pow(x, 2)\n"
    )
    assert power_uses(source) == ["np.power:4", "numpy.power:5", "power:2", "power:3"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_numpy_power(path):
    assert power_uses(path.read_text(encoding="utf-8")) == []


def lane_pow_uses(source: str) -> list[str]:
    """``**`` operators inside functions named ``*_lanes`` or with a
    parameter named ``pw``, nested functions and lambdas included, each as
    that function's name:line."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if node.name.endswith("_lanes") or any(a.arg == "pw" for a in params):
            uses += [
                f"{node.name}:{inner.lineno}"
                for inner in ast.walk(node)
                if isinstance(inner, (ast.BinOp, ast.AugAssign)) and isinstance(inner.op, ast.Pow)
            ]
    return sorted(set(uses))


def test_lane_pow_check_sees_each_kind():
    source = (
        "def _h_lanes(r, z):\n"
        "    return np.float_power(z, r - 1.0) * z ** 2.0\n"
        "def solve_lanes(x):\n"
        "    x **= 2\n"
        "    return _root_lanes(lambda i, u: u ** 0.5)\n"
        "def _lane_powers(e):\n"
        "    return e.p ** 2.0\n"
        "y = x ** 2\n"
        "def _shared(x, *, pw):\n"
        "    def inner(u):\n"
        "        return u ** 0.5\n"
        "    return pw(x, 2.0) + inner(x)\n"
        "def _float_only(x, power):\n"
        "    return x ** 2.0\n"
    )
    assert lane_pow_uses(source) == [
        "_h_lanes:2", "_shared:11", "solve_lanes:4", "solve_lanes:5"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_pow_operator_in_lane_functions(path):
    assert lane_pow_uses(path.read_text(encoding="utf-8")) == []


#: ``_bracketed_root``'s arguments that resume a run part-way, and the
#: number of arguments before them
RESUME_ARGS = {"scale", "best_x", "best_abs"}
FRESH_ARGS = 7


def resume_callers(source: str) -> list[str]:
    """Calls of ``_bracketed_root`` that pass a resume argument, by position
    or keyword, or may pass one through ``*`` or ``**``, each as the
    innermost enclosing function's name:line."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "_bracketed_root"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "_bracketed_root"
        ):
            if (
                len(node.args) > FRESH_ARGS
                or any(isinstance(a, ast.Starred) for a in node.args)
                or any(kw.arg is None or kw.arg in RESUME_ARGS for kw in node.keywords)
            ):
                found.append(f"{where}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found)


def test_resume_check_sees_each_kind():
    source = (
        "def fresh():\n"
        "    _bracketed_root(f, a, b, fa, fb, xtol, k1)\n"
        "    special._bracketed_root(f, a, b, fa, fb, xtol, k1=k1)\n"
        "def by_position():\n"
        "    _bracketed_root(f, a, b, fa, fb, xtol, k1, scale)\n"
        "def by_keyword():\n"
        "    return special._bracketed_root(f, a, b, fa, fb, xtol, best_x=x)\n"
        "def unpacked(args, kw):\n"
        "    g = lambda: _bracketed_root(*args, **kw)\n"
    )
    assert resume_callers(source) == ["by_keyword:7", "by_position:5", "unpacked:9"]


def test_only_the_lane_kernel_resumes_the_root_kernel():
    callers = [
        f"{path.stem}.{use.split(':')[0]}"
        for path in sorted(PACKAGE.glob("*.py"))
        for use in resume_callers(path.read_text(encoding="utf-8"))
    ]
    assert callers == ["lanes._root_lanes"]


#: words that date a line instead of stating a contract: a plan's item, a
#: change's number, the host a figure was measured on; they belong in
#: CHANGES.md
HISTORY = re.compile(r"ROADMAP|\bPR \d|vCPU|x86")


def history_lines(source: str) -> list[int]:
    """Lines of a docstring of a module, class or function, or of a
    comment, that match HISTORY."""
    lines = _docstring_lines(ast.parse(source)) | {
        tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    text = source.splitlines()
    return sorted(i for i in lines if HISTORY.search(text[i - 1]))


def test_history_check_sees_each_kind():
    source = (
        '"""A module, ROADMAP item 7."""\n'
        "x = 'PR 1 in a string is code'\n"
        "def f():\n"
        '    """Since PR 2\n'
        '    on a vCPU."""\n'
        "    return 1  # measured on x86-64\n"
        "# PR A names no change\n"
        "class C:\n"
        '    """On an x86 host."""\n'
    )
    assert history_lines(source) == [1, 4, 5, 6, 9]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_history_in_docstrings_or_comments(path):
    assert history_lines(path.read_text(encoding="utf-8")) == []


SOLVE = ["solve", "--p", "2", "--q", "1.5", "--s1", "0.75", "--s2", "0.9185586535436918"]
SCAN = ["scan", "--p", "3", "--q", "2", "--s2", "0.6", "0.9",
        "--s1-min", "0.05", "--s1-max", "0.4", "--n", "12"]
#: code run in a fresh interpreter, after which numpy must not be loaded
NO_NUMPY = {
    "import": "import hardyconst",
    "cli-parser": "import hardyconst.cli as cli; cli._build_parser()",
    "solve": f"import hardyconst.cli as cli; assert cli.main({SOLVE!r}) == 0",
    "scan": f"import hardyconst.cli as cli; assert cli.main({SCAN!r}) == 0",
}


def fresh(args: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter run with the package under test on its path."""
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("code", NO_NUMPY.values(), ids=NO_NUMPY)
def test_point_paths_load_no_numpy(code):
    proc = fresh(["-c", f"{code}\nimport sys\nprint('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


#: modules that only the array commands, ``hardy`` and ``verify``, run
ARRAY_COMMAND_MODULES = ("hardyconst.hardy", "hardyconst.asymptotics", "hardyconst.verify")


@pytest.mark.parametrize("code", NO_NUMPY.values(), ids=NO_NUMPY)
def test_point_paths_load_no_array_command_module(code):
    check = f"import sys\nprint([m for m in {ARRAY_COMMAND_MODULES!r} if m in sys.modules])"
    proc = fresh(["-c", f"{code}\n{check}"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


HARDY = ["hardy", "--p", "2", "--q", "1.5", "--samples", "2"]
VERIFY = ["verify", "--p", "2", "--q", "1.5", "--grid", "10"]
#: the lane code, which only ``verify`` loads, and ``sensitivity``, which no
#: command loads
VERIFY_MODULES = ("hardyconst.lanes", "hardyconst.sensitivity")
#: code run in a fresh interpreter, and the VERIFY_MODULES it must load
VERIFY_LOADS = {
    **{name: (code, []) for name, code in NO_NUMPY.items()},
    "hardy": (f"import hardyconst.cli as cli; assert cli.main({HARDY!r}) == 0", []),
    "verify": (f"import hardyconst.cli as cli; assert cli.main({VERIFY!r}) == 0",
               ["hardyconst.lanes"]),
}


@pytest.mark.parametrize("code, loaded", VERIFY_LOADS.values(), ids=VERIFY_LOADS)
def test_only_verify_loads_the_lane_code_and_sensitivity(code, loaded):
    check = f"import sys\nprint([m for m in {VERIFY_MODULES!r} if m in sys.modules])"
    proc = fresh(["-c", f"{code}\n{check}"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


#: every function and class that ``lanes`` defines
LANE_DEFINITIONS = {
    name: obj for name, obj in vars(hardyconst.lanes).items()
    if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == "hardyconst.lanes"
}


@pytest.mark.parametrize("name", sorted(LANE_DEFINITIONS))
def test_every_lane_annotation_resolves(name):
    # solver.solve_lanes cannot: it imports numpy and lanes in its body
    assert typing.get_type_hints(LANE_DEFINITIONS[name])


def top_level_definitions(source: str) -> set[str]:
    """Names a module binds at top level by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_definition_check_sees_each_kind():
    source = (
        "import math\n"
        "from .special import omega\n"
        "TOL = 1e-12\n"
        "LIMIT: int = 3\n"
        "class Point:\n"
        "    inner = 1\n"
        "def solve(x):\n"
        "    local = x\n"
        "a.b = 2\n"
    )
    assert top_level_definitions(source) == {"LIMIT", "Point", "TOL", "solve"}


#: run in a fresh interpreter with ``homes``, each public name's defining
#: module, filled in; it touches those modules and then every name through
#: the package first, then prints the modules and names that are not the
#: defining module's object, the names ``import *`` binds wrongly or not at
#: all, and those ``dir`` does not list
NAMESPACE = """
import importlib
import hardyconst
homes = {homes!r}
modules = {{home: getattr(hardyconst, home) for home in sorted(set(homes.values()))}}
got = {{name: getattr(hardyconst, name) for name in hardyconst.__all__}}
star = {{}}
exec("from hardyconst import *", star)
listed = dir(hardyconst)


def defined(name):
    home = homes.get(name, name)
    module = importlib.import_module("hardyconst." + home)
    return module if home == name else getattr(module, name)


print([home for home in modules if modules[home] is not defined(home)])
print([name for name in hardyconst.__all__ if got[name] is not defined(name)])
print(sorted(set(star) - {{"__builtins__"}} ^ set(hardyconst.__all__)))
print([name for name in hardyconst.__all__ if star[name] is not got[name]])
print([name for name in hardyconst.__all__ if name not in listed])
"""


def test_every_public_name_is_its_modules_object():
    definitions = {
        path.stem: top_level_definitions(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    homes = {"errors": "errors"}
    for name in set(hardyconst.__all__) - {"errors"}:
        modules = [stem for stem, names in definitions.items() if name in names]
        assert len(modules) == 1, (name, modules)
        homes[name] = modules[0]
    proc = fresh(["-c", NAMESPACE.format(homes=homes)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * 5


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hardyconst.no_such_name  # noqa: B018
    with pytest.raises(AttributeError, match="has no attribute '_h'"):
        hardyconst._h  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        from hardyconst import no_such_name  # noqa: F401


@pytest.mark.parametrize("argv", [HARDY, VERIFY], ids=["hardy", "verify"])
def test_array_commands_load_numpy_where_they_run(argv):
    proc = fresh(["-m", "hardyconst", *argv])
    assert proc.returncode == 0, proc.stderr
