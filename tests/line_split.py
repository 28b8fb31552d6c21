"""The line count of the package source, and its split by kind.

Run from the repository root (not collected by pytest):

    python tests/line_split.py

It prints two lines for ``src/hardyconst/*.py``:

- ``wc -l``: the total number of lines;
- the split of those lines into code, docstring, comment and blank lines.
  A docstring line is a line of the docstring of a module, class or
  function, found with ``ast``; a comment line is one whose first
  non-blank character is ``#``; a blank line holds only whitespace; every
  other line is code.

ROADMAP.md's line budget quotes both lines.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hardyconst"


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that a docstring of tree spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def split(text: str) -> dict[str, int]:
    """Counts of code, docstring, comment and blank lines in the source text."""
    doc = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if i in doc:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(src: Path = SRC) -> None:
    total = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    for path in sorted(src.glob("*.py")):
        for kind, n in split(path.read_text()).items():
            total[kind] += n
    print(f"wc -l: {sum(total.values())}")
    print(" ".join(f"{kind} {n}" for kind, n in total.items()))


if __name__ == "__main__":
    main()
