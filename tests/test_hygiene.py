"""Source hygiene: every name a module in src/prodrank imports is used there.

Two imports are kept on purpose: the package ``__init__`` re-exports its
public names, and ``evaluation`` imports ``normalize`` so that
bench/tracing.py can wrap it in that module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "prodrank"
KEPT = {("evaluation.py", "normalize")}


def imported_names(tree):
    """(bound name, line) for every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def used_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as "ErrorRateReport | float | None"
            try:
                names |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = used_names(tree)
        unused += [f"{path.name}:{line}: {name}" for name, line in imported_names(tree)
                   if name not in used and (path.name, name) not in KEPT]
    assert not unused, "unused imports:\n" + "\n".join(unused)
