"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import vecloop

PACKAGE = Path(vecloop.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads.  A name listed in
    `__all__`, and an import whose lines carry `# noqa: F401`, count as
    used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            span = lines[node.lineno - 1:node.end_lineno]
            if any("noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = {path.name: unused for path in sorted(PACKAGE.glob("*.py"))
             if (unused := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def test_the_check_sees_an_unused_import():
    assert unused_imports("from itertools import islice, repeat\n"
                          "repeat(1)\n") == ["islice (line 1)"]
    assert unused_imports("import numpy as np\nnp.zeros(1)\n") == []
    assert unused_imports("from .x import f  # noqa: F401\n") == []
    assert unused_imports("from .x import f\n__all__ = ['f']\n") == []
