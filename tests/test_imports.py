"""No module of the package imports a name it never uses, and no
top-level name of the package goes unread."""

import ast
from pathlib import Path

import vecloop

PACKAGE = Path(vecloop.__file__).parent
# the trees whose code may read a name of the package
READERS = ("src", "tests", "perfbench")


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


def top_level_names(source: str) -> list[str]:
    """The names a module binds at its top level by `def`, `class` or
    assignment, dunder names aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [name.id for target in targets
                      for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [name for name in names if not name.startswith("__")]


def read_names(source: str) -> set[str]:
    """Every name `source` may read: loaded names, attribute names,
    imported names, and strings spelling a name (`getattr`,
    `monkeypatch.setattr`, `__all__`)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found.add(node.value)
    return found


def unread_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """`module.name` for each top-level name of `modules` (name -> source)
    that no source in `readers` reads."""
    read = set().union(*map(read_names, readers))
    return [f"{module}.{name}" for module, source in sorted(modules.items())
            for name in top_level_names(source) if name not in read]


def test_every_top_level_name_is_read():
    root = Path(__file__).resolve().parents[1]
    readers = [path.read_text(encoding="utf-8") for tree in READERS
               for path in sorted((root / tree).rglob("*.py"))]
    modules = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    assert unread_names(modules, readers) == []


def test_the_check_sees_an_unread_name():
    module = ("A = 1\nB, C = 2, 3\n__all__ = []\n"
              "def f():\n    return A\nclass K:\n    pass\n")
    assert unread_names({"m": module}, [module]) == ["m.B", "m.C", "m.f",
                                                     "m.K"]
    # a name counts as read where another source loads it, takes it as an
    # attribute, imports it or spells it in a string
    readers = [module, "print(B)", "m.C", "from m import f",
               "setattr(m, 'K', None)"]
    assert unread_names({"m": module}, readers) == []
    # a store is no read
    assert unread_names({"m": module}, [module, "B = 0; C += 1; f = K = 2"]) \
        == ["m.B", "m.C", "m.f", "m.K"]
