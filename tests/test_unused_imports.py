"""No module imports a name it never uses, and the package defines nothing
that no module reads.

The package's `__init__.py` is left out of the import check: its imports are
the public API.  A top-level function, class or constant of the package counts
as read when a module in src, tests, tools or perfbench names it: as a loaded
name, an attribute or an imported name.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    [p for p in (ROOT / "src" / "conerig").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "tools").glob("*.py"))
)

PACKAGE = sorted((ROOT / "src" / "conerig").glob("*.py"))
READERS = [p for d in ("src", "tests", "tools", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]


def unused_imports(source: str) -> list[str]:
    """The names that the module's imports bind and that nothing reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import math\nimport os.path\nfrom numpy import array as arr, zeros\nos.path.join(zeros(1))\n"
    assert unused_imports(source) == ["line 1: math", "line 3: arr"]


def names_read(source: str) -> set[str]:
    """Every name the module loads, every attribute it names and every name it imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def dead_definitions(source: str, read: set[str]) -> list[str]:
    """The top-level functions, classes and constants of the module whose names
    are not in `read`."""
    defined: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                defined[name.id] = node.lineno
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


@pytest.fixture(scope="module")
def read_anywhere() -> set[str]:
    return set().union(*(names_read(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_definition_is_read(path, read_anywhere):
    assert dead_definitions(path.read_text(), read_anywhere) == []


def test_the_check_sees_a_dead_definition():
    source = (
        "A, B = 1, 2\nC: int = 3\ndef f():\n    return A\nclass K:\n    pass\nasync def g():\n    pass\n"
    )
    read = names_read(source) | names_read("from m import K\nm.C\n")
    assert dead_definitions(source, read) == ["line 1: B", "line 3: f", "line 7: g"]
