"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
import collections
import pathlib

import trialbench

PACKAGE = pathlib.Path(trialbench.__file__).parent


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom typing import Mapping, Sequence\n"
        "from .glm import Model\n"
        "__all__ = ['Model']\n"
        "def f(x: Mapping[str, int]) -> None:\n    np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Sequence"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


# Each costs every command its import time: scipy (about 0.3 s for
# scipy.special), jsonschema (with referencing, 60-90 ms) and
# importlib.metadata (with email, about 20 ms). Tests may use them.
BANNED = ("scipy", "jsonschema", "importlib.metadata")


def banned_imports(source: str) -> list[str]:
    """Every import of a BANNED module in the source, at module level or in any function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            # ``from importlib import metadata`` imports importlib.metadata.
            modules = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            (node.lineno, m)
            for m in modules
            if any(m == b or m.startswith(b + ".") for b in BANNED)
        ]
    return [f"line {line}: {m}" for line, m in sorted(found)]


def test_banned_imports_are_found():
    source = (
        "import os, scipy.special as sp\n"
        "from .scipy import x\n"
        "def f():\n    from scipy import stats\n    import scipyx\n"
        "import jsonschema\nfrom importlib import metadata, resources\n"
        "import importlib.metadata\nfrom importlib.metadata import version\n"
        "import importlib.resources\n"
    )
    assert banned_imports(source) == [
        "line 1: scipy.special",
        "line 4: scipy",
        "line 4: scipy.stats",
        "line 6: jsonschema",
        "line 7: importlib.metadata",
        "line 8: importlib.metadata",
        "line 9: importlib.metadata",
        "line 9: importlib.metadata.version",
    ]


def test_no_module_imports_a_banned_module():
    # A lazy import inside a function still costs its import time when it runs.
    found = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if (hits := banned_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def unreferenced_definitions(defining: dict[str, str], others: list[str]) -> list[str]:
    """Functions, classes and methods defined in ``defining`` (file name to
    source) that no source names outside their own definition.

    A use is a name or an attribute, so an import or an ``__all__`` entry
    does not count; dunder methods, which Python calls itself, are left out.
    """
    trees = {name: ast.parse(source) for name, source in defining.items()}

    def uses(tree: ast.AST) -> collections.Counter:
        return collections.Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        )

    used = sum((uses(tree) for tree in trees.values()), collections.Counter())
    used += sum((uses(ast.parse(source)) for source in others), collections.Counter())
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if used[node.name] == uses(node)[node.name]:
                found.append(f"{name} line {node.lineno}: {node.name}")
    return found


def test_unreferenced_definitions_are_found():
    defining = {
        "m.py": (
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Box:\n"
            "    def __init__(self): self.used()\n"
            "    def used(self): pass\n"
            "    def unused(self): pass\n"
            "def called(): pass\n"
        )
    }
    others = ["from m import Box, called, exported\ncalled()\nBox()\n"]
    assert unreferenced_definitions(defining, others) == [
        "m.py line 2: exported",
        "m.py line 3: recursive",
        "m.py line 8: unused",
    ]


def test_every_definition_is_named_outside_itself():
    # A function left without a caller, such as a replaced twin of another, fails here.
    defining = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    tests = pathlib.Path(__file__).resolve().parent
    others = [path.read_text(encoding="utf-8") for path in sorted(tests.glob("*.py"))]
    assert unreferenced_definitions(defining, others) == []
