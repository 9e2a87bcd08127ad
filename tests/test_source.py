"""Source hygiene checks that need no linter: stdlib ``ast`` only."""

import ast
import collections
import importlib
import pathlib
import re
import types

import trialbench
from conftest import REPO_ROOT

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


# Definitions in the package that only tests name, each with its reason. A
# new definition that only a test calls fails the test below by name: move
# it into the tests, or give it a caller in the package.
TEST_ONLY = {
    "data.py: subset": "benchmark wrap point (perfbench/spans.py)",
    "glm.py: fit_logistic": "benchmark wrap point (perfbench/spans.py)",
    "glm.py: fit_linear": "benchmark wrap point (perfbench/spans.py)",
    "inference.py: bootstrap_replicate": "benchmark wrap point (perfbench/spans.py)",
    "estimators.py: estimate_phi": "called by acceptance criterion 1",
    "estimators.py: estimate_chi": "called by acceptance criterion 1",
    "estimators.py: estimate_psi": "called by acceptance criterion 1",
    "data.py: save_dataset": "public API",
    "estimators.py: if_values": "test oracle: one influence value per row",
    "simulation.py: series_for": "test oracle: one series of a Monte Carlo report",
}


def test_only_the_allowlisted_definitions_are_named_by_tests_alone():
    defining = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    found = {
        re.sub(r" line [0-9]+:", ":", entry) for entry in unreferenced_definitions(defining, [])
    }
    assert found == set(TEST_ONLY)


# The phrasing of each argument rule, and old phrasings of the same rules.
# Only the rule's own function in errors.py may say it, so that a rule does
# not grow a second owner with a condition of its own.
RULE_PHRASES = (
    "must be inside (0, 1)",
    "must be an integer of at least",
    "must be at least",
    "must be positive",
    "must be non-negative",
    "must be a finite number",
    "must be one of",
    "must be distinct",
    "must be a subset",
    "must be a pair",
)
RULE_OWNERS = {
    "require_unit",
    "require_count",
    "require_sizes",
    "require_positive",
    "require_member",
    "require_subset",
}


def rule_phrases_outside_their_owners(sources: dict[str, str]) -> list[str]:
    """Each string, docstrings aside, that says a RULE_PHRASES phrase outside
    the RULE_OWNERS functions of errors.py."""
    found = []
    for name, source in sources.items():
        tree = ast.parse(source)
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
                skipped.add(id(node.body[0].value))
            if name == "errors.py" and isinstance(node, ast.FunctionDef) and node.name in RULE_OWNERS:
                skipped |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skipped:
                found += [f"{name} line {node.lineno}: {p}" for p in RULE_PHRASES if p in node.value]
    return found


def test_rule_phrases_outside_their_owners_are_found():
    sources = {
        "errors.py": (
            '"""A docstring: x must be positive."""\n'
            "def require_unit(value, name):\n"
            '    raise ConfigError(f"{name!r} must be inside (0, 1), got {value!r}")\n'
            "def other(n):\n"
            '    """n must be at least 1."""\n'
            '    raise ConfigError(f"{n} must be at least 1")\n'
        ),
        "config.py": 'def f(v):\n    raise ConfigError(f"{v} must be positive")\n',
    }
    assert rule_phrases_outside_their_owners(sources) == [
        "errors.py line 6: must be at least",
        "config.py line 2: must be positive",
    ]


def test_each_argument_rule_is_said_only_by_its_function():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert rule_phrases_outside_their_owners(sources) == []


# The one module that calls ``.predict(`` on a fitted model (glm.py defines
# it): NuisanceSet.on_cells predicts each model once per cell table, so the
# per-table predictions keep one owner.
PREDICT_OWNER = "nuisance.py"


def predict_calls_outside_their_owner(sources: dict[str, str]) -> list[str]:
    """Each call of a ``.predict`` attribute outside PREDICT_OWNER."""
    found = []
    for name, source in sources.items():
        if name == PREDICT_OWNER:
            continue
        for node in ast.walk(ast.parse(source)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "predict"
            ):
                found.append(f"{name} line {node.lineno}: predict")
    return found


def test_predict_calls_outside_their_owner_are_found():
    sources = {
        "glm.py": "class Model:\n    def predict(self, x):\n        return x\n",
        "nuisance.py": "def on_cells(model, t):\n    return model.predict(t.x)\n",
        "diagnostics.py": 'def f(nu, t):\n    return nu.models["participation"].predict(t.x)\n',
    }
    assert predict_calls_outside_their_owner(sources) == ["diagnostics.py line 2: predict"]


def test_only_the_nuisance_set_predicts():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert predict_calls_outside_their_owner(sources) == []


def _perfbench_spans():
    """perfbench/spans.py as a module, run from its source (stdlib imports
    only) so that nothing, bytecode included, is written next to it."""
    path = REPO_ROOT / "perfbench" / "spans.py"
    module = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def test_every_benchmark_wrap_point_resolves():
    # A wrap point that no longer resolves drops its per-layer metrics from
    # the benchmark's result line, so a rename must move the benchmark too.
    spans = _perfbench_spans()
    absent = []
    for layer, qualnames in spans.WRAP_POINTS.items():
        module = importlib.import_module(f"trialbench.{layer}")
        for qualname in qualnames:
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or vars(owner).get(attr) is None:
                absent.append(f"{layer}.{qualname}")
    assert absent == []
    wrapped = {f"{layer}.{q}" for layer, qualnames in spans.WRAP_POINTS.items() for q in qualnames}
    assert set(spans.COUNTERS) <= wrapped


# numpy functions the package calls that older numpy releases lack, with the
# release that added each.
NUMPY_ADDED = {"vecdot": (2, 0)}


def numpy_calls(source: str) -> set[str]:
    """The names the source reads off ``np``."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np"
    }


def test_numpy_floor_covers_every_numpy_function_the_package_calls():
    # Below the floor every analysis would end in exit 5 on an AttributeError.
    text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (floor,) = re.findall(r'"numpy>=([0-9.]+)"', text)
    declared = tuple(int(part) for part in floor.split("."))
    called = set().union(*(numpy_calls(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")))
    assert "vecdot" in called
    needed = max(NUMPY_ADDED[name] for name in called & NUMPY_ADDED.keys())
    assert declared >= needed
