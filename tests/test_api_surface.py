"""No public function, class or constant in the package survives only because
a test imports it, and no module keeps an import it does not use.

Every top-level public function or class in `src/relevance_sim/*.py`, and
every public module-level constant (an UPPER_CASE top-level assignment, each
name of a tuple target included), must be referenced by the package's own
code outside its definition: read as a name (a call, an annotation, a base
class) or as an attribute. Imports, assignments, comments and docstrings do
not count. Names the package root exports are the user API and exempt. A
rule that only the tests need belongs in `tests/reference.py`.

Every name a module imports must be read as a name somewhere in that module,
so a deletion cannot leave an import behind. The package root, whose imports
are its exports, and `from __future__` are exempt.

README's "The package root exports …" sentence names exactly those exports.
"""
import ast
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "relevance_sim"
README = PACKAGE.parents[1] / "README.md"


def _exports(package: pathlib.Path) -> set[str]:
    """The names the package root imports, which are its exports."""
    tree = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _public_names(node: ast.stmt) -> list[str]:
    """The public names a top-level statement defines: a function's or class's
    name, or each UPPER_CASE name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", n.id)]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def unreferenced_definitions(package: pathlib.Path) -> list[str]:
    """`module:line name` for each public top-level definition or constant in
    `package` that its code never references outside the definition itself."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    exported = _exports(package)
    references: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                references.setdefault(node.attr, []).append(node)
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            own = {id(n) for n in ast.walk(node)}
            for name in _public_names(node):
                if name not in exported and all(id(ref) in own for ref in references.get(name, ())):
                    out.append(f"{module}:{node.lineno} {name}")
    return out


def test_every_public_definition_is_used_by_the_package():
    assert unreferenced_definitions(PACKAGE) == []


def test_guard_flags_a_definition_only_tests_could_reach(tmp_path):
    (tmp_path / "__init__.py").write_text("from .core import api\n")
    (tmp_path / "core.py").write_text(
        "import math\n"
        "from .other import helper\n\n\n"
        "def api():\n    return helper(math.pi)\n\n\n"
        "class Shape:\n    def area(self) -> 'Shape':\n        return Shape()\n\n\n"
        "def orphan():\n    \"\"\"Mentions orphan() and Shape in a docstring.\"\"\"\n"
        "    return orphan  # orphan() again, in a comment\n"
    )
    (tmp_path / "other.py").write_text(
        "from .core import orphan\n\n"
        "SV_AGGREGATIONS = ('max', 'mean')\n"
        "LO, HI = 0, 1\n"
        "LIMIT: int = 3\n"
        "_SPARE = 4\n\n\n"
        "def helper(x):\n    \"\"\"Mentions SV_AGGREGATIONS and HI in a docstring.\"\"\"\n"
        "    SV_AGGREGATIONS = 'max'  # rebinding is not a read\n"
        "    return min(max(x, LO), LIMIT)\n"
    )
    # `api` is exported, `helper` is called, and `LO` and `LIMIT` are read;
    # `Shape`, `orphan`, `SV_AGGREGATIONS` and `HI` are only named inside their
    # own definitions, in strings and comments, in an import or as an
    # assignment target; `_SPARE` is private.
    assert unreferenced_definitions(tmp_path) == [
        "core.py:9 Shape", "core.py:14 orphan",
        "other.py:3 SV_AGGREGATIONS", "other.py:4 HI",
    ]


def unused_imports(package: pathlib.Path) -> list[str]:
    """`module:line name` for each name a module of `package` other than its
    root imports and never reads."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_import_is_read_by_its_module():
    assert unused_imports(PACKAGE) == []


def test_guard_flags_an_import_its_module_never_reads(tmp_path):
    (tmp_path / "__init__.py").write_text("from .core import api, unused_here\n")
    (tmp_path / "core.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "import numpy as np\n"
        "from enum import Enum\n"
        "from typing import Callable\n"
        "from .other import Mode, helper as _helper\n\n\n"
        "def api(f: Callable) -> None:\n"
        "    \"\"\"Mentions Enum in a docstring.\"\"\"\n"
        "    Mode = 1  # rebinding is not a read\n"
        "    return os.path.join(_helper(f), 'Mode')\n"
    )
    # `os`, `Callable` and `_helper` are read; `np`, `Enum` and `Mode` appear
    # only in their import, a docstring, an assignment or a string. The package
    # root's re-exports are exempt.
    assert unused_imports(tmp_path) == ["core.py:4 np", "core.py:5 Enum", "core.py:7 Mode"]


def test_readme_names_exactly_the_package_root_exports():
    # The sentence runs from "The package root exports" to its first ";",
    # and every backquoted name in it is one export. Line breaks are spaces.
    readme = " ".join(README.read_text(encoding="utf-8").split())
    sentence = readme.split("The package root exports", 1)[1].split(";", 1)[0]
    assert set(re.findall(r"`(\w+)`", sentence)) == _exports(PACKAGE)
