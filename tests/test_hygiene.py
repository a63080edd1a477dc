"""Source hygiene: every name a ``listrank`` module imports, and every
private name it defines at top level, is referenced in that module; every
public name it defines at top level is used outside its own definition.

The check reads each module's syntax tree. A name counts as referenced when
it is read as a name anywhere in the module, including inside a string
annotation such as ``-> "EncoderParams"``. A public name counts as used when
another top-level statement of ``src/listrank``, a file under ``perfbench/``
or ``scripts/``, or the acceptance tests reads it as a name or an attribute
or imports it by name. The other tests do not count: a name only they reach
is code that nothing needs.

The same holds for the members of a public class: every public method,
property, class-body name (dataclass fields among them) and ``self.x``
attribute must be read outside its own definition, as an attribute load or
as a keyword argument, by the same readers. Members are matched by name
alone, whatever the type of the object read.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "listrank"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _referenced(tree) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str) -> list:
    """``(line, name)`` of every imported name the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _referenced(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _bound_names(statement) -> list:
    """The names a top-level statement defines or assigns."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    return []


def unused_private_names(source: str) -> list:
    """``(line, name)`` of every private name (one underscore in front, not a
    dunder) bound at the module's top level that the module never reads."""
    tree = ast.parse(source)
    defined = {name: node.lineno for node in tree.body for name in _bound_names(node)}
    used = _referenced(tree)
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in used)


def _uses(tree) -> set:
    """Names ``tree`` reads, reads as an attribute, or imports by name."""
    used = _referenced(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def unused_public_names(modules: dict, outside: list) -> list:
    """``(module, name)`` of every public name bound at the top level of a
    module in ``modules`` (name to source) that no other top-level statement
    of those modules and none of the ``outside`` sources uses."""
    statements = [(module, node, _uses(node)) for module, source in modules.items()
                  for node in ast.parse(source).body]
    used_outside = set().union(*(_uses(ast.parse(source)) for source in outside))
    return sorted((module, name) for module, node, _ in statements for name in _bound_names(node)
                  if not name.startswith("_") and name not in used_outside
                  and not any(name in uses for _, other, uses in statements if other is not node))


def _member_reads(tree) -> Counter:
    """How often ``tree`` loads each name as an attribute or passes it as a keyword."""
    reads = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg is not None:
            reads[node.arg] += 1
    return reads


def _members(cls):
    """``(name, definition)`` of every member of class ``cls``: a method or
    property with its own node, a class-body name or a ``self.x`` attribute
    with None, since its definition stores the name and reads nothing."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        else:
            yield from ((name, None) for name in _bound_names(node))
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield node.attr, None


def unread_members(modules: dict, outside: list) -> list:
    """``(module, "Class.member")`` of every public member of a public
    top-level class in ``modules`` (name to source) that neither those
    modules outside the member's own definition nor the ``outside`` sources
    read."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    reads = sum((_member_reads(tree) for tree in [*trees.values(), *map(ast.parse, outside)]), Counter())
    return sorted({(module, f"{cls.name}.{name}") for module, tree in trees.items() for cls in tree.body
                   if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                   for name, definition in _members(cls) if not name.startswith("_")
                   and reads[name] <= (_member_reads(definition)[name] if definition else 0)})


def _readers() -> tuple[dict, list]:
    """The ``src/listrank`` modules (name to source), and the sources outside
    them whose reads count: ``perfbench/``, ``scripts/`` and the acceptance tests."""
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    outside = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))
               + sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]]
    return modules, outside


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_referenced(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_top_level_name_is_referenced(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


def test_every_public_top_level_name_is_used():
    assert unused_public_names(*_readers()) == []


def test_every_public_class_member_is_read():
    assert unread_members(*_readers()) == []


def test_checker_finds_class_members_only_their_own_definition_reads():
    modules = {
        "a.py": (
            "class Box:\n"
            "    size: int\n"
            "    label: str = ''\n"
            "    LIMIT = 3\n"
            "    def __init__(self, n):\n"
            "        self.count = n\n"
            "        self._cache = None\n"
            "    def walk(self, n):\n"
            "        return self.walk(n - 1) if n else self.size\n"
            "    @property\n"
            "    def area(self):\n"
            "        return self.count\n"
            "    def _helper(self): pass\n"
            "class _Hidden:\n"
            "    unread = 1\n"
        ),
        "b.py": "from .a import Box\ndef build():\n    return Box(label='x').area\n",
    }
    assert unread_members(modules, []) == [("a.py", "Box.LIMIT"), ("a.py", "Box.walk")]
    assert unread_members(modules, ["box.walk(2)\n", "print(Box.LIMIT)\n"]) == []


def test_checker_finds_public_names_only_their_own_definition_uses():
    modules = {
        "a.py": "LIMIT = 3\ndef walk(n):\n    return walk(n - 1) if n else LIMIT\nclass Node:\n    pass\n",
        "b.py": "from .a import Node\ndef build():\n    return Node()\ndef _helper(): pass\n",
    }
    assert unused_public_names(modules, []) == [("a.py", "walk"), ("b.py", "build")]
    assert unused_public_names(modules, ["import m\nm.walk(1)\n", "from p.b import build\n"]) == []


def test_checker_finds_unread_private_names():
    source = (
        "_TABLE = {}\n"
        "_USED: int = 1\n"
        "__all__ = []\n"
        "def _left_over(): pass\n"
        "class _Kept: pass\n"
        "def public(x: '_Kept') -> int:\n"
        "    _TABLE = 2\n"
        "    return _USED\n"
    )
    assert unused_private_names(source) == [(1, "_TABLE"), (4, "_left_over")]


def test_checker_finds_an_unused_import_and_reads_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Sequence\n"
        "def f(x: 'Sequence[int]') -> None:\n"
        "    return x\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "Iterable")]
