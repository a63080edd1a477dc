"""Source hygiene: every name a ``listrank`` module imports, and every
private name it defines at top level, is referenced in that module.

The check reads each module's syntax tree. A name counts as referenced when
it is read as a name anywhere in the module, including inside a string
annotation such as ``-> "EncoderParams"``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "listrank"


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


def unused_private_names(source: str) -> list:
    """``(line, name)`` of every private name (one underscore in front, not a
    dunder) bound at the module's top level that the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    used = _referenced(tree)
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_referenced(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_top_level_name_is_referenced(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []


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
