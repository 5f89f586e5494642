"""No module in src/, tests/ or scripts/ imports a name it never uses.

No linter ships with the development environment, so this is the one check
of it. A name counts as used when it appears as a plain name anywhere in the
module, quoted annotations included; package ``__init__.py`` files import to
re-export and are left out.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    p
    for d in ("src", "tests", "scripts")
    for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py"
)


def _annotations(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation]
    return []


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for ann in filter(None, _annotations(node)):
            for part in ast.walk(ann):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    quoted = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_sees_plain_dotted_and_quoted_uses():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import List, Dict\n"
        "from math import comb as choose, gcd\n"
        "def f(x: 'List[int]') -> int:\n"
        "    return os.path.sep, gcd\n"
    )
    assert unused_imports(source) == [(3, "Dict"), (4, "choose")]


def test_no_module_imports_a_name_it_never_uses():
    assert len(SOURCES) > 10
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []
