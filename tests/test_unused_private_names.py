"""Every module-level private name in src/ is read somewhere in src/.

A private helper (``_x``, dunders excepted) that no code reads is left over
from a refactor; tests do not count as readers, since a helper kept alive
only by its tests is dead in the program. A name counts as read when it
appears as a loaded name, an attribute or a ``from ... import`` anywhere in
src/.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _bound_names(statement):
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unread_private_names(sources):
    """(module, line, name) of each module-level private name nothing reads.

    sources maps a module name to its source text.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for statement in tree.body:
            defined += [(module, statement.lineno, name)
                        for name in _bound_names(statement) if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(d for d in defined if d[2] not in read)


def test_detector_sees_loads_attributes_and_imports():
    sources = {
        "a": (
            "_CONST = 1\n"
            "_ATTR: int = 2\n"
            "def _imported(): pass\n"
            "def _dead(): pass\n"
            "class _Dead: pass\n"
            "_stored = 0\n"
            "__all__ = []\n"
            "def public(): return _CONST\n"
        ),
        "b": "from a import _imported\nimport a\n_stored = a._ATTR\n",
    }
    assert unread_private_names(sources) == [
        ("a", 4, "_dead"), ("a", 5, "_Dead"), ("a", 6, "_stored"), ("b", 3, "_stored")
    ]


def test_every_private_name_in_src_is_read():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 5
    sources = {str(p.relative_to(SRC)): p.read_text() for p in paths}
    assert unread_private_names(sources) == []
