"""Every module-level name and class member in src/ is read by the program.

A private helper (``_x``, dunders excepted) must be read somewhere in src/,
and a public name somewhere in src/, scripts/ or bench/; an import in
``__init__`` is a read, so an exported name passes. So must each non-dunder
member a class body in src/ binds: methods, properties, classmethods and
dataclass fields. Tests do not count as readers, since a name kept alive
only by its tests is dead in the program. A module-level name counts as
read when it appears as a loaded name, an attribute or a ``from ... import``
in a reader; a class member only as an attribute or an import, so a local
variable that shares a member's name does not keep the member alive. An
attribute read whose receiver names its class (``self.x`` or ``cls.x``
inside a body of a class defined in src/, or ``K.x`` for such a class K)
counts only for that class's member x, so a member is not kept alive by a
namesake on another class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _is_public(name):
    return not name.startswith("_")


def _bound_names(statement):
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _sources(*dirs):
    paths = sorted(p for d in dirs for p in (ROOT / d).rglob("*.py"))
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


def _class_names(sources):
    return {
        node.name
        for source in sources.values()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    }


def _walk_in_class(node, cls=None):
    """Each node under node with the name of its innermost enclosing class."""
    yield node, cls
    if isinstance(node, ast.ClassDef):
        cls = node.name
    for child in ast.iter_child_nodes(node):
        yield from _walk_in_class(child, cls)


def read_names(sources, classes=frozenset()):
    """(loaded, named, resolved): the names the sources load, the names
    they read as an attribute or import, and the (class, member) pairs read
    through a receiver that names one of classes."""
    loaded, named, resolved = set(), set(), set()
    for source in sources.values():
        for node, cls in _walk_in_class(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                receiver = node.value.id if isinstance(node.value, ast.Name) else None
                if receiver in ("self", "cls") and cls in classes:
                    resolved.add((cls, node.attr))
                elif receiver in classes:
                    resolved.add((receiver, node.attr))
                else:
                    named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return loaded, named, resolved


def unread_names(defining, readers, kind):
    """(module, line, name) of each module-level name of defining that kind
    accepts and no module of readers reads.

    Both map a module name to its source text.
    """
    loaded, named, _ = read_names(readers)
    read = loaded | named
    return sorted(
        (module, statement.lineno, name)
        for module, source in defining.items()
        for statement in ast.parse(source).body
        for name in _bound_names(statement)
        if kind(name) and name not in read
    )


def unread_private_names(sources):
    return unread_names(sources, sources, _is_private)


def unread_members(defining, readers):
    """(module, line, "Class.member") of each non-dunder member a class body
    of defining binds and no module of readers reads, as an attribute or
    import by name or through a receiver that names that class."""
    _, named, resolved = read_names(readers, _class_names(defining))
    return sorted(
        (module, statement.lineno, f"{node.name}.{name}")
        for module, source in defining.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for statement in node.body
        for name in _bound_names(statement)
        if not name.startswith("__")
        and name not in named
        and (node.name, name) not in resolved
    )


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
    # a dunder is neither; an __init__ import reads a public name
    assert unread_names(sources, sources, _is_public) == [("a", 8, "public")]
    exported = {**sources, "__init__": "from .a import public\n"}
    assert unread_names(sources, exported, _is_public) == []


def test_detector_sees_dead_class_members():
    sources = {
        "a": (
            "class Box:\n"
            "    size: int\n"
            "    unread: int\n"
            "    def __len__(self): return self.size\n"
            "    def used(self): pass\n"
            "    def dead(self): pass\n"
            "    @property\n"
            "    def width(self): return 1\n"
            "    @classmethod\n"
            "    def make(cls): return cls()\n"
        ),
        "b": "from a import Box\nBox.make().used()\nprint(Box().width)\n",
    }
    assert unread_members(sources, sources) == [("a", 3, "Box.unread"), ("a", 6, "Box.dead")]


def test_detector_resolves_class_receivers():
    # B.identity reads A.identity only; self.x in B reads B.x, not A.x
    sources = {
        "a": (
            "class A:\n"
            "    x = 1\n"
            "    @classmethod\n"
            "    def identity(cls): return cls()\n"
            "class B:\n"
            "    x = 2\n"
            "    @classmethod\n"
            "    def identity(cls): return A.identity()\n"
            "    def size(self): return self.x\n"
        ),
        "b": "from a import B\nB().size()\n",
    }
    assert unread_members(sources, sources) == [("a", 2, "A.x"), ("a", 8, "B.identity")]


def test_detector_does_not_take_a_local_namesake_for_a_member():
    # the local pivots reads no Result.pivots; run().rank reads Result.rank
    sources = {
        "a": (
            "class Result:\n"
            "    rank: int\n"
            "    pivots: tuple\n"
            "def run():\n"
            "    pivots = []\n"
            "    return Result(len(pivots), pivots)\n"
        ),
        "b": "from a import run\nprint(run().rank)\n",
    }
    assert unread_members(sources, sources) == [("a", 3, "Result.pivots")]


def test_every_private_name_in_src_is_read():
    sources = _sources("src")
    assert len(sources) > 5
    assert unread_private_names(sources) == []


def test_every_public_name_in_src_is_read_outside_tests():
    src = _sources("src")
    readers = {**src, **_sources("scripts", "bench")}
    assert unread_names(src, readers, _is_public) == []


def test_every_class_member_in_src_is_read_outside_tests():
    src = _sources("src")
    readers = {**src, **_sources("scripts", "bench")}
    assert unread_members(src, readers) == []
