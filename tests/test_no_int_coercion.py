"""No function in src/sloccrank coerces a caller's value with int().

An integer input is an int, checked by the function that reads it; int()
would truncate 2.9 to 2, read True as 1 and "2" as 2, and so classify a
system other than the one asked for. The check flags int(x) where x is one
of the function's own parameters, or an element the function iterates from
one, reached through attributes, subscripts and method calls
(``int(d) for d in dims``, ``int(r) for r, c in self.pairs``,
``int(p) for p in text.split(",")``).

Text parsing is where int() belongs: the CLI reads its arguments after
matching them against an ASCII grammar, and scalars and states._parse_part
read rational text the same way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sloccrank"

# (module, function), with None for every function of the module
ALLOWED = {("cli.py", None), ("scalars.py", None), ("states.py", "_parse_part")}


def _root(node):
    """The name an expression is read from: dims, self.pairs[0] and
    text.split(",") all come from their first name."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call, ast.Starred)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _functions(tree, prefix=""):
    """(qualified name, node) of every function, methods and nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def _coercions(function):
    """Lines of the int() calls on a parameter of function or an element
    iterated from one."""
    a = function.args
    from_caller = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    from_caller |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
    loops = [n for n in ast.walk(function) if isinstance(n, (ast.For, ast.comprehension))]
    grown = True
    while grown:  # elements of elements count too
        grown = False
        for loop in loops:
            if _root(loop.iter) in from_caller:
                names = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
                grown |= not names <= from_caller
                from_caller |= names
    return sorted(
        n.lineno for n in ast.walk(function)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "int"
        and n.args and _root(n.args[0]) in from_caller
    )


def int_coercions(sources):
    """(module, function, line) of each int() coercion of a caller's value
    outside ALLOWED; sources maps a module name to its source text."""
    found = set()
    for module, source in sources.items():
        for name, function in _functions(ast.parse(source)):
            if {(module, None), (module, name)} & ALLOWED:
                continue
            found.update((module, name, line) for line in _coercions(function))
    return sorted(found)


def test_detector_sees_parameters_and_their_elements():
    source = (
        "def check(dims):\n"
        "    return tuple(int(d) for d in dims)\n"          # 2: element
        "class P:\n"
        "    def post(self):\n"
        "        return [(int(r), c) for r, c in self.ts]\n"  # 5: element of self
        "def split(text):\n"
        "    return [int(x) for x in text.split(',')]\n"  # 7: element of a call
        "def nested(rows):\n"
        "    for row in rows:\n"
        "        for x in row:\n"
        "            int(x)\n"                                # 11: element of element
        "def direct(l, *rest):\n"
        "    return int(l), int(rest[0])\n"                  # 13: parameters
        "def fine(values, text):\n"
        "    n = int(np.sum(values))\n"                      # derived, not a parameter
        "    t = str(text).strip()\n"
        "    return n, int(t), [int(m) for m in PATTERN.findall(t)], int(len(values))\n"
    )
    assert int_coercions({"m.py": source}) == [
        ("m.py", "P.post", 5), ("m.py", "check", 2), ("m.py", "direct", 13),
        ("m.py", "nested", 11), ("m.py", "split", 7),
    ]
    assert int_coercions({"cli.py": source}) == []


def test_no_function_in_src_coerces_a_callers_value():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    assert int_coercions({p.name: p.read_text() for p in paths}) == []
