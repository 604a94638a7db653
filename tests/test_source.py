"""No code in src/limitlab exists for the tests alone: every function or
method it defines is named somewhere in src/limitlab, unless ALLOWED says
why not.  A method is named only by an attribute reference; a function by
a name, an attribute or an import, and a module-level function also by a
string constant (the adversary names that `getattr` reads).  Dunder
methods are exempt, since Python calls them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "limitlab"

#: the names no src/limitlab module refers to, each with why it stays
ALLOWED = {
    "has": "bench/tracer.py rebinds it by name",
    "tuples_of": "bench/tracer.py rebinds it by name",
    "strict_order_relation": "bench/tracer.py rebinds it by name",
    "tuple_set": "tests/_oracles.py uses it, and the oracles stay as they are",
    "from_tuples": "the tests' fragment constructor",
    "indices": "StreamBuilder.indices, the tests' stream observer",
}


def _definitions(node, kind, where, out):
    """Append (name, kind, file:line) for every function under node: kind
    is "module" at module level, "method" in a class body and "nested"
    inside a function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append((child.name, kind, "%s:%d" % (where, child.lineno)))
            _definitions(child, "nested", where, out)
        elif isinstance(child, ast.ClassDef):
            _definitions(child, "method", where, out)
        else:
            _definitions(child, kind, where, out)


def defined_and_referenced(paths):
    """[(function name, kind, file:line defining it)], and {kind of
    reference: the set of names it makes}: names, attributes, imported
    names and string constants."""
    defined = []
    referenced = {"name": set(), "attribute": set(), "import": set(),
                  "string": set()}
    for path in paths:
        tree = ast.parse(path.read_text())
        _definitions(tree, "module", path.name, defined)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced["name"].add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced["attribute"].add(node.attr)
            elif isinstance(node, ast.alias):
                referenced["import"].add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                referenced["string"].add(node.value)
    return defined, referenced


def naming(kind, referenced):
    """The names that name a function of this kind."""
    if kind == "method":
        return referenced["attribute"]
    names = referenced["name"] | referenced["attribute"] | referenced["import"]
    return names | referenced["string"] if kind == "module" else names


def test_every_function_is_named_in_src():
    defined, referenced = defined_and_referenced(sorted(SRC.glob("*.py")))
    unnamed = sorted(
        "%s (%s)" % (name, where) for name, kind, where in defined
        if name not in naming(kind, referenced) and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unnamed, "only tests or bench reach: " + ", ".join(unnamed)
    # an allowance that src/limitlab no longer needs goes too
    stale = [
        n for n in ALLOWED
        if all(name != n or n in naming(kind, referenced)
               for name, kind, _ in defined)
    ]
    assert not stale, stale


def test_a_string_names_no_method(tmp_path):
    """A method whose name is in src only as a string constant is still
    unnamed; a module-level function is named by one."""
    path = tmp_path / "x.py"
    path.write_text(
        "def adversary():\n    pass\n"
        "class Prefix:\n    def column(self):\n        pass\n"
        "NAMES = ('adversary', 'column')\n"
    )
    defined, referenced = defined_and_referenced([path])
    named = {name for name, kind, _ in defined
             if name in naming(kind, referenced)}
    assert named == {"adversary"}
