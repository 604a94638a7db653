"""No code in src/limitlab exists for the tests alone: every function or
method it defines is named somewhere in src/limitlab, unless ALLOWED says
why not.  A method is named only by an attribute reference; a function by
a name, an attribute or an import, and a module-level function also by a
string constant (the adversary names that `getattr` reads).  A name read
in a function that binds it, as a local or a parameter, names only a
nested function.  Dunder methods are exempt, since Python calls them."""

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _locals(function):
    """The names a function binds: its parameters, and every name stored
    or defined in its body outside nested functions, comprehension
    targets included."""
    args = function.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a}
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _references(node, bound, referenced):
    """Add the names under node to `referenced`; a name that the innermost
    function around it binds (`bound`) is a local reference."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, FUNCTIONS):
            _references(child, _locals(child), referenced)
            continue
        if isinstance(child, ast.Name):
            referenced["local" if child.id in bound else "name"].add(child.id)
        elif isinstance(child, ast.Attribute):
            referenced["attribute"].add(child.attr)
        elif isinstance(child, ast.alias):
            referenced["import"].add(child.name)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            referenced["string"].add(child.value)
        _references(child, bound, referenced)


def defined_and_referenced(paths):
    """[(function name, kind, file:line defining it)], and {kind of
    reference: the set of names it makes}: names, local names, attributes,
    imported names and string constants."""
    defined = []
    referenced = {"name": set(), "local": set(), "attribute": set(),
                  "import": set(), "string": set()}
    for path in paths:
        tree = ast.parse(path.read_text())
        _definitions(tree, "module", path.name, defined)
        _references(tree, set(), referenced)
    return defined, referenced


def naming(kind, referenced):
    """The names that name a function of this kind."""
    if kind == "method":
        return referenced["attribute"]
    names = referenced["name"] | referenced["attribute"] | referenced["import"]
    if kind == "nested":
        return names | referenced["local"]
    return names | referenced["string"]


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


def test_a_local_or_a_parameter_names_no_function(tmp_path):
    """A module-level function read only where a local or a parameter of
    the same name is bound, here a comprehension target and a parameter,
    is unnamed; a nested function is named by the local its def binds."""
    path = tmp_path / "x.py"
    path.write_text(
        "def embeds():\n    pass\n"
        "def given():\n    pass\n"
        "def outer(given, others):\n"
        "    def inner():\n        pass\n"
        "    return any(embeds(1) for embeds in others), given(), inner\n"
    )
    defined, referenced = defined_and_referenced([path])
    named = {name for name, kind, _ in defined
             if name in naming(kind, referenced)}
    assert named == {"inner"}
