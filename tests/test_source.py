"""No code in src/limitlab exists for the tests alone: every function or
method it defines is named somewhere in src/limitlab, as a name, an
attribute, an import or a string constant, unless ALLOWED says why not.
Dunder methods are exempt, since Python calls them."""

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


def defined_and_referenced(paths):
    """{function name: first file:line defining it}, and the set of every
    name, attribute, imported name and string constant."""
    defined, referenced = {}, set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(
                    node.name, "%s:%d" % (path.name, node.lineno)
                )
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                referenced.add(node.value)
    return defined, referenced


def test_every_function_is_named_in_src():
    defined, referenced = defined_and_referenced(sorted(SRC.glob("*.py")))
    unnamed = sorted(
        "%s (%s)" % (name, where) for name, where in defined.items()
        if name not in referenced and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert not unnamed, "only tests or bench reach: " + ", ".join(unnamed)
    # an allowance that src/limitlab no longer needs goes too
    stale = [n for n in ALLOWED if n in referenced or n not in defined]
    assert not stale, stale
