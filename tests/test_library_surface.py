"""The library holds what its callers reach.

A public top-level function is reached when its name appears elsewhere in
``src/truncmod`` as a bare name or in an import; a public method of a
public class is reached when its name appears as an attribute (``.name``)
or as a class-level alias (``__mul__ = times``).  So a method is not
reached by a function of its name, nor a function by a method's.  A name
reached only from outside the package must be on the allow-list below with
the reason it stays; a new one either gets a caller or goes, with its
tests.  A method whose name another class's method shares (``Poly.evaluate``
and ``HilbertPolynomial.evaluate``) counts as reached when either is."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "truncmod"

ALLOWED = {
    "arith.PolyRing.from_terms": "the tests' input builder",
    "hilbert.HilbertSeries.dimension": "how tests read a series",
    "hilbert.HilbertSeries.dimensions": "how tests read a series",
}


def unreached_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.name, node.asname))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                        attributes.add(item.value.id)
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if node.name not in names:
                    found.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and item.name not in attributes):
                        found.add(f"{module}.{node.name}.{item.name}")
    return found


def test_every_public_function_has_a_caller_or_a_reason():
    assert unreached_names() == set(ALLOWED)
