"""The library holds what its callers reach.

A public top-level function, or a public method of a public class, whose
name appears nowhere else in ``src/truncmod`` (as a name, an attribute or
an import alias) is reached only from outside the package.  Each such name
must be on the allow-list below with the reason it stays; a new one either
gets a caller or goes, with its tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "truncmod"

ALLOWED = {
    "arith.PolyRing.from_terms": "the tests' input builder",
    "arith.elim_block": "perfbench's _span_key reads block_split",
    "hilbert.HilbertSeries.dimension": "how tests read a series",
    "hilbert.HilbertSeries.dimensions": "how tests read a series",
}


def unreached_names():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
    found = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if node.name not in used:
                    found.add(f"{module}.{node.name}")
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and item.name not in used):
                        found.add(f"{module}.{node.name}.{item.name}")
    return found


def test_every_public_function_has_a_caller_or_a_reason():
    assert unreached_names() == set(ALLOWED)
