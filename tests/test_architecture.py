"""Architecture rules of the package, read off its syntax trees.

The import graph of ``src/truncmod`` is built from every ``import`` and
``from .. import`` statement, at any depth of a module, relative or
spelled ``truncmod.``; a guarded module may be imported only by the
modules listed for it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "truncmod"

# A guarded module and the package modules that may import it.
IMPORTERS = {
    # fpmod is the one door to groebner for R[n]-module data; hilbert counts
    # base-ring modules
    "groebner": {"fpmod", "hilbert"},
}


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules that a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("truncmod."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "truncmod" and not module.startswith("truncmod."):
                    continue
                module = module[len("truncmod."):]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def import_graph() -> dict[str, set[str]]:
    return {path.stem: package_imports(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))}


def test_the_reader_sees_every_spelling_of_an_import():
    spellings = ["from .groebner import SpanGB", "from . import groebner",
                 "from truncmod.groebner import SpanGB", "from truncmod import groebner",
                 "import truncmod.groebner", "def f():\n    from .groebner import SpanGB"]
    for text in spellings:
        assert package_imports(ast.parse(text)) == {"groebner"}, text
    assert package_imports(ast.parse("import groebner\nfrom os import path")) == set()


def test_a_guarded_module_is_imported_only_where_allowed():
    graph = import_graph()
    for guarded, allowed in IMPORTERS.items():
        importers = {module for module, imports in graph.items()
                     if guarded in imports and module != guarded}
        assert importers <= allowed, f"{sorted(importers - allowed)} import {guarded}"
