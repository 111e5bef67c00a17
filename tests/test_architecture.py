"""Architecture rules of the package, read off its syntax trees.

The import graph of ``src/truncmod`` is built from every ``import`` and
``from .. import`` statement, at any depth of a module, relative or
spelled ``truncmod.``; a guarded module may be imported only by the
modules listed for it.  A guarded name may be used only by the modules
that own it, where a use is a name, an attribute, an import or its alias,
or a ``def`` or ``class`` name; comments and strings are not read.  A
product in R[n] truncates as it is formed, so no ``truncate`` call wraps a
product and no product, power, substitution or parse takes a bound of its
own.  Lifts and composites are test oracles: ``fpmod`` and ``groebner``
define no ``lift`` or ``compose``, and ``is_balanced`` presents no layer,
builds no map and reads no annihilator chain."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "truncmod"

# A guarded module and the package modules that may import it.
IMPORTERS = {
    # fpmod is the one door to groebner for R[n]-module data; hilbert counts
    # base-ring modules
    "groebner": {"fpmod", "hilbert"},
}

# A guarded name and the package modules that may use it.
OWNERS = {
    # one Groebner entry point: outside groebner every basis is built
    # through SpanGB, every reduction runs through its indexes, and no
    # packed term is read
    **dict.fromkeys(("buchberger", "vec_reduce", "_LeadIndex", "_interreduce", "_Codec",
                     "ModuleOrder", "reduced_groebner"), {"groebner"}),
    # text enters through the CLI: the library takes typed values, and only
    # cli parses job text, with arith's grammar and TruncRing.parse
    "parse": {"cli", "arith", "multiring"},
    "coerce_base": set(),
    "make_chart": set(),
    # the double dual is a test oracle: torsion reads its kernel off
    # evaluation at the dual's generators, and the map into the double dual
    # lives in tests/module_oracles.py
    "natural_map": set(),
    "dual_hom": set(),
    "HomModule": set(),
    # fpmod owns the R[n] encoding: PresMod.effective_relations alone makes
    # the relations t^n*e_i, and only fpmod and groebner read the raw span
    # vectors that carry them
    "t_power_relations": set(),
    "effective_relations": {"fpmod"},
    "vecs": {"fpmod", "groebner"},
    # every variable weighs 1 in a series; only fpmod weighs t, by its Grading
    **dict.fromkeys(("weights", "weighted_degree"), {"fpmod"}),
    # an element of R[n] has no term t^n: multiring truncates text, t and
    # the images of an AutMap; fpmod drops a kernel's terms of t-degree n
    # before its vectors become columns, and nothing downstream truncates
    "truncate": {"multiring"},
    # lifts and composites are test oracles: the layer maps between both
    # filtrations, their lifts and their composites live in
    # tests/module_oracles.py and tests/groebner_oracle.py, and no library
    # code builds a map (an extension checks the injectivity of its included
    # block, check_inclusion, and the rest of exactness holds by
    # construction)
    **dict.fromkeys(("_annihilator_side", "ModMap", "check_exact", "ExtensionResult",
                     "zero_column"), set()),
    # the canonical filtrations meet in closed form, t^i M ∩ ann(t^k) =
    # t^i·ann(t^(i+k)); the intersection through a kernel is the oracle's
    "intersection_gens": set(),
}

# A module and the names no function or class of it may be defined as:
# multiring.compose, the automorphism law, is the one composite.
NOT_DEFINED = {module: {"lift", "compose"} for module in ("fpmod", "groebner")}

# A function of fpmod and the names its body may not use: balance is the one
# inclusion ann(t^(n-1)) ⊆ tM plus the Hilbert series of a graded module, so
# it presents no layer, builds no map and no annihilator chain.
NOT_USED_IN = {"is_balanced": {"subquotient", "ModMap", "second_canonical_filtration"}}


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


def identifiers(tree: ast.Module) -> set[str]:
    """Every identifier that a module uses or defines."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
            found.add(node.asname)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found - {None}


def defined_names(tree: ast.Module) -> set[str]:
    """The names of the functions and classes a module defines, at any depth."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def body_identifiers(tree: ast.Module, function: str) -> set[str]:
    """The identifiers that the top-level function ``function`` of a module
    uses or defines."""
    return set().union(*(identifiers(node) for node in tree.body
                         if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and node.name == function))


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


def test_the_reader_sees_every_use_of_a_name():
    spellings = ["from .groebner import vec_reduce", "import truncmod.groebner.vec_reduce",
                 "from .arith import x as vec_reduce", "groebner.vec_reduce(v)",
                 "f = vec_reduce", "def vec_reduce():\n    pass",
                 "class vec_reduce:\n    pass", "async def vec_reduce():\n    pass"]
    for text in spellings:
        assert "vec_reduce" in identifiers(ast.parse(text)), text
    assert "vec_reduce" not in identifiers(ast.parse("# vec_reduce\nx = 'vec_reduce'"))


def test_a_guarded_name_is_used_only_by_its_owners():
    misplaced = [f"{path.stem} uses {name}"
                 for path in sorted(SRC.glob("*.py"))
                 for name in sorted(identifiers(ast.parse(path.read_text())) & OWNERS.keys())
                 if path.stem not in OWNERS[name]]
    assert not misplaced, misplaced


def own_bounds(tree: ast.Module) -> list[str]:
    """The ``truncate`` calls of a module that wrap a product or a power,
    and its product functions that take a ``below`` bound of their own."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "truncate"
                and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, (ast.Mult, ast.Pow))
                        for arg in node.args for sub in ast.walk(arg))):
            found.append(f"line {node.lineno}: truncate of a product")
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in ("times", "power", "substitute", "parse")
                and "below" in [a.arg for a in
                                node.args.posonlyargs + node.args.args + node.args.kwonlyargs]):
            found.append(f"line {node.lineno}: {node.name} takes a below parameter")
    return found


def test_the_reader_sees_every_own_bound():
    spellings = ["ring.truncate(a * b)", "ring.truncate(p ** 2)", "ring.truncate(f(a) + b * c)",
                 "def times(self, other, below=None):\n    pass",
                 "def power(self, k, *, below):\n    pass"]
    for text in spellings:
        assert own_bounds(ast.parse(text)), text
    assert not own_bounds(ast.parse("ring.truncate(a + b)\ndef times(self, other):\n    pass"))


def test_every_product_in_R_n_truncates_as_it_is_formed():
    found = [f"{path.stem} {where}" for path in sorted(SRC.glob("*.py"))
             for where in own_bounds(ast.parse(path.read_text()))]
    assert not found, found


def test_the_reader_sees_every_definition_and_every_use_in_a_body():
    for text in ["def lift(v):\n    pass", "class Span:\n    def lift(self):\n        pass",
                 "async def lift():\n    pass", "def f():\n    class lift:\n        pass"]:
        assert "lift" in defined_names(ast.parse(text)), text
    assert "lift" not in defined_names(ast.parse("lift = 1\nspan.lift(v)"))
    body = ast.parse("def is_balanced(M):\n    return [ModMap(M), fpmod.subquotient]\n"
                     "def other():\n    second_canonical_filtration(M)")
    assert body_identifiers(body, "is_balanced") >= {"ModMap", "subquotient"}
    assert "second_canonical_filtration" not in body_identifiers(body, "is_balanced")


def test_no_lift_or_composite_is_defined_in_the_module_layer():
    found = [f"{module} defines {name}" for module, names in NOT_DEFINED.items()
             for name in sorted(defined_names(ast.parse((SRC / f"{module}.py").read_text()))
                                & names)]
    assert not found, found


def test_balance_presents_no_layer_and_builds_no_map_or_annihilator_chain():
    tree = ast.parse((SRC / "fpmod.py").read_text())
    assert body_identifiers(tree, "is_balanced"), "fpmod has no is_balanced"
    found = [f"{function} uses {name}" for function, names in NOT_USED_IN.items()
             for name in sorted(body_identifiers(tree, function) & names)]
    assert not found, found
