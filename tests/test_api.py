"""Every public name has a caller outside the tests.

A name in ``randflight.__all__`` must be read somewhere in the library's
modules or in the benchmark (``perfbench/``), outside the def or class
that defines it.  Imports and ``__all__`` strings do not count.
"""

import ast
from pathlib import Path

import randflight

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(set((ROOT / "src" / "randflight").glob("*.py"))
                 - {ROOT / "src" / "randflight" / "__init__.py"}) \
    + sorted((ROOT / "perfbench").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# public names that only the tests call yet, each until its engine caller
TESTS_ONLY = {
    "conditional_layer": "the conditional layer is to become the per-law "
                         "scale-free table set",
    "one_turn_profile": "conditional Monte Carlo's one-turn kernel is to "
                        "be its first engine caller",
}


def _references(node, owners=()):
    """(name, names of the enclosing defs and classes) for every Name
    and Attribute under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            yield child.id, owners
        elif isinstance(child, ast.Attribute):
            yield child.attr, owners
        inner = owners + (child.name,) if isinstance(child, DEFS) else owners
        yield from _references(child, inner)


def test_every_public_name_has_a_caller_outside_the_tests():
    used = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used.update(name for name, owners in _references(tree)
                    if name not in owners)
    unused = sorted(set(randflight.__all__) - used - set(TESTS_ONLY))
    assert not unused, f"public names with no caller outside tests: {unused}"
    assert not set(TESTS_ONLY) & used, "a name in TESTS_ONLY has a caller"
