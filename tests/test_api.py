"""Every public name and every def of the library has a caller outside
the tests.

A name in ``randflight.__all__``, and each module-level function and
each method of a module-level class in ``src/randflight`` (dunders
exempt), must be read somewhere in the library's modules or in the
benchmark (``perfbench/``), outside the def or class that defines it.
A string in the benchmark counts as a read, as its tracer wraps
functions by name; imports and ``__all__`` strings do not.
"""

import ast
from pathlib import Path

import randflight

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "randflight").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


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


def _strings(tree):
    """The string constants of ``tree`` outside its ``__all__``."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            skip.update(id(c) for c in ast.walk(node.value))
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in skip}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used():
    """Every name the library (but ``__init__.py``, which only
    re-exports) and the benchmark read, and the benchmark's strings."""
    used = set()
    for path in LIBRARY + BENCHMARK:
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        used.update(name for name, owners in _references(tree)
                    if name not in owners)
        if path in BENCHMARK:
            used |= _strings(tree)
    return used


def _defs(tree):
    """The module-level functions of ``tree`` and the methods of its
    module-level classes, as (qualified name, name)."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = sorted(set(randflight.__all__) - _used())
    assert not unused, f"public names with no caller outside tests: {unused}"


def test_every_def_has_a_caller_outside_the_tests():
    used = _used()
    unused = sorted(f"{path.stem}.{qual}" for path in LIBRARY
                    for qual, name in _defs(_parse(path))
                    if not (name.startswith("__") and name.endswith("__"))
                    and name not in used)
    assert not unused, f"defs with no caller outside tests: {unused}"
