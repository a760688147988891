"""Every module-level function and class in the package, and every method
of its classes, is used by the package itself or named by the benchmark; a
second implementation that nothing runs fails here instead of lingering."""

import ast
import functools
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(__file__))
SRC = os.path.join(ROOT, "src", "hetcount")
BENCH = os.path.join(ROOT, "bench")

# Definitions kept although the package does not call them.
ALLOWED = {
    "resolve_block_2ss": "the per-block reference the 2SS decoder tables "
                         "are tested against",
    "case2_condition_lhs": "paper analysis: the case-2 selection condition",
    "expected_energy_hsrc1": "paper analysis: HSRC-1's expected energy",
}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def _bench_text():
    text = []
    for name in sorted(os.listdir(BENCH)):
        if name.endswith(".py"):
            with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
                text.append(fh.read())
    return "\n".join(text)


def _names(node):
    """Occurrences of each name loaded and attribute read in ``node``."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _methods(node):
    """Non-dunder methods of a class statement."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [m for m in node.body if isinstance(m, ast.FunctionDef)
            and not (m.name.startswith("__") and m.name.endswith("__"))]


@functools.cache
def spare_definitions():
    """(module, name) of every module-level def or class that no other
    top-level statement of the package uses, and (module, "Class.method")
    of every method that the package reads nowhere outside the method
    itself; either only when the benchmark does not name it."""
    statements = [(module, node, _names(node))
                  for module, tree in _modules() for node in tree.body]
    reads = sum((names for _m, _node, names in statements), Counter())
    bench = _bench_text()

    def named(name):
        return re.search(rf"\b{re.escape(name)}\b", bench)

    spare = []
    for module, node, _own in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        used = any(node.name in names
                   for _m, other, names in statements if other is not node)
        if not used and not named(node.name):
            spare.append((module, node.name))
        for method in _methods(node):
            if (reads[method.name] == _names(method)[method.name]
                    and not named(method.name)):
                spare.append((module, f"{node.name}.{method.name}"))
    return spare


def test_no_spare_definitions():
    spare = [(m, name) for m, name in spare_definitions()
             if name not in ALLOWED]
    assert spare == []


def test_allow_list_is_needed():
    # An entry the package starts using again leaves the list.
    assert sorted(ALLOWED) == sorted(name for _m, name in spare_definitions())
