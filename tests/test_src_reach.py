"""Every module-level name of the package is used by the program itself.

A function, class or constant in src/tilecohom must be referenced from
src/tilecohom, demos/ or bench/ somewhere other than its own definition;
code that only the tests reach belongs in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tilecohom"
PROGRAM = [PACKAGE, ROOT / "demos", ROOT / "bench"]

#: Module attributes that Python and packaging tools read by name.
DUNDERS = {"__all__", "__version__"}


def definitions(tree):
    """(name, node) for each module-level function, class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def references(tree):
    """How often each name is loaded or read as an attribute in tree."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def test_every_package_name_is_used_by_the_program():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for folder in PROGRAM for path in sorted(folder.glob("*.py"))]
    total = sum((references(tree) for tree in trees), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in definitions(ast.parse(path.read_text(encoding="utf-8"))):
            # references inside the definition itself (recursion, a class
            # naming itself) do not count
            if name not in DUNDERS and total[name] == references(node)[name]:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, "reached only by tests: " + ", ".join(unused)
