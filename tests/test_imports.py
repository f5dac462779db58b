"""sscope's only runtime dependency is numpy: every import under src/sscope,
at any depth of a module, names the standard library, numpy or sscope."""

import ast
import sys
from pathlib import Path

import sscope

ALLOWED = {"numpy", "sscope"}
SRC = Path(sscope.__file__).parent


def imported_roots(tree):
    """(line, top-level module name) of each absolute import in tree;
    relative imports stay inside the package and are skipped."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_stdlib_numpy_and_sscope():
    files = sorted(SRC.rglob("*.py"))
    assert SRC / "netcore.py" in files
    bad = [f"{path.relative_to(SRC)}:{line}: {root}"
           for path in files
           for line, root in imported_roots(ast.parse(path.read_text(), str(path)))
           if root not in ALLOWED and root not in sys.stdlib_module_names]
    assert not bad, "imports outside the stdlib, numpy and sscope:\n" + "\n".join(bad)


def test_the_walk_sees_nested_and_from_imports():
    tree = ast.parse("import os.path\nfrom numpy import linalg\nfrom . import rng\n"
                     "def f():\n    import scipy.stats\n")
    assert sorted(root for _, root in imported_roots(tree)) == ["numpy", "os", "scipy"]
