"""Every name a package module imports is read somewhere in that module."""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "polarity_mc")
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")

# Imported only to be swapped by these module-bound names in bench/spans.py
# (pinned by tests/test_bench_spans.py).
SWAPPED = {"simrel.py": {"box_op", "dia_op", "concept_lattice"}}


def unused_imports(source: str):
    """Names bound by import statements (``__future__`` aside) that no
    ``Name`` node of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_detector_flags_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os.path, json as js\n"
              "from typing import List, Tuple\n"
              "def f(x: List[int]):\n    return os.sep\n")
    assert unused_imports(source) == ["Tuple", "js"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        unused = set(unused_imports(fh.read())) - SWAPPED.get(module, set())
    assert not unused, f"{module} imports names it never reads: {sorted(unused)}"
