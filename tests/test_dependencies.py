"""The package runs on numpy and the standard library alone; scipy and
the rest are for the tests."""

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "lindfit")
ALLOWED = {"numpy", "lindfit"} | set(sys.stdlib_module_names)


def _imports(tree):
    """Top-level names of the absolute imports in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_numpy_and_stdlib():
    paths = [os.path.join(root, name) for root, _, names in os.walk(PACKAGE)
             for name in names if name.endswith(".py")]
    assert os.path.join(PACKAGE, "trainer.py") in paths
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        outside = sorted(set(_imports(tree)) - ALLOWED)
        assert not outside, f"{os.path.relpath(path, PACKAGE)} imports {outside}"
