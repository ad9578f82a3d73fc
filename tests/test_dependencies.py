"""The package runs on numpy and the standard library alone; scipy and
the rest are for the tests.  It keeps to the numpy it declares
(numpy >= 1.24 in pyproject.toml)."""

import ast
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "lindfit")
ALLOWED = {"numpy", "lindfit"} | set(sys.stdlib_module_names)
# numpy and numpy.linalg functions that first appeared in NumPy 2.0 or 2.1
NUMPY_2_ONLY = {
    "np": {"acos", "acosh", "asin", "asinh", "astype", "atan", "atan2", "atanh",
           "bitwise_invert", "bitwise_left_shift", "bitwise_right_shift", "concat",
           "cumulative_prod", "cumulative_sum", "isdtype", "matrix_transpose",
           "permute_dims", "pow", "trapezoid", "unique_all", "unique_counts",
           "unique_inverse", "unique_values", "unstack", "vecdot"},
    "np.linalg": {"diagonal", "matrix_norm", "matrix_transpose", "outer", "svdvals",
                  "trace", "vecdot", "vector_norm"},
}


def _imports(tree):
    """Top-level names of the absolute imports in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def _trees():
    paths = [os.path.join(root, name) for root, _, names in os.walk(PACKAGE)
             for name in names if name.endswith(".py")]
    assert os.path.join(PACKAGE, "trainer.py") in paths
    for path in paths:
        with open(path) as fh:
            yield os.path.relpath(path, PACKAGE), ast.parse(fh.read(), filename=path)


def test_package_imports_only_numpy_and_stdlib():
    for name, tree in _trees():
        outside = sorted(set(_imports(tree)) - ALLOWED)
        assert not outside, f"{name} imports {outside}"


def test_package_uses_no_numpy_2_only_function():
    """Attribute reads such as np.vecdot would fail on NumPy 1.x."""
    for name, tree in _trees():
        used = {(ast.unparse(node.value), node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)}
        newer = sorted(f"{owner}.{attr}" for owner, attr in used
                       if attr in NUMPY_2_ONLY.get(owner, ()))
        assert not newer, f"{name} uses {newer}, new in NumPy 2"
