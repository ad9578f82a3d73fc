"""The package runs on numpy and the standard library alone; scipy and
the rest are for the tests.  It keeps to the numpy it declares
(numpy >= 1.24 in pyproject.toml)."""

import ast
import os
import subprocess
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


def _module_imports(tree):
    """Names the module-level imports of a module bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0]
                        for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _private_definitions(tree):
    """Private names a module binds at its top level, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _reads(tree):
    """Names a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _outside_uses(tree):
    """Names another module may use a module's names by: attributes read
    and names imported from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_package_has_no_unused_imports_or_private_names():
    """In each module, every module-level import is read in that module,
    and every private top-level name is read somewhere in the package."""
    trees = dict(_trees())
    in_package = set()
    for tree in trees.values():
        in_package |= _reads(tree) | set(_outside_uses(tree))
    for name, tree in trees.items():
        unused = sorted(set(_module_imports(tree)) - _reads(tree))
        assert not unused, f"{name} imports {unused} and never uses them"
        dead = sorted(set(_private_definitions(tree)) - in_package)
        assert not dead, f"{name} defines {dead}, which nothing reads"


def _file_writes(tree):
    """Calls that write a file: replacing, json.dump, and open with a mode
    that writes (or one not given as a literal)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func.split(".")[-1] == "replacing" or func in ("json.dump", "dump"):
            yield f"{func} at line {node.lineno}"
        elif func == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not set(str(mode.value)) & set("wax+")):
                yield f"open(..., {ast.unparse(mode)}) at line {node.lineno}"


def test_only_files_writes_files():
    """lindfit.files is the one writer, so every output file is replaced
    whole, with one number format and one JSON layout."""
    for name, tree in _trees():
        if name != "files.py":
            writes = list(_file_writes(tree))
            assert not writes, f"{name} writes files itself: {writes}"


def test_importing_the_package_loads_none_of_its_modules():
    """`import lindfit` binds only the version; each user imports the
    modules it needs by name."""
    code = ("import sys, lindfit; print(lindfit.__file__); "
            "print(sorted(m for m in sys.modules if m.startswith('lindfit.')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == [os.path.join(PACKAGE, "__init__.py"), "[]"]


def test_importing_the_cli_loads_no_process_pool():
    """Only gen-data and scan start a pool, so the other commands do not
    pay at start-up for importing concurrent.futures and multiprocessing."""
    code = ("import sys, lindfit.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('concurrent', 'multiprocessing'))))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
