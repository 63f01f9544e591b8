"""Imports inside the package run one way: down the layer order below.

The benchmark under ``bench/`` reaches into the package by name; those
names are checked here too, reading its sources without importing them,
and so are the module names the two suites share one process with.
"""

import ast
import importlib
import re
from pathlib import Path

import gnflow

#: Each module may import only modules listed before it.
LAYERS = ("hilbert", "schedule", "problem", "flow", "integrator", "theory", "gallery",
          "run", "cli")

PACKAGE_DIR = Path(gnflow.__file__).parent
REPO_DIR = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_DIR / "bench"


def package_imports(source: str) -> set:
    """The gnflow modules a source imports, at any depth, function-local ones included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "gnflow" or alias.name.startswith("gnflow."):
                    found.add(alias.name.partition(".")[2] or "gnflow")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "gnflow" and not module.startswith("gnflow."):
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found


def test_parser_sees_every_import_form():
    source = (
        "import numpy\n"
        "from . import hilbert, theory\n"
        "from .flow import SolverState\n"
        "def f():\n"
        "    from .cli import main\n"
        "    import gnflow.run\n"
        "    from gnflow import gallery\n"
        "    from gnflow.integrator import step\n"
    )
    assert package_imports(source) == {"hilbert", "theory", "flow", "cli", "run", "gallery",
                                       "integrator"}


def layered_modules() -> dict:
    return {p.stem: p for p in PACKAGE_DIR.glob("*.py") if p.stem not in ("__init__", "__main__")}


def test_every_module_is_layered():
    assert set(layered_modules()) == set(LAYERS)


def test_readme_layout_table_lists_the_layers():
    """The README's Layout table names each module once, in layer order."""
    rows = re.findall(r"^\| `gnflow\.(\w+)` \|", (REPO_DIR / "README.md").read_text(), re.M)
    assert tuple(rows) == LAYERS


def test_imports_point_down_the_layers():
    for name, path in sorted(layered_modules().items()):
        if name in LAYERS:  # an unlisted module fails the test above
            upward = package_imports(path.read_text()) - set(LAYERS[:LAYERS.index(name)])
            assert not upward, f"{name} imports {sorted(upward)}, which are not below it"


def private_names_from_other_modules(source: str) -> set:
    """The private names a source takes from another gnflow module, by import
    (``from .x import _y``) or by attribute (``x._y``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("gnflow")):
            found.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in LAYERS and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            found.add(f"{node.value.id}.{node.attr}")
    return found


def test_private_parser_sees_both_forms():
    source = ("from .integrator import _advance, step\n"
              "from . import hilbert\n"
              "x = hilbert._POTRF, hilbert.__name__, hilbert.op_norm\n")
    assert private_names_from_other_modules(source) == {"_advance", "hilbert._POTRF"}


def test_no_private_name_crosses_modules():
    for name, path in sorted(layered_modules().items()):
        private = private_names_from_other_modules(path.read_text())
        assert not private, f"{name} uses private names of other modules: {sorted(private)}"


def module_constant(path: Path, name: str):
    """The literal a module assigns to ``name``, read without importing the module."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_benchmark_traced_names_resolve():
    tracing = BENCH_DIR / "tracing.py"
    for module, function in module_constant(tracing, "SPAN_FUNCTIONS"):
        found = getattr(importlib.import_module(f"gnflow.{module}"), function, None)
        assert callable(found), f"gnflow.{module}.{function}"
    for module, cls, method in module_constant(tracing, "COUNTED_METHODS"):
        owner = getattr(importlib.import_module(f"gnflow.{module}"), cls, None)
        assert owner is not None and method in vars(owner), f"gnflow.{module}.{cls}.{method}"


def test_benchmark_package_names_exist():
    used = set()
    for path in BENCH_DIR.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "gnflow"):
                used.add(node.attr)
    assert "compliant_instance" in used  # the workloads reach the package this way
    missing = sorted(name for name in used if not hasattr(gnflow, name))
    assert not missing, f"bench/ uses gnflow names that do not exist: {missing}"


def test_no_test_module_shadows_a_benchmark_module():
    # one pytest process imports both suites' modules by bare name, so a
    # shared name would hand one suite the other's module
    tests = {path.stem for path in Path(__file__).parent.glob("*.py")}
    bench = {path.stem for path in BENCH_DIR.rglob("*.py")}
    assert not tests & bench, f"tests/ and bench/ share module names: {sorted(tests & bench)}"
