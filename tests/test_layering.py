"""Imports of grasscat modules sit at module top, in layer order, every
name the package defines is used, and used by the package itself unless it
is on an allow-list, the unchecked constructors stay in ``dvr``, and
starting a command loads no code-generating or resource-loading module.

One kind of function-local import is allowed: the CLI's per-subcommand
imports, which keep ``import grasscat.cli`` from loading the computational
layers.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grasscat"
TESTS = Path(__file__).resolve().parent


def _allowed(module: str, function: str) -> bool:
    return module == "cli" and (function.startswith("cmd_") or function == "_module_for")


def _grasscat_targets(node) -> list[str]:
    """grasscat modules named by an import statement."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            if node.module:
                return [node.module.split(".")[0]]
            return [alias.name for alias in node.names]
        if node.module and node.module.split(".")[0] == "grasscat":
            parts = node.module.split(".")
            return [parts[1]] if len(parts) > 1 else [a.name for a in node.names]
        return []
    return [alias.name.split(".")[1] for alias in node.names
            if alias.name.startswith("grasscat.")]


def local_imports(package: Path = PACKAGE) -> list[tuple[str, str, str]]:
    """(module, function, imported grasscat module) for each function-local import."""
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found += [(path.stem, fn.name, target)
                              for target in _grasscat_targets(node)]
    return found


def test_no_function_local_grasscat_imports_outside_the_allow_list():
    stray = [f"{m}.{fn} imports {t}" for m, fn, t in local_imports()
             if not _allowed(m, fn)]
    assert stray == []


def test_detects_a_local_import(tmp_path):
    (tmp_path / "homology.py").write_text(
        "import json\n"
        "def f():\n    from .modules import rep_a_vector\n    return rep_a_vector\n"
        "def g():\n    import grasscat.rims\n    from itertools import chain\n")
    assert local_imports(tmp_path) == [("homology", "f", "modules"),
                                       ("homology", "g", "rims")]


def _used_names(tree) -> set[str]:
    """Identifiers a module reads: names, attributes and imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
    return used


def unreferenced_definitions(package: Path = PACKAGE, tests: Optional[Path] = TESTS
                             ) -> list[str]:
    """module.name of each non-dunder function, method or class of the package
    whose name appears nowhere in the package or the tests (with ``tests``
    None: in the package) except where it is defined."""
    defined, used = [], set()
    paths = sorted(package.glob("*.py")) + (sorted(tests.glob("*.py")) if tests else [])
    for path in paths:
        tree = ast.parse(path.read_text())
        used |= _used_names(tree)
        if path.parent == package:
            defined += [(path.stem, node.name) for node in ast.walk(tree)
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                             ast.ClassDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))]
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_every_definition_is_used():
    assert unreferenced_definitions() == []


# definitions that only the tests reach, each kept for a reason; anything
# else the package defines must be reached from the package itself
TEST_ONLY = {
    "dvr.rational_rank": "oracle for the rank-based checks of Smith and tops",
    "dvr.hstack": "oracle for DVRMatrix.from_columns",
    "rims.two_peak_syzygy_rim": "closed-form syzygy rim the conjecture tests check",
    "census.negative_control_48": "the paper's negative-control check",
    "homology.ext1_rims": "public API: Ext^1 between two rims",
    "homology.generic_extension": "public API: one extension middle of two rims",
}


def test_no_definition_is_reached_only_from_tests():
    assert set(unreferenced_definitions(tests=None)) == set(TEST_ONLY)


def test_detects_a_test_only_definition(tmp_path):
    package = tmp_path / "grasscat"
    package.mkdir()
    (package / "modules.py").write_text(
        "def build(r):\n    return r\n"
        "def build_profile(p):\n    return build(p)\n")
    assert unreferenced_definitions(package, tests=None) == ["modules.build_profile"]


def test_detects_an_unused_definition(tmp_path):
    package, tests = tmp_path / "grasscat", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "dvr.py").write_text(
        "class ValPoly:\n"
        "    def __add__(self, other):\n        return self.shift_up(1)\n"
        "    def shift_up(self, a):\n        return self\n"
        "    def retruncate(self, trunc):\n        return self\n"
        "def helper():\n    return ValPoly()\n")
    (tests / "test_dvr.py").write_text("from grasscat.dvr import helper\n")
    assert unreferenced_definitions(package, tests) == ["dvr.retruncate"]


# constructors that wrap data without validating it; only dvr.py, which
# builds that data itself, can vouch for the invariants they skip
UNCHECKED_CONSTRUCTORS = {"_clean", "_wrap"}  # ValPoly._clean, DVRMatrix._wrap


def unchecked_constructor_uses(package: Path = PACKAGE, tests: Path = TESTS) -> list[str]:
    """file:line of each reference to an unchecked constructor outside dvr.py."""
    found = []
    for path in sorted(package.glob("*.py")) + sorted(tests.glob("*.py")):
        if path == package / "dvr.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, (ast.Attribute, ast.Name)) and name in UNCHECKED_CONSTRUCTORS:
                found.append(f"{path.parent.name}/{path.name}:{node.lineno}")
    return found


def test_unchecked_constructors_stay_in_dvr():
    assert unchecked_constructor_uses() == []


def test_detects_an_unchecked_constructor(tmp_path):
    package, tests = tmp_path / "grasscat", tmp_path / "tests"
    package.mkdir()
    tests.mkdir()
    (package / "dvr.py").write_text("def f(m):\n    return m._wrap\n")
    (package / "homology.py").write_text(
        "from .dvr import DVRMatrix, ValPoly\n"
        "z = ValPoly._clean({}, 4)\nm = DVRMatrix._wrap((), 0, 4)\n")
    (tests / "test_dvr.py").write_text("_wrap = 1\n")
    assert unchecked_constructor_uses(package, tests) == [
        "grasscat/homology.py:2", "grasscat/homology.py:3", "tests/test_dvr.py:1"]


# an empty module-level container is state that fills up as the package
# runs; caches are functools.cache'd functions, which a caller can clear
EMPTY_CALLS = {"dict", "list", "set"}


def _is_empty_container(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.List):
        return not node.elts
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in EMPTY_CALLS and not node.args and not node.keywords)


def module_level_empty_containers(package: Path = PACKAGE) -> list[str]:
    """module:line of each module-level assignment of an empty container."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_empty_container(node.value):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_module_level_empty_containers():
    assert module_level_empty_containers() == []


def test_detects_a_module_level_empty_container(tmp_path):
    (tmp_path / "homology.py").write_text(
        "_CACHE: dict = {}\nSEEN = set()\nORDER = []\nBY_KEY = dict()\n"
        "LADDER = [(1, 2)]\nNAMES = {'a': 1}\nx: int\n"
        "def f():\n    local = {}\n    return local\n")
    assert module_level_empty_containers(tmp_path) == [
        "homology:1", "homology:2", "homology:3", "homology:4"]


# a module's caches and its view slots are implementation; tests reach
# them through path_matrix, syzygy_data, top_multiset and rep_a_vector
PRIVATE_MODULE_SLOTS = {"_paths", "_syzygy", "_cover", "_avec", "_top", "_root", "_turn"}
REFLECTION = {"getattr", "hasattr", "setattr", "delattr"}


def private_slot_reads(tests: Path = TESTS) -> list[str]:
    """file:line of each test that names a private CMModuleRep slot, as an
    attribute or as the name string of getattr and its kin."""
    found = []
    for path in sorted(tests.glob("*.py")):
        lines = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in REFLECTION):
                names = [a.value for a in node.args if isinstance(a, ast.Constant)]
            else:
                continue
            if PRIVATE_MODULE_SLOTS.intersection(names):
                lines.add(node.lineno)
        found += [f"{path.name}:{line}" for line in sorted(lines)]
    return found


def test_no_test_reads_a_private_module_slot():
    assert private_slot_reads() == []


def test_detects_a_private_module_slot_read(tmp_path):
    (tmp_path / "test_homology.py").write_text(
        "def test_a(m):\n    assert m._paths\n"
        "def test_b(m):\n    assert getattr(m, '_syzygy', None) is None\n"
        "def test_c(m):\n    assert m._top_generators and m.rim and '_avec'\n"
        "def test_d(m):\n    m._turn = 0\n")
    assert private_slot_reads(tmp_path) == [
        "test_homology.py:2", "test_homology.py:4", "test_homology.py:8"]


# rotation classes are built by one memo, modules.per_rotation_class; any
# other caller of least_shift would be a hand-written copy of it
ROTATION_MEMO = "modules.per_rotation_class"


def least_shift_callers(package: Path = PACKAGE) -> list[str]:
    """module.definition (top-level) of each call of least_shift, by name or
    as an attribute; '<module>' for a call at module level."""
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "least_shift" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_least_shift_is_called_only_by_the_rotation_memo():
    assert least_shift_callers() == [ROTATION_MEMO]


def test_detects_a_hand_written_rotation_memo(tmp_path):
    (tmp_path / "modules.py").write_text(
        "from .rims import least_shift\n"
        "def per_rotation_class(build):\n"
        "    def memo(p):\n        return least_shift(*p.layers)\n    return memo\n")
    (tmp_path / "tubes.py").write_text(
        "from . import rims\nfrom .rims import least_shift\n"
        "def walk_orbits(seeds):\n    return [rims.least_shift(*s.layers) for s in seeds]\n"
        "J = least_shift(SEED)\n"
        "class TauOrbit:\n    def rotate(self, p):\n        return least_shift(p), least_shift\n")
    assert least_shift_callers(tmp_path) == [
        ROTATION_MEMO, "tubes.walk_orbits", "tubes.<module>", "tubes.TauOrbit"]


# standard modules a command must not load while it starts: dataclasses
# writes each record's methods with exec and imports inspect, and
# importlib.resources is a slow way to read the two fixture files
START_UP_FORBIDDEN = ("dataclasses", "inspect", "importlib.resources")
START_UP_IMPORTS = ("grasscat.cli", "grasscat.census", "grasscat.tubes")


def start_up_modules(src: Path = PACKAGE.parent,
                     imports: tuple[str, ...] = START_UP_IMPORTS) -> list[str]:
    """The START_UP_FORBIDDEN modules loaded by importing ``imports`` from
    ``src`` in a fresh interpreter run without ``site`` (``python -S``),
    since a ``.pth`` file may load some of them before any import."""
    code = "".join(f"import {m}\n" for m in imports) + (
        f"import sys\nprint(*(m for m in {START_UP_FORBIDDEN!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return done.stdout.split()


def test_start_up_loads_no_forbidden_module():
    assert start_up_modules() == []


def test_detects_a_forbidden_start_up_module(tmp_path):
    package = tmp_path / "grasscat"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "census.py").write_text("from dataclasses import dataclass\n")
    (package / "tubes.py").write_text("from importlib import resources\n")
    assert start_up_modules(tmp_path, ("grasscat.census",)) == ["dataclasses", "inspect"]
    assert start_up_modules(tmp_path, ("grasscat.tubes",)) == ["importlib.resources"]
