"""Imports of grasscat modules sit at module top, in layer order, every
name the package defines is used, and used by the package itself unless it
is on an allow-list, the unchecked constructors stay in ``dvr``,
starting a command loads no code-generating or resource-loading module,
and no oracle of ``tests/oracles.py`` calls the function it checks.

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
    None: in the package) except where it is defined.

    Names are matched, not resolved, so two blind spots remain: a method
    counts as used when a same-named definition elsewhere is (a call of
    ``DVRMatrix.scale`` keeps a ``ValPoly.scale`` too), and dunder methods
    are never reported."""
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
# them through path_matrix, top_generators, rep_a_vector, homology._identify
# and the accessors homology._cover_of, homology._omega and syzygy
PRIVATE_MODULE_SLOTS = {"_paths", "_syzygy", "_cover", "_avec", "_top", "_member", "_root",
                        "_turn"}
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


def callers(name: str, package: Path = PACKAGE,
            modules: Optional[tuple[str, ...]] = None) -> list[str]:
    """module.definition (top-level) of each call of ``name``, by name or as
    an attribute, in ``modules`` (None: every module); '<module>' for a
    call at module level.  ``a @ b`` is a call of ``__matmul__``."""
    found = []
    for path in sorted(package.glob("*.py")):
        if modules is not None and path.stem not in modules:
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)) \
                        or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) \
                        and name == "__matmul__":
                    found.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_least_shift_is_called_only_by_the_rotation_memo():
    assert callers("least_shift") == [ROTATION_MEMO]


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
    assert callers("least_shift", tmp_path) == [
        ROTATION_MEMO, "tubes.walk_orbits", "tubes.<module>", "tubes.TauOrbit"]


# a module's caches are filled by one accessor, modules.on_root, which
# relabels a root's value for a view; any other caller of unrotated outside
# CMModuleRep would be a hand-written root cache
ROOT_CACHE = "modules.on_root"


def test_unrotated_is_called_only_by_the_module_and_its_cache_accessor():
    assert set(callers("unrotated")) == {"modules.CMModuleRep", ROOT_CACHE}


def test_detects_a_hand_written_root_cache(tmp_path):
    (tmp_path / "modules.py").write_text(
        "class CMModuleRep:\n    def rotate(self, j):\n        return self.unrotated()\n"
        "def on_root(m, slot, compute, relabel):\n"
        "    root, j = m.unrotated()\n    return relabel(compute(root), j)\n")
    (tmp_path / "homology.py").write_text(
        "def top_generators(m):\n    root, j = m.unrotated()\n"
        "    top = getattr(root, '_top', None)\n"
        "    if top is None:\n        top = root._top = _top_generators(root)\n"
        "    return relabel(top, j)\n")
    assert callers("unrotated", tmp_path) == [
        "homology.top_generators", "modules.CMModuleRep", ROOT_CACHE]


# standard modules a command must not load while it starts: dataclasses
# writes each record's methods with exec and imports inspect,
# importlib.resources is a slow way to read the two fixture files, and
# gettext loads locale when the first argument parser is built, so locale
# shows a parser built at import
START_UP_FORBIDDEN = ("dataclasses", "inspect", "importlib.resources", "locale")
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


# each matrix is factored once: a module's structure maps for the
# a-vector and one Hom condition per pair by _smith, and a module's cover
# maps, when it is covered, by _split; every kernel, coordinate, section,
# retraction and extension class is read off those factorisations
SMITH_CALLERS = ["homology._hom_condition", "modules.rep_a_vector"]
SPLIT_CALLERS = ["homology.projective_cover"]
FACTORING = ("homology", "modules")


def test_only_the_covers_hom_conditions_and_a_vectors_factor():
    assert callers("_smith", modules=FACTORING) == SMITH_CALLERS
    assert callers("_split") == SPLIT_CALLERS


def test_detects_a_second_factorisation(tmp_path):
    (tmp_path / "homology.py").write_text(
        "from . import dvr\nfrom .dvr import _smith\n"
        "def projective_cover(m):\n    return _smith(m)\n"
        "def _hom_condition(m, n):\n    return _smith(m @ n)\n"
        "def _vertex_maps(cover, w):\n    return dvr._smith(cover.eps[w].transpose())\n"
        "EYE = _smith(1)\n")
    (tmp_path / "modules.py").write_text(
        "from .dvr import _smith\n"
        "def rep_a_vector(m):\n    return [_smith(x) for x in m.x]\n")
    (tmp_path / "tubes.py").write_text(
        "from .dvr import _smith\ndef identify(m):\n    return _smith(m)\n")
    assert callers("_smith", tmp_path, FACTORING) == [
        "homology.projective_cover", "homology._hom_condition", "homology._vertex_maps",
        "homology.<module>", "modules.rep_a_vector"]


def test_detects_a_second_split(tmp_path):
    (tmp_path / "homology.py").write_text(
        "from . import dvr\nfrom .dvr import _split\n"
        "def projective_cover(m):\n    return [_split(a) for a in m.maps]\n"
        "def _pushout(top, f):\n    return dvr._split(f)\n")
    (tmp_path / "tubes.py").write_text(
        "from .dvr import _split\ndef identify(m):\n    return _split(m)\n")
    assert callers("_split", tmp_path) == SPLIT_CALLERS + [
        "homology._pushout", "tubes.identify"]


# an oracle of tests/oracles.py checks the package from outside: it must
# not call the function whose answer it is compared with
ORACLE_FORBIDDEN = {
    "crossing": ("interlacing_degree", "classify_pair"),
    "two_peak_syzygy_rim": ("syzygy_rim", "_cyclic_interval"),
    "rational_rank": ("_smith",),
    "rational_det": ("_det_poly_mod_t",),
    "solve": ("coordinates", "splitting"),
    "FullSmith": ("_smith", "_split"),
    "dense_product": ("__matmul__",),
    "route_product": ("path_matrix", "_path", "__matmul__"),
    "brute_least_shift": ("least_shift",),
    "name_afresh": ("_identify", "on_root", "tau_orbit"),
    "orbit_named_afresh": ("_identify", "on_root", "tau_orbit"),
    "group_by_isomorphism": ("_identify", "on_root"),
}


def oracle_calls(tests: Path = TESTS) -> list[str]:
    """'oracle -> name' for each ORACLE_FORBIDDEN call an oracle makes."""
    return [f"{oracle} -> {name}" for oracle, names in ORACLE_FORBIDDEN.items()
            for name in names if f"oracles.{oracle}" in callers(name, tests, ("oracles",))]


def test_no_oracle_calls_what_it_checks():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    assert set(ORACLE_FORBIDDEN) <= {node.name for node in tree.body
                                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert oracle_calls() == []


def test_detects_an_oracle_that_calls_what_it_checks(tmp_path):
    (tmp_path / "oracles.py").write_text(
        "from grasscat.rims import interlacing_degree\n"
        "def crossing(a, b):\n    return interlacing_degree(a, b) >= 2\n"
        "def solve(sm, rhs, floor):\n    return sm.V @ rhs\n"
        "class FullSmith:\n    def __init__(self, matrix):\n"
        "        self.V = dvr._split(matrix).kernel\n"
        "def dense_product(a, b):\n    return [row for row in (a @ b).data]\n")
    (tmp_path / "test_rims.py").write_text(
        "from oracles import crossing\n"
        "def test_x():\n    assert crossing(1, 2) == (interlacing_degree(1, 2) >= 2)\n")
    assert oracle_calls(tmp_path) == ["crossing -> interlacing_degree",
                                      "FullSmith -> _split",
                                      "dense_product -> __matmul__"]
