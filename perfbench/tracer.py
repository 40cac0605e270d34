"""Per-layer tracing of grasscat from outside the package.

``Tracer.install`` replaces grasscat's functions with timing wrappers at
every import site: the defining module and every grasscat module that bound
the same function by name (``homology`` binds ``_smith``, ``kernel_data``,
``solve_linear`` and ``build_rank1`` this way).  Function-local imports
read the patched module attribute when they run, so they are covered too.

Each wrapped call is a span with a parent; self time is a span's duration
minus that of its child spans.  Spans are kept in memory and written out by
``write_spans`` once the pass has ended.  ``ValPoly.unit_inverse`` and
``CMModuleRep.path_matrix`` run millions of times, so they get counters
only; their time stays in the self time of the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

# the package's layers, bottom to top; every per-layer metric belongs to one
LAYERS = ("dvr", "modules", "homology", "tubes", "census", "cli")
# wrapped so that their time leaves the calling layer's self time; they get
# no metrics of their own and their time counts towards untraced_s
UNLAYERED = ("rims", "roots", "diagrams")

HOMOLOGY_TIMED = ("projective_cover", "syzygy_data", "hom_space", "ext1",
                  "generic_extension", "decomposition_rank2", "is_isomorphic")
# per-layer metric -> wrapped function whose self time or call count it reports
SELF_TIMES = {
    "dvr.smith.self_s": "dvr._smith",
    "modules.build_layered.self_s": "modules.build_layered",
    "tubes.tau_orbit.self_s": "tubes.tau_orbit",
    "census.run_census.self_s": "census.run_census",
    "cli.self_s": "cli.main",
    **{f"homology.{f}.self_s": f"homology.{f}" for f in HOMOLOGY_TIMED},
}
CALL_COUNTS = {
    "dvr.smith.calls": "dvr._smith",
    "dvr.solve_linear.calls": "dvr.solve_linear",
    "dvr.kernel_data.calls": "dvr.kernel_data",
    "modules.build_layered.calls": "modules.build_layered",
    "modules.direct_sum.calls": "modules.direct_sum",
    "tubes.syzygy.calls": "homology.syzygy",
    **{f"homology.{f}.calls": f"homology.{f}" for f in HOMOLOGY_TIMED},
}

LADDER_WALKS = ("homology.rank2_extension", "homology.rigid_indecomposable_rank2")
BUILDS = ("homology.generic_extension", "modules.build_layered")


def _share(part: float, whole: float) -> float:
    """part / whole, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0


class Tracer:
    """Spans, self times and the counters behind the per-layer metrics."""

    def __init__(self) -> None:
        # frame: [span id, name, start, child time, notes, parent id, args]
        self.stack: list[list] = []
        self.next_id = 0
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.n = Counter()
        self.seen_census_keys: set = set()
        self.max_syzygy_rank = 0

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        """Patch grasscat for the rest of the process; a traced pass has its own."""
        mods = {name: importlib.import_module(f"grasscat.{name}")
                for name in LAYERS + UNLAYERED}
        wrappers = {}
        for name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr == "_smith")):
                    wrappers[obj] = self._wrap(obj, f"{name}.{attr}")
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        self._count_calls(mods["dvr"].ValPoly, "unit_inverse", self._count_unit_inverse)
        self._count_calls(mods["modules"].CMModuleRep, "path_matrix",
                          self._count_path_matrix)
        return self

    @staticmethod
    def _count_calls(cls, attr, counter) -> None:
        original = getattr(cls, attr)

        @functools.wraps(original)
        def counted(obj, *args):
            counter(obj, *args)
            return original(obj, *args)
        setattr(cls, attr, counted)

    def _count_unit_inverse(self, value) -> None:
        self.n["unit_inverse"] += 1
        if len(value.coeffs) == 1:
            self.n["unit_inverse_const"] += 1

    def _count_path_matrix(self, rep, v, w) -> None:
        self.n["path_matrix"] += 1
        if (v, w) in getattr(rep, "_paths", ()):
            self.n["path_matrix_reuse"] += 1

    def _wrap(self, fn, name: str):
        signature = inspect.signature(fn)
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name, signature, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, None, raised=True)
                raise
            leave(frame, result)
            return result
        return traced

    # -- spans ---------------------------------------------------------------

    def _enter(self, name, signature, args, kwargs) -> list:
        parent = self.stack[-1] if self.stack else None
        notes = {}
        if name == "dvr._smith":
            self._observe_smith(args[0] if args else kwargs["matrix"])
        elif name == "homology.ext1":
            notes["base"] = (args[0] if args else kwargs["m"]).trunc
        elif name in LADDER_WALKS:
            notes["builds"] = 0
            notes["verdict"] = False
        elif name in BUILDS and parent is not None:
            self._observe_build(name, parent, signature, args, kwargs)
        self.next_id += 1
        frame = [self.next_id, name, 0.0, 0.0, notes, parent[0] if parent else None, args]
        self.stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _leave(self, frame, result, raised: bool = False) -> None:
        end = time.perf_counter()
        self.stack.pop()
        span_id, name, start, child, notes, parent_id, args = frame
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        self.spans.append((span_id, parent_id, name, start, end))
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        if not raised:
            self._observe_result(name, notes, parent, args, result)

    def _observe_smith(self, matrix) -> None:
        self.n["smith_cells"] += matrix.rows * matrix.cols
        for row in matrix.data:
            for entry in row:
                if len(entry.coeffs) > 1:
                    self.n["smith_multiterm"] += 1

    def _observe_build(self, name, parent, signature, args, kwargs) -> None:
        if parent[1] in LADDER_WALKS and name == "homology.generic_extension":
            parent[4]["builds"] += 1
        if parent[1] != "homology.ext1":
            return
        trunc = signature.bind(*args, **kwargs).arguments.get("trunc")
        base = parent[4]["base"]
        if trunc is not None and trunc > base:
            self.n["ext1_rebuilds"] += 1
            if trunc > base + 2:
                self.n["ext1_escalations"] += 1

    def _observe_result(self, name, notes, parent, args, result) -> None:
        parent_name = parent[1] if parent else None
        if parent_name in LADDER_WALKS:
            if name == "homology.is_rigid" and not result:
                parent[4]["verdict"] = False
            elif name == "homology.decomposition_rank2":
                parent[4]["verdict"] = result is None
        if name in LADDER_WALKS:
            self.n["rank2_calls"] += 1
            builds = notes["builds"]
            if builds:
                self.n["walks"] += 1
                self.n["walk_builds"] += builds
                self.n["walk_yield"] += notes["verdict"]
            else:
                self.n["rank2_reuse"] += 1
            if parent_name == "census.run_census" and name.endswith("rigid_indecomposable_rank2"):
                key = (args[0].elements, args[1].elements, args[2] if len(args) > 2 else None)
                if key not in self.seen_census_keys:
                    self.seen_census_keys.add(key)
                    self.n["census_ladder"] += 1
                elif builds:
                    self.n["census_regroup_rebuilds"] += 1
        elif name == "homology.is_isomorphic":
            self.n["iso_true"] += bool(result)
            if parent_name == "tubes.tau_orbit":
                self.n["identify"] += 1
                self.n["identify_match"] += bool(result)
            elif parent_name == "census.run_census":
                self.n["census_iso"] += 1
        elif name == "homology.syzygy":
            self.max_syzygy_rank = max(self.max_syzygy_rank, result.s)
        elif name == "census.run_census":
            self.n["census_candidates"] += result.candidates_tested

    # -- results -------------------------------------------------------------

    def layer_self_time(self) -> float:
        return sum(t for name, t in self.self_time.items()
                   if name.split(".", 1)[0] in LAYERS)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took ``wall_s``."""
        n, calls = self.n, self.calls
        out: dict[str, float] = {}
        for metric, fn in CALL_COUNTS.items():
            out[metric] = calls[fn]
        for metric, fn in SELF_TIMES.items():
            out[metric] = self.self_time[fn]
        out.update({
            "dvr.smith.cells": n["smith_cells"],
            "dvr.smith.multiterm_share": _share(n["smith_multiterm"], n["smith_cells"]),
            "dvr.unit_inverse.calls": n["unit_inverse"],
            "dvr.unit_inverse.const_share": _share(n["unit_inverse_const"], n["unit_inverse"]),
            "modules.path_matrix.calls": n["path_matrix"],
            "modules.path_matrix.reuse_share": _share(n["path_matrix_reuse"], n["path_matrix"]),
            "homology.ext1.rebuilds": n["ext1_rebuilds"],
            "homology.ext1.escalations": n["ext1_escalations"],
            "homology.ladder.walks": n["walks"],
            "homology.ladder.weights_per_walk": _share(n["walk_builds"], n["walks"]),
            "homology.ladder.yield": _share(n["walk_yield"], n["walks"]),
            "homology.rank2.calls": n["rank2_calls"],
            "homology.rank2.key_reuse_share": _share(n["rank2_reuse"], n["rank2_calls"]),
            "homology.is_isomorphic.true_share": _share(
                n["iso_true"], calls["homology.is_isomorphic"]),
            "tubes.syzygy.max_rank": self.max_syzygy_rank,
            "tubes.identify.candidates": n["identify"],
            "tubes.identify.match_share": _share(n["identify_match"], n["identify"]),
            "census.candidates": n["census_candidates"],
            "census.ladder_calls": n["census_ladder"],
            "census.regroup_rebuilds": n["census_regroup_rebuilds"],
            "census.iso_calls": n["census_iso"],
            "untraced_s": wall_s - self.layer_self_time(),
        })
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON array per span: id, parent id, name, start, end (seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
