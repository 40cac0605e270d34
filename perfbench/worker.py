"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass, with ``src`` on the path, so
that grasscat's module-level caches (the rank-2 cache, the per-module path
caches) start empty and no census cache file exists.  The pass times the
calls into grasscat's public functions, checks every answer against its
gate and prints one JSON object on its last line of output.  Before and
after the calls it times the reference computation, which ``run.py``
divides the call times by.

With ``--setup-only`` it stops after importing grasscat and making the
inputs; ``run.py`` times that whole process as one set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import reference
import workloads as wl


class Pass:
    """Timed calls of one pass, and the failures found in them."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.cpu_times: list[float] = []
        self.failures: list[str] = []
        self.failed = 0

    def call(self, label: str, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            return fn(*args)
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            self.latencies.append(time.perf_counter() - start)
            self.cpu_times.append(time.process_time() - cpu_start)

    def cli_json(self, label: str, argv: list[str]):
        """Run ``grasscat <argv>`` in this process; its JSON document or None.

        A nonzero exit code is a failure, but the document it printed is
        still returned, so that the gates can say what was wrong.
        """
        from grasscat import cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.call(label, cli.main, argv)
        if code != 0:
            self.failures.append(f"{label}: exit code {code}")
        lines = buf.getvalue().strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            self.failures.append(f"{label}: no JSON document in its output")
            return None


def timed_reference() -> tuple[float, float]:
    """Wall and CPU time of one run of the reference computation."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    reference.run()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def prepare(workload: str, seed: int):
    """Import what the workload calls and make its inputs from the seed."""
    import grasscat.cli  # noqa: F401  (the import is part of set-up)
    if workload == "census-orbits":
        orbits = wl.load_expected("orbits.json")["orbits"]
        return (wl.load_expected(wl.CENSUS_EXPECTED),
                list(zip(orbits, wl.orbit_shifts(seed, orbits))))
    from grasscat.rims import rim
    return [(a, b, rim(a, wl.SWEEP_K, wl.SWEEP_N), rim(b, wl.SWEEP_K, wl.SWEEP_N))
            for a, b in wl.sweep_pairs(seed)]


def census_orbits_pass(p: Pass, inputs, out_dir: Path) -> None:
    expected, orbits = inputs
    census_pass(p, expected, out_dir)
    orbits_pass(p, orbits)


def census_pass(p: Pass, expected, out_dir: Path) -> None:
    before = len(p.failures)
    payload = p.cli_json("census", wl.census_argv(str(out_dir)))
    if payload is not None:
        p.failures.extend(wl.gate_census(payload, expected))
    p.failed += len(p.failures) > before


def orbits_pass(p: Pass, inputs) -> None:
    for orbit, shift in inputs:
        before = len(p.failures)
        payload = p.cli_json(f"orbit {orbit['start']}+{shift}", wl.orbit_argv(orbit, shift))
        if payload is not None:
            p.failures.extend(wl.gate_orbit(payload, orbit, shift))
        p.failed += len(p.failures) > before


def sweep_pass(p: Pass, inputs, out_dir: Path) -> None:
    from grasscat.homology import ext1
    from grasscat.modules import build_rank1

    def ext_dim(x, y):
        return ext1(build_rank1(x), build_rank1(y)).total_dim

    for a, b, rim_a, rim_b in inputs:
        dims = [p.call(f"ext {a}->{b}", ext_dim, rim_a, rim_b),
                p.call(f"ext {b}->{a}", ext_dim, rim_b, rim_a)]
        bad = {i for i, d in enumerate(dims) if d is None}
        if not bad:
            for calls, message in wl.gate_ext_pair(a, b, *dims):
                p.failures.append(message)
                bad.update(calls)
        p.failed += len(bad)


PASSES = {"census-orbits": census_orbits_pass, "ext-sweep-4-9": sweep_pass}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scratch", type=Path, required=True,
                    help="directory for this pass's output files")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inputs = prepare(args.workload, args.seed)
    if args.setup_only:
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    out_dir = args.scratch / "out"
    p = Pass()
    ref = [timed_reference()]
    wall0 = time.perf_counter()
    PASSES[args.workload](p, inputs, out_dir)
    wall = time.perf_counter() - wall0
    ref.append(timed_reference())
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_s": p.latencies, "cpu_s": p.cpu_times, "attempted": len(p.latencies),
        "reference_s": [w for w, _ in ref], "reference_cpu_s": [c for _, c in ref],
        "failed": p.failed, "failures": p.failures,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics(wall)
        tracer.write_spans(args.scratch / "spans.jsonl")
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
