"""grasscat benchmark: runs one workload, or all of them, and checks the answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census-orbits --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn
    python3 perfbench/run.py --self-check                 # each gate trips when corrupted

Every pass is a closed loop with one caller: a fresh interpreter (worker.py)
that imports grasscat from ``src``, makes the workload's inputs from the seed,
calls grasscat's public functions one after another and gates every answer.
Each pass also times the reference computation (reference.py) before and
after its calls.  A run makes passes until ``--seconds`` has no room for
another, and always at least one.  With ``--trace 0`` the run also times
several set-ups and reports the end-to-end metrics of BENCHMARK.json: call
times in units of the reference timed around them, as medians over passes.  With ``--trace 1`` it makes one
untraced and one traced pass and reports the per-layer metrics.  The last
line of output is the JSON result; the lines before it give every metric by
name and unit, the failure ratio and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SETUPS = 9               # set-ups timed per run; setup_s is their median
PASS_TIMEOUT_S = 170     # a pass that takes longer has hung


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("GRASSCAT_TRUNCATION", "GRASSCAT_OUT"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def build() -> None:
    """Byte-compile the package, so that no timed set-up pays for it."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "grasscat"), str(BENCH)],
        capture_output=True, text=True, env=child_env(), timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"compileall failed:\n{proc.stdout}{proc.stderr}")


def worker(workload: str, seed: int, scratch: Path, *flags: str) -> tuple[float, str]:
    """Run worker.py once; its wall time including interpreter start, and stdout."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scratch", str(scratch), *flags]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=child_env(), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-3000:]}")
    return elapsed, proc.stdout


def one_pass(workload: str, seed: int, trace: int) -> dict:
    if trace:
        scratch = BUILD / "trace" / f"{workload}-seed{seed}"
    else:
        scratch = BUILD / "passes" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        elapsed, out = worker(workload, seed, scratch, "--trace", str(trace))
    finally:
        if not trace:
            shutil.rmtree(scratch, ignore_errors=True)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result:\n{out[-2000:]}") from exc
    result["process_s"] = elapsed
    return result


def setup_times(workload: str, seed: int) -> list[float]:
    scratch = BUILD / "passes" / f"setup-{os.getpid()}"
    return [worker(workload, seed, scratch, "--setup-only")[0] for _ in range(SETUPS)]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: a latency that was measured, not interpolated."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def in_ref(passes: list[dict], key: str, ref_key: str) -> list[list[float]]:
    """Each pass's call times, in units of the reference timed around that pass.

    The host's CPU speed moves by up to 1.7x over seconds to minutes, and
    the program and the reference computation slow alike, so the ratio of
    two timings taken a second apart holds steady where each timing does not.
    """
    return [[t / statistics.mean(p[ref_key]) for t in p[key]] for p in passes]


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    wall = in_ref(passes, "latencies_s", "reference_s")
    cpu = in_ref(passes, "cpu_s", "reference_cpu_s")
    calls = [statistics.median(times) for times in zip(*wall)]
    return {
        "wall_ref": statistics.median(sum(times) for times in wall),
        "cpu_ref": statistics.median(sum(times) for times in cpu),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
        "call_p50_ref": statistics.median(calls),
        "call_p90_ref": percentile(calls, 0.90),
    }


def in_seconds(passes: list[dict]) -> str:
    """The same medians in seconds, as measured: printed, not reported."""
    calls = [statistics.median(times) for times in zip(*(p["latencies_s"] for p in passes))]
    return ", ".join([
        f"wall_s = {statistics.median(sum(p['latencies_s']) for p in passes):.6g} s",
        f"cpu_s = {statistics.median(sum(p['cpu_s']) for p in passes):.6g} s",
        f"call_p50_ms = {1000 * statistics.median(calls):.6g} ms",
        f"call_p90_ms = {1000 * percentile(calls, 0.90):.6g} ms",
        f"reference = {statistics.median(t for p in passes for t in p['reference_s']):.6g} s"])


def source_digest() -> str:
    """Digest of the package sources; the checkout carries no commit id."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "grasscat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:12]


def metadata() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "src_sha256": source_digest()}


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Measure one workload and print its metrics; returns the result object."""
    if trace:
        plain = one_pass(workload, seed, 0)
        traced = one_pass(workload, seed, 1)
        passes = [plain, traced]
        values = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
        wanted = spec["per_layer"]
    else:
        setups = setup_times(workload, seed)
        passes, start = [], time.perf_counter()
        while True:
            passes.append(one_pass(workload, seed, 0))
            longest = max(p["process_s"] for p in passes)
            if time.perf_counter() - start + longest > seconds:
                break
        values = end_to_end(passes, setups)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    calls = sum(len(p["latencies_s"]) for p in passes)
    print(f"# {workload} seed={seed} trace={trace} passes={len(passes)} "
          f"calls={calls} wall per pass: "
          + ", ".join(f"{p['wall_s']:.3f} s" for p in passes))
    for m in wanted:
        print(f"{workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    if not trace:
        print(f"{workload} in seconds: {in_seconds(passes)}")
    print(f"{workload} fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    failures = [f for p in passes for f in p["failures"]]
    for failure in failures[:20]:
        print(f"{workload} GATE FAILED: {failure}")
    if len(failures) > 20:
        print(f"{workload} GATE FAILED: {len(failures) - 20} more failures not shown")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="time a run may measure (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="show that every gate trips on a corrupted expectation")
    args = ap.parse_args()
    if args.self_check:
        import selfcheck
        return selfcheck.main()
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "grasscat" / "__init__.py").is_file():
        print(f"error: no grasscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    meta = metadata()
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    try:
        build()
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, seconds, args.trace)
        else:
            each = {w: run_workload(spec, w, args.seed, seconds, args.trace)
                    for w in wl.WORKLOADS}
            result = {"correct": all(r["correct"] for r in each.values()),
                      "attempted": sum(r["attempted"] for r in each.values()),
                      "failed": sum(r["failed"] for r in each.values()),
                      "meta": meta, "workloads": each}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
