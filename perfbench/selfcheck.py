"""Show that every correctness gate passes a right answer and trips on a wrong one.

Each gate is fed the committed reference answer, then copies of its
expected value with one field corrupted; a gate that does not trip on a
corruption fails the self-check.  Nothing here runs grasscat.

    python3 perfbench/run.py --self-check
"""

from __future__ import annotations

import copy

import workloads as wl


def census_cases():
    ref = wl.load_expected(wl.CENSUS_EXPECTED)
    good = {"counts": ref["counts"], "conjectures": ref["conjectures"],
            "candidates_tested": ref["candidates_tested"], "sampled": ref["sampled"],
            "fixture_diffs": [], "rank2_rigid": ref["classes"]}

    def expect(change):
        bad = copy.deepcopy(ref)
        change(bad)
        return good, bad

    yield "census reference", (good, ref), True
    yield "census real count", expect(lambda e: e["counts"].update(real=e["counts"]["real"] + 1)), False
    yield "census imaginary count", expect(lambda e: e["counts"].update(imaginary=1)), False
    yield "census conjecture verdict", expect(
        lambda e: e["conjectures"].update(real_root_count_formula=False)), False
    yield "census candidates tested", expect(lambda e: e.update(candidates_tested=e["candidates_tested"] - 1)), False
    yield "census sampled flag", expect(lambda e: e.update(sampled=True)), False
    yield "census fixture_diffs", (dict(good, fixture_diffs=["rank1: 1"]), ref), False
    yield "census class missing", expect(lambda e: e.update(classes=e["classes"][1:])), False
    yield "census classification", expect(
        lambda e: e["classes"][0].update(classification="imaginary")), False
    yield "census a-vector", expect(lambda e: e["classes"][0].update(a_vector=[2] * e["n"])), False
    # one class missing from both output and reference: only rotation closure sees it
    yield "census rotation closure", (dict(good, rank2_rigid=ref["classes"][1:]),
                                      dict(ref, classes=ref["classes"][1:])), False


def drop_profile_or_rim(orbit: dict) -> None:
    """Drop a profile of the first member, or its rim when it has none."""
    member = orbit["members"][0]
    if member["profiles"]:
        member["profiles"] = member["profiles"][:-1]
    else:
        member["rim"] = None


def orbit_cases():
    for orbit in wl.load_expected("orbits.json")["orbits"]:
        name = f"orbit {wl.profile_token(orbit['start'], orbit['k'], orbit['n'])}"
        payload = {"period": orbit["period"], "members": orbit["members"]}

        def expect(change, orbit=orbit):
            bad = copy.deepcopy(orbit)
            change(bad)
            return payload, bad, 0

        yield f"{name} reference", (payload, orbit, 0), True
        yield f"{name} rotation", (payload, orbit, 1), False
        yield f"{name} period", expect(lambda o: o.update(period=o["period"] + 1)), False
        yield f"{name} member a-vector", expect(
            lambda o: o["members"][0].update(a_vector=[0] * o["n"])), False
        yield f"{name} member profiles or rim", expect(drop_profile_or_rim), False
        yield f"{name} member order", expect(lambda o: o["members"].reverse()), False
        yield f"{name} member count", expect(lambda o: o["members"].pop()), False


def ext_cases():
    crossing = ((1, 3, 5, 7), (2, 4, 6, 8))
    parallel = ((1, 2, 3, 4), (5, 6, 7, 8))
    yield "ext crossing pair", (*crossing, 3, 3), True
    yield "ext non-crossing pair", (*parallel, 0, 0), True
    yield "ext 3a: vanishing on a crossing pair", (*crossing, 0, 0), False
    yield "ext 3a: nonzero on a non-crossing pair", (*parallel, 1, 1), False
    yield "ext 3d: asymmetric dimensions", (*crossing, 3, 2), False


def main() -> int:
    checks = [(name, wl.gate_census, args, ok) for name, args, ok in census_cases()]
    checks += [(name, wl.gate_orbit, args, ok) for name, args, ok in orbit_cases()]
    checks += [(name, wl.gate_ext_pair, args, ok) for name, args, ok in ext_cases()]
    bad = 0
    for name, gate, args, should_pass in checks:
        passed = not gate(*args)
        verdict = "passes" if passed else "trips"
        good = passed == should_pass
        bad += not good
        print(f"{'ok  ' if good else 'FAIL'} {name}: gate {verdict}")
    print(f"self-check: {len(checks) - bad}/{len(checks)} as expected")
    return 1 if bad else 0
