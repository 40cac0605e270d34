"""Workload inputs and correctness gates for the grasscat benchmark.

Inputs are made from the seed alone.  Gates compare the program's answers
with references that the run being checked did not produce: the committed
files under ``expected/`` and facts that hold for every input (rotation
closure, Ext vanishing exactly on non-crossing pairs, symmetric Ext
dimensions).  This module imports nothing from grasscat, so the gates and
their self-check run without the program.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

WORKLOADS = ("census-orbits", "ext-sweep-4-9")

CENSUS_K, CENSUS_N = 3, 6
CENSUS_EXPECTED = f"census-{CENSUS_K}-{CENSUS_N}.json"
SWEEP_K, SWEEP_N = 4, 9
# unordered pairs per ext-sweep pass; each runs in both orders, which gives
# 100 timed calls and ten samples above the 90th percentile.  A pass takes
# about 3 s, so that a run makes about 15 passes to take medians over.
SWEEP_PAIRS = 50


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED / name).read_text())


# ---------------------------------------------------------------------------
# cyclic relabelling, written out here so the gates do not trust grasscat's


def rotate_layer(elements, m: int, n: int) -> tuple[int, ...]:
    return tuple(sorted((e - 1 + m) % n + 1 for e in elements))


def rotate_profile(profile, m: int, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(rotate_layer(layer, m, n) for layer in profile)


def rotate_avec(avec, m: int) -> tuple[int, ...]:
    n = len(avec)
    return tuple(avec[(i - m) % n] for i in range(n))


def profile_token(profile, k: int, n: int) -> str:
    """CLI token such as ``1246|3578@(4,8)``; labels are digits for n <= 9."""
    return "|".join("".join(str(e) for e in layer) for layer in profile) + f"@({k},{n})"


# ---------------------------------------------------------------------------
# census-orbits: the census


def census_argv(out_dir: str) -> list[str]:
    return ["--json", "--out", out_dir, "census", str(CENSUS_K), str(CENSUS_N),
            "--refresh"]


def _class_key(entry: dict) -> tuple:
    profiles = tuple(sorted(tuple(tuple(layer) for layer in p)
                            for p in entry["profiles"]))
    return (profiles, tuple(entry["a_vector"]), entry["classification"])


def gate_census(payload: dict, expected: dict) -> list[str]:
    """Failures of one census document against the reference; [] when correct."""
    fails = []
    for key in ("counts", "conjectures", "candidates_tested", "sampled"):
        if payload.get(key) != expected[key]:
            fails.append(f"census {key}: expected {expected[key]!r}, "
                         f"got {payload.get(key)!r}")
    if payload.get("fixture_diffs") != []:
        fails.append(f"census fixture_diffs not empty: {payload.get('fixture_diffs')!r}")
    got = {_class_key(e) for e in payload.get("rank2_rigid", [])}
    want = {_class_key(e) for e in expected["classes"]}
    if got != want:
        fails.append(f"census class set: {len(want - got)} missing, "
                     f"{len(got - want)} unexpected")
    n = expected["n"]
    rotated = {(tuple(sorted(rotate_profile(p, 1, n) for p in profiles)),
                rotate_avec(avec, 1), cls) for profiles, avec, cls in got}
    if rotated != got:
        fails.append("census class set is not closed under rotation")
    return fails


# ---------------------------------------------------------------------------
# census-orbits: the orbits


def orbit_shifts(seed: int, orbits: list[dict]) -> list[int]:
    """Rotation of each reference orbit start, drawn from the seed."""
    rng = random.Random(seed)
    return [rng.randrange(o["n"]) for o in orbits]


def orbit_argv(orbit: dict, shift: int) -> list[str]:
    start = rotate_profile(orbit["start"], shift, orbit["n"])
    return ["--json", "orbit", profile_token(start, orbit["k"], orbit["n"])]


def _member_key(member: dict) -> tuple:
    profiles = frozenset(tuple(tuple(layer) for layer in p) for p in member["profiles"])
    rim = tuple(member["rim"]) if member["rim"] else None
    return (member["rank"], tuple(member["a_vector"]), rim, profiles)


def gate_orbit(payload: dict, orbit: dict, shift: int) -> list[str]:
    """Compare an orbit with the reference orbit rotated by ``shift``.

    Members are compared by rank, a-vector, rim and profile set.  Label
    strings are not compared: the minimal label changes under rotation.
    """
    n, seed = orbit["n"], profile_token(orbit["start"], orbit["k"], orbit["n"])
    fails = []
    if payload.get("period") != orbit["period"]:
        fails.append(f"orbit {seed}+{shift}: period {payload.get('period')!r}, "
                     f"expected {orbit['period']}")
    want = []
    for m in orbit["members"]:
        want.append((m["rank"], rotate_avec(m["a_vector"], shift),
                     rotate_layer(m["rim"], shift, n) if m["rim"] else None,
                     frozenset(rotate_profile(p, shift, n) for p in m["profiles"])))
    got = [_member_key(m) for m in payload.get("members", [])]
    if got != want:
        bad = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
        fails.append(f"orbit {seed}+{shift}: {bad} of {len(want)} members differ "
                     f"from the rotated reference")
    return fails


# ---------------------------------------------------------------------------
# ext-sweep-4-9


def _interlacing_blocks(a, b) -> int:
    """Half the cyclic side changes along a\\b and b\\a; the sampling stratum."""
    sa, sb = set(a) - set(b), set(b) - set(a)
    sides = [v in sa for v in sorted(sa | sb)]
    return sum(1 for i in range(len(sides)) if sides[i] != sides[i - 1]) // 2


def crosses(a, b) -> bool:
    """Some quadruple alternates between a\\b and b\\a around the circle."""
    sa, sb = set(a) - set(b), set(b) - set(a)
    for quad in combinations(sorted(sa | sb), 4):
        sides = [v in sa for v in quad]
        if sides in ([True, False, True, False], [False, True, False, True]):
            return True
    return False


def _rotation_class(a, b) -> tuple:
    """The least rotation of the unordered pair {a, b}; names its class."""
    return min(tuple(sorted((rotate_layer(a, m, SWEEP_N), rotate_layer(b, m, SWEEP_N))))
               for m in range(SWEEP_N))


def sample_sweep_classes(count: int = SWEEP_PAIRS) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A fixed sample of rotation classes of unordered pairs of distinct (4,9) rims.

    The sample is stratified by intersection size and interlacing degree,
    which are invariant under rotation, with quotas proportional to each
    stratum's number of classes.  It does not depend on the seed.
    ``make_expected.py`` writes it to ``expected/sweep-classes.json``, so
    that no set-up pays the 0.2 s it takes.
    """
    rims = list(combinations(range(1, SWEEP_N + 1), SWEEP_K))
    strata: dict[tuple[int, int], set] = {}
    for i, a in enumerate(rims):
        for b in rims[i + 1:]:
            key = (len(set(a) & set(b)), _interlacing_blocks(a, b))
            strata.setdefault(key, set()).add(_rotation_class(a, b))
    total = sum(len(v) for v in strata.values())
    quota = {key: count * len(v) // total for key, v in strata.items()}
    by_remainder = sorted(strata, key=lambda key: (-(count * len(strata[key]) % total), key))
    for key in by_remainder[:count - sum(quota.values())]:
        quota[key] += 1
    rng = random.Random(0)
    chosen = []
    for key in sorted(strata):
        chosen.extend(rng.sample(sorted(strata[key]), quota[key]))
    return sorted(chosen)


def sweep_pairs(seed: int, count: int = SWEEP_PAIRS) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Seeded pairs of distinct (4,9) rims: one per class of the fixed sample.

    The seed picks the rotation of each pair.  The cost of an Ext
    computation depends on the pair's class and little on its rotation, so
    every seed gets the same mix of costs on different inputs.
    """
    classes = load_expected("sweep-classes.json")["classes"]
    rng = random.Random(seed)
    pairs = []
    for a, b in classes[:count]:
        m = rng.randrange(SWEEP_N)
        pairs.append(tuple(sorted((rotate_layer(a, m, SWEEP_N), rotate_layer(b, m, SWEEP_N)))))
    return pairs


def gate_ext_pair(a, b, dim_ab: int, dim_ba: int) -> list[tuple[tuple[int, ...], str]]:
    """Criteria 3a (Ext vanishes iff non-crossing) and 3d (symmetric dimension).

    Each failure names the calls it condemns: 0 for Ext(a,b), 1 for Ext(b,a).
    """
    fails = []
    cross = crosses(a, b)
    for call, (x, y), dim in ((0, (a, b), dim_ab), (1, (b, a), dim_ba)):
        if (dim == 0) == cross:
            fails.append(((call,), f"ext {x}->{y}: dim {dim} but crossing={cross} "
                                   f"(criterion 3a)"))
    if dim_ab != dim_ba:
        fails.append(((0, 1), f"ext {a}<->{b}: dims {dim_ab} != {dim_ba} (criterion 3d)"))
    return fails
