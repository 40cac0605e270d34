"""Syzygy orbits, AR sequences and the tube censuses for the tame pairs.

The translate on the stable category is inverse to the syzygy, so orbits
are computed by repeated syzygy steps.  Every orbit of a non-projective
rank-1 module or rigid rank-2 module is periodic with period dividing
2v, v = lcm(n, k)/k; members of rank at most two are identified exactly
by their profiles (rims directly, rank-2 members by isomorphism against
the canonical extension modules), higher ranks are reported by rank and
multiplicity vector only.
"""

from __future__ import annotations

import json
from math import lcm
from pathlib import Path
from typing import Optional, Union

from .census import CensusReport, run_census
from .errors import NotAlmostConsecutive, ProjectiveInput
from .homology import (OrbitMember, _identify, canonical_module, decomposition_rank2,
                       is_rigid, rigid_indecomposable_rank2, syzygy)
from .modules import (CMModuleRep, Profile, a_vector, build_rank1, default_truncation,
                      direct_sum, per_rotation_class)
from .rims import (Rim, all_rims, ar_middle_profile, interlacing_degree,
                   is_almost_consecutive, is_projective, rim, syzygy_rim)


class TauOrbit:
    """Members of one syzygy orbit, in translation order; equal when their
    ambients, members and periods are."""

    __slots__ = ("k", "n", "v", "members", "period")

    def __init__(self, k: int, n: int, v: int, members: list[OrbitMember],
                 period: int) -> None:
        self.k, self.n, self.v, self.members, self.period = k, n, v, members, period

    def __eq__(self, other):
        if other.__class__ is not TauOrbit:
            return NotImplemented
        return ((self.k, self.n, self.v, self.members, self.period)
                == (other.k, other.n, other.v, other.members, other.period))

    def rotate(self, m: int) -> "TauOrbit":
        """The orbit of the seed rotated by m: every member rotated."""
        return TauOrbit(self.k, self.n, self.v,
                        [mem.rotate(m, self.n) for mem in self.members],
                        self.period)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k, "n": self.n, "v": self.v, "period": self.period,
            "members": [
                {
                    "rank": m.rank,
                    "a_vector": list(m.a_vec),
                    "rim": list(m.profiles[0].layers[0].elements) if m.rank == 1 else None,
                    "profiles": [[list(r.elements) for r in p.layers]
                                 for p in m.profiles if m.rank > 1],
                    "label": m.label(),
                }
                for m in self.members
            ],
        }


def _seed_rep(seed: Profile, trunc: int) -> tuple[CMModuleRep, OrbitMember]:
    rep = canonical_module(seed, trunc)
    if rep.s == 1:
        if is_projective(seed.layers[0]):
            raise ProjectiveInput(f"{seed} is projective; its orbit is empty")
        return rep, OrbitMember(1, a_vector(seed).entries, (seed,))
    member = _identify(rep)
    if not member.profiles:
        # a projective summand drops out of every syzygy, so the orbit
        # would never return to the seed
        split = decomposition_rank2(rep)
        if split and any(is_projective(r) for r in split):
            raise ProjectiveInput(f"{seed} splits as {split[0]} ⊕ {split[1]}, "
                                  f"which has a projective summand")
    return rep, member


def tau_orbit(start: Union[Rim, Profile], trunc: Optional[int] = None) -> TauOrbit:
    """Orbit of a rank-1 rim or rank-2 profile under the syzygy.

    Computes 2v consecutive syzygies, verifies the orbit closes, and
    reports the least period dividing 2v at which the identified member
    sequence repeats.

    Each step takes the syzygy of an identified member's shared module
    (``canonical_module`` of its first profile), whose syzygy is cached on
    it, rather than of the module just computed.
    This is exact: identification proves the two modules isomorphic, and
    isomorphic modules have isomorphic syzygies.  Members of rank 3 or more
    are not identified and step from the computed module.  A step that
    lands on a rotated view of a module already named takes that name
    rotated (``_identify``).
    """
    n, k = start.n, start.k
    N = default_truncation(n, trunc)
    v = lcm(n, k) // k
    rep, first = _seed_rep(start if isinstance(start, Profile) else Profile((start,)), N)
    members = [first]
    for _ in range(2 * v):
        named = members[-1].profiles
        rep = syzygy(canonical_module(named[0], N) if named else rep)
        members.append(_identify(rep))
    if members.pop() != members[0]:
        raise AssertionError(
            f"orbit of {members[0].label()} did not close after {2 * v} steps")
    period = 2 * v
    for d in _divisors(2 * v):
        if all(members[i] == members[(i + d) % (2 * v)] for i in range(2 * v)):
            period = d
            break
    return TauOrbit(k, n, v, members[:period], period)


def _divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


class ARSequence:
    """Verified data of the AR sequence starting at an a.c. rim."""

    __slots__ = ("left", "right", "middle_profile", "middle_projective_vertex",
                 "middle_extra_layer", "middle_rigid", "middle_indecomposable", "exact")

    def __init__(self, left: Rim, right: Rim, middle_profile: Optional[Profile],
                 middle_projective_vertex: Optional[int], middle_extra_layer: Optional[Rim],
                 middle_rigid: bool, middle_indecomposable: bool, exact: bool) -> None:
        self.left, self.right, self.middle_profile = left, right, middle_profile
        self.middle_projective_vertex = middle_projective_vertex
        self.middle_extra_layer = middle_extra_layer
        self.middle_rigid, self.middle_indecomposable = middle_rigid, middle_indecomposable
        self.exact = exact

    def middle_label(self) -> str:
        if self.middle_profile is not None:
            return self.middle_profile.label()
        return f"P_{self.middle_projective_vertex} + {self.middle_extra_layer.label()}"


def ar_sequence(r: Rim, trunc: Optional[int] = None) -> ARSequence:
    """AR sequence data for an almost consecutive non-projective rim.

    The middle term is built explicitly and checked: it must be rigid,
    the multiplicity vectors must add up (exactness), and it is
    indecomposable exactly when the two-interval decomposition is not the
    degenerate j = i + 2 case.
    """
    if is_projective(r):
        raise ProjectiveInput(f"{r} is projective")
    if is_almost_consecutive(r) is None:
        raise NotAlmostConsecutive(f"{r} is not almost consecutive")
    N = default_truncation(r.n, trunc)
    right = syzygy_rim(r)
    middle = ar_middle_profile(r)
    total = a_vector(Profile((r, right)))
    if middle.decomposes:
        proj = rim([(middle.proj_vertex + i) % r.n + 1 for i in range(r.k)],
                   r.k, r.n)
        rep = direct_sum(build_rank1(proj, N), build_rank1(middle.u, N))
        return ARSequence(
            left=r, right=right, middle_profile=None,
            middle_projective_vertex=middle.proj_vertex,
            middle_extra_layer=middle.u,
            middle_rigid=is_rigid(rep),
            middle_indecomposable=False,
            exact=a_vector(Profile((proj, middle.u))) == total)
    prof = Profile((middle.x, middle.y))
    return ARSequence(
        left=r, right=right, middle_profile=prof,
        middle_projective_vertex=None, middle_extra_layer=None,
        middle_rigid=rigid_indecomposable_rank2(middle.x, middle.y, N) is not None,
        middle_indecomposable=interlacing_degree(middle.x, middle.y) >= 3,
        exact=a_vector(prof) == total)


# ---------------------------------------------------------------------------
# tube census with figure fixtures


class FixtureCheck:
    __slots__ = ("tube", "row", "status", "detail")

    def __init__(self, tube: str, row: int, status: str, detail: str = "") -> None:
        self.tube, self.row = tube, row
        self.status = status  # matched / membership-ok / skipped-unseeded / MISMATCH
        self.detail = detail


class TubeCensusReport:
    __slots__ = ("k", "n", "v", "banner", "orbits", "families", "periods",
                 "mouth_family_periods", "fixture_checks")

    def __init__(self, k: int, n: int, v: int, banner: Optional[str],
                 orbits: list[TauOrbit], families: dict[str, list[int]],
                 periods: dict[int, int], mouth_family_periods: dict[int, int]) -> None:
        self.k, self.n, self.v, self.banner, self.orbits = k, n, v, banner, orbits
        self.families = families      # canonical family key -> orbit indices
        self.periods = periods        # period -> orbit count
        self.mouth_family_periods = mouth_family_periods  # from fixture-matched mouth rows
        self.fixture_checks: list[FixtureCheck] = []

    def to_json_dict(self) -> dict:
        return {
            "k": self.k, "n": self.n, "v": self.v, "banner": self.banner,
            "periods": {str(p): c for p, c in sorted(self.periods.items())},
            "mouth_family_periods": {str(p): c for p, c in
                                     sorted(self.mouth_family_periods.items())},
            "family_count": len(self.families),
            "orbits": [o.to_json_dict() for o in self.orbits],
            "fixture_checks": [
                {"tube": c.tube, "row": c.row, "status": c.status, "detail": c.detail}
                for c in self.fixture_checks],
        }


TAME_PAIRS = ((3, 9), (4, 8))


def _load_fixture(k: int, n: int) -> Optional[dict]:
    name = f"tubes_{k}_{n}.json"
    try:
        return json.loads((Path(__file__).with_name("fixtures") / name).read_text())
    except FileNotFoundError:
        return None


def walk_orbits(seeds: list[Profile], trunc: int) -> list[TauOrbit]:
    """The syzygy orbits of the seeds, in seed order, each orbit once.

    A seed already met as a member of an earlier orbit is skipped.  Rotating
    the quiver is an automorphism, so each rotation class is walked once
    (``modules.per_rotation_class``); the memo lives for this call only.
    """
    walk = per_rotation_class(lambda p, N: tau_orbit(p, trunc=N))
    orbits: list[TauOrbit] = []
    seen: set[Profile] = set()
    for seed in seeds:
        if seed in seen:
            continue
        orbit = walk(seed, trunc)
        orbits.append(orbit)
        for member in orbit.members:
            seen.update(member.profiles)
    return orbits


def attach_orbit_ids(report: CensusReport) -> None:
    """Give each census class the least member label of its syzygy orbit,
    walked at the census truncation."""
    ids: dict[Profile, str] = {}
    for orbit in walk_orbits([e.profile for e in report.rank2_rigid], report.truncation):
        least = min(m.label() for m in orbit.members)
        ids.update((p, least) for m in orbit.members for p in m.profiles)
    for entry in report.rank2_rigid:
        entry.orbit_id = ids[entry.profile]


def tube_census(k: int, n: int, *, trunc: Optional[int] = None) -> TubeCensusReport:
    """Group rank-1 rims and rigid rank-2 classes into syzygy orbits.

    The rank-2 seeds come from a census computed here at the same
    truncation.  For the tame pairs the computed orbits are compared
    against the golden tube tables; other parameters are served with
    orbits only.  Every period divides 2v, as ``tau_orbit`` reads it off
    the divisors of 2v.
    """
    N = default_truncation(n, trunc)
    v = lcm(n, k) // k
    banner = None if (k, n) in TAME_PAIRS else "non-tame: orbits only"
    seeds = [Profile((r,)) for r in all_rims(k, n) if not is_projective(r)]
    if k >= 3:
        seeds += [entry.profile for entry in run_census(k, n, trunc=N).rank2_rigid]
    orbits = walk_orbits(seeds, N)
    orbits.sort(key=lambda o: min(m.label() for m in o.members))

    periods: dict[int, int] = {}
    for o in orbits:
        periods[o.period] = periods.get(o.period, 0) + 1

    families: dict[str, list[int]] = {}
    for i, o in enumerate(orbits):
        families.setdefault(_family_key(o), []).append(i)

    report = TubeCensusReport(
        k=k, n=n, v=v, banner=banner, orbits=orbits, families=families,
        periods=periods, mouth_family_periods={})
    fixture = _load_fixture(k, n)
    if fixture is not None and banner is None:
        _check_fixture(report, fixture, N)
    return report


def _family_key(o: TauOrbit) -> str:
    best = None
    for m_rot in range(o.n):
        labels = [mem.rotate(m_rot, o.n).label() for mem in o.members]
        for start in range(len(labels)):
            cyc = tuple(labels[(start + i) % len(labels)] for i in range(len(labels)))
            cand = "|".join(cyc)
            if best is None or cand < best:
                best = cand
    return best or ""


def _entry_matches(entry: dict, member: OrbitMember, k: int, n: int) -> bool:
    if "rim" in entry:
        return Profile((rim(entry["rim"], k, n),)) in member.profiles
    if "profile" in entry:
        return Profile(tuple(rim(ls, k, n) for ls in entry["profile"])) in member.profiles
    if "rank" in entry:
        if member.rank != entry["rank"]:
            return False
        if "layers" in entry:
            layers = [rim(ls, k, n) for ls in entry["layers"]]
            expected = a_vector(Profile(tuple(layers))).entries
            return member.a_vec == expected
        return True
    return False


def _entry_is_seedable(entry: dict) -> bool:
    return "rim" in entry or "profile" in entry


def _check_fixture(report: TubeCensusReport, fixture: dict, trunc: int) -> None:
    k, n = report.k, report.n
    for tube in fixture["tubes"]:
        name = tube["name"]
        if tube.get("membership_only"):
            for pr in tube.get("projectives", []):
                ok = is_projective(rim(pr, k, n))
                report.fixture_checks.append(FixtureCheck(
                    name, -1, "membership-ok" if ok else "MISMATCH",
                    f"projective {pr}"))
            for entry in tube.get("members", []):
                found = any(
                    any(_entry_matches(entry, m, k, n) for m in o.members)
                    for o in report.orbits)
                report.fixture_checks.append(FixtureCheck(
                    name, -1, "membership-ok" if found else "MISMATCH",
                    json.dumps(entry, sort_keys=True)))
            continue
        for row_idx, row in enumerate(tube.get("rows", [])):
            entries = row["members"]
            if not any(_entry_is_seedable(e) for e in entries):
                report.fixture_checks.append(FixtureCheck(
                    name, row_idx, "skipped-unseeded",
                    "row shows only rank >= 3 modules"))
                continue
            matched = _match_row_to_orbit(report, entries, row.get("period"), k, n)
            status = "matched" if matched is not None else "MISMATCH"
            detail = f"orbit #{matched}" if matched is not None else \
                "no computed orbit aligns with this row"
            report.fixture_checks.append(FixtureCheck(name, row_idx, status, detail))
            if matched is not None and row.get("mouth"):
                p = report.orbits[matched].period
                report.mouth_family_periods[p] = \
                    report.mouth_family_periods.get(p, 0) + 1


def _match_row_to_orbit(report: TubeCensusReport, entries: list[dict],
                        period: Optional[int], k: int, n: int) -> Optional[int]:
    for idx, orbit in enumerate(report.orbits):
        if period is not None and orbit.period != period:
            continue
        p = orbit.period
        if len(entries) > p:
            continue
        for start in range(p):
            if all(_entry_matches(entries[i], orbit.members[(start + i) % p], k, n)
                   for i in range(len(entries))):
                return idx
    return None


def write_tube_report(report: TubeCensusReport, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"tubes-{report.k}-{report.n}.json"
    path.write_text(json.dumps(report.to_json_dict(), indent=1, sort_keys=True))
    return path
