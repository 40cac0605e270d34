"""Exhaustive rigid-module censuses at desk scale.

Candidates are ordered rim pairs (I, J) with interlacing degree at least 3
(lower degrees never give indecomposable two-layer modules).  For each
candidate the canonical extension of the top layer by the bottom one is
built and tested for rigidity and indecomposability; the surviving
candidates are grouped into isomorphism classes, since a module may admit
more than one such filtration, and the classes are what the counts mean.
"""

from __future__ import annotations

import json
import random
import sys
from math import comb
from pathlib import Path
from typing import Optional

from . import __version__ as _pkg_version
from .homology import is_isomorphic, is_rigid, rigid_indecomposable_rank2
from .modules import (CMModuleRep, Profile, a_vector, build_layered,
                      default_truncation)
from .rims import Rim, all_rims, classify_pair, interlacing_degree, rim, shift
from .roots import RootVector, classify_root_vector, expected_rigid_rank2_count

# rank-1 and rank-2 rigid counts reproduced by the computation
CENSUS_TABLE = {
    (3, 6): {"rank1": 20, "rank2_rigid": 2, "real": 2, "imaginary": 0},
    (3, 7): {"rank1": 35, "rank2_rigid": 14, "real": 14, "imaginary": 0},
    (3, 8): {"rank1": 56, "rank2_rigid": 56, "real": 56, "imaginary": 0},
    (3, 9): {"rank1": 84, "rank2_rigid": 168, "real": 168, "imaginary": 0},
    (4, 8): {"rank1": 70, "rank2_rigid": 120, "real": 112, "imaginary": 8},
}

# literature values for rank-3 rigid counts in the tame cases; recorded for
# reference only, no computation here reproduces them
RANK3_LITERATURE = {(3, 9): 117, (4, 8): 82}

# a 3-interlacing non-tight filtration whose class must coincide with one of
# the eight imaginary-type classes instead of enlarging the census
NEGATIVE_CONTROL_48 = ((1, 2, 4, 7), (3, 5, 6, 8))


class CensusEntry:
    """One isomorphism class of rigid indecomposable rank-2 modules."""

    __slots__ = ("profiles", "a_vec", "classification", "orbit_id")

    def __init__(self, profiles: tuple[Profile, ...], a_vec: tuple[int, ...],
                 classification: str, orbit_id: Optional[str] = None) -> None:
        self.profiles = profiles              # all r >= 3 filtrations found
        self.a_vec = a_vec
        self.classification = classification  # real / imaginary
        self.orbit_id = orbit_id

    @property
    def profile(self) -> Profile:
        return self.profiles[0]


class CensusReport:
    __slots__ = ("k", "n", "truncation", "rank1_count", "candidates_tested",
                 "candidate_verdicts", "rank2_rigid", "sampled", "fixture_diffs", "notes")

    def __init__(self, k: int, n: int, truncation: int, rank1_count: int,
                 candidates_tested: int, candidate_verdicts: dict[tuple[Rim, Rim], bool],
                 rank2_rigid: list[CensusEntry], sampled: bool,
                 fixture_diffs: Optional[list[str]] = None,
                 notes: Optional[list[str]] = None) -> None:
        self.k, self.n, self.truncation = k, n, truncation
        self.rank1_count, self.candidates_tested = rank1_count, candidates_tested
        self.candidate_verdicts, self.rank2_rigid = candidate_verdicts, rank2_rigid
        self.sampled = sampled
        self.fixture_diffs = [] if fixture_diffs is None else fixture_diffs
        self.notes = [] if notes is None else notes

    def counts(self) -> dict[str, int]:
        real = sum(1 for e in self.rank2_rigid if e.classification == "real")
        imag = sum(1 for e in self.rank2_rigid if e.classification == "imaginary")
        return {
            "rank1": self.rank1_count,
            "rank2_rigid": len(self.rank2_rigid),
            "real": real,
            "imaginary": imag,
        }

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "truncation": self.truncation,
            "version": _pkg_version,
            "rank1_count": self.rank1_count,
            "candidates_tested": self.candidates_tested,
            "sampled": self.sampled,
            "counts": self.counts(),
            "rank2_rigid": [
                {
                    "profiles": [[list(r.elements) for r in p.layers]
                                 for p in e.profiles],
                    "a_vector": list(e.a_vec),
                    "classification": e.classification,
                    "orbit_id": e.orbit_id,
                }
                for e in self.rank2_rigid
            ],
            "rank3_literature_unverified": RANK3_LITERATURE.get((self.k, self.n)),
            "fixture_diffs": self.fixture_diffs,
            # a copy: a note added after the cache record is built stays out of it
            "notes": list(self.notes),
        }


def rank2_candidates(k: int, n: int) -> list[tuple[Rim, Rim]]:
    """Ordered rim pairs with interlacing degree >= 3, in sorted order."""
    rims = all_rims(k, n)
    out = []
    for a in rims:
        for b in rims:
            if a != b and interlacing_degree(a, b) >= 3:
                out.append((a, b))
    return out


def run_census(k: int, n: int, *, trunc: Optional[int] = None,
               sample: Optional[float] = None, seed: int = 0,
               cache_dir: Optional[Path] = None,
               refresh: bool = False,
               progress: bool = False) -> CensusReport:
    """Full (or sampled) rigid rank-2 census over one ambient.

    A sampled run only certifies the tested candidates; class grouping and
    fixture comparison are reserved for full runs.  Orbit ids are left
    unset, so the cache never holds them.  The cache file is the printed
    payload plus every candidate's verdict, which the conjecture checks
    read.
    """
    if not 3 <= k <= n // 2:
        raise ValueError(f"need 3 <= k <= n/2, got k={k}, n={n}")
    N = default_truncation(n, trunc)

    cache_path = None
    if cache_dir is not None and sample is None:
        cache_path = Path(cache_dir) / f"census-{k}-{n}.json"
        if cache_path.exists() and not refresh:
            cached = _load_cache(cache_path, k, n, N)
            if cached is not None:
                return cached

    rims = all_rims(k, n)
    candidates = rank2_candidates(k, n)
    chosen = candidates
    sampled = False
    if sample is not None:
        rng = random.Random(seed)
        count = max(1, int(len(candidates) * sample))
        chosen = sorted(rng.sample(candidates, count))
        sampled = True

    verdicts: dict[tuple[Rim, Rim], bool] = {}
    rigid: list[tuple[Profile, CMModuleRep]] = []
    for i, (a, b) in enumerate(chosen):
        rep = rigid_indecomposable_rank2(a, b, N)
        verdicts[(a, b)] = rep is not None
        if rep is not None:
            rigid.append((Profile((a, b)), rep))
        if progress and ((i + 1) % 25 == 0 or i + 1 == len(chosen)):
            print(f"  census ({k},{n}): {i + 1}/{len(chosen)} candidates",
                  file=sys.stderr)

    report = CensusReport(
        k=k, n=n, truncation=N, rank1_count=len(rims),
        candidates_tested=len(chosen), candidate_verdicts=verdicts,
        rank2_rigid=[], sampled=sampled)

    if not sampled:
        report.rank2_rigid = _group_classes(k, rigid)
        report.fixture_diffs = _fixture_diffs(report)
    if cache_path is not None and not sampled:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        record = report.to_json_dict()
        record["candidate_verdicts"] = [[list(a.elements), list(b.elements), ok]
                                        for (a, b), ok in verdicts.items()]
        if cache_path.exists():
            previous = json.loads(cache_path.read_text())
            # a cache written before verdicts were recorded compares its payload only
            previous.setdefault("candidate_verdicts", record["candidate_verdicts"])
            if previous != record:
                report.notes.append("cache diff: recomputed census differs from cache")
        cache_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return report


def _group_classes(k: int, rigid: list[tuple[Profile, CMModuleRep]]) -> list[CensusEntry]:
    """Group the rigid filtrations, with their modules, into isomorphism classes."""
    by_avec: dict[tuple[int, ...], list[tuple[Profile, CMModuleRep]]] = {}
    for p, rep in rigid:
        by_avec.setdefault(a_vector(p).entries, []).append((p, rep))
    entries: list[CensusEntry] = []
    for avec in sorted(by_avec):
        reps: list[tuple[list[Profile], CMModuleRep]] = []
        for p, rep in sorted(by_avec[avec], key=lambda pr: pr[0].label()):
            for members, existing in reps:
                if is_isomorphic(rep, existing):
                    members.append(p)
                    break
            else:
                reps.append(([p], rep))
        for members, _ in reps:
            entries.append(CensusEntry(
                profiles=tuple(members), a_vec=avec,
                classification=classify_root_vector(RootVector(avec, k))))
    entries.sort(key=lambda e: e.profile.label())
    return entries


def _fixture_diffs(report: CensusReport) -> list[str]:
    expected = CENSUS_TABLE.get((report.k, report.n))
    if expected is None:
        return []
    diffs = []
    got = report.counts()
    for key, val in expected.items():
        if got.get(key) != val:
            diffs.append(f"{key}: expected {val}, computed {got.get(key)}")
    if comb(report.n, report.k) != report.rank1_count:
        diffs.append("rank1 count mismatch with binomial coefficient")
    return diffs


class ConjectureReport:
    __slots__ = ("k", "n", "tight_pairs_all_rigid", "tight_pair_failures",
                 "r_ge_4_all_nonrigid", "r_ge_4_failures", "real_count_matches_formula",
                 "real_count", "formula_count")

    def __init__(self, k: int, n: int, tight_pairs_all_rigid: bool,
                 tight_pair_failures: list[str], r_ge_4_all_nonrigid: bool,
                 r_ge_4_failures: list[str], real_count_matches_formula: bool,
                 real_count: int, formula_count: int) -> None:
        self.k, self.n = k, n
        self.tight_pairs_all_rigid = tight_pairs_all_rigid
        self.tight_pair_failures = tight_pair_failures
        self.r_ge_4_all_nonrigid, self.r_ge_4_failures = r_ge_4_all_nonrigid, r_ge_4_failures
        self.real_count_matches_formula = real_count_matches_formula
        self.real_count, self.formula_count = real_count, formula_count

    def verdicts(self) -> dict[str, bool]:
        return {
            "tight_3_interlacing_pairs_are_rigid": self.tight_pairs_all_rigid,
            "poset_r_ge_4_never_rigid": self.r_ge_4_all_nonrigid,
            "real_root_count_formula": self.real_count_matches_formula,
        }


def verify_conjectures(k: int, n: int, *, report: Optional[CensusReport] = None,
                       trunc: Optional[int] = None) -> ConjectureReport:
    """Check the three counting statements across one ambient."""
    report = report or run_census(k, n, trunc=trunc)
    tight_failures = []
    r4_failures = []
    for (a, b), ok in report.candidate_verdicts.items():
        cls = classify_pair(a, b)
        if cls.tight and not ok:
            tight_failures.append(f"{a}|{b}")
        if cls.interlacing_degree >= 4 and ok:
            r4_failures.append(f"{a}|{b}")
    real = sum(1 for e in report.rank2_rigid if e.classification == "real")
    formula = expected_rigid_rank2_count(k, n)
    return ConjectureReport(
        k=k, n=n,
        tight_pairs_all_rigid=not tight_failures,
        tight_pair_failures=tight_failures,
        r_ge_4_all_nonrigid=not r4_failures,
        r_ge_4_failures=r4_failures,
        real_count_matches_formula=(real == formula) if not report.sampled else False,
        real_count=real, formula_count=formula)


def negative_control_48(trunc: Optional[int] = None) -> dict:
    """The non-tight disjoint filtration 1247|3568 must not enlarge the census.

    The layered sigma-construction on this pair is not rigid (raw verdict
    logged); an extension realisation exists but coincides with one of the
    eight imaginary-type classes.
    """
    a, b = rim(NEGATIVE_CONTROL_48[0], 4, 8), rim(NEGATIVE_CONTROL_48[1], 4, 8)
    layered = build_layered([a, b], trunc)
    raw = is_rigid(layered)
    rep = rigid_indecomposable_rank2(a, b, trunc)
    same_class = None
    if rep is not None:
        base = rim((1, 2, 4, 6), 4, 8), rim((3, 5, 7, 8), 4, 8)
        for m in range(8):
            known = rigid_indecomposable_rank2(shift(base[0], m), shift(base[1], m), trunc)
            if known is not None and is_isomorphic(rep, known):
                same_class = f"{shift(base[0], m)}|{shift(base[1], m)}"
                break
    return {
        "pair": "1247|3568",
        "layered_sigma_is_rigid": raw,
        "extension_class_coincides_with": same_class,
    }


def _load_cache(path: Path, k: int, n: int, trunc: int) -> Optional[CensusReport]:
    """The cached report, or None when the cache is stale or cannot be rebuilt into one."""
    try:
        data = json.loads(path.read_text())
        stamp = (data.get("k"), data.get("n"), data.get("truncation"), data.get("version"))
        # a cache written before verdicts were recorded is stale too
        if stamp != (k, n, trunc, _pkg_version) or "candidate_verdicts" not in data:
            return None
        entries = []
        for e in data.get("rank2_rigid", []):
            profiles = tuple(
                Profile(tuple(rim(layer, k, n) for layer in prof))
                for prof in e["profiles"])
            entries.append(CensusEntry(
                profiles=profiles, a_vec=tuple(e["a_vector"]),
                classification=e["classification"]))
        verdicts = {(rim(a, k, n), rim(b, k, n)): ok for a, b, ok in data["candidate_verdicts"]}
        if not all(isinstance(ok, bool) for ok in verdicts.values()):
            return None
        return CensusReport(
            k=k, n=n, truncation=trunc,
            rank1_count=data["rank1_count"],
            candidates_tested=data["candidates_tested"],
            candidate_verdicts=verdicts, rank2_rigid=entries,
            sampled=False, fixture_diffs=data.get("fixture_diffs", []),
            notes=["loaded from cache"])
    except (OSError, AttributeError, KeyError, TypeError, ValueError):
        return None
