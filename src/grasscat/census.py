"""Exhaustive rigid-module censuses at desk scale.

Candidates are ordered rim pairs (I, J) with interlacing degree at least 3
(lower degrees never give indecomposable two-layer modules).  For each
candidate the canonical extension of the top layer by the bottom one is
built and tested for rigidity and indecomposability.  A module may admit
more than one such filtration, so the surviving candidates are named by
the orbit identifier (``homology._identify``), whose profiles are the
module's isomorphism class; the classes are what the counts mean.
"""

from __future__ import annotations

import sys
from math import comb
from typing import Optional

from . import __version__ as _pkg_version
from .homology import _identify, rigid_indecomposable_rank2
from .modules import CMModuleRep, Profile, default_truncation
from .rims import Rim, all_rims, classify_pair, interlacing_degree
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
    """A census, with its comparison against ``CENSUS_TABLE``."""

    __slots__ = ("k", "n", "truncation", "rank1_count", "candidates_tested",
                 "candidate_verdicts", "rank2_rigid", "fixture_diffs")

    def __init__(self, k: int, n: int, truncation: int, rank1_count: int,
                 candidates_tested: int, candidate_verdicts: dict[tuple[Rim, Rim], bool],
                 rank2_rigid: list[CensusEntry]) -> None:
        self.k, self.n, self.truncation = k, n, truncation
        self.rank1_count, self.candidates_tested = rank1_count, candidates_tested
        self.candidate_verdicts, self.rank2_rigid = candidate_verdicts, rank2_rigid
        self.fixture_diffs = _fixture_diffs(self)

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
        """The report as JSON.  ``sampled`` is always false, since every
        candidate is tested; the key stays while ``perfbench`` compares it."""
        return {
            "k": self.k,
            "n": self.n,
            "truncation": self.truncation,
            "version": _pkg_version,
            "rank1_count": self.rank1_count,
            "candidates_tested": self.candidates_tested,
            "sampled": False,
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
        }


def rank2_candidates(k: int, n: int) -> list[tuple[Rim, Rim]]:
    """Ordered rim pairs with interlacing degree >= 3, in sorted order.

    The degree is symmetric, so each unordered pair is tested once; each
    rim's partners are then appended in increasing order, the smaller ones
    first.
    """
    rims = all_rims(k, n)
    partners: list[list[Rim]] = [[] for _ in rims]
    for i, a in enumerate(rims):
        for j in range(i + 1, len(rims)):
            if interlacing_degree(a, rims[j]) >= 3:
                partners[i].append(rims[j])
                partners[j].append(a)
    return [(a, b) for a, bs in zip(rims, partners) for b in bs]


def run_census(k: int, n: int, *, trunc: Optional[int] = None,
               progress: bool = False) -> CensusReport:
    """The rigid rank-2 census over one ambient, computed on every call:
    nothing is read from or written to disk.

    One pass: every candidate's ladder walk, then the classes, then the
    comparison with ``CENSUS_TABLE``.  The rigid filtrations are walked in
    label order, and each one that no earlier class holds is named by
    ``_identify``, whose profiles are its class.  That is exact: it
    compares the module with the canonical module of every split of its
    a-vector of interlacing degree at least 3, and a split whose canonical
    module is isomorphic to a rigid indecomposable module is itself a
    rigid candidate, since its walk returns that module.  Orbit ids are
    left unset (``tubes.attach_orbit_ids`` fills them).  Every candidate's
    verdict is kept in memory for the conjecture checks.
    """
    if not 3 <= k <= n // 2:
        raise ValueError(f"need 3 <= k <= n/2, got k={k}, n={n}")
    N = default_truncation(n, trunc)
    candidates = rank2_candidates(k, n)
    verdicts: dict[tuple[Rim, Rim], bool] = {}
    rigid: list[tuple[Profile, CMModuleRep]] = []
    for i, (a, b) in enumerate(candidates):
        rep = rigid_indecomposable_rank2(a, b, N)
        verdicts[(a, b)] = rep is not None
        if rep is not None:
            rigid.append((Profile((a, b)), rep))
        if progress and ((i + 1) % 25 == 0 or i + 1 == len(candidates)):
            print(f"  census ({k},{n}): {i + 1}/{len(candidates)} candidates",
                  file=sys.stderr)

    entries: list[CensusEntry] = []
    placed: set[Profile] = set()
    for p, rep in sorted(rigid, key=lambda pr: pr[0].label()):
        if p in placed:
            continue
        member = _identify(rep)
        if p not in member.profiles:
            raise AssertionError(f"{p} is not among the profiles of its own module")
        placed.update(member.profiles)
        entries.append(CensusEntry(member.profiles, member.a_vec,
                                   classify_root_vector(RootVector(member.a_vec, k))))
    return CensusReport(k=k, n=n, truncation=N, rank1_count=len(all_rims(k, n)),
                        candidates_tested=len(candidates), candidate_verdicts=verdicts,
                        rank2_rigid=entries)


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


def conjecture_verdicts(report: CensusReport) -> dict[str, bool]:
    """The three counting statements, checked across one census's ambient."""
    verdicts = [(classify_pair(a, b), ok) for (a, b), ok in report.candidate_verdicts.items()]
    real = sum(1 for e in report.rank2_rigid if e.classification == "real")
    return {
        "tight_3_interlacing_pairs_are_rigid": all(ok for cls, ok in verdicts if cls.tight),
        "poset_r_ge_4_never_rigid": not any(ok for cls, ok in verdicts
                                            if cls.interlacing_degree >= 4),
        "real_root_count_formula": real == expected_rigid_rank2_count(report.k, report.n),
    }
