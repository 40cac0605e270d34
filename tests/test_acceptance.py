"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Each criterion is exercised at its stated scale and tolerance (everything
here is exact arithmetic, so tolerances are equalities); the stated
runtime budgets are asserted on the measured wall clock.
"""

import random
import time

import pytest

from grasscat import homology, modules
from grasscat.census import RANK3_LITERATURE, conjecture_verdicts, run_census
from grasscat.homology import ext1
from grasscat.modules import (Profile, build_layered, build_rank1,
                              identify_rank1, validate_relations)
from grasscat.rims import (all_rims, classify_pair, interlacing_degree,
                           is_almost_consecutive, is_projective, peaks, rim,
                           shift, slopes, syzygy_rim)
from grasscat.roots import enumerate_degree2_real_roots
from grasscat.tubes import ar_sequence, tube_census
from oracles import crossing


def _line(num: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


AMBIENTS_1 = [(2, 5), (3, 6), (3, 7), (3, 8), (3, 9), (4, 8), (4, 9)]


def test_criterion_1_relation_validation():
    t0 = time.time()
    rng = random.Random(20240817)
    for k, n in AMBIENTS_1:
        rims_all = all_rims(k, n)
        for r in rims_all:
            assert validate_relations(build_rank1(r)) == [], r
        for _ in range(500):
            a, b = rng.choice(rims_all), rng.choice(rims_all)
            assert validate_relations(build_layered([a, b])) == [], (a, b)
    elapsed = time.time() - t0
    _line(1, elapsed < 60,
          f"every rank-1 module and 500 random layered pairs validate over "
          f"{len(AMBIENTS_1)} ambients in {elapsed:.1f}s (< 60s)")


def test_criterion_2_syzygy_identities():
    t0 = time.time()
    checked_sq = checked_ac = 0
    for k, n in [(3, 9), (4, 8)]:
        from grasscat.homology import syzygy
        for r in all_rims(k, n):
            if is_projective(r):
                continue
            om2 = syzygy(syzygy(build_rank1(r)))
            assert identify_rank1(om2) == shift(r, k), r
            checked_sq += 1
            if is_almost_consecutive(r) is not None:
                om = syzygy(build_rank1(r))
                assert identify_rank1(om) == syzygy_rim(r), r
                checked_ac += 1
    elapsed = time.time() - t0
    _line(2, elapsed < 300,
          f"double syzygy equals the +k shift for {checked_sq} rims and the "
          f"rim formula matches for {checked_ac} a.c. rims in {elapsed:.1f}s (< 5min)")


def _ext_sweep(k, n):
    """Exponent table for all ordered rim pairs, stability-checked.

    The modules come from the ``build_rank1`` memo at N and at N + 2, so
    each rotation class is resolved once per truncation and the other rims
    of the class are views of it; the two truncations check stability, not
    the memo.  Modules that never touched the memo are the oracle of
    ``test_homology.TestCanonicalExt`` and ``TestExtRotationEquivariance``.
    """
    N = 2 * n
    rims_all = all_rims(k, n)
    reps = {r: build_rank1(r, N) for r in rims_all}
    reps2 = {r: build_rank1(r, N + 2) for r in rims_all}
    table = {}
    for a in rims_all:
        for b in rims_all:
            e1 = ext1(reps[a], reps[b]).exponents
            e2 = ext1(reps2[a], reps2[b]).exponents
            assert e1 == e2, f"truncation instability at {a},{b}"
            table[(a, b)] = e1
    return table


SWEEP_AMBIENTS = [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9),
                  (3, 6), (3, 7), (3, 8), (3, 9), (4, 8), (4, 9)]


@pytest.fixture(scope="module")
def ext_tables():
    t0 = time.time()
    tables = {pair: _ext_sweep(*pair) for pair in SWEEP_AMBIENTS}
    tables["elapsed"] = time.time() - t0
    return tables


def test_criterion_3a_ext_vanishing_iff_noncrossing(ext_tables):
    pairs = 0
    for (k, n) in SWEEP_AMBIENTS:
        for (a, b), exps in ext_tables[(k, n)].items():
            assert (len(exps) == 0) == (not crossing(a, b)), (a, b)
            pairs += 1
    _line(3, True,
          f"(a) Ext1 = 0 iff non-crossing over {pairs} ordered pairs, "
          f"all ambients with n <= 9 "
          f"(sweep took {ext_tables['elapsed']:.0f}s, budget 30min total)")


def test_criterion_3b_two_peak_min_slope(ext_tables):
    from grasscat.homology import syzygy
    checked = 0
    for k, n in [(3, 8), (3, 9), (4, 8)]:
        for r in all_rims(k, n):
            if is_projective(r) or len(peaks(r)) != 2:
                continue
            j = identify_rank1(syzygy(build_rank1(r)))
            exps = ext_tables[(k, n)][(r, j)]
            assert exps == (slopes(r).min_slope,), (r, j, exps)
            checked += 1
    _line(3, True, f"(b) Ext1(L_I, syzygy) has the exact minimal-slope "
                   f"exponent for {checked} two-peak rims")


def test_criterion_3c_exponent_count(ext_tables):
    checked = 0
    for (a, b), exps in ext_tables[(3, 9)].items():
        if a == b:
            continue
        r = interlacing_degree(a, b)
        assert len(exps) == r - 1, (a, b, r, exps)
        checked += 1
    _line(3, True, f"(c) cyclic factor count is r-1 for {checked} "
                   f"distinct pairs over (3,9)")


def test_criterion_3d_dimension_symmetry(ext_tables):
    checked = 0
    for k, n in [(3, 9), (4, 8)]:
        table = ext_tables[(k, n)]
        rims_all = all_rims(k, n)
        for i, a in enumerate(rims_all):
            for b in rims_all[i + 1:]:
                assert sum(table[(a, b)]) == sum(table[(b, a)]), (a, b)
                checked += 1
    _line(3, True, f"(d) dim Ext1 is symmetric on {checked} unordered pairs "
                   f"over (3,9) and (4,8)")


def test_criterion_4_ar_sequences():
    t0 = time.time()
    checked = degenerate = 0
    for k, n in [(3, 8), (3, 9)]:
        for r in all_rims(k, n):
            dec = is_almost_consecutive(r)
            if is_projective(r) or dec is None:
                continue
            i, j = dec
            seq = ar_sequence(r)
            assert seq.middle_rigid, r
            assert seq.exact, r
            assert seq.right == syzygy_rim(r)
            if (j - (i + 2)) % n == 0:
                assert not seq.middle_indecomposable
                assert seq.middle_projective_vertex == i
                u_expected = rim(
                    [i] + [(i + d - 1) % n + 1 for d in range(2, k)] + [(i + k) % n + 1],
                    k, n)
                assert seq.middle_extra_layer == u_expected, r
                degenerate += 1
            else:
                assert seq.middle_indecomposable, r
            checked += 1
    _line(4, True,
          f"AR middles rigid+exact for {checked} a.c. rims over (3,8),(3,9); "
          f"{degenerate} degenerate cases decompose per the closed form "
          f"({time.time() - t0:.0f}s)")


def test_criterion_5_root_counts():
    t0 = time.time()
    expected = {(3, 6): 1, (3, 7): 7, (3, 8): 28, (3, 9): 84, (4, 8): 56}
    for (k, n), count in expected.items():
        assert len(enumerate_degree2_real_roots(k, n)) == count, (k, n)
    elapsed = time.time() - t0
    _line(5, elapsed < 10,
          f"degree-2 real root counts 1/7/28/84/56 exact in {elapsed:.2f}s (< 10s)")


def test_criterion_6_censuses(census_reports):
    expected = {(3, 6): 2, (3, 7): 14, (3, 8): 56, (3, 9): 168, (4, 8): 120}
    for pair, count in expected.items():
        rep = census_reports[pair]
        assert rep.counts()["rank2_rigid"] == count, pair
        assert rep.fixture_diffs == [], pair
    rep48 = census_reports[(4, 8)]
    counts = rep48.counts()
    assert (counts["real"], counts["imaginary"]) == (112, 8)
    base = Profile((rim([1, 2, 4, 6], 4, 8), rim([3, 5, 7, 8], 4, 8)))
    orbit_labels = {base.shift(m).label() for m in range(8)}
    imag = [e for e in rep48.rank2_rigid if e.classification == "imaginary"]
    covered = set()
    for e in imag:
        covered |= {p.label() for p in e.profiles} & orbit_labels
    assert covered == orbit_labels
    total = sum(census_reports["timings"].values())
    tame = census_reports["timings"][(3, 9)] + census_reports["timings"][(4, 8)]
    _line(6, tame < 3600,
          f"census counts 2/14/56/168/120 with the (4,8) split 112+8 in one "
          f"shift-orbit; (3,9)+(4,8) took {tame:.0f}s (< 60min), all runs {total:.0f}s")


def test_criterion_6_smoke_mode():
    # the full census is the smoke run: from empty module memos, (4,8) in < 2 min
    homology._rank2_walk.cache_clear()
    modules._rank1.cache_clear()
    t0 = time.time()
    rep = run_census(4, 8)
    elapsed = time.time() - t0
    _line(6, rep.counts()["rank2_rigid"] == 120 and elapsed < 120,
          f"full census over (4,8) from empty memos in {elapsed:.1f}s (< 2min)")


def test_criterion_7_cyclic_filtrations(census_reports):
    for k, n in [(3, 9), (4, 8)]:
        rep = census_reports[(k, n)]
        real = [e for e in rep.rank2_rigid if e.classification == "real"]
        tight_labels = set()
        for e in real:
            tights = [p for p in e.profiles if classify_pair(*p.layers).tight]
            assert len(tights) == 1
            tight_labels.add(tights[0].label())
        # swap closure on the real-root entries
        for e in real:
            p = next(q for q in e.profiles if classify_pair(*q.layers).tight)
            assert Profile(p.layers[::-1]).label() in tight_labels, p
        # the multiplicity-vector fiber over every degree-2 real root is 2
        fibers = {}
        for e in real:
            fibers.setdefault(e.a_vec, 0)
            fibers[e.a_vec] += 1
        roots = {v.entries for v in enumerate_degree2_real_roots(k, n)}
        assert set(fibers) == roots
        assert all(c == 2 for c in fibers.values())
    _line(7, True,
          "real-root census entries are closed under layer swap and hit every "
          "degree-2 real root exactly twice at (3,9) and (4,8)")


def test_criterion_8_periodicity_and_fixtures(tube_reports):
    for (k, n), two_v in [((3, 9), 6), ((4, 8), 4)]:
        rep = tube_reports[(k, n)]
        assert all(two_v % p == 0 for p in rep.periods), rep.periods
        assert rep.periods.get(two_v, 0) >= 1
        assert all(c.status != "MISMATCH" for c in rep.fixture_checks)
        matched = sum(1 for c in rep.fixture_checks
                      if c.status in ("matched", "membership-ok"))
        assert matched > 0
    t39 = tube_reports["timings"][(3, 9)]
    t48 = tube_reports["timings"][(4, 8)]
    _line(8, True,
          f"all orbit periods divide 2v and the golden tube tables "
          f"match computed orbits up to rotation "
          f"((3,9): {t39:.0f}s, (4,8): {t48:.0f}s)")


def test_criterion_9_substituted_properties(census_reports):
    # rank-3 counts are literature fixtures, recorded but not derived here
    assert RANK3_LITERATURE == {(3, 9): 117, (4, 8): 82}
    blob39 = census_reports[(3, 9)].to_json_dict()
    assert blob39["rank3_literature_unverified"] == 117
    blob48 = census_reports[(4, 8)].to_json_dict()
    assert blob48["rank3_literature_unverified"] == 82
    # the translate-inverse identification is definitional for orbit code;
    # its consequences (period dividing 2v, double-syzygy shift) are the
    # properties tested by criteria 2 and 8
    _line(9, True,
          "rank-3 counts 117/82 recorded as unverified fixtures; "
          "homogeneous-tube claims and the translate identification are "
          "covered by the invariant suites (criteria 2 and 8) instead")


# Past the tame pairs the paper stops at: counts this program computes, which
# no literature checks.  Kept apart from census.CENSUS_TABLE, the paper's values.
COMPUTED_CENSUS_TABLE = {
    (4, 9): {"rank1": 126, "rank2_rigid": 576, "real": 504, "imaginary": 72},
    (3, 10): {"rank1": 120, "rank2_rigid": 420, "real": 420, "imaginary": 0},
}


@pytest.fixture(scope="module")
def wild_census_reports():
    return {pair: run_census(*pair) for pair in COMPUTED_CENSUS_TABLE}


def test_criterion_6_computed_censuses_past_the_tame_pairs(wild_census_reports):
    for pair, counts in COMPUTED_CENSUS_TABLE.items():
        rep = wild_census_reports[pair]
        assert rep.counts() == counts, pair
        assert rep.fixture_diffs == [], pair
        verdicts = conjecture_verdicts(rep)
        assert all(verdicts.values()), (pair, verdicts)
    _line(6, True,
          "computed censuses 576 = 504 + 72 at (4,9) and 420 = 420 + 0 at (3,10), "
          "every conjecture check true")


def test_criterion_7_real_root_fibres_past_the_tame_pairs(wild_census_reports):
    for (k, n), roots in [((4, 9), 252), ((3, 10), 210)]:
        fibers = {}
        for e in wild_census_reports[(k, n)].rank2_rigid:
            if e.classification == "real":
                fibers[e.a_vec] = fibers.get(e.a_vec, 0) + 1
        assert set(fibers) == {v.entries for v in enumerate_degree2_real_roots(k, n)}
        assert len(fibers) == roots and set(fibers.values()) == {2}, (k, n)
    _line(7, True, "every degree-2 real root carries exactly two rigid classes: "
                   "252 roots at (4,9) and 210 at (3,10)")


def test_criterion_8_periodicity_past_the_tame_pairs():
    rep = tube_census(3, 10)
    members = [m for o in rep.orbits for m in o.members]
    assert 2 * rep.v == 20
    assert rep.periods == {20: 35}
    assert len(members) == 700
    assert sum(1 for m in members if not m.profiles) == 170
    _line(8, True, "35 orbits at (3,10), all of period 2v = 20, with 170 of "
                   "their 700 members unidentified")
