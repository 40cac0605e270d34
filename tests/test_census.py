import pytest

from grasscat import census, homology, modules
from grasscat.census import (CENSUS_TABLE, RANK3_LITERATURE, conjecture_verdicts,
                             rank2_candidates, run_census)
from grasscat.homology import rigid_indecomposable_rank2
from grasscat.modules import Profile, build_rank1
from grasscat.rims import (all_rims, classify_pair, interlacing_degree, least_shift,
                           rim, shift)
from grasscat.roots import enumerate_degree2_real_roots, expected_rigid_rank2_count
from oracles import group_by_isomorphism, negative_control_48


class TestSmallCensus:
    def test_36_counts_and_profiles(self, census_reports):
        rep = census_reports[(3, 6)]
        assert rep.counts() == {"rank1": 20, "rank2_rigid": 2,
                                "real": 2, "imaginary": 0}
        labels = sorted(e.profile.label() for e in rep.rank2_rigid)
        assert labels == ["135|246", "246|135"]
        assert rep.fixture_diffs == []

    def test_37_counts(self, census_reports):
        rep = census_reports[(3, 7)]
        assert rep.counts()["rank2_rigid"] == 14
        assert rep.fixture_diffs == []

    def test_38_counts(self, census_reports):
        rep = census_reports[(3, 8)]
        assert rep.counts()["rank2_rigid"] == 56
        assert rep.fixture_diffs == []

    def test_conjectures_36(self, census_reports):
        assert all(conjecture_verdicts(census_reports[(3, 6)]).values())


class TestTameCensus:
    def test_39(self, census_reports):
        rep = census_reports[(3, 9)]
        assert rep.counts() == {"rank1": 84, "rank2_rigid": 168,
                                "real": 168, "imaginary": 0}
        # every class over (3,9) has a unique tight filtration
        assert all(len(e.profiles) == 1 for e in rep.rank2_rigid)
        assert all(classify_pair(*e.profile.layers).tight for e in rep.rank2_rigid)

    def test_48(self, census_reports):
        rep = census_reports[(4, 8)]
        assert rep.counts() == {"rank1": 70, "rank2_rigid": 120,
                                "real": 112, "imaginary": 8}

    def test_48_imaginary_shift_orbit(self, census_reports):
        rep = census_reports[(4, 8)]
        imag = [e for e in rep.rank2_rigid if e.classification == "imaginary"]
        assert len(imag) == 8
        base = Profile((rim([1, 2, 4, 6], 4, 8), rim([3, 5, 7, 8], 4, 8)))
        orbit_profiles = {base.shift(m).label() for m in range(8)}
        hit = set()
        for e in imag:
            inside = {p.label() for p in e.profiles} & orbit_profiles
            assert len(inside) == 1
            hit |= inside
        assert hit == orbit_profiles
        # all eight carry the all-ones multiplicity vector
        assert all(e.a_vec == (1,) * 8 for e in imag)

    def test_48_real_split(self, census_reports):
        rep = census_reports[(4, 8)]
        real = [e for e in rep.rank2_rigid if e.classification == "real"]
        assert all(sum(1 for p in e.profiles
                       if classify_pair(*p.layers).tight) == 1 for e in real)
        inters = {len(set(e.profile.layers[0].elements)
                      & set(e.profile.layers[1].elements)) for e in real}
        assert inters == {1}

    def test_fiber_over_real_roots(self, census_reports):
        for k, n in [(3, 9), (4, 8)]:
            rep = census_reports[(k, n)]
            fibers = {}
            for e in rep.rank2_rigid:
                if e.classification == "real":
                    fibers.setdefault(e.a_vec, []).append(e)
            roots = {v.entries for v in enumerate_degree2_real_roots(k, n)}
            assert set(fibers) == roots
            assert all(len(v) == 2 for v in fibers.values())

    def test_conjectures_48(self, census_reports):
        assert all(conjecture_verdicts(census_reports[(4, 8)]).values())
        assert expected_rigid_rank2_count(4, 8) == 112


class TestCandidates:
    def test_39_candidate_set(self):
        cands = rank2_candidates(3, 9)
        assert len(cands) == 168
        assert all(classify_pair(a, b).tight for a, b in cands)

    def test_48_candidate_count(self):
        cands = rank2_candidates(4, 8)
        # 112 tight + 24 disjoint 3-interlacing + 2 alternating 4-interlacing
        assert len(cands) == 138

    def test_a_census_tests_every_candidate(self, census_reports):
        rep = census_reports[(3, 6)]
        assert rep.candidates_tested == len(rank2_candidates(3, 6)) == len(rep.candidate_verdicts)

    @pytest.mark.parametrize("k, n", [(3, 6), (3, 7), (3, 8), (3, 9), (4, 8)])
    def test_each_unordered_pair_once_gives_the_ordered_list(self, k, n):
        rims = all_rims(k, n)
        ordered = [(a, b) for a in rims for b in rims
                   if a != b and interlacing_degree(a, b) >= 3]
        assert rank2_candidates(k, n) == ordered


class TestClasses:
    """Each class is named once, by the orbit identifier, on one rigid
    filtration; ``group_by_isomorphism`` compares every pair instead."""

    @pytest.mark.parametrize("k, n", [(3, 6), (3, 7), (3, 8), (3, 9), (4, 8)])
    def test_classes_match_pairwise_grouping(self, census_reports, k, n):
        rep = census_reports[(k, n)]
        rigid = [(Profile((a, b)), rigid_indecomposable_rank2(a, b, rep.truncation))
                 for (a, b), ok in rep.candidate_verdicts.items() if ok]
        want = group_by_isomorphism(k, rigid)
        assert [(e.profiles, e.a_vec, e.classification) for e in rep.rank2_rigid] == \
            [(e.profiles, e.a_vec, e.classification) for e in want]

    @pytest.mark.parametrize("k, n, roots", [(3, 6, 1), (3, 7, 2), (3, 8, 7), (3, 9, 20),
                                             (4, 8, 16)])
    def test_one_root_module_named_per_rotation_class(self, k, n, roots, monkeypatch):
        named = []   # keep every module alive, so that ids stay distinct
        identify = census._identify
        monkeypatch.setattr(census, "_identify",
                            lambda rep: named.append(rep) or identify(rep))
        rep = run_census(k, n)
        assert len(named) == len(rep.rank2_rigid)
        assert len({id(m.unrotated()[0]) for m in named}) == roots


class TestProgress:
    def test_progress_goes_to_stderr(self, capsys):
        rep = run_census(3, 7, progress=True)
        out, err = capsys.readouterr()
        assert out == ""
        assert f"census (3,7): {rep.candidates_tested}/{rep.candidates_tested} candidates" in err


class TestNegativeControl:
    def test_1247_3568(self, census_reports):
        out = negative_control_48()
        assert out["layered_sigma_is_rigid"] is False
        assert out["extension_class_coincides_with"] == "1457|2368"
        # the filtration names an existing imaginary-type class instead of
        # growing the census beyond the eight
        rep = census_reports[(4, 8)]
        containing = [e for e in rep.rank2_rigid
                      if "1247|3568" in {p.label() for p in e.profiles}]
        assert len(containing) == 1
        entry = containing[0]
        assert entry.classification == "imaginary"
        assert "1457|2368" in {p.label() for p in entry.profiles}


def test_literature_fixture_recorded():
    assert RANK3_LITERATURE == {(3, 9): 117, (4, 8): 82}
    assert CENSUS_TABLE[(4, 8)]["imaginary"] == 8


class TestClosures:
    def test_shift_closure(self, census_reports):
        for k, n in [(3, 9), (4, 8)]:
            rep = census_reports[(k, n)]
            labels = {p.label() for e in rep.rank2_rigid for p in e.profiles}
            for e in rep.rank2_rigid:
                for p in e.profiles:
                    assert p.shift(k).label() in labels, p

    def test_39_swap_closure_is_total(self, census_reports):
        rep = census_reports[(3, 9)]
        labels = {e.profile.label() for e in rep.rank2_rigid}
        assert {Profile(e.profile.layers[::-1]).label() for e in rep.rank2_rigid} == labels


def test_census_leaves_the_shared_rank1_modules_intact(monkeypatch):
    # one module per rotation class and truncation serves the whole run, so
    # a census that changed one in place would corrupt every later computation
    modules._rank1.cache_clear()
    homology._rank2_walk.cache_clear()
    built, requested = [], set()   # (rim, module) per build, (profile, trunc) per request
    original, memo = modules.build_layered, modules._rank1

    def recorded(layers, trunc=None):
        (r,) = layers
        built.append((r, original(layers, trunc)))
        return built[-1][1]

    def requested_from_memo(p, trunc):
        requested.add((p, trunc))
        return memo(p, trunc)
    monkeypatch.setattr(modules, "build_layered", recorded)
    monkeypatch.setattr(modules, "_rank1", requested_from_memo)
    run_census(3, 7)
    assert built and len(requested) == memo.cache_info().currsize
    # one build per rotation class in the memo, each of its least rotation
    classes = {(p.shift(least_shift(*p.layers)), trunc) for p, trunc in requested}
    assert sorted((r.elements, m.trunc) for r, m in built) == \
        sorted((p.layers[0].elements, trunc) for p, trunc in classes)
    assert all(least_shift(r) == 0 for r, _ in built)
    for r, m in built:
        assert build_rank1(r, m.trunc) is m
        fresh = original([r], m.trunc)
        assert (m.x, m.y, m.floor) == (fresh.x, fresh.y, fresh.floor), r


@pytest.mark.parametrize("k, n, classes", [(3, 6, 1), (3, 7, 2), (3, 8, 7)])
def test_census_walks_once_per_rotation_class(monkeypatch, k, n, classes):
    homology._rank2_walk.cache_clear()
    walked = []
    original = homology._ladder_walk

    def counted(p, N):
        walked.append(p.layers)
        return original(p, N)
    monkeypatch.setattr(homology, "_ladder_walk", counted)
    run_census(k, n)
    assert len(walked) == classes
    # one walk per class, on its least rotation
    least = {min((shift(a, j), shift(b, j)) for j in range(n))
             for a, b in rank2_candidates(k, n)}
    assert set(walked) == least
    assert all(least_shift(*pair) == 0 for pair in walked)
