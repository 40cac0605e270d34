from collections import Counter

import pytest

from grasscat import homology, modules
from grasscat.errors import NotAlmostConsecutive, ProjectiveInput
from grasscat.modules import profile
from grasscat.rims import all_rims, is_almost_consecutive, is_projective, rim
from grasscat.tubes import ar_sequence, tau_orbit, tube_census


class TestTauOrbit:
    def test_rank6_mouth(self):
        orbit = tau_orbit(rim([1, 4, 5], 3, 9))
        assert orbit.period == 6
        assert [m.label() for m in orbit.members] == \
            ["145", "236", "478", "569", "127", "389"]

    def test_rank3_mouth(self):
        orbit = tau_orbit(rim([1, 2, 6], 3, 9))
        assert orbit.period == 3
        assert [m.label() for m in orbit.members] == ["126", "378", "459"]

    def test_rank2_mouth(self):
        orbit = tau_orbit(rim([1, 4, 7], 3, 9))
        assert orbit.period == 2
        labels = [m.label() for m in orbit.members]
        assert labels[0] == "147"
        assert orbit.members[1].matches_profile(profile([[2, 5, 8], [3, 6, 9]], 3, 9))

    def test_rank2_seed_period2(self):
        orbit = tau_orbit(profile([[2, 5, 8], [1, 4, 7]], 3, 9))
        assert orbit.period == 2
        assert orbit.members[1].rank == 4
        assert orbit.members[1].a_vec == (1, 1, 2, 1, 1, 2, 1, 1, 2)

    def test_rank2_mouth_full_cycle(self):
        orbit = tau_orbit(profile([[4, 6, 9], [3, 5, 7]], 3, 9))
        assert orbit.period == 6
        assert [m.label() for m in orbit.members] == \
            ["469|357", "146|258", "379|168", "479|258", "136|249", "137|258"]

    def test_membership_independent_of_representative(self):
        a = tau_orbit(rim([1, 4, 5], 3, 9))
        b = tau_orbit(rim([4, 7, 8], 3, 9))
        assert {m.key() for m in a.members} == {m.key() for m in b.members}

    def test_projective_seed_rejected(self):
        with pytest.raises(ProjectiveInput):
            tau_orbit(rim([1, 2, 3], 3, 9))

    def test_small_ambient_periods(self):
        # v = 2 over (3,6): all orbits close within 4 steps
        for r in all_rims(3, 6):
            if is_projective(r):
                continue
            orbit = tau_orbit(r)
            assert 4 % orbit.period == 0


class TestOrbitSharesSyzygies:
    def test_each_module_is_resolved_once(self, monkeypatch):
        # fresh ladder and rank-1 memos, so every module below is resolved here
        homology._rank2_walk.cache_clear()
        modules._rank1.cache_clear()
        covered = []   # keeps every module alive, so that ids stay distinct
        original = homology.projective_cover

        def counted(m):
            covered.append(m)
            return original(m)
        # the cover is computed exactly when a module's syzygy is
        monkeypatch.setattr(homology, "projective_cover", counted)
        orbit = tau_orbit(profile([[1, 3, 5], [2, 4, 6]], 3, 6))
        assert orbit.members
        repeats = [n for n in Counter(map(id, covered)).values() if n > 1]
        assert covered and repeats == []


class TestARSequence:
    def test_indecomposable_case(self):
        seq = ar_sequence(rim([1, 4, 5], 3, 8))
        assert seq.middle_profile == profile([[2, 4, 6], [1, 3, 5]], 3, 8)
        assert seq.right == rim([2, 3, 6], 3, 8)
        assert seq.middle_rigid and seq.middle_indecomposable and seq.exact

    def test_decomposable_case(self):
        seq = ar_sequence(rim([1, 3, 4], 3, 8))
        assert seq.middle_projective_vertex == 1
        assert seq.middle_extra_layer == rim([1, 3, 5], 3, 8)
        assert seq.right == rim([2, 3, 5], 3, 8)
        assert seq.middle_rigid and not seq.middle_indecomposable and seq.exact

    def test_wraparound_case(self):
        seq = ar_sequence(rim([1, 2, 6], 3, 9))
        assert seq.middle_profile == profile([[1, 3, 7], [2, 6, 8]], 3, 9)
        assert seq.right == rim([3, 7, 8], 3, 9)
        assert seq.middle_rigid and seq.middle_indecomposable and seq.exact

    def test_swap_property_of_indecomposable_middles(self):
        from grasscat.homology import rigid_indecomposable_rank2
        for r in all_rims(3, 8):
            dec = is_almost_consecutive(r)
            if is_projective(r) or dec is None:
                continue
            seq = ar_sequence(r)
            if seq.middle_profile is None:
                continue
            x, y = seq.middle_profile.layers
            assert rigid_indecomposable_rank2(y, x) is not None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ProjectiveInput):
            ar_sequence(rim([1, 2, 3], 3, 8))
        with pytest.raises(NotAlmostConsecutive):
            ar_sequence(rim([1, 4, 7], 3, 9))


class TestTubeCensusSmall:
    def test_non_tame_banner_and_periods(self):
        report = tube_census(3, 6)
        assert report.banner == "non-tame: orbits only"
        assert all(4 % p == 0 for p in report.periods)
        assert report.fixture_checks == []

    def test_all_rims_and_classes_covered(self):
        report = tube_census(3, 6)
        rims_seen = set()
        for orbit in report.orbits:
            for m in orbit.members:
                if m.rim_label is not None:
                    rims_seen.add(m.rim_label)
        expected = {r for r in all_rims(3, 6) if not is_projective(r)}
        assert rims_seen == expected


class TestTameTubeCensus:
    def test_39_fixture_match(self, tube_reports):
        report = tube_reports[(3, 9)]
        assert all(c.status != "MISMATCH" for c in report.fixture_checks)
        assert all(6 % p == 0 for p in report.periods)
        assert report.periods.get(6, 0) > 0

    def test_48_fixture_match(self, tube_reports):
        report = tube_reports[(4, 8)]
        assert all(c.status != "MISMATCH" for c in report.fixture_checks)
        assert all(4 % p == 0 for p in report.periods)
        assert report.periods.get(4, 0) > 0

    def test_39_mouth_families(self, tube_reports):
        report = tube_reports[(3, 9)]
        # nine non-projective rank-6 tube figures plus the projective tube
        # family; two rank-3 and two rank-2 mouth rows
        assert report.mouth_family_periods == {6: 9, 3: 2, 2: 2}

    def test_48_mouth_families(self, tube_reports):
        report = tube_reports[(4, 8)]
        # twelve non-projective rank-4 tube figures plus the projective tube
        assert report.mouth_family_periods == {4: 12, 2: 2}


class TestDoubleSyzygyShift:
    def test_identified_members_shift_by_k(self, tube_reports):
        # two syzygy steps shift every identified orbit member by k; since
        # every rim and every rigid rank-2 class sits in some computed
        # orbit, this is exhaustive for the tame pairs
        checked = 0
        for (k, n) in [(3, 9), (4, 8)]:
            for orbit in tube_reports[(k, n)].orbits:
                p = orbit.period
                for i, m in enumerate(orbit.members):
                    target = orbit.members[(i + 2) % p]
                    if m.rim_label is not None:
                        assert target.rim_label is not None
                        from grasscat.rims import shift
                        assert target.rim_label == shift(m.rim_label, k)
                        checked += 1
                    elif m.profiles and target.profiles:
                        shifted = {q.shift(k).label() for q in m.profiles}
                        assert shifted == {q.label() for q in target.profiles}
                        checked += 1
        assert checked > 200
