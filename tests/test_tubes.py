from collections import Counter
from math import lcm

import pytest

from grasscat import dvr, homology, modules, tubes
from grasscat.census import rank2_candidates, run_census
from grasscat.errors import NotAlmostConsecutive, ProjectiveInput
from grasscat.homology import (OrbitMember, canonical_module, is_isomorphic, rank2_extension,
                               syzygy)
from grasscat.modules import (Profile, a_vector, build_rank1, default_truncation,
                              identify_rank1, parse_profile, profile, rep_a_vector)
from grasscat.rims import (Rim, all_rims, interlacing_degree, is_almost_consecutive,
                           is_projective, least_shift, rim, shift, two_layer_splits)
from grasscat.tubes import ar_sequence, tau_orbit, tube_census

from oracles import name_afresh, orbit_named_afresh


def chain_orbit(seed):
    """Members and period of a seed's orbit by the direct algorithm: every
    step resolves the module just computed, and every split of a rank-2
    member's a-vector is tested with the full ``is_isomorphic``."""
    n, k = seed.n, seed.k
    N, v = default_truncation(n), lcm(n, k) // k

    def identify(rep):
        avec = rep_a_vector(rep).entries
        if rep.s == 1:
            return OrbitMember(1, avec, (Profile((identify_rank1(rep),)),))
        matches = sorted((Profile((a, b)) for a, b in two_layer_splits(avec, k, n)
                          if rep.s == 2 and interlacing_degree(a, b) >= 3
                          and is_isomorphic(rep, rank2_extension(a, b, N))),
                         key=Profile.label)
        return OrbitMember(rep.s, avec, tuple(matches))

    rep = build_rank1(seed, N) if isinstance(seed, Rim) else rank2_extension(*seed.layers, N)
    members = [identify(rep)]
    for _ in range(2 * v):
        rep = syzygy(rep)
        members.append(identify(rep))
    assert members.pop() == members[0]
    period = min(d for d in range(1, 2 * v + 1)
                 if all(members[i] == members[(i + d) % (2 * v)] for i in range(2 * v)))
    return members[:period], period


def rigid_classes(k, n):
    return [e.profile for e in run_census(k, n).rank2_rigid]


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
        assert profile([[2, 5, 8], [3, 6, 9]], 3, 9) in orbit.members[1].profiles

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
        assert set(a.members) == set(b.members)

    def test_rim_and_its_one_layer_profile_share_an_orbit(self):
        r = rim([1, 4, 5], 3, 9)
        assert tau_orbit(r) == tau_orbit(Profile((r,)))

    def test_rank1_member_emits_its_rim(self):
        member = tau_orbit(rim([1, 4, 7], 3, 9)).to_json_dict()["members"][0]
        assert member["rim"] == [1, 4, 7] and member["profiles"] == []

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


class TestCanonicalSteps:
    """Orbit steps from the shared module of each identified member agree
    with the direct algorithm (``chain_orbit``)."""

    @pytest.mark.parametrize("kn", [(3, 6), (3, 7)])
    def test_every_rim_and_rigid_class_matches_the_chain(self, kn):
        seeds = [r for r in all_rims(*kn) if not is_projective(r)] + rigid_classes(*kn)
        for seed in seeds:
            orbit = tau_orbit(seed)
            assert (orbit.members, orbit.period) == chain_orbit(seed), seed

    def test_rank3_member_matches_the_chain(self):
        seed = rim([1, 3, 5, 7], 4, 8)
        orbit = tau_orbit(seed)
        assert max(m.rank for m in orbit.members) == 3
        assert (orbit.members, orbit.period) == chain_orbit(seed)

    def test_extension_a_vector_is_the_profile_sum(self):
        # the premise of comparing a rank-2 member only with the splits of its a-vector
        for a, b in rank2_candidates(3, 7):
            assert rep_a_vector(rank2_extension(a, b)) == a_vector(Profile((a, b))), (a, b)

    def test_seed_identified_against_itself_factors_nothing(self, monkeypatch):
        seed = profile([[1, 3, 5], [2, 4, 6]], 3, 6)
        rep, member = tubes._seed_rep(seed, 12)   # builds every candidate once
        calls = []
        for name in ("_smith", "_split"):
            def counted(matrix, original=getattr(dvr, name)):
                calls.append(matrix)
                return original(matrix)
            for module in (dvr, homology, modules):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        assert tubes._seed_rep(seed, 12) == (rep, member)
        assert member.profiles == (seed,) and calls == []

    def test_seed_with_a_projective_summand_is_refused(self):
        # 136|245 @(3,7) is 126 ⊕ 345, and 345 drops out of every syzygy
        with pytest.raises(ProjectiveInput, match="126 ⊕ 345"):
            tau_orbit(profile([[1, 3, 6], [2, 4, 5]], 3, 7))

    @pytest.mark.parametrize("layers, kn", [
        ([[1, 3, 5], [1, 3, 5]], (3, 6)),            # degree 0: 135 ⊕ 135
        ([[1, 4, 6], [2, 3, 5]], (3, 6)),            # degree 2: 246|135
        ([[1, 2, 4, 7], [3, 5, 6, 8]], (4, 8))])     # degree 3, rigid
    def test_other_seeds_keep_their_orbits(self, layers, kn):
        seed = profile(layers, *kn)
        orbit = tau_orbit(seed)
        assert (orbit.members, orbit.period) == chain_orbit(seed)
        assert orbit.period == 4


class TestNamedOncePerRoot:
    """A member is named once per root module; a rotated view takes its
    root's member rotated.  ``orbit_named_afresh`` names every step on a new
    module instead."""

    @pytest.mark.parametrize("kn", [(3, 6), (3, 7)])
    def test_every_rim_and_class_matches_naming_afresh(self, kn):
        seeds = [Profile((r,)) for r in all_rims(*kn) if not is_projective(r)]
        N = default_truncation(kn[1])
        for seed in seeds + rigid_classes(*kn):
            orbit = tau_orbit(seed)
            assert (orbit.members, orbit.period) == orbit_named_afresh(seed, N), seed

    @pytest.mark.parametrize("token, turns", [
        ("135|246@(3,6)", range(6)), ("1357@(4,8)", range(8)),   # the bench orbits
        ("258|147@(3,9)", (0, 4))])
    def test_long_orbits_match_naming_afresh(self, token, turns):
        seed = parse_profile(token)
        for j in turns:
            orbit = tau_orbit(seed.shift(j))
            assert (orbit.members, orbit.period) == \
                orbit_named_afresh(seed.shift(j), default_truncation(seed.n)), j

    @pytest.mark.parametrize("token", ["135|246@(3,6)", "1357@(4,8)"])
    def test_identify_rank1_runs_once_per_rank1_root(self, token, monkeypatch):
        homology._rank2_walk.cache_clear()
        modules._rank1.cache_clear()
        named, proved = [], []   # keep every module alive, so that ids stay distinct
        identify, rank1 = tubes._identify, homology.identify_rank1
        monkeypatch.setattr(tubes, "_identify", lambda rep: named.append(rep) or identify(rep))
        monkeypatch.setattr(homology, "identify_rank1", lambda m: proved.append(m) or rank1(m))
        seed = parse_profile(token)
        tau_orbit(seed)
        # _identify reads the truncation off the module: N at every call
        assert named and {rep.trunc for rep in named} == {default_truncation(seed.n)}
        roots = {id(rep.unrotated()[0]) for rep in named if rep.s == 1}
        assert sorted(map(id, proved)) == sorted(roots) and len(roots) == 1
        assert sum(rep.s == 1 for rep in named) == 2

    @pytest.mark.parametrize("token", ["135|246@(3,6)", "1357@(4,8)", "145@(3,9)",
                                       "258|147@(3,9)"])
    def test_a_view_takes_its_roots_member_rotated(self, token):
        seed = parse_profile(token)
        n = seed.n
        for module in (canonical_module(seed), syzygy(canonical_module(seed))):
            root = module.unrotated()[0]
            for j in range(n):
                view = root.rotate(j)
                assert tubes._identify(view) == tubes._identify(root).rotate(j, n) \
                    == name_afresh(view), (module.s, j)


class TestTubeCensusPerRotationClass:
    @staticmethod
    def seedwise(k, n):
        """The orbits of every seed not yet seen, each walked by tau_orbit,
        in the report's order, and the seeds walked."""
        seeds = [r for r in all_rims(k, n) if not is_projective(r)] + rigid_classes(k, n)
        seen, orbits, walked = set(), [], []
        for seed in seeds:
            if (Profile((seed,)) if isinstance(seed, Rim) else seed) in seen:
                continue
            orbit = tau_orbit(seed)
            orbits.append(orbit)
            walked.append(seed)
            for m in orbit.members:
                seen.update(m.profiles)
        orbits.sort(key=lambda o: min(m.label() for m in o.members))
        return [o.to_json_dict() for o in orbits], walked

    @pytest.mark.parametrize("kn", [(3, 6), (3, 7), (3, 8)])
    def test_orbits_match_a_walk_per_seed(self, kn, monkeypatch):
        want, walked = self.seedwise(*kn)
        homology._rank2_walk.cache_clear()
        modules._rank1.cache_clear()
        calls = []

        def counted(start, trunc=None):
            calls.append(start)
            return tau_orbit(start, trunc)
        monkeypatch.setattr(tubes, "tau_orbit", counted)
        report = tube_census(*kn)
        assert [o.to_json_dict() for o in report.orbits] == want
        # one walk per rotation class of the walked seeds, on its least rotation
        def least(seed):
            layers = (seed,) if isinstance(seed, Rim) else seed.layers
            j = least_shift(*layers)
            return shift(seed, j) if isinstance(seed, Rim) else seed.shift(j)
        assert sorted(map(str, calls)) == sorted({str(least(s)) for s in walked})
        # an orbit holds the shift by k of each member, so when gcd(k, n) = 1
        # it meets every rotation of its seed and there is nothing to save
        assert len(calls) < len(walked) if kn == (3, 6) else len(calls) == len(walked)


class TestOrbitIds:
    @pytest.mark.parametrize("kn, walks", [((3, 6), 1), ((3, 7), 2), ((3, 8), 5)])
    def test_ids_match_a_walk_per_class(self, kn, walks, monkeypatch):
        report = run_census(*kn)
        # the least member label of each class's own orbit
        want = [min(m.label() for m in tau_orbit(e.profile).members)
                for e in report.rank2_rigid]
        calls = []

        def counted(start, trunc=None):
            calls.append(start)
            return tau_orbit(start, trunc)
        monkeypatch.setattr(tubes, "tau_orbit", counted)
        tubes.attach_orbit_ids(report)
        assert [e.orbit_id for e in report.rank2_rigid] == want
        assert len(calls) == walks


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
                if m.rank == 1:
                    rims_seen.add(m.profiles[0].layers[0])
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
                    # a rim's target is a rim: a rank-1 member always counts
                    if m.profiles and (m.rank == 1 or target.profiles):
                        shifted = {q.shift(k).label() for q in m.profiles}
                        assert shifted == {q.label() for q in target.profiles}
                        checked += 1
        assert checked > 200
