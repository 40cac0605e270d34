import pickle
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from grasscat import dvr, homology, modules
from grasscat.census import rank2_candidates, run_census
from grasscat.dvr import DVRMatrix, ValPoly
from grasscat.errors import ProjectiveInput, TruncationUnstable
from grasscat.homology import (WEIGHT_LADDER, canonical_module, decomposition_rank2,
                               ext1, ext1_rims, hom_space, is_isomorphic,
                               is_rigid, projective_cover, rank2_extension,
                               rigid_indecomposable_rank2, syzygy,
                               top_generators, top_multiset)
from grasscat.modules import (CMModuleRep, Profile, build_rank1,
                              direct_sum, identify_rank1, rep_a_vector,
                              validate_relations)
from grasscat.rims import (all_rims, interlacing_degree, is_projective, least_shift,
                           peaks, rim, shift, slopes, syzygy_rim, two_layer_splits)
from oracles import (FullSmith, build_layered, crossing, rational_det, rational_rank,
                     retraction, solve, transpose, two_peak_syzygy_rim)


def extension_middle(top, bottom, weights=(1,)):
    """The extension middle of the rank-1 modules of top and bottom at the
    given weights, built from the two functions a ladder walk uses: no walk
    and no memo."""
    t, b = build_rank1(top), build_rank1(bottom)
    return homology._extension_middle(t, b, homology._extension_classes(t, b), weights)


class TestTop:
    def test_projective_has_simple_top(self):
        m = build_rank1(rim([6, 7, 8], 3, 8))
        assert top_multiset(m) == {5: 1}

    def test_top_equals_peaks(self):
        m = build_rank1(rim([1, 4, 7], 3, 9))
        assert top_multiset(m) == {3: 1, 6: 1, 9: 1}
        for r in all_rims(3, 8):
            assert set(top_multiset(build_rank1(r))) == set(peaks(r))

    def test_tight_pair_top_size(self):
        # tops of tight two-layer modules have three or four vertices
        for layers in [([1, 2, 4, 6], [2, 3, 5, 7]), ([2, 5, 7], [1, 3, 6])]:
            k = len(layers[0])
            n = 8
            m = rank2_extension(rim(layers[0], k, n), rim(layers[1], k, n))
            size = sum(top_multiset(m).values())
            assert size in (3, 4)
            union = set(peaks(rim(layers[0], k, n))) | set(peaks(rim(layers[1], k, n)))
            assert set(top_multiset(m)) <= union


class TestCoverAndSyzygy:
    def test_a_cover_short_of_a_top_generator_is_refused(self, monkeypatch):
        m = build_rank1(rim([1, 4, 7], 3, 9))
        gens = top_generators(m)
        monkeypatch.setattr(homology, "top_generators", lambda rep: gens[1:])
        with pytest.raises(AssertionError, match="cover map not surjective at vertex"):
            projective_cover(m)

    def test_cover_at_peaks(self):
        # every rotation: the views' covers list their roots' order, relabelled
        for r in (rim([1, 4, 5], 3, 9), rim([1, 4, 7], 3, 9)):
            for j in range(r.n):
                m = build_rank1(shift(r, j))
                vertices = projective_cover(m).vertices
                assert sorted(vertices) == sorted(peaks(shift(r, j)))
                assert vertices == homology._cover_of(m).vertices

    def test_syzygy_of_ac_rim(self):
        m = build_rank1(rim([1, 4, 5], 3, 9))
        assert identify_rank1(syzygy(m)) == rim([2, 3, 6], 3, 9)

    def test_syzygy_rank_is_peaks_minus_one(self):
        for r in all_rims(3, 8):
            if is_projective(r):
                continue
            assert syzygy(build_rank1(r)).s == len(peaks(r)) - 1

    def test_double_syzygy_is_shift(self):
        for k, n in [(3, 6), (3, 7)]:
            for r in all_rims(k, n):
                if is_projective(r):
                    continue
                om2 = syzygy(syzygy(build_rank1(r)))
                if om2.s == 1:
                    assert identify_rank1(om2) == shift(r, k)
                else:
                    assert rep_a_vector(om2).entries == \
                        rep_a_vector(build_rank1(shift(r, k))).entries

    def test_projective_raises(self):
        with pytest.raises(ProjectiveInput):
            syzygy(build_rank1(rim([1, 2, 3], 3, 9)))

    def test_projective_source_has_zero_ext_and_evaluation_hom(self):
        projective = build_rank1(rim([6, 7, 8], 3, 8))
        other = extension_middle(rim([1, 3, 5], 3, 8), rim([2, 4, 7], 3, 8))
        assert homology._omega(projective) is None
        assert homology._cover_of(projective).size == projective.s
        assert ext1(projective, other).is_zero()
        assert ext1(projective, projective).exponents == ()
        # Hom out of a projective is evaluation at its generator
        assert hom_space(projective, other).z_rank == other.s
        assert hom_space(projective, projective).z_rank == 1
        with pytest.raises(ProjectiveInput):
            syzygy(projective)

    def test_syzygy_validates(self):
        om = syzygy(build_rank1(rim([1, 4, 7], 3, 9)))
        assert validate_relations(om) == []


class TestHom:
    def test_self_hom_rank1(self):
        m = build_rank1(rim([1, 3, 5], 3, 6))
        hb = hom_space(m, m)
        assert hb.z_rank == 1
        gen = hb.generators[0]
        assert all(gen[w].data[0][0].is_unit() for w in range(1, 7))

    def test_canonical_generator_valuations(self):
        # oracle: smallest shift d making t-exponents h_v = d + prefix
        # difference nonnegative at every vertex
        a, b = rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)

        def oracle(src, dst):
            n = src.n
            heights = {}
            for d in range(0, 2 * n):
                h, ok = {}, True
                acc = d
                for v in range(1, n + 1):
                    acc += (1 if v in src else 0) - (1 if v in dst else 0)
                    if acc < 0:
                        ok = False
                        break
                    h[v] = acc
                if ok:
                    heights = h
                    break
            return heights

        expected = oracle(a, b)
        gen = hom_space(build_rank1(a), build_rank1(b)).generators[0]
        assert {v: gen[v].data[0][0].valuation() for v in expected} == expected

    def test_rank_product_identity(self):
        a, b = rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)
        L = build_layered([a, b])
        assert hom_space(L, L).z_rank == 4
        assert hom_space(build_rank1(a), L).z_rank == 2
        M = rank2_extension(a, b)
        assert hom_space(M, M).z_rank == 4


class TestExt1:
    def test_noncrossing_vanishes(self):
        assert ext1_rims(rim([1, 2, 3], 3, 6), rim([4, 5, 6], 3, 6)).is_zero()

    def test_alternating_pair(self):
        dec = ext1_rims(rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6))
        assert dec.exponents == (1, 1)
        assert dec.total_dim == 2
        assert dec.pretty() == "C ⊕ C"

    def test_min_slope_at_syzygy(self):
        I = rim([1, 4, 5], 3, 8)
        J = syzygy_rim(I)
        assert ext1_rims(I, J).exponents == (1,)

    def test_two_peak_min_slope_sample(self):
        for elems, k, n in [([1, 2, 5, 6], 4, 8), ([2, 3, 7, 8], 4, 8),
                            ([1, 2, 3, 6], 4, 8)]:
            I = rim(elems, k, n)
            J = two_peak_syzygy_rim(I)
            m = slopes(I).min_slope
            assert ext1_rims(I, J).exponents == (m,)

    def test_symmetric_total_dim_sample(self):
        rims_all = all_rims(3, 7)
        for a in rims_all[::5]:
            for b in rims_all[::7]:
                assert ext1_rims(a, b).total_dim == ext1_rims(b, a).total_dim

    def test_symmetric_total_dim_with_rank2_arguments(self):
        # the stable category is 2-Calabi-Yau (JKS16), so dim Ext^1(M, N) =
        # dim Ext^1(N, M); checked for every rigid (3,7) rank-2 module against
        # every (3,7) rank-1 module and every other rigid rank-2 module
        rigid = [m for m in (rigid_indecomposable_rank2(a, b)
                             for a, b in rank2_candidates(3, 7)) if m is not None]
        assert len(rigid) == 14
        rank1 = [build_rank1(r) for r in all_rims(3, 7)]
        for i, m in enumerate(rigid):
            for other in rank1 + rigid[i + 1:]:
                assert ext1(m, other).total_dim == ext1(other, m).total_dim

    def test_exponent_count_is_r_minus_1(self):
        rims_all = all_rims(3, 7)
        for a in rims_all[::4]:
            for b in rims_all[::6]:
                if a == b:
                    continue
                r = interlacing_degree(a, b)
                assert len(ext1_rims(a, b).exponents) == r - 1

    def test_slope_one_crossing_dim_1(self):
        I = rim([1, 2, 5], 3, 8)  # two peaks, a slope of length 1
        for J in all_rims(3, 8):
            if crossing(I, J) and not interlacing_degree(I, J) >= 3:
                assert ext1_rims(I, J).total_dim == 1


class TestLowTruncation:
    """A truncation of only n must give the default answer or raise, never another."""

    @staticmethod
    def check(pairs, n):
        for a, b in pairs:
            expected = ext1_rims(a, b)
            try:
                got = ext1_rims(a, b, trunc=n)
            except TruncationUnstable:
                continue
            assert got == expected, (a, b)

    def test_every_pair_at_3_6(self):
        pairs = list(combinations(all_rims(3, 6), 2))
        assert len(pairs) == 190
        self.check(pairs, 6)

    def test_sample_at_4_8(self):
        pairs = random.Random(48).sample(list(combinations(all_rims(4, 8), 2)), 40)
        self.check(pairs, 8)


class TestTwoPeakSyzygyFormula:
    def test_matches_numeric_syzygy(self):
        # derived closed form, checked against the cover kernel everywhere
        for k, n in [(4, 8), (4, 9), (3, 8)]:
            for r in all_rims(k, n):
                if is_projective(r) or len(peaks(r)) != 2:
                    continue
                num = identify_rank1(syzygy(build_rank1(r)))
                assert num == two_peak_syzygy_rim(r), r


class TestRigidity:
    def test_rank1_always_rigid(self):
        for r in all_rims(3, 6):
            assert is_rigid(build_rank1(r))

    def test_36_pair_both_orders(self):
        a, b = rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)
        m_ab = rigid_indecomposable_rank2(a, b)
        m_ba = rigid_indecomposable_rank2(b, a)
        assert m_ab is not None and m_ba is not None
        assert not is_isomorphic(m_ab, m_ba)

    def test_sigma_module_of_alternating_pair_splits(self):
        # the order-symmetric layered construction cannot be the rigid
        # module: over (3,6) it is not rigid, and for every pair of
        # interlacing degree >= 3 at (3,6) and (3,8) it is isomorphic to
        # the direct sum of its layers
        assert not is_rigid(build_layered([rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)]))
        for a, b in rank2_candidates(3, 6) + rank2_candidates(3, 8):
            L = build_layered([a, b])
            S = direct_sum(build_rank1(a, L.trunc), build_rank1(b, L.trunc))
            assert is_isomorphic(L, S), (a, b)

    def test_layered_module_of_negative_control_does_not_split(self):
        a, b = rim([1, 2, 4, 7], 4, 8), rim([3, 5, 6, 8], 4, 8)
        L = build_layered([a, b])
        assert not is_isomorphic(L, direct_sum(build_rank1(a, L.trunc),
                                               build_rank1(b, L.trunc)))

    def test_four_interlacing_not_rigid(self):
        a, b = rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8)
        assert rigid_indecomposable_rank2(a, b) is None
        assert not is_rigid(build_layered([a, b]))

    def test_poset_criterion(self):
        # the two-layer module is indecomposable exactly when r >= 3
        assert interlacing_degree(rim([2, 5, 7], 3, 8), rim([1, 3, 6], 3, 8)) >= 3
        assert interlacing_degree(rim([1, 2, 3], 3, 8), rim([1, 2, 4], 3, 8)) < 3
        assert interlacing_degree(rim([1, 2, 4, 6], 4, 8), rim([3, 5, 7, 8], 4, 8)) >= 3


class TestExtensionConstruction:
    def test_pushout_validates_and_filters(self):
        a, b = rim([2, 4, 6], 3, 9), rim([1, 3, 5], 3, 9)
        m = rank2_extension(a, b)
        assert validate_relations(m) == []
        assert rep_a_vector(m).entries == (1, 1, 1, 1, 1, 1, 0, 0, 0)

    @pytest.mark.parametrize("rank2_on_top", [True, False])
    def test_rank3_pushout_both_orders(self, rank2_on_top):
        # the rigid 147|258 class extended by the rim 369, in either order
        r2 = rank2_extension(rim([1, 4, 7], 3, 9), rim([2, 5, 8], 3, 9))
        r1 = build_rank1(rim([3, 6, 9], 3, 9), r2.trunc)
        top, bottom = (r2, r1) if rank2_on_top else (r1, r2)
        classes = homology._extension_classes(top, bottom)
        assert classes is not None  # a nonsplit extension, built by the pushout
        m = homology._extension_middle(top, bottom, classes, WEIGHT_LADDER[0])
        assert m.s == 3
        assert validate_relations(m) == []
        assert rep_a_vector(m).entries == (1,) * 9

    def test_split_for_noncrossing(self):
        a, b = rim([1, 2, 3], 3, 6), rim([4, 5, 6], 3, 6)
        m = extension_middle(a, b)
        assert decomposition_rank2(m) == (a, b) or decomposition_rank2(m) == (b, a)

    def test_all_weightings_agree_when_rigid(self):
        from grasscat.homology import WEIGHT_LADDER
        a, b = rim([1, 4, 6], 3, 9), rim([2, 5, 8], 3, 9)
        builds = []
        for w in WEIGHT_LADDER[:3]:
            m = extension_middle(a, b, w)
            if is_rigid(m) and decomposition_rank2(m) is None:
                builds.append(m)
        assert len(builds) >= 2
        assert all(is_isomorphic(builds[0], other) for other in builds[1:])

    def test_ar_class_gives_same_middle(self):
        # the middle of the almost-consecutive AR sequence is the canonical
        # rigid module with the predicted profile
        from grasscat.rims import ar_middle_profile
        I = rim([1, 4, 5], 3, 9)
        mid = ar_middle_profile(I)
        m = rank2_extension(mid.x, mid.y)
        assert is_rigid(m)
        J = syzygy_rim(I)
        # a maximally nonsplit extension of L_J by L_I is the same module
        other = extension_middle(J, I)
        assert is_isomorphic(m, other)

    def test_stability_protocol_runs(self):
        a, b = rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)
        ma, mb = build_rank1(a, 12), build_rank1(b, 12)
        dec = ext1(ma, mb)
        assert dec.exponents == (1, 1)
        # single-shot at two truncations agrees
        assert ext1(ma, mb).exponents == (1, 1)
        assert ext1(build_rank1(a, 14), build_rank1(b, 14)).exponents == (1, 1)


def cover_maps(m):
    """Oracle: the cover map at each vertex w, written from the path
    matrices into w at the top generators, apart from ``projective_cover``."""
    gens = top_generators(m)
    return {w: DVRMatrix.from_columns([m.path_matrix(v, w).column(idx) for v, idx in gens],
                                      m.s, m.trunc)
            for w in range(1, m.n + 1)}


def quotient_pushout(top_rep, bot_rep, f, floor):
    """Oracle: the extension middle as the quotient (bottom + cover) / {(f w, -w)},
    split off by one factorisation per vertex, with the structure maps
    solved for on the quotient."""
    n, k, N = top_rep.n, top_rep.k, top_rep.trunc
    cover = homology._cover_of(top_rep)
    amb = bot_rep
    for v_cov in cover.vertices:
        proj_rim = rim([(v_cov + i - 1) % n + 1 for i in range(1, k + 1)], k, n)
        amb = direct_sum(amb, build_rank1(proj_rim, N))
    sb, c, r = bot_rep.s, cover.size, syzygy(top_rep).s
    projections, proj_t = {}, {}
    for v in range(1, n + 1):
        embed = cover.split[v].kernel
        sub = DVRMatrix(f[v].data + tuple([-e for e in row] for row in embed.data),
                        N, cols=r)
        sm = FullSmith(sub)
        assert sm.npivots == r and not sm.loss, v
        projections[v] = DVRMatrix(sm.U.data[r:sb + c], N, cols=sb + c)
        proj_t[v] = FullSmith(transpose(projections[v]))

    def induced(src, dst, amb_map):
        # the map q with q @ projections[src] == projections[dst] @ amb_map
        q_t = solve(proj_t[src], transpose(projections[dst] @ amb_map), floor)
        assert q_t is not None
        return transpose(q_t)
    x = {v: induced((v - 2) % n + 1, v, amb.x[v]) for v in range(1, n + 1)}
    y = {v: induced(v, (v - 2) % n + 1, amb.y[v]) for v in range(1, n + 1)}
    return CMModuleRep(n, k, top_rep.s + sb, x, y, N, floor)


class TestPushoutOnTheEnds:
    """``_pushout`` writes the middle on bottom + top; the quotient of bottom +
    cover by the syzygy, built from the same class maps, is its oracle."""

    @pytest.fixture
    def pushouts(self, monkeypatch):
        """(arguments, middle) of every ``_pushout`` call."""
        calls = []
        original = homology._pushout

        def recorded(*args):
            out = original(*args)
            calls.append((args, out))
            return out
        monkeypatch.setattr(homology, "_pushout", recorded)
        return calls

    @staticmethod
    def check(pushouts, top, bottom, ladder):
        classes = homology._extension_classes(top, bottom)
        assert classes is not None
        pushouts.clear()
        for weights in ladder:
            homology._extension_middle(top, bottom, classes, weights)
        assert len(pushouts) == len(ladder)
        for args, middle in pushouts:
            assert middle.s == top.s + bottom.s
            assert validate_relations(middle) == []
            # bottom is a submodule: no map sends it into the top's coordinates
            for maps in (middle.x, middle.y):
                for v, mat in maps.items():
                    assert all(e.is_zero() for row in mat.data[bottom.s:]
                               for e in row[:bottom.s]), v
            # the oracle splits the cover itself: it takes no splittings
            assert is_isomorphic(middle, quotient_pushout(*args))

    def test_every_3_7_candidate_at_every_weight(self, pushouts):
        candidates = rank2_candidates(3, 7)
        assert len(candidates) == 14
        for a, b in candidates:
            self.check(pushouts, build_rank1(a, 14), build_rank1(b, 14), WEIGHT_LADDER)

    @pytest.mark.parametrize("rank2_on_top", [True, False])
    def test_rank3_middles_both_orders(self, pushouts, rank2_on_top):
        # the cases of TestExtensionConstruction.test_rank3_pushout_both_orders
        r2 = rank2_extension(rim([1, 4, 7], 3, 9), rim([2, 5, 8], 3, 9))
        r1 = build_rank1(rim([3, 6, 9], 3, 9), r2.trunc)
        top, bottom = (r2, r1) if rank2_on_top else (r1, r2)
        self.check(pushouts, top, bottom, WEIGHT_LADDER[:2])


class TestHomGeneratorsAreModuleMaps:
    """Every Hom basis map commutes with both structure maps modulo t^floor:
    f_v x_v = x_v f_(v-1) and f_(v-1) y_v = y_v f_v."""

    @staticmethod
    def check(m, other):
        basis = hom_space(m, other)
        assert basis.z_rank == m.s * other.s
        n = m.n
        for g, f in enumerate(basis.generators):
            for v in range(1, n + 1):
                w = (v - 2) % n + 1
                for lhs, rhs in ((f[v] @ m.x[v], other.x[v] @ f[w]),
                                 (f[w] @ m.y[v], other.y[v] @ f[v])):
                    assert not any(d < basis.floor for row in (lhs - rhs).data
                                   for e in row for d in e.coeffs), (g, v)

    @pytest.mark.parametrize("k, n", [(3, 6), (3, 7)])
    def test_extension_middles(self, k, n):
        one = build_rank1(all_rims(k, n)[1])
        for a, b in rank2_candidates(k, n):
            m = rank2_extension(a, b)
            for source, target in ((m, m), (m, one), (one, m)):
                self.check(source, target)

    def test_1357_2468_at_4_8(self):
        m = rank2_extension(rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8))
        self.check(m, m)


class TestRank2Walk:
    """Both rank-2 entry points read one cached ladder walk."""

    @pytest.fixture
    def fresh_cache(self):
        """The walk cache, emptied; the result reports how many walks it holds."""
        homology._rank2_walk.cache_clear()
        return lambda: homology._rank2_walk.cache_info().currsize

    @staticmethod
    def record(monkeypatch, name):
        """Replace homology.<name> by a wrapper logging (args, result) of each call."""
        calls = []
        original = getattr(homology, name)

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            calls.append((args, out))
            return out
        monkeypatch.setattr(homology, name, recorded)
        return calls

    @pytest.fixture
    def build_count(self, monkeypatch):
        return self.record(monkeypatch, "_pushout")

    @pytest.mark.parametrize("rigid_first", [False, True])
    def test_entry_points_share_the_module(self, fresh_cache, rigid_first):
        a, b = rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)
        if rigid_first:
            rigid = rigid_indecomposable_rank2(a, b)
            canonical = rank2_extension(a, b)
        else:
            canonical = rank2_extension(a, b)
            rigid = rigid_indecomposable_rank2(a, b)
        assert rigid is not None and rigid is canonical
        assert fresh_cache() == 1

    def test_default_and_explicit_truncation_share_an_entry(self, fresh_cache,
                                                            build_count):
        a, b = rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)
        m = rank2_extension(a, b)
        builds = len(build_count)
        assert builds >= 1
        assert rank2_extension(a, b, 12) is m
        assert rigid_indecomposable_rank2(a, b, 12) is m
        assert len(build_count) == builds
        assert fresh_cache() == 1
        assert rank2_extension(a, b, 14) is not m
        assert fresh_cache() == 2

    def test_walk_builds_its_ends_once(self, monkeypatch, fresh_cache, build_count):
        # no weight gives a rigid indecomposable middle, so the walk tries all
        a, b = rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8)
        conditions = self.record(monkeypatch, "_hom_condition")
        factored = self.record(monkeypatch, "_smith")
        split = self.record(monkeypatch, "_split")
        homs = self.record(monkeypatch, "hom_space")
        covered = self.record(monkeypatch, "projective_cover")
        resolved = self.record(monkeypatch, "_omega")
        assert rigid_indecomposable_rank2(a, b) is None
        assert len(build_count) == len(WEIGHT_LADDER)
        assert len({(id(args[0]), id(args[1])) for args, _ in build_count}) == 1
        top, bottom = build_count[0][0][:2]
        # the ends are the shared rank-1 modules that ext1 reads too
        assert top.trunc == 16
        assert top is build_rank1(a, 16) and bottom is build_rank1(b, 16)
        # the classes are lifted off the ends' Hom condition, read once
        assert [args[:2] for args, _ in conditions].count((top, bottom)) == 1
        # each cover map is split once, nothing else is split, and no Smith
        # form is taken of a cover map
        eps = [e for (rep,), _ in covered for e in cover_maps(rep).values()]
        assert eps and [matrix for (matrix,), _ in split] == eps
        assert not any(matrix == e for (matrix,), _ in factored for e in eps)
        # the top's syzygy is never resolved: its cover alone writes the
        # classes out, and it is computed at most once
        omega = homology._omega(top)
        assert not any(args[0] in (omega, omega.unrotated()[0]) for args, _ in resolved)
        assert [args[0] for args, _ in covered].count(omega.unrotated()[0]) <= 1
        assert homs == []

    def test_no_rigid_middle_falls_back_to_first_weight(self, fresh_cache):
        a, b = rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8)
        assert rigid_indecomposable_rank2(a, b) is None
        m = rank2_extension(a, b)
        first = extension_middle(a, b, WEIGHT_LADDER[0])
        assert (m.s, m.trunc, m.x, m.y) == (first.s, first.trunc, first.x, first.y)
        assert fresh_cache() == 1


class TestRank2Rotation:
    """The memo walks the least rotation of a pair; the uncached walk on
    every rotation is its oracle."""

    def test_verdicts_and_self_ext_are_rotation_invariant(self):
        # rotating the quiver is an automorphism of the algebra
        for a, b in rank2_candidates(3, 7):
            for j in range(7):
                pair = Profile((shift(a, j), shift(b, j)))
                walked, verdict = homology._ladder_walk(pair, 14)
                turned, memo_verdict = homology._rank2_walk(pair, 14)
                assert verdict == memo_verdict, (a, b, j)
                if verdict:
                    assert ext1(turned, turned).is_zero(), (a, b, j)
                    assert is_isomorphic(walked, turned), (a, b, j)

    def test_uncached_walks_give_the_3_8_census_verdicts(self):
        walked = {(a, b): homology._ladder_walk(Profile((a, b)), 16)[1]
                  for a, b in rank2_candidates(3, 8)}
        assert len(walked) == 56
        assert walked == run_census(3, 8).candidate_verdicts

    def test_non_canonical_pair_returns_one_object(self):
        homology._rank2_walk.cache_clear()
        a, b = rim([2, 4, 6], 3, 6), rim([1, 3, 5], 3, 6)
        assert least_shift(a, b) == 1
        m = rank2_extension(a, b)
        assert rank2_extension(a, b) is m
        assert rigid_indecomposable_rank2(a, b) is m
        # the pair's entry and its canonical rotation's
        assert homology._rank2_walk.cache_info().currsize == 2


class TestCanonicalModule:
    """A profile of one or two layers names one shared module."""

    def test_one_layer_is_the_rank1_module(self):
        r = rim([1, 4, 5], 3, 9)
        assert canonical_module(Profile((r,)), 18) is build_rank1(r, 18)

    def test_two_layers_are_the_rank2_extension(self):
        a, b = rim([2, 4, 6], 3, 6), rim([1, 3, 5], 3, 6)
        assert canonical_module(Profile((a, b)), 12) is rank2_extension(a, b, 12)

    def test_three_layers_name_no_module(self):
        layers = (rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6), rim([1, 3, 5], 3, 6))
        with pytest.raises(ValueError, match="3 layers"):
            canonical_module(Profile(layers), 12)


class TestRotatedCaches:
    """A rotated module reads its root's path matrices and syzygy, and both
    equal what a module with the same maps and no caches computes."""

    @pytest.fixture(params=[(3, 6), (3, 7), "rank1"])
    def pair(self, request):
        """A rigid census module of a pair that is not its least rotation, or
        the rank-1 module of a rim that is not, and a cache-free copy of its
        maps."""
        if request.param == "rank1":
            a = rim([1, 4, 5], 3, 8)
            assert least_shift(a)
            m = build_rank1(a)
        else:
            k, n = request.param
            homology._rank2_walk.cache_clear()
            a, b = next((a, b) for a, b in rank2_candidates(k, n)
                        if least_shift(a, b) and rigid_indecomposable_rank2(a, b) is not None)
            m = rigid_indecomposable_rank2(a, b)
        return m, CMModuleRep(m.n, m.k, m.s, m.x, m.y, m.trunc, m.floor)

    def test_carried_paths_equal_fresh_ones(self, pair):
        m, fresh = pair
        for v in range(1, m.n + 1):
            for w in range(1, m.n + 1):
                assert m.path_matrix(v, w) == fresh.path_matrix(v, w), (v, w)

    def test_carried_top_cover_and_a_vector_equal_fresh_ones(self, pair):
        m, fresh = pair
        assert m.unrotated()[1]  # a view
        # the view keeps its root's order, relabelled; the fresh copy's runs
        # from vertex 1
        top = top_generators(m)
        assert sorted(top) == sorted(top_generators(fresh))
        assert top_generators(m) is top
        vertices = homology._cover_of(m).vertices
        assert vertices == tuple(v for v, _ in top)
        assert sorted(vertices) == sorted(homology._cover_of(fresh).vertices)
        assert rep_a_vector(m) == rep_a_vector(fresh)

    def test_carried_syzygy_matches_a_fresh_one(self, pair):
        m, fresh = pair
        omega = syzygy(m)
        assert syzygy(m) is omega
        cover = homology._cover_of(m)
        for w, eps in cover_maps(m).items():
            assert all(e.is_zero() for row in (eps @ cover.split[w].kernel).data
                       for e in row), w
        fresh_omega = syzygy(fresh)
        assert validate_relations(omega) == []
        assert omega.floor == fresh_omega.floor
        assert rep_a_vector(omega) == rep_a_vector(fresh_omega)
        assert is_isomorphic(omega, fresh_omega)


    def test_carried_splitting_splits_the_cover(self, pair):
        # the cover map's splitting completes the carried embedding
        m, _ = pair
        cover = homology._cover_of(m)
        for w, eps in cover_maps(m).items():
            emb = cover.split[w].kernel
            sec, ret = cover.split[w].section, retraction(cover.split[w])
            assert eps @ sec == DVRMatrix.identity(m.s, m.trunc), w
            assert ret @ emb == DVRMatrix.identity(emb.cols, m.trunc), w
            assert sec @ eps + emb @ ret == DVRMatrix.identity(eps.cols, m.trunc), w


class TestRotationsShareTheRoot:
    """Every rotation of a module is a view that resolves from its root."""

    @pytest.fixture(params=["rank1", "rank2"])
    def rotations(self, request):
        """A resolved root and every module that must share its resolution:
        the memo's modules of the rotated rims or pairs, and every rotation of
        a rotation."""
        if request.param == "rank1":
            modules._rank1.cache_clear()
            a = rim([1, 2, 6], 3, 8)
            assert least_shift(a) == 0
            root = build_rank1(a)
            memo = [build_rank1(shift(a, j)) for j in range(1, 8)]
        else:
            homology._rank2_walk.cache_clear()
            a, b = rim([1, 3, 5], 3, 7), rim([2, 4, 6], 3, 7)
            assert least_shift(a, b) == 0
            root = rank2_extension(a, b)
            memo = [rank2_extension(shift(a, j), shift(b, j)) for j in range(1, 7)]
        homology._omega(syzygy(root))
        n = root.n
        return root, memo + [root.rotate(i).rotate(j) for i in range(n) for j in range(n)]

    def test_rotations_make_no_cover(self, rotations, monkeypatch):
        root, turned = rotations
        covered = []
        original = homology.projective_cover

        def counted(m):
            covered.append(m)
            return original(m)
        monkeypatch.setattr(homology, "projective_cover", counted)
        for m in turned:
            homology._omega(syzygy(m))
            assert ext1(m, m) == ext1(root, root)
        assert covered == []

    def test_rotating_twice_is_one_rotation(self, rotations):
        root, _ = rotations
        n = root.n
        for i in range(-n, n + 1):
            for j in range(-2, n + 2):
                twice, once = root.rotate(i).rotate(j), root.rotate(i + j)
                assert (twice.x, twice.y, twice.floor, twice.trunc) == \
                    (once.x, once.y, once.floor, once.trunc), (i, j)


class TestExtRotationEquivariance:
    """Ext^1 of every rotation of a rank-1 pair, from the shared rotation
    views, equals Ext^1 on cache-free copies of the pair's rims."""

    @staticmethod
    def check(pairs, N):
        n = pairs[0][0].n
        fresh = {}

        def copy(r):
            # built directly, so it shares no cache with any rotation
            if r not in fresh:
                fresh[r] = build_layered([r], N)
            return fresh[r]
        for a, b in pairs:
            want = ext1(copy(a), copy(b))
            for j in range(n):
                turned = shift(a, j), shift(b, j)
                assert ext1(copy(turned[0]), copy(turned[1])) == want, (a, b, j)
                assert ext1(*(build_rank1(r, N) for r in turned)) == want, (a, b, j)

    def test_every_ordered_3_7_pair(self):
        rims_all = all_rims(3, 7)
        # one pair per rotation class: the shifts run through the rest
        classes = {min((shift(a, j), shift(b, j)) for j in range(7))
                   for a in rims_all for b in rims_all}
        self.check(sorted(classes, key=lambda p: (p[0].elements, p[1].elements)), 14)

    def test_fixed_4_9_sample(self):
        # the seeded 60-pair sample of TestCanonicalExt, diagonal pairs too
        rims_all = all_rims(4, 9)
        rng = random.Random(4109)
        pairs = [tuple(rng.sample(rims_all, 2)) for _ in range(58)]
        self.check(pairs + [(rims_all[7], rims_all[7]), (rims_all[40], rims_all[40])], 18)


class TestFactorOnce:
    """Every matrix a computation solves against is factored once: a cover
    map by ``_split``, any other by ``_smith``."""

    @staticmethod
    def count_factorisations(monkeypatch):
        """The matrices given to ``_smith`` and to ``_split``, by name."""
        calls = {"_smith": [], "_split": []}
        for name, log in calls.items():
            def counted(matrix, original=getattr(dvr, name), log=log):
                log.append(matrix)
                return original(matrix)
            for module in (dvr, homology, modules):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def count_replays(monkeypatch, factor="_smith", kind=dvr.Smith):
        """The factorisations ``factor`` returns, and each factorisation
        whose V (a ``Split``'s section) is built, once per build."""
        factored, built = [], []
        original, replay = getattr(dvr, factor), kind._replay

        def recorded(matrix):
            factored.append(original(matrix))
            return factored[-1]

        def counted(sm):
            built.append(sm)
            return replay(sm)
        for module in (dvr, homology, modules):
            if hasattr(module, factor):
                monkeypatch.setattr(module, factor, recorded)
        monkeypatch.setattr(kind, "_replay", counted)
        return factored, built

    def test_exponent_readers_build_no_v(self, monkeypatch):
        top = build_rank1(rim([1, 3, 5, 7], 4, 8))
        m = extension_middle(rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8))
        factored, built = self.count_replays(monkeypatch)
        ext1(m, top)
        is_rigid(m)
        rep_a_vector(m)
        # two Hom conditions and a Smith form per structure map, no V
        assert len(factored) == 2 + m.n and built == []

    def test_ext_sweep_builds_no_section(self, monkeypatch):
        # a cold sweep splits every cover map and reads kernels and
        # coordinates only; a Hom basis then builds each section it reads once
        modules._rank1.cache_clear()
        rims = all_rims(4, 9)
        split, built = self.count_replays(monkeypatch, "_split", dvr.Split)
        for a, b in ((rims[0], rims[40]), (rims[3], rims[77]), (rims[10], rims[11])):
            ext1(build_rank1(a), build_rank1(b))
            ext1(build_rank1(b), build_rank1(a))
        assert len(split) > 6 and built == []
        m, n = build_rank1(rims[0]), build_rank1(rims[40])
        hom_space(m, n)
        hom_space(m, n)
        assert len(built) == m.n and all(any(sp is s for s in split) for sp in built)

    def test_ladder_builds_v_for_its_classes_alone(self, monkeypatch):
        # no weight gives a rigid indecomposable middle, so the walk tests
        # the rigidity of every middle
        a, b = rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8)
        homology._rank2_walk.cache_clear()
        modules._rank1.cache_clear()
        conditions = []
        hom_condition = homology._hom_condition

        def recorded(*args):
            out = hom_condition(*args)
            conditions.append((args, out[0]))
            return out
        factored, built = self.count_replays(monkeypatch)
        monkeypatch.setattr(homology, "_hom_condition", recorded)
        assert rigid_indecomposable_rank2(a, b) is None
        top, bottom = build_rank1(a, 16), build_rank1(b, 16)
        assert len(factored) > len(WEIGHT_LADDER)
        assert built == [sm for ends, sm in conditions if ends == (top, bottom)]
        assert len(built) == 1

    @pytest.mark.parametrize("read", [
        lambda m, other: hom_space(m, m),
        lambda m, other: is_isomorphic(m, other),
        lambda m, other: homology._extension_classes(
            build_rank1(rim([1, 3, 5, 7], 4, 8)), build_rank1(rim([2, 4, 6, 8], 4, 8))),
    ], ids=["hom_space", "is_isomorphic", "extension_classes"])
    def test_kernel_readers_build_v_once(self, monkeypatch, read):
        m = rigid_indecomposable_rank2(rim([1, 2, 4, 7], 4, 8), rim([3, 5, 6, 8], 4, 8))
        other = rigid_indecomposable_rank2(rim([1, 4, 5, 7], 4, 8), rim([2, 3, 6, 8], 4, 8))
        rep_a_vector(m), rep_a_vector(other), syzygy(m)
        factored, built = self.count_replays(monkeypatch)
        read(m, other)
        # one Hom condition, its V built once; a second read of its kernel
        # and of V builds nothing
        assert len(factored) == 1 and built == factored
        sm = factored[0]
        assert sm.kernel() == sm.kernel() and sm.V is sm.V
        assert built == factored

    def test_hom_space_factors_each_vertex_once(self, monkeypatch):
        m = rank2_extension(rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8))
        calls = self.count_factorisations(monkeypatch)
        assert hom_space(m, m).z_rank > 1
        # the cover map split once per vertex and the Hom condition factored
        # once; the basis maps are products with the cover's sections
        assert len(calls["_split"]) <= 8 and len(calls["_smith"]) <= 1
        assert all(any(mat == e for e in cover_maps(m).values()) for mat in calls["_split"])

    def test_hom_condition_has_one_block_per_syzygy_generator(self, monkeypatch):
        m = rank2_extension(rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8))
        one = build_rank1(rim([1, 3, 5, 7], 4, 8))
        calls = self.count_factorisations(monkeypatch)["_smith"]
        for source, target in ((m, m), (m, one), (one, m), (m.rotate(3), m)):
            homology._omega(syzygy(source))
            before = len(calls)
            hom_space(source, target)
            # the Hom condition, of width columns, is the only Smith form
            width = homology._cover_of(source).size * target.s
            rows = [mat.rows for mat in calls[before:] if mat.cols == width]
            assert rows == [len(top_generators(syzygy(source))) * target.s]

    def test_syzygy_is_factored_once_per_module(self, monkeypatch):
        top, bottom = rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8)
        m, other = extension_middle(top, bottom), extension_middle(bottom, top)
        calls = self.count_factorisations(monkeypatch)
        assert hom_space(m, m).z_rank > 1
        # the 8 cover maps split and the Hom condition factored
        assert (len(calls["_split"]), len(calls["_smith"])) == (8, 1)
        # m's cover and syzygy are cached: the Hom condition only
        hom_space(m, other)
        assert (len(calls["_split"]), len(calls["_smith"])) == (8, 2)
        assert syzygy(m) is homology._omega(m)
        assert (len(calls["_split"]), len(calls["_smith"])) == (8, 2)

    @pytest.mark.parametrize("other", [
        lambda m: m,
        lambda m: build_rank1(rim([1, 3, 5, 7], 4, 8)),
    ], ids=["self", "rank1"])
    def test_ext_factors_the_hom_condition_alone(self, monkeypatch, other):
        m = rank2_extension(rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8))
        other = other(m)
        syzygy(m)
        calls = self.count_factorisations(monkeypatch)
        ext1(m, other)
        assert (len(calls["_smith"]), calls["_split"]) == (1, [])

    def test_rigidity_resolves_the_module_once(self, monkeypatch):
        m = extension_middle(rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8))
        covered = []
        original = homology.projective_cover

        def counted(rep):
            covered.append(rep)
            return original(rep)
        monkeypatch.setattr(homology, "projective_cover", counted)
        is_rigid(m)
        # the middle's cover, never one of its syzygy
        assert covered == [m]

    def test_pushout_factors_each_vertex_once(self, monkeypatch):
        # no weight gives a rigid indecomposable middle, so the walk tries all
        a, b = rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8)
        homology._rank2_walk.cache_clear()
        modules._rank1.cache_clear()
        factored = self.count_factorisations(monkeypatch)
        calls = factored["_split"]
        covered, inside = [], []
        cover, pushout = homology.projective_cover, homology._pushout

        def recorded(rep):
            covered.append((rep, cover(rep)))
            return covered[-1][1]

        def counted(*args):
            before = len(calls) + len(factored["_smith"])
            out = pushout(*args)
            inside.append(len(calls) + len(factored["_smith"]) - before)
            return out
        monkeypatch.setattr(homology, "projective_cover", recorded)
        monkeypatch.setattr(homology, "_pushout", counted)
        assert rigid_indecomposable_rank2(a, b) is None
        m = rank2_extension(a, b)
        assert hom_space(m, m).z_rank > 1 and syzygy(m) is homology._omega(m)
        # every middle is written on bottom + top from the sections of the
        # top's cover map, read off its splits
        assert inside == [0] * len(WEIGHT_LADDER)
        # the top's cover, its syzygy's and every middle's: one cover per
        # root module, each of its maps split once across the syzygy, Hom
        # and the walk, and nothing else split
        assert len({id(rep) for rep, _ in covered}) == len(covered) > len(WEIGHT_LADDER)
        eps = [e for rep, _ in covered for e in cover_maps(rep).values()]
        assert [sum(mat == e for mat in calls) for e in eps] == \
            [sum(other == e for other in eps) for e in eps]
        assert len(calls) == len(eps)
        top = build_rank1(a, 16)
        assert any(rep is top for rep, _ in covered)
        assert all(any(e == mat for mat in eps) for e in cover_maps(top).values())

    @pytest.mark.parametrize("m", [
        lambda: rank2_extension(rim([1, 3, 5], 3, 7), rim([2, 4, 7], 3, 7)),
        lambda: direct_sum(build_rank1(rim([1, 2, 5], 3, 7)), build_rank1(rim([3, 4, 7], 3, 7))),
    ], ids=["indecomposable", "split"])
    def test_decomposition_computes_one_a_vector(self, monkeypatch, m):
        # every candidate has m's top and a-vector, so neither is recomputed
        m = m()
        calls = []
        original = homology.rep_a_vector

        def counted(rep):
            calls.append(rep)
            return original(rep)
        monkeypatch.setattr(homology, "rep_a_vector", counted)
        decomposition_rank2(m)
        assert calls == [m]

    def test_vertex_maps_refuse_images_that_define_no_map(self):
        # the first cover generator sent to the generator of N, the others to 0
        m = build_rank1(rim([1, 3, 5, 7], 4, 8))
        cover = homology._cover_of(m)
        one, zero = ValPoly.one(m.trunc), ValPoly.zero(m.trunc)
        images = DVRMatrix.from_columns([[one] + [zero] * (cover.size - 1)], cover.size,
                                        m.trunc)
        assert any(not e.is_zero() for row in (homology._relation_rows(m, m) @ images).data
                   for e in row)
        with pytest.raises(TruncationUnstable, match="hom evaluation not solvable"):
            homology._vertex_maps(cover, m, images, range(1, m.n + 1), m.floor)

    def test_isomorphism_with_different_tops_factors_nothing(self, monkeypatch):
        a, b = rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)
        m_ab, m_ba = rank2_extension(a, b), rank2_extension(b, a)
        assert top_multiset(m_ab) != top_multiset(m_ba)
        calls = self.count_factorisations(monkeypatch)
        assert not is_isomorphic(m_ab, m_ba)
        assert calls == {"_smith": [], "_split": []}

    @pytest.mark.parametrize("m, other, verdict", [
        # the (4,8) negative control and the rotation of 1246|3578 in its class
        (lambda: rigid_indecomposable_rank2(rim([1, 2, 4, 7], 4, 8), rim([3, 5, 6, 8], 4, 8)),
         lambda: rigid_indecomposable_rank2(rim([1, 4, 5, 7], 4, 8), rim([2, 3, 6, 8], 4, 8)),
         True),
        # a (3,7) module and a split of its a-vector with the same top
        (lambda: rank2_extension(rim([1, 3, 5], 3, 7), rim([2, 4, 7], 3, 7)),
         lambda: direct_sum(build_rank1(rim([1, 2, 5], 3, 7)), build_rank1(rim([3, 4, 7], 3, 7))),
         False),
    ], ids=["4-8-same-class", "3-7-split"])
    def test_isomorphism_with_equal_tops_reads_one_vertex(self, monkeypatch, m, other, verdict):
        m, other = m(), other()
        assert top_multiset(m) == top_multiset(other)
        syzygy(m)
        calls = self.count_factorisations(monkeypatch)
        assert is_isomorphic(m, other) is verdict
        # the a-vectors of both modules and the Hom condition; m's cover is
        # cached, and only m's is read
        assert len(calls["_smith"]) <= 2 * m.n + 1 + 1 and calls["_split"] == []


def all_vertex_rows(m, n_rep):
    """Oracle: the Hom condition at every syzygy basis vector of every
    vertex, one block of rank(n) rows each, in ``_relation_rows`` columns."""
    cover, sN = homology._cover_of(m), n_rep.s
    rows = []
    for w, sp in cover.split.items():
        emb = sp.kernel
        paths = [n_rep.path_matrix(v, w) for v in cover.vertices]
        for j in range(emb.cols):
            u = emb.column(j)
            rows += [[u[i] * paths[i].data[a][b] for i in range(len(u)) for b in range(sN)]
                     for a in range(sN)]
    return DVRMatrix(rows, m.trunc, cols=cover.size * sN)


class TestHomConditionAtGenerators:
    """The Hom condition at the syzygy's top generators has the Smith form
    and the kernel of the condition at every basis vector of every vertex."""

    @staticmethod
    def check(pairs, turns):
        smaller = 0
        for m, n_rep in pairs:
            for j in turns:
                src, dst = m.rotate(j), n_rep.rotate(j)
                sm, floor, _ = homology._hom_condition(src, dst)
                full = all_vertex_rows(src, dst)
                old = dvr._smith(full)
                assert sm.exponents == old.exponents, (src.s, dst.s, j)
                kernel = sm.kernel()
                assert kernel.cols == old.kernel().cols == src.s * dst.s
                residue = full @ kernel
                # floor is the kernel's, the condition's less sm.loss
                assert all(d >= floor
                           for row in residue.data for e in row for d in e.coeffs), j
                smaller += homology._relation_rows(src, dst).rows < full.rows
        assert smaller

    def test_every_ordered_3_7_rank1_pair(self):
        reps = [build_rank1(r) for r in all_rims(3, 7)]
        # build_rank1 hands most rims views of their class's root; turn 3 relabels all
        self.check([(a, b) for a in reps for b in reps], (0, 3))

    def test_rigid_3_7_classes_with_themselves_and_a_rank1_module(self):
        rigid = [rigid_indecomposable_rank2(a, b) for a, b in rank2_candidates(3, 7)]
        rigid = [m for m in rigid if m is not None]
        assert len(rigid) == 14
        one = build_rank1(rim([1, 3, 6], 3, 7))
        pairs = [p for m in rigid for p in ((m, m), (m, one), (one, m))]
        self.check(pairs, range(7))

    def test_rank2_4_8_extension_with_itself(self):
        m = rank2_extension(rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8))
        self.check([(m, m)], range(8))


class TestTwoPeakExtBound:
    def test_single_cyclic_factor_bounded_by_min_slope(self):
        # two-peak source: one cyclic factor, exponent at most the minimal
        # slope; exact values are produced numerically, not by a formula
        I = rim([1, 2, 4, 5], 4, 9)
        m = slopes(I).min_slope
        for J in all_rims(4, 9)[::6]:
            if not crossing(I, J):
                continue
            exps = ext1_rims(I, J).exponents
            assert len(exps) == 1
            assert exps[0] <= m


def reference_generators(m, v):
    """Top generators at v by re-ranking the whole block for each trial vector."""
    nxt = v % m.n + 1
    block = [rx + ry for rx, ry in zip(m.x[v].mod_t(), m.y[nxt].mod_t())]
    cols = [list(c) for c in zip(*block)]
    chosen = []
    for idx in range(m.s):
        if rational_rank(cols) == m.s:
            break
        trial = cols + [[1 if i == idx else 0 for i in range(m.s)]]
        if rational_rank(trial) > rational_rank(cols):
            chosen.append(idx)
            cols = trial
    return chosen


def test_top_generators_match_rank_based_choice():
    modules = [build_rank1(r) for r in all_rims(3, 7)]
    modules += [rank2_extension(rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)),
                rank2_extension(rim([1, 3, 5, 7], 4, 8), rim([2, 4, 6, 8], 4, 8)),
                build_layered([rim(e, 3, 7) for e in ([1, 3, 6], [2, 4, 7], [1, 2, 5])])]
    modules += [syzygy(m) for m in modules[-3:]]
    for m in modules:
        for v in range(1, m.n + 1):
            assert homology._top_generators(m, v) == reference_generators(m, v), (m.s, v)


class TestCanonicalExt:
    """Rank-1 modules of one rotation class share one resolution:
    ``build_rank1`` builds the least rotation of a rim and hands the other
    rims of its class views of it, and ``ext1`` takes its arguments as they
    come.  Ext on those shared modules matches Ext on fresh modules."""

    @staticmethod
    def oracle(rims_all, N):
        """Single-shot exponents at N and N + 2 on modules built directly,
        unrotated and sharing no cache with the ``build_rank1`` memo."""
        fresh = {N2: {r: build_layered([r], N2) for r in rims_all} for N2 in (N, N + 2)}

        def exps(a, b):
            got = [ext1(reps[a], reps[b]).exponents for reps in fresh.values()]
            assert got[0] == got[1], (a, b)
            return got[0]
        return exps

    def test_all_ordered_3_7_pairs_match_the_oracle(self):
        rims_all = all_rims(3, 7)
        exps = self.oracle(rims_all, 14)
        for a in rims_all:
            ma = build_rank1(a)
            assert ext1(ma, ma).exponents == exps(a, a), a
            for b in rims_all:
                assert ext1(ma, build_rank1(b)).exponents == exps(a, b), (a, b)

    def test_seeded_4_9_sample_matches_the_oracle(self):
        rims_all = all_rims(4, 9)
        rng = random.Random(4109)
        pairs = [tuple(rng.sample(rims_all, 2)) for _ in range(58)]
        pairs += [(rims_all[7], rims_all[7]), (rims_all[40], rims_all[40])]
        rotated = [a for a, _ in pairs
                   if min(shift(a, j).elements for j in range(9)) != a.elements]
        assert len(rotated) > 40
        exps = self.oracle(sorted({r for p in pairs for r in p}, key=lambda r: r.elements), 18)
        for a, b in pairs:
            ma = build_rank1(a)
            mb = ma if a == b else build_rank1(b)
            assert ext1(ma, mb).exponents == exps(a, b), (a, b)

    def test_rank2_second_argument_is_rotated_too(self):
        # a rank-1 view against a rank-2 module: the view's resolution is its
        # root's, relabelled, and the rank-2 module is taken as it comes
        n_rep = rank2_extension(rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6))
        rebuilt = rank2_extension(rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6), 14)
        for a in all_rims(3, 6):
            want = ext1(build_rank1(a, 12), n_rep).exponents
            assert want == ext1(build_rank1(a, 14), rebuilt).exponents
            assert ext1(build_rank1(a), n_rep).exponents == want, a

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(2, 5), (3, 6), (3, 7), (3, 8), (3, 9), (4, 8), (4, 9)])
           .flatmap(lambda kn: st.tuples(
               st.sampled_from(all_rims(*kn)), st.sampled_from(all_rims(*kn)),
               st.integers(1, kn[1] - 1))))
    def test_rotation_equivariance(self, case):
        a, b, j = case
        turned = (shift(a, j), shift(b, j))
        assert ext1_rims(*turned) == ext1_rims(a, b)
        # the rotated pair built directly, sharing no cache with the memo's views
        assert ext1(*(build_layered([r]) for r in turned)).exponents == \
            ext1(build_rank1(a), build_rank1(b)).exponents

    def test_memo_holds_one_module_per_class_and_truncation(self, monkeypatch):
        # fresh rank-1 modules, so every one below is resolved here
        modules._rank1.cache_clear()
        covered = []
        original = homology.projective_cover

        def counted(m):
            covered.append(m)
            return original(m)
        # the cover is computed exactly when a module's syzygy is
        monkeypatch.setattr(homology, "projective_cover", counted)
        rims_all = all_rims(3, 7)
        for a in rims_all:
            for b in rims_all:
                ext1_rims(a, b)
        resolved = [(identify_rank1(m), m) for m in covered if m.s == 1]
        assert len(resolved) == 5
        for r, m in resolved:
            assert m.trunc == 14
            assert r.elements == min(shift(r, j).elements for j in range(7))
            assert build_rank1(r) is m

    def test_syzygy_is_cached_on_the_module(self):
        m = build_rank1(rim([1, 4, 5], 3, 9))
        omega = syzygy(m)
        assert omega is syzygy(m) and omega is homology._omega(m)
        assert homology._cover_of(m) is homology._cover_of(m)
        # the second step of the resolution is the syzygy's own cache
        assert syzygy(omega) is syzygy(omega)
        projective = build_rank1(rim([6, 7, 8], 3, 8))
        assert homology._cover_of(projective) is homology._cover_of(projective)
        assert homology._omega(projective) is None

    def test_mismatched_inputs_raise(self):
        with pytest.raises(ValueError):
            ext1(build_rank1(rim([1, 3, 5], 3, 6)), build_rank1(rim([1, 3, 5], 3, 7)))
        with pytest.raises(ValueError):
            ext1(build_rank1(rim([1, 3, 5], 3, 6), 12),
                 build_rank1(rim([2, 4, 6], 3, 6), 14))


def two_step_ext(m, n_rep):
    """Oracle: Ext^1 from the second resolution step, the cokernel of the
    Hom condition written in the kernel basis of the syzygy's own Hom
    condition, Hom(Omega, N), with its own certificate.  The coordinates are
    read off the oracle's V_inv of that condition."""
    omega = homology._omega(m)
    if omega is None:
        return ()
    _, _, rows = homology._hom_condition(omega, n_rep)
    floor = min(omega.floor, n_rep.floor)
    sm_e = FullSmith(rows)
    coords = sm_e.coordinates(homology._relation_rows(m, n_rep), floor)
    exps = dvr._smith(coords).certify(floor - sm_e.loss, coords.rows, "two-step Ext^1")
    return tuple(e for e in exps if e > 0)


class TestTwoStepExtOracle:
    """ext1 reads Ext^1 off the Hom condition's Smith form; the two-step
    presentation through Hom(Omega, N) gives the same exponents."""

    @staticmethod
    def check(pairs):
        for m, n_rep in pairs:
            assert ext1(m, n_rep).exponents == two_step_ext(m, n_rep), (m.s, n_rep.s)

    def test_every_ordered_3_7_rank1_pair(self):
        reps = [build_rank1(r) for r in all_rims(3, 7)]
        self.check([(a, b) for a in reps for b in reps])

    def test_seeded_4_9_sample(self):
        # the sample of TestCanonicalExt
        rims_all = all_rims(4, 9)
        rng = random.Random(4109)
        pairs = [tuple(rng.sample(rims_all, 2)) for _ in range(58)]
        pairs += [(rims_all[7], rims_all[7]), (rims_all[40], rims_all[40])]
        self.check([(build_rank1(a), build_rank1(b)) for a, b in pairs])

    def test_rigid_3_7_classes_with_themselves_and_rims(self):
        rigid = [rigid_indecomposable_rank2(a, b) for a, b in rank2_candidates(3, 7)]
        rigid = [m for m in rigid if m is not None]
        assert len(rigid) == 14
        ones = [build_rank1(r) for r in all_rims(3, 7)[::9]]
        assert len(ones) == 4
        self.check([p for m in rigid for one in ones for p in ((m, m), (m, one), (one, m))])

    def test_rank3_syzygy_against_rank1_modules(self):
        omega = syzygy(build_rank1(rim([1, 3, 5, 7], 4, 8)))
        assert omega.s == 3
        ones = [build_rank1(r) for r in all_rims(4, 8)]
        self.check([p for one in ones for p in ((omega, one), (one, omega))])

    @pytest.mark.parametrize("floor", [1, 2, 3, 4])
    def test_coarse_floors_answer_exactly_or_raise(self, floor):
        # every (3,6) rank-1 pair with both maps cut to degrees below floor:
        # ext1 raises or gives the exact answer, and it answers wherever the
        # two-step certificate does, since it subtracts no loss
        rims_all = all_rims(3, 6)
        exact = {r: build_rank1(r, 12) for r in rims_all}

        def cut(maps):
            return {v: DVRMatrix([[ValPoly({d: c for d, c in e.coeffs.items() if d < floor}, 12)
                                   for e in row] for row in mat.data], 12, cols=mat.cols)
                    for v, mat in maps.items()}
        coarse = {r: CMModuleRep(6, 3, 1, cut(m.x), cut(m.y), 12, floor=floor)
                  for r, m in exact.items()}

        def attempt(fn, a, b):
            try:
                return fn(coarse[a], coarse[b])
            except TruncationUnstable:
                return None
        answered = 0
        for a in rims_all:
            for b in rims_all:
                got = attempt(lambda m, n_rep: ext1(m, n_rep).exponents, a, b)
                two_step = attempt(two_step_ext, a, b)
                assert two_step is None or got is not None, (a, b)
                if got is not None:
                    assert got == ext1(exact[a], exact[b]).exponents, (a, b)
                    answered += 1
        assert answered > 0


class TestOneExtCheck:
    """ext1 computes once, at N, and certifies that answer by its floor."""

    @staticmethod
    def count_calls(monkeypatch, fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].trunc)
            return fn(*args, **kwargs)
        monkeypatch.setattr(homology, "_hom_condition", counted)
        return calls

    def test_floor_below_the_ext_exponent_raises(self, monkeypatch):
        # 135 is the least rotation of its rim, so the pair is not rotated;
        # Ext^1(135, 246) = C + C needs a floor above exponent 1
        m = build_rank1(rim([1, 3, 5], 3, 6), 12)
        exact = build_rank1(rim([2, 4, 6], 3, 6), 12)
        coarse = CMModuleRep(6, 3, 1, exact.x, exact.y, 12, floor=1)
        calls = self.count_calls(monkeypatch, homology._hom_condition)
        assert ext1(m, exact).exponents == (1, 1)
        assert calls == [12]
        with pytest.raises(TruncationUnstable) as exc:
            ext1(m, coarse)
        assert calls == [12, 12]
        message = str(exc.value)
        assert "truncation 12" in message
        assert "floor 1" in message
        assert "short by at least 1" in message

    def test_instability_of_one_computation_propagates(self, monkeypatch):
        def unstable(*args, **kwargs):
            raise TruncationUnstable("free rank")
        calls = self.count_calls(monkeypatch, unstable)
        with pytest.raises(TruncationUnstable, match="free rank"):
            ext1_rims(rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6))
        assert calls == [12]


class TestHomRank:
    """Hom over the centre is free of rank rank(M) * rank(N), or raises."""

    def test_rank1_pairs_at_truncation_1(self):
        rims_all = all_rims(3, 7)
        reps = {r: build_rank1(r, 1) for r in rims_all}
        answered = 0
        for a in rims_all:
            for b in rims_all:
                try:
                    hom = hom_space(reps[a], reps[b])
                except TruncationUnstable:
                    continue
                assert hom.z_rank == 1, (a, b)
                answered += 1
        assert answered > 0

    def test_census_rank2_modules_have_rank_4(self):
        modules = [rigid_indecomposable_rank2(a, b) for a, b in rank2_candidates(3, 7)]
        modules = [m for m in modules if m is not None]
        assert modules
        for m in modules:
            assert hom_space(m, m).z_rank == 4
            assert hom_space(m, modules[0]).z_rank == 4


class TestPlainData:
    """Modules are plain data: they pickle with equal maps."""

    @pytest.mark.parametrize("build", [
        lambda: rigid_indecomposable_rank2(rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)),
        lambda: build_rank1(rim([1, 4, 5], 3, 8)).rotate(3),
    ])
    def test_round_trip(self, build):
        m = build()
        syzygy(m)   # the cached cover, syzygy and path matrices travel too
        back = pickle.loads(pickle.dumps(m))
        assert (back.n, back.k, back.s, back.trunc, back.floor) == \
            (m.n, m.k, m.s, m.trunc, m.floor)
        assert (back.x, back.y) == (m.x, m.y)
        assert ext1(back, back) == ext1(m, m)


class TestDetPolyModT:
    """With one block the polynomial is that block's determinant times
    lambda_0^s, its sign by inversion count."""

    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_one_block_against_elimination(self, s):
        rng = random.Random(s)
        perms = [[[Fraction(int(j == p[i])) for j in range(s)] for i in range(s)]
                 for p in permutations(range(s))]
        rand = [[[Fraction(rng.randint(-2, 2), rng.choice((1, 3))) for _ in range(s)]
                 for _ in range(s)] for _ in range(20)]
        singular = [row[:] for row in rand[0]]
        singular[-1] = singular[0]
        for block in perms + rand + [singular]:
            det = rational_det(block)
            assert homology._det_poly_mod_t([block], s) == ({(0,) * s: det} if det else {})


def n_vertex_is_isomorphic(m, n_rep):
    """Oracle: the isomorphism test that writes a generic map out at every vertex."""
    if (m.n, m.k, m.s) != (n_rep.n, n_rep.k, n_rep.s):
        return False
    basis = hom_space(m, n_rep).generators
    return all(homology._det_poly_mod_t([gen[w].mod_t() for gen in basis], m.s)
               for w in range(1, m.n + 1))


class TestOneVertexIsomorphism:
    """is_isomorphic agrees with the n-vertex test and commutes with rotation."""

    @staticmethod
    def verdicts(pairs):
        out = []
        for m, other in pairs:
            got = is_isomorphic(m, other)
            assert got == n_vertex_is_isomorphic(m, other)
            for j in range(1, m.n):
                assert is_isomorphic(m.rotate(j), other.rotate(j)) == got, j
            out.append(got)
        return out

    def test_3_7_candidates_sharing_an_a_vector(self):
        by_avec = {}
        for a, b in rank2_candidates(3, 7):
            m = rank2_extension(a, b)
            by_avec.setdefault(rep_a_vector(m), []).append(m)
        pairs = [pair for group in by_avec.values() for pair in combinations(group, 2)]
        assert len(pairs) == 7
        self.verdicts(pairs)

    def test_3_7_split_candidates_are_decided_by_the_determinant(self):
        # the decomposition_rank2 candidates: same top and a-vector, not isomorphic
        pairs = []
        for a, b in rank2_candidates(3, 7):
            m = rank2_extension(a, b)
            for u, v in two_layer_splits(rep_a_vector(m).entries, 3, 7):
                cand = direct_sum(build_rank1(u, m.trunc), build_rank1(v, m.trunc))
                if u < v and top_multiset(cand) == top_multiset(m):
                    assert rep_a_vector(cand) == rep_a_vector(m)
                    pairs.append((m, cand))
        assert len(pairs) == 7
        assert self.verdicts(pairs) == [False] * 7

    def test_4_8_negative_control_against_rotations(self):
        m = rigid_indecomposable_rank2(rim([1, 2, 4, 7], 4, 8), rim([3, 5, 6, 8], 4, 8))
        a, b = rim([1, 2, 4, 6], 4, 8), rim([3, 5, 7, 8], 4, 8)
        pairs = [(m, rigid_indecomposable_rank2(shift(a, j), shift(b, j)))
                 for j in range(8)]
        assert self.verdicts(pairs) == [j == 3 for j in range(8)]
