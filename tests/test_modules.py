import random

import pytest

from grasscat.dvr import DVRMatrix, ValPoly
from grasscat.errors import NotRankOne, TruncationUnstable
from grasscat.homology import rank2_extension
from grasscat.modules import (CMModuleRep, Profile, a_vector, build_layered,
                              build_rank1, direct_sum, identify_rank1,
                              lattice_diagram_data, parse_profile, per_rotation_class,
                              profile, rep_a_vector, sigma_power, validate_relations)
from grasscat.rims import all_rims, least_shift, parse_rim, rim, shift

N = 16


class TestSigma:
    def test_s2(self):
        s1 = sigma_power(2, 1, N)
        assert [[repr(e) for e in row] for row in s1.data] == [["0", "1"], ["t", "0"]]
        assert sigma_power(2, 2, N) == DVRMatrix.identity(2, N).scale(ValPoly.t(N))

    def test_s3_closed_form(self):
        s2 = sigma_power(3, 2, N)
        assert [[repr(e) for e in row] for row in s2.data] == \
            [["0", "0", "1"], ["t", "0", "0"], ["0", "t", "0"]]

    def test_powers_multiply(self):
        for s in range(2, 7):
            step = sigma_power(s, 1, N)
            acc = DVRMatrix.identity(s, N)
            for j in range(1, s + 1):
                acc = step @ acc
                assert acc == sigma_power(s, j, N)
            assert acc == DVRMatrix.identity(s, N).scale(ValPoly.t(N))

    def test_range_check(self):
        with pytest.raises(ValueError):
            sigma_power(3, 4, N)


class TestBuildRank1:
    def test_structure_scalars(self):
        m = build_rank1(rim([1, 4, 5], 3, 8), N)
        for i in range(1, 9):
            xv = m.x[i].data[0][0]
            yv = m.y[i].data[0][0]
            if i in (1, 4, 5):
                assert (xv, yv) == (ValPoly.one(N), ValPoly.t(N))
            else:
                assert (xv, yv) == (ValPoly.t(N), ValPoly.one(N))
            assert xv * yv == ValPoly.t(N)

    def test_projective_rim_is_projective_module(self):
        # the interval {6,7,8} over (3,8) is the projective at vertex 5
        from grasscat.homology import _omega, top_multiset
        m = build_rank1(rim([6, 7, 8], 3, 8), N)
        assert _omega(m) is None
        assert top_multiset(m) == {5: 1}

    def test_validates(self):
        for k, n in [(2, 5), (3, 7), (4, 9)]:
            for r in all_rims(k, n):
                assert validate_relations(build_rank1(r)) == []


class TestBuildLayered:
    def test_example_pair_49(self):
        m = build_layered([rim([2, 5, 8, 9], 4, 9), rim([1, 3, 7, 8], 4, 9)])
        assert validate_relations(m) == []
        assert m.s == 2

    def test_single_layer_equals_rank1(self):
        r = rim([1, 4, 5], 3, 8)
        a, b = build_layered([r], N), build_rank1(r, N)
        assert a.x == b.x and a.y == b.y

    def test_three_layers_38(self):
        m = build_layered([rim([3, 6, 8], 3, 8), rim([2, 5, 8], 3, 8),
                           rim([1, 4, 7], 3, 8)])
        assert m.s == 3
        assert validate_relations(m) == []

    def test_random_pairs_validate(self):
        rng = random.Random(0)
        for k, n in [(3, 8), (4, 9)]:
            rims_all = all_rims(k, n)
            for _ in range(20):
                pair = rng.sample(rims_all, 2)
                assert validate_relations(build_layered(pair)) == []

    def test_corrupted_module_fails_at_vertex(self):
        m = build_rank1(rim([1, 4, 5], 3, 8), N)
        bad_x = dict(m.x)
        bad_x[3], bad_x[4] = bad_x[4], bad_x[3]  # flip one pair of maps
        bad = CMModuleRep(8, 3, 1, bad_x, m.y, N)
        report = validate_relations(bad)
        assert report
        assert any("vertex 3" in line or "x_3" in line or "x_4" in line
                   for line in report)

    @pytest.mark.parametrize("degree, violated", [(N - 2, False), (N - 4, True)])
    def test_relations_are_compared_modulo_the_floor(self, degree, violated):
        # a computed module is correct modulo t^floor: a perturbation at or
        # above the floor carries no information, one below it is a violation
        m = build_rank1(rim([1, 4, 5], 3, 8), N)
        x = dict(m.x)
        x[1] = DVRMatrix([[ValPoly({0: 1, degree: 1}, N)]], N)
        perturbed = CMModuleRep(8, 3, 1, x, m.y, N, floor=N - 2)
        assert bool(validate_relations(perturbed)) == violated


class TestRankAndAVector:
    def test_ranks(self):
        assert build_rank1(rim([1, 3, 5], 3, 6)).s == 1
        assert build_layered([rim([1, 3, 5], 3, 6), rim([2, 4, 6], 3, 6)]).s == 2
        s = direct_sum(build_rank1(rim([1, 2, 3], 3, 6), N),
                       build_rank1(rim([4, 5, 6], 3, 6), N))
        assert s.s == 2 and validate_relations(s) == []

    def test_a_vector_examples(self):
        assert a_vector(profile([[1, 3, 5], [2, 4, 6]], 3, 6)).entries == (1,) * 6
        assert a_vector(profile([[2, 5, 6, 8], [1, 3, 4, 7]], 4, 8)).entries == (1,) * 8
        assert a_vector(profile([[1, 2, 3]], 3, 8)).entries == \
            (1, 1, 1, 0, 0, 0, 0, 0)

    def test_a_vector_order_independent(self):
        p = profile([[1, 2, 4, 6], [2, 3, 5, 7]], 4, 8)
        assert a_vector(p).entries == a_vector(Profile(p.layers[::-1])).entries

    def test_rep_a_vector_matches(self):
        p = profile([[2, 5, 7], [1, 3, 6]], 3, 8)
        assert rep_a_vector(build_layered(p.layers)).entries == a_vector(p).entries


class TestIdentifyRank1:
    def test_roundtrip(self):
        for r in all_rims(3, 7):
            assert identify_rank1(build_rank1(r)) == r

    def test_rescaled_basis(self):
        # multiplying every basis vector by t conjugates by a central scalar
        # and leaves the structure maps unchanged
        r = rim([1, 4, 5], 3, 8)
        m = build_rank1(r, N)
        rescaled = CMModuleRep(8, 3, 1, dict(m.x), dict(m.y), N)
        assert identify_rank1(rescaled) == r

    def test_unit_conjugated_basis(self):
        # conjugating by unit scalars at each vertex is a genuine isomorphism
        r = rim([1, 4, 5], 3, 8)
        m = build_rank1(r, N)
        units = {v: ValPoly({0: 1, 1: v}, N) for v in range(9)}
        units[8] = units[0]
        x, y = {}, {}
        for i in range(1, 9):
            prev = (i - 2) % 8 + 1 if i > 1 else 8
            gi, gp = units[i % 8], units[(i - 1) % 8]
            x[i] = DVRMatrix([[gi * m.x[i].data[0][0] * gp.unit_inverse()]], N)
            y[i] = DVRMatrix([[gp * m.y[i].data[0][0] * gi.unit_inverse()]], N)
        twisted = CMModuleRep(8, 3, 1, x, y, N)
        assert validate_relations(twisted) == []
        assert identify_rank1(twisted) == r

    def test_rejects_higher_rank(self):
        with pytest.raises(NotRankOne):
            identify_rank1(build_layered([rim([1, 3, 5], 3, 6),
                                          rim([2, 4, 6], 3, 6)]))

    @pytest.mark.parametrize("floor", [0, 1])
    def test_floor_at_an_x_valuation_raises(self, floor):
        # x_i is t off the rim: modulo t^floor with floor <= 1 it reads 0
        m = build_rank1(rim([1, 4, 5], 3, 8), N)
        coarse = CMModuleRep(8, 3, 1, m.x, m.y, N, floor=floor)
        with pytest.raises(TruncationUnstable):
            rep_a_vector(coarse)
        with pytest.raises(TruncationUnstable):
            identify_rank1(coarse)
        assert rep_a_vector(CMModuleRep(8, 3, 1, m.x, m.y, N, floor=2)) == rep_a_vector(m)


class TestLatticeDiagram:
    def test_figure_geometry(self):
        # heights of the printed single-layer diagram, normalised to min 0
        d = lattice_diagram_data(Profile((rim([1, 4, 5], 3, 8),)))
        assert d["polylines"][0] == [1, 0, 1, 2, 1, 0, 1, 2, 3]
        assert d["columns"][0]["label"] == 8

    def test_projective_staircase(self):
        d = lattice_diagram_data(Profile((rim([6, 7, 8], 3, 8),)))
        h = d["polylines"][0]
        assert h == [h[0]] + [h[0] + i for i in range(1, 6)] + \
            [h[0] + 4, h[0] + 3, h[0] + 2]

    def test_two_layer_stacking(self):
        p = profile([[2, 5, 8, 9], [1, 3, 7, 8]], 4, 9)
        d = lattice_diagram_data(p)
        top, bottom = d["polylines"]
        assert all(b <= t for t, b in zip(top, bottom))
        assert any(b == t for t, b in zip(top, bottom))  # layers touch
        assert min(min(top), min(bottom)) == 0

    def test_parse_profile(self):
        p = parse_profile("246|135@(3,9)")
        assert [r.elements for r in p.layers] == [(2, 4, 6), (1, 3, 5)]


def test_rank1_validates_up_to_n12():
    # every rank-1 module over every ambient with n <= 12 satisfies the
    # defining relations
    for n in range(5, 13):
        for k in range(2, n // 2 + 1):
            for r in all_rims(k, n):
                assert validate_relations(build_rank1(r, 2 * n)) == [], r


def multiplied_out_route(m: CMModuleRep, v: int, w: int) -> DVRMatrix:
    """The canonical route v -> w, multiplied out from the identity."""
    n, d = m.n, (w - v) % m.n
    if d <= m.k:
        maps = [m.x[(v + j - 1) % n + 1] for j in range(1, d + 1)]
    else:
        maps = [m.y[(v - j) % n + 1] for j in range(1, n - d + 1)]
    mat = DVRMatrix.identity(m.s, m.trunc)
    for step in maps:
        mat = step @ mat
    return mat


def route_length(m: CMModuleRep, v: int, w: int) -> int:
    d = (w - v) % m.n
    return d if d <= m.k else m.n - d


class TestPathMatrix:
    @pytest.fixture(params=["rank1", "rank2", "rank3"])
    def module(self, request):
        if request.param == "rank1":
            return build_rank1(rim([1, 4, 5], 3, 8))
        if request.param == "rank2":
            return rank2_extension(parse_rim("135@(3,6)"), parse_rim("246@(3,6)"))
        return build_layered([parse_rim(f"{r}@(3,7)") for r in ("136", "247", "125")])

    @pytest.mark.parametrize("longest_first", [True, False])
    def test_matches_multiplied_out_route(self, module, longest_first):
        fresh = CMModuleRep(module.n, module.k, module.s, module.x, module.y, module.trunc)
        pairs = [(v, w) for v in range(1, fresh.n + 1) for w in range(1, fresh.n + 1)]
        pairs.sort(key=lambda vw: route_length(fresh, *vw), reverse=longest_first)
        for v, w in pairs:
            got = fresh.path_matrix(v, w)
            assert got == multiplied_out_route(fresh, v, w), (v, w)
            assert fresh.path_matrix(v, w) is got


class TestRotate:
    @pytest.fixture(params=["rank1", "rank2"])
    def module(self, request):
        if request.param == "rank1":
            return build_rank1(rim([1, 4, 5], 3, 8))
        return rank2_extension(parse_rim("135@(3,6)"), parse_rim("246@(3,6)"))

    @pytest.mark.parametrize("j", [1, 2, -3, 5])
    def test_relations_and_paths_move_with_the_labels(self, module, j):
        n = module.n
        turned = module.rotate(j)
        assert validate_relations(turned) == []
        for v in range(1, n + 1):
            for w in range(1, n + 1):
                moved = turned.path_matrix((v + j - 1) % n + 1, (w + j - 1) % n + 1)
                assert moved == module.path_matrix(v, w), (v, w)

    @pytest.mark.parametrize("j", [1, 4, -2])
    def test_inverse_rotation_gives_back_the_maps(self, module, j):
        back = module.rotate(j).rotate(-j)
        assert (back.x, back.y, back.s, back.trunc) == \
            (module.x, module.y, module.s, module.trunc)

    def test_rank1_rim_shifts_with_the_module(self):
        r = rim([1, 4, 5], 3, 8)
        for j in range(-8, 9):
            turned = build_rank1(r, 12).rotate(j)
            # built directly, so it is not a view of the memo's module
            want = build_layered([shift(r, j)], 12)
            assert identify_rank1(turned) == identify_rank1(want) == shift(r, j)
            assert (turned.x, turned.y) == (want.x, want.y)


class TestPerRotationClass:
    """The rotation memo builds each class once, on its least rotation, and
    rotates that result for every other member of the class."""

    class Turned:
        """A stub result: the profile it was built for and how far it was rotated."""

        def __init__(self, p, turn=0):
            self.p, self.turn = p, turn

        def rotate(self, j):
            return type(self)(self.p, self.turn + j)

    @pytest.mark.parametrize("token, size", [
        ("1357|2468@(4,8)", 2),   # fixed by rotation by 2
        ("145@(3,8)", 8),         # fixed by no rotation
    ])
    def test_one_build_per_class(self, token, size):
        built = []

        def build(p, trunc):
            built.append((p, trunc))
            return self.Turned(p)
        memo = per_rotation_class(build)
        p = parse_profile(token)
        n = p.n
        rotations = {p.shift(j) for j in range(n)}
        assert len(rotations) == size
        results = {q: memo(q, 7) for q in rotations}
        least = min(rotations, key=lambda q: [r.elements for r in q.layers])
        assert built == [(least, 7)]
        for q, out in results.items():
            j = least_shift(*q.layers)
            assert q.shift(j) == least
            # the least rotation gets the build itself, any other its rotate(n - j)
            assert out.p == least and out.turn == (n - j if j else 0), q
            assert least.shift(out.turn) == q
            assert memo(q, 7) is out
        assert len(built) == 1
        memo(p, 9)
        assert built[1:] == [(least, 9)]
        memo.cache_clear()
        assert memo.cache_info().currsize == 0
        memo(p, 7)
        assert built[2:] == [(least, 7)]
