from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from grasscat.modules import Profile, a_vector, profile
from grasscat.rims import all_rims
from grasscat.roots import (RootCoords, RootVector, classify_root_vector,
                            enumerate_degree2_real_roots,
                            expected_rigid_rank2_count, max_entry_bound,
                            q_form, root_coordinates)


class TestQForm:
    def test_six_ones_is_real(self):
        assert q_form(RootVector((1, 1, 1, 1, 1, 1, 0, 0, 0), 3)) == 2

    def test_zero_vector(self):
        assert q_form(RootVector((0,) * 6, 3)) == 0

    def test_all_ones_48_is_isotropic(self):
        assert q_form(RootVector((1,) * 8, 4)) == 0

    def test_exact_rational(self):
        # q need not be an integer off the sublattice scale, but stays exact
        v = RootVector((2, 1, 0, 0, 0, 0), 3)
        assert q_form(v) == Fraction(5) + Fraction(-1, 9) * 9

    def test_rotation_invariance(self):
        v = RootVector((2, 1, 1, 1, 1, 1, 1, 0), 4)
        for m in range(8):
            assert q_form(v.rotate(m)) == q_form(v)


def rebuilt(rc, k, n):
    """a from its coordinates: a_j = d [j <= k] - c_j + c_(j-1), c_0 = c_n = 0."""
    c = (0,) + rc.c + (0,)
    return tuple(rc.d * (j <= k) - c[j] + c[j - 1] for j in range(1, n + 1))


class TestRootCoordinates:
    def test_e6_top_degree2_root(self):
        rc = root_coordinates(RootVector((1, 1, 1, 1, 1, 1), 3))
        assert rc == RootCoords((1, 2, 3, 2, 1), 2)

    def test_beta_itself(self):
        rc = root_coordinates(RootVector((1, 1, 1, 0, 0, 0), 3))
        assert rc == RootCoords((0, 0, 0, 0, 0), 1)

    def test_projective_layer_has_degree_one(self):
        rc = root_coordinates(RootVector((0, 1, 1, 1, 0, 0, 0, 0), 3))
        assert rc is not None and rc.d == 1

    def test_reconstruction_for_all_enumerated_roots(self):
        for k, n in [(3, 6), (3, 9), (4, 8)]:
            for v in enumerate_degree2_real_roots(k, n):
                rc = root_coordinates(v)
                assert rc.d == 2
                assert rebuilt(rc, k, n) == v.entries, v.entries

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.integers(-5, 5), min_size=k + 1, max_size=12))))
    def test_reconstruction_for_lattice_vectors(self, case):
        k, entries = case
        entries[-1] -= sum(entries) % k  # onto the sublattice: k | sum
        a = RootVector(tuple(entries), k)
        rc = root_coordinates(a)
        assert len(rc.c) == a.n - 1
        assert rebuilt(rc, k, a.n) == a.entries


class TestEnumeration:
    @pytest.mark.parametrize("k,n,count", [
        (3, 6, 1), (3, 7, 7), (3, 8, 28), (3, 9, 84), (4, 8, 56)])
    def test_counts(self, k, n, count):
        assert len(enumerate_degree2_real_roots(k, n)) == count

    def test_patterns(self):
        roots39 = enumerate_degree2_real_roots(3, 9)
        assert all(sorted(v.entries, reverse=True) == [1] * 6 + [0] * 3
                   for v in roots39)
        roots48 = enumerate_degree2_real_roots(4, 8)
        assert all(sorted(v.entries, reverse=True) == [2] + [1] * 6 + [0]
                   for v in roots48)

    def test_binomial_pattern_for_k3(self):
        for n in range(6, 10):
            assert len(enumerate_degree2_real_roots(3, n)) == comb(n, 6)

    def test_deduplicated(self):
        vecs = enumerate_degree2_real_roots(4, 8)
        assert len({v.entries for v in vecs}) == len(vecs)

    def test_entry_bound_grows_at_k6(self):
        assert max_entry_bound(3) == 2
        assert max_entry_bound(5) == 2
        assert max_entry_bound(6) == 3
        # k = 6 admits a genuine entry-3 degree-2 real root
        v = RootVector((3,) + (1,) * 9 + (0, 0), 6)
        assert q_form(v) == 2
        assert any(max(r.entries) == 3
                   for r in enumerate_degree2_real_roots(6, 12))


class TestExpectedCounts:
    @pytest.mark.parametrize("k,n,count", [
        (3, 9, 168), (4, 8, 112), (3, 8, 56), (3, 6, 2), (3, 7, 14)])
    def test_formula(self, k, n, count):
        assert expected_rigid_rank2_count(k, n) == count


class TestClassify:
    def test_module_root_examples(self):
        def root(layers, k, n):
            return classify_root_vector(a_vector(profile(layers, k, n)))
        assert root([[1, 3, 5], [2, 4, 6]], 3, 6) == "real"
        assert root([[2, 5, 6, 8], [1, 3, 4, 7]], 4, 8) == "imaginary"
        assert root([[1, 2, 3], [1, 2, 3]], 3, 6) == "not-a-root"

    def test_swap_invariance(self):
        # swapping the two layers gives the same a-vector, hence the same class
        p = profile([[1, 2, 4, 6], [3, 5, 7, 8]], 4, 8)
        swapped = Profile(p.layers[::-1])
        assert a_vector(swapped) == a_vector(p)
        assert classify_root_vector(a_vector(p)) == \
            classify_root_vector(a_vector(swapped))

    @pytest.mark.parametrize("k, n", [(3, 8), (4, 8)])
    def test_rotation_and_reversal_invariance(self, k, n):
        # the dihedral symmetries of the circle preserve the class; a_vector
        # ignores the order of the layers, so each unordered pair is one profile
        for a, b in combinations_with_replacement(all_rims(k, n), 2):
            v = a_vector(Profile((a, b)))
            want = classify_root_vector(v)
            reversed_v = RootVector(v.entries[::-1], k)
            for j in range(n):
                assert classify_root_vector(v.rotate(j)) == want, (a, b, j)
                assert classify_root_vector(reversed_v.rotate(j)) == want, (a, b, j)

    def test_vector_classifier(self):
        assert classify_root_vector(RootVector((2, 2, 2, 0, 0, 0), 3)) == "not-a-root"
        assert classify_root_vector(RootVector((1,) * 8, 4)) == "imaginary"
