import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from grasscat.errors import MismatchedAmbient, NotAlmostConsecutive
from grasscat.rims import (Rim, all_rims, almost_consecutive_decompositions,
                           ar_middle_profile, classify_pair,
                           interlacing_degree, is_almost_consecutive,
                           is_projective, least_shift, peaks, projective_index,
                           rim, runs, shift, slopes, syzygy_rim, parse_rim,
                           two_layer_splits)
from oracles import crossing


def R(elems, k, n):
    return rim(elems, k, n)


class TestPeaks:
    def test_two_run_rim(self):
        assert sorted(peaks(R([1, 4, 5], 3, 8))) == [3, 8]

    def test_single_interval(self):
        assert sorted(peaks(R([2, 3, 4], 3, 8))) == [1]

    def test_three_singletons(self):
        # direct application of the definition: i not in I, i+1 in I
        assert sorted(peaks(R([1, 4, 7], 3, 9))) == [3, 6, 9]

    def test_peak_count_equals_run_count(self):
        for k, n in [(2, 5), (3, 7), (3, 8), (4, 8)]:
            for r in all_rims(k, n):
                assert len(peaks(r)) == len(runs(r))


class TestSlopes:
    def test_two_interval_rim(self):
        s = slopes(R([1, 4, 5], 3, 8))
        assert [l for _, l in s.down_intervals] == [1, 2]
        assert [l for _, l in s.up_intervals] == [2, 3]
        assert s.min_slope == 1

    def test_projective_rim(self):
        s = slopes(R([1, 2, 3], 3, 6))
        assert [l for _, l in s.down_intervals] == [3]
        assert [l for _, l in s.up_intervals] == [3]
        assert s.min_slope == 3

    def test_alternating_rim(self):
        s = slopes(R([1, 3, 5], 3, 6))
        assert [l for _, l in s.down_intervals] == [1, 1, 1]
        assert [l for _, l in s.up_intervals] == [1, 1, 1]
        assert s.min_slope == 1

    def test_down_lengths_sum_to_k(self):
        for k, n in [(2, 6), (3, 9), (4, 9)]:
            for r in all_rims(k, n):
                s = slopes(r)
                assert sum(l for _, l in s.down_intervals) == k
                assert sum(l for _, l in s.up_intervals) == n - k


class TestShift:
    def test_wraparound(self):
        assert shift(R([1, 2, 6], 3, 9), 3) == R([4, 5, 9], 3, 9)
        assert shift(R([7, 8, 3], 3, 9), 3) == R([1, 2, 6], 3, 9)

    def test_identity_shift(self):
        r = R([1, 4, 5], 3, 8)
        assert shift(r, 0) == r

    def test_inverse_and_full_turn(self):
        for r in all_rims(3, 7):
            for m in range(1, 7):
                assert shift(shift(r, m), -m) == r
            assert shift(r, 7) == r

    def test_commutes_with_peaks(self):
        for r in all_rims(3, 8):
            for m in (1, 3, 5):
                assert peaks(shift(r, m)) == frozenset(
                    (p + m - 1) % 8 + 1 for p in peaks(r))

    def test_least_shift_matches_shifted_rims(self):
        # the least j making (shift(a, j), shift(b, j)) least, ties to the smallest j
        for n, k in ((7, 3), (8, 4)):
            rims_all = all_rims(k, n)
            for a in rims_all:
                assert least_shift(a) == min(range(n), key=lambda j: shift(a, j).elements)
            for a, b in product(rims_all[::3], rims_all[::2]):
                assert least_shift(a, b) == min(
                    range(n), key=lambda j: (shift(a, j).elements, shift(b, j).elements))
        periodic = R([1, 3, 5, 7], 4, 8), R([2, 4, 6, 8], 4, 8)
        assert least_shift(*periodic) == 0
        assert least_shift(*periodic[::-1]) == 1


class TestProjective:
    def test_examples(self):
        assert projective_index(R([6, 7, 8], 3, 8)) == 5
        assert projective_index(R([1, 2, 3], 3, 6)) == 6
        assert projective_index(R([1, 3, 5], 3, 6)) is None

    def test_count(self):
        assert sum(1 for r in all_rims(3, 9) if is_projective(r)) == 9


class TestAlmostConsecutive:
    def test_examples(self):
        assert is_almost_consecutive(R([1, 4, 5], 3, 8)) == (1, 4)
        assert is_almost_consecutive(R([1, 4, 7], 3, 9)) is None
        assert is_almost_consecutive(R([1, 3, 4], 3, 8)) == (1, 3)

    def test_projectives_excluded(self):
        assert is_almost_consecutive(R([4, 5, 6], 3, 8)) is None

    def test_k2_reports_both_decompositions(self):
        decs = almost_consecutive_decompositions(R([1, 3], 2, 5))
        assert decs == ((1, 3), (3, 1))


class TestSyzygyRim:
    def test_figure_tube(self):
        assert syzygy_rim(R([1, 4, 5], 3, 9)) == R([2, 3, 6], 3, 9)
        assert syzygy_rim(R([2, 3, 6], 3, 9)) == R([4, 7, 8], 3, 9)
        assert syzygy_rim(R([1, 2, 6], 3, 9)) == R([3, 7, 8], 3, 9)

    def test_rejects_non_ac(self):
        with pytest.raises(NotAlmostConsecutive):
            syzygy_rim(R([1, 4, 7], 3, 9))

    def test_twice_is_shift_by_k(self):
        # rim-level identity, exhaustive over every ambient up to n = 12
        for n in range(5, 13):
            for k in range(2, n // 2 + 1):
                for r in all_rims(k, n):
                    if is_almost_consecutive(r) is None:
                        continue
                    j = syzygy_rim(r)
                    if is_almost_consecutive(j) is None:
                        continue
                    assert syzygy_rim(j) == shift(r, k), (r, j)


class TestCrossing:
    """Two rims cross, an alternating cyclic quadruple exists (the oracle),
    exactly when their interlacing degree is at least 2."""

    def test_examples(self):
        assert not crossing(R([1, 2, 3], 3, 6), R([4, 5, 6], 3, 6))
        assert crossing(R([1, 3, 5], 3, 6), R([2, 4, 6], 3, 6))
        r = R([2, 4, 7], 3, 9)
        assert not crossing(r, r)

    def test_matches_bruteforce_quadruple_search(self):
        for k, n in [(2, 6), (3, 7), (4, 8)]:
            rs = all_rims(k, n)
            for a in rs:
                for b in rs:
                    assert (interlacing_degree(a, b) >= 2) == crossing(a, b)

    def test_symmetric_and_matches_interlacing(self):
        rs = all_rims(3, 8)
        for a in rs:
            for b in rs:
                assert interlacing_degree(a, b) == interlacing_degree(b, a)
                assert crossing(a, b) == crossing(b, a) == (interlacing_degree(a, b) >= 2)

    def test_ambient_mismatch(self):
        with pytest.raises(MismatchedAmbient):
            interlacing_degree(R([1, 2, 3], 3, 6), R([1, 2, 3], 3, 7))


@st.composite
def rim_pairs(draw):
    """Two rims of one ambient, 2 <= k <= n/2, n up to 12."""
    n = draw(st.integers(4, 12))
    k = draw(st.integers(2, n // 2))
    elements = st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True)
    return R(draw(elements), k, n), R(draw(elements), k, n)


class TestInterlacing:
    @given(rim_pairs())
    def test_symmetric(self, pair):
        a, b = pair
        assert interlacing_degree(a, b) == interlacing_degree(b, a)

    def test_examples(self):
        assert interlacing_degree(R([2, 5, 7], 3, 8), R([1, 3, 6], 3, 8)) == 3
        assert interlacing_degree(R([1, 3, 5, 7], 4, 8), R([2, 4, 6, 8], 4, 8)) == 4
        assert interlacing_degree(R([1, 2, 3], 3, 6), R([4, 5, 6], 3, 6)) == 1

    def test_equal_rims_give_zero(self):
        r = R([1, 3, 5], 3, 6)
        assert interlacing_degree(r, r) == 0

    def test_k3_bounds(self):
        rs = all_rims(3, 9)
        for a in rs:
            for b in rs:
                r = interlacing_degree(a, b)
                assert r <= 3
                if r == 3:
                    assert not set(a.elements) & set(b.elements)
                    assert classify_pair(a, b).tight


class TestTwoLayerSplits:
    """The split enumerator against a filter over all ordered rim pairs."""

    @staticmethod
    def brute_force(k, n):
        splits = {}
        rs = all_rims(k, n)
        for a in rs:
            for b in rs:
                avec = tuple((v in a) + (v in b) for v in range(1, n + 1))
                splits.setdefault(avec, []).append((a, b))
        return splits

    def test_every_vector_at_3_7(self):
        splits = self.brute_force(3, 7)
        for avec in product(range(4), repeat=7):
            assert list(two_layer_splits(avec, 3, 7)) == splits.get(avec, []), avec

    def test_seeded_sample_at_4_8(self):
        splits = self.brute_force(4, 8)
        rng = random.Random(48)
        vectors = rng.sample(sorted(splits), 60)
        vectors += [tuple(rng.choice((0, 1, 2)) for _ in range(8)) for _ in range(60)]
        assert sum(len(splits.get(v, ())) > 2 for v in vectors) > 20
        for avec in vectors:
            assert list(two_layer_splits(avec, 4, 8)) == splits.get(avec, []), avec


class TestClassifyPair:
    def test_tight_pair(self):
        c = classify_pair(R([1, 2, 4, 6], 4, 8), R([2, 3, 5, 7], 4, 8))
        # r = 3 and an intersection of k - 3 = 1 element
        assert (c.interlacing_degree, c.tight) == (3, True)

    def test_disjoint_not_tight(self):
        c = classify_pair(R([1, 2, 4, 6], 4, 8), R([3, 5, 7, 8], 4, 8))
        # r = 3, but the intersection is empty
        assert (c.interlacing_degree, c.tight) == (3, False)

    def test_equal(self):
        r = R([1, 3, 5], 3, 6)
        c = classify_pair(r, r)
        assert c.interlacing_degree == 0 and not c.tight

    def test_symmetry(self):
        rs = all_rims(3, 7)
        for a in rs:
            for b in rs:
                ca, cb = classify_pair(a, b), classify_pair(b, a)
                assert (ca.interlacing_degree, ca.tight) == (cb.interlacing_degree, cb.tight)


class TestArMiddle:
    def test_generic_case(self):
        m = ar_middle_profile(R([1, 4, 5], 3, 8))
        assert (m.x, m.y) == (R([2, 4, 6], 3, 8), R([1, 3, 5], 3, 8))
        assert not m.decomposes

    def test_degenerate_case(self):
        m = ar_middle_profile(R([1, 3, 4], 3, 8))
        assert m.decomposes
        assert m.proj_vertex == 1
        assert m.u == R([1, 3, 5], 3, 8)

    def test_wraparound_case(self):
        m = ar_middle_profile(R([1, 2, 6], 3, 9))
        assert (m.x, m.y) == (R([1, 3, 7], 3, 9), R([2, 6, 8], 3, 9))


class TestParsing:
    def test_compact_form(self):
        assert parse_rim("145@(3,8)") == R([1, 4, 5], 3, 8)
        assert parse_rim("1,4,5@(3,8)") == R([1, 4, 5], 3, 8)

    def test_requires_ambient(self):
        with pytest.raises(ValueError):
            parse_rim("145")

    def test_json_form_roundtrip(self):
        r = R([2, 5, 8], 3, 9)
        assert rim(list(r.elements), r.k, r.n) == r


class TestRimValidation:
    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            Rim(8, 3, (1, 1, 4))
        with pytest.raises(ValueError):
            Rim(8, 5, (1, 2, 3, 4, 5))
        with pytest.raises(ValueError):
            Rim(8, 3, (0, 4, 5))
