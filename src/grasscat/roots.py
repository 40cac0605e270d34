"""Root-lattice side of the dictionary.

Integer vectors a in Z^n with k | sum(a) form the root lattice of the tree
obtained from A_{n-1} by attaching an extra node to node k.  The quadratic
form q(a) = sum a_i^2 + (2-k)/k^2 (sum a_i)^2 characterises roots (q <= 2)
and real roots (q = 2); the degree of a root is sum(a)/k.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb


class RootVector:
    """Integer vector in the sublattice of Z^n whose coordinate sum k divides;
    equal and hashed on (entries, k)."""

    __slots__ = ("entries", "k")

    def __init__(self, entries: tuple[int, ...], k: int) -> None:
        if sum(entries) % k != 0:
            raise ValueError(f"coordinate sum {sum(entries)} not divisible by k={k}")
        self.entries, self.k = entries, k

    def __eq__(self, other):
        if other.__class__ is not RootVector:
            return NotImplemented
        return (self.entries, self.k) == (other.entries, other.k)

    def __hash__(self) -> int:
        return hash((self.entries, self.k))

    @property
    def n(self) -> int:
        return len(self.entries)

    def rotate(self, m: int) -> "RootVector":
        n = self.n
        return RootVector(tuple(self.entries[(i - m) % n] for i in range(n)), self.k)


class RootCoords:
    """Coefficients over the simple roots: c_i at node i, d at the extra node;
    equal on (c, d)."""

    __slots__ = ("c", "d")

    def __init__(self, c: tuple[int, ...], d: int) -> None:
        self.c, self.d = c, d

    def __eq__(self, other):
        if other.__class__ is not RootCoords:
            return NotImplemented
        return (self.c, self.d) == (other.c, other.d)


def q_form(a: RootVector) -> Fraction:
    """Exact value of the quadratic form."""
    total = sum(a.entries)
    return sum(Fraction(x * x) for x in a.entries) + Fraction(2 - a.k, a.k * a.k) * total * total


def root_coordinates(a: RootVector) -> RootCoords:
    """Invert a = sum c_i (-e_i + e_{i+1}) + d (e_1 + ... + e_k).

    d is forced to sum(a)/k, an integer on the sublattice that RootVector
    guarantees, and the c_i follow by prefix sums.
    """
    d = sum(a.entries) // a.k
    c = []
    acc = 0
    for i in range(1, a.n):
        acc += (d if i <= a.k else 0) - a.entries[i - 1]
        c.append(acc)
    # at the wrap c_n = d*k - sum(a) = 0 holds identically, so (c, d) gives a back
    return RootCoords(tuple(c), d)


def max_entry_bound(k: int) -> int:
    """Largest coordinate a degree-2 real root can have.

    With sum(a) = 2k and q(a) = 2 we get sum(a_i^2) = 4k - 6; an entry of
    size B forces sum(a_i^2) >= B^2 + (2k - B), so B(B-1) <= 2k - 6.  For
    k <= 5 this gives B = 2; k = 6 admits B = 3.
    """
    b = 2
    while (b + 1) * b <= 2 * k - 6:
        b += 1
    return b


def enumerate_degree2_real_roots(k: int, n: int) -> list[RootVector]:
    """All degree-2 real roots: sum = 2k, q = 2, deduplicated and sorted."""
    if not 3 <= k <= n // 2:
        raise ValueError(f"need 3 <= k <= n/2, got k={k}, n={n}")
    target_sq = 4 * k - 6
    bound = max_entry_bound(k)
    out = []
    # split 2k as (number of entries equal to v) for v = 2..bound, rest ones
    for pattern in _sum_patterns(2 * k, target_sq, bound):
        positions = _placements(pattern, n)
        out.extend(positions)
    vecs = sorted(set(out), reverse=True)
    return [RootVector(v, k) for v in vecs]


def _sum_patterns(total: int, total_sq: int, bound: int) -> list[dict[int, int]]:
    """Multisets of entries in [1, bound] with given sum and sum of squares."""
    patterns = []

    def rec(value: int, remaining: int, remaining_sq: int, acc: dict[int, int]) -> None:
        if value == 0:
            if remaining == 0 and remaining_sq == 0:
                patterns.append(dict(acc))
            return
        max_count = min(remaining // value, remaining_sq // (value * value))
        for count in range(max_count + 1):
            if count:
                acc[value] = count
            rec(value - 1, remaining - count * value,
                remaining_sq - count * value * value, acc)
            acc.pop(value, None)

    rec(bound, total, total_sq, {})
    return patterns


def _placements(pattern: dict[int, int], n: int) -> list[tuple[int, ...]]:
    """All ways to place a value-multiset into n slots (rest zero)."""
    out: list[tuple[int, ...]] = []
    items = sorted(pattern.items(), reverse=True)

    def rec(idx: int, free: tuple[int, ...], vec: list[int]) -> None:
        if idx == len(items):
            out.append(tuple(vec))
            return
        value, count = items[idx]
        for chosen in combinations(free, count):
            for p in chosen:
                vec[p] = value
            rec(idx + 1, tuple(p for p in free if p not in chosen), vec)
            for p in chosen:
                vec[p] = 0

    rec(0, tuple(range(n)), [0] * n)
    return out


def expected_rigid_rank2_count(k: int, n: int) -> int:
    """Closed-form count 2 * C(n,6) * C(n-6, k-3) of real-root rank-2 modules."""
    if not 3 <= k <= n // 2:
        raise ValueError(f"need 3 <= k <= n/2, got k={k}, n={n}")
    return 2 * comb(n, 6) * comb(n - 6, k - 3)


def classify_root_vector(a: RootVector) -> str:
    """"real" (q = 2), "imaginary" (a nonzero root with q < 2), or "not-a-root"."""
    q = q_form(a)
    if q == 2:
        return "real"
    if q < 2 and any(a.entries):
        return "imaginary"
    return "not-a-root"
