"""Combinatorics of k-subsets of Z_n ("rims").

Vertices and edges are both labelled 1..n, with n playing the role of 0.
A rim is the index set of a rank-1 module; everything in this module is
pure combinatorics on the cyclic structure: peaks, slopes, shifts,
interlacing, and the rim-level syzygy and AR-middle formulas for
almost consecutive rims.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional, Sequence

from .errors import MismatchedAmbient, NotAlmostConsecutive


class Rim:
    """A k-subset of Z_n, stored sorted ascending in [1, n]; equal, hashed
    and ordered on (n, k, elements)."""

    __slots__ = ("n", "k", "elements")

    def __init__(self, n: int, k: int, elements: tuple[int, ...]) -> None:
        if n < 4:
            raise ValueError(f"ambient size n must be >= 4, got {n}")
        if not 2 <= k <= n // 2:
            raise ValueError(f"need 2 <= k <= n/2, got k={k}, n={n}")
        if len(elements) != k:
            raise ValueError(f"expected {k} elements, got {len(elements)}")
        if list(elements) != sorted(set(elements)):
            raise ValueError(f"elements must be strictly sorted, got {elements}")
        if elements and not (1 <= elements[0] and elements[-1] <= n):
            raise ValueError(f"elements must lie in [1, {n}], got {elements}")
        self.n, self.k, self.elements = n, k, elements

    def __eq__(self, other):
        if other.__class__ is not Rim:
            return NotImplemented
        return (self.n, self.k, self.elements) == (other.n, other.k, other.elements)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.elements))

    # a > b falls back to the reflected b < a
    def __lt__(self, other):
        if other.__class__ is not Rim:
            return NotImplemented
        return (self.n, self.k, self.elements) < (other.n, other.k, other.elements)

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.elements

    def label(self) -> str:
        """Compact text form: "145" for n <= 9, comma-separated otherwise."""
        if self.n <= 9:
            return "".join(str(e) for e in self.elements)
        return ",".join(str(e) for e in self.elements)

    def __str__(self) -> str:
        return self.label()


def rim(elements, k: int, n: int) -> Rim:
    """Build a rim from any iterable of vertex labels."""
    return Rim(n, k, tuple(sorted(set(int(e) for e in elements))))


def all_rims(k: int, n: int) -> list[Rim]:
    """All k-subsets of [1, n] in lexicographic order."""
    return [Rim(n, k, c) for c in combinations(range(1, n + 1), k)]


def _mod(v: int, n: int) -> int:
    """Reduce a label into [1, n]."""
    return (v - 1) % n + 1


def _cyclic_interval(a: int, b: int, n: int) -> list[int]:
    """Labels of the closed cyclic interval [a, b]."""
    length = (b - a) % n + 1
    return [_mod(a + i, n) for i in range(length)]


def shift(r: Rim, m: int) -> Rim:
    """Add m to every element, cyclically."""
    return rim((_mod(e + m, r.n) for e in r.elements), r.k, r.n)


def least_shift(*rims: Rim) -> int:
    """The least j in [0, n) whose shift makes the rims least, compared as
    one tuple of sorted element tuples; no Rim is built.  Only a shift that
    carries an element of the first rim to 1 can win, so only those are
    tried, least first."""
    n = rims[0].n
    return min(sorted((1 - e) % n for e in rims[0].elements), key=lambda j: tuple(
        tuple(sorted(_mod(e + j, n) for e in r.elements)) for r in rims))


def peaks(r: Rim) -> frozenset[int]:
    """Vertices i with i not in the rim and i+1 in the rim (cyclically)."""
    return frozenset(
        i for i in range(1, r.n + 1)
        if i not in r and _mod(i + 1, r.n) in r
    )


def runs(r: Rim) -> list[tuple[int, int]]:
    """Maximal cyclic runs of the rim as (start, length), sorted by start."""
    return _runs_of(set(r.elements), r.n)


def _runs_of(members: set[int], n: int) -> list[tuple[int, int]]:
    out = []
    for v in sorted(members):
        if _mod(v - 1, n) not in members:
            length = 1
            while _mod(v + length, n) in members:
                length += 1
            out.append((v, length))
    return sorted(out)


class SlopeData:
    """Downward slopes (rim runs) and upward slopes (complement runs)."""

    __slots__ = ("down_intervals", "up_intervals", "min_slope")

    def __init__(self, down_intervals: tuple[tuple[int, int], ...],
                 up_intervals: tuple[tuple[int, int], ...], min_slope: int) -> None:
        self.down_intervals, self.up_intervals = down_intervals, up_intervals
        self.min_slope = min_slope


def slopes(r: Rim) -> SlopeData:
    """Interval decomposition of the rim and of its complement."""
    down = tuple(runs(r))
    comp = set(range(1, r.n + 1)) - set(r.elements)
    up = tuple(_runs_of(comp, r.n))
    m = min(length for _, length in down + up)
    return SlopeData(down, up, m)


def projective_index(r: Rim) -> Optional[int]:
    """Return j when the rim is the single interval {j+1, ..., j+k}."""
    rr = runs(r)
    if len(rr) != 1:
        return None
    start, _ = rr[0]
    return _mod(start - 1, r.n)


def is_projective(r: Rim) -> bool:
    return projective_index(r) is not None


def almost_consecutive_decompositions(r: Rim) -> tuple[tuple[int, int], ...]:
    """All decompositions (i, j) with the rim equal to {i} + {j, ..., j+k-2}.

    Non-projective rims with exactly two runs, one of length 1, qualify.
    For k = 2 both runs are singletons and both decompositions are
    returned, lexicographically smaller i first.
    """
    rr = runs(r)
    if len(rr) != 2:
        return ()
    out = []
    for singleton, other in (rr, rr[::-1]):
        if singleton[1] == 1 and other[1] == r.k - 1:
            out.append((singleton[0], other[0]))
    return tuple(sorted(out))


def is_almost_consecutive(r: Rim) -> Optional[tuple[int, int]]:
    """First decomposition (i, j) if the rim is almost consecutive."""
    decs = almost_consecutive_decompositions(r)
    return decs[0] if decs else None


def syzygy_rim(r: Rim) -> Rim:
    """Rim of the first syzygy of an almost consecutive rim.

    For I = {i} + {j, ..., j+k-2} the syzygy rim is
    {i+1, ..., i+k-1} + {j+k-1}; applying the map twice shifts by k.
    """
    dec = is_almost_consecutive(r)
    if dec is None:
        raise NotAlmostConsecutive(f"{r} is not almost consecutive")
    i, j = dec
    n, k = r.n, r.k
    out = _cyclic_interval(i + 1, i + k - 1, n) + [_mod(j + k - 1, n)]
    return rim(out, k, n)


def two_layer_splits(avec: Sequence[int], k: int, n: int) -> Iterator[tuple[Rim, Rim]]:
    """Ordered rim pairs (top, bottom) whose multiplicity vectors add to avec.

    Vertices of multiplicity 2 lie in both layers and those of multiplicity
    1 in exactly one; the pairs come in lexicographic order of the top.
    """
    twos = [v + 1 for v, c in enumerate(avec) if c == 2]
    ones = [v + 1 for v, c in enumerate(avec) if c == 1]
    need = k - len(twos)
    if any(c not in (0, 1, 2) for c in avec) or len(ones) != 2 * need:
        return
    for chosen in combinations(ones, need):
        yield (rim(twos + list(chosen), k, n),
               rim(twos + [x for x in ones if x not in chosen], k, n))


def _check_ambient(a: Rim, b: Rim) -> None:
    if (a.n, a.k) != (b.n, b.k):
        raise MismatchedAmbient(f"cannot compare rims over ({a.k},{a.n}) and ({b.k},{b.n})")


def interlacing_degree(a: Rim, b: Rim) -> int:
    """Half the number of side-changes of the symmetric difference.

    Elements of a\\b and b\\a are read in cyclic order; r is the number of
    maximal same-side blocks divided by two.  Equal rims give 0.
    """
    _check_ambient(a, b)
    sa = set(a.elements) - set(b.elements)
    sb = set(b.elements) - set(a.elements)
    if not sa:
        return 0
    tagged = sorted((v, v in sa) for v in sa | sb)
    sides = [side for _, side in tagged]
    changes = sum(1 for i in range(len(sides)) if sides[i] != sides[i - 1])
    return changes // 2


class PairClass:
    """Classification of a rim pair: interlacing degree and tightness."""

    __slots__ = ("interlacing_degree", "tight")

    def __init__(self, interlacing_degree: int, tight: bool) -> None:
        self.interlacing_degree, self.tight = interlacing_degree, tight


def classify_pair(a: Rim, b: Rim) -> PairClass:
    """Interlacing degree r and tightness: the pair is tight when r = 3
    and the intersection has k - 3 elements."""
    _check_ambient(a, b)
    r = interlacing_degree(a, b)
    return PairClass(r, r == 3 and len(set(a.elements) & set(b.elements)) == a.k - 3)


class ArMiddle:
    """Middle term of the rim-level AR sequence.

    Either a two-layer profile (x over y) or, in the degenerate j = i+2
    case, the decomposition into the projective at ``proj_vertex`` plus the
    rank-1 layer ``u``.
    """

    __slots__ = ("x", "y", "proj_vertex", "u")

    def __init__(self, x: Optional[Rim] = None, y: Optional[Rim] = None,
                 proj_vertex: Optional[int] = None, u: Optional[Rim] = None) -> None:
        self.x, self.y, self.proj_vertex, self.u = x, y, proj_vertex, u

    @property
    def decomposes(self) -> bool:
        return self.proj_vertex is not None


def ar_middle_profile(r: Rim) -> ArMiddle:
    """Middle term data of the AR sequence starting at an a.c. rim.

    For I = {i} + {j, ..., j+k-2} with j != i+2 the middle is the
    two-layer module with top X = {i+1, j, ..., j+k-3, j+k-1} and bottom
    Y = (I + syzygy rim) - X as multisets.  For j = i+2 it decomposes as
    the projective at i plus the layer {i, i+2, ..., i+k-1, i+k+1}.
    """
    if r.k < 3:
        raise ValueError("AR middle formula needs k >= 3")
    dec = is_almost_consecutive(r)
    if dec is None:
        raise NotAlmostConsecutive(f"{r} is not almost consecutive")
    i, j = dec
    n, k = r.n, r.k
    if _mod(j, n) == _mod(i + 2, n):
        u = [i] + _cyclic_interval(i + 2, i + k - 1, n) + [_mod(i + k + 1, n)]
        return ArMiddle(proj_vertex=i, u=rim(u, k, n))
    x_elems = [_mod(i + 1, n)] + _cyclic_interval(j, j + k - 3, n) + [_mod(j + k - 1, n)]
    x = rim(x_elems, k, n)
    syz = syzygy_rim(r)
    # multiset difference: doubled vertices of I + J must all lie in X
    counts: dict[int, int] = {}
    for v in list(r.elements) + list(syz.elements):
        counts[v] = counts.get(v, 0) + 1
    for v in x.elements:
        counts[v] = counts.get(v, 0) - 1
    y_elems = [v for v, c in counts.items() if c == 1]
    if any(c not in (0, 1) for c in counts.values()) or len(y_elems) != k:
        raise NotAlmostConsecutive(f"AR middle of {r} does not split into two layers")
    return ArMiddle(x=x, y=rim(y_elems, k, n))


def parse_rim(token: str) -> Rim:
    """Parse the compact CLI form "145@(3,8)" or "1,4,5@(3,8)"."""
    body, _, ambient = token.partition("@")
    if not ambient:
        raise ValueError(f"rim token {token!r} needs an @(k,n) suffix")
    ambient = ambient.strip().lstrip("(").rstrip(")")
    k_str, _, n_str = ambient.partition(",")
    k, n = int(k_str), int(n_str)
    if "," in body:
        elems = [int(p) for p in body.split(",") if p]
    else:
        elems = [int(ch) for ch in body.strip()]
    if len(set(elems)) != len(elems):
        raise ValueError(f"rim token {token!r} repeats a label")
    return rim(elems, k, n)
