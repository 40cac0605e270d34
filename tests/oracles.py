"""Oracles the tests check grasscat against, and the paper's results that
only the tests run.

Each oracle is written apart from the code it checks: none calls the
function whose answer it is compared with (``tests/test_layering.py``
keeps it so), and the linear algebra builds its matrices with the checked
constructors ``ValPoly(...)`` and ``DVRMatrix(...)`` only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional

from grasscat.census import CensusEntry
from grasscat.dvr import DVRMatrix, Split, ValPoly
from grasscat.errors import TruncationUnstable
from grasscat.homology import (OrbitMember, canonical_module, is_isomorphic, is_rigid,
                               rigid_indecomposable_rank2, syzygy)
from grasscat.modules import (CMModuleRep, Profile, a_vector, build_layered, identify_rank1,
                              rep_a_vector)
from grasscat.rims import Rim, interlacing_degree, rim, runs, shift, two_layer_splits
from grasscat.roots import RootVector, classify_root_vector


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank of an exact rational matrix by Gaussian elimination."""
    M = [row[:] for row in rows]
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if M[i][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = Fraction(1) / M[rank][col]
        M[rank] = [x * inv for x in M[rank]]
        for i in range(nrows):
            if i != rank and M[i][col] != 0:
                f = M[i][col]
                M[i] = [a - f * b for a, b in zip(M[i], M[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def rational_det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant of a square exact rational matrix by Gaussian elimination."""
    M = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(M)):
        piv = next((i for i in range(col, len(M)) if M[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        for i in range(col + 1, len(M)):
            f = M[i][col] / M[col][col]
            M[i] = [a - f * b for a, b in zip(M[i], M[col])]
    return det


def dense_product(a: DVRMatrix, b: DVRMatrix) -> DVRMatrix:
    """a times b by the schoolbook triple loop: each entry the ValPoly sum
    of every product a[i][l] * b[l][j], zero ones too."""
    trunc = a.trunc
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            entry = ValPoly.zero(trunc)
            for l in range(a.cols):
                entry = entry + a.data[i][l] * b.data[l][j]
            row.append(entry)
        rows.append(row)
    return DVRMatrix(rows, trunc, cols=b.cols)


def route_product(m: CMModuleRep, v: int, w: int) -> DVRMatrix:
    """The structure maps of m along the canonical route v -> w (x-steps
    when (w - v) mod n <= k, y-steps otherwise), multiplied one step at a
    time onto the identity with ``dense_product``."""
    n, d = m.n, (w - v) % m.n
    mat = DVRMatrix.identity(m.s, m.trunc)
    if d <= m.k:
        for step in range(1, d + 1):
            mat = dense_product(m.x[(v + step - 1) % n + 1], mat)
    else:
        for step in range(n - d):
            mat = dense_product(m.y[(v - step - 1) % n + 1], mat)
    return mat


def transpose(mat: DVRMatrix) -> DVRMatrix:
    return DVRMatrix([mat.column(j) for j in range(mat.cols)], mat.trunc, cols=mat.rows)


class FullSmith:
    """Smith factorisation U * A * V = S with both transforms and V_inv, the
    inverse of V: the reference for ``dvr.Smith`` (exponents and V) and
    ``dvr.Split`` (kernel, V_piv @ U and V_inv's rows past the pivots).

    The pivoting is ``dvr._smith``'s, the least valuation first, ties to
    the least (row, column) place, with every entry of a row or column
    updated, zeros too.
    """

    def __init__(self, matrix: DVRMatrix):
        m, p, trunc = matrix.rows, matrix.cols, matrix.trunc
        zero = ValPoly.zero(trunc)

        def eye(size):
            return [[ValPoly.one(trunc) if i == j else zero for j in range(size)]
                    for i in range(size)]
        A, U, V, V_inv = [list(row) for row in matrix.data], eye(m), eye(p), eye(p)
        self.exponents: list[int] = []
        for r in range(min(m, p)):
            places = [(e.valuation(), i, j) for i in range(r, m) for j in range(r, p)
                      for e in (A[i][j],) if not e.is_zero()]
            if not places:
                break
            val, bi, bj = min(places)
            A[r], A[bi], U[r], U[bi] = A[bi], A[r], U[bi], U[r]
            for row in A + V:
                row[r], row[bj] = row[bj], row[r]
            V_inv[r], V_inv[bj] = V_inv[bj], V_inv[r]
            unit = ValPoly({d - val: c for d, c in A[r][r].coeffs.items()}, trunc)
            A[r] = [unit.unit_inverse() * e for e in A[r]]
            U[r] = [unit.unit_inverse() * e for e in U[r]]
            for i in range(r + 1, m):
                g = A[i][r].exact_div(A[r][r])
                A[i] = [a - g * b for a, b in zip(A[i], A[r])]
                U[i] = [a - g * b for a, b in zip(U[i], U[r])]
            for j in range(r + 1, p):
                g = A[r][j].exact_div(A[r][r])
                for row in A + V:
                    row[j] = row[j] - g * row[r]
                V_inv[r] = [a + g * b for a, b in zip(V_inv[r], V_inv[j])]
            self.exponents.append(val)
        self.npivots, self.cols, self.trunc = len(self.exponents), p, trunc
        self.U = DVRMatrix(U, trunc, cols=m)
        self.V, self.V_inv = DVRMatrix(V, trunc, cols=p), DVRMatrix(V_inv, trunc, cols=p)

    @property
    def loss(self) -> int:
        return self.exponents[-1] if self.exponents else 0

    def kernel(self) -> DVRMatrix:
        """The columns of V past the pivots."""
        return DVRMatrix([row[self.npivots:] for row in self.V.data], self.trunc,
                         cols=self.cols - self.npivots)

    def splitting(self) -> tuple[DVRMatrix, DVRMatrix]:
        """V_piv @ U and V_inv's rows past the pivots: for a surjection with a
        unit pivot per row, a section and a retraction."""
        p = self.npivots
        pivots = DVRMatrix([row[:p] for row in self.V.data], self.trunc, cols=p)
        return pivots @ self.U, DVRMatrix(self.V_inv.data[p:], self.trunc, cols=self.cols)

    def coordinates(self, vectors: DVRMatrix, floor: int) -> DVRMatrix:
        """Coordinates in the ``kernel`` basis of each column of ``vectors``,
        A and ``vectors`` correct modulo t^floor: V_inv's rows past the
        pivots, after its pivot rows are checked to vanish modulo
        t^(floor - loss)."""
        y, known = self.V_inv @ vectors, floor - self.loss
        if any(e.coeffs and min(e.coeffs) < known for row in y.data[:self.npivots] for e in row):
            raise TruncationUnstable("vector is not in the kernel at working precision")
        return DVRMatrix(y.data[self.npivots:], self.trunc, cols=vectors.cols)


def retraction(sp: Split) -> DVRMatrix:
    """The 0/1 matrix that selects a split's free coordinates ``sp.free``:
    with the kernel and the section it splits the surjection,
    section @ A + kernel @ retraction = 1."""
    trunc, cols = sp.matrix.trunc, sp.matrix.cols
    one, z = ValPoly.one(trunc), ValPoly.zero(trunc)
    return DVRMatrix([[one if j == i else z for j in range(cols)] for i in sp.free], trunc,
                     cols=cols)


def solve(sm: FullSmith, rhs: DVRMatrix, floor: int) -> Optional[DVRMatrix]:
    """One X with A @ X == rhs modulo t^(floor - loss), for the matrix A that
    ``sm`` factors and A and ``rhs`` correct modulo t^floor, or None when
    some column has no solution.

    Column j of X is V y for the y with S y = U rhs[:, j], each pivot
    coordinate divided by its t^e and every other coordinate zero.  Terms
    of U rhs from degree floor - loss on carry no information: ignored.
    """
    trunc, known = sm.trunc, floor - sm.loss
    ub = sm.U @ rhs
    z = ValPoly.zero(trunc)
    y = [[z] * rhs.cols for _ in range(sm.cols)]
    for i, e in enumerate(sm.exponents):
        for j, entry in enumerate(ub.data[i]):
            if entry.is_zero():
                continue
            if entry.valuation() < min(e, known):
                return None
            y[i][j] = ValPoly({d - e: c for d, c in entry.coeffs.items() if d >= e}, trunc)
    if any(e.coeffs and min(e.coeffs) < known for row in ub.data[sm.npivots:] for e in row):
        return None
    return sm.V @ DVRMatrix(y, trunc, cols=rhs.cols)


def brute_least_shift(*rims: Rim) -> int:
    """The least j in [0, n) whose shifted rims are least as a tuple of
    element tuples, trying every j."""
    return min(range(rims[0].n), key=lambda j: tuple(shift(r, j).elements for r in rims))


def name_afresh(rep: CMModuleRep) -> OrbitMember:
    """The orbit member rep is, named on a new module with rep's maps, which
    holds no cache: by its a-vector, ``identify_rank1`` at rank 1, and at
    rank 2 ``is_isomorphic`` against the canonical module of every split of
    its a-vector of interlacing degree at least 3."""
    fresh = CMModuleRep(rep.n, rep.k, rep.s, rep.x, rep.y, rep.trunc, rep.floor)
    avec = rep_a_vector(fresh).entries
    if fresh.s == 1:
        return OrbitMember(1, avec, (Profile((identify_rank1(fresh),)),))
    matches = [] if fresh.s != 2 else sorted(
        (Profile((a, b)) for a, b in two_layer_splits(avec, rep.k, rep.n)
         if interlacing_degree(a, b) >= 3
         and is_isomorphic(fresh, canonical_module(Profile((a, b)), rep.trunc))),
        key=Profile.label)
    return OrbitMember(fresh.s, avec, tuple(matches))


def orbit_named_afresh(seed: Profile, trunc: int) -> tuple[list[OrbitMember], int]:
    """Members and least period of a seed's syzygy orbit, each step named by
    ``name_afresh``.  A step resolves the canonical module of the member's
    first profile, or the module just computed when the member has none."""
    n, k = seed.n, seed.k
    v = lcm(n, k) // k
    rep = canonical_module(seed, trunc)
    members = [name_afresh(rep)]
    for _ in range(2 * v):
        named = members[-1].profiles
        rep = syzygy(canonical_module(named[0], trunc) if named else rep)
        members.append(name_afresh(rep))
    assert members.pop() == members[0], "the orbit does not close"
    period = min(d for d in range(1, 2 * v + 1)
                 if all(members[i] == members[(i + d) % (2 * v)] for i in range(2 * v)))
    return members[:period], period


def group_by_isomorphism(k: int, rigid: list[tuple[Profile, CMModuleRep]]) -> list[CensusEntry]:
    """Group the rigid filtrations, with their modules, into isomorphism classes."""
    by_avec: dict[tuple[int, ...], list[tuple[Profile, CMModuleRep]]] = {}
    for p, rep in rigid:
        by_avec.setdefault(a_vector(p).entries, []).append((p, rep))
    entries: list[CensusEntry] = []
    for avec in sorted(by_avec):
        reps: list[tuple[list[Profile], CMModuleRep]] = []
        for p, rep in sorted(by_avec[avec], key=lambda pr: pr[0].label()):
            for members, existing in reps:
                if is_isomorphic(rep, existing):
                    members.append(p)
                    break
            else:
                reps.append(([p], rep))
        for members, _ in reps:
            entries.append(CensusEntry(
                profiles=tuple(members), a_vec=avec,
                classification=classify_root_vector(RootVector(avec, k))))
    entries.sort(key=lambda e: e.profile.label())
    return entries


def crossing(a: Rim, b: Rim) -> bool:
    """The paper's crossing condition: some cyclic quadruple alternates
    between a\\b and b\\a."""
    sa = sorted(set(a.elements) - set(b.elements))
    sb = sorted(set(b.elements) - set(a.elements))
    for p in combinations(sa, 2):
        for q in combinations(sb, 2):
            pts = sorted([(p[0], "a"), (p[1], "a"), (q[0], "b"), (q[1], "b")])
            sides = [s for _, s in pts]
            if sides in (["a", "b", "a", "b"], ["b", "a", "b", "a"]):
                return True
    return False


def two_peak_syzygy_rim(r: Rim) -> Rim:
    """Conjectured syzygy rim of a two-run rim (both runs allowed > 1).

    For I = [a, a+d1-1] + [b, b+d2-1] the candidate is the cyclic intervals
    [a+d1, a+k-1] + [b+d2, b+k-1], derived from the lattice picture.
    """
    (a, d1), (b, d2) = runs(r)
    n, k = r.n, r.k
    return rim([(v - 1) % n + 1 for start, d in ((a, d1), (b, d2))
                for v in range(start + d, start + k)], k, n)


# a 3-interlacing non-tight filtration whose class must coincide with one of
# the eight imaginary-type classes instead of enlarging the census
NEGATIVE_CONTROL_48 = ((1, 2, 4, 7), (3, 5, 6, 8))


def negative_control_48() -> dict:
    """The non-tight disjoint filtration 1247|3568 must not enlarge the census.

    The layered sigma-construction on this pair is not rigid (raw verdict
    logged); an extension realisation exists but coincides with one of the
    eight imaginary-type classes.
    """
    a, b = rim(NEGATIVE_CONTROL_48[0], 4, 8), rim(NEGATIVE_CONTROL_48[1], 4, 8)
    layered = build_layered([a, b])
    raw = is_rigid(layered)
    rep = rigid_indecomposable_rank2(a, b)
    same_class = None
    if rep is not None:
        base = rim((1, 2, 4, 6), 4, 8), rim((3, 5, 7, 8), 4, 8)
        for m in range(8):
            known = rigid_indecomposable_rank2(shift(base[0], m), shift(base[1], m))
            if known is not None and is_isomorphic(rep, known):
                same_class = f"{shift(base[0], m)}|{shift(base[1], m)}"
                break
    return {
        "pair": "1247|3568",
        "layered_sigma_is_rigid": raw,
        "extension_class_coincides_with": same_class,
    }
