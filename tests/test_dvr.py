import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grasscat.dvr import DVRMatrix, ValPoly, _smith, _split
from grasscat.errors import TruncationUnstable
from oracles import FullSmith, dense_product, rational_rank, retraction, solve

N = 16


def tpow(a, coeff=1, trunc=N):
    return ValPoly.monomial(coeff, a, trunc)


def M(rows, trunc=N):
    return DVRMatrix(rows, trunc)


class TestValPoly:
    def test_valuation(self):
        assert ValPoly.zero(N).valuation() is None
        assert tpow(3).valuation() == 3
        assert (tpow(2) + tpow(5)).valuation() == 2

    def test_arithmetic_truncates_high_degrees_only(self):
        p = tpow(N - 1) * tpow(2)
        assert p.is_zero()
        q = tpow(1) * tpow(2, coeff=Fraction(1, 3))
        assert q.coeffs == {3: Fraction(1, 3)}

    def test_unit_inverse(self):
        u = ValPoly({0: Fraction(2), 1: Fraction(-1)}, N)
        assert (u * u.unit_inverse()) == ValPoly.one(N)

    def test_exact_div(self):
        p = tpow(3, coeff=5)
        q = tpow(1, coeff=5)
        assert p.exact_div(q) == tpow(2)
        with pytest.raises(TruncationUnstable):
            tpow(0).exact_div(tpow(1))


def invariants(matrix):
    """Smith exponents and cokernel free rank of a matrix."""
    sm = _smith(matrix)
    return tuple(sm.exponents), matrix.rows - sm.npivots


def column(entries, trunc=N):
    return DVRMatrix([[e] for e in entries], trunc, cols=1)


def solve_column(matrix, rhs):
    """The one-column solve of matrix * x = rhs, as a list, or None."""
    sol = solve(FullSmith(matrix), column(rhs, matrix.trunc), matrix.trunc)
    return None if sol is None else list(sol.column(0))


def random_poly(rng, trunc=N, constant=None):
    """Nonzero, at most three terms in degrees below 4; ``constant`` fixes the t^0 term."""
    degrees = rng.sample(range(1, 4), rng.randint(0, 2))
    coeffs = {d: Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)) for d in degrees}
    if constant is not None:
        coeffs[0] = constant
    elif not coeffs or rng.random() < 0.3:
        coeffs[rng.randint(0, 3)] = rng.choice([-2, -1, 1, 2, 3])
    return ValPoly(coeffs, trunc)


def random_matrix(rng, rows, cols, trunc=N, density=0.7):
    return DVRMatrix([[random_poly(rng, trunc) if rng.random() < density
                       else ValPoly.zero(trunc) for _ in range(cols)]
                      for _ in range(rows)], trunc, cols=cols)


class TestSmith:
    def test_already_diagonal(self):
        exponents, free_rank = invariants(M([[tpow(1), tpow(99)], [tpow(99), tpow(0)]]))
        assert exponents == (0, 1)
        assert free_rank == 0

    def test_permuted_diagonal(self):
        exponents, _ = invariants(M([[ValPoly.zero(N), tpow(0)],
                                     [tpow(2), ValPoly.zero(N)]]))
        assert exponents == (0, 2)

    def test_rank_drop(self):
        # second row is t times the first, with signs flipped
        exponents, free_rank = invariants(M([[tpow(1, -1), tpow(1)],
                                             [tpow(2), tpow(2, -1)]]))
        assert exponents == (1,)
        assert free_rank == 1

    def test_invariance_under_permutation_and_units(self):
        rng = random.Random(7)
        for _ in range(25):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            data = [[tpow(rng.randint(0, 4), coeff=rng.choice([-2, -1, 1, 2, 3]))
                     if rng.random() < 0.7 else ValPoly.zero(N)
                     for _ in range(cols)] for _ in range(rows)]
            base, _ = invariants(M(data))
            perm_r = rng.sample(range(rows), rows)
            perm_c = rng.sample(range(cols), cols)
            permuted = [[data[i][j] for j in perm_c] for i in perm_r]
            assert invariants(M(permuted))[0] == base
            unit = ValPoly({0: Fraction(3), 2: Fraction(1, 2)}, N)
            scaled = [[unit * e for e in row] for row in data]
            assert invariants(M(scaled))[0] == base

    def test_invariance_under_unimodular_transforms(self):
        # elementary operations with non-constant multipliers and unit scalings
        # generate GL over the local ring, which fixes the Smith form
        rng = random.Random(19)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            base = random_matrix(rng, rows, cols)
            A = [list(row) for row in base.data]
            for _ in range(8):
                op = rng.choice(["add", "scale", "swap"])
                by_rows = rng.random() < 0.5
                size = rows if by_rows else cols
                i, j = rng.randrange(size), rng.randrange(size)
                if op == "add" and i != j:
                    g = random_poly(rng)
                    if by_rows:
                        A[i] = [a + g * b for a, b in zip(A[i], A[j])]
                    else:
                        for row in A:
                            row[i] = row[i] + g * row[j]
                elif op == "scale":
                    u = random_poly(rng, constant=rng.choice([-3, -1, 2, Fraction(1, 2)]))
                    if by_rows:
                        A[i] = [u * a for a in A[i]]
                    else:
                        for row in A:
                            row[i] = u * row[i]
                elif op == "swap":
                    if by_rows:
                        A[i], A[j] = A[j], A[i]
                    else:
                        for row in A:
                            row[i], row[j] = row[j], row[i]
            assert invariants(DVRMatrix(A, N, cols=cols)) == invariants(base)

    @pytest.mark.parametrize("with_u", [True, False])
    def test_transforms_on_sparse_matrices(self, with_u):
        # mostly-zero matrices, some with a zero row or column, and the
        # all-zero matrix: the oracle's U A V is the padded diagonal of t^e
        # and V V_inv = 1; without U, _smith's exponents and V are the oracle's
        rng = random.Random(29)
        cases = [DVRMatrix.zeros(3, 2, N)]
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            A = [list(row) for row in random_matrix(rng, rows, cols, density=0.3).data]
            if rng.random() < 0.4:
                A[rng.randrange(rows)] = [ValPoly.zero(N)] * cols
            if rng.random() < 0.4:
                j = rng.randrange(cols)
                for row in A:
                    row[j] = ValPoly.zero(N)
            cases.append(DVRMatrix(A, N, cols=cols))
        for A in cases:
            full = FullSmith(A)
            if with_u:
                assert full.V @ full.V_inv == DVRMatrix.identity(A.cols, N)
                diagonal = DVRMatrix(
                    [[tpow(full.exponents[i]) if i == j and i < full.npivots
                      else ValPoly.zero(N) for j in range(A.cols)] for i in range(A.rows)],
                    N, cols=A.cols)
                assert full.U @ A @ full.V == diagonal
            else:
                sm = _smith(A)
                assert (sm.exponents, sm.V) == (full.exponents, full.V)

    def test_stability_across_truncations(self):
        rng = random.Random(11)
        for _ in range(15):
            shape = [[(rng.randint(0, 5), rng.choice([-1, 1, 2]))
                      if rng.random() < 0.8 else None
                      for _ in range(3)] for _ in range(3)]

            def build(trunc):
                rows = []
                for row in shape:
                    rows.append([
                        tpow(cell[0], coeff=cell[1], trunc=trunc)
                        if cell is not None else ValPoly.zero(trunc)
                        for cell in row])
                return DVRMatrix(rows, trunc)

            assert invariants(build(N))[0] == invariants(build(N + 2))[0]


def random_unimodular(rng, size):
    """A random invertible matrix over the local ring: elementary operations on 1."""
    A = [list(row) for row in DVRMatrix.identity(size, N).data]
    for _ in range(3 * size):
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:
            g = random_poly(rng)
            A[i] = [a + g * b for a, b in zip(A[i], A[j])]
        else:
            u = random_poly(rng, constant=rng.choice([-3, -1, 2, Fraction(1, 2)]))
            A[i] = [u * a for a in A[i]]
        k = rng.randrange(size)
        A[i], A[k] = A[k], A[i]
    return DVRMatrix(A, N, cols=size)


def min_valuation(matrix):
    """Least valuation of an entry; N for the zero matrix."""
    return min((e.valuation() for row in matrix.data for e in row if not e.is_zero()),
               default=N)


class TestCertify:
    """A matrix known modulo t^P: exponents below P are exact, reads lose ``loss``."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_perturbed_smith_form(self, seed):
        rng = random.Random(seed)
        rows, cols, P = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 8)
        full = min(rows, cols)
        rank = full if rng.random() < 0.7 else rng.randint(0, full)
        true = sorted(rng.randint(0, P + 1) for _ in range(rank))
        diagonal = DVRMatrix([[tpow(true[i]) if i == j and i < rank else ValPoly.zero(N)
                               for j in range(cols)] for i in range(rows)], N, cols=cols)
        A = random_unimodular(rng, rows) @ diagonal @ random_unimodular(rng, cols)
        noise = random_matrix(rng, rows, cols).scale(tpow(P))
        sm, full = _smith(A + noise), FullSmith(A + noise)
        try:
            got = sm.certify(P, rank, "perturbed")
        except TruncationUnstable as exc:
            assert f"floor {P}" in str(exc)
            # only a factor at or above the floor, true or spurious, may raise
            assert true[-1:] >= [P] or sm.npivots != rank or sm.exponents[-1:] >= [P]
            assert true[-1:] >= [P] or rank < min(rows, cols)
            return
        assert got == true
        # the transforms of the exact matrix agree with these modulo t^(P - loss):
        # _smith's V, and the oracle's U and V_inv
        exact, exact_full = _smith(A), FullSmith(A)
        assert exact.exponents == true
        for mine, theirs in ((full.U, exact_full.U), (sm.V, exact.V),
                             (full.V_inv, exact_full.V_inv)):
            assert min_valuation(mine - theirs) >= P - sm.loss

    def test_loss_is_the_largest_exponent(self):
        assert _smith(M([[tpow(3), tpow(5)], [tpow(4), tpow(1)]])).loss == 3
        assert _smith(DVRMatrix.zeros(2, 2, N)).loss == 0

    def test_message_names_truncation_floor_and_deficit(self):
        sm = _smith(M([[tpow(0), ValPoly.zero(N)], [ValPoly.zero(N), tpow(5)]]))
        assert sm.certify(6, 2, "diag") == [0, 5]
        with pytest.raises(TruncationUnstable,
                           match="truncation 16 with floor 4; precision short by at least 2"):
            sm.certify(4, 2, "diag")
        with pytest.raises(TruncationUnstable, match="short by at least 1"):
            _smith(DVRMatrix.zeros(1, 1, N)).certify(4, 1, "zero")


class TestKernel:
    def test_identity_has_no_kernel(self):
        assert _smith(DVRMatrix.identity(2, N)).kernel().cols == 0

    def test_zero_matrix(self):
        basis = _smith(DVRMatrix.zeros(2, 2, N)).kernel()
        assert basis.cols == 2

    def test_one_by_two(self):
        mat = M([[tpow(1), tpow(0, -1)]])
        basis = _smith(mat).kernel()
        assert basis.cols == 1
        assert mat @ basis == DVRMatrix.zeros(1, 1, N)
        # saturated: the basis vector is not t times another vector
        assert any(e.valuation() == 0 for e in basis.column(0))

    def test_members_satisfy_equation_and_are_independent(self):
        mat = M([[tpow(1, -1), tpow(1)], [tpow(2), tpow(2, -1)]])
        basis = _smith(mat).kernel()
        assert basis.cols == 1
        v = basis.column(0)
        for i in range(2):
            acc = mat.data[i][0] * v[0] + mat.data[i][1] * v[1]
            assert acc.is_zero()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_coordinates_round_trip(self, seed):
        # Split.coordinates, on surjections with a unit pivot in every row
        rng = random.Random(seed)
        sp = _split(random_surjection(rng, rng.randint(1, 3), rng.randint(0, 2)))
        basis = sp.kernel
        coeffs = random_matrix(rng, basis.cols, rng.randint(0, 3))
        members = basis @ coeffs
        coords = sp.coordinates(members, N)
        assert coords == coeffs
        assert basis @ coords == members
        # the first section column maps to a unit vector: not in the kernel
        outside = DVRMatrix([row + (e,) for row, e in zip(members.data, sp.section.column(0))],
                            N, cols=members.cols + 1)
        with pytest.raises(TruncationUnstable):
            sp.coordinates(outside, N)


def random_surjection(rng, rows, extra, trunc=N):
    """A rows x (rows + extra) matrix with a unit pivot in every row: a unit
    block on shuffled columns, its other entries in tC[[t]], and random
    entries with higher terms and Fractions in the remaining columns."""
    cols = rows + extra
    order = rng.sample(range(cols), cols)
    rand = random_matrix(rng, rows, cols, trunc)
    unit = [[random_poly(rng, trunc, constant=rng.choice([-1, 1, 2, Fraction(1, 3)]))
             if order[j] == i else ValPoly.zero(trunc) for j in range(cols)]
            for i in range(rows)]
    t = ValPoly.monomial(1, 1, trunc)
    return DVRMatrix([[u + t * e if order[j] < rows else e
                       for j, (u, e) in enumerate(zip(urow, rrow))]
                      for urow, rrow in zip(unit, rand.data)], trunc, cols=cols)


class TestSplitting:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_section_and_retraction_split_a_surjection(self, seed):
        rng = random.Random(seed)
        rows, extra = rng.randint(1, 3), rng.randint(0, 3)
        mat = random_surjection(rng, rows, extra)
        sp = _split(mat)
        section, selection, kernel = sp.section, retraction(sp), sp.kernel
        assert mat @ section == DVRMatrix.identity(rows, N)
        assert selection @ kernel == DVRMatrix.identity(extra, N)
        assert section @ mat + kernel @ selection == DVRMatrix.identity(rows + extra, N)
        # free_rows reads what the selection matrix multiplies out
        vectors = random_matrix(rng, rows + extra, rng.randint(0, 3))
        assert sp.free_rows(vectors) == dense_product(selection, vectors)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_split_is_the_oracle_factorisation(self, seed):
        # s <= 3 rows, c <= 5 columns: the oracle's kernel, V_piv @ U and
        # V_inv's rows past the pivots, value for value
        rng = random.Random(seed)
        rows = rng.randint(1, 3)
        mat = random_surjection(rng, rows, rng.randint(0, 5 - rows))
        sp, full = _split(mat), FullSmith(mat)
        assert full.exponents == [0] * rows
        section, full_retraction = full.splitting()
        assert (sp.kernel, sp.section, retraction(sp)) == (full.kernel(), section, full_retraction)
        cols = mat.cols
        assert mat @ sp.section == DVRMatrix.identity(rows, N)
        assert mat @ sp.kernel == DVRMatrix.zeros(rows, cols - rows, N)
        assert sp.section @ mat + sp.kernel @ retraction(sp) == DVRMatrix.identity(cols, N)

    def test_a_row_without_a_unit_is_refused(self):
        z = ValPoly.zero(N)
        for mat in (M([[tpow(1), tpow(2)]]),
                    # the second row is a unit multiple of the first modulo t
                    M([[tpow(0), tpow(1), z], [tpow(0, 2), tpow(1), tpow(1)]]),
                    DVRMatrix.zeros(2, 3, N)):
            with pytest.raises(ValueError, match="no unit pivot"):
                _split(mat)


class TestSmithAgainstTheOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_exponents_and_v(self, seed):
        rng = random.Random(seed)
        A = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5), density=rng.random())
        sm, full = _smith(A), FullSmith(A)
        assert (sm.exponents, sm.V) == (full.exponents, full.V)
        assert sm.kernel() == full.kernel()


class TestSolve:
    """``oracles.solve``, the solver of the pushout oracle in test_homology."""

    def test_identity(self):
        rhs = [tpow(2), tpow(0, 5)]
        assert solve_column(DVRMatrix.identity(2, N), rhs) == rhs

    def test_valuation_obstruction(self):
        assert solve_column(M([[tpow(1)]]), [tpow(0)]) is None

    def test_exact_division(self):
        sol = solve_column(M([[tpow(1)]]), [tpow(3)])
        assert sol == [tpow(2)]

    def test_incompatible_system(self):
        mat = M([[tpow(0)], [tpow(0)]])
        assert solve_column(mat, [tpow(0), tpow(1)]) is None

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_every_column_from_one_factorisation(self, seed):
        rng = random.Random(seed)
        rows, cols, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        A = random_matrix(rng, rows, cols)
        B = A @ random_matrix(rng, cols, k)
        sol = solve(FullSmith(A), B, N)
        assert sol is not None and (sol.rows, sol.cols) == (cols, k)
        assert A @ sol == B
        for j in range(k):
            assert list(sol.column(j)) == solve_column(A, B.column(j))
        # every entry of t * A lies in tC[[t]], so a unit vector is obstructed
        tA = A.scale(tpow(1))
        tB = tA @ random_matrix(rng, cols, k)
        unit = column([tpow(0)] + [ValPoly.zero(N)] * (rows - 1))
        at = rng.randint(0, k)
        mixed = DVRMatrix([row[:at] + u + row[at:] for row, u in zip(tB.data, unit.data)],
                          N, cols=k + 1)
        assert solve(FullSmith(tA), tB, N) is not None
        assert solve(FullSmith(tA), mixed, N) is None


class TestFloorReads:
    """coordinates and solve decide membership modulo t^(floor - loss): a
    perturbation from that degree on carries no information and must not
    decide, one below it must.  A split loses nothing: known is the floor."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_coordinates(self, seed):
        rng = random.Random(seed)
        rows = rng.randint(1, 3)
        mat = random_surjection(rng, rows, rng.randint(1, 3))
        sp, known = _split(mat), rng.randint(1, 6)
        basis = sp.kernel
        coeffs = random_matrix(rng, basis.cols, rng.randint(1, 3))
        members = basis @ coeffs
        noise = random_matrix(rng, mat.cols, members.cols).scale(
            tpow(known + rng.randint(0, 2)))
        coords = sp.coordinates(members + noise, known)
        assert min_valuation(coords - coeffs) >= known
        # the oracle's read, off V_inv, gives the same coordinates
        full = FullSmith(mat)
        assert full.coordinates(members + noise, known) == coords
        # A maps the first section column to a unit vector, t^q times it to t^q
        q = rng.randrange(known)
        off = DVRMatrix([[e] * members.cols for e in sp.section.column(0)], N,
                        cols=members.cols).scale(tpow(q))
        for reader in (sp, full):
            with pytest.raises(TruncationUnstable):
                reader.coordinates(members + off, known)

    def test_solve(self):
        # A = [t^2; 0] has loss 2: at floor 5, U rhs is known modulo t^3
        sm = FullSmith(M([[tpow(2)], [ValPoly.zero(N)]]))
        zero = ValPoly.zero(N)
        assert solve(sm, column([tpow(2), tpow(3)]), N) is None
        assert solve(sm, column([tpow(2), tpow(3)]), 5) == column([tpow(0)])
        assert solve(sm, column([tpow(2), tpow(2)]), 5) is None
        assert solve(sm, column([tpow(1), zero]), 5) is None
        # at floor 3 only the t^0 term is known: t^1 no longer obstructs the division
        assert solve(sm, column([tpow(1) + tpow(2), zero]), 3) == column([tpow(0)])
        assert solve(sm, column([tpow(0) + tpow(2), zero]), 3) is None


def test_rational_rank():
    one = Fraction(1)
    assert rational_rank([[one, one], [one, one]]) == 1
    assert rational_rank([[one, 0], [0, one]]) == 2
    assert rational_rank([[Fraction(0)]]) == 0


class TestFromColumns:
    @pytest.mark.parametrize("rows, cols", [(3, 2), (1, 4), (3, 0), (0, 2), (0, 0)])
    def test_equals_hstack_of_columns(self, rows, cols):
        rng = random.Random(rows * 10 + cols)
        columns = [[tpow(rng.randrange(3), coeff=rng.randrange(-2, 3)) for _ in range(rows)]
                   for _ in range(cols)]
        built = DVRMatrix.from_columns(columns, rows, N)
        assert (built.rows, built.cols, built.trunc) == (rows, cols, N)
        assert built == DVRMatrix([[col[i] for col in columns] for i in range(rows)], N,
                                  cols=cols)
        for j, col in enumerate(columns):
            assert built.column(j) == tuple(col)


class TestDVRMatrixShape:
    def test_equality_sees_the_shape(self):
        assert DVRMatrix.zeros(0, 2, N) != DVRMatrix.zeros(0, 0, N)
        assert DVRMatrix.zeros(0, 2, N) != DVRMatrix.zeros(2, 0, N)
        assert DVRMatrix.zeros(0, 2, N) == DVRMatrix.zeros(0, 2, N)

    def test_sum_and_difference_check_the_shape(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            DVRMatrix.zeros(1, 1, N) + DVRMatrix.identity(2, N)
        with pytest.raises(ValueError, match="shape mismatch"):
            DVRMatrix.zeros(2, 1, N) - DVRMatrix.zeros(1, 2, N)

    def test_block_places_the_blocks_and_checks_the_shape(self):
        a, b, d = M([[tpow(0)]]), M([[tpow(1), tpow(2)]]), M([[tpow(3), tpow(0, 2)]] * 2)
        z = ValPoly.zero(N)
        assert DVRMatrix.block(a, b, d) == M([[tpow(0), tpow(1), tpow(2)],
                                              [z, tpow(3), tpow(0, 2)],
                                              [z, tpow(3), tpow(0, 2)]])
        with pytest.raises(ValueError, match="shape mismatch"):
            DVRMatrix.block(a, b, DVRMatrix.identity(3, N))
        with pytest.raises(ValueError, match="shape mismatch"):
            DVRMatrix.block(DVRMatrix.identity(2, N), b, d)

    def test_scale_rows_scales_the_masked_rows_and_shares_the_others(self):
        a = M([[tpow(0), tpow(1)], [tpow(2), ValPoly.zero(N)]])
        got = a.scale_rows(tpow(1), [False, True])
        assert got == M([[tpow(0), tpow(1)], [tpow(3), ValPoly.zero(N)]])
        assert got.data[0] is a.data[0]
        assert a.scale_rows(tpow(1), [True, True]) == a.scale(tpow(1))

    def test_operations_keep_the_shape_of_empty_rows(self):
        empty = DVRMatrix.zeros(0, 2, N)
        assert empty @ DVRMatrix.zeros(2, 3, N) == DVRMatrix.zeros(0, 3, N)
        assert empty + empty == empty and empty - empty == empty
        assert empty.scale(tpow(1)) == empty == empty.scale_rows(tpow(1), [])


# -- exact arithmetic against a schoolbook reference ----------------------

TRUNC = 8

coefficients = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5)))


# 0 to 4 terms in degrees below TRUNC
terms = st.dictionaries(st.integers(0, TRUNC - 1), coefficients, max_size=4)


def ref_add(p, q, sign=1):
    out = {d: Fraction(c) for d, c in p.items()}
    for d, c in q.items():
        out[d] = out.get(d, Fraction(0)) + sign * Fraction(c)
    return {d: c for d, c in out.items() if c != 0 and d < TRUNC}


def ref_mul(p, q):
    out = {}
    for d1, c1 in p.items():
        for d2, c2 in q.items():
            out[d1 + d2] = out.get(d1 + d2, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {d: c for d, c in out.items() if c != 0 and d < TRUNC}


def assert_clean(p: ValPoly):
    """Exact nonzero coefficients in degrees 0 .. trunc - 1, and nothing else."""
    for d, c in p.coeffs.items():
        assert type(c) in (int, Fraction), (d, c)
        assert c != 0 and 0 <= d < p.trunc, (d, c)


class TestExactArithmetic:
    @settings(max_examples=300, deadline=None)
    @given(terms, terms)
    def test_ring_operations_match_reference(self, a, b):
        p, q = ValPoly(a, TRUNC), ValPoly(b, TRUNC)
        for got, want in [(p + q, ref_add(a, b)), (p - q, ref_add(a, b, -1)),
                          (p * q, ref_mul(a, b)), (-p, ref_add({}, a, -1))]:
            assert got.coeffs == want
            assert got.trunc == TRUNC
            assert_clean(got)

    def test_zero_operand_keeps_the_left_truncation(self):
        # a shortcut for a zero operand gives what the general path gives
        zero, p = ValPoly.zero(TRUNC), ValPoly({1: 2, TRUNC + 2: 3}, 2 * TRUNC)
        assert zero + p == ValPoly({1: 2}, TRUNC)
        assert zero - p == ValPoly({1: -2}, TRUNC)
        assert p + zero is p and p - zero is p
        assert zero * p == ValPoly.zero(TRUNC) and p * zero == ValPoly.zero(2 * TRUNC)

    @settings(max_examples=300, deadline=None)
    @given(terms, coefficients)
    def test_unit_inverse(self, higher, a0):
        u = ValPoly({**{d: c for d, c in higher.items() if d > 0}, 0: a0}, TRUNC)
        inv = u.unit_inverse()
        assert u * inv == ValPoly.one(TRUNC)
        assert_clean(inv)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, TRUNC - 1), terms, coefficients, terms)
    def test_exact_div_inverts_multiplication(self, a, higher, a0, num):
        q = ValPoly({**{d + a: c for d, c in higher.items() if d > 0}, a: a0}, TRUNC)
        p = ValPoly({d: c for d, c in num.items() if d >= a}, TRUNC)
        r = p.exact_div(q)
        assert_clean(r)
        window = TRUNC - a
        back = {d: c for d, c in (r * q).coeffs.items() if d < window}
        assert back == {d: c for d, c in p.coeffs.items() if d < window}

    def test_integers_stay_integers(self):
        p = (tpow(1, 2) + tpow(0, -3)) * tpow(2, 4) - tpow(3, 5)
        assert all(type(c) is int for c in p.coeffs.values())
        for unit in (1, -1):
            assert ValPoly.monomial(unit, 0, N).unit_inverse().coeffs == {0: unit}
            assert type(ValPoly.monomial(unit, 0, N).unit_inverse().coeffs[0]) is int
        assert type(ValPoly.monomial(Fraction(4, 2), 1, N).coeffs[1]) is int
        assert tpow(2, 3).exact_div(tpow(0, 2)).coeffs == {2: Fraction(3, 2)}
        assert tpow(0, 2).unit_inverse().coeffs == {0: Fraction(1, 2)}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3).flatmap(lambda inner: st.tuples(
        st.lists(st.lists(terms, min_size=inner, max_size=inner), min_size=1, max_size=3),
        st.lists(st.lists(terms, min_size=2, max_size=2), min_size=inner, max_size=inner))))
    def test_matrix_product_matches_reference(self, shapes):
        left, right = shapes
        a = DVRMatrix([[ValPoly(e, TRUNC) for e in row] for row in left], TRUNC,
                      cols=len(left[0]))
        b = DVRMatrix([[ValPoly(e, TRUNC) for e in row] for row in right], TRUNC, cols=2)
        got = a @ b
        assert (got.rows, got.cols) == (len(left), 2)
        for i, row in enumerate(left):
            for j in range(2):
                want = {}
                for l, entry in enumerate(row):
                    want = ref_add(want, ref_mul(entry, right[l][j]))
                assert got.data[i][j].coeffs == want
                assert_clean(got.data[i][j])


# entries of the product tests: zero half the time, else 1 + t, -1, 1, t,
# -1 - t (whose products cancel in pairs, as (1 + t) * 1 + (-1) * (1 + t)
# does), a term at the truncation edge, or any few terms
product_entries = st.one_of(
    st.just({}),
    st.sampled_from([{0: 1, 1: 1}, {0: -1}, {0: 1}, {1: 1}, {0: -1, 1: -1},
                     {TRUNC - 1: 2}, {TRUNC - 2: 1, TRUNC - 1: -1}]),
    terms)


@st.composite
def product_operands(draw):
    """a (rows x inner) and b (inner x cols), each side 0 to 4, with a few
    rows of a and columns of b set to zero."""
    rows, inner, cols = (draw(st.integers(0, 4)) for _ in range(3))
    a = [[draw(product_entries) for _ in range(inner)] for _ in range(rows)]
    b = [[draw(product_entries) for _ in range(cols)] for _ in range(inner)]
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows)):
        a[i] = [{}] * inner
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols)):
        for row in b:
            row[j] = {}
    return (DVRMatrix([[ValPoly(e, TRUNC) for e in row] for row in a], TRUNC, cols=inner),
            DVRMatrix([[ValPoly(e, TRUNC) for e in row] for row in b], TRUNC, cols=cols))


class TestSparseProduct:
    """``@`` against ``oracles.dense_product``, which adds every product."""

    @settings(max_examples=400, deadline=None)
    @given(product_operands())
    def test_matches_the_dense_product(self, operands):
        a, b = operands
        got = a @ b
        assert (got.rows, got.cols, got.trunc) == (a.rows, b.cols, TRUNC)
        assert got == dense_product(a, b)
        for row in got.data:
            for entry in row:
                assert_clean(entry)

    @settings(max_examples=200, deadline=None)
    @given(terms.filter(bool), terms)
    def test_an_exact_one_returns_the_other_factor(self, a, b):
        p, one = ValPoly(a, TRUNC), ValPoly.one(TRUNC)
        # p * 1 is the right-hand 1 when p is an exact 1 too
        assert one * p is p and p * one is (one if p == one else p)
        # another truncation, or a unit other than 1, takes the general path
        assert ValPoly.one(TRUNC + 1) * p == ValPoly(a, TRUNC + 1)
        assert p * ValPoly.one(TRUNC + 1) == p
        q = ValPoly({**b, 0: 1}, TRUNC)
        assert (q * p).coeffs == ref_mul(q.coeffs, a) and (p * q).coeffs == ref_mul(a, q.coeffs)

    @settings(max_examples=200, deadline=None)
    @given(product_operands(), product_entries, st.integers(0, 15), st.integers(0, 15))
    def test_an_exact_identity_returns_the_other_factor(self, operands, entry, i, j):
        a, b = operands
        left, right = DVRMatrix.identity(a.rows, TRUNC), DVRMatrix.identity(a.cols, TRUNC)
        assert left @ a is a and a @ right is (right if a == right else a)
        assert a == dense_product(left, a) == dense_product(a, right)
        assert DVRMatrix.identity(a.cols, TRUNC + 1) @ b == dense_product(
            DVRMatrix.identity(a.cols, TRUNC + 1), b)
        # one entry changed: an identity only if the entry is the one it replaced
        for eye in (left, right):
            if eye.rows:
                data = [list(row) for row in eye.data]
                data[i % eye.rows][j % eye.rows] = ValPoly(entry, TRUNC)
                near = DVRMatrix(data, TRUNC, cols=eye.cols)
                got = near @ a if eye is left else a @ near
                assert got == (dense_product(near, a) if eye is left else dense_product(a, near))

    def test_exact_cancellation_and_the_truncation_edge(self):
        one_t, z = ValPoly({0: 1, 1: 1}, TRUNC), ValPoly.zero(TRUNC)
        # (1 + t) * 1 + (-1) * (1 + t), and (1 + t)(1 - t) = 1 - t^2 in one term
        a = DVRMatrix([[one_t, ValPoly({0: -1}, TRUNC)], [one_t, z]], TRUNC)
        b = DVRMatrix([[ValPoly.one(TRUNC), ValPoly({0: 1, 1: -1}, TRUNC)], [one_t, z]], TRUNC)
        assert (a @ b).data == ((z, ValPoly({0: 1, 2: -1}, TRUNC)),
                                (one_t, ValPoly({0: 1, 2: -1}, TRUNC)))
        # t^(TRUNC - 1) * t falls past the truncation, t^(TRUNC - 2) * t does not
        edge = DVRMatrix([[ValPoly({TRUNC - 2: 1, TRUNC - 1: 1}, TRUNC)]], TRUNC)
        assert (edge @ DVRMatrix([[tpow(1, trunc=TRUNC)]], TRUNC)).data == \
            ((tpow(TRUNC - 1, trunc=TRUNC),),)
        assert (edge @ DVRMatrix([[tpow(2, trunc=TRUNC)]], TRUNC)).data == ((z,),)
