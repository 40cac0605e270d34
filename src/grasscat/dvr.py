"""Exact linear algebra over C[[t]] truncated at a working precision.

Elements are polynomials in t with exact rational coefficients, all
arithmetic discarding degrees >= the truncation level N.  The Smith normal
form uses minimal-t-valuation pivoting (every minimal-valuation entry of a
matrix over a DVR divides all the others), which keeps every elimination
step exact modulo t^N.  ``_smith`` returns one factorisation object,
``Smith``: the exponents and the column steps, replayed into the column
transform V only when V is first read; V's columns past the pivots are
the kernel.  A surjection with a unit pivot in every row, a cover map, is
split by ``_split``: kernel, free rows and a section built on first read.

Precision is tracked by one integer per computed object, its floor: a
matrix with floor P <= N is correct modulo t^P, and its coefficients in
degrees P .. N-1 carry no information.  The Smith form commutes with
reduction modulo t^P, so every pivot exponent below the floor is a true
elementary divisor, and the Schur complements of minimal-valuation
pivoting are as precise as the matrix.  V divides by the pivots, so its
kernel loses at most the largest pivot exponent, ``Smith.loss``.  Callers
carry the floors; ``Smith.certify`` checks the exponents against one.  A
``Split`` divides by units only and loses nothing: its ``coordinates``
decide kernel membership modulo t^floor.

``ValPoly`` and ``DVRMatrix`` instances are immutable and may be shared,
and arithmetic may return an operand unchanged (``p + 0``, ``1 * p`` and
``I @ p`` are ``p``).  The kernels skip zero entries and exact units:
products by zero, by an exact 1 or identity, elimination steps against a
zero, zero terms of a matrix product and pivot rows scaled by 1 are never
computed, since each would leave its target's value as it was.  Results
the module builds itself are wrapped by ``ValPoly._clean`` and
``DVRMatrix._wrap``, which skip the validation the public constructors
do; they stay private to this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import TruncationUnstable

Coeff = Union[int, Fraction]
Coeffs = dict[int, Coeff]
_ONE: Coeffs = {0: 1}  # the coefficients of an exact 1


def _exact(c) -> Coeff:
    """c as an exact coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _reciprocal(c: Coeff) -> Coeff:
    """1 / c exactly; +-1 stays an int, any other inverse is a Fraction."""
    return c if c == 1 or c == -1 else Fraction(1) / c


class ValPoly:
    """Polynomial in t, exact rational coefficients, degrees < trunc.

    Coefficients are ints until a division makes them Fractions; they are
    never floats and never zero.  Instances are immutable and may be
    shared; arithmetic with a zero operand or an exact 1 may return the
    other operand itself, and every result carries the left operand's truncation.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs: Coeffs, trunc: int):
        self.trunc = trunc
        self.coeffs = {d: c for d, c in coeffs.items() if c != 0 and d < trunc}

    @classmethod
    def _clean(cls, coeffs: Coeffs, trunc: int) -> "ValPoly":
        """Wrap coefficients already known to be nonzero and below trunc."""
        p = object.__new__(cls)
        p.coeffs, p.trunc = coeffs, trunc
        return p

    @classmethod
    def zero(cls, trunc: int) -> "ValPoly":
        return cls._clean({}, trunc)

    @classmethod
    def monomial(cls, coeff, degree: int, trunc: int) -> "ValPoly":
        return cls({degree: _exact(coeff)}, trunc)

    @classmethod
    def one(cls, trunc: int) -> "ValPoly":
        return cls.monomial(1, 0, trunc)

    @classmethod
    def t(cls, trunc: int) -> "ValPoly":
        return cls.monomial(1, 1, trunc)

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> Optional[int]:
        """Smallest degree with nonzero coefficient; None for the zero polynomial."""
        return min(self.coeffs) if self.coeffs else None

    def is_unit(self) -> bool:
        return 0 in self.coeffs

    def __add__(self, other: "ValPoly") -> "ValPoly":
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) + c
        return ValPoly(out, self.trunc)

    def __sub__(self, other: "ValPoly") -> "ValPoly":
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, 0) - c
        return ValPoly(out, self.trunc)

    def __neg__(self) -> "ValPoly":
        return ValPoly._clean({d: -c for d, c in self.coeffs.items()}, self.trunc)

    def __mul__(self, other: "ValPoly") -> "ValPoly":
        trunc = self.trunc
        if not self.coeffs or not other.coeffs:
            return ValPoly._clean({}, trunc)
        if other.trunc == trunc and _ONE in (self.coeffs, other.coeffs):
            return other if self.coeffs == _ONE else self
        if len(self.coeffs) == 1 and len(other.coeffs) == 1:
            (d1, c1), = self.coeffs.items()
            (d2, c2), = other.coeffs.items()
            d = d1 + d2
            return ValPoly._clean({d: c1 * c2} if d < trunc else {}, trunc)
        out: Coeffs = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                if d < trunc:
                    out[d] = out.get(d, 0) + c1 * c2
        return ValPoly(out, trunc)

    def unit_inverse(self) -> "ValPoly":
        """Power-series inverse of a valuation-0 element, to the truncation."""
        if not self.is_unit():
            raise ZeroDivisionError("only valuation-0 elements are invertible")
        a0 = self.coeffs[0]
        if len(self.coeffs) == 1:
            return ValPoly._clean({0: _reciprocal(a0)}, self.trunc)
        inv: list[Coeff] = [Fraction(1) / a0]
        higher = [(d, c) for d, c in self.coeffs.items() if d > 0]
        for m in range(1, self.trunc):
            acc = Fraction(0)
            for d, c in higher:
                if d <= m:
                    acc += c * inv[m - d]
            inv.append(-acc / a0)
        return ValPoly({d: c for d, c in enumerate(inv)}, self.trunc)

    def exact_div(self, other: "ValPoly") -> "ValPoly":
        """Divide by other = t^a * unit; requires valuation(self) >= a.

        The top a coefficients of the result fall outside the window that
        the inputs determine; they are reported as zero.  A quotient of a
        value known modulo t^P is therefore known modulo t^(P - a); the
        callers account for that loss in the floor of what they build
        (see ``Smith.loss``).
        """
        a = other.valuation()
        if a is None:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return ValPoly.zero(self.trunc)
        if self.valuation() < a:
            raise TruncationUnstable(
                f"inexact division: valuation {self.valuation()} < {a}")
        if len(other.coeffs) == 1:
            inv = _reciprocal(other.coeffs[a])
            return ValPoly._clean({d - a: c * inv for d, c in self.coeffs.items()},
                                  self.trunc)
        shifted = ValPoly._clean({d - a: c for d, c in self.coeffs.items()}, self.trunc)
        unit = ValPoly._clean({d - a: c for d, c in other.coeffs.items()}, other.trunc)
        return shifted * unit.unit_inverse()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ValPoly)
            and self.coeffs == other.coeffs
            and self.trunc == other.trunc
        )

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            base = "1" if d == 0 else ("t" if d == 1 else f"t^{d}")
            parts.append(base if c == 1 and d > 0 else f"{c}" if d == 0 else f"{c}*{base}")
        return " + ".join(parts)


class DVRMatrix:
    """Immutable matrix of ValPoly entries sharing one truncation level.

    Instances, their row tuples and their entries may be shared; products
    skip zero entries and exact identity factors.
    """

    __slots__ = ("rows", "cols", "trunc", "data")

    def __init__(self, data: Sequence[Sequence[ValPoly]], trunc: int, cols: Optional[int] = None):
        self.data = tuple(tuple(row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.rows else (cols or 0)
        self.trunc = trunc
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def _wrap(cls, data: tuple[tuple[ValPoly, ...], ...], cols: int, trunc: int) -> "DVRMatrix":
        """Wrap row tuples built in this module, each of length ``cols``."""
        mat = object.__new__(cls)
        mat.data, mat.rows, mat.cols, mat.trunc = data, len(data), cols, trunc
        return mat

    @classmethod
    def zeros(cls, rows: int, cols: int, trunc: int) -> "DVRMatrix":
        return cls._wrap(((ValPoly.zero(trunc),) * cols,) * rows, cols, trunc)

    @classmethod
    def identity(cls, size: int, trunc: int) -> "DVRMatrix":
        one = ValPoly.one(trunc)
        z = ValPoly.zero(trunc)
        return cls._wrap(tuple([tuple([one if i == j else z for j in range(size)])
                                for i in range(size)]), size, trunc)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[ValPoly]], rows: int,
                     trunc: int) -> "DVRMatrix":
        """Matrix with the given columns; ``rows`` fixes the shape when there are none."""
        return cls([[col[i] for col in columns] for i in range(rows)], trunc,
                   cols=len(columns))

    @classmethod
    def block(cls, a: "DVRMatrix", b: "DVRMatrix", d: "DVRMatrix") -> "DVRMatrix":
        """The block upper triangular matrix [[a, b], [0, d]]."""
        if (a.rows, b.cols) != (b.rows, d.cols):
            raise ValueError(f"shape mismatch [[{a.rows}x{a.cols}, {b.rows}x{b.cols}], "
                             f"[0, {d.rows}x{d.cols}]]")
        left = (ValPoly.zero(a.trunc),) * a.cols
        return cls._wrap(tuple([r + s for r, s in zip(a.data, b.data)])
                         + tuple([left + r for r in d.data]), a.cols + d.cols, a.trunc)

    def _is_identity(self) -> bool:
        """Square, 1 on the diagonal and no other entry; stops at the first entry that fails."""
        for i, row in enumerate(self.data):
            for j, e in enumerate(row):
                if (e.coeffs != _ONE) if i == j else e.coeffs:
                    return False
        return self.rows == self.cols

    def __matmul__(self, other: "DVRMatrix") -> "DVRMatrix":
        """The product, each column of ``other`` read once as its nonzero
        (index, coeffs) terms; by an exact identity of the same truncation,
        the other operand.  Zeros are dropped only where two coefficient
        products met or one fell past trunc: one alone is nonzero."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        trunc = self.trunc
        if other.trunc == trunc and ((left := self._is_identity()) or other._is_identity()):
            return other if left else self
        cols = [[(l, e.coeffs) for l, e in enumerate(col) if e.coeffs]
                for col in zip(*other.data)] or [()] * other.cols
        data = []
        for row in self.data:
            out_row = []
            for col in cols:
                out: Coeffs = {}
                products = 0
                for l, b in col:
                    a = row[l].coeffs
                    if a:
                        products += len(a) * len(b)
                        for d1, c1 in a.items():
                            for d2, c2 in b.items():
                                d = d1 + d2
                                if d < trunc:
                                    out[d] = out.get(d, 0) + c1 * c2
                if products > len(out):
                    out = {d: c for d, c in out.items() if c != 0}
                out_row.append(ValPoly._clean(out, trunc))
            data.append(tuple(out_row))
        return DVRMatrix._wrap(tuple(data), other.cols, trunc)

    def _check_shape(self, other: "DVRMatrix", op: str) -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} {op} "
                             f"{other.rows}x{other.cols}")

    def __add__(self, other: "DVRMatrix") -> "DVRMatrix":
        self._check_shape(other, "+")
        return DVRMatrix._wrap(tuple(
            [tuple([self.data[i][j] + other.data[i][j] for j in range(self.cols)])
             for i in range(self.rows)]), self.cols, self.trunc)

    def __sub__(self, other: "DVRMatrix") -> "DVRMatrix":
        self._check_shape(other, "-")
        return DVRMatrix._wrap(tuple(
            [tuple([self.data[i][j] - other.data[i][j] for j in range(self.cols)])
             for i in range(self.rows)]), self.cols, self.trunc)

    def scale(self, p: ValPoly) -> "DVRMatrix":
        return DVRMatrix._wrap(tuple([tuple([p * e for e in row]) for row in self.data]),
                               self.cols, self.trunc)

    def scale_rows(self, p: ValPoly, mask: Sequence[bool]) -> "DVRMatrix":
        """p times each row i where mask[i] holds; every other row is kept as it is."""
        return DVRMatrix._wrap(tuple([tuple([p * e for e in row]) if scaled else row
                                      for scaled, row in zip(mask, self.data)]),
                               self.cols, self.trunc)

    def column(self, j: int) -> tuple[ValPoly, ...]:
        return tuple([row[j] for row in self.data])

    def mod_t(self) -> list[list[Coeff]]:
        """Constant terms, as an exact rational matrix."""
        return [[e.coeffs.get(0, 0) for e in row] for row in self.data]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DVRMatrix)
                and (self.rows, self.cols, self.data) == (other.rows, other.cols, other.data))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(repr(e) for e in row) for row in self.data)
        return f"[{body}]"


class Smith:
    """Smith factorisation U * A * V = S of a matrix A over the local ring,
    recorded as the exponents and the column steps that build V.

    S is zero except for t^e in diagonal place i < ``npivots``, where e is
    ``exponents[i]``.  One factorisation serves every kernel read of A.
    V is built from the steps on its first read, so reading the exponents
    alone never builds it.
    """

    __slots__ = ("exponents", "npivots", "steps", "cols", "trunc", "_V")

    def __init__(self, exponents: list[int], steps: list, cols: int, trunc: int):
        self.exponents, self.npivots, self.steps = exponents, len(exponents), steps
        self.cols, self.trunc, self._V = cols, trunc, None

    @property
    def V(self) -> DVRMatrix:
        """The column transform: ``steps`` replayed, in order, on first read."""
        if self._V is None:
            self._V = self._replay()
        return self._V

    def _replay(self) -> DVRMatrix:
        p, trunc = self.cols, self.trunc
        V = [list(row) for row in DVRMatrix.identity(p, trunc).data]
        for r, (bj, pivot, entries) in enumerate(self.steps):
            if bj != r:
                for row in V:
                    row[r], row[bj] = row[bj], row[r]
            v_nz = [i for i in range(p) if V[i][r].coeffs]
            for j, entry in entries:
                g = entry.exact_div(pivot)
                for i in v_nz:
                    V[i][j] = V[i][j] - g * V[i][r]
        return DVRMatrix._wrap(tuple(map(tuple, V)), p, trunc)

    @property
    def loss(self) -> int:
        """Precision V loses: the largest pivot exponent it divides by."""
        return self.exponents[-1] if self.exponents else 0

    def certify(self, floor: int, rank: int, what: str) -> list[int]:
        """The exponents, proven exact for a matrix correct modulo t^floor.

        ``rank`` is the rank that theory fixes; with that many exponents,
        all below the floor, the Smith form is exact.  Otherwise
        TruncationUnstable names the truncation, the floor and the
        precision missing.
        """
        exps = self.exponents
        top = exps[-1] if exps else -1
        if self.npivots == rank and top < floor:
            return exps
        deficit = max(top + 1 - floor, 1)
        raise TruncationUnstable(
            f"{what}: {self.npivots} pivots (exponents {exps}) where {rank} are "
            f"expected, at truncation {self.trunc} with floor {floor}; "
            f"precision short by at least {deficit}")

    def kernel(self) -> DVRMatrix:
        """Free basis of the kernel of A, as columns: those of V past the pivots.

        They span a saturated (direct summand) submodule.
        """
        return DVRMatrix._wrap(tuple([row[self.npivots:] for row in self.V.data]),
                               self.cols - self.npivots, self.trunc)


def _row_step(rows: list[list[ValPoly]], step: tuple) -> None:
    """Row step (r, col, unit inverse, [(i, g)]) at row r's nonzero entries: row r
    times the unit inverse (unless exactly 1), then row i minus g times row r."""
    r, _, unit_inv, eliminated = step
    pivot_row = rows[r]
    row_nz = [j for j, e in enumerate(pivot_row) if e.coeffs]
    if unit_inv.coeffs != _ONE:
        for j in row_nz:
            pivot_row[j] = unit_inv * pivot_row[j]
    for i, g in eliminated:
        row = rows[i]
        for j in row_nz:
            row[j] = row[j] - g * pivot_row[j]


def _smith(matrix: DVRMatrix) -> Smith:
    """Diagonalise over the local ring by minimal-valuation pivoting.

    Pivot selection takes the globally minimal valuation in the remaining
    block, breaking ties by the smallest (row, col) pair; that entry
    divides every other one, so each clearing step is exact modulo t^N.
    Each column step is recorded for ``Smith.V``, not applied: the column
    swap, the pivot and the pivot row's nonzero entries past it, a row no
    later step reads or swaps.  The rows from the pivot row on are zero
    before the pivot column, so each clearing step is a ``_row_step``.
    """
    m, p, trunc = matrix.rows, matrix.cols, matrix.trunc
    A = [list(row) for row in matrix.data]
    exponents: list[int] = []
    steps: list[tuple[int, ValPoly, list[tuple[int, ValPoly]]]] = []
    r = 0
    while r < min(m, p):
        best: Optional[tuple[int, int, int]] = None
        for i in range(r, m):
            row = A[i]
            for j in range(r, p):
                coeffs = row[j].coeffs
                if coeffs:
                    v = min(coeffs)
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        val, bi, bj = best
        if bi != r:
            A[r], A[bi] = A[bi], A[r]
        if bj != r:
            for row in A[r:]:
                row[r], row[bj] = row[bj], row[r]
        # scale the pivot row so the pivot becomes exactly t^val, and clear below it
        unit_inv = ValPoly._clean({d - val: c for d, c in A[r][r].coeffs.items()},
                                  trunc).unit_inverse()
        t_val = ValPoly.monomial(1, val, trunc)
        _row_step(A, (r, r, unit_inv, [(i, A[i][r].exact_div(t_val)) for i in range(r + 1, m)
                                       if A[i][r].coeffs]))
        steps.append((bj, A[r][r], [(j, e) for j, e in enumerate(A[r]) if j > r and e.coeffs]))
        exponents.append(val)
        r += 1
    if any(exponents[i] > exponents[i + 1] for i in range(len(exponents) - 1)):
        raise AssertionError("invariant factors out of order; pivoting bug")
    return Smith(exponents, steps, p, trunc)


class Split:
    """A surjection A: C[[t]]^c -> C[[t]]^s with a unit pivot in every row,
    as a cover map is, split: with its pivot columns first A = [B | C], B
    invertible, the columns of ``kernel`` = [-B^-1 C; I] and ``section`` =
    [B^-1; 0] give section @ A + kernel @ R = 1, where R reads the free
    coordinates ``free`` (``free_rows``).

    These are ``_smith``'s kernel, V_piv @ U and V^-1's rows past the
    pivots, value for value.  Such an A has minimal valuation 0 at every
    step, so ``_smith`` pivots row by row on the first unit of the remaining
    block; ``_split`` takes the same pivots and column swaps, and row
    elimination leaves the same Schur complement.  A kernel basis that is
    the identity on the free coordinates is unique, and so are a section on
    the pivot coordinates and a retraction vanishing on them.  ``coordinates``
    checks A v = 0 modulo t^floor, where ``_smith`` checked V^-1's pivot
    rows, U A v with U unimodular: the same vectors pass.  Nothing is
    divided by t, so nothing is lost.  ``section`` is built on first read.
    """

    __slots__ = ("matrix", "free", "kernel", "steps", "_section")

    def __init__(self, matrix: DVRMatrix, free: tuple[int, ...], kernel: DVRMatrix, steps: list):
        self.matrix, self.free, self.kernel, self.steps = matrix, free, kernel, steps
        self._section = None

    @property
    def section(self) -> DVRMatrix:
        """``_split``'s row ``steps`` replayed, in order, on the s x s identity on first read."""
        if self._section is None:
            self._section = self._replay()
        return self._section

    def _replay(self) -> DVRMatrix:
        s, trunc = self.matrix.rows, self.matrix.trunc
        rows = [list(row) for row in DVRMatrix.identity(s, trunc).data]
        for step in self.steps:
            _row_step(rows, step)
        section = [(ValPoly.zero(trunc),) * s] * self.matrix.cols
        for r, col, _, _ in self.steps:
            section[col] = tuple(rows[r])
        return DVRMatrix._wrap(tuple(section), s, trunc)

    def free_rows(self, vectors: DVRMatrix) -> DVRMatrix:
        """The rows of ``vectors`` at the free coordinates: R @ vectors."""
        return DVRMatrix._wrap(tuple([vectors.data[j] for j in self.free]), vectors.cols,
                               vectors.trunc)

    def coordinates(self, vectors: DVRMatrix, floor: int) -> DVRMatrix:
        """Coordinates in the ``kernel`` basis of each column of ``vectors``,
        correct modulo t^floor as A is: its free rows, or
        TruncationUnstable when A @ vectors is nonzero there."""
        if any(e.coeffs and min(e.coeffs) < floor
               for row in (self.matrix @ vectors).data for e in row):
            raise TruncationUnstable("vector is not in the kernel at working precision")
        return self.free_rows(vectors)


def _split(matrix: DVRMatrix) -> Split:
    """``Split`` of A by Gauss-Jordan steps on A's rows (``_row_step``), each
    recorded for ``Split.section``; ValueError when a row has no unit left,
    so that A is no such surjection."""
    s, c, trunc = matrix.rows, matrix.cols, matrix.trunc
    rows = [list(row) for row in matrix.data]
    order = list(range(c))  # column of A at each position, the pivots first
    steps = []
    for r, pivot_row in enumerate(rows):
        at = next((q for q in range(r, c) if 0 in pivot_row[order[q]].coeffs), None)
        if at is None:
            raise ValueError(f"row {r} has no unit pivot")
        order[r], order[at] = order[at], order[r]
        col = order[r]
        steps.append((r, col, pivot_row[col].unit_inverse(),
                      [(i, row[col]) for i, row in enumerate(rows) if i != r and row[col].coeffs]))
        _row_step(rows, steps[-1])
    free = tuple(order[s:])
    kernel = dict(zip(free, DVRMatrix.identity(c - s, trunc).data))
    for k, col in enumerate(order[:s]):
        kernel[col] = tuple([-rows[k][j] for j in free])
    return Split(matrix, free, DVRMatrix._wrap(tuple([kernel[j] for j in range(c)]), c - s,
                                               trunc), steps)
