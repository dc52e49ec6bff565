"""Sparse exact matrices with formal-scalar entries.

A matrix is stored as one *part* per monomial in the formal constants
(powers of ``ipi``): the part of monomial ``m`` holds the coefficient
matrix of ``m`` as integer numerators over one shared positive
denominator, ``{m: (den, {i: {j: numerator}})}``.  A rational matrix has
the single part ``()``; each h^k coefficient of the braiding series is a
single ``ipi^k`` part.  Every part is in lowest terms (the gcd of its
denominator and all its numerators is 1), stores no zero numerator and
no empty row, and empty parts are dropped, so equality and hashing are
structural.

All arithmetic (sums, products, scaling, Kronecker products, rank,
inverse and the minimal polynomial) runs on the integer numerators;
:class:`~qjacobi.ncalg.Scalar` values are built only where a caller
reads single entries.  The tensor operators built from Lie structure
constants are extremely sparse, which keeps products on the
512-dimensional triple tensor spaces cheap.

Index convention for Kronecker products is row-major: basis vector
i (x) j of a product space sits at position i * dim2 + j.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .ncalg import Monomial, Scalar, ScalarLike, _join_signed, _mono_mul, _term_body

__all__ = ["MatrixError", "SparseMatrix", "kron", "minimal_polynomial"]

# Integer numerators of one part, row index -> column index -> numerator.
Rows = dict[int, dict[int, int]]
# Monomial -> (positive denominator, numerators), each part in lowest terms.
Parts = dict[Monomial, tuple[int, Rows]]


class MatrixError(ValueError):
    """Shape mismatch, singularity, or entries outside the rationals
    where plain rationals are required."""


# ---------------------------------------------------------------------------
# Integer kernel on numerator rows.

def _row_comb(a: dict[int, int], fa: int, b: dict[int, int], fb: int) -> dict[int, int]:
    """fa*a + fb*b with zeros dropped."""
    out = {j: v * fa for j, v in a.items()} if fa != 1 else dict(a)
    for j, v in b.items():
        out[j] = out.get(j, 0) + v * fb
    return {j: v for j, v in out.items() if v}


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g <= 1 else {j: v // g for j, v in row.items()}


def _scaled(rows: Rows, f: int) -> Rows:
    return rows if f == 1 else {i: {j: v * f for j, v in row.items()} for i, row in rows.items()}


def _rows_comb(a: Rows, fa: int, b: Rows, fb: int) -> Rows:
    """fa*a + fb*b with zeros and empty rows dropped."""
    out = dict(_scaled(a, fa))
    for i, row in _scaled(b, fb).items():
        mine = out.get(i)
        if mine is None:
            out[i] = row
            continue
        merged = _row_comb(mine, 1, row, 1)
        if merged:
            out[i] = merged
        else:
            del out[i]
    return out


def _rows_mul(a: Rows, b: Rows) -> Rows:
    out: Rows = {}
    for i, row in a.items():
        acc: dict[int, int] = {}
        for k, x in row.items():
            brow = b.get(k)
            if brow is None:
                continue
            for j, y in brow.items():
                acc[j] = acc.get(j, 0) + x * y
        acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def _accumulate(parts: dict, mono: Monomial, den: int, rows: Rows) -> None:
    """Add rows/den into the (not yet reduced) part of ``mono``."""
    if not rows:
        return
    have = parts.get(mono)
    if have is None:
        parts[mono] = (den, rows)
        return
    hden, hrows = have
    common = lcm(hden, den)
    parts[mono] = (common, _rows_comb(hrows, common // hden, rows, common // den))


def _reduced(parts: dict) -> Parts:
    """Bring every part to lowest terms and drop the empty ones."""
    out: Parts = {}
    for mono, (den, rows) in parts.items():
        if not rows:
            continue
        g = den
        for row in rows.values():
            g = gcd(g, *row.values())
            if g == 1:
                break
        if g > 1:
            den, rows = den // g, {i: {j: v // g for j, v in row.items()} for i, row in rows.items()}
        out[mono] = (den, rows)
    return out


def _rank(rows: list[dict[int, int]]) -> int:
    """Fraction-free sparse Gaussian elimination; counts the pivots."""
    rows = [row for row in rows if row]
    rank = 0
    while rows:
        pivot_row = min(rows, key=min)
        rows.remove(pivot_row)
        col = min(pivot_row)
        pivot = pivot_row[col]
        rank += 1
        reduced = []
        for row in rows:
            f = row.get(col)
            if f:
                row = _primitive(_row_comb(row, pivot, pivot_row, -f))
            if row:
                reduced.append(row)
        rows = reduced
    return rank


class SparseMatrix:
    """An immutable exact matrix; zero entries are never stored."""

    __slots__ = ("rows", "cols", "_parts")

    def __init__(self, rows: int, cols: int, entries: Iterable[tuple[int, int, ScalarLike]] = ()):
        if rows < 1 or cols < 1:
            raise MatrixError("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        cells: dict[Monomial, dict[tuple[int, int], Fraction | int]] = {}
        for i, j, value in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise MatrixError(f"entry ({i}, {j}) outside {rows}x{cols}")
            if isinstance(value, (int, Fraction)):
                terms = [((), value)]
            else:
                terms = Scalar.coerce(value).sorted_terms()
            for mono, coeff in terms:
                cell = cells.setdefault(mono, {})
                cell[(i, j)] = cell.get((i, j), 0) + coeff
        parts: Parts = {}
        for mono, cell in cells.items():
            values = {ij: v for ij, v in cell.items() if v}
            if not values:
                continue
            # The lcm of reduced denominators leaves no common factor.
            den = lcm(*(v.denominator for v in values.values()))
            data: Rows = {}
            for (i, j), v in values.items():
                data.setdefault(i, {})[j] = v.numerator * (den // v.denominator)
            parts[mono] = (den, data)
        self._parts = parts

    @classmethod
    def _of(cls, rows: int, cols: int, parts: Parts) -> "SparseMatrix":
        out = cls.__new__(cls)
        out.rows = rows
        out.cols = cols
        out._parts = parts
        return out

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        if n < 1:
            raise MatrixError("matrix dimensions must be positive")
        return cls._of(n, n, {(): (1, {i: {i: 1} for i in range(n)})})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseMatrix":
        return cls(rows, cols)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[ScalarLike]]) -> "SparseMatrix":
        nrows = len(rows)
        ncols = len(rows[0])
        entries = []
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise MatrixError("ragged rows")
            entries.extend((i, j, v) for j, v in enumerate(row))
        return cls(nrows, ncols, entries)

    def entry(self, i: int, j: int) -> Scalar:
        terms = {}
        for mono, (den, rows) in self._parts.items():
            v = rows.get(i, {}).get(j)
            if v:
                terms[mono] = Fraction(v, den)
        return Scalar(terms)

    def _cells(self) -> dict[tuple[int, int], list[tuple[Monomial, Fraction]]]:
        """Nonzero cells with their terms, monomials in ascending order."""
        cells: dict[tuple[int, int], list] = {}
        for mono, (den, rows) in sorted(self._parts.items()):
            for i, row in rows.items():
                for j, v in row.items():
                    cells.setdefault((i, j), []).append((mono, Fraction(v, den)))
        return cells

    def items(self):
        for (i, j), terms in self._cells().items():
            yield i, j, Scalar(dict(terms))

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def nnz(self) -> int:
        if len(self._parts) <= 1:
            return sum(len(row) for _, rows in self._parts.values() for row in rows.values())
        return len({(i, j) for _, rows in self._parts.values() for i, row in rows.items() for j in row})

    def _same_shape(self, other: "SparseMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def _combine(self, other: "SparseMatrix", sign: int) -> "SparseMatrix":
        self._same_shape(other)
        parts = dict(self._parts)
        for mono, (den, rows) in other._parts.items():
            _accumulate(parts, mono, den, _scaled(rows, sign))
        return SparseMatrix._of(self.rows, self.cols, _reduced(parts))

    def __add__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self._combine(other, 1)

    def __sub__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self._combine(other, -1)

    def __neg__(self):
        parts = {mono: (den, _scaled(rows, -1)) for mono, (den, rows) in self._parts.items()}
        return SparseMatrix._of(self.rows, self.cols, parts)

    def scale(self, factor: ScalarLike) -> "SparseMatrix":
        factor = Scalar.coerce(factor)
        parts: dict = {}
        for fmono, frac in factor.sorted_terms():
            for mono, (den, rows) in self._parts.items():
                scaled = _scaled(rows, frac.numerator)
                _accumulate(parts, _mono_mul(mono, fmono), den * frac.denominator, scaled)
        return SparseMatrix._of(self.rows, self.cols, _reduced(parts))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dot(((self, other),))

    def dot(self, pairs) -> "SparseMatrix":
        """The sum of ``a * b`` over the (a, b) pairs, brought to lowest
        terms once; the zero matrix of this shape when there are none."""
        shape = None
        parts: dict = {}
        for a, b in pairs:
            if not isinstance(a, SparseMatrix) or not isinstance(b, SparseMatrix):
                raise TypeError("SparseMatrix.dot needs SparseMatrix operands")
            if a.cols != b.rows:
                raise MatrixError(f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}")
            if shape is None:
                shape = (a.rows, b.cols)
            elif shape != (a.rows, b.cols):
                raise MatrixError(f"cannot add a {a.rows}x{b.cols} product to {shape[0]}x{shape[1]}")
            for ma, (da, ra) in a._parts.items():
                for mb, (db, rb) in b._parts.items():
                    _accumulate(parts, _mono_mul(ma, mb), da * db, _rows_mul(ra, rb))
        if shape is None:
            return self.ring_zero()
        return SparseMatrix._of(*shape, _reduced(parts))

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def transpose(self) -> "SparseMatrix":
        parts: Parts = {}
        for mono, (den, rows) in self._parts.items():
            flipped: Rows = {}
            for i, row in rows.items():
                for j, v in row.items():
                    flipped.setdefault(j, {})[i] = v
            parts[mono] = (den, flipped)
        return SparseMatrix._of(self.cols, self.rows, parts)

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise MatrixError("trace of a non-square matrix")
        return Scalar({
            mono: Fraction(sum(row.get(i, 0) for i, row in rows.items()), den)
            for mono, (den, rows) in self._parts.items()
        })

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._parts == other._parts

    def __hash__(self):
        parts = tuple(sorted(
            (mono, den, tuple(sorted((i, tuple(sorted(row.items()))) for i, row in rows.items())))
            for mono, (den, rows) in self._parts.items()
        ))
        return hash((self.rows, self.cols, parts))

    def first_difference(self, other: "SparseMatrix"):
        """Smallest (row, col, here, there) where the matrices differ."""
        self._same_shape(other)
        if self._parts == other._parts:
            return None
        first = None
        empty = (1, {})
        for mono in self._parts.keys() | other._parts.keys():
            da, a = self._parts.get(mono, empty)
            db, b = other._parts.get(mono, empty)
            for i in a.keys() | b.keys():
                ra, rb = a.get(i, {}), b.get(i, {})
                for j in ra.keys() | rb.keys():
                    if ra.get(j, 0) * db != rb.get(j, 0) * da and (first is None or (i, j) < first):
                        first = (i, j)
        # Parts in lowest terms differ only where some cell differs.
        i, j = first
        return (i, j, self.entry(i, j), other.entry(i, j))

    # Ring protocol used by hseries coefficients.
    def ring_one(self) -> "SparseMatrix":
        if self.rows != self.cols:
            raise MatrixError("identity exists only for square matrices")
        return SparseMatrix.identity(self.rows)

    def ring_zero(self) -> "SparseMatrix":
        return SparseMatrix.zeros(self.rows, self.cols)

    def _dense_text(self) -> list[list[str]]:
        """The canonical scalar text of every cell; absent cells read "0"."""
        dense = [["0"] * self.cols for _ in range(self.rows)]
        if len(self._parts) == 1:
            # Every cell holds one term; equal numerators share one text.
            ((mono, (den, rows)),) = self._parts.items()
            texts: dict[int, str] = {}
            for i, row in rows.items():
                line = dense[i]
                for j, v in row.items():
                    text = texts.get(v)
                    if text is None:
                        text = texts[v] = _join_signed([(v < 0, _term_body(Fraction(v, den), mono, ""))])
                    line[j] = text
            return dense
        for (i, j), terms in self._cells().items():
            dense[i][j] = _join_signed([(c < 0, _term_body(c, mono, "")) for mono, c in terms])
        return dense

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "data": self._dense_text()}

    def to_text(self) -> str:
        return "[" + "; ".join("[" + ", ".join(row) + "]" for row in self._dense_text()) + "]"

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def _rational_part(self) -> tuple[int, Rows]:
        """(den, numerators) of a constant-free matrix."""
        if any(mono != () for mono in self._parts):
            raise MatrixError("exact elimination needs plain rational entries")
        return self._parts.get((), (1, {}))

    def rank(self) -> int:
        """Exact rank over the rationals (entries must be constant-free)."""
        return _rank(list(self._rational_part()[1].values()))

    def inverse(self) -> "SparseMatrix":
        """Exact inverse of a square rational matrix."""
        if self.rows != self.cols:
            raise MatrixError("inverse of a non-square matrix")
        n = self.rows
        den, rows = self._rational_part()
        # Fraction-free Gauss-Jordan on [N | I]; M^-1 = den * N^-1.
        aug = [{**rows.get(i, {}), n + i: 1} for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if col in aug[r]), None)
            if pivot is None:
                raise MatrixError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            prow = aug[col]
            p = prow[col]
            for r in range(n):
                f = aug[r].get(col)
                if r != col and f:
                    aug[r] = _primitive(_row_comb(aug[r], p, prow, -f))
        return SparseMatrix(n, n, [
            (i, j - n, Fraction(den * v, aug[i][i])) for i in range(n) for j, v in aug[i].items() if j >= n
        ])


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Kronecker product with row-major index convention."""
    parts: dict = {}
    for ma, (da, arows) in a._parts.items():
        for mb, (db, brows) in b._parts.items():
            rows: Rows = {}
            for i, arow in arows.items():
                for j, brow in brows.items():
                    rows[i * b.rows + j] = {
                        k * b.cols + l: x * y for k, x in arow.items() for l, y in brow.items()
                    }
            _accumulate(parts, _mono_mul(ma, mb), da * db, rows)
    return SparseMatrix._of(a.rows * b.rows, a.cols * b.cols, _reduced(parts))


def minimal_polynomial(matrix: SparseMatrix) -> list[Fraction]:
    """Monic minimal polynomial coefficients (constant term first).

    Found by Krylov iteration on the flattened powers of the matrix: the
    first linear dependence among 1, M, M^2, ... gives the polynomial.
    Each reduced vector ``vec`` is kept as an integer combination
    ``sum comb[j] * M^j`` of the powers.
    """
    if matrix.rows != matrix.cols:
        raise MatrixError("minimal polynomial of a non-square matrix")
    matrix._rational_part()  # refuses formal constants before any work
    n = matrix.rows
    basis: list[tuple[int, dict[int, int], dict[int, int]]] = []
    power = SparseMatrix.identity(n)
    k = 0
    while True:
        den, rows = power._rational_part()
        vec = {i * n + j: v for i, row in rows.items() for j, v in row.items()}
        comb = {k: den}
        for lead, bvec, bcomb in basis:
            f = vec.get(lead)
            if f:
                p = bvec[lead]
                vec = _row_comb(vec, p, bvec, -f)
                comb = _row_comb(comb, p, bcomb, -f)
        if not vec:
            return [Fraction(comb.get(j, 0), comb[k]) for j in range(k + 1)]
        g = gcd(*vec.values(), *comb.values())
        vec = {j: v // g for j, v in vec.items()}
        basis.append((min(vec), vec, {j: v // g for j, v in comb.items()}))
        power = power * matrix
        k += 1
        if k > n:
            raise MatrixError("minimal polynomial search exceeded the dimension")
