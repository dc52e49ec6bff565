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
reads single entries.  One fraction-free reducer, :func:`_reduce`,
serves every elimination: rank, the minimal polynomial, and the inverse,
which is read off the minimal polynomial.  Every sum (``lincomb``,
``kron`` and ``dot``) groups its terms by result monomial and goes
through one helper, :func:`_sum_parts`: one lcm per monomial, one
kernel pass over its terms, one gcd pass.  :func:`_rows_add` merges the
terms of ``lincomb`` and ``kron`` one term at a time; :func:`_rows_dot`
sums products (every product goes through ``dot``) one output row at a
time, with one integer accumulator per row, so no product matrix is
formed per pair.  The renderers visit only the stored cells.  The tensor
operators built from Lie structure constants are extremely sparse, which
keeps products on the 512-dimensional triple tensor spaces cheap.

Index convention for Kronecker products is row-major: basis vector
i (x) j of a product space sits at position i * dim2 + j.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .ncalg import (
    Monomial,
    Ring,
    Scalar,
    ScalarLike,
    _coefficient,
    _join_signed,
    _mono_mul,
    _sum,
    _term_body,
)

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


# Echelon rows as (lead column, row, combination) triples; each row is
# zero at the leads of the rows before it.
Basis = list[tuple[int, dict[int, int], dict[int, int]]]


def _reduce(basis: Basis, vec: dict[int, int], comb: dict[int, int]) -> dict[int, int] | None:
    """Reduce the integer row ``vec`` against ``basis`` by fraction-free
    row operations, applying each one to ``comb``, the integer
    combination of the inputs that ``vec`` is.

    A nonzero remainder, divided by the gcd of its entries and its
    combination, is appended to ``basis`` and None is returned.  A row
    that reduces to zero returns its combination: an integer linear
    dependence among the inputs.
    """
    for lead, bvec, bcomb in basis:
        f = vec.get(lead)
        if f:
            p = bvec[lead]
            vec = _row_comb(vec, p, bvec, -f)
            comb = _row_comb(comb, p, bcomb, -f)
    if not vec:
        return comb
    g = gcd(*vec.values(), *comb.values())
    if g > 1:
        vec = {j: v // g for j, v in vec.items()}
        comb = {j: v // g for j, v in comb.items()}
    basis.append((min(vec), vec, comb))
    return None


def _rows_dot(terms: list[list]) -> Rows:
    """The integer rows of the sum of ``f * a * b`` over the [f, a, b]
    terms, built one output row at a time, with zero cells dropped.

    Row i has one accumulator, and every term adds its row-i product
    straight into it (Gustavson's row-by-row product, taken over a whole
    sum), so no term's product is stored on its own.  A row is filtered
    only when it holds a zero.
    """
    out: Rows = {}
    for i in dict.fromkeys(i for _, a, _ in terms for i in a):
        acc: dict[int, int] = {}
        get = acc.get
        for f, a, b in terms:
            row = a.get(i)
            if row is None:
                continue
            for k, x in row.items():
                brow = b.get(k)
                if brow is None:
                    continue
                x *= f
                for j, y in brow.items():
                    acc[j] = get(j, 0) + x * y
        if 0 in acc.values():
            acc = {j: v for j, v in acc.items() if v}
        if acc:
            out[i] = acc
    return out


def _rows_add(terms: list[list]) -> Rows:
    """The integer rows of the sum of ``f * rows`` over the [f, rows]
    terms, merged term by term.  A row is lent (shared with its source,
    which never changes) until a second term reaches it, or scaled when f
    is not 1; the first merge copies it, and only merged rows are
    filtered for zeros."""
    f, rows = terms[0]
    out: Rows = dict(rows) if f == 1 else {i: {j: v * f for j, v in row.items()} for i, row in rows.items()}
    merged: set[int] = set()
    for f, rows in terms[1:]:
        for i, row in rows.items():
            mine = out.get(i)
            if mine is None:
                out[i] = row if f == 1 else {j: v * f for j, v in row.items()}
                continue
            if i not in merged:
                merged.add(i)
                mine = out[i] = dict(mine)
            get = mine.get
            for j, v in row.items():
                mine[j] = get(j, 0) + v * f
    for i in merged:
        row = out[i]
        if 0 in row.values():
            row = out[i] = {j: v for j, v in row.items() if v}
            if not row:
                del out[i]
    return out


def _lowest_part(den: int, rows: Rows) -> tuple[int, Rows]:
    """The part ``(den, rows)`` in lowest terms: both divided by the gcd
    of the denominator and every numerator, in one pass that stops at 1."""
    g = den
    for row in rows.values():
        if g == 1:
            break
        g = gcd(g, *row.values())
    if g == 1:
        return den, rows
    return den // g, {i: {j: v // g for j, v in row.items()} for i, row in rows.items()}


def _sum_parts(groups: dict[Monomial, list[tuple[int, list]]], kernel: Callable[[list[list]], Rows]) -> Parts:
    """The parts of a sum whose terms are grouped by result monomial as
    ``(den, [f, rows...])``, each ``f * rows... / den``.  Each monomial
    gets one lcm of its denominators, each factor is scaled to it in
    place, ``kernel`` sums the [f, rows...] terms into integer rows, and
    :func:`_lowest_part` makes one gcd pass; empty parts are dropped."""
    parts: Parts = {}
    for mono, group in groups.items():
        den = lcm(*[d for d, _ in group])
        for d, term in group:
            if d != den:
                term[0] *= den // d
        rows = kernel([term for _, term in group])
        if rows:
            parts[mono] = _lowest_part(den, rows)
    return parts


def _scalar(terms: Iterable[tuple[Monomial, int, int]]) -> Scalar:
    """The scalar of (monomial, numerator, den) terms, one per monomial."""
    return Scalar._of(*_sum([({((), mono): v}, den, 1) for mono, v, den in terms]))


class SparseMatrix(Ring):
    """An immutable exact matrix; zero entries are never stored.

    The parts are set when the matrix is built and never written after,
    so the first ``hash()`` keeps its value in ``_hash``.  A pickle or
    copy leaves it out, since a hash of monomials depends on the
    process's string hash seed.
    """

    __slots__ = ("rows", "cols", "_parts", "_hash")

    def __init__(self, rows: int, cols: int, entries: Iterable[tuple[int, int, ScalarLike]] = ()):
        if rows < 1 or cols < 1:
            raise MatrixError("matrix dimensions must be positive")
        self.rows = rows
        self.cols = cols
        # Each entry's store, one (cell -> numerator, den, 1) term per
        # monomial, summed per monomial.
        groups: dict[Monomial, list] = {}
        for i, j, value in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise MatrixError(f"entry ({i}, {j}) outside {rows}x{cols}")
            nums, den = _coefficient(value)
            for (_, mono), v in nums.items():
                groups.setdefault(mono, []).append(({(i, j): v}, den, 1))
        parts: Parts = {}
        for mono, group in groups.items():
            nums, den = _sum(group)
            if nums:
                data: Rows = {}
                for (i, j), v in nums.items():
                    data.setdefault(i, {})[j] = v
                parts[mono] = (den, data)
        self._parts = parts
        self._hash = None

    @classmethod
    def _of(cls, rows: int, cols: int, parts: Parts) -> "SparseMatrix":
        out = cls.__new__(cls)
        out.rows = rows
        out.cols = cols
        out._parts = parts
        out._hash = None
        return out

    def __getstate__(self):
        return None, {"rows": self.rows, "cols": self.cols, "_parts": self._parts, "_hash": None}

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
        ncols = len(rows[0]) if rows else 0
        entries = []
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise MatrixError("ragged rows")
            entries.extend((i, j, v) for j, v in enumerate(row))
        return cls(nrows, ncols, entries)

    def entry(self, i: int, j: int) -> Scalar:
        return _scalar((mono, v, den) for mono, (den, rows) in self._parts.items() if (v := rows.get(i, {}).get(j)))

    def _cells(self) -> dict[tuple[int, int], list[tuple[Monomial, int, int]]]:
        """Nonzero cells with their (monomial, numerator, den) terms,
        monomials in ascending order."""
        cells: dict[tuple[int, int], list] = {}
        for mono, (den, rows) in sorted(self._parts.items()):
            for i, row in rows.items():
                for j, v in row.items():
                    cells.setdefault((i, j), []).append((mono, v, den))
        return cells

    def items(self):
        for (i, j), terms in self._cells().items():
            yield i, j, _scalar(terms)

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def nnz(self) -> int:
        return len({(i, j) for _, rows in self._parts.values() for i, row in rows.items() for j in row})

    def _same_shape(self, other: "SparseMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def lincomb(self, pairs) -> "SparseMatrix":
        """The sum of ``c * x`` over the (scalar, matrix) pairs, in this
        matrix's shape; the zero matrix when there are none.

        :func:`_sum_parts` gives each monomial one lcm and one gcd pass,
        and :func:`_rows_add` merges its terms, so the cost is the stored
        entries of the terms, not one copy and merge of the growing sum
        per term.
        """
        groups: dict = {}
        for c, x in pairs:
            if not isinstance(x, SparseMatrix):
                raise TypeError("SparseMatrix.lincomb needs SparseMatrix terms")
            self._same_shape(x)
            if not x._parts:
                continue
            fnums, fden = _coefficient(c)
            for (_, fmono), fv in fnums.items():
                for mono, (den, rows) in x._parts.items():
                    groups.setdefault(_mono_mul(mono, fmono), []).append((den * fden, [fv, rows]))
        return SparseMatrix._of(self.rows, self.cols, _sum_parts(groups, _rows_add))

    def dot(self, pairs) -> "SparseMatrix":
        """The sum of ``a * b`` over the (a, b) pairs, brought to lowest
        terms once; the zero matrix of this shape when there are none.

        The part products of the pairs are grouped by their result
        monomial and summed by :func:`_sum_parts` (one lcm and one gcd
        pass per monomial), with :func:`_rows_dot` summing them one output
        row at a time."""
        shape = None
        groups: dict = {}
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
                    groups.setdefault(_mono_mul(ma, mb), []).append((da * db, [1, ra, rb]))
        return SparseMatrix._of(*(shape or (self.rows, self.cols)), _sum_parts(groups, _rows_dot))

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise MatrixError("trace of a non-square matrix")
        return _scalar(
            (mono, sum(row.get(i, 0) for i, row in rows.items()), den) for mono, (den, rows) in self._parts.items()
        )

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self._parts == other._parts

    def __hash__(self):
        if self._hash is None:
            parts = tuple(sorted(
                (mono, den, tuple(sorted((i, tuple(sorted(row.items()))) for i, row in rows.items())))
                for mono, (den, rows) in self._parts.items()
            ))
            self._hash = hash((self.rows, self.cols, parts))
        return self._hash

    def first_difference(self, other: "SparseMatrix"):
        """Smallest (row, col, here, there) where the matrices differ."""
        self._same_shape(other)
        if self._parts == other._parts:
            return None
        diff = (self - other)._parts.values()
        i, j = min((i, j) for _, rows in diff for i, row in rows.items() for j in row)
        return (i, j, self.entry(i, j), other.entry(i, j))

    # Ring protocol used by hseries coefficients.
    def ring_one(self) -> "SparseMatrix":
        if self.rows != self.cols:
            raise MatrixError("identity exists only for square matrices")
        return SparseMatrix.identity(self.rows)

    def ring_zero(self) -> "SparseMatrix":
        return SparseMatrix.zeros(self.rows, self.cols)

    def _cell_texts(self) -> dict[int, dict[int, str]]:
        """The canonical scalar text of every stored cell, row -> column
        -> text."""
        if len(self._parts) == 1:
            # Every cell holds one term; equal numerators share one text: sl3 order-6 Psi 3.7-3.8 ms, not 51.9-53.2.
            ((mono, (den, rows)),) = self._parts.items()
            texts = {
                v: _join_signed([(v < 0, _term_body(Fraction(v, den), mono))])
                for v in {v for row in rows.values() for v in row.values()}
            }
            return {i: {j: texts[v] for j, v in row.items()} for i, row in rows.items()}
        out: dict[int, dict[int, str]] = {}
        for (i, j), terms in self._cells().items():
            out.setdefault(i, {})[j] = _join_signed([
                (v < 0, _term_body(Fraction(v, den), mono)) for mono, v, den in terms
            ])
        return out

    def to_json(self) -> dict:
        """``{"rows", "cols", "data"}``, ``data`` holding each cell's text.

        Empty rows are one shared list; do not modify it.
        """
        empty = ["0"] * self.cols
        data = [empty] * self.rows
        for i, row in self._cell_texts().items():
            line = data[i] = empty.copy()
            for j, text in row.items():
                line[j] = text
        return {"rows": self.rows, "cols": self.cols, "data": data}

    def to_text(self) -> str:
        """``[[a, b]; [c, d]]``, absent cells reading ``0``.

        The cost is in proportion to the stored cells: each row joins its
        cell texts with runs of ``0, `` between them, and every empty row
        is one shared string.
        """
        cols = self.cols
        # Shared runs: without them sl3-eval's peak RSS read 65-68 MB, not 58, on 5 of seeds 1-10.
        runs: dict[int, str] = {}
        lines = ["[" + "0, " * (cols - 1) + "0]"] * self.rows
        for i, row in self._cell_texts().items():
            pieces = ["["]
            at = 0
            for j in sorted(row):
                gap = j - at
                if gap:
                    run = runs.get(gap)
                    if run is None:
                        run = runs[gap] = "0, " * gap
                    pieces.append(run)
                pieces.append(row[j])
                pieces.append(", ")
                at = j + 1
            pieces[-1] = "]" if at == cols else ", " + "0, " * (cols - at - 1) + "0]"
            lines[i] = "".join(pieces)
        return "[" + "; ".join(lines) + "]"

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz()})"

    def _numerators(self) -> tuple[int, Rows]:
        """``(den, rows)`` of a constant-free matrix: integer numerators,
        row -> column -> int, over one positive denominator, in lowest
        terms.  The rows are the matrix's own store; do not modify them."""
        if any(mono != () for mono in self._parts):
            raise MatrixError("exact elimination needs plain rational entries")
        return self._parts.get((), (1, {}))

    def rank(self) -> int:
        """Exact rank over the rationals (entries must be constant-free):
        the size of the echelon basis the numerator rows reduce to."""
        basis: Basis = []
        for row in self._numerators()[1].values():
            _reduce(basis, row, {})
        return len(basis)

    def inverse(self) -> "SparseMatrix":
        """Exact inverse of a square rational matrix, read off its minimal
        polynomial p = c_0 + c_1 x + ... + x^d: the matrix is singular
        exactly when c_0 = 0, and otherwise
        M^-1 = -(c_1 + c_2 M + ... + c_d M^(d-1)) / c_0."""
        if self.rows != self.cols:
            raise MatrixError("inverse of a non-square matrix")
        coeffs, powers = _krylov(self)
        c0 = coeffs[0]
        if not c0:
            raise MatrixError("matrix is singular")
        return self.lincomb((-c / c0, power) for c, power in zip(coeffs[1:], powers) if c)


def kron(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Kronecker product with row-major index convention: the block of each
    pair of parts is one :func:`_rows_add` term of :func:`_sum_parts`."""
    groups: dict = {}
    for ma, (da, arows) in a._parts.items():
        for mb, (db, brows) in b._parts.items():
            rows: Rows = {}
            for i, arow in arows.items():
                for j, brow in brows.items():
                    rows[i * b.rows + j] = {
                        k * b.cols + l: x * y for k, x in arow.items() for l, y in brow.items()
                    }
            groups.setdefault(_mono_mul(ma, mb), []).append((da * db, [1, rows]))
    return SparseMatrix._of(a.rows * b.rows, a.cols * b.cols, _sum_parts(groups, _rows_add))


def minimal_polynomial(matrix: SparseMatrix) -> list[Fraction]:
    """Monic minimal polynomial coefficients (constant term first)."""
    return _krylov(matrix)[0]


def _krylov(matrix: SparseMatrix) -> tuple[list[Fraction], list[SparseMatrix]]:
    """The minimal polynomial's coefficients and the powers M^0 .. M^deg
    formed to find it, so that a caller can evaluate the polynomial at M
    without multiplying them out again.

    Found by Krylov iteration on the flattened powers of the matrix: the
    first linear dependence among 1, M, M^2, ... gives the polynomial.
    Each power goes once through :func:`_reduce`, the reducer that rank
    uses too, which keeps every reduced vector as an integer combination
    ``sum comb[j] * M^j`` of the powers; :meth:`SparseMatrix.inverse`
    reads the inverse off the polynomial and these powers.
    """
    if matrix.rows != matrix.cols:
        raise MatrixError("minimal polynomial of a non-square matrix")
    matrix._numerators()  # refuses formal constants before any work
    n = matrix.rows
    basis: Basis = []
    powers = [SparseMatrix.identity(n)]
    while True:
        k = len(basis)
        den, rows = powers[k]._numerators()
        vec = {i * n + j: v for i, row in rows.items() for j, v in row.items()}
        comb = _reduce(basis, vec, {k: den})
        if comb is not None:
            return [Fraction(comb.get(j, 0), comb[k]) for j in range(k + 1)], powers
        if k == n:
            raise MatrixError("minimal polynomial search exceeded the dimension")
        powers.append(powers[k] * matrix)
