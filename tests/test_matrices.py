"""Tests for exact sparse matrices."""

from copy import deepcopy
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qjacobi.matrices import MatrixError, SparseMatrix, kron, minimal_polynomial
from qjacobi.ncalg import Scalar


def test_identity_and_product():
    m = SparseMatrix.from_rows([[1, 2], [3, 4]])
    assert m * SparseMatrix.identity(2) == m
    sq = m * m
    assert sq == SparseMatrix.from_rows([[7, 10], [15, 22]])


def test_rectangular_product_and_shapes():
    a = SparseMatrix.from_rows([[1, 0, 2]])
    b = SparseMatrix.from_rows([[1], [0], [5]])
    assert (a * b).entry(0, 0) == Scalar.rational(11)
    with pytest.raises(MatrixError):
        b * b


def test_kron_row_major_convention():
    a = SparseMatrix.from_rows([[0, 1], [2, 0]])
    b = SparseMatrix.identity(2)
    k = kron(a, b)
    assert k.rows == 4
    # (i, j) block layout: entry a[0][1] lands at rows 0..1, cols 2..3.
    assert k.entry(0, 2) == Scalar.one()
    assert k.entry(1, 3) == Scalar.one()
    assert k.entry(2, 0) == Scalar.rational(2)


def test_scale_with_formal_constant():
    m = SparseMatrix.identity(2).scale(Scalar.constant("ipi"))
    assert m.entry(0, 0) == Scalar.constant("ipi")
    assert (m * m).entry(1, 1) == Scalar.constant("ipi", 2)


def test_scalar_multiplication_commutes_across_operand_order():
    m = SparseMatrix.from_rows([[1, 2], [3, 4]])
    s = Scalar.rational(1, 3)
    assert s * m == m * s == m.scale(s)
    assert 2 * m == m * 2


@pytest.mark.parametrize("rows", [[[]], []])
def test_from_rows_refuses_empty_shapes(rows):
    with pytest.raises(MatrixError, match="matrix dimensions must be positive"):
        SparseMatrix.from_rows(rows)


def test_rank_exact():
    m = SparseMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert SparseMatrix.identity(5).rank() == 5
    assert SparseMatrix.zeros(3, 3).rank() == 0


def test_rank_requires_rational_entries():
    m = SparseMatrix(1, 1, [(0, 0, Scalar.constant("ipi"))])
    with pytest.raises(MatrixError):
        m.rank()


def test_inverse():
    m = SparseMatrix.from_rows([[2, 1], [1, 1]])
    inv = m.inverse()
    assert m * inv == SparseMatrix.identity(2)
    assert inv * m == SparseMatrix.identity(2)
    with pytest.raises(MatrixError):
        SparseMatrix.from_rows([[1, 1], [1, 1]]).inverse()


def test_first_difference():
    a = SparseMatrix.identity(3)
    b = SparseMatrix(3, 3, [(0, 0, 1), (1, 1, 1), (2, 2, 2)])
    assert a.first_difference(b) == (2, 2, Scalar.one(), Scalar.rational(2))
    assert a.first_difference(SparseMatrix.identity(3)) is None


def test_minimal_polynomial_of_projector():
    # p^2 = p, so the minimal polynomial is x^2 - x.
    p = SparseMatrix.from_rows([[1, 0], [0, 0]])
    assert minimal_polynomial(p) == [Fraction(0), Fraction(-1), Fraction(1)]
    assert minimal_polynomial(SparseMatrix.identity(4)) == [Fraction(-1), Fraction(1)]


def test_json_round_trip_shape():
    m = SparseMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
    doc = m.to_json()
    assert doc["data"][0][0] == "1/2"
    assert doc["rows"] == doc["cols"] == 2


def test_equal_matrices_hash_equal_across_entry_types():
    from_ints = SparseMatrix.from_rows([[1, 0], [2, 3]])
    from_fractions = SparseMatrix.from_rows([[Fraction(2, 2), Fraction(0)], [Fraction(4, 2), Fraction(3)]])
    from_scalars = SparseMatrix(
        2, 2, [(0, 0, Scalar.one()), (1, 0, Scalar.rational(2)), (1, 1, Scalar.rational(3))]
    )
    # Duplicate cells add up and explicit zeros are dropped.
    merged = SparseMatrix(
        2, 2, [(0, 0, Fraction(1, 2)), (1, 0, 2), (0, 0, Scalar.rational(1, 2)), (1, 1, 3), (0, 1, 0)]
    )
    assert from_ints == from_fractions == from_scalars == merged
    assert len({from_ints, from_fractions, from_scalars, merged}) == 1


def test_equal_products_hash_equal_across_product_orders():
    a = SparseMatrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(2, 3)]])
    b = SparseMatrix.from_rows([[3, Fraction(1, 4)], [Fraction(-1, 6), 1]]).scale(Scalar.constant("ipi"))
    c = SparseMatrix.from_rows([[1, 1], [Fraction(1, 5), 0]])
    left, right = (a * b) * c, a * (b * c)
    assert left == right and hash(left) == hash(right)
    assert (a * b).scale(2) == a * b.scale(2) == (a.scale(2) * b)
    assert hash((a * b).scale(2)) == hash(a * b.scale(2))


# -- the integer kernel against a naive dense Scalar reference -----------------


def dense(m: SparseMatrix) -> list[list[Scalar]]:
    return [[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)]


def ref_add(a, b, sign=1):
    return [[x + y * sign for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_mul(a, b):
    inner = range(len(b))
    return [
        [sum((a[i][k] * b[k][j] for k in inner), Scalar.zero()) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def ref_scale(a, s):
    return [[x * s for x in row] for row in a]


def ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def transposed(m):
    """The transpose of ``m``, built from its stored cells."""
    return SparseMatrix(m.cols, m.rows, [(j, i, v) for i, j, v in m.items()])


def ref_trace(a):
    return sum((a[i][i] for i in range(len(a))), Scalar.zero())


_fracs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_monos = st.sampled_from([(), (("ipi", 1),), (("ipi", 2),)])
_scalars = st.lists(st.tuples(_monos, _fracs), min_size=1, max_size=2).map(lambda ts: Scalar(dict(ts)))
_values = st.one_of(st.integers(-3, 3), _fracs, _scalars)


@st.composite
def _matrices(draw, rows=None, cols=None, values=_values):
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), values)
    return SparseMatrix(rows, cols, draw(st.lists(cells, max_size=rows * cols + 2)))


@st.composite
def _pairs(draw, same_shape):
    a = draw(_matrices())
    rows, cols = (a.rows, a.cols) if same_shape else (a.cols, draw(st.integers(1, 4)))
    return a, draw(_matrices(rows, cols))


@settings(max_examples=80, deadline=None)
@given(_pairs(same_shape=True), _scalars)
def test_kernel_linear_ops_match_reference(pair, s):
    a, b = pair
    da, db = dense(a), dense(b)
    assert dense(a + b) == ref_add(da, db)
    assert dense(a - b) == ref_add(da, db, -1)
    assert dense(-a) == ref_scale(da, Scalar.rational(-1))
    assert dense(a.scale(s)) == ref_scale(da, s)
    _assert_canonical(-a)
    _assert_canonical(a.scale(s))
    assert (a == b) == (da == db)
    assert a + b - b == a
    assert hash(a + b - b) == hash(a)
    assert (a - a).is_zero
    if a.rows == a.cols:
        assert a.trace() == ref_trace(da)
    # Sums lend their terms' rows; no sum may change a store it lent.
    before = [(m, deepcopy(m._parts), hash(m)) for m in (a, b)]
    x = a + b
    for y in (x + b, x.scale(2), -x, kron(x, b)):
        _assert_canonical(y)
    assert all(m._parts == parts and hash(m) == key for m, parts, key in before)


@settings(max_examples=80, deadline=None)
@given(_pairs(same_shape=False), _matrices())
def test_kernel_products_match_reference(pair, c):
    a, b = pair
    da, db = dense(a), dense(b)
    product = a * b
    assert dense(product) == ref_mul(da, db)
    assert product.nnz() == sum(1 for row in ref_mul(da, db) for x in row if not x.is_zero)
    assert dense(kron(a, c)) == ref_kron(da, dense(c))
    _assert_canonical(kron(a, c))
    _assert_canonical(product)
    assert {(i, j): v for i, j, v in product.items()} == {
        (i, j): v for i, row in enumerate(ref_mul(da, db)) for j, v in enumerate(row) if not v.is_zero
    }
    # Pairs over different denominators merge into one sum.
    third = a.scale(Fraction(1, 3))
    assert dense(a.dot([(a, b), (third, b)])) == ref_add(ref_mul(da, db), ref_mul(dense(third), db))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: _matrices(n, n)), st.data())
def test_elimination_refuses_formal_constants(m, data):
    i = data.draw(st.integers(0, m.rows - 1))
    j = data.draw(st.integers(0, m.cols - 1))
    with_constant = m + SparseMatrix(m.rows, m.cols, [(i, j, Scalar.constant("ipi") - m.entry(i, j))])
    for call in (SparseMatrix.rank, SparseMatrix.inverse, minimal_polynomial):
        with pytest.raises(MatrixError):
            call(with_constant)


# -- elimination against a plain Fraction Gaussian elimination ----------------


def ref_fractions(m: SparseMatrix) -> list[list[Fraction]]:
    return [[m.entry(i, j).as_fraction() for j in range(m.cols)] for i in range(m.rows)]


def ref_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Gauss-Jordan over Fractions, with the
    pivot columns."""
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def ref_rank(rows: list[list[Fraction]]) -> int:
    return len(ref_echelon(rows)[1])


def ref_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Gauss-Jordan on [A | I]; None when A is singular."""
    n = len(rows)
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    reduced, pivots = ref_echelon(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def _conjugated(m: SparseMatrix) -> SparseMatrix:
    """S M S^-1 for an integer S with ones on and above the diagonal."""
    n = m.rows
    s = SparseMatrix(n, n, [(i, j, 1) for i in range(n) for j in range(i, n)])
    return s * m * SparseMatrix.from_rows(ref_inverse(ref_fractions(s)))


_rationals = st.one_of(st.integers(-3, 3), _fracs)


@st.composite
def _rational_matrices(draw):
    """Square and rectangular rational matrices; half are products
    through an inner dimension of at most 3, so rank deficiency is
    common."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return draw(_matrices(rows, cols, _rationals))
    inner = draw(st.integers(1, 3))
    return draw(_matrices(rows, inner, _rationals)) * draw(_matrices(inner, cols, _rationals))


# Nilpotent Jordan blocks, and a repeated eigenvalue inside a 2x2 Jordan
# block beside a 1x1 block of the same eigenvalue (characteristic
# polynomial (x - 2)^3, minimal polynomial (x - 2)^2), also conjugated
# so that no entry sits where the blocks put it.
_REPEATED = SparseMatrix.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, 2]])
_h = Fraction(-1, 2)
_JORDAN = [SparseMatrix(n, n, [(i, i + 1, 1) for i in range(n - 1)]) for n in (1, 2, 3, 4)] + [
    _REPEATED,
    _conjugated(_REPEATED),
    SparseMatrix.from_rows([[_h, 1, 0, 0], [0, _h, 0, 0], [0, 0, _h, 1], [0, 0, 0, _h]]),
    _conjugated(SparseMatrix.from_rows([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3]])),
]


def _with_examples(test):
    for m in _JORDAN:
        test = example(m)(test)
    return test


@settings(max_examples=120, deadline=None)
@given(_rational_matrices())
@_with_examples
def test_rational_elimination_is_consistent(m):
    rows = ref_fractions(m)
    rank = ref_rank(rows)
    assert m.rank() == rank == transposed(m).rank()
    if m.rows != m.cols:
        for call in (SparseMatrix.inverse, minimal_polynomial):
            with pytest.raises(MatrixError):
                call(m)
        return
    n = m.rows
    eye = SparseMatrix.identity(n)
    coeffs = minimal_polynomial(m)
    assert coeffs[-1] == 1
    acc, power = SparseMatrix.zeros(n, n), eye
    for c in coeffs:
        acc, power = acc + power.scale(c), power * m
    assert acc.is_zero
    # Minimal: the degree is the number of independent powers among
    # I, M, ..., M^n, flattened to rows.
    flat, power = [], dense(eye)
    for _ in range(n + 1):
        flat.append([x.as_fraction() for row in power for x in row])
        power = ref_mul(power, rows)
    assert len(coeffs) - 1 == ref_rank(flat)
    inverse = ref_inverse(rows)
    assert (inverse is None) == (rank < n) == (coeffs[0] == 0)
    if inverse is None:
        with pytest.raises(MatrixError, match="singular"):
            m.inverse()
    else:
        got = m.inverse()
        assert ref_fractions(got) == inverse
        assert m * got == eye == got * m


def test_eval_series_matches_word_by_word_dense_evaluation():
    from qjacobi.deformation import builtin_table
    from qjacobi.liealg import build_algebra, build_tensor_ops, eval_series
    from qjacobi.psiengine import compute_psi

    ops = build_tensor_ops(build_algebra("sl2"))
    eye3 = SparseMatrix.identity(3)
    letters = {"O12": dense(kron(ops.Omega, eye3)), "O23": dense(kron(eye3, ops.Omega))}
    n = 27
    eye = [[Scalar.rational(int(i == j)) for j in range(n)] for i in range(n)]
    psi = compute_psi(builtin_table(), 6).psi
    evaluated = eval_series(psi, ops)
    for coeff, got in zip(psi.coeffs, evaluated.coeffs):
        acc = [[Scalar.zero()] * n for _ in range(n)]
        for word, scal in coeff.sorted_terms():
            prod = eye
            for letter in word:
                prod = ref_mul(prod, letters[letter])
            acc = ref_add(acc, ref_scale(prod, scal))
        assert dense(got) == acc


# -- lincomb: one merge for a whole linear combination -------------------------


def _assert_canonical(m: SparseMatrix):
    """Every part in lowest terms, with no zero numerator or empty row."""
    for den, rows in m._parts.values():
        assert rows and den > 0
        nums = [v for row in rows.values() for v in row.values()]
        assert all(row for row in rows.values()) and all(type(v) is int and v for v in nums)
        assert gcd(den, *nums) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_lincomb_matches_reference_and_repeated_scale_and_add(rows, cols, data):
    terms = data.draw(st.lists(st.tuples(_values, _matrices(rows, cols)), max_size=5))
    receiver = data.draw(_matrices(rows, cols))
    got = receiver.lincomb(terms)
    ref = dense(SparseMatrix.zeros(rows, cols))
    loop = SparseMatrix.zeros(rows, cols)
    for c, x in terms:
        ref = ref_add(ref, ref_scale(dense(x), Scalar.coerce(c)))
        loop = loop + x.scale(c)
    assert dense(got) == ref
    assert got == loop and hash(got) == hash(loop)
    _assert_canonical(got)
    assert receiver.lincomb([]) == receiver.ring_zero()
    assert receiver.lincomb(iter(terms)) == got


def test_lincomb_checks_its_terms():
    m = SparseMatrix.identity(2)
    with pytest.raises(MatrixError, match="shape mismatch"):
        m.lincomb([(1, m), (1, SparseMatrix.identity(3))])
    with pytest.raises(TypeError):
        m.lincomb([(1, 1)])


# -- dot: a whole sum of products, row by row ----------------------------------

_two_constants = st.lists(
    st.tuples(st.sampled_from([(), (("ipi", 1),), (("ipi", 1), ("zeta", 1)), (("zeta", 2),)]), _fracs),
    min_size=1,
    max_size=2,
).map(lambda ts: Scalar(dict(ts)))


@st.composite
def _dot_pairs(draw):
    """(rows, cols, pairs): 0-5 pairs whose products are rows x cols,
    with an inner size drawn per pair, and perhaps, after them, the
    negation of one pair restricted to some rows of its left factor,
    which cancels those rows of its product (with every row kept, the
    whole product)."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = st.one_of(_values, _two_constants)
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        inner = draw(st.integers(1, 4))
        pairs.append((draw(_matrices(rows, inner, values)), draw(_matrices(inner, cols, values))))
    if pairs and draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
        keep = draw(st.sets(st.integers(0, rows - 1)))
        part = SparseMatrix(rows, a.cols, [(i, j, v) for i, j, v in a.items() if i in keep])
        pairs.append((-part, b))
    return rows, cols, pairs


@settings(max_examples=120, deadline=None)
@given(_dot_pairs())
@example((2, 2, [(SparseMatrix.identity(2).scale(Scalar.constant("ipi")), SparseMatrix.identity(2))] * 2))
@example((2, 1, [
    (SparseMatrix.from_rows([[Fraction(1, 2), 1], [Scalar.constant("ipi"), 0]]), SparseMatrix.from_rows([[3], [1]])),
    (SparseMatrix.from_rows([[Fraction(-1, 2), -1], [0, 0]]), SparseMatrix.from_rows([[3], [1]])),
]))
@example((3, 3, [(SparseMatrix.identity(3), SparseMatrix.identity(3)), (-SparseMatrix.identity(3), SparseMatrix.identity(3))]))
def test_dot_matches_dense_sum_and_repeated_products(case):
    rows, cols, pairs = case
    receiver = SparseMatrix.zeros(rows, cols)
    got = receiver.dot(pairs)
    ref = dense(receiver)
    loop = receiver
    for a, b in pairs:
        ref = ref_add(ref, ref_mul(dense(a), dense(b)))
        loop = loop + a * b
    assert (got.rows, got.cols) == (rows, cols)
    assert dense(got) == ref
    assert got == loop and hash(got) == hash(loop)
    _assert_canonical(got)
    assert receiver.dot(iter(pairs)) == got


def test_dot_checks_its_pairs():
    m = SparseMatrix.identity(2)
    wide = SparseMatrix(2, 3)
    assert m.dot([]) == m.ring_zero() and wide.dot([]) == SparseMatrix.zeros(2, 3)
    assert m.dot([(wide, SparseMatrix(3, 1))]) == SparseMatrix.zeros(2, 1)
    with pytest.raises(TypeError, match="SparseMatrix.dot needs SparseMatrix operands"):
        m.dot([(m, 1)])
    with pytest.raises(MatrixError, match="cannot compose 2x3 with 2x2"):
        m.dot([(wide, m)])
    with pytest.raises(MatrixError, match="cannot add a 2x3 product to 2x2"):
        m.dot([(m, m), (m, wide)])
    # A pair that neither composes nor fits the sum reports the composition.
    with pytest.raises(MatrixError, match="cannot compose 2x3 with 2x2"):
        m.dot([(m, m), (wide, m)])


# -- the renderers against the dense reference ---------------------------------


def ref_dense_text(m: SparseMatrix) -> list[list[str]]:
    """The dense renderer: the scalar text of every one of the rows x
    cols cells, absent cells reading "0"."""
    return [[m.entry(i, j).to_text() for j in range(m.cols)] for i in range(m.rows)]


def ref_to_text(m: SparseMatrix) -> str:
    return "[" + "; ".join("[" + ", ".join(row) + "]" for row in ref_dense_text(m)) + "]"


_text_monos = st.sampled_from(
    [(), (("ipi", 1),), (("ipi", 2),), (("zeta", 1),), (("ipi", 1), ("zeta", 1))]
)
_text_scalars = st.lists(st.tuples(_text_monos, _fracs), min_size=1, max_size=3).map(lambda ts: Scalar(dict(ts)))


@st.composite
def _rendered(draw):
    """Zero, 1x1 and rectangular matrices whose rows are empty, full or
    partly filled; entries are negative and fractional rationals, or
    cells mixing ipi^k and zeta terms, and a whole matrix may carry one
    constant monomial."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    values = draw(st.sampled_from([st.integers(-12, 12), _fracs, _text_scalars]))
    entries = []
    for i in range(rows):
        kind = draw(st.sampled_from(["empty", "full", "some"]))
        if kind == "empty":
            continue
        columns = range(cols) if kind == "full" else draw(st.sets(st.integers(0, cols - 1)))
        entries += [(i, j, draw(values)) for j in columns]
    m = SparseMatrix(rows, cols, entries)
    constant = draw(st.sampled_from([None, Scalar.constant("ipi", 2), Scalar.constant("zeta", coeff=-3)]))
    return m if constant is None else m.scale(constant)


@settings(max_examples=150, deadline=None)
@given(_rendered())
def test_renderers_match_dense_reference(m):
    assert m.to_text() == ref_to_text(m)
    assert m.to_json() == {"rows": m.rows, "cols": m.cols, "data": ref_dense_text(m)}


def test_json_data_matches_dense_reference():
    # Empty rows share one list, and a filled row is its own copy of it.
    import random

    rng = random.Random(3)
    sparse = SparseMatrix(6, 5, [(rng.randrange(6), rng.randrange(5), rng.randint(-4, 4)) for _ in range(7)])
    for m in (SparseMatrix.zeros(4, 3), SparseMatrix.identity(4), sparse):
        assert m.to_json()["data"] == ref_dense_text(m)


def test_renderers_on_edge_shapes():
    assert SparseMatrix.zeros(1, 1).to_text() == "[[0]]"
    assert SparseMatrix.zeros(2, 3).to_text() == "[[0, 0, 0]; [0, 0, 0]]"
    cell = SparseMatrix(1, 1, [(0, 0, Scalar.constant("zeta") - Scalar.constant("ipi", 2, Fraction(1, 2)))])
    assert cell.to_text() == "[[- 1/2*ipi^2 + zeta]]" == ref_to_text(cell)
    row = SparseMatrix(1, 4, [(0, 1, -1), (0, 3, Fraction(2, 3))])
    assert row.to_text() == "[[0, - 1, 0, 2/3]]" == ref_to_text(row)
    assert transposed(row).to_json()["data"] == [["0"], ["- 1"], ["0"], ["2/3"]]
