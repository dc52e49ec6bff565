"""Tests for truncated series arithmetic over polynomial coefficients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjacobi.deformation import builtin_table
from qjacobi.hseries import HSeries, SeriesError, parse_series
from qjacobi.ncalg import Alphabet, NCPoly, Scalar, parse_poly
from qjacobi.psiengine import compute_psi

AB = Alphabet(("A", "B"))
ONE = NCPoly.one(AB)
ZERO = NCPoly.zero(AB)
A = NCPoly.letter(AB, "A")
B = NCPoly.letter(AB, "B")


def series(*coeffs):
    return HSeries(coeffs)


def test_mul_truncates_to_weakest_order():
    left = series(ONE, A, ZERO)
    right = series(ONE, -A, ZERO)
    assert (left * right).coeffs == (ONE, ZERO, -(A * A))
    short = series(ONE, A) * series(ONE, B)
    assert short.order == 2
    assert short.coeffs == (ONE, A + B)


def test_geometric_identity():
    geo = series(*[ONE] * 5)
    lin = HSeries.constant(ONE, 5) - series(ZERO, ONE, ZERO, ZERO, ZERO)
    assert geo * lin == HSeries.unit(ONE, 5)


def test_series_subtraction():
    a, b = series(ONE, A), series(ONE, B)
    assert (a - b).coeffs == (ZERO, A - B)


def test_invert_geometric_series():
    inv = series(ONE, A, ZERO).invert()
    assert inv.coeffs == (ONE, -A, A * A)


def test_invert_identity():
    assert HSeries.unit(ONE, 4).invert() == HSeries.unit(ONE, 4)


def test_invert_non_unit_constant_term():
    with pytest.raises(SeriesError):
        series(ZERO, A).invert()


def test_exp_of_zero():
    assert HSeries.constant(ZERO, 3).exp() == HSeries.unit(ONE, 3)


def test_exp_expansion_with_formal_constant():
    ipi = Scalar.constant("ipi")
    x = series(ZERO, A.scale(ipi), ZERO)
    expected = series(
        ONE,
        A.scale(ipi),
        (A * A).scale(ipi * ipi * Scalar.rational(1, 2)),
    )
    assert x.exp() == expected


def test_exp_needs_zero_constant_term():
    with pytest.raises(SeriesError):
        series(ONE, A).exp()


def test_truncate():
    s = series(ONE, A, B)
    assert s.truncate(2).coeffs == (ONE, A)
    assert s.truncate(3) == s
    with pytest.raises(SeriesError):
        s.truncate(4)
    with pytest.raises(SeriesError):
        s.truncate(0)


def test_shift_raises_order():
    s = series(A, B)
    shifted = s.shift(2)
    assert shifted.order == 4
    assert shifted.coeffs == (ZERO, ZERO, A, B)


def test_equality_is_strict_and_agrees_with_hash():
    # Orders and coefficients must both agree; comparing modulo h^n
    # means truncating both sides first.
    long = series(ONE, A, B)
    assert series(ONE, A) != long
    assert series(ONE, A) != series(ONE, B, B)
    assert series(ONE, A) == long.truncate(2)
    assert hash(series(ONE, A)) == hash(long.truncate(2))
    assert len({long, long.truncate(2), series(ONE, A)}) == 2
    psi = compute_psi(builtin_table(), 6).psi
    assert psi != psi.truncate(4)
    assert psi.truncate(4) == compute_psi(builtin_table(), 4).psi
    assert len({psi, psi.truncate(4)}) == 2


def test_text_round_trip():
    ipi = Scalar.constant("ipi")
    s = series(ONE, A.scale(ipi) - B, (A * B).scale(Scalar.rational(-5, 7)))
    assert parse_series(s.to_text(), AB) == s
    assert parse_series(s.to_text(), AB).order == s.order
    with pytest.raises(SeriesError):
        parse_series("h^1: 1", AB)


_polys = st.lists(
    st.tuples(st.lists(st.sampled_from(AB.letters), max_size=3).map(tuple), st.integers(-3, 3)),
    max_size=3,
).map(lambda ts: NCPoly(AB, ts))
_series = st.lists(_polys, min_size=1, max_size=5).map(HSeries)


@settings(max_examples=40)
@given(_series, _series, _series)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=30)
@given(_series)
def test_invert_is_two_sided(a):
    u = HSeries((ONE,) + a.coeffs[1:])
    inv = u.invert()
    assert u * inv == HSeries.unit(ONE, u.order)
    assert inv * u == HSeries.unit(ONE, u.order)


@settings(max_examples=30)
@given(_series, _series, st.integers(1, 4))
def test_truncate_commutes_with_mul(a, b, n):
    n = min(n, a.order, b.order)
    assert (a * b).truncate(n) == (a.truncate(n) * b.truncate(n)).truncate(n)


@settings(max_examples=25)
@given(_series)
def test_exp_inverse_matches_ring_inverse(x):
    x0 = HSeries((ZERO,) + x.coeffs[1:])
    assert x0.exp() * (-x0).exp() == HSeries.unit(ONE, x0.order)
    assert (-x0).exp() == x0.exp().invert()


# -- products and inverses against a naive pairwise-sum reference ----------------
#
# The reference builds each output coefficient by adding one ring product
# at a time, the way a series product reads on paper; the series under
# test merge all products of a coefficient in one `dot` call.


def naive_mul(a, b):
    out = []
    for k in range(min(a.order, b.order)):
        acc = a.coeffs[0] * b.coeffs[k]
        for i in range(1, k + 1):
            acc = acc + a.coeffs[i] * b.coeffs[k - i]
        out.append(acc)
    return out


def naive_invert(a):
    one = a.coeffs[0].ring_one()
    inv = [one]
    for k in range(1, a.order):
        acc = a.coeffs[1] * inv[k - 1]
        for j in range(2, k + 1):
            acc = acc + a.coeffs[j] * inv[k - j]
        inv.append(-acc)
    return inv


def _assert_same_coeffs(got, expected):
    assert got.order == len(expected)
    for mine, theirs in zip(got.coeffs, expected):
        assert type(mine) is type(theirs)
        assert mine == theirs
        assert mine.to_text() == theirs.to_text()


_ring_scalars = st.builds(
    lambda p, q, e: Scalar.rational(p, q) * (Scalar.constant("ipi", e) if e else Scalar.one()),
    st.integers(-3, 3),
    st.integers(1, 3),
    st.integers(0, 2),
)


def _combinations(units, max_size=3):
    """Strategy for sums of scalar multiples of products of up to two units."""
    products = st.lists(st.sampled_from(units), min_size=1, max_size=2).map(
        lambda fs: fs[0] if len(fs) == 1 else fs[0] * fs[1]
    )
    return st.lists(st.tuples(products, _ring_scalars), max_size=max_size).map(
        lambda ts: sum((u.scale(c) for u, c in ts), units[0].ring_zero())
    )


def _cdz_units():
    cdz = Alphabet(("C", "D", "Z", "Zinv"))
    return [NCPoly.one(cdz)] + [NCPoly.letter(cdz, x) for x in cdz.letters]


def _classical_units():
    from qjacobi.transport import ClassicalPoly

    return [ClassicalPoly.one(2), ClassicalPoly.atom("sig"), ClassicalPoly.atom("Om")]


def _transport_units():
    from qjacobi.transport import gen, normalize

    sigma, omega = normalize(gen("sigma_h")), normalize(gen("Omega_h"))
    return [sigma.ring_one(), sigma, omega]


def _matrix_units():
    from qjacobi.matrices import SparseMatrix

    return [
        SparseMatrix.identity(2),
        SparseMatrix.from_rows([[0, 1], [0, 0]]),
        SparseMatrix.from_rows([[1, 0], [Fraction(1, 2), -1]]),
        SparseMatrix.from_rows([[0, 0], [Scalar.constant("ipi"), 3]]),
    ]


_RINGS = {
    "ncpoly": _cdz_units,
    "classical": _classical_units,
    "transport": _transport_units,
    "matrix": _matrix_units,
}


@pytest.mark.parametrize("ring", sorted(_RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mul_and_invert_match_naive_reference(ring, data):
    units = _RINGS[ring]()
    coeffs = _combinations(units)
    a = HSeries(data.draw(st.lists(coeffs, min_size=1, max_size=5)))
    b = HSeries(data.draw(st.lists(coeffs, min_size=1, max_size=5)))
    _assert_same_coeffs(a * b, naive_mul(a, b))
    _assert_same_coeffs(a.dot([(a, b), (b, a)]), [x + y for x, y in zip(naive_mul(a, b), naive_mul(b, a))])
    u = HSeries((units[0].ring_one(),) + a.coeffs[1:])
    inv = u.invert()
    _assert_same_coeffs(inv, naive_invert(u))
    assert u * inv == HSeries.unit(units[0], u.order)
    assert inv * u == HSeries.unit(units[0], u.order)


def test_dot_of_no_pairs_is_zero_and_rings_do_not_mix():
    from qjacobi.matrices import SparseMatrix

    s = series(ONE, A)
    assert s.dot([]) == s.ring_zero()
    assert A.dot([]) == ZERO
    assert A.dot([(A, B), (B, A)]) == A * B + B * A
    m = HSeries.constant(SparseMatrix.identity(2), 2)
    # The coefficient ring's own error, as for NCPoly * SparseMatrix.
    with pytest.raises(TypeError):
        s * m
    with pytest.raises(TypeError):
        s.dot([(s, s), (m, m)])


_coeff_scalars = st.builds(
    lambda p, q, e: Scalar.rational(p, q) * (Scalar.constant("ipi", e) if e else Scalar.one()),
    st.integers(-4, 4),
    st.integers(1, 4),
    st.integers(0, 2),
)
_ab_polys = st.lists(
    st.tuples(st.lists(st.sampled_from(AB.letters), max_size=3).map(tuple), _coeff_scalars), max_size=3
).map(lambda ts: NCPoly(AB, ts))
_ab_series = st.integers(1, 4).flatmap(lambda n: st.lists(_ab_polys, min_size=n, max_size=n).map(HSeries))


@settings(max_examples=60, deadline=None)
@given(_ab_series, st.lists(st.tuples(_coeff_scalars | st.integers(-3, 3), _ab_series), max_size=4))
def test_lincomb_matches_repeated_scale_and_add(receiver, pairs):
    got = receiver.lincomb(pairs)
    loop = receiver.ring_zero()
    for c, x in pairs:
        loop = loop + x.scale(c)
    assert got.order == min([receiver.order] + [x.order for _, x in pairs])
    assert got == loop and hash(got) == hash(loop)
    assert receiver.lincomb([]) == receiver.ring_zero()


def test_lincomb_rejects_non_series_terms():
    s = HSeries.unit(ONE, 2)
    with pytest.raises(SeriesError):
        s.lincomb([(1, A)])
