"""Tests for truncated series arithmetic over polynomial coefficients."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjacobi.hseries import HSeries, SeriesError, parse_series
from qjacobi.ncalg import Alphabet, NCPoly, Scalar, parse_poly

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


def test_equality_modulo_min_order():
    assert series(ONE, A) == series(ONE, A, B)
    assert series(ONE, A) != series(ONE, B, B)


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
