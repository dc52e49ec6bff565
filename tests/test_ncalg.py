"""Tests for exact scalars, words and noncommutative polynomials."""

from fractions import Fraction
from math import gcd

import pytest
from helpers import ReferenceScalar, reference_split_signed_terms
from hypothesis import given, settings
from hypothesis import strategies as st

from qjacobi.matrices import SparseMatrix
from qjacobi.ncalg import (
    Alphabet,
    Kept,
    NCPoly,
    Scalar,
    ScalarError,
    WordError,
    WordEvaluator,
    _echo,
    _split_signed_terms,
    commutator,
    parse_poly,
    parse_scalar,
    substitute,
)
from qjacobi.transport import TransportElement, gen, normalize, q_obj

AB = Alphabet(("A", "B"))
CDZ = Alphabet(("C", "D", "Z", "Zinv"))


def poly(text, alphabet=AB, constants=("ipi",)):
    return parse_poly(text, alphabet, constants)


# -- scalars ----------------------------------------------------------------

def test_rational_addition():
    assert Scalar.rational(1, 2) + Scalar.rational(1, 3) == Scalar.rational(5, 6)


def test_monomial_product():
    a = Scalar.constant("ipi", coeff=2)
    b = Scalar.constant("ipi", coeff=3)
    assert a * b == Scalar.constant("ipi", exponent=2, coeff=6)


def test_division_by_zero_fails():
    with pytest.raises(ScalarError):
        Scalar.one() / Scalar.zero()


def test_division_by_formal_constant_fails():
    with pytest.raises(ScalarError):
        Scalar.one() / Scalar.constant("ipi")


def test_scalar_division_exact():
    assert Scalar.rational(5, 6) / Scalar.rational(5, 3) == Scalar.rational(1, 2)
    assert Scalar.constant("ipi", coeff=4) / 2 == Scalar.constant("ipi", coeff=2)


def test_scalar_text_round_trip():
    s = Scalar.rational(1, 2) + Scalar.constant("ipi", 2, Fraction(-3, 4))
    assert s.to_text() == "1/2 - 3/4*ipi^2"
    assert parse_scalar(s.to_text()) == s
    assert parse_scalar("0") == Scalar.zero()


@pytest.mark.parametrize(
    "body",
    ["\u0661/24*A.B", "1/\u0662\u0664*A.B", "\uff12*A.B", "ipi^\u0662*A.B", "ipi^0*A.B", "zeta^00*A.B"],
    ids=["arabic-indic-numerator", "arabic-indic-denominator", "fullwidth", "arabic-indic-exponent",
         "zero-exponent", "zero-exponent-padded"],
)
def test_grammar_reads_ascii_digits_and_exponents_of_at_least_one(body):
    # Each once parsed: \d matches any Unicode digit and int() reads it,
    # and exponent 0 reached Scalar, which refuses it with ScalarError.
    with pytest.raises(WordError):
        parse_poly(f"{body} - B.A", AB, ("ipi", "zeta"))
    with pytest.raises(WordError):
        parse_scalar(body.replace("*A.B", ""), ("ipi", "zeta"))


def test_scalar_no_zero_terms_stored():
    s = Scalar.constant("ipi") - Scalar.constant("ipi")
    assert s.is_zero and s == Scalar.zero()


def test_equal_scalars_and_numbers_hash_equal():
    assert Scalar.one() == 1 and hash(Scalar.one()) == hash(1)
    assert Scalar.zero() == 0 and hash(Scalar.zero()) == hash(0)
    half = Scalar.rational(3, 6)
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({Scalar.rational(2), 2, Fraction(4, 2)}) == 1
    ipi = Scalar.constant("ipi") + 1
    assert hash(ipi) == hash(Scalar.one() + Scalar.constant("ipi"))


def test_a_constant_named_twice_is_one_factor():
    twice = Scalar({(("ipi", 1), ("ipi", 1)): 1})
    squared = Scalar.constant("ipi", 2)
    assert twice == squared and hash(twice) == hash(squared)
    assert twice.to_text() == "ipi^2"
    assert parse_scalar(twice.to_text()) == twice
    # The rule has three entry points: the checked constructor, products
    # of monomials and parsed text, where a constant may repeat too.
    c, ipi = Scalar.constant("c"), Scalar.constant("ipi")
    a, b = NCPoly.letter(AB, "A"), NCPoly.letter(AB, "B")
    values = [
        Scalar({(("c", 1), ("ipi", 1), ("c", 2)): 1}),
        c * ipi * c * c,
        Scalar.constant("c", 2) * ipi * c,
        parse_scalar("c*ipi*c^2", ("c", "ipi")),
        parse_poly("c*ipi*c^2*A.B", AB, ("c", "ipi")).coeff(("A", "B")),
        (a.scale(c) * b.scale(ipi * c * c)).coeff(("A", "B")),
    ]
    for value in values:
        assert (value, value.to_text(), hash(value)) == (values[0], "c^3*ipi", hash(values[0]))
    assert parse_poly("c*ipi*c^2*A.B", AB, ("c", "ipi")).to_text() == "c^3*ipi*A.B"


@pytest.mark.parametrize(
    "text, message",
    [
        ("2*A", "unknown factor 'A'"),
        ("2**A", "malformed term '2**A'"),
        ("1/0", "zero denominator in '1/0'"),
        ("", "empty expression"),
    ],
)
def test_parse_scalar_refuses_text_with_the_polynomial_readers_errors(text, message):
    # A scalar is read as a polynomial over no letters, so a word factor
    # is an unknown factor as any other word.
    with pytest.raises(WordError) as info:
        parse_scalar(text)
    assert type(info.value) is WordError and str(info.value) == message


def test_an_error_names_an_input_past_80_characters_or_64_bits_by_its_size():
    assert _echo("x" * 80, "term") == repr("x" * 80)
    assert _echo("x" * 81, "term") == "<term of 81 characters>"
    assert _echo(2**64 - 1, "index") == "18446744073709551615"
    assert _echo(2**64, "index") == "<index of 65 bits>"
    named = [_echo(value, "index") for value in (1.5, True, None, [10**5000], {})]
    assert named == ["1.5", "True", "None", "<index of type list>", "<index of type dict>"]


_SEPARATED = st.lists(st.sampled_from([" + ", " - ", "- ", " ", "+", "-", "a", "b", "1", "*", "/", ".", "\t"]))


@settings(max_examples=400, deadline=None)
@given(st.text(" \t\n\r\x0b\x0c\xa0ab+-*/.1^") | _SEPARATED.map("".join))
def test_term_splitter_agrees_with_an_index_scan(text):
    def outcome(split):
        try:
            return split(text)
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(_split_signed_terms) == outcome(reference_split_signed_terms)


def test_floats_are_rejected_at_the_boundary():
    with pytest.raises(ScalarError):
        Scalar({(): 0.5})
    with pytest.raises(ScalarError):
        Scalar.coerce(0.5)


# -- words ------------------------------------------------------------------

def test_word_unknown_letter():
    with pytest.raises(WordError):
        NCPoly.word(CDZ, ("C", "Q"))


def test_words_sort_by_letter_names_not_declared_order():
    ba = Alphabet(("B", "A"))
    p = NCPoly.letter(ba, "B") + NCPoly.letter(ba, "A")
    assert p.to_text() == "A + B"
    assert [w for w, _ in p.sorted_terms()] == [("A",), ("B",)]


# -- polynomials ------------------------------------------------------------

def test_nc_mul_concatenates():
    assert NCPoly.letter(AB, "A") * NCPoly.letter(AB, "B") == poly("A.B")


def test_nc_mul_unit_law():
    p = poly("A.B - B.A")
    assert p * NCPoly.one(AB) == p
    assert NCPoly.one(AB) * p == p


def test_nc_mul_keeps_conjugator_letters():
    # Z and Zinv of alpha's alphabet are plain letters: a product only
    # concatenates.
    from qjacobi.deformation import CDZ_ALPHABET

    left = NCPoly.word(CDZ_ALPHABET, ("C", "Zinv"))
    right = NCPoly.word(CDZ_ALPHABET, ("Z", "D"))
    assert (left * right).to_text() == "C.Zinv.Z.D"


def test_nc_mul_alphabet_mismatch():
    with pytest.raises(WordError):
        NCPoly.letter(AB, "A") * NCPoly.letter(CDZ, "C")


def test_commutator_definition():
    a, b = NCPoly.letter(AB, "A"), NCPoly.letter(AB, "B")
    assert commutator(a, b) == poly("A.B - B.A")
    assert commutator(a, a).is_zero
    # [AB, A] = ABA - AAB, expanded by hand.
    assert commutator(poly("A.B"), a) == poly("A.B.A - A.A.B")


def test_canonical_text_matches_interchange_example():
    p = poly("1/24*A.B") - poly("1/24*B.A")
    assert p.to_text() == "1/24*A.B - 1/24*B.A"


def test_leading_negative_term_rendering():
    p = -poly("1/24*A.B") + poly("1/24*B.A")
    assert p.to_text() == "- 1/24*A.B + 1/24*B.A"
    assert parse_poly(p.to_text(), AB) == p


def test_word_order_length_lexicographic():
    p = poly("B + A.A + A")
    assert p.to_text() == "A + B + A.A"


# -- substitution -----------------------------------------------------------

def test_substitute_word_image():
    p = poly("A.B")
    image = substitute(p, {"A": NCPoly.letter(CDZ, "C"), "B": NCPoly.word(CDZ, ("Zinv", "D", "Z"))})
    assert image == NCPoly.word(CDZ, ("C", "Zinv", "D", "Z"))


def test_substitute_kills_commutator():
    p = commutator(NCPoly.letter(AB, "A"), NCPoly.letter(AB, "B"))
    x = NCPoly.word(CDZ, ("C", "D"))
    assert substitute(p, {"A": x, "B": x}).is_zero


def test_substitute_missing_image():
    with pytest.raises(WordError):
        substitute(poly("A.B"), {"A": NCPoly.letter(CDZ, "C")})


def test_word_evaluator_refuses_a_series_image_not_known_far_enough():
    c, d = NCPoly.letter(CDZ, "C"), NCPoly.letter(CDZ, "D")
    p, h0 = poly("A.B + 2*B"), c * d + d.scale(2)
    series = WordEvaluator(p, {"A": c, "B": [d]}, NCPoly.one(CDZ))
    assert series.extend(0) == [h0]
    with pytest.raises(ValueError, match="image of 'B' has 1 coefficient"):
        series.extend(1)
    assert series.image == [h0]
    # A constant is known at every power of h and is zero past h^0.
    constant = WordEvaluator(p, {"A": c, "B": d}, NCPoly.one(CDZ))
    assert [constant.extend(m) for m in range(3)][-1] == [h0, NCPoly.zero(CDZ), NCPoly.zero(CDZ)]


def test_substitute_identity_on_series():
    from qjacobi.hseries import HSeries

    series = HSeries((NCPoly.one(AB), NCPoly.letter(AB, "A")))
    out = substitute(NCPoly.letter(CDZ, "Z"), {"Z": series})
    assert out == series


# -- property tests ----------------------------------------------------------

_scalars = st.builds(
    lambda p, q, c: Scalar.rational(p, q) + Scalar.constant("ipi", coeff=c),
    st.integers(-4, 4),
    st.integers(1, 5),
    st.integers(-2, 2),
)
_words = st.lists(st.sampled_from(AB.letters), max_size=4).map(tuple)
_polys = st.lists(st.tuples(_words, _scalars), max_size=5).map(lambda ts: NCPoly(AB, ts))


_monomials = st.sampled_from([(), (("ipi", 1),), (("ipi", 2),), (("zeta", 1),), (("ipi", 1), ("zeta", 1))])
_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
_any_scalars = st.dictionaries(_monomials, _fractions, max_size=4).map(Scalar)


@given(_any_scalars, _any_scalars | st.integers(-3, 3) | _fractions, _fractions.filter(bool))
def test_arithmetic_results_are_the_scalars_of_their_terms(a, b, q):
    # Arithmetic builds its results through the core's integer store,
    # without the checks of Scalar(...); each must be the scalar that the
    # checked constructor builds from its terms, its store in lowest terms.
    for result in (a + b, b + a, a - b, b - a, -a, a * b, b * a, a / q, Scalar.coerce(b)):
        rebuilt = Scalar(dict(result.sorted_terms()))
        assert result == rebuilt and hash(result) == hash(rebuilt)
        assert result.to_text() == rebuilt.to_text()
        _assert_lowest(result)


def _outcome(call):
    """What ``call()`` gives: ("value", its result), or the error's class
    and message."""
    try:
        return "value", call()
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _agree(ours, ref):
    """``ours``, a Scalar, reads as ``ref``, a ReferenceScalar, through
    every public read."""
    assert type(ours) is Scalar
    assert ours.sorted_terms() == ref.sorted_terms()
    assert (ours.to_text(), repr(ours)) == (ref.to_text(), repr(ref))
    assert (ours.is_rational, ours.is_zero, bool(ours), ours.constants()) == (
        ref.is_rational, not ref, bool(ref), ref.constants())
    assert _outcome(ours.as_fraction) == _outcome(ref.as_fraction)
    if ref.is_rational:
        q = ref.as_fraction()
        assert ours == q and q == ours and hash(ours) == hash(ref) == hash(q)
        if q.denominator == 1:
            assert ours == q.numerator and hash(ours) == hash(q.numerator)
    # Equal scalars hash equal, whichever path built them.
    again = Scalar(dict(ref.sorted_terms()))
    assert ours == again and hash(ours) == hash(again)
    _assert_lowest(ours)


_numbers = st.integers(-3, 3) | _fractions


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(_monomials, _numbers, max_size=4),
    st.dictionaries(_monomials, _numbers, max_size=4),
    _numbers,
)
def test_scalar_agrees_with_the_fraction_reference(da, db, n):
    # The reference keeps a Fraction per monomial and its own sum,
    # product, division, hash and text; Scalar takes all of them from the
    # integer-store core.  Every operation, with a plain int or Fraction
    # on either side, gives the same scalar or the same error.
    a, b, ra, rb = Scalar(da), Scalar(db), ReferenceScalar(da), ReferenceScalar(db)
    _agree(a, ra)
    _agree(Scalar.coerce(n), ReferenceScalar.coerce(n))
    ops = [
        lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, lambda x, y: x / y,
        lambda x, y: y + x, lambda x, y: y - x, lambda x, y: y * x,
    ]
    for op in ops:
        for y, ry in ((b, rb), (n, n)):
            got, want = _outcome(lambda: op(a, y)), _outcome(lambda: op(ra, ry))
            if got[0] == "value" and want[0] == "value":
                _agree(got[1], want[1])
            else:
                assert got == want
    _agree(-a, -ra)
    assert (a == b) == (ra == rb) and (a == n) == (ra == n) and (n == a) == (n == ra)
    assert (a != n) == (ra != n)


def test_scalar_refuses_as_the_fraction_reference():
    # Each refusal: the same class and message as the reference's.
    ipi = {(("ipi", 1),): 1}
    calls = [
        lambda S: S({(): 0.5}),
        lambda S: S({(("2pi", 1),): 1}),
        lambda S: S({(("ipi", 0),): 1}),
        lambda S: S({(("ipi", -1),): 1}),
        lambda S: S.coerce("1/2"),
        lambda S: S.coerce(0.5),
        lambda S: S({(): 1}) / 0,
        lambda S: S({(): 1}) / Fraction(0),
        lambda S: S({(): 1}) / S(),
        lambda S: S({(): 1}) / S(ipi),
        lambda S: S({(): 1}) / S({(): 1, **ipi}),
        lambda S: S({(): 1}) / "2",
        lambda S: S(ipi).as_fraction(),
    ]
    for call in calls:
        got, want = _outcome(lambda: call(Scalar)), _outcome(lambda: call(ReferenceScalar))
        assert got[0] != "value" and got == want, (got, want)
    # An operand of no ring is a TypeError on both sides.
    for call in (lambda S: S({(): 1}) + "x", lambda S: "x" - S({(): 1}), lambda S: S({(): 1}) * "x",
                 lambda S: 1 / S({(): 2})):
        assert _outcome(lambda: call(Scalar))[0] is _outcome(lambda: call(ReferenceScalar))[0] is TypeError


def test_scalar_refuses_a_float_wherever_it_enters():
    # constant converted its coefficient before the check and int(exp)
    # truncated an exponent: the first three calls gave
    # 3602879701896397/36028797018963968*ipi, ipi^2 and ipi^2, and
    # rational(0.5) raised a bare TypeError.
    coefficient, exponent = "floating point coefficients are not allowed", "floating point exponents are not allowed"
    calls = [
        (lambda: Scalar.constant("ipi", coeff=0.1), coefficient),
        (lambda: Scalar.constant("ipi", 2.5), exponent),
        (lambda: Scalar({(("ipi", 2.5),): 1}), exponent),
        (lambda: Scalar({(("ipi", 2.0),): 1}), exponent),
        (lambda: Scalar.rational(0.5), coefficient),
        (lambda: Scalar.rational(1, 2.0), coefficient),
    ]
    for call, message in calls:
        assert _outcome(call) == (ScalarError, message)
    assert Scalar.constant("ipi", 2, Fraction(1, 10)).sorted_terms() == [((("ipi", 2),), Fraction(1, 10))]


def test_a_pickled_or_copied_scalar_hashes_and_prints_as_the_original():
    import copy
    import pickle

    values = [
        Scalar.zero(), Scalar.rational(2, 9), Scalar.rational(-4), Scalar.constant("ipi", 2, Fraction(-3, 4)) + 1,
        parse_scalar("1/6*c^2*ipi - 5/7", ("c", "ipi")),
    ]
    for x in values:
        key, text = hash(x), x.to_text()
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert type(y) is Scalar and y == x
            assert (hash(y), y.to_text(), repr(y)) == (key, text, repr(x))
            assert y + 1 == x + 1 and y * y == x * x


def test_substitute_evaluates_scalar_images_in_the_scalar_ring():
    # A scalar is a Ring, the combination over no letters, so scalar
    # images are evaluated there: each word is the product of its
    # letters' scalars.
    ipi, half = Scalar.constant("ipi"), Scalar.rational(1, 2)
    p = poly("1/24*A.B - 1/24*B.A + 2*ipi*A.A + 3")
    out = substitute(p, {"A": ipi, "B": half})
    assert type(out) is Scalar
    assert out == 3 + 2 * Scalar.constant("ipi", 3)
    assert out.to_text() == "3 + 2*ipi^3"
    # A mix of scalars and another ring's elements is refused, as any mix.
    with pytest.raises(WordError, match="different rings"):
        substitute(p, {"A": ipi, "B": NCPoly.letter(AB, "A")})
    # A plain number is not a ring element.
    with pytest.raises(WordError, match="not a ring element"):
        substitute(p, {"A": ipi, "B": Fraction(1, 2)})


_ENDOS = (
    lambda: normalize(gen("sigma_h")),
    lambda: normalize(gen("Omega_h")),
    lambda: TransportElement(q_obj(2), q_obj(2), [(1, ())]),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(_words, _any_scalars), max_size=5),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), _any_scalars), max_size=4),
    st.lists(st.tuples(st.integers(0, 2), _any_scalars), min_size=1, max_size=3),
    st.integers(0, 2),
)
def test_store_reads_are_the_scalars_of_their_terms(words, cells, endos, other):
    # Reads of an integer store build their Scalars without the checks of
    # Scalar(...); each must be the scalar that the checked constructor
    # builds from its terms, its store in lowest terms.  Every Scalar
    # built unchecked during the calls is caught.
    built = []
    trusted = Scalar._of.__func__

    def caught(cls, terms, den):
        built.append(trusted(cls, terms, den))
        return built[-1]

    p = NCPoly(AB, words)
    m = SparseMatrix(3, 3, cells)
    e = TransportElement(q_obj(2), q_obj(2), [])
    e = e.lincomb((c, _ENDOS[k]()) for k, c in endos)
    f = _ENDOS[other]()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scalar, "_of", classmethod(caught))
        returned = [c for _, c in p.sorted_terms()] + [p.coeff(w) for w, _ in words]
        returned += [m.entry(i, j) for i in range(3) for j in range(3)]
        returned += [v for _, _, v in m.items()] + [m.trace()]
        product = e.dot([(e, f), (f, e)])
    assert all(any(s is b for b in built) for s in returned)
    for s in built:
        rebuilt = Scalar(dict(s.sorted_terms()))
        assert s == rebuilt and hash(s) == hash(rebuilt)
        assert s.to_text() == rebuilt.to_text()
        _assert_lowest(s)
    assert product == e * f + f * e


@given(_polys)
def test_poly_text_round_trip(p):
    assert parse_poly(p.to_text(), AB) == p


@settings(max_examples=60)
@given(_polys, _polys, _polys)
def test_mul_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40)
@given(_polys, _polys)
def test_substitute_is_multiplicative(p, q):
    images = {
        "A": NCPoly.word(CDZ, ("C", "Zinv")),
        "B": NCPoly.word(CDZ, ("Z", "D")) + NCPoly.one(CDZ),
    }
    assert substitute(p * q, images) == substitute(p, images) * substitute(q, images)


# -- the flat core against a naive reference ----------------------------------
#
# A reference polynomial is a raw list of (letters, Scalar) terms: words
# are not merged until `ref_normal`, which sums coefficients as Scalars
# and sorts the words by length, then by letter names.


def ref_normal(raw):
    merged = {}
    for letters, coeff in raw:
        word = tuple(letters)
        merged[word] = merged.get(word, Scalar.zero()) + coeff
    words = [w for w, c in merged.items() if not c.is_zero]
    words.sort(key=lambda w: (len(w), w))
    return [(w, merged[w]) for w in words]


def ref_mul(a, b):
    return [(wa + wb, ca * cb) for wa, ca in a for wb, cb in b]


def ref_scale(a, s):
    return [(w, c * s) for w, c in a]


_ref_scalars = st.builds(
    lambda p, q, e: Scalar.rational(p, q) * (Scalar.constant("ipi", e) if e else Scalar.one()),
    st.integers(-4, 4),
    st.integers(1, 4),
    st.integers(0, 2),
)
# Runs of Z and Zinv make different products land on one word and merge.
_raw_words = st.lists(
    st.sampled_from([("C",), ("D",), ("Z",), ("Zinv",), ("Z", "Z"), ("Zinv", "Zinv")]), max_size=3
).map(lambda runs: sum(runs, ()))
_raw_polys = st.lists(st.tuples(_raw_words, _ref_scalars), max_size=5)


@settings(max_examples=100, deadline=None)
@given(_raw_polys, _raw_polys, st.builds(lambda x, y: x + y, _ref_scalars, _ref_scalars))
def test_ncpoly_matches_naive_reference(ra, rb, s):
    a, b = NCPoly(CDZ, ra), NCPoly(CDZ, rb)
    assert a.sorted_terms() == ref_normal(ra)
    assert (a + b).sorted_terms() == ref_normal(ra + rb)
    assert (a - b).sorted_terms() == ref_normal(ra + ref_scale(rb, Scalar.rational(-1)))
    assert (a * b).sorted_terms() == ref_normal(ref_mul(ra, rb))
    assert a.scale(s).sorted_terms() == ref_normal(ref_scale(ra, s))
    assert (a * s) == (s * a) == a.scale(s)
    assert (a == b) == (ref_normal(ra) == ref_normal(rb))
    assert all(a.coeff(w) == c for w, c in ref_normal(ra))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_ref_scalars | st.integers(-3, 3), _raw_polys), max_size=4))
def test_ncpoly_lincomb_matches_naive_reference(terms):
    zero = NCPoly.zero(CDZ)
    got = zero.lincomb([(c, NCPoly(CDZ, raw)) for c, raw in terms])
    ref = [t for c, raw in terms for t in ref_scale(raw, Scalar.coerce(c))]
    assert got.sorted_terms() == ref_normal(ref)
    _assert_lowest(got)


# -- the integer store: lowest terms after every operation ----------------------
#
# Every linear combination keeps integer numerators over one positive
# denominator with no common factor.  The invariant is what makes
# equality and hashing structural, so it is checked on NCPoly and on the
# two word rings of transport after each ring operation, and values built
# along different paths must compare and hash equal.


def _assert_lowest(x):
    nums = list(x._terms.values())
    assert type(x._den) is int and x._den > 0
    assert all(type(v) is int and v != 0 for v in nums)
    assert gcd(x._den, *nums) == 1


def _kernel_cdz_units():
    return [NCPoly.one(CDZ)] + [NCPoly.letter(CDZ, x) for x in CDZ.letters]


def _kernel_classical_units():
    from qjacobi.transport import ClassicalPoly

    return [ClassicalPoly.one(2), ClassicalPoly.atom("sig"), ClassicalPoly.atom("Om")]


def _kernel_transport_units():
    from qjacobi.transport import gen, normalize

    sigma, omega = normalize(gen("sigma_h")), normalize(gen("Omega_h"))
    return [sigma.ring_one(), sigma, omega]


_KERNEL_RINGS = {
    "ncpoly": _kernel_cdz_units,
    "classical": _kernel_classical_units,
    "transport": _kernel_transport_units,
}

# Denominators up to 6 make sums cancel common factors and products
# build denominators that share factors with each other.
_kernel_scalars = st.builds(
    lambda p, q, e: Scalar.rational(p, q) * (Scalar.constant("ipi", e) if e else Scalar.one()),
    st.integers(-6, 6),
    st.integers(1, 6),
    st.integers(0, 2),
)


def _draw_kernel_element(data, units):
    """A sum of scaled units and products of two units, built by + and
    scale."""
    terms = st.lists(st.tuples(st.lists(st.sampled_from(units), min_size=1, max_size=2), _kernel_scalars), max_size=4)
    out = units[0].ring_zero()
    for factors, c in data.draw(terms):
        word = factors[0] if len(factors) == 1 else factors[0] * factors[1]
        out = out + word.scale(c)
    return out


@pytest.mark.parametrize("ring", sorted(_KERNEL_RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_store_stays_in_lowest_terms(ring, data):
    units = _KERNEL_RINGS[ring]()
    p, q = _draw_kernel_element(data, units), _draw_kernel_element(data, units)
    s = data.draw(_kernel_scalars)
    results = [p, q, p + q, p - q, -p, p * q, p.scale(s), s * p, p.dot([(p, q), (q, p)]), p.dot([])]
    for x in results:
        _assert_lowest(x)
    one_third = Scalar.rational(1, 3)
    assert p.scale(one_third).scale(3) == p
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)
    assert p - p == p.ring_zero() and hash(p - p) == hash(p.ring_zero())
    assert p.scale(2) == p + p and hash(p.scale(2)) == hash(p + p)
    assert p.dot([(p, q), (q, p)]) == p * q + q * p
    # lincomb against repeated scale and +, over the ring's zero.
    pairs = [(s, p), (data.draw(_kernel_scalars), q), (data.draw(st.integers(-3, 3)), p * q)]
    combined = p.lincomb(pairs)
    _assert_lowest(combined)
    loop = p.ring_zero()
    for c, x in pairs:
        loop = loop + x.scale(c)
    assert combined == loop and hash(combined) == hash(loop)
    assert p.lincomb([]) == p.ring_zero()
    half = Scalar.rational(1, 2)
    for u in units:
        assert u.scale(half) + u.scale(half) == u
        assert hash(u.scale(half) + u.scale(half)) == hash(u)
        assert u.scale(half)._den == 2 and (u.scale(half) + u.scale(half))._den == 1


def _rebuilt(x):
    """A copy of ``x`` built by its constructor from its sorted terms."""
    terms = x.sorted_terms()
    if isinstance(x, NCPoly):
        return NCPoly(x.alphabet, terms)
    if isinstance(x, TransportElement):
        return TransportElement(x.dom, x.cod, [(c, factors) for factors, c in terms])
    return type(x)(x.dom, x.cod, terms)


@pytest.mark.parametrize("ring", sorted(_KERNEL_RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_result_hashes_and_prints_as_its_terms_rebuilt(ring, data):
    # Each combination keeps its first hash and text.  The operands'
    # are read first, so a result that kept an operand's cache beside a
    # new store, or an operand whose store changed, shows here.
    units = _KERNEL_RINGS[ring]()
    p, q = _draw_kernel_element(data, units), _draw_kernel_element(data, units)
    s, t = data.draw(_kernel_scalars), data.draw(st.integers(-3, 3))
    for x in (p, q, *units):
        hash(x), x.to_text()
    results = [
        p + q, p - q, q - q, -p, p.scale(s), p.scale(Fraction(1, 3)),
        p.lincomb([(1, q)]), p.lincomb([(-1, q)]), p.lincomb([(s, p), (t, q), (1, p * q)]), p.lincomb([]),
        p * q, p.dot([(p, q), (q, p), (q, q)]), p.dot([]),
    ]
    for x in (p, q, *units, *results):
        fresh = _rebuilt(x)
        key, text = hash(x), x.to_text()
        assert x == fresh and hash(x) == key == hash(fresh)
        assert x.to_text() == text == fresh.to_text()


def test_a_nonzero_polynomial_renders_once():
    p = poly("1/6*A + 1/4*B")
    assert p.to_text() is p.to_text()


def test_store_is_integer_numerators_over_one_denominator():
    x = poly("1/6*A + 1/4*B")
    assert x._den == 12 and x._terms == {(("A",), ()): 2, (("B",), ()): 3}
    y = x.scale(Fraction(6))
    assert y._den == 2 and y._terms == {(("A",), ()): 2, (("B",), ()): 3}
    assert (x - x)._den == 1 and (x - x)._terms == {}
    assert x.to_text() == "1/6*A + 1/4*B"
    assert (x * x).to_text() == "1/36*A.A + 1/24*A.B + 1/24*B.A + 1/16*B.B"
    assert x.coeff(("B",)) == Scalar.rational(1, 4)


def test_unit_factors_and_a_third_give_the_polynomials_built_from_scratch():
    # A lone factor 1 or -1 copies the store; 1/3 must still reduce it,
    # since every numerator of p is divisible by 3.
    p = poly("3/7*A - 6/7*A.B + 9*ipi*B")
    assert p._den == 7 and all(v % 3 == 0 for v in p._terms.values())
    cases = [
        (-p, poly("- 3/7*A + 6/7*A.B - 9*ipi*B")),
        (p.lincomb([(-1, p)]), poly("- 3/7*A + 6/7*A.B - 9*ipi*B")),
        (p.lincomb([(1, p)]), poly("3/7*A - 6/7*A.B + 9*ipi*B")),
        (p.scale(Fraction(1, 3)), poly("1/7*A - 2/7*A.B + 3*ipi*B")),
    ]
    for got, expected in cases:
        _assert_lowest(got)
        assert got == expected and hash(got) == hash(expected)


@settings(max_examples=60, deadline=None)
@given(_raw_polys, st.randoms(use_true_random=False))
def test_ncpoly_hash_agrees_with_equality_across_insertion_orders(raw, rng):
    shuffled = list(raw)
    rng.shuffle(shuffled)
    forward, backward = NCPoly(CDZ, raw), NCPoly(CDZ, shuffled)
    assert forward == backward and hash(forward) == hash(backward)
    summed = NCPoly.zero(CDZ)
    for term in reversed(raw):
        summed = NCPoly(CDZ, [term]) + summed
    assert summed == forward and hash(summed) == hash(forward)
    assert len({forward, backward, summed}) == 1


# -- the one type rule: every combination goes from dom to cod -----------------


def _typed_cases():
    """Per ring: an element ``x`` from a space to itself, an ``other``
    of the same class between other spaces, and two pairs that each
    compose but whose products go between different spaces."""
    from qjacobi.transport import ClassicalPoly, TransportError

    ab, cdz = poly("A + 1/2*ipi*A.B"), NCPoly(CDZ, [(("Z", "C"), Fraction(1, 3))])
    sig, t = ClassicalPoly.atom("sig"), ClassicalPoly.atom("T")
    sigma, t_h = normalize(gen("sigma_h")), normalize(gen("T_h"))
    return {
        "ncpoly-ab": (ab, cdz, [(ab, ab), (cdz, cdz)], WordError),
        "ncpoly-cdz": (cdz, ab, [(cdz, cdz), (ab, ab)], WordError),
        "classical": (sig, t, [(sig, sig), (t, sig)], TransportError),
        "transport": (sigma, t_h, [(sigma, sigma), (t_h, sigma)], TransportError),
    }


def _raises_exactly(error, thunk):
    with pytest.raises(Exception) as caught:
        thunk()
    assert type(caught.value) is error


@pytest.mark.parametrize("ring", sorted(_typed_cases()))
def test_operands_between_different_spaces_raise_the_rings_error(ring):
    x, other, pairs, error = _typed_cases()[ring]
    assert (x.dom, x.cod) != (other.dom, other.cod)
    _raises_exactly(error, lambda: x + other)
    _raises_exactly(error, lambda: other - x)
    _raises_exactly(error, lambda: x.lincomb([(1, x), (2, other)]))
    _raises_exactly(error, lambda: x.lincomb([(1, other)]))
    # x after other: the types do not meet.
    assert x.dom != other.cod
    _raises_exactly(error, lambda: x.dot([(x, other)]))
    _raises_exactly(error, lambda: x * other)
    # Each pair composes alone, and its product goes from b.dom to a.cod.
    for a, b in pairs:
        product = x.dot([(a, b)])
        assert (product.dom, product.cod) == (b.dom, a.cod)
    _raises_exactly(error, lambda: x.dot(pairs))


@pytest.mark.parametrize("ring", sorted(_typed_cases()))
def test_ring_zero_and_one_are_the_constructors_zero_and_one(ring):
    from qjacobi.transport import ClassicalPoly

    x, other, _, _ = _typed_cases()[ring]
    if isinstance(x, NCPoly):
        built = {"zero": NCPoly.zero(x.alphabet), "one": NCPoly.one(x.alphabet)}
    elif isinstance(x, ClassicalPoly):
        built = {"zero": ClassicalPoly(x.dom, x.dom), "one": ClassicalPoly.one(x.dom)}
    else:
        built = {"zero": TransportElement(x.dom, x.dom), "one": TransportElement(x.dom, x.dom, [(1, ())])}
    for name, got in (("zero", x.ring_zero()), ("one", x.ring_one())):
        expected = built[name]
        assert type(got) is type(expected) and got == expected
        assert hash(got) == hash(expected) and got.to_text() == expected.to_text()
        assert (got.dom, got.cod) == (x.dom, x.cod)
    zero = other.ring_zero()
    assert zero.is_zero and (zero.dom, zero.cod) == (other.dom, other.cod)
    assert x.dot([]) == x.ring_zero() and x.lincomb([]) == x.ring_zero()


@pytest.mark.parametrize("ring", ["classical", "transport"])
def test_a_non_endomorphism_has_no_ring_one(ring):
    _, other, _, error = _typed_cases()[ring]
    assert other.dom != other.cod
    _raises_exactly(error, other.ring_one)


def test_an_ncpoly_goes_from_its_alphabet_to_itself_and_keeps_it():
    p = poly("A.B")
    assert p.alphabet is p.dom is p.cod is AB
    with pytest.raises(AttributeError):
        p.alphabet = CDZ
    assert p.alphabet is AB


def test_the_type_rule_lives_in_linear_combination_alone():
    import importlib
    import pkgutil

    import qjacobi
    from qjacobi.ncalg import LinearCombination

    for info in pkgutil.iter_modules(qjacobi.__path__):
        if info.name != "__main__":
            importlib.import_module(f"qjacobi.{info.name}")
    subclasses, todo = [], [LinearCombination]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("qjacobi."):
                subclasses.append(sub)
    assert {"NCPoly", "ClassicalPoly", "TransportElement"} <= {cls.__name__ for cls in subclasses}
    assert {"dom", "cod"} <= set(LinearCombination.__slots__)
    for cls in subclasses:
        assert not {"_space", "_compose", "ring_zero", "ring_one"} & set(vars(cls)), cls.__name__
        assert not {"dom", "cod"} & set(vars(cls).get("__slots__", ())), cls.__name__


# -- pickles and copies carry no cached hash ------------------------------------

_PICKLE_SCRIPT = """
import pickle, sys
from fractions import Fraction
from qjacobi.matrices import SparseMatrix
from qjacobi.ncalg import Alphabet, Scalar, parse_poly
from qjacobi.transport import ClassicalPoly, gen, normalize

def values():
    return [
        parse_poly("1/6*A + 1/4*ipi*A.B", Alphabet(("A", "B"))),
        ClassicalPoly.atom("sig", Fraction(2, 3)) + ClassicalPoly.word(("Om", "sig")),
        normalize(gen("sigma_h")),
        SparseMatrix.from_rows([[1, Scalar.constant("ipi")], [Fraction(1, 2), 0]]),
    ]

if sys.argv[1] == "dump":
    kept = values()
    for x in kept:
        hash(x)
    sys.stdout.buffer.write(pickle.dumps(kept))
else:
    pairs = zip(values(), pickle.loads(sys.stdin.buffer.read()))
    print([type(x).__name__ for x, y in pairs if not (x == y and hash(x) == hash(y) and len({x, y}) == 1)])
"""


def test_a_pickle_hashes_as_a_fresh_copy_under_another_hash_seed():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import qjacobi

    src = str(Path(qjacobi.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(seed, mode, data=None):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        cmd = [sys.executable, "-c", _PICKLE_SCRIPT, mode]
        return subprocess.run(cmd, input=data, capture_output=True, env=env, check=True).stdout

    # The classes whose loaded copy differs from a fresh one.
    assert run("2", "load", run("1", "dump")) == b"[]\n"


def test_a_deep_copy_keeps_equality_and_hash():
    from copy import deepcopy

    from qjacobi.transport import ClassicalPoly

    values = [
        poly("1/6*A + 1/4*ipi*A.B"),
        ClassicalPoly.atom("sig", Fraction(2, 3)),
        normalize(gen("sigma_h")),
        SparseMatrix.from_rows([[1, Scalar.constant("ipi")], [Fraction(1, 2), 0]]),
    ]
    for x in values:
        hash(x)
        copied = deepcopy(x)
        assert copied == x and hash(copied) == hash(x) and copied.to_text() == x.to_text()
        assert type(copied) is type(x)


# -- Horner's rule in substitute against word-by-word products ---------------

ABC = Alphabet(("A", "B", "C"))


def naive_substitute(p, images, zero):
    """Each word's image multiplied out on its own, from its first letter."""
    acc = zero
    for word, coeff in p.sorted_terms():
        prod = images[word[0]] if word else zero.ring_one()
        for letter in word[1:]:
            prod = prod * images[letter]
        acc = acc + prod.scale(coeff)
    return acc


@st.composite
def _prefix_terms(draw, letters):
    """Up to 12 (word, coefficient) terms with words of length at most 6,
    the first a constant term; every other word is a cut of one drawn
    stem plus a short tail, so that prefixes repeat across the words."""
    stem = draw(st.lists(st.sampled_from(letters), min_size=6, max_size=6))
    terms = [((), draw(_ref_scalars))]
    for _ in range(draw(st.integers(0, 11))):
        cut = draw(st.integers(0, 6))
        tail = draw(st.lists(st.sampled_from(letters), max_size=min(2, 6 - cut)))
        terms.append((tuple(stem[:cut] + tail), draw(_ref_scalars)))
    return terms


def _random_matrix(rng, rows, cols):
    """A sparse small-integer matrix, with an ipi part in about half the draws."""
    from qjacobi.matrices import SparseMatrix

    cells = [(i, j, Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for i in range(rows) for j in range(cols)]
    out = SparseMatrix(rows, cols, [cell for cell in cells if rng.random() < 0.6])
    if rng.random() < 0.5:
        out = out + SparseMatrix(rows, cols, [(rng.randrange(rows), rng.randrange(cols), 1)]).scale(
            Scalar.constant("ipi")
        )
    return out


@settings(max_examples=60, deadline=None)
@given(_prefix_terms(AB.letters), st.integers(0, 2**32))
def test_substitute_into_matrices_matches_word_products(raw, seed):
    import random

    from qjacobi.matrices import SparseMatrix

    rng = random.Random(seed)
    images = {"A": _random_matrix(rng, 3, 3), "B": _random_matrix(rng, 3, 3)}
    p = NCPoly(AB, raw)
    assert substitute(p, images) == naive_substitute(p, images, SparseMatrix.zeros(3, 3))


def test_substitute_refuses_images_of_different_rings():
    # Images live in one ring: a matrix next to a series is not lifted
    # to a constant series, in either order.
    import random

    from qjacobi.hseries import HSeries

    rng = random.Random(7)
    a = HSeries([_random_matrix(rng, 2, 2) for _ in range(3)])
    b = _random_matrix(rng, 2, 2)
    for images in ({"A": a, "B": b}, {"B": b, "A": a}):
        with pytest.raises(WordError, match="different rings"):
            substitute(poly("A.B + B"), images)


_horner_scalars = st.builds(
    lambda p, q, e, z: Scalar.rational(p, q)
    * (Scalar.constant("ipi", e) if e else Scalar.one())
    * (Scalar.constant("zeta", z) if z else Scalar.one()),
    st.integers(-4, 4),
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 1),
)


@st.composite
def _horner_terms(draw, letters):
    """Up to 12 terms with words of length 0 to 7, the empty word in
    about half the draws, coefficients carrying ipi and a user constant
    zeta; most words end in a cut of one drawn stem, so that suffixes
    repeat across the words, and the others are free."""
    stem = draw(st.lists(st.sampled_from(letters), min_size=5, max_size=5))
    terms = [((), draw(_horner_scalars))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 11))):
        if draw(st.booleans()):
            head = draw(st.lists(st.sampled_from(letters), max_size=2))
            word = head + stem[draw(st.integers(0, 5)):]
        else:
            word = draw(st.lists(st.sampled_from(letters), max_size=4))
        terms.append((tuple(word), draw(_horner_scalars)))
    return terms


def _random_ncpoly(rng):
    """Zero to three terms over CDZ."""
    words = [(), ("C",), ("D",), ("Z",), ("Zinv",), ("C", "Z"), ("Zinv", "D")]
    terms = [(rng.choice(words), Fraction(rng.randint(-3, 3), rng.randint(1, 3))) for _ in range(rng.randint(0, 3))]
    return NCPoly(CDZ, terms)


@settings(max_examples=90, deadline=None)
@given(_horner_terms(ABC.letters), st.sampled_from(["matrix", "ncpoly", "series"]), st.integers(0, 2**32))
def test_substitute_matches_word_products_in_every_ring(raw, ring, seed):
    import random

    from qjacobi.hseries import HSeries
    from qjacobi.matrices import SparseMatrix

    rng = random.Random(seed)
    if ring == "matrix":
        images = {x: _random_matrix(rng, 3, 3) for x in ABC.letters}
        zero = SparseMatrix.zeros(3, 3)
    elif ring == "ncpoly":
        images = {x: _random_ncpoly(rng) for x in ABC.letters}
        zero = NCPoly.zero(CDZ)
    else:
        images = {x: HSeries([_random_ncpoly(rng) for _ in range(3)]) for x in ABC.letters}
        zero = HSeries.constant(NCPoly.zero(CDZ), 3)
    p = NCPoly(ABC, raw)
    assert substitute(p, images) == naive_substitute(p, images, zero)


# -- the ring protocol: +, -, negation, scale and * of every ring ---------------


def _protocol_operands():
    from qjacobi.hseries import HSeries
    from qjacobi.matrices import SparseMatrix
    from qjacobi.transport import ClassicalPoly, gen, normalize

    a, c = NCPoly.letter(AB, "A"), NCPoly.letter(CDZ, "C")
    m2 = SparseMatrix.from_rows([[1, 2], [0, Scalar.constant("ipi")]])
    m3 = SparseMatrix.identity(3)
    return {
        "ncpoly-ab": a,
        "ncpoly-cdz": c,
        "classical": ClassicalPoly.atom("sig"),
        "transport": normalize(gen("sigma_h")),
        "matrix-2x2": m2,
        "matrix-3x3": m3,
        "series-poly": HSeries((a.ring_one(), a)),
        "series-matrix": HSeries((m2.ring_one(), m2)),
        "int": 2,
        "float": 1.5,
    }


_PROTOCOL_NAMES = list(_protocol_operands())


def _mixed_error(op, left, right):
    """The exception a mixed-type ``left op right`` raises, or None where
    it is defined (a ring times an int scales)."""
    from qjacobi.hseries import SeriesError
    from qjacobi.matrices import MatrixError

    family = {"ncpoly": WordError, "matrix": MatrixError}
    lf, rf = left.split("-")[0], right.split("-")[0]
    if op == "*" and "int" in (left, right):
        return None
    if lf == "series":
        # The series' own lincomb and dot reject an operand that is not a
        # series; two series over different rings meet in the coefficients'
        # ring, whose error passes through.
        return TypeError if rf == "series" else SeriesError
    if lf == rf and lf in family:
        # One class over two alphabets or two shapes.
        return family[lf]
    return TypeError


_MIXED_CASES = [
    (op, left, right)
    for left in _PROTOCOL_NAMES
    for right in _PROTOCOL_NAMES
    if left != right and not {left, right} <= {"int", "float"}
    for op in ("+", "-", "*")
    if _mixed_error(op, left, right) is not None
]


_OP_NAMES = {"+": "add", "-": "sub", "*": "mul"}


@pytest.mark.parametrize(
    "op, left, right", _MIXED_CASES, ids=[f"{left}.{_OP_NAMES[op]}.{right}" for op, left, right in _MIXED_CASES]
)
def test_mixed_type_operations_keep_their_exception_type(op, left, right):
    operands = _protocol_operands()
    expected = _mixed_error(op, left, right)
    x, y = operands[left], operands[right]
    with pytest.raises(Exception) as caught:
        {"+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y}[op]()
    assert type(caught.value) is expected


_PROTOCOL_SCALARS = [3, Fraction(-2, 5), Scalar.constant("ipi", coeff=Fraction(1, 2))]


@pytest.mark.parametrize("name", ["series-poly", "series-matrix"])
def test_series_times_a_scalar_scales(name):
    from qjacobi.hseries import HSeries

    s = _protocol_operands()[name]
    for c in _PROTOCOL_SCALARS:
        assert s * c == s.scale(c) == HSeries([x.scale(c) for x in s.coeffs])
        assert c * s == s.scale(c)


@pytest.mark.parametrize("name", [n for n in _PROTOCOL_NAMES if n not in ("int", "float")])
def test_negation_and_scalar_products_are_scale(name):
    x = _protocol_operands()[name]
    x = x + x.scale(Fraction(1, 3))
    assert -x == x.scale(-1)
    assert -x + x == x.ring_zero()
    for c in _PROTOCOL_SCALARS:
        assert x * c == x.scale(c)
        assert c * x == x.scale(c)


# -- the kept-state store ---------------------------------------------------

def test_kept_takes_nothing_for_a_key_not_kept():
    # Popping a key not kept gives the default; keep builds it.
    kept = Kept(2)
    assert kept.pop("a", None) is None
    assert kept == {}
    assert kept.keep("a", str.upper, "a") == "A" and kept == {"a": "A"}


def test_kept_forgets_the_oldest_past_its_bound():
    # Built or handed back after a pop, as the Psi engine is, the oldest
    # entry past the bound goes.
    built, handed = Kept(2), Kept(2)
    for key in "abc":
        assert built.keep(key, str.upper, key) == key.upper()
        value = handed.pop(key, None) or key.upper()
        assert handed.keep(key, lambda: value) == key.upper()
    assert list(built) == list(handed) == ["b", "c"]


def test_a_key_taken_and_put_back_is_the_newest():
    # A value popped and handed back through keep is the newest, and so
    # is one keep reads.
    kept = Kept(2)
    kept.keep("a", int, "1")
    kept.keep("b", int, "2")
    value = kept.pop("a")
    assert kept.keep("a", lambda: value) is value
    kept.keep("c", int, "3")
    assert kept == {"a": 1, "c": 3} and list(kept) == ["a", "c"]
    assert kept.keep("a", _unreachable) == 1
    kept.keep("d", int, "4")
    assert list(kept) == ["a", "d"]


def test_a_key_taken_and_not_put_back_is_gone():
    # A value popped whose work then raises is not kept.
    kept = Kept(2)
    kept.keep("a", int, "1")
    value = kept.pop("a")
    with pytest.raises(ZeroDivisionError):
        kept.keep("a", divmod, value, 0)
    assert kept.pop("a", None) is None and "a" not in kept


def _unreachable():
    raise AssertionError("a kept value was built again")


@pytest.mark.parametrize("falsy", [0, (), "", False])
def test_a_falsy_value_survives_a_round_trip(falsy):
    kept = Kept(1)
    assert kept.keep("a", lambda: falsy) is falsy
    value = kept.pop("a", None)
    assert value is not None and value == falsy
    assert kept.keep("a", lambda: value) is value and kept == {"a": falsy}
    assert kept.keep("a", _unreachable) is value


def test_keep_reads_a_kept_value_without_building_it():
    kept = Kept(2)
    assert kept.keep("a", str.upper, "a") == "A"
    kept.keep("b", str.upper, "b")
    assert kept.keep("a", _unreachable) == "A"
    assert list(kept) == ["b", "a"]


def test_a_build_that_raises_keeps_nothing():
    kept = Kept(3)
    kept.keep("a", int, "1")
    kept.keep("b", int, "2")
    with pytest.raises(ValueError):
        kept.keep("c", int, "not a number")
    assert list(kept.items()) == [("a", 1), ("b", 2)]
