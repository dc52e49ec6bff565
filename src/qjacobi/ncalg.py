"""Exact scalars, the free algebra of noncommutative words, and the one
linear-combination core that every word-based ring of the package uses.

Coefficients are rational numbers, optionally multiplied by monomials in
named formal constants (``ipi`` stands for the product of the imaginary
unit and pi).  Keeping such constants symbolic makes every identity in
the package an equality of exact rational data; nothing is evaluated in
floating point anywhere.

:class:`LinearCombination` stores a combination of words flat, as
integer numerators over one shared positive denominator: a dict from
``(word, constant monomial)`` to a nonzero ``int``, and ``_den``.  The
pair is kept in lowest terms (the gcd of the denominator and all
numerators is 1), the same representation as the parts of
:class:`~qjacobi.matrices.SparseMatrix`.  One merge, one scale, one
product loop and one renderer serve :class:`NCPoly` here, the classical
polynomials and transport normal forms of ``transport``, and
:class:`Scalar`, the public coefficient type: a scalar is the
combination over no letters, from ``Alphabet(())`` to itself, whose
every word is empty.  So one type rule serves them all: a combination
goes from its ``dom`` to its ``cod``, two combinations add when both
agree, and ``a`` composes after ``b`` when ``a.dom == b.cod``; an
:class:`NCPoly` goes from its alphabet to itself.  The subclasses differ
only in what a word holds.  Those loops multiply and add integers only.
A coefficient is read as its integer store (``_coefficient``: a
scalar's own, or a plain ``int`` or ``Fraction`` read as a rational
scalar's), and a ``Fraction`` is built only where a caller reads a
coefficient's value.  A store is never written after its combination is
built, so each combination computes its hash and its text once and
keeps them; text rendered inside ``cli.main``, which lifts the limit on
int/str conversion, is later served from that cache with no integer
converted again.

:class:`Ring` is the base class of every ring of the package, and its
docstring states the ring protocol.

Words live in the free monoid over a declared :class:`Alphabet`: a word
is a plain tuple of letter names, and a product concatenates.  The
canonical text form, e.g. ``1/24*O12.O23 - 1/24*O23.O12``, is the
interchange format of every other module, and each of its rules is
written once.  A term is a rational ``p`` or ``p/q`` in ASCII digits,
left out when it is 1 and a factor follows, then constant factors
``name`` or ``name^e`` (``e`` at least 1), then at most one word of
dot-joined letters.  ``_monomial`` alone puts a product of constants in
normal form: a name given twice is one factor whose exponents add, and
the names are sorted.  Terms are ordered length-first, then by letter
names, and joined by `` + `` or `` - `` (``- `` before a negative first
term), the one pattern ``_split_signed_terms`` splits on.  A scalar is
a polynomial over no letters.  A reader's error names a refused input
past 80 characters or 64 bits by its size (``_echo``).

:class:`WordEvaluator` is the one word evaluator: it maps each word to
the product of its letters' images in one ring of the package and sums
the words by Horner's rule over their last letters, one power of h at a
time.  :func:`substitute` is its h^0 coefficient with constant images
(polynomials, exact matrices or truncated series), and the Psi engine
extends it over the coefficient lists of the pair it is building.

:class:`Kept` is the one bounded store of what a process keeps between
calls, and its docstring states the policy every such store follows.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

__all__ = [
    "Alphabet",
    "Kept",
    "NCPoly",
    "Ring",
    "Scalar",
    "ScalarError",
    "WordError",
    "WordEvaluator",
    "commutator",
    "parse_poly",
    "parse_scalar",
    "substitute",
]


class ScalarError(ArithmeticError):
    """Unsupported exact-scalar arithmetic, e.g. division by a scalar
    that is not a nonzero plain rational."""


class WordError(ValueError):
    """Malformed alphabet, unknown letter, or unparsable text form."""


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RATIONAL_RE = re.compile(r"([0-9]+)(?:/([0-9]+))?\Z")
_FACTOR_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^([0-9]+))?\Z")

# A monomial in formal constants: (("ipi", 2),), sorted by name, exponents > 0.
Monomial = tuple
# The key of a unit coefficient in a store: the empty word, no constants.
_UNIT = ((), ())

_F0 = Fraction(0)
_F1 = Fraction(1)


def _monomial(factors: Iterable[tuple[str, int]]) -> Monomial:
    """The normal form of a product of (name, exponent) factors: a name
    given twice is one factor whose exponents add, and the names are
    sorted."""
    exps: dict[str, int] = {}
    for name, e in factors:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    return _monomial(a + b)


@dataclass(frozen=True)
class Alphabet:
    """Letter names, in the order they are declared.  The declared order
    does not order words: every word ring sorts by length, then by
    letter names."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise WordError("duplicate letters in alphabet")
        for name in self.letters:
            if not _NAME_RE.match(name):
                raise WordError(f"bad letter name {name!r}")
        object.__setattr__(self, "_letter_set", frozenset(self.letters))


def _lowest(acc: dict, den: int) -> tuple[dict, int]:
    """Drop zero numerators and divide the pair by its common gcd."""
    nums = {key: v for key, v in acc.items() if v}
    if not nums:
        return nums, 1
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {key: v // g for key, v in nums.items()}
    return nums, den


def _sum(stores: list[tuple[dict, int, int]]) -> tuple[dict, int]:
    """The sum of ``f * numerators / den`` over (numerators, den, f)
    stores, merged once over the lcm of the denominators, in lowest
    terms."""
    common = lcm(*(den for _, den, _ in stores))
    acc: dict = {}
    get = acc.get
    for nums, den, f in stores:
        f *= common // den
        for key, v in nums.items():
            acc[key] = get(key, 0) + v * f
    return _lowest(acc, common)


class Ring:
    """The arithmetic every exact ring of the package derives from its
    own ``lincomb`` and ``dot``.

    ``lincomb(pairs)`` is the sum of ``c * x`` over (scalar, element)
    pairs in the receiver's space, and ``dot(pairs)`` the sum of the
    products ``a * b`` over (a, b) pairs.  Each is merged once, so its
    cost is the stored terms of the pairs, not one copy of the growing
    sum per pair, and each raises for an operand of another ring or
    space, so the operators here pass their operands on unchecked; no
    ring re-labels another ring's error.
    ``+``, ``-``, negation and ``scale`` are ``lincomb``'s two- and
    one-term cases; ``*`` is ``scale`` when either operand is a scalar
    and ``dot``'s one-pair case otherwise.  A ring also has
    ``ring_one()``, ``ring_zero()``, ``is_zero``, ``==``, ``hash`` and
    ``to_text()``.
    """

    __slots__ = ()

    def __add__(self, other):
        return self.lincomb(((1, self), (1, other)))

    def __sub__(self, other):
        return self.lincomb(((1, self), (-1, other)))

    def __neg__(self):
        return self.lincomb(((-1, self),))

    def scale(self, factor: ScalarLike):
        return self.lincomb(((factor, self),))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return self.dot(((self, other),))

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented


class LinearCombination(Ring):
    """A finite exact linear combination of words, from ``dom`` to ``cod``.

    The store is integer numerators over one positive denominator:
    ``_terms`` maps ``(word, constant monomial)`` to a nonzero ``int``
    and ``_den`` is the shared denominator, so the coefficient of a key
    is ``_terms[key] / _den``.  The pair is kept in lowest terms (the
    gcd of ``_den`` and every numerator is 1; the zero combination has
    ``_den == 1``), so equality and hashing are structural.  Only
    ``_set`` writes the store, while the object is being built (``_store``
    in ``__init__``, the results ``lincomb`` and ``dot`` build, and the
    parser's), never after it is returned; it clears ``_hash`` and ``_text``, which the
    first ``hash()`` and ``to_text()`` fill; a pickle or copy carries
    neither, since a hash of words depends on the string hash seed.
    ``lincomb`` and ``dot`` run on the integers only and reduce each
    result once; the rest of the :class:`Ring` arithmetic comes from
    them.  A coefficient is read as its integer store, and ``Fraction``
    values are built only where a caller reads a coefficient's value.

    One type rule serves every subclass: two combinations add when their
    ``(dom, cod)`` agree, ``a`` composes after ``b`` when ``a.dom ==
    b.cod`` (``a``'s word first, the product from ``b.dom`` to
    ``a.cod``), and the unit needs ``dom == cod``.  A mismatch raises
    the subclass's ``_error``.  A subclass states only what its words
    hold: the word check its constructor passes to ``_store``.  Words
    sort by length, then as tuples, and print dot-joined;
    ``TransportElement``, whose words hold factors, overrides
    ``_word_key`` and ``_word_text``.
    """

    __slots__ = ("dom", "cod", "_terms", "_den", "_hash", "_text")

    @staticmethod
    def _word_key(word: tuple):
        return (len(word), word)

    @staticmethod
    def _word_text(word: tuple) -> str:
        return ".".join(word)

    def _set(self, terms: dict, den: int):
        """Write the store of an object being built, clear its cache and
        return the object."""
        self._terms, self._den = terms, den
        self._hash = self._text = None
        return self

    def _empty(self, dom, cod):
        """The zero combination of this type from ``dom`` to ``cod``."""
        out = object.__new__(type(self))
        out.dom, out.cod = dom, cod
        return out._set({}, 1)

    def __getstate__(self):
        return None, {"dom": self.dom, "cod": self.cod, "_terms": self._terms, "_den": self._den,
                      "_hash": None, "_text": None}

    def _store(self, terms, stored_word) -> None:
        """Set the store from (word, coefficient) pairs or a mapping;
        ``stored_word`` checks a word and returns the form it is kept in."""
        stores = []
        for word, coeff in terms.items() if isinstance(terms, Mapping) else terms or ():
            nums, den = _coefficient(coeff)
            if nums:
                word = stored_word(word)
                stores.append(({(word, mono): v for (_, mono), v in nums.items()}, den, 1))
        self._set(*_sum(stores))

    def _check_same(self, other: "LinearCombination") -> None:
        # A tuple compares its items by identity first.
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise self._error(f"cannot combine {type(self).__name__} operands of different types")

    def ring_zero(self):
        return self._empty(self.dom, self.cod)

    def ring_one(self):
        if self.dom != self.cod:
            raise self._error(f"a {type(self).__name__} has a unit only from a space to itself")
        return self._empty(self.dom, self.cod)._set({_UNIT: 1}, 1)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, word: Iterable) -> Scalar:
        word = tuple(word)
        return Scalar._of(*_lowest({((), mono): v for (w, mono), v in self._terms.items() if w == word}, self._den))

    def support(self) -> set:
        return {letter for word, _ in self._terms for letter in word}

    def sorted_terms(self) -> list[tuple[tuple, Scalar]]:
        """(word, coefficient) pairs in canonical word order."""
        by_word: dict = {}
        for (word, mono), v in self._terms.items():
            by_word.setdefault(word, {})[((), mono)] = v
        return [(word, Scalar._of(*_lowest(by_word[word], self._den))) for word in sorted(by_word, key=self._word_key)]

    def lincomb(self, pairs):
        """The sum of ``c * x`` over the (scalar, element) pairs, in this
        element's space, merged once over the lcm of the denominators;
        the ring zero when there are none.

        One pair with the ``int`` factor 1 or -1 copies its store, negated
        for -1, which is already in lowest terms.  A ``Fraction`` factor
        1/q takes no such shortcut: it folds q into the denominator."""
        pairs = list(pairs)
        if len(pairs) == 1:
            # Each block sum of a one-block table: cold compute_psi(builtin, 16) 22.2-23.2 ms, 24.3-26.1 without.
            c, x = pairs[0]
            if type(c) is int and (c == 1 or c == -1) and type(x) is type(self):
                if x is not self:
                    self._check_same(x)
                terms = dict(x._terms) if c == 1 else {key: -v for key, v in x._terms.items()}
                return self.ring_zero()._set(terms, x._den)
        stores = []
        for c, x in pairs:
            if type(x) is not type(self):
                raise TypeError(f"{type(self).__name__}.lincomb needs {type(self).__name__} terms")
            if x is not self:
                self._check_same(x)
            fnums, fden = _coefficient(c)
            for (_, fmono), fv in fnums.items():
                nums = x._terms
                if fmono:
                    nums = {(word, _mono_mul(mono, fmono)): v for (word, mono), v in nums.items()}
                stores.append((nums, x._den * fden, fv))
        return self.ring_zero()._set(*_sum(stores))

    def dot(self, pairs):
        """The sum of ``a * b`` over the (a, b) pairs, merged once over
        the lcm of the pair denominators; the ring zero when there are
        none.  Each ``a`` must compose after its ``b``, and all products
        must go between the same spaces."""
        space = None
        products = []
        for a, b in pairs:
            if type(a) is not type(self) or type(b) is not type(self):
                raise TypeError(f"{type(self).__name__}.dot needs {type(self).__name__} operands")
            if a.dom is not b.cod and a.dom != b.cod:
                raise self._error(f"cannot compose {type(self).__name__} operands whose types do not meet")
            if space is None:
                space = (b.dom, a.cod)
            elif (b.dom, a.cod) != space:
                raise self._error(f"the {type(self).__name__} products of one dot go between different spaces")
            if a._terms and b._terms:
                products.append((a._terms.items(), b._terms.items(), a._den * b._den))
        if space is None:
            return self.ring_zero()
        common = lcm(*(den for *_, den in products))
        acc: dict = {}
        get = acc.get
        for left, right, den in products:
            f = common // den
            for (w1, m1), c1 in left:
                c1 *= f
                for (w2, m2), c2 in right:
                    # _mono_mul's empty cases inline: a cold compute_psi(builtin, 16) 25.3-26.7 ms, 26.4-27.1 called.
                    key = (w1 + w2, m2 if not m1 else m1 if not m2 else _mono_mul(m1, m2))
                    acc[key] = get(key, 0) + c1 * c2
        return self._empty(*space)._set(*_lowest(acc, common))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.dom, self.cod, self._den, self._terms) == (other.dom, other.cod, other._den, other._terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dom, self.cod, self._den, frozenset(self._terms.items())))
        return self._hash

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()})"

    def to_text(self) -> str:
        if self._text is not None:
            return self._text
        if not self._terms:
            return "0"
        word_key, word_text, den = self._word_key, self._word_text, self._den
        terms = sorted(self._terms.items(), key=lambda kv: (word_key(kv[0][0]), kv[0][1]))
        # Many terms share a numerator and a monomial: each such head is
        # rendered once (the order-14 Psi pair in 4.7-5.5 ms, 6.6-9.1 ms
        # without).  A head reads "1" only for a bare unit coefficient,
        # which a word replaces.
        heads: dict = {}
        parts = []
        for (word, mono), v in terms:
            head = heads.get((v, mono))
            if head is None:
                head = heads[v, mono] = _term_body(Fraction(v, den), mono)
            body = word_text(word)
            if not body:
                body = head
            elif head != "1":
                body = f"{head}*{body}"
            parts.append((v < 0, body))
        self._text = _join_signed(parts)
        return self._text


# A scalar is the combination over no letters.
_NO_LETTERS = Alphabet(())


class Scalar(LinearCombination):
    """Exact scalar: a rational linear combination of constant monomials,
    the :class:`LinearCombination` from ``Alphabet(())`` to itself.

    Every word of the store is empty, so a key is ``((), monomial)``,
    and the empty monomial carries the plain rational part.  The store,
    its lowest terms, the arithmetic, equality and the text with its
    cache are the core's.  A scalar adds the checked constructor, the
    reads of its monomials, ``+``, ``-`` and ``==`` with an ``int`` or
    ``Fraction`` read as a rational scalar, division by a nonzero plain
    rational, and the hash of a rational scalar, which is the hash of the
    number it equals.
    """

    __slots__ = ()
    _error = ScalarError

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        self.dom = self.cod = _NO_LETTERS
        stores = []
        if terms:
            for mono, coeff in terms.items():
                if isinstance(coeff, float):
                    raise ScalarError("floating point coefficients are not allowed")
                frac = Fraction(coeff)
                if not frac:
                    continue
                factors = []
                for name, exp in mono:
                    if isinstance(exp, float):
                        raise ScalarError("floating point exponents are not allowed")
                    name, exp = str(name), int(exp)
                    if not _NAME_RE.match(name):
                        raise ScalarError(f"bad constant name {name!r}")
                    if exp <= 0:
                        raise ScalarError("constant exponents must be positive")
                    factors.append((name, exp))
                stores.append(({((), _monomial(factors)): frac.numerator}, frac.denominator, 1))
        self._set(*_sum(stores))

    @classmethod
    def _of(cls, terms: dict, den: int) -> "Scalar":
        """The scalar of a store in lowest terms, keyed by ``((),
        monomial)`` with normal monomials, as every read of an integer
        store gives; nothing is checked."""
        out = object.__new__(cls)
        out.dom = out.cod = _NO_LETTERS
        return out._set(terms, den)

    @classmethod
    def rational(cls, p: int | Fraction, q: int = 1) -> "Scalar":
        if isinstance(p, float) or isinstance(q, float):
            raise ScalarError("floating point coefficients are not allowed")
        return cls({(): Fraction(p, q)})

    @classmethod
    def constant(cls, name: str, exponent: int = 1, coeff: int | Fraction = 1) -> "Scalar":
        return cls({((name, exponent),): coeff})

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls({(): _F1})

    @staticmethod
    def coerce(value: "ScalarLike") -> "Scalar":
        return value if isinstance(value, Scalar) else Scalar._of(*_coefficient(value))

    @property
    def is_rational(self) -> bool:
        return all(mono == () for _, mono in self._terms)

    def as_fraction(self) -> Fraction:
        """The plain rational value; raises if formal constants are present."""
        if not self._terms:
            return _F0
        if not self.is_rational:
            raise ScalarError("scalar carries formal constants")
        return Fraction(self._terms[_UNIT], self._den)

    def constants(self) -> set[str]:
        return {name for _, mono in self._terms for name, _ in mono}

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """(monomial, coefficient) pairs in monomial order."""
        den = self._den
        return sorted((mono, Fraction(v, den)) for (_, mono), v in self._terms.items())

    def __add__(self, other):
        return Ring.__add__(self, _rational(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Ring.__sub__(self, _rational(other))

    def __rsub__(self, other):
        return self.lincomb(((-1, self), (1, _rational(other))))

    # Only a scalar, int or Fraction operand scales a scalar; any other
    # ring's reflected product takes the rest.
    __mul__ = Ring.__rmul__

    def __truediv__(self, other):
        nums, den = _coefficient(other)
        if not nums:
            raise ScalarError("division by zero")
        if nums.keys() != {_UNIT}:
            raise ScalarError("division by a scalar with formal constants is unsupported")
        return self.scale(Fraction(den, nums[_UNIT]))

    def __eq__(self, other):
        return super().__eq__(_rational(other))

    def __hash__(self):
        # A rational scalar hashes as the number it equals.
        if self.is_rational:
            return hash(self.as_fraction())
        return super().__hash__()

    def __bool__(self):
        return bool(self._terms)


ScalarLike = Union[Scalar, int, Fraction]


def _coefficient(value: ScalarLike) -> tuple[dict, int]:
    """The integer store of a coefficient: a scalar's own, or an ``int``
    or ``Fraction`` read as a rational scalar's, with nothing built.  Do
    not modify it."""
    if isinstance(value, Scalar):
        return value._terms, value._den
    if isinstance(value, (int, Fraction)):
        return ({_UNIT: value.numerator} if value else {}), value.denominator
    raise ScalarError(f"cannot coerce {type(value).__name__} to Scalar")


def _rational(value):
    """An ``int`` or ``Fraction`` as the scalar of its store; any other
    value as it is."""
    return Scalar._of(*_coefficient(value)) if isinstance(value, (int, Fraction)) else value


class NCPoly(LinearCombination):
    """Finite linear combination of words with exact coefficients, over a
    fixed alphabet: a combination from the alphabet to itself."""

    __slots__ = ()
    _error = WordError

    def __init__(self, alphabet: Alphabet, terms=None):
        self.dom = self.cod = alphabet
        self._store(terms, self._checked)

    @property
    def alphabet(self) -> Alphabet:
        return self.dom

    def _checked(self, word: Iterable[str]) -> tuple[str, ...]:
        word = tuple(word)
        for letter in word:
            if letter not in self.dom._letter_set:
                raise WordError(f"unknown letter {letter!r}")
        return word

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet, {(): 1})

    @classmethod
    def letter(cls, alphabet: Alphabet, name: str) -> "NCPoly":
        return cls(alphabet, {(name,): 1})

    @classmethod
    def word(cls, alphabet: Alphabet, letters: Iterable[str], coeff: ScalarLike = 1) -> "NCPoly":
        return cls(alphabet, {tuple(letters): coeff})

    def degree(self) -> int | None:
        """Maximal word length, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(len(w) for w, _ in self._terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        lengths = {len(w) for w, _ in self._terms}
        if len(lengths) > 1:
            return False
        return degree is None or not lengths or lengths == {degree}


def commutator(p: NCPoly, q: NCPoly) -> NCPoly:
    """The ring commutator pq - qp."""
    return p * q - q * p


class WordEvaluator:
    """The image of a combination of words, one power of h at a time.

    Each word maps to the product of its letters' images, its first
    letter on the left, and the empty word to the ring one.  An image is
    an element of the ring of ``ring`` (a constant) or the list of the
    coefficients known so far of a series over that ring; a constant is
    a series whose only coefficient is at h^0.

    The sum is taken by Horner's rule over the last letter,
    ``sum c_w w = c_e + sum_a (sum c_ua u) a``, applied again to each
    quotient ``sum c_ua u``.  The quotients are the nodes of the words'
    suffix trie: the node of a suffix ``s`` is ``sum_b (c_bs + Q_bs) b``,
    where ``Q_bs`` is the node of ``bs`` when ``bs`` is a proper suffix
    of some word, and the image is the empty suffix's node.  Each node
    keeps its coefficients, and :meth:`extend` appends coefficient m to
    every node, the longest suffixes first.  A constant ``c_bs`` adds
    ``c_bs * image(b)[m]`` through ``lincomb``, with no product, and the
    products ``Q_bs[i] * image(b)[m - i]`` of a node make one ``dot``.
    So at h^0 there is one product per distinct proper nonempty suffix
    of the words, and its left factor is a quotient of lower degree, not
    a long prefix.  A unit is built only for an empty word.
    """

    def __init__(self, p: LinearCombination, images: Mapping[str, object], ring: Ring):
        self.ring = ring
        series = {b: img if isinstance(img, list) else [img] for b, img in images.items()}
        # The letters of the words whose images are series.
        self.series_images = [(b, images[b]) for b in sorted(p.support()) if isinstance(images[b], list)]
        # ends[s] pairs the coefficient of each word b + s with b's image;
        # inner[s] holds the letters b for which b + s is a proper suffix
        # of a word.
        ends: dict[tuple, list] = {(): []}
        inner: dict[tuple, dict] = {}
        for word, coeff in p.sorted_terms():
            ends.setdefault(word[1:], []).append((coeff, series[word[0]] if word else [ring.ring_one()]))
            for k in range(1, len(word)):
                inner.setdefault(word[k + 1:], {})[word[k]] = None
        values = {s: [] for s in (*ends, *inner)}
        self.image = values[()]
        self.nodes = [
            (values[s], ends.get(s, []), [(values[(b,) + s], series[b]) for b in inner.get(s, ())])
            for s in sorted(values, key=len, reverse=True)
        ]

    def extend(self, m: int) -> list:
        """Append the coefficient of h^m to every node and return the
        image's coefficients.  Every series image of a letter of the
        words must be known to h^m; a ValueError names the first that is
        not."""
        for b, img in self.series_images:
            if len(img) <= m:
                raise ValueError(f"the series image of {b!r} has {len(img)} coefficient(s); h^{m} needs {m + 1}")
        ring = self.ring
        for values, ends, below in self.nodes:
            pairs = [(c, img[m]) for c, img in ends if m < len(img)]
            if below:
                prod = ring.dot([(q[i], img[m - i]) for q, img in below
                                 for i in range(m + 1) if m - i < len(img)])
                # First, so that the merge keeps its rows where it can.
                pairs.insert(0, (1, prod))
            values.append(ring.lincomb(pairs))
        return self.image


def substitute(p: LinearCombination, images: Mapping[str, object]):
    """Apply the algebra homomorphism sending each letter to its image.

    Images are elements of one ring: polynomials over a common alphabet,
    scalars, square exact matrices of one size, or truncated series.  The
    sum is the h^0 coefficient of :class:`WordEvaluator` with every image
    a constant, whose docstring says how the words are summed.
    """
    missing = sorted(p.support() - set(images))
    if missing:
        raise WordError(f"missing image for letter(s) {', '.join(missing)}")
    for name, img in images.items():
        if not isinstance(img, Ring):
            raise WordError(f"image for {name!r} is not a ring element")
    if len({type(img) for img in images.values()}) > 1:
        raise WordError("substitution images live in different rings")
    if not images:
        # Constant polynomial: nothing to substitute.
        return p
    return WordEvaluator(p, images, next(iter(images.values()))).extend(0)[0]


# ---------------------------------------------------------------------------
# Canonical text form: shared rendering and parsing helpers.

def _frac_text(frac: Fraction) -> str:
    num, den = abs(frac.numerator), frac.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def _term_body(frac: Fraction, mono: Monomial) -> str:
    parts = []
    if frac.denominator != 1 or abs(frac.numerator) != 1 or not mono:
        parts.append(_frac_text(frac))
    for name, exp in mono:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    pieces = []
    for i, (negative, body) in enumerate(parts):
        if i == 0:
            pieces.append(("- " if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


_SEPARATOR_RE = re.compile(r" ([+-]) ")


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    text = text.strip()
    if not text:
        raise WordError("empty expression")
    sign = 1
    if text.startswith("- "):
        sign, text = -1, text[2:]
    # re.split keeps each separator's sign between the bodies it splits.
    pieces = _SEPARATOR_RE.split(text)
    signs = [sign] + [1 if op == "+" else -1 for op in pieces[1::2]]
    return list(zip(signs, pieces[::2]))


def _parse_term(body: str, alphabet: Alphabet, constants: tuple[str, ...]):
    factors = body.split("*")
    if not all(factors):
        raise WordError(f"malformed term {_echo(body, 'term')}")
    frac = _F1
    mono: list[tuple[str, int]] = []
    word: tuple[str, ...] | None = None
    m = _RATIONAL_RE.match(factors[0])
    rest = factors
    if m:
        num, den = m.group(1), m.group(2)
        try:
            frac = Fraction(int(num), int(den) if den else 1)
        except ZeroDivisionError:
            raise WordError(f"zero denominator in {_echo(body, 'term')}") from None
        rest = factors[1:]
    for factor in rest:
        if word is not None:
            raise WordError(f"word must be the last factor in {_echo(body, 'term')}")
        fm = _FACTOR_RE.match(factor)
        if fm and fm.group(1) in constants:
            exponent = int(fm.group(2) or 1)
            if not exponent:
                raise WordError(f"exponent 0 in {_echo(body, 'term')}; exponents are at least 1")
            mono.append((fm.group(1), exponent))
            continue
        letters = tuple(factor.split("."))
        if alphabet._letter_set.issuperset(letters):
            word = letters
            continue
        raise WordError(f"unknown factor {_echo(factor, 'factor')}")
    return frac, _monomial(mono), word or ()


def parse_scalar(text: str, constants: tuple[str, ...] = ("ipi",)) -> Scalar:
    """Parse the canonical scalar text form: a polynomial over no letters."""
    return parse_poly(text, _NO_LETTERS, constants).coeff(())


def parse_poly(text: str, alphabet: Alphabet, constants: tuple[str, ...] = ("ipi",)) -> NCPoly:
    """Parse the canonical polynomial text form over the given alphabet."""
    stores = []
    for sign, body in _split_signed_terms(text):
        # _parse_term checks the word's letters and puts the monomial in
        # normal form, so each term is a store as it is.
        frac, mono, word = _parse_term(body, alphabet, constants)
        stores.append(({(word, mono): sign * frac.numerator}, frac.denominator, 1))
    return NCPoly(alphabet)._set(*_sum(stores))


def _echo(value, noun: str) -> str:
    """How an error message names the input ``value``, a ``noun``: as
    written, or by its size if it is a string past 80 characters or an
    int past 64 bits, whose digits the interpreter may refuse to
    convert; a list or an object by its type."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"<{noun} of {value.bit_length()} bits>"
    if isinstance(value, str) and len(value) > 80:
        return f"<{noun} of {len(value)} characters>"
    if isinstance(value, (list, dict)):
        return f"<{noun} of type {type(value).__name__}>"
    return repr(value)


_ABSENT = object()


class Kept(dict):
    """What a process keeps between calls: at most ``bound`` values by
    key, the one used last at the end.  A caller reads a value through
    :meth:`keep`, which builds and keeps it when it is not kept; a build
    that raises keeps nothing.  A caller that works on a kept value pops
    it and hands it back through ``keep`` with that work as the build,
    so a value whose work raised is gone.  Past the bound, ``keep``
    forgets the entry used longest ago.  A kept value may be falsy, as a
    failed report is, and is kept all the same.
    """

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound

    def keep(self, key, build, *args):
        """The value kept for ``key``, made the newest, or ``build(*args)``
        kept as the newest."""
        value = self.pop(key, _ABSENT)
        if value is _ABSENT:
            value = build(*args)
        self[key] = value
        if len(self) > self.bound:
            del self[next(iter(self))]
        return value
