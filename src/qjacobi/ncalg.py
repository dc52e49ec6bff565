"""Exact scalars and the free algebra of noncommutative words.

Coefficients are rational numbers, optionally multiplied by monomials in
named formal constants (``ipi`` stands for the product of the imaginary
unit and pi).  Keeping such constants symbolic makes every identity in
the package an equality of exact rational data; nothing is evaluated in
floating point anywhere.

Words live in the free monoid over a declared :class:`Alphabet`.  Letter
pairs declared mutually inverse cancel eagerly, so every stored word is
reduced and the textual form of a polynomial is canonical: terms are
ordered length-first, then by letter index, and serialize as
``coeff*letter.letter`` chains, e.g. ``1/24*O12.O23 - 1/24*O23.O12``.
That text form is the interchange format used by every other module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = [
    "Alphabet",
    "NCPoly",
    "Scalar",
    "ScalarError",
    "WordError",
    "commutator",
    "parse_poly",
    "parse_scalar",
    "scalar_arith",
    "substitute",
    "word_reduce",
]


class ScalarError(ArithmeticError):
    """Unsupported exact-scalar arithmetic, e.g. division by a scalar
    that is not a nonzero plain rational."""


class WordError(ValueError):
    """Malformed alphabet, unknown letter, or unparsable text form."""


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RATIONAL_RE = re.compile(r"(\d+)(?:/(\d+))?\Z")
_FACTOR_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(\d+))?\Z")

# A monomial in formal constants: (("ipi", 2),), sorted by name, exponents > 0.
Monomial = tuple

_F0 = Fraction(0)
_F1 = Fraction(1)


def _as_scalar(value) -> "Scalar | None":
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar({(): Fraction(value)})
    return None


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[str, int] = {}
    for name, e in a:
        exps[name] = exps.get(name, 0) + e
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


class Scalar:
    """Exact scalar: a rational linear combination of constant monomials.

    The empty monomial carries the plain rational part.  Normal form
    stores no zero coefficients, so equality and hashing are structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        data: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if isinstance(coeff, float):
                    raise ScalarError("floating point coefficients are not allowed")
                frac = Fraction(coeff)
                if not frac:
                    continue
                norm = tuple(sorted((str(n), int(e)) for n, e in mono))
                for name, exp in norm:
                    if not _NAME_RE.match(name):
                        raise ScalarError(f"bad constant name {name!r}")
                    if exp <= 0:
                        raise ScalarError("constant exponents must be positive")
                data[norm] = data.get(norm, _F0) + frac
        self._terms = {m: c for m, c in data.items() if c}

    @classmethod
    def rational(cls, p: int | Fraction, q: int = 1) -> "Scalar":
        return cls({(): Fraction(p, q)})

    @classmethod
    def constant(cls, name: str, exponent: int = 1, coeff: int | Fraction = 1) -> "Scalar":
        return cls({((name, exponent),): Fraction(coeff)})

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls({(): _F1})

    @staticmethod
    def coerce(value: "ScalarLike") -> "Scalar":
        coerced = _as_scalar(value)
        if coerced is None:
            raise ScalarError(f"cannot coerce {type(value).__name__} to Scalar")
        return coerced

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_rational(self) -> bool:
        return all(m == () for m in self._terms)

    def as_fraction(self) -> Fraction:
        """The plain rational value; raises if formal constants are present."""
        if not self._terms:
            return _F0
        if not self.is_rational:
            raise ScalarError("scalar carries formal constants")
        return self._terms[()]

    def constants(self) -> set[str]:
        return {name for mono in self._terms for name, _ in mono}

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self._terms.items())

    def __add__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            data[mono] = data.get(mono, _F0) + coeff
        return Scalar(data)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Scalar({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        other = _as_scalar(other)
        if other is None:
            return NotImplemented
        data: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = _mono_mul(ma, mb)
                data[mono] = data.get(mono, _F0) + ca * cb
        return Scalar(data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Scalar.coerce(other)
        if other.is_zero:
            raise ScalarError("division by zero")
        if not other.is_rational:
            raise ScalarError("division by a scalar with formal constants is unsupported")
        q = other._terms[()]
        return Scalar({m: c / q for m, c in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # A rational scalar hashes as the number it equals.
        if self.is_rational:
            return hash(self.as_fraction())
        return hash(tuple(self.sorted_terms()))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"Scalar({self.to_text()})"

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = [(coeff < 0, _term_body(coeff, mono, ())) for mono, coeff in self.sorted_terms()]
        return _join_signed(parts)


ScalarLike = Union[Scalar, int, Fraction]


def scalar_arith(a: ScalarLike, b: ScalarLike, op: str) -> Scalar:
    """Dispatch exact scalar arithmetic by operation name."""
    a, b = Scalar.coerce(a), Scalar.coerce(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown scalar operation {op!r}")


@dataclass(frozen=True)
class Alphabet:
    """Ordered letter names, plus letter pairs declared mutually inverse."""

    letters: tuple[str, ...]
    inverse_pairs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if len(set(self.letters)) != len(self.letters):
            raise WordError("duplicate letters in alphabet")
        for name in self.letters:
            if not _NAME_RE.match(name):
                raise WordError(f"bad letter name {name!r}")
        paired: dict[str, str] = {}
        for z, zinv in self.inverse_pairs:
            if z == zinv:
                raise WordError(f"letter {z!r} cannot be its own inverse")
            for name in (z, zinv):
                if name not in self.letters:
                    raise WordError(f"inverse pair uses unknown letter {name!r}")
                if name in paired:
                    raise WordError(f"letter {name!r} appears in more than one inverse pair")
            paired[z] = zinv
            paired[zinv] = z
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.letters)})
        object.__setattr__(self, "_inverse", paired)

    def index(self, letter: str) -> int:
        try:
            return self._index[letter]
        except KeyError:
            raise WordError(f"unknown letter {letter!r}") from None

    def inverse_of(self, letter: str) -> str | None:
        return self._inverse.get(letter)

    def word_key(self, word: tuple[str, ...]):
        return (len(word), tuple(self._index[x] for x in word))


def word_reduce(seq: Iterable[str], alphabet: Alphabet) -> tuple[str, ...]:
    """Reduce a letter sequence by cancelling adjacent inverse pairs.

    The two-letter cancellation system is locally confluent, so a single
    stack scan yields the unique normal form regardless of the order in
    which cancellations are discovered.
    """
    out: list[str] = []
    for letter in seq:
        if letter not in alphabet._index:
            raise WordError(f"unknown letter {letter!r}")
        if out and alphabet.inverse_of(letter) == out[-1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _concat_reduced(w1: tuple[str, ...], w2: tuple[str, ...], alphabet: Alphabet) -> tuple[str, ...]:
    # Both inputs are reduced, so cancellation only happens at the seam.
    i, j = len(w1), 0
    while i > 0 and j < len(w2) and alphabet.inverse_of(w2[j]) == w1[i - 1]:
        i -= 1
        j += 1
    return w1[:i] + w2[j:]


class NCPoly:
    """Finite linear combination of reduced words with :class:`Scalar`
    coefficients, over a fixed alphabet."""

    __slots__ = ("alphabet", "_terms")

    def __init__(self, alphabet: Alphabet, terms=None):
        self.alphabet = alphabet
        data: dict[tuple[str, ...], Scalar] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for word, coeff in items:
                scal = Scalar.coerce(coeff)
                if scal.is_zero:
                    continue
                red = word_reduce(word, alphabet)
                prev = data.get(red)
                merged = scal if prev is None else prev + scal
                if merged.is_zero:
                    data.pop(red, None)
                else:
                    data[red] = merged
        self._terms = data

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet, {(): Scalar.one()})

    @classmethod
    def letter(cls, alphabet: Alphabet, name: str) -> "NCPoly":
        return cls(alphabet, {(name,): Scalar.one()})

    @classmethod
    def word(cls, alphabet: Alphabet, letters: Iterable[str], coeff: ScalarLike = 1) -> "NCPoly":
        return cls(alphabet, {tuple(letters): Scalar.coerce(coeff)})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coeff(self, word: Iterable[str]) -> Scalar:
        return self._terms.get(tuple(word), Scalar.zero())

    def support(self) -> set[str]:
        return {letter for word in self._terms for letter in word}

    def sorted_terms(self) -> list[tuple[tuple[str, ...], Scalar]]:
        return sorted(self._terms.items(), key=lambda kv: self.alphabet.word_key(kv[0]))

    def degree(self) -> int | None:
        """Maximal word length, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(len(w) for w in self._terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if not self._terms:
            return True
        lengths = {len(w) for w in self._terms}
        if len(lengths) != 1:
            return False
        return degree is None or lengths == {degree}

    def _require_same_alphabet(self, other: "NCPoly"):
        if self.alphabet != other.alphabet:
            raise WordError("alphabet mismatch")

    def __add__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._require_same_alphabet(other)
        data = dict(self._terms)
        for word, coeff in other._terms.items():
            merged = data.get(word, Scalar.zero()) + coeff
            if merged.is_zero:
                data.pop(word, None)
            else:
                data[word] = merged
        out = NCPoly(self.alphabet)
        out._terms = data
        return out

    def __sub__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        out = NCPoly(self.alphabet)
        out._terms = {w: -c for w, c in self._terms.items()}
        return out

    def scale(self, factor: ScalarLike) -> "NCPoly":
        factor = Scalar.coerce(factor)
        out = NCPoly(self.alphabet)
        if factor.is_zero:
            return out
        data = {}
        for word, coeff in self._terms.items():
            merged = coeff * factor
            if not merged.is_zero:
                data[word] = merged
        out._terms = data
        return out

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        self._require_same_alphabet(other)
        data: dict[tuple[str, ...], Scalar] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = _concat_reduced(w1, w2, self.alphabet)
                merged = data.get(word, Scalar.zero()) + c1 * c2
                if merged.is_zero:
                    data.pop(word, None)
                else:
                    data[word] = merged
        out = NCPoly(self.alphabet)
        out._terms = data
        return out

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.alphabet == other.alphabet and self._terms == other._terms

    def __hash__(self):
        return hash((self.alphabet, tuple(sorted(self._terms.items()))))

    def __repr__(self):
        return f"NCPoly({self.to_text()})"

    # Ring protocol used by hseries coefficients.
    def ring_one(self) -> "NCPoly":
        return NCPoly.one(self.alphabet)

    def ring_zero(self) -> "NCPoly":
        return NCPoly.zero(self.alphabet)

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for word, scal in self.sorted_terms():
            for mono, frac in scal.sorted_terms():
                parts.append((frac < 0, _term_body(frac, mono, word)))
        return _join_signed(parts)


def commutator(p: NCPoly, q: NCPoly) -> NCPoly:
    """The ring commutator pq - qp."""
    return p * q - q * p


def substitute(p: NCPoly, images: Mapping[str, object]):
    """Apply the algebra homomorphism sending each letter to its image.

    Images may be :class:`NCPoly` over a common target alphabet, or
    truncated series; mixing the two coerces polynomials to constant
    series and truncates everything to the weakest order.
    """
    from .hseries import HSeries

    missing = sorted(p.support() - set(images))
    if missing:
        raise WordError(f"missing image for letter(s) {', '.join(missing)}")
    used = dict(images)

    series = {k: v for k, v in used.items() if isinstance(v, HSeries)}
    if series:
        order = min(s.order for s in series.values())
        exemplar = next(iter(series.values())).coeffs[0]
        unit = HSeries.constant(exemplar.ring_one(), order)
        imgs = {}
        for name, img in used.items():
            if isinstance(img, HSeries):
                imgs[name] = img.truncate(order)
            elif isinstance(img, NCPoly):
                imgs[name] = HSeries.constant(img, order)
            else:
                raise WordError(f"image for {name!r} is neither NCPoly nor HSeries")
        acc = unit.scale(Scalar.zero())
        for word, coeff in p._terms.items():
            prod = unit
            for letter in word:
                prod = prod * imgs[letter]
            acc = acc + prod.scale(coeff)
        return acc

    target = None
    for name, img in used.items():
        if not isinstance(img, NCPoly):
            raise WordError(f"image for {name!r} is neither NCPoly nor HSeries")
        if target is None:
            target = img.alphabet
        elif img.alphabet != target:
            raise WordError("substitution images live over different alphabets")
    if target is None:
        # Constant polynomial: nothing to substitute.
        return p
    acc = NCPoly.zero(target)
    unit = NCPoly.one(target)
    for word, coeff in p._terms.items():
        prod = unit
        for letter in word:
            prod = prod * used[letter]
        acc = acc + prod.scale(coeff)
    return acc


# ---------------------------------------------------------------------------
# Canonical text form: shared rendering and parsing helpers.

def _frac_text(frac: Fraction) -> str:
    frac = abs(frac)
    return str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def _term_body(frac: Fraction, mono: Monomial, word: tuple[str, ...]) -> str:
    parts = []
    if abs(frac) != 1 or (not mono and not word):
        parts.append(_frac_text(frac))
    for name, exp in mono:
        parts.append(name if exp == 1 else f"{name}^{exp}")
    if word:
        parts.append(".".join(word))
    return "*".join(parts)


def _join_signed(parts: list[tuple[bool, str]]) -> str:
    pieces = []
    for i, (negative, body) in enumerate(parts):
        if i == 0:
            pieces.append(("- " if negative else "") + body)
        else:
            pieces.append((" - " if negative else " + ") + body)
    return "".join(pieces)


def _split_signed_terms(text: str) -> list[tuple[int, str]]:
    text = text.strip()
    if not text:
        raise WordError("empty expression")
    sign = 1
    if text.startswith("- "):
        sign, text = -1, text[2:]
    terms = []
    start = 0
    i = 0
    while i < len(text):
        if text.startswith(" + ", i) or text.startswith(" - ", i):
            terms.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            i += 3
            start = i
        else:
            i += 1
    terms.append((sign, text[start:]))
    return terms


def _parse_term(body: str, alphabet: Alphabet | None, constants: tuple[str, ...]):
    factors = body.split("*")
    if not all(factors):
        raise WordError(f"malformed term {body!r}")
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
            raise WordError(f"zero denominator in {body!r}") from None
        rest = factors[1:]
    for factor in rest:
        if word is not None:
            raise WordError(f"word must be the last factor in {body!r}")
        fm = _FACTOR_RE.match(factor)
        if fm and fm.group(1) in constants:
            mono.append((fm.group(1), int(fm.group(2) or 1)))
            continue
        if alphabet is not None:
            letters = tuple(factor.split("."))
            if all(l in alphabet._index for l in letters):
                word = letters
                continue
        raise WordError(f"unknown factor {factor!r}")
    exps: dict[str, int] = {}
    for name, e in mono:
        exps[name] = exps.get(name, 0) + e
    return frac, tuple(sorted(exps.items())), word or ()


def parse_scalar(text: str, constants: tuple[str, ...] = ("ipi",)) -> Scalar:
    """Parse the canonical scalar text form."""
    if text.strip() == "0":
        return Scalar.zero()
    data: dict[Monomial, Fraction] = {}
    for sign, body in _split_signed_terms(text):
        frac, mono, word = _parse_term(body, None, constants)
        if word:
            raise WordError(f"unexpected word in scalar {text!r}")
        data[mono] = data.get(mono, _F0) + sign * frac
    return Scalar(data)


def parse_poly(text: str, alphabet: Alphabet, constants: tuple[str, ...] = ("ipi",)) -> NCPoly:
    """Parse the canonical polynomial text form over the given alphabet."""
    if text.strip() == "0":
        return NCPoly.zero(alphabet)
    terms = []
    for sign, body in _split_signed_terms(text):
        frac, mono, word = _parse_term(body, alphabet, constants)
        terms.append((word, Scalar({mono: sign * frac})))
    return NCPoly(alphabet, terms)
