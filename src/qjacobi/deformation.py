"""Associator coefficient tables and the run-substitution map.

The degree-k coefficients of the associator series are homogeneous
noncommutative polynomials in two letters A, B.  :func:`alpha_word`
rewrites each word A^n1 B^m1 ... A^nj B^mj into the conjugated word
C^n1 Zinv D^m1 Z ... C^nj Zinv D^mj Z over four letters, and
:func:`alpha` each word of a polynomial; boundary runs may be empty,
which is what makes the map total on all words.  A last A-run with no
B-run after it (m_j = 0) becomes C^nj alone, as Zinv Z is 1, so every
emitted word is already cancelled: no other Z, Zinv pair ever meets.
Substituting a series and its inverse for Z, Zinv yields the degree-k
block G_k (:func:`make_Gk`).  The inductive engine evaluates E_k itself
at A = C, B = Zinv D Z, which is the same block.

Only the degree-2 coefficient, (1/24)(AB - BA), ships built in, read
once per process from ``data/builtin_table.json``.  Higher degrees are
supplied as data files because their closed forms depend on
normalization choices this package does not make; :class:`EkTable`
checks every table, once, where it is built.  :func:`load_table` reads
a table file on every call and parses it once per path and content: the
tables it parsed are kept in a :class:`~qjacobi.ncalg.Kept` store keyed
by (path, bytes), for :data:`CACHED_FILES` tables.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType

from . import jsontext
from .hseries import HSeries, SeriesError
from .ncalg import _NAME_RE, Alphabet, Kept, NCPoly, parse_poly, substitute

__all__ = [
    "AB_ALPHABET",
    "CDZ_ALPHABET",
    "EkTable",
    "TableError",
    "alpha",
    "alpha_word",
    "builtin_table",
    "dump_table",
    "load_table",
    "make_Gk",
    "parse_table",
]

AB_ALPHABET = Alphabet(("A", "B"))
CDZ_ALPHABET = Alphabet(("C", "D", "Z", "Zinv"))


class TableError(ValueError):
    """Unreadable or invalid coefficient table."""


def alpha_word(word: tuple[str, ...]) -> tuple[str, ...]:
    """The run substitution of one word over A, B: a word over C, D, Z, Zinv."""
    groups: list[tuple[str, int]] = []
    for letter in word:
        if groups and groups[-1][0] == letter:
            groups[-1] = (letter, groups[-1][1] + 1)
        else:
            groups.append((letter, 1))
    out: list[str] = []
    i = 0
    while i < len(groups):
        n = m = 0
        if groups[i][0] == "A":
            n = groups[i][1]
            i += 1
        if i < len(groups) and groups[i][0] == "B":
            m = groups[i][1]
            i += 1
        # A last A-run's Zinv Z is 1.
        out.extend(["C"] * n + ["Zinv"] + ["D"] * m + ["Z"] if m else ["C"] * n)
    return tuple(out)


def alpha(p: NCPoly) -> NCPoly:
    """Apply the run substitution to a polynomial over {A, B}."""
    if p.alphabet != AB_ALPHABET:
        raise TableError("alpha expects a polynomial over the letters A, B")
    terms = [(alpha_word(word), coeff) for word, coeff in p.sorted_terms()]
    return NCPoly(CDZ_ALPHABET, terms)


@dataclass(frozen=True)
class EkTable:
    """Degree -> homogeneous polynomial over {A, B}, with provenance notes.

    Built valid or not at all: a degree below 2, or an entry not over A, B
    or not homogeneous of its degree, raises :class:`TableError` naming
    each problem.  The entries and notes are read-only views of copies."""

    entries: Mapping[int, NCPoly] = field(default_factory=dict)
    provenance: Mapping[int, str] = field(default_factory=dict)
    constants: tuple[str, ...] = ("ipi",)
    source: str = "custom"

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        object.__setattr__(self, "provenance", MappingProxyType(dict(self.provenance)))
        problems = []
        for k, poly in sorted(self.entries.items()):
            if k < 2:
                problems.append(f"degree {k} below the minimum degree 2")
            if poly.alphabet != AB_ALPHABET:
                problems.append(f"degree {k} entry is not over the letters A, B")
                continue
            if not poly.is_homogeneous(k):
                problems.append(
                    f"degree {k} entry is not homogeneous of word length {k}: {poly.to_text()}"
                )
        if problems:
            raise TableError("; ".join(problems))

    def degrees(self) -> list[int]:
        return sorted(k for k, p in self.entries.items() if not p.is_zero)

    def missing_below_max(self) -> list[int]:
        """The degrees from 2 up to the top nonzero one with no nonzero
        entry.  That entry spells as many letters as its degree, so the
        list is bounded by the size of the input."""
        degrees = self.degrees()
        present = set(degrees)
        return [k for k in range(2, degrees[-1]) if k not in present] if degrees else []

    def entry(self, k: int) -> NCPoly:
        try:
            return self.entries[k]
        except KeyError:
            raise TableError(f"table {self.source!r} has no degree-{k} entry") from None


@functools.cache
def builtin_table() -> EkTable:
    """The built-in table, (1/24)(AB - BA) at degree 2 alone: its shipped
    file, parsed on first use and shared by every later call."""
    return parse_table(builtin_table_text(), source="builtin")


def parse_table(text: str | bytes, source: str = "custom") -> EkTable:
    try:
        doc = jsontext.loads(text)
    except jsontext.DuplicateKeyError as exc:
        raise TableError(f"{exc} in table document") from None
    except jsontext.DocumentError as exc:
        raise TableError(f"cannot parse table: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), dict):
        raise TableError("table document needs an 'entries' object")
    notes = doc.get("provenance", {})
    if not isinstance(notes, dict):
        raise TableError("'provenance' must be an object")
    extra = doc.get("constants", [])
    if not isinstance(extra, list) or not all(isinstance(c, str) and _NAME_RE.match(c) for c in extra):
        raise TableError("'constants' must be a list of constant names")
    shadowed = sorted(set(extra) & set(AB_ALPHABET.letters))
    if shadowed:
        raise TableError(f"constant name(s) {', '.join(shadowed)} shadow letters of the table")
    constants = tuple(extra) + ("ipi",)
    entries: dict[int, NCPoly] = {}
    provenance: dict[int, str] = {}
    for key, value in doc["entries"].items():
        try:
            degree = int(key)
        except ValueError:
            degree = None
        if degree is None or str(degree) != key:
            raise TableError(f"bad degree key {key!r}: degrees are written as plain decimal integers")
        if not isinstance(value, str):
            raise TableError(f"degree {degree}: entry must be canonical polynomial text")
        try:
            entries[degree] = parse_poly(value, AB_ALPHABET, constants)
        except ValueError as exc:
            raise TableError(f"degree {degree}: {exc}") from exc
        provenance[degree] = str(notes.get(key, f"{source} entry"))
    return EkTable(entries, provenance, constants, source)


CACHED_FILES = 8
_tables = Kept(CACHED_FILES)


def load_table(path_or_name: str) -> EkTable:
    """Load a table from a JSON file, or the built-in one by name.

    The file is read on every call, so a missing or rewritten file is
    always seen.  The same bytes read again from the same path give the
    table kept for them, frozen and shared, without a second parse.  A
    file that fails to parse is never kept."""
    if path_or_name == "builtin":
        return builtin_table()
    try:
        with open(path_or_name, "rb") as handle:
            text = handle.read()
    except OSError as exc:
        raise TableError(f"cannot read table file: {exc}") from exc
    key = (str(path_or_name), text)
    table = _tables.take(key)
    return _tables.put(key, parse_table(text, source=key[0]) if table is None else table)


def dump_table(table: EkTable) -> str:
    """Canonical JSON serialization; byte-stable for golden files."""
    doc = {
        "constants": [c for c in table.constants if c != "ipi"],
        "entries": {str(k): table.entries[k].to_text() for k in sorted(table.entries)},
        "provenance": {str(k): table.provenance.get(k, "") for k in sorted(table.entries)},
    }
    return jsontext.dumps(doc)


def builtin_table_text() -> str:
    """The shipped file of the built-in table, in :func:`dump_table`'s
    canonical form."""
    return resources.files("qjacobi.data").joinpath("builtin_table.json").read_text("utf-8")


def make_Gk(
    table: EkTable,
    k: int,
    Z_image: HSeries,
    Zinv_image: HSeries,
    C_image: NCPoly,
    D_image: NCPoly,
) -> HSeries:
    """Substitute the conjugator pair and Casimir letters into alpha(E_k),
    known to the weaker order of the pair; C and D enter as constant
    series."""
    entry = table.entry(k)
    order = min(Z_image.order, Zinv_image.order)
    Z_image, Zinv_image = Z_image.truncate(order), Zinv_image.truncate(order)
    unit = HSeries.unit(Z_image.coeffs[0], order)
    if Z_image * Zinv_image != unit or Zinv_image * Z_image != unit:
        raise SeriesError("Z and Zinv images are not mutually inverse at the working order")
    images = {
        "Z": Z_image,
        "Zinv": Zinv_image,
        "C": HSeries.constant(C_image, order),
        "D": HSeries.constant(D_image, order),
    }
    return substitute(alpha(entry), images)

