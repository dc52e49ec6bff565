"""Typed conjugation rewriting for the deformed identities.

Quantum-side morphism expressions are normalized into sums of terms
``conjugators . X(classical polynomial) . conjugators`` by a fixed,
directed rule set:

* R1 expands each deformed generator by its definition through the
  two-site conjugator ``Mvv`` (and the associator pair through the
  three-site conjugators ``M``, ``N``);
* R2 lifts tensored generators at exactly the instances the diagram
  arguments use: ``f (x) 1`` conjugates through ``N``, ``1 (x) f``
  through ``M``, and the bracket composites fuse directly into image
  blocks;
* R3 cancels adjacent inverse conjugators;
* R4 merges adjacent image blocks by composing their polynomials.

Equality of two normal forms is then discharged by directed classical
rules (antisymmetry ``3.1``, the Jacobi form ``3.2``, the braid relation
``3.3`` and flip involutivity ``sigma_sq``) applied inside the image
blocks, with every consumed rule reported.  The braiding generator is an
h-series object, so its defining relation is checked at the series layer
(:func:`verify_identity` with ``sigma_h_def``) rather than in the h-free
fragment.

An expression (:class:`MorphTerm`) is a typed, flat list of
``(coefficient, factors)`` terms: ``compose`` multiplies its parts' term
lists left to right and ``morph_sum`` concatenates them, so terms keep
their construction order.  Every expression goes between objects, and
``compose`` checks only that they meet.  A ``T_h`` lift has the type of
``T_h (x) 1``, from ``Vh^3`` to ``Vh^2``; it has a normal form only when
fused under ``T_h``, which normalization enforces.

Every rewrite step, structural or classical, is found by one search
(``_first_match``): the leftmost position where any rule applies, the
rules tried in table order there.  Normalization, the completeness check
of trace replay and the classical discharge (at the first term, in
canonical order, that a rule applies to) all step that way.  The rules
are filed by the head of the factor a match starts at (a quantum
factor's kind, a classical atom itself), in table order, so a position
tries only the rules that can start there; a rule whose head differs
cannot match, so the step found is still the leftmost position, then the
first rule in table order.  After a rewrite at ``pos``, normalization
resumes the term's search at ``pos - (w - 1)``, where ``w`` is the widest
window any rule reads: no rule matched further left, and a match there
would read only factors left of ``pos``, which the rewrite did not
change.  Every normalization records a replayable trace of (term, rule,
position) steps, where term is an index into that list, capped by a step
budget so failure is observable instead of divergent.

A sum of products of normal forms, such as one coefficient of a series
product, is concatenated and merged, then normalized once.  Rewriting
acts term by term and only scales a term's coefficient, so the normal
form of a sum is the sum of the normal forms.

A term's rewriting depends on its factors alone: a coefficient
multiplier, its normal factors and its (rule, position) steps.  So a
process keeps that result in a :class:`~qjacobi.ncalg.Kept` store keyed
by the factors tuple, for :data:`KEPT_TERMS` terms, and every
normalization reads it there: :func:`normalize_traced`,
:meth:`TransportElement.dot` and the classical discharge.  A call
labels a kept term's steps with the term's index in its own list and
counts them against ``STEP_BUDGET`` as read when it runs, so its trace,
and the step at which it runs out of budget, are those of a call that
rewrites every term afresh.  A term that fails, out of budget or with a
generator or lift no rule eliminates, raises before it is kept.  The
5.1 claims repeat terms most: each word of an entry has one claim, built
from the word's :func:`~qjacobi.deformation.alpha_word` image, and the
entry's assembled claim is the weighted sum of those claims' sides, so
it rewrites by lookups.  A table with no nonzero entries has no degree
to check, and its 5.1 claims pass vacuously.

A report reads only its identity, the table's content (the nonzero
``(degree, entry)`` pairs) for 5.1a and 5.1b, the order for
``sigma_h_def`` and ``STEP_BUDGET``.  So :func:`verify_identity` keeps
each report in a :class:`~qjacobi.ncalg.Kept` store keyed by exactly
those, as read when it runs, for :data:`KEPT_REPORTS` reports; a check
that raises keeps nothing, and a lowered budget keys its own reports,
so it fails where a fresh process does.  A kept report is
shared: :class:`IdentityReport` is frozen, holds tuples and read-only
mappings, and its ``to_json`` builds fresh lists and dicts.  A repeated
request thus rewrites, discharges and renders no claim; a first one for
a table still builds its claims' stores.

The unit object and the single tensor site are identified with their
images outright, which is how the deformed Casimir tensor ``t_h`` types
at all; it normalizes through the two-site conjugator but no verified
identity consumes it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import MappingProxyType

from .deformation import CACHED_FILES, alpha_word, builtin_table
from .hseries import HSeries
from .ncalg import Kept, LinearCombination, Scalar, ScalarLike

__all__ = [
    "ClassicalPoly",
    "IdentityReport",
    "MorphTerm",
    "TransportElement",
    "TransportError",
    "compose",
    "gen",
    "identity_on",
    "lift",
    "morph_sum",
    "normalize",
    "normalize_traced",
    "replay_trace",
    "scale",
    "series_degree_expressions",
    "verify_identity",
    "xblock",
]

# The step budget of every rewrite loop, read each time one runs.
STEP_BUDGET = 10_000

# Objects: "u" is the unit, ("q", k) the k-fold deformed tensor power,
# ("x", k) the image of the k-fold classical tensor power.
UNIT = "u"


def q_obj(k: int):
    return UNIT if k == 0 else ("q", k)


def x_obj(k: int):
    # The unit and the single site need no tensor structure, so their
    # image objects are identified with the deformed objects outright.
    if k == 0:
        return UNIT
    if k == 1:
        return ("q", 1)
    return ("x", k)


def _obj_text(obj) -> str:
    if obj == UNIT:
        return "1"
    kind, k = obj
    return f"Vh^{k}" if kind == "q" else f"X(V^{k})"


class TransportError(ValueError):
    """Unsupported generator or object, a typing mismatch, or an
    exhausted rewrite budget."""


# -- classical polynomials ---------------------------------------------------

# atom name -> (domain tensor power, codomain tensor power)
CLASSICAL_ATOMS = {
    "T": (2, 1),
    "sig": (2, 2),
    "Om": (2, 2),
    "tcas": (0, 2),
    "T1": (3, 2),
    "T2": (3, 2),
    "sig12": (3, 3),
    "sig23": (3, 3),
    "Om12": (3, 3),
    "Om23": (3, 3),
}


def _word_type(word: tuple[str, ...]) -> tuple[int, int]:
    dom = cod = None
    for pos, atom in enumerate(word):
        if atom not in CLASSICAL_ATOMS:
            raise TransportError(f"unknown classical atom {atom!r}")
        a_dom, a_cod = CLASSICAL_ATOMS[atom]
        if cod is None:
            cod = a_cod
        elif dom != a_cod:
            raise TransportError(f"classical word {'.'.join(word)} breaks at position {pos}")
        dom = a_dom
    return dom, cod


class ClassicalPoly(LinearCombination):
    """A polynomial of typed classical composition words, from the
    ``dom``-fold to the ``cod``-fold tensor power: every word has that
    type, and the empty word needs ``dom == cod``."""

    __slots__ = ()
    _error = TransportError

    def __init__(self, dom: int, cod: int, terms=None):
        self.dom = dom
        self.cod = cod
        self._store(terms, self._typed)

    def _typed(self, word: Sequence[str]) -> tuple[str, ...]:
        word = tuple(word)
        if word:
            w_dom, w_cod = _word_type(word)
            if (w_dom, w_cod) != (self.dom, self.cod):
                raise TransportError(
                    f"word {'.'.join(word)} has type {w_dom}->{w_cod}, expected {self.dom}->{self.cod}"
                )
        elif self.dom != self.cod:
            raise TransportError("the empty word needs equal domain and codomain")
        return word

    @classmethod
    def atom(cls, name: str, coeff: ScalarLike = 1) -> "ClassicalPoly":
        return cls.word((name,), coeff)

    @classmethod
    def word(cls, atoms: Sequence[str], coeff: ScalarLike = 1) -> "ClassicalPoly":
        dom, cod = _word_type(tuple(atoms))
        return cls(dom, cod, {tuple(atoms): coeff})

    @classmethod
    def one(cls, k: int) -> "ClassicalPoly":
        return cls(k, k, {(): 1})

    def scalar_part(self) -> Scalar | None:
        """The scalar c if the polynomial is c times the identity word."""
        if self.dom != self.cod or any(word for word, _ in self._terms):
            return None
        return self.coeff(())


# Directed classical rules: name, pattern, replacement terms (sign, word).
CLASSICAL_RULES: list[tuple[str, tuple[str, ...], list[tuple[int, tuple[str, ...]]]]] = [
    ("3.1", ("T", "sig"), [(-1, ("T",))]),
    ("3.1", ("T1", "sig12"), [(-1, ("T1",))]),
    ("3.1", ("T2", "sig23"), [(-1, ("T2",))]),
    ("sigma_sq", ("sig", "sig"), [(1, ())]),
    ("sigma_sq", ("sig12", "sig12"), [(1, ())]),
    ("sigma_sq", ("sig23", "sig23"), [(1, ())]),
    ("3.2", ("T", "T1"), [(1, ("T", "T2")), (-1, ("T", "T2", "sig12"))]),
    ("3.3", ("sig12", "sig23", "sig12"), [(1, ("sig23", "sig12", "sig23"))]),
]


_ONE = Scalar.one()


def _run_matcher(run: tuple, replacement: tuple):
    """The matcher of a rule that replaces one fixed run: (consumed,
    replacement, coefficient multiplier) where the run starts, else None."""

    def match(factors: tuple, pos: int):
        if factors[pos : pos + len(run)] == run:
            return len(run), replacement, _ONE
        return None

    return match


def _rule_table(rules, head):
    """The search table of ``(name, matcher, head)`` rules: ``(by_head,
    head)``, where ``by_head`` maps a head to the (name, matcher) pairs of
    the rules whose matches start at a factor with that head, in table
    order, and ``head`` maps a factor to its head."""
    by_head: dict = {}
    for name, matcher, key in rules:
        by_head.setdefault(key, []).append((name, matcher))
    return {key: tuple(pairs) for key, pairs in by_head.items()}, head


def _first_match(factors: tuple, table, start: int = 0):
    """The one rule search: (rule name, pos, match) for the leftmost
    position from ``start`` on where any rule of the table applies,
    trying them in table order there, or None.

    At each position only the rules filed under the factor's head are
    tried.  A rule matches only where its first factor has the rule's
    head, and each head's rules keep their table order, so the step found
    is the one a trial of every rule at every position would find: the
    leftmost position, then the first rule in table order.  A caller
    passes a ``start`` above 0 only where it knows that no rule applies
    further left: normalization resumes a term's search ``w - 1``
    positions left of its last rewrite, ``w`` the widest window a rule
    reads, since a match starting further left would read only factors
    the rewrite left unchanged, where none applied before."""
    by_head, head = table
    for pos in range(start, len(factors)):
        for name, matcher in by_head.get(head(factors[pos]), ()):
            match = matcher(factors, pos)
            if match is not None:
                return name, pos, match
    return None


def _atom(atom: str) -> str:
    return atom


# A classical word's factors are its atoms, and an atom is its own head.
# Names repeat (three 3.1 runs), so the table keeps (name, matcher) pairs.
_CLASSICAL_TABLE = _rule_table(
    [(name, _run_matcher(run, rhs), run[0]) for name, run, rhs in CLASSICAL_RULES], _atom
)


def classical_normalize(poly: ClassicalPoly):
    """Rewrite to a fixpoint of the directed classical rules, each step at
    the first term, in canonical order, that a rule applies to.

    Returns (normal form, steps, names of rules used); each step is
    (rule name, word text, position).
    """
    steps: list[tuple[str, str, int]] = []
    used: set[str] = set()
    current = poly
    while True:
        # The words in canonical order; only the rewritten term's
        # coefficient is read off the store.
        for word in sorted({word for word, _ in current._terms}, key=ClassicalPoly._word_key):
            found = _first_match(word, _CLASSICAL_TABLE)
            if found is not None:
                break
        else:
            return current, steps, used
        if len(steps) >= STEP_BUDGET:
            raise TransportError("classical rewrite budget exhausted")
        coeff = current.coeff(word)
        name, pos, (consumed, replacement, _) = found
        steps.append((name, ".".join(word) if word else "1", pos))
        used.add(name)
        # The matched term, replaced by the rule's signed words.
        step = [(word, -coeff)] + [
            (word[:pos] + rhs + word[pos + consumed :], coeff * sign) for sign, rhs in replacement
        ]
        current = current + ClassicalPoly(current.dom, current.cod, step)


# -- quantum factors and terms ------------------------------------------------

QUANTUM_GENS = {
    "T_h": (q_obj(2), q_obj(1)),
    "sigma_h": (q_obj(2), q_obj(2)),
    "Omega_h": (q_obj(2), q_obj(2)),
    "t_h": (UNIT, q_obj(2)),
    "psi": (q_obj(3), q_obj(3)),
    "psi_inv": (q_obj(3), q_obj(3)),
}

LIFT_SUGAR = {
    "sigma_h_12": ("sigma_h", "left"),
    "sigma_h_23": ("sigma_h", "right"),
    "Omega_h_12": ("Omega_h", "left"),
    "Omega_h_23": ("Omega_h", "right"),
}

CONJUGATORS = {"M": 3, "N": 3, "Mvv": 2}

_LIFTABLE = {"sigma_h", "Omega_h", "T_h"}


def _factor_type(factor):
    kind = factor[0]
    if kind == "c":
        _, name, sign = factor
        k = CONJUGATORS[name]
        return (q_obj(k), x_obj(k)) if sign > 0 else (x_obj(k), q_obj(k))
    if kind == "X":
        poly = factor[1]
        return (x_obj(poly.dom), x_obj(poly.cod))
    if kind == "g":
        return QUANTUM_GENS[factor[1]]
    if kind == "l":
        # A lift has the type of f (x) 1; the T_h lift has a normal form
        # only fused under T_h, which normalization enforces.
        return (q_obj(3), q_obj(2) if factor[1] == "T_h" else q_obj(3))
    raise TransportError(f"unknown factor kind {kind!r}")


def _factor_text(factor) -> str:
    kind = factor[0]
    if kind == "c":
        _, name, sign = factor
        return name if sign > 0 else f"{name}^-1"
    if kind == "X":
        return f"X({factor[1].to_text()})"
    if kind == "g":
        return factor[1]
    if kind == "l":
        _, name, side = factor
        return f"({name}(x)1)" if side == "left" else f"(1(x){name})"
    raise TransportError(f"unknown factor kind {kind!r}")


class TransportElement(LinearCombination):
    """A sum of conjugated image terms from object ``dom`` to object
    ``cod``; the normal-form algebra.

    Its words are factor tuples, keyed and printed by their factors'
    text; a product concatenates them and then rewrites the result to
    normal form.
    """

    __slots__ = ()
    _error = TransportError

    def __init__(self, dom, cod, terms: Iterable[tuple[ScalarLike, tuple]] = ()):
        self.dom = dom
        self.cod = cod
        self._store([(factors, coeff) for coeff, factors in terms], tuple)

    @property
    def terms(self) -> list[tuple[Scalar, tuple]]:
        """(coefficient, factors) pairs in canonical order."""
        return [(coeff, factors) for factors, coeff in self.sorted_terms()]

    def dot(self, pairs):
        """The sum of the compositions ``a`` after ``b``: the concatenated
        products, merged once, then rewritten to normal form once."""
        raw = super().dot(pairs)
        den = raw._den
        # The store's terms in store order: the result is a sum, so the
        # order is immaterial, and a plain rational needs no Scalar.
        terms = [
            (Scalar._of({mono: Fraction(v, den)}) if mono else Fraction(v, den), factors)
            for (factors, mono), v in raw._terms.items()
        ]
        return _normalize_raw_terms(terms, raw.dom, raw.cod)

    @staticmethod
    def _word_key(factors: tuple):
        return (len(factors), [_factor_text(f) for f in factors])

    @staticmethod
    def _word_text(factors: tuple) -> str:
        return ".".join(_factor_text(f) for f in factors)


# -- expressions ----------------------------------------------------------------


class MorphTerm:
    """Immutable, typed morphism expression: its (coefficient, factors)
    terms in construction order."""

    __slots__ = ("terms", "dom", "cod")

    def __init__(self, terms, dom, cod):
        self.terms = tuple(terms)
        self.dom = dom
        self.cod = cod

    def __repr__(self):
        return f"MorphTerm({len(self.terms)} terms, {_obj_text(self.dom)} -> {_obj_text(self.cod)})"


def _factor_term(factor) -> MorphTerm:
    dom, cod = _factor_type(factor)
    return MorphTerm([(_ONE, (factor,))], dom, cod)


def gen(name: str) -> MorphTerm:
    if name in LIFT_SUGAR:
        base, side = LIFT_SUGAR[name]
        return lift(base, side)
    if name in QUANTUM_GENS:
        return _factor_term(("g", name))
    if name in CONJUGATORS:
        return _factor_term(("c", name, 1))
    if name.endswith("_inv") and name[:-4] in CONJUGATORS:
        return _factor_term(("c", name[:-4], -1))
    raise TransportError(f"unsupported generator {name!r}")


def lift(name: str, side: str) -> MorphTerm:
    if side not in ("left", "right"):
        raise TransportError("lift side must be 'left' or 'right'")
    if name not in _LIFTABLE:
        raise TransportError(f"generator {name!r} cannot be tensored with the identity here")
    return _factor_term(("l", name, side))


def identity_on(k: int) -> MorphTerm:
    return MorphTerm([(_ONE, ())], q_obj(k), q_obj(k))


def xblock(poly: ClassicalPoly) -> MorphTerm:
    return _factor_term(("X", poly))


def compose(*parts: MorphTerm) -> MorphTerm:
    """``parts[0]`` after ``parts[1]`` after ...; the terms are the
    products of the parts' terms, taken left to right."""
    if not parts:
        raise TransportError("compose needs at least one factor")
    for left, right in zip(parts, parts[1:]):
        if left.dom != right.cod:
            raise TransportError(f"cannot compose {_obj_text(left.dom)} after {_obj_text(right.cod)}")
    terms = parts[0].terms
    for part in parts[1:]:
        terms = [
            (c2 if c1 is _ONE else c1 if c2 is _ONE else c1 * c2, f1 + f2)
            for c1, f1 in terms
            for c2, f2 in part.terms
        ]
    return MorphTerm(terms, parts[-1].dom, parts[0].cod)


def morph_sum(*weighted: tuple[ScalarLike, MorphTerm]) -> MorphTerm:
    """The weighted terms of each summand, concatenated in order."""
    if not weighted:
        raise TransportError("sum needs at least one term")
    dom, cod = weighted[0][1].dom, weighted[0][1].cod
    terms = []
    for weight, expr in weighted:
        if (expr.dom, expr.cod) != (dom, cod):
            raise TransportError("sum of differently typed morphisms")
        weight = Scalar.coerce(weight)
        terms.extend((weight if c is _ONE else weight * c, f) for c, f in expr.terms)
    return MorphTerm(terms, dom, cod)


def scale(factor: ScalarLike, term: MorphTerm) -> MorphTerm:
    return morph_sum((factor, term))


# -- the rewrite engine ---------------------------------------------------------

def _conj(name: str, sign: int = 1):
    return ("c", name, sign)


def _x(*atoms: str):
    return ("X", ClassicalPoly.word(atoms))


# Expansion rules, each replacing one fixed run of factors: rule name,
# matched run, replacement.
EXPANSION_RULES = (
    # Bracket composites: naturality of the two-site conjugator in the
    # slot the inner bracket lands in fuses the pair into a single image
    # block over the three-site conjugator.
    ("lift:T_h_1", (("g", "T_h"), ("l", "T_h", "left")), (_x("T", "T1"), _conj("N"))),
    ("lift:T_h_2", (("g", "T_h"), ("l", "T_h", "right")), (_x("T", "T2"), _conj("M"))),
    ("def:T_h", (("g", "T_h"),), (_x("T"), _conj("Mvv"))),
    ("def:sigma_h", (("g", "sigma_h"),), (_conj("Mvv", -1), _x("sig"), _conj("Mvv"))),
    ("def:Omega_h", (("g", "Omega_h"),), (_conj("Mvv", -1), _x("Om"), _conj("Mvv"))),
    ("def:t_h", (("g", "t_h"),), (_conj("Mvv", -1), _x("tcas"))),
    ("def:psi", (("g", "psi"),), (_conj("M", -1), _conj("N"))),
    ("def:psi_inv", (("g", "psi_inv"),), (_conj("N", -1), _conj("M"))),
    # Lifting instances: naturality of the tensor structure in the slot
    # being tensored pushes the two-site conjugators of f through the
    # outer conjugator, leaving f (x) 1 = N^-1 X(f (x) 1) N and
    # 1 (x) f = M^-1 X(1 (x) f) M.
    ("lift:sigma_h_12", (("l", "sigma_h", "left"),), (_conj("N", -1), _x("sig12"), _conj("N"))),
    ("lift:sigma_h_23", (("l", "sigma_h", "right"),), (_conj("M", -1), _x("sig23"), _conj("M"))),
    ("lift:Omega_h_12", (("l", "Omega_h", "left"),), (_conj("N", -1), _x("Om12"), _conj("N"))),
    ("lift:Omega_h_23", (("l", "Omega_h", "right"),), (_conj("M", -1), _x("Om23"), _conj("M"))),
)


def _group_cancel(factors: tuple, pos: int):
    pair = factors[pos : pos + 2]
    if len(pair) == 2 and pair[0][0] == pair[1][0] == "c" and pair[0][1] == pair[1][1] and pair[0][2] == -pair[1][2]:
        return 2, (), _ONE
    return None


def _merge_x(factors: tuple, pos: int):
    pair = factors[pos : pos + 2]
    if len(pair) == 2 and pair[0][0] == pair[1][0] == "X":
        return 2, (("X", pair[0][1] * pair[1][1]),), _ONE
    return None


def _drop_x_unit(factors: tuple, pos: int):
    if factors[pos][0] == "X":
        scalar = factors[pos][1].scalar_part()
        if scalar is not None:
            return 1, (), scalar
    return None


# Structural rules, tried after the expansion rules: rule name, matcher,
# the factor kind a match starts at, and the widest window the matcher
# reads (factors pos, pos + 1, ...).
STRUCTURAL_RULES = (
    ("group:cancel", _group_cancel, "c", 2),
    ("merge:X", _merge_x, "X", 2),
    ("drop:X_unit", _drop_x_unit, "X", 1),
)


def _kind(factor) -> str:
    return factor[0]


# (rule name, matcher, head) in the order the rewriter tries them at each
# position; a matcher returns (consumed, replacement, coeff multiplier)
# or None.  A quantum factor's head is its kind.
_RULES = tuple((name, _run_matcher(run, rhs), run[0][0]) for name, run, rhs in EXPANSION_RULES) + tuple(
    (name, matcher, kind) for name, matcher, kind, _ in STRUCTURAL_RULES
)
_TABLE = _rule_table(_RULES, _kind)
_MATCHERS = {name: matcher for name, matcher, _ in _RULES}
# How far left of a rewrite the search resumes: one less than the widest
# window any rule reads, so that every position further left reads only
# factors the rewrite left unchanged.
_RESUME_BACK = max([len(run) for _, run, _ in EXPANSION_RULES] + [width for *_, width in STRUCTURAL_RULES]) - 1


def _rewrite(coeff: Scalar, factors: tuple, pos: int, match):
    """Apply a matcher's match found at ``pos``."""
    consumed, replacement, multiplier = match
    if multiplier is not _ONE:
        coeff = coeff * multiplier
    return coeff, factors[:pos] + replacement + factors[pos + consumed :]


# factors -> (coefficient multiplier, normal factors, (rule, pos) steps).
KEPT_TERMS = 4096
_normal_terms = Kept(KEPT_TERMS)


def _rewrite_term(factors: tuple, spent: int):
    """Rewrite one term's factors to normal form: (coefficient
    multiplier, normal factors, (rule, pos) steps).  ``spent`` is the
    steps its call made before it, which count against the budget."""
    multiplier, steps, start = _ONE, [], 0
    while (found := _first_match(factors, _TABLE, start)) is not None:
        rule, pos, match = found
        multiplier, factors = _rewrite(multiplier, factors, pos, match)
        start = max(pos - _RESUME_BACK, 0)
        steps.append((rule, pos))
        if spent + len(steps) > STEP_BUDGET:
            raise TransportError("rewrite step budget exhausted")
    for factor in factors:
        if factor[0] in ("g", "l"):
            raise TransportError(
                f"no rule eliminates {_factor_text(factor)} in this context; "
                "the bracket lift must be composed directly under the bracket"
            )
    return multiplier, factors, tuple(steps)


def _normalize_raw_terms(raw, dom, cod, trace=None):
    spent = 0
    finished = []
    for index, (coeff, factors) in enumerate(raw):
        kept = _normal_terms.take(factors)
        if kept is None:
            kept = _rewrite_term(factors, spent)
        multiplier, normal, steps = _normal_terms.put(factors, kept)
        spent += len(steps)
        if spent > STEP_BUDGET:
            raise TransportError("rewrite step budget exhausted")
        if trace is not None:
            trace.extend({"term": index, "rule": rule, "pos": pos} for rule, pos in steps)
        finished.append((coeff if multiplier is _ONE else coeff * multiplier, normal))
    return TransportElement(dom, cod, finished)


def normalize_traced(expr: MorphTerm):
    """Normalize and return (element, replayable trace)."""
    trace: list[dict] = []
    return _normalize_raw_terms(expr.terms, expr.dom, expr.cod, trace), trace


def normalize(expr: MorphTerm) -> TransportElement:
    return normalize_traced(expr)[0]


def replay_trace(expr: MorphTerm, trace) -> TransportElement:
    """Re-apply a recorded trace step by step, without searching, then
    check that no rule still applies."""
    raw = list(expr.terms)
    for step in trace:
        if not isinstance(step, Mapping) or not {"term", "rule", "pos"} <= step.keys():
            raise TransportError(f"trace step {step!r} is not a dict with term, rule and pos")
        index, rule, pos = step["term"], step["rule"], step["pos"]
        # A bool is an int, and a negative index would count from the end.
        if type(index) is not int or not 0 <= index < len(raw):
            raise TransportError(f"trace step term {index!r} is not an index in range({len(raw)})")
        coeff, factors = raw[index]
        matcher = _MATCHERS.get(rule)
        in_range = type(pos) is int and 0 <= pos < len(factors)
        match = matcher(factors, pos) if matcher is not None and in_range else None
        if match is None:
            raise TransportError(f"rule {rule!r} does not apply at position {pos!r}")
        raw[index] = _rewrite(coeff, factors, pos, match)
    if any(_first_match(factors, _TABLE) for _, factors in raw):
        raise TransportError("trace is incomplete: a rule still applies")
    return TransportElement(expr.dom, expr.cod, raw)


# -- equality modulo the classical relations -------------------------------------

def _group_single_x_terms(element: TransportElement) -> TransportElement:
    """Terms with one image block, grouped by the conjugators around it:
    one block per group, the linear combination of the group's blocks."""
    grouped: dict[tuple, list[tuple[Scalar, ClassicalPoly]]] = {}
    terms = []
    for coeff, factors in element.terms:
        x_positions = [i for i, f in enumerate(factors) if f[0] == "X"]
        if len(x_positions) != 1:
            terms.append((coeff, factors))
            continue
        i = x_positions[0]
        grouped.setdefault((factors[:i], factors[i + 1 :]), []).append((coeff, factors[i][1]))
    for (pre, post), pairs in grouped.items():
        poly = pairs[0][1].lincomb(pairs)
        if not poly.is_zero:
            terms.append((_ONE, pre + (("X", poly),) + post))
    return TransportElement(element.dom, element.cod, terms)


def reduce_modulo_classical(element: TransportElement):
    """Alternate classical rewriting inside image blocks with structural
    normalization until stable.

    Returns (reduced element, classical steps, consumed rule names).
    """
    steps: list[tuple[str, str, int]] = []
    used: set[str] = set()
    current = _group_single_x_terms(element)
    for _ in range(STEP_BUDGET):
        new_terms = []
        changed = False
        for coeff, factors in current.terms:
            out = []
            for factor in factors:
                if factor[0] == "X":
                    reduced, st, u = classical_normalize(factor[1])
                    if reduced != factor[1]:
                        changed = True
                    steps.extend(st)
                    used |= u
                    out.append(("X", reduced))
                else:
                    out.append(factor)
            new_terms.append((coeff, tuple(out)))
        candidate = _group_single_x_terms(_normalize_raw_terms(new_terms, current.dom, current.cod))
        if not changed and candidate == current:
            return current, steps, used
        current = candidate
    raise TransportError("classical discharge did not stabilize within the budget")


# -- identity verification ---------------------------------------------------------

def _read_only(items) -> tuple:
    return tuple(MappingProxyType(dict(item)) for item in items)


@dataclass(frozen=True)
class IdentityReport:
    """The outcome of one identity check.  It is frozen and holds tuples,
    its trace steps and details as read-only mappings, so a kept report
    can be shared; :meth:`to_json` builds fresh lists and dicts."""

    identity: str
    passed: bool
    lhs_text: str
    rhs_text: str
    lhs_trace: tuple = ()
    rhs_trace: tuple = ()
    classical_rules_used: tuple[str, ...] = ()
    discharge_steps: tuple = ()
    notes: tuple[str, ...] = ()
    details: tuple = ()

    def __post_init__(self):
        for name in ("lhs_trace", "rhs_trace", "details"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        object.__setattr__(self, "discharge_steps", tuple(self.discharge_steps))

    def __bool__(self):
        return self.passed

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "passed": self.passed,
            "lhs_normal_form": self.lhs_text,
            "rhs_normal_form": self.rhs_text,
            "trace": {
                "lhs": [dict(step) for step in self.lhs_trace],
                "rhs": [dict(step) for step in self.rhs_trace],
            },
            "classical_rules_used": sorted(self.classical_rules_used),
            "discharge_steps": [
                {"rule": r, "word": w, "pos": p} for r, w, p in self.discharge_steps
            ],
            "notes": list(self.notes),
            "details": [dict(item) for item in self.details],
        }


_BRACKETING_NOTE = (
    "triple tensor bracketing: the 12-flip is the left lift conjugated through N, "
    "the 23-flip the right lift conjugated through M; the associator mediates "
    "between the two bracketings"
)


def identity_expressions(identity: str):
    """The two sides of an h-free identity, for replay and audit."""
    if identity == "4.3a":
        return compose(gen("T_h"), gen("sigma_h")), scale(-1, gen("T_h"))
    if identity == "4.3b":
        return compose(gen("sigma_h"), gen("sigma_h")), identity_on(2)
    if identity == "4.4":
        lhs = compose(gen("T_h"), lift("T_h", "left"))
        rhs = compose(
            gen("T_h"),
            lift("T_h", "right"),
            gen("psi"),
            morph_sum((1, identity_on(3)), (-1, lift("sigma_h", "left"))),
        )
        return lhs, rhs
    if identity == "4.5":
        s12 = lift("sigma_h", "left")
        s23 = lift("sigma_h", "right")
        lhs = compose(gen("psi"), s12, gen("psi_inv"), s23, gen("psi"), s12)
        rhs = compose(s23, gen("psi"), s12, gen("psi_inv"), s23, gen("psi"))
        return lhs, rhs
    raise TransportError(f"unknown identity {identity!r}")


# Letters of a table word -> classical atoms of its image block, and
# letters of its alpha image -> generators of its conjugated chain.
_BLOCK_ATOMS = {"A": "Om12", "B": "Om23"}
_CHAIN_GENS = {"C": "Omega_h_12", "D": "Omega_h_23", "Z": "psi", "Zinv": "psi_inv"}


def _series_claim(identity: str, word: tuple[str, ...]) -> tuple[MorphTerm, MorphTerm]:
    """Both sides of the 5.1a/5.1b claim for one word over A, B: its image
    block, and the conjugated chain its alpha image spells."""
    block = xblock(ClassicalPoly.word([_BLOCK_ATOMS[l] for l in word]))
    chain = [gen(_CHAIN_GENS[l]) for l in alpha_word(word)]
    outer = (gen("N"),) if identity == "5.1b" else (gen("M"), gen("psi"))
    return block, compose(*outer, *chain, gen("N_inv"))


def _degree_claims(identity: str, entry) -> list[tuple[str, tuple[MorphTerm, MorphTerm]]]:
    """(label, sides) of each monomial's claim of a table entry's (word,
    weight) pairs, then of the assembled entry's: the weighted sums of
    the monomial claims' sides, whose terms then rewrite by lookups."""
    monomials = [(word, weight, _series_claim(identity, word)) for word, weight in entry]
    claims = [(".".join(word) if word else "1", sides) for word, _, sides in monomials]
    assembled = tuple(morph_sum(*[(weight, sides[i]) for _, weight, sides in monomials]) for i in (0, 1))
    return claims + [("<assembled>", assembled)]


def series_degree_expressions(identity: str, table, degree: int):
    """Both sides of the assembled degree-k coefficient claim.

    The image of the degree-k table entry equals its conjugated block sum:
    through ``N`` alone for the inverse-series claim, through ``M`` and
    the associator for the direct-series claim.
    """
    if identity not in ("5.1a", "5.1b"):
        raise TransportError(f"{identity!r} has no per-degree series form")
    return _degree_claims(identity, table.entry(degree).sorted_terms())[-1][1]


def _verify_series_coefficients(identity: str, table) -> IdentityReport:
    """Each monomial's claim, then the assembled entry's, degree by
    degree; the report carries the last assembled claim's normal forms
    and traces.  With no degree to check, as for a table with no nonzero
    entries, the claim holds vacuously."""
    degrees = table.degrees()
    if not degrees:
        note = "no degree to check: the table has no nonzero entries"
        return IdentityReport(identity=identity, passed=True, lhs_text="0", rhs_text="0", notes=(note,))
    details = []
    for k in degrees:
        for monomial, (lhs_expr, rhs_expr) in _degree_claims(identity, table.entry(k).sorted_terms()):
            lhs_el, lhs_trace = normalize_traced(lhs_expr)
            rhs_el, rhs_trace = normalize_traced(rhs_expr)
            details.append(
                {
                    "degree": k,
                    "monomial": monomial,
                    "passed": lhs_el == rhs_el,
                    "lhs": lhs_el.to_text(),
                    "rhs": rhs_el.to_text(),
                }
            )
    note = (
        "per-monomial conjugation identities assemble the degree-k series claim "
        "through the two exact conjugator identities for the associator pair"
    )
    return IdentityReport(
        identity=identity,
        passed=all(item["passed"] for item in details),
        lhs_text=lhs_el.to_text(),
        rhs_text=rhs_el.to_text(),
        lhs_trace=lhs_trace,
        rhs_trace=rhs_trace,
        notes=(note,),
        details=details,
    )


def _verify_braiding_series(order: int) -> IdentityReport:
    ipi = Scalar.constant("ipi")
    sigma_h_nf = normalize(gen("sigma_h"))
    lhs = HSeries.constant(sigma_h_nf, order)

    # The braiding has h^m coefficient Mvv^-1 X(sig.Om^m) Mvv times ipi^m / m!.
    braiding, weight = [], _ONE
    for m in range(order):
        if m:
            weight = weight * ipi / Scalar.rational(m)
        factors = (_conj("Mvv", -1), ("X", ClassicalPoly.word(("sig",) + ("Om",) * m)), _conj("Mvv"))
        braiding.append(TransportElement(q_obj(2), q_obj(2), [(weight, factors)]))

    # exp(-ipi h Omega_h) has h^m coefficient E_m = E_(m-1) (-ipi Omega_h) / m,
    # one product per order.
    step = normalize(gen("Omega_h")).scale(-ipi)
    exponential = [sigma_h_nf.ring_one()]
    for m in range(1, order):
        exponential.append((exponential[-1] * step).scale(Scalar.rational(1, m)))
    rhs = HSeries(braiding) * HSeries(exponential)

    return IdentityReport(
        identity="sigma_h_def",
        passed=lhs == rhs,
        lhs_text=lhs.to_text(),
        rhs_text=rhs.to_text(),
        notes=(
            "checked as series with normal-form coefficients; the braiding "
            "exponential carries the formal constant ipi exactly",
        ),
    )


# The seven reports of one ``verify all`` and the 5.1a and 5.1b reports
# of each table ``load_table`` keeps.
KEPT_REPORTS = 7 + 2 * CACHED_FILES
_reports = Kept(KEPT_REPORTS)


def verify_identity(identity: str, table=None, order: int = 4) -> IdentityReport:
    """Verify one deformed identity by rewriting.

    ``table`` holds the series coefficients for the 5.1 checks, the
    built-in one by default; ``order`` sets the braiding truncation.  The
    report is kept, as the module docstring sets out.
    """
    if identity in ("5.1a", "5.1b"):
        table = table if table is not None else builtin_table()
        reads = tuple((k, table.entries[k]) for k in table.degrees())
        build = partial(_verify_series_coefficients, identity, table)
    elif identity == "sigma_h_def":
        reads, build = order, partial(_verify_braiding_series, order)
    else:
        reads, build = None, partial(_verify_h_free, identity)
    key = (identity, reads, STEP_BUDGET)
    # ``is None``: a failed report is falsy and is kept all the same.
    report = _reports.take(key)
    return _reports.put(key, build() if report is None else report)


def _verify_h_free(identity: str) -> IdentityReport:
    """Both sides normalized, then their difference discharged by the
    classical rules."""
    lhs_expr, rhs_expr = identity_expressions(identity)
    lhs_el, lhs_trace = normalize_traced(lhs_expr)
    rhs_el, rhs_trace = normalize_traced(rhs_expr)
    reduced, steps, used = reduce_modulo_classical(lhs_el - rhs_el)
    notes = (_BRACKETING_NOTE,) if identity in ("4.4", "4.5") else ()
    return IdentityReport(
        identity=identity,
        passed=reduced.is_zero,
        lhs_text=lhs_el.to_text(),
        rhs_text=rhs_el.to_text(),
        lhs_trace=lhs_trace,
        rhs_trace=rhs_trace,
        classical_rules_used=tuple(sorted(used)),
        discharge_steps=steps,
        notes=notes,
    )
