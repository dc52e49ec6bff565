"""Shared test utilities: independent brute-force oracles and random data.

The Psi oracle recomputes the associator correction series by plain
fixed-point iteration at full order, with its own regex-based run
parser, so it shares no code path with the production engine beyond the
ring primitives.  The engine keeps each table's pair for later calls in
the process, so a test that compares against one engine run, or counts
the engine's work, starts from an empty cache (:func:`fresh_psi`,
:func:`empty_psi_cache`).  Rewriting keeps each term's normal form and
steps for later calls in the same way, so a test that counts the
rewriter's work, or compares a cold run, starts from
:func:`empty_term_cache`, and ``verify_identity`` keeps its reports, so
a test that needs a call to build one starts from
:func:`empty_report_cache`.  ``load_table`` keeps the tables of the
files it read last, so a test that counts table parses starts from
:func:`empty_table_cache`.

The rewrite oracle finds every transport step by trying every rule at
every position from 0 after each step, with its own run matchers over
the published rule tables, so it shares only the rule data and the
structural matchers with the rewriter's indexed, resuming search.

The 5.1 reference builds an entry's assembled claim from the whole
entry at once, each word's chain read off ``alpha`` of the word as a
polynomial, where transport sums the claims of the words.

The term-splitter reference scans the canonical text form index by
index for the separators " + " and " - ", where ``ncalg`` splits it with
one regular expression.

The scalar reference keeps a ``Fraction`` per constant monomial and
writes its own sum, product, division, equality, hash and text, where
``ncalg.Scalar`` is the integer-store linear combination over no letters
and takes all of them from the one core.

The transport model reads expressions and normal forms as series of
exact matrices on tensor powers of an algebra, each factor by its
definition and each classical word multiplied out on its own, so it
checks that rewriting preserves meaning without running the rewriter or
the Horner word evaluator.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from qjacobi import deformation, psiengine, transport
from qjacobi.deformation import AB_ALPHABET, EkTable, alpha
from qjacobi.hseries import HSeries
from qjacobi.matrices import SparseMatrix
from qjacobi.ncalg import _NAME_RE, NCPoly, Scalar, ScalarError, WordError, _join_signed, _monomial, _term_body
from qjacobi.psiengine import PSI_ALPHABET, compute_psi
from qjacobi.transport import (
    CLASSICAL_RULES,
    EXPANSION_RULES,
    STRUCTURAL_RULES,
    UNIT,
    ClassicalPoly,
    MorphTerm,
    TransportElement,
    TransportError,
    compose,
    gen,
    identity_on,
    morph_sum,
    x_obj,
    xblock,
)


def oracle_alpha_product(word, psi, psi_inv, c_img, d_img, unit):
    """Evaluate the conjugated image of a word over {A, B} directly.

    Chunks the word into maximal A-run/B-run blocks with a regex; a block
    with no B needs no conjugator pair at all because the pair would
    cancel immediately.
    """
    acc = unit
    for chunk in re.findall(r"A*B+|A+", "".join(word)):
        for _ in range(chunk.count("A")):
            acc = acc * c_img
        if "B" in chunk:
            acc = acc * psi_inv
            for _ in range(chunk.count("B")):
                acc = acc * d_img
            acc = acc * psi
    return acc


def empty_psi_cache():
    """Forget every table's engine, so that the next ``compute_psi`` of
    any table starts from h^0."""
    psiengine._engines.clear()


def empty_table_cache():
    """Forget every kept table file, so that the next ``load_table`` of
    any file parses it."""
    deformation._tables.clear()


def counted_table_parses(monkeypatch):
    """From an empty table cache, record the source of every
    ``parse_table`` call ``load_table`` makes, in the list returned."""
    empty_table_cache()
    calls = []
    parse = deformation.parse_table

    def counted(text, source="custom"):
        calls.append(source)
        return parse(text, source)

    monkeypatch.setattr(deformation, "parse_table", counted)
    return calls


def empty_term_cache():
    """Forget every kept term normal form, so that the next normalization
    rewrites each of its terms."""
    transport._normal_terms.clear()


def empty_report_cache():
    """Forget every kept identity report, so that the next
    ``verify_identity`` of any identity builds its report."""
    transport._reports.clear()


def fresh_psi(table: EkTable, order: int):
    """The pair one engine run gives, from an empty cache."""
    empty_psi_cache()
    return compute_psi(table, order)


def negate_psi_below_the_top(monkeypatch):
    """Make every engine pass end by negating psi's coefficient of
    h^(order - 2), in any ring; where it is nonzero, as h^4 of the
    built-in pair modulo h^6 is, psi * psi_inv = 1 then fails."""
    extend = psiengine._Engine.extend

    def corrupted(engine, order):
        extend(engine, order)
        engine.psi[order - 2] = -engine.psi[order - 2]

    monkeypatch.setattr(psiengine._Engine, "extend", corrupted)


def oracle_psi(table: EkTable, order: int):
    """Fixed-point iteration for the pair at full order.

    Independent of the production schedule: every pass re-evaluates all
    blocks with the full current pair and iterates until nothing moves.
    """
    one = NCPoly.one(PSI_ALPHABET)
    unit = HSeries.unit(one, order)
    c_img = HSeries.constant(NCPoly.letter(PSI_ALPHABET, "O12"), order)
    d_img = HSeries.constant(NCPoly.letter(PSI_ALPHABET, "O23"), order)
    psi, psi_inv = unit, unit
    for _ in range(order + 1):
        acc, acc_inv = unit, unit
        for k in sorted(table.entries):
            gk = unit.scale(Scalar.zero())
            for word, coeff in table.entries[k].sorted_terms():
                gk = gk + oracle_alpha_product(word, psi, psi_inv, c_img, d_img, unit).scale(coeff)
            acc = acc + (-(psi * gk)).shift(k).truncate(order)
            acc_inv = acc_inv + gk.shift(k).truncate(order)
        if acc == psi and acc_inv == psi_inv:
            return psi, psi_inv
        psi, psi_inv = acc, acc_inv
    raise AssertionError("oracle iteration did not reach a fixed point")


def random_homogeneous_table(rng, max_degree=5, max_terms=3, constants=()) -> EkTable:
    """A random table with homogeneous entries in degrees 2..max_degree.

    The terms take ``constants`` in turn, each to the first or second
    power, and then one plain rational term, and so on round; with no
    constants every term is plain and nothing more is drawn."""
    entries = {}
    turns = tuple(constants) + (None,)
    drawn = 0
    degrees = [k for k in range(2, max_degree + 1) if rng.random() < 0.7]
    if not degrees:
        degrees = [2]
    for k in degrees:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            word = tuple(rng.choice("AB") for _ in range(k))
            coeff = Scalar.rational(Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
            name = turns[drawn % len(turns)]
            drawn += 1
            if name is not None:
                coeff = coeff * Scalar.constant(name, rng.randint(1, 2))
            terms.append((word, coeff))
        poly = NCPoly(AB_ALPHABET, terms)
        if not poly.is_zero:
            entries[k] = poly
    if not entries:
        entries[2] = NCPoly.word(AB_ALPHABET, ("A", "B"))
    declared = tuple(name for name in constants if name != "ipi") + ("ipi",)
    return EkTable(entries=entries, constants=declared, source=f"random-{rng.random():.6f}")


def reference_split_signed_terms(text: str) -> list[tuple[int, str]]:
    """The (sign, body) terms of canonical text, found by scanning each
    position for a separator and stepping past the three characters of
    each one found."""
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


def _reference_operand(value):
    if isinstance(value, ReferenceScalar):
        return value
    if isinstance(value, (int, Fraction)):
        return ReferenceScalar._of({(): Fraction(value)})
    return None


class ReferenceScalar:
    """An exact scalar as a ``Fraction`` per normal monomial, with its own
    sum, product, division, equality, hash and text."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for mono, coeff in terms.items():
                if isinstance(coeff, float):
                    raise ScalarError("floating point coefficients are not allowed")
                frac = Fraction(coeff)
                if not frac:
                    continue
                factors = []
                for name, exp in mono:
                    name, exp = str(name), int(exp)
                    if not _NAME_RE.match(name):
                        raise ScalarError(f"bad constant name {name!r}")
                    if exp <= 0:
                        raise ScalarError("constant exponents must be positive")
                    factors.append((name, exp))
                norm = _monomial(factors)
                data[norm] = data.get(norm, Fraction(0)) + frac
        self._terms = {m: c for m, c in data.items() if c}

    @classmethod
    def _of(cls, terms):
        out = cls.__new__(cls)
        out._terms = {m: c for m, c in terms.items() if c}
        return out

    @staticmethod
    def coerce(value):
        coerced = _reference_operand(value)
        if coerced is None:
            raise ScalarError(f"cannot coerce {type(value).__name__} to Scalar")
        return coerced

    @property
    def is_rational(self):
        return all(m == () for m in self._terms)

    def as_fraction(self):
        if not self._terms:
            return Fraction(0)
        if not self.is_rational:
            raise ScalarError("scalar carries formal constants")
        return self._terms[()]

    def constants(self):
        return {name for mono in self._terms for name, _ in mono}

    def sorted_terms(self):
        return sorted(self._terms.items())

    def __add__(self, other):
        other = _reference_operand(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for mono, coeff in other._terms.items():
            data[mono] = data.get(mono, Fraction(0)) + coeff
        return ReferenceScalar._of(data)

    __radd__ = __add__

    def __sub__(self, other):
        other = _reference_operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _reference_operand(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return ReferenceScalar._of({m: -c for m, c in self._terms.items()})

    def __mul__(self, other):
        other = _reference_operand(other)
        if other is None:
            return NotImplemented
        data = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = _monomial(ma + mb)
                data[mono] = data.get(mono, Fraction(0)) + ca * cb
        return ReferenceScalar._of(data)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = ReferenceScalar.coerce(other)
        if not other._terms:
            raise ScalarError("division by zero")
        if not other.is_rational:
            raise ScalarError("division by a scalar with formal constants is unsupported")
        q = other._terms[()]
        return ReferenceScalar._of({m: c / q for m, c in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ReferenceScalar.coerce(other)
        if not isinstance(other, ReferenceScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self.is_rational:
            return hash(self.as_fraction())
        return hash(tuple(self.sorted_terms()))

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"Scalar({self.to_text()})"

    def to_text(self):
        if not self._terms:
            return "0"
        return _join_signed([(coeff < 0, _term_body(coeff, mono)) for mono, coeff in self.sorted_terms()])


def _reference_run(run, replacement):
    """A matcher for one fixed run, compared factor by factor."""

    def match(factors, pos):
        if len(factors) - pos >= len(run) and all(factors[pos + i] == f for i, f in enumerate(run)):
            return len(run), replacement, 1
        return None

    return match


REFERENCE_RULES = [(name, _reference_run(run, rhs)) for name, run, rhs in EXPANSION_RULES] + [
    (name, matcher) for name, matcher, *_ in STRUCTURAL_RULES
]
REFERENCE_CLASSICAL_RULES = [(name, _reference_run(run, rhs)) for name, run, rhs in CLASSICAL_RULES]


def reference_search(factors, rules):
    """(name, pos, match) of the first rule, in list order, that applies
    at the leftmost position where any does, trying all of them at every
    position from 0; or None."""
    for pos in range(len(factors)):
        for name, matcher in rules:
            match = matcher(factors, pos)
            if match is not None:
                return name, pos, match
    return None


def reference_normalize(expr, budget=10_000):
    """(normal form, trace) of an expression, searching from 0 after
    every step."""
    trace, finished = [], []
    for index, (coeff, factors) in enumerate(expr.terms):
        while (found := reference_search(factors, REFERENCE_RULES)) is not None:
            name, pos, (consumed, replacement, multiplier) = found
            coeff = coeff * multiplier
            factors = factors[:pos] + replacement + factors[pos + consumed :]
            trace.append({"term": index, "rule": name, "pos": pos})
            if len(trace) > budget:
                raise AssertionError("reference rewriting did not terminate")
        finished.append((coeff, factors))
    return TransportElement(expr.dom, expr.cod, finished), trace


def reference_classical_normalize(poly, budget=10_000):
    """(normal form, steps, rules used) of a classical polynomial: each
    step at the first term, in canonical order, that a rule applies to."""
    steps, used, current = [], set(), poly
    while True:
        for word, coeff in current.sorted_terms():
            found = reference_search(word, REFERENCE_CLASSICAL_RULES)
            if found is not None:
                break
        else:
            return current, steps, used
        name, pos, (consumed, replacement, _) = found
        steps.append((name, ".".join(word) if word else "1", pos))
        used.add(name)
        terms = [(word, -coeff)] + [(word[:pos] + rhs + word[pos + consumed :], coeff * sign) for sign, rhs in replacement]
        current = current + ClassicalPoly(current.dom, current.cod, terms)
        if len(steps) > budget:
            raise AssertionError("reference classical rewriting did not terminate")


# Letters of a table word -> classical atoms of its image block, and
# letters of its alpha image -> generators of its conjugated chain.
_REFERENCE_BLOCK_ATOMS = {"A": "Om12", "B": "Om23"}
_REFERENCE_CHAIN_GENS = {"C": "Omega_h_12", "D": "Omega_h_23", "Z": "psi", "Zinv": "psi_inv"}


def reference_series_claim(identity, table, degree):
    """Both sides of the assembled 5.1a/5.1b claim of a table's degree-k
    entry, built from the whole entry: the weighted image blocks, and the
    conjugated weighted sum of the chains the words' alpha images spell."""
    blocks, chains = [], []
    for word, weight in table.entry(degree).sorted_terms():
        blocks.append((weight, xblock(ClassicalPoly.word([_REFERENCE_BLOCK_ATOMS[l] for l in word]))))
        ((image, _),) = alpha(NCPoly.word(AB_ALPHABET, word)).sorted_terms()
        chain = compose(*[gen(_REFERENCE_CHAIN_GENS[l]) for l in image]) if image else identity_on(3)
        chains.append((weight, chain))
    outer = (gen("N"),) if identity == "5.1b" else (gen("M"), gen("psi"))
    return morph_sum(*blocks), compose(*outer, morph_sum(*chains), gen("N_inv"))


# -- evaluation into matrix series ---------------------------------------------

# Classical atom -> the TensorOps field holding its matrix.
_ATOM_FIELDS = {
    "T": "T",
    "sig": "sigma",
    "Om": "Omega",
    "tcas": "t_vec",
    "T1": "T1",
    "T2": "T2",
    "sig12": "sigma12",
    "sig23": "sigma23",
    "Om12": "Omega12",
    "Om23": "Omega23",
}


@dataclass
class TransportModel:
    """Matrix interpretations for the conjugators of one algebra.

    Any invertible choice gives a sound model: every rewrite rule is an
    exact identity of the interpreted series by construction.
    """

    ops: object
    order: int
    M: HSeries
    N: HSeries
    Mvv: HSeries

    def __post_init__(self):
        self.M_inv = self.M.invert()
        self.N_inv = self.N.invert()
        self.Mvv_inv = self.Mvv.invert()

    @classmethod
    def trivial(cls, ops, order: int) -> "TransportModel":
        return cls.conjugated(ops, order, HSeries.constant(SparseMatrix.identity(ops.alg.dim ** 3), order))

    @classmethod
    def conjugated(cls, ops, order: int, psi_series: HSeries) -> "TransportModel":
        d = ops.alg.dim
        eye3 = HSeries.constant(SparseMatrix.identity(d ** 3), order)
        eye2 = HSeries.constant(SparseMatrix.identity(d ** 2), order)
        return cls(ops, order, eye3, psi_series.truncate(order), eye2)

    def atom_matrix(self, name: str):
        """The matrix of a classical atom: a field of the tensor operators."""
        return getattr(self.ops, _ATOM_FIELDS[name])

    def _dim_of(self, obj) -> int:
        if obj == UNIT:
            return 1
        return self.ops.alg.dim ** obj[1]

    def _xpoly_series(self, poly: ClassicalPoly) -> HSeries:
        """Each word's matrix product on its own, first atom on the left,
        summed in the polynomial's typed, possibly rectangular, shape."""
        zero = SparseMatrix.zeros(self._dim_of(x_obj(poly.cod)), self._dim_of(x_obj(poly.dom)))
        products = []
        for word, coeff in poly.sorted_terms():
            prod = SparseMatrix.identity(zero.cols)
            for atom in reversed(word):
                prod = self.atom_matrix(atom) * prod
            products.append((coeff, prod))
        return HSeries.constant(zero.lincomb(products), self.order)

    def _factor_series(self, factor) -> HSeries:
        """The model meaning of one factor; deformed generators and lifts
        are read by their definitions here, independently of the rewrite
        rules, so evaluating an expression checks its normal form."""
        kind = factor[0]
        if kind == "c":
            return getattr(self, factor[1] if factor[2] > 0 else f"{factor[1]}_inv")
        if kind == "X":
            return self._xpoly_series(factor[1])

        def atom(name: str) -> HSeries:
            return self._xpoly_series(ClassicalPoly.atom(name))

        if kind == "l":
            _, name, side = factor
            if name == "T_h":
                raise TransportError("a bare bracket lift has no standalone evaluation")
            base = {"sigma_h": "sig", "Omega_h": "Om"}[name]
            if side == "left":
                return self.N_inv * atom(base + "12") * self.N
            return self.M_inv * atom(base + "23") * self.M
        name = factor[1]
        if name == "T_h":
            return atom("T") * self.Mvv
        if name == "sigma_h":
            return self.Mvv_inv * atom("sig") * self.Mvv
        if name == "Omega_h":
            return self.Mvv_inv * atom("Om") * self.Mvv
        if name == "t_h":
            return self.Mvv_inv * atom("tcas")
        if name == "psi":
            return self.M_inv * self.N
        # psi_inv, the last of QUANTUM_GENS
        return self.N_inv * self.M

    def evaluate(self, morph: MorphTerm | TransportElement) -> HSeries:
        """An expression or a normal form read factor by factor in the
        model, without normalizing it."""
        cols = self._dim_of(morph.dom)
        acc = None
        for coeff, factors in morph.terms:
            prod = HSeries.constant(SparseMatrix.identity(cols), self.order)
            for factor in reversed(factors):
                prod = self._factor_series(factor) * prod
            acc = prod.scale(coeff) if acc is None else acc + prod.scale(coeff)
        if acc is None:
            return HSeries.constant(SparseMatrix.zeros(self._dim_of(morph.cod), cols), self.order)
        return acc
