"""Tests for the typed conjugation rewriter."""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    TransportModel,
    empty_report_cache,
    empty_term_cache,
    reference_classical_normalize,
    reference_normalize,
    reference_series_claim,
)

from qjacobi import transport
from qjacobi.deformation import CACHED_FILES, builtin_table, builtin_table_text, parse_table
from qjacobi.liealg import build_algebra, build_tensor_ops, eval_series
from qjacobi.matrices import SparseMatrix
from qjacobi.ncalg import Scalar
from qjacobi.psiengine import compute_psi
from qjacobi.transport import (
    ClassicalPoly,
    IdentityReport,
    TransportElement,
    TransportError,
    classical_normalize,
    compose,
    gen,
    identity_expressions,
    identity_on,
    lift,
    morph_sum,
    normalize,
    normalize_traced,
    q_obj,
    replay_trace,
    scale,
    series_degree_expressions,
    verify_identity,
    xblock,
)


def element_to_expr(element: TransportElement):
    """Rebuild an expression from a normal form, for idempotence checks."""
    summands = []
    for coeff, factors in element.terms:
        parts = []
        for factor in factors:
            if factor[0] == "c":
                name = factor[1] if factor[2] > 0 else f"{factor[1]}_inv"
                parts.append(gen(name))
            else:
                parts.append(xblock(factor[1]))
        if parts:
            summands.append((coeff, compose(*parts)))
        else:
            k = element.dom[1] if element.dom != "u" else 0
            summands.append((coeff, identity_on(k)))
    return morph_sum(*summands)


# -- normalization examples ----------------------------------------------------

def test_psi_times_inverse_is_identity():
    nf = normalize(compose(gen("psi"), gen("psi_inv")))
    assert nf == TransportElement(q_obj(3), q_obj(3), [(1, ())])
    assert nf.to_text() == "1"


def test_bracket_after_flip_normal_form():
    nf = normalize(compose(gen("T_h"), gen("sigma_h")))
    assert nf.to_text() == "X(T.sig).Mvv"


def test_braid_lhs_telescopes():
    s12 = lift("sigma_h", "left")
    s23 = lift("sigma_h", "right")
    lhs = compose(gen("psi"), s12, gen("psi_inv"), s23, gen("psi"), s12)
    assert normalize(lhs).to_text() == "M^-1.X(sig12.sig23.sig12).N"


def test_t_h_normalizes_through_the_unit():
    nf = normalize(gen("t_h"))
    assert nf.to_text() == "Mvv^-1.X(tcas)"


def test_normalize_is_idempotent():
    exprs = [
        compose(gen("T_h"), gen("sigma_h")),
        compose(gen("psi"), lift("Omega_h", "left"), gen("psi_inv")),
        morph_sum((1, gen("psi")), (Scalar.rational(-1, 2), gen("psi_inv"))),
    ]
    for expr in exprs:
        once = normalize(expr)
        again = normalize(element_to_expr(once))
        assert once == again


def test_products_of_normal_forms_keep_formal_constants():
    # A product of normal forms normalizes its merged terms; each term's
    # coefficient, formal constants included, rides through the rewrite.
    ipi = Scalar.constant("ipi")
    left = morph_sum((ipi, gen("Omega_h")), (Scalar.rational(1, 2), gen("sigma_h")))
    right = morph_sum((1, gen("sigma_h")), (Scalar.constant("zeta", 2) - 3, gen("Omega_h")))
    a, b = normalize(left), normalize(right)
    assert a * b == normalize(compose(left, right))
    assert a.dot([(a, b), (b, a)]) == normalize(morph_sum((1, compose(left, right)), (1, compose(right, left))))


def test_unknown_generator_rejected():
    with pytest.raises(TransportError):
        gen("R_h_totally_unknown")


def test_bare_bracket_lift_rejected():
    with pytest.raises(TransportError):
        normalize(lift("T_h", "left"))


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_bracket_lift_has_the_type_of_the_bracket_tensored_with_one(side):
    # T_h (x) 1 and 1 (x) T_h go from Vh^3 to Vh^2 like any other
    # morphism; a lift that no fused rule consumes is refused by
    # normalization, not by compose.
    assert repr(lift("T_h", side)) == "MorphTerm(1 terms, Vh^3 -> Vh^2)"
    misplaced = compose(gen("sigma_h"), lift("T_h", side))
    assert (misplaced.dom, misplaced.cod) == (("q", 3), ("q", 2))
    # A term that fails is not kept, so it fails again.
    for _ in range(2):
        with pytest.raises(TransportError, match="composed directly under the bracket"):
            normalize(misplaced)
        assert misplaced.terms[0][1] not in transport._normal_terms


def test_bracket_lifts_compose_as_typed_morphisms():
    # A scaled bracket and a sum of lifts compose with the lift like the
    # bare pair, and normalize linearly.
    left = normalize(compose(gen("T_h"), lift("T_h", "left")))
    right = normalize(compose(gen("T_h"), lift("T_h", "right")))
    scaled = normalize(compose(scale(2, gen("T_h")), lift("T_h", "left")))
    assert scaled.to_text() == "2*X(T.T1).N"
    assert scaled == left.scale(2)
    summed = normalize(compose(gen("T_h"), morph_sum((1, lift("T_h", "left")), (-1, lift("T_h", "right")))))
    assert summed.to_text() == "X(T.T1).N - X(T.T2).M"
    assert summed == left - right


def test_budget_exhaustion_is_an_error(monkeypatch):
    # The budget is read when a call runs and counts a kept term's steps
    # as a fresh one's, so a warm call raises where a cold one does; a
    # term that ran out is not kept.
    expr = compose(*[gen("psi") for _ in range(8)])
    empty_term_cache()
    normalize(expr)
    monkeypatch.setattr(transport, "STEP_BUDGET", 3)
    with pytest.raises(TransportError, match="budget"):
        normalize(expr)
    empty_term_cache()
    with pytest.raises(TransportError, match="budget"):
        normalize(expr)
    assert transport._normal_terms == {}
    # Each term of the sum fits the budget, the call's steps do not.
    monkeypatch.undo()
    term = compose(gen("psi"), gen("psi_inv"))
    steps = len(normalize_traced(term)[1])
    monkeypatch.setattr(transport, "STEP_BUDGET", steps + 1)
    normalize(term)
    with pytest.raises(TransportError, match="budget"):
        normalize(morph_sum((1, term), (2, term)))


def _mixed_table():
    """Multi-term entries with an ipi term and a user constant."""
    entries = {"2": "1/24*A.B - 1/24*B.A", "3": "c*A.A.B - 2*ipi*A.B.A + 1/3*B.B.A"}
    return parse_table(json.dumps({"constants": ["c"], "entries": entries}))


def _series_sides():
    """Both sides of every 5.1 claim, for the built-in and the mixed table."""
    for table in (builtin_table(), _mixed_table()):
        for identity in ("5.1a", "5.1b"):
            for k in table.degrees():
                yield series_degree_expressions(identity, table, k)


def test_traces_replay_to_the_same_normal_form():
    s12 = lift("sigma_h", "left")
    exprs = [
        compose(gen("psi"), gen("psi_inv")),
        compose(gen("T_h"), lift("T_h", "left")),
        compose(gen("psi"), s12, gen("psi_inv")),
        compose(scale(2, gen("T_h")), lift("T_h", "left")),
        compose(gen("T_h"), morph_sum((1, lift("T_h", "left")), (-1, lift("T_h", "right")))),
    ]
    for identity in ("4.3a", "4.3b", "4.4", "4.5"):
        exprs.extend(identity_expressions(identity))
    for sides in _series_sides():
        exprs.extend(sides)
    for expr in exprs:
        element, trace = normalize_traced(expr)
        assert replay_trace(expr, trace) == element


def test_replay_rejects_a_truncated_trace():
    # Without its last step a trace leaves a rule that still applies.
    for expr in (compose(gen("psi"), gen("psi_inv")), *identity_expressions("4.4"), *identity_expressions("4.5")):
        _, trace = normalize_traced(expr)
        with pytest.raises(TransportError, match="trace is incomplete"):
            replay_trace(expr, trace[:-1])


def test_replay_rejects_a_step_where_its_rule_does_not_match():
    expr = compose(gen("psi"), gen("psi_inv"))
    _, trace = normalize_traced(expr)
    # After def:psi the factors are M^-1.N.psi_inv, and def:psi_inv
    # applies at 2 only: not at the N before it, nor past the end.
    assert trace[1] == {"term": 0, "rule": "def:psi_inv", "pos": 2}
    for pos in (1, 3):
        moved = [dict(step) for step in trace]
        moved[1]["pos"] = pos
        with pytest.raises(TransportError, match="does not apply"):
            replay_trace(expr, moved)
    # Any step of a longer trace moved past the end of its term.
    expr = identity_expressions("4.5")[0]
    _, trace = normalize_traced(expr)
    for i in range(len(trace)):
        moved = [dict(step) for step in trace]
        moved[i]["pos"] = 99
        with pytest.raises(TransportError, match=f"rule {trace[i]['rule']!r} does not apply at position 99"):
            replay_trace(expr, moved)


@pytest.mark.parametrize("term", [3, -1, False, True, 0.0], ids=["past-end", "negative", "false", "true", "float"])
def test_replay_rejects_a_step_naming_no_term(term):
    # The expression has one term.  Before the check, 3 and True raised
    # a bare IndexError, 0.0 a TypeError, and -1 and False replayed term 0.
    expr = compose(gen("psi"), gen("psi_inv"))
    _, trace = normalize_traced(expr)
    assert len(expr.terms) == 1 and trace[0] == {"term": 0, "rule": "def:psi", "pos": 0}
    moved = [dict(step) for step in trace]
    moved[0]["term"] = term
    with pytest.raises(TransportError, match=rf"trace step term {term!r} is not an index in range\(1\)"):
        replay_trace(expr, moved)


@pytest.mark.parametrize("pos", [0.0, "0", None, True], ids=["float", "string", "none", "true"])
def test_replay_rejects_a_position_that_is_not_an_int(pos):
    # def:psi applies at 0.  Before the check, the first three raised a
    # bare TypeError.
    expr = compose(gen("psi"), gen("psi_inv"))
    _, trace = normalize_traced(expr)
    moved = [dict(step) for step in trace]
    moved[0]["pos"] = pos
    with pytest.raises(TransportError, match=re.escape(f"rule 'def:psi' does not apply at position {pos!r}")):
        replay_trace(expr, moved)


@pytest.mark.parametrize(
    "step",
    [{"rule": "def:psi", "pos": 0}, {"term": 0, "pos": 0}, {"term": 0, "rule": "def:psi"}, ["x"], "step", None],
    ids=["no-term", "no-rule", "no-pos", "list", "string", "none"],
)
def test_replay_rejects_a_step_that_is_not_a_full_dict(step):
    # Before the check, a missing key raised a bare KeyError and a list,
    # a string or None a bare TypeError.
    expr = compose(gen("psi"), gen("psi_inv"))
    with pytest.raises(TransportError, match=re.escape(f"trace step {step!r} is not a dict with term, rule and pos")):
        replay_trace(expr, [step])


def test_each_rewrite_step_matches_its_rule_once(monkeypatch):
    # Every merge:X step multiplies its two image blocks exactly once.
    products = []
    original = ClassicalPoly.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(ClassicalPoly, "__mul__", counted)
    expr = compose(gen("sigma_h"), gen("Omega_h"), gen("sigma_h"))
    empty_term_cache()
    element, trace = normalize_traced(expr)
    merges = [step for step in trace if step["rule"] == "merge:X"]
    assert len(merges) == 2
    assert len(products) == len(merges)
    assert replay_trace(expr, trace) == element


_POOL = ["psi", "psi_inv", "sigma_h_12", "sigma_h_23", "Omega_h_12", "Omega_h_23"]


def _random_well_typed(rng):
    """A random composite of three-site generators, sometimes under a
    bracket composite or summed with one more generator."""
    parts = [gen(rng.choice(_POOL)) for _ in range(rng.randint(1, 6))]
    if rng.random() < 0.3:
        # End in a bracket composite so the fused rules fire too.
        return compose(gen("T_h"), lift("T_h", rng.choice(("left", "right"))), compose(*parts))
    expr = compose(*parts)
    if rng.random() < 0.4:
        expr = morph_sum((rng.randint(-3, 3), expr), (1, gen(rng.choice(_POOL))))
    return expr


def _random_conjugated(rng):
    """A random composite of three-site generators and conjugated image
    blocks, some of them scalar, or of two-site generators under a
    bracket, so that every rule fires somewhere."""
    if rng.random() < 0.25:
        parts = [gen(rng.choice(("sigma_h", "Omega_h"))) for _ in range(rng.randint(0, 4))]
        last = [gen("t_h")] if rng.random() < 0.3 else []
        head = [gen("T_h")] if rng.random() < 0.5 else []
        return compose(*head, *parts, *last) if head or parts or last else gen("sigma_h")
    parts = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.6:
            parts.append(gen(rng.choice(_POOL)))
            continue
        word = tuple(rng.choice(("sig12", "sig23", "Om12", "Om23")) for _ in range(rng.randint(0, 2)))
        terms = [(word, Scalar.rational(rng.randint(1, 3), rng.randint(1, 2)))]
        if word and rng.random() < 0.3:
            terms.append(((), Scalar.constant("ipi")))
        block = xblock(ClassicalPoly(3, 3, terms))
        parts.append(compose(gen(rng.choice("MN") + "_inv"), block, gen(rng.choice("MN"))))
    expr = compose(*parts)
    if rng.random() < 0.4:
        expr = morph_sum((Scalar.rational(rng.randint(-3, 3), 2), expr), (1, gen(rng.choice(_POOL))))
    return expr


def test_termination_on_random_well_typed_terms():
    rng = random.Random(20240813)
    for _ in range(100):
        nf = normalize(_random_well_typed(rng))
        for _, factors in nf.terms:
            assert all(f[0] in ("c", "X") for f in factors)


# -- the indexed, resuming search against the all-rules search -----------------------

def _assert_same_as_reference(expr):
    """From an empty term cache, then from the terms that run kept: both
    times the reference search's element and trace."""
    ref_element, ref_trace = reference_normalize(expr)
    empty_term_cache()
    for _ in range(2):
        element, trace = normalize_traced(expr)
        assert trace == ref_trace
        assert element == ref_element


def test_random_terms_step_as_the_reference_search():
    rng = random.Random(20261018)
    for _ in range(120):
        _assert_same_as_reference(_random_well_typed(rng))
    for _ in range(120):
        _assert_same_as_reference(_random_conjugated(rng))


def test_series_claims_step_as_the_reference_search():
    for sides in _series_sides():
        for expr in sides:
            _assert_same_as_reference(expr)


@pytest.mark.parametrize("identity", ["4.3a", "4.3b", "4.4", "4.5"])
def test_identity_sides_step_as_the_reference_search(identity):
    for expr in identity_expressions(identity):
        _assert_same_as_reference(expr)


def test_kept_terms_serve_other_expressions_as_the_reference():
    # Terms kept while normalizing one expression serve the next, each
    # traced at its own term index: a sum repeats a term, the 5.1 claims
    # share their monomials' terms, and random terms share their parts.
    rng = random.Random(20261019)
    repeated = compose(gen("psi"), gen("psi_inv"))
    exprs = [morph_sum((1, repeated), (2, repeated), (-1, gen("psi")), (1, repeated))]
    for identity in ("4.3a", "4.3b", "4.4", "4.5"):
        exprs.extend(identity_expressions(identity))
    for sides in _series_sides():
        exprs.extend(sides)
    exprs += [_random_well_typed(rng) for _ in range(40)] + [_random_conjugated(rng) for _ in range(40)]
    refs = [reference_normalize(expr) for expr in exprs]
    empty_term_cache()
    for _ in range(2):
        for expr, (ref_element, ref_trace) in zip(exprs, refs):
            element, trace = normalize_traced(expr)
            assert trace == ref_trace
            assert element == ref_element


def test_kept_terms_stay_within_their_bound(monkeypatch):
    # Past the bound the term used longest ago is forgotten; what is left
    # still normalizes as the reference.
    monkeypatch.setattr(transport._normal_terms, "bound", 8)
    empty_term_cache()
    rng = random.Random(20261020)
    exprs = [_random_conjugated(rng) for _ in range(40)]
    for expr in exprs + exprs:
        ref_element, ref_trace = reference_normalize(expr)
        assert normalize_traced(expr) == (ref_element, ref_trace)
        assert len(transport._normal_terms) <= 8


def test_assembled_claims_normalize_as_the_series_claims():
    # The assembled claim is the weighted sum of its monomial claims'
    # sides: the same terms in the same order as the reference claim
    # built from the whole entry, so the same normal form and trace as
    # the reference's from an empty cache, after the monomials were
    # rewritten as the verifier does.
    golden = Path(__file__).parent / "golden" / "table_constants.json"
    for table in (builtin_table(), _mixed_table(), parse_table(golden.read_text())):
        for identity in ("5.1a", "5.1b"):
            for k in table.degrees():
                expected = reference_series_claim(identity, table, k)
                assert [e.terms for e in series_degree_expressions(identity, table, k)] == [e.terms for e in expected]
                empty_term_cache()
                normal = [normalize_traced(expr) for expr in expected]
                empty_term_cache()
                claims = transport._degree_claims(identity, table.entry(k).sorted_terms())
                assert claims[-1][0] == "<assembled>"
                for _, sides in claims[:-1]:
                    for expr in sides:
                        normalize_traced(expr)
                for got, want, want_normal in zip(claims[-1][1], expected, normal):
                    assert (got.dom, got.cod) == (want.dom, want.cod)
                    assert got.terms == want.terms
                    assert normalize_traced(got) == want_normal


def test_search_resumes_left_of_a_rewrite():
    # The rewrite at 2 leaves N^-1.M.M^-1.N, whose first match is at 1:
    # the search resumes one factor left of the rewrite, not at it.
    _, trace = normalize_traced(compose(gen("psi_inv"), gen("psi")))
    assert [(step["rule"], step["pos"]) for step in trace] == [
        ("def:psi_inv", 0),
        ("def:psi", 2),
        ("group:cancel", 1),
        ("group:cancel", 0),
    ]
    assert all(step["term"] == 0 for step in trace)


def test_classical_steps_match_the_reference_search():
    # Every word carries the braid run sig12.sig23.sig12, the one rule
    # reading three atoms, among other atoms and bracket heads.
    rng = random.Random(33)
    fill = ("sig12", "sig23", "Om12", "Om23")
    for _ in range(150):
        bracket = rng.random() < 0.4
        terms = []
        for _ in range(rng.randint(1, 4)):
            word = [rng.choice(fill) for _ in range(rng.randint(0, 4))]
            at = rng.randint(0, len(word))
            word[at:at] = ["sig12", "sig23", "sig12"]
            if bracket:
                word = [rng.choice(("T1", "T2"))] + word
                if rng.random() < 0.5:
                    word = ["T"] + word
            terms.append((tuple(word), Scalar.rational(rng.randint(-3, 3) or 1, rng.randint(1, 3))))
        # One type per polynomial: the first word's.
        first = ClassicalPoly.word(terms[0][0])
        terms = [(w, c) for w, c in terms if ClassicalPoly.word(w).cod == first.cod]
        poly = ClassicalPoly(first.dom, first.cod, terms)
        reduced, steps, used = classical_normalize(poly)
        ref_reduced, ref_steps, ref_used = reference_classical_normalize(poly)
        assert steps == ref_steps
        assert reduced == ref_reduced and used == ref_used


def test_conjugator_scaffold_identities():
    # The image of the classical associator factors as M.N^-1, equal to
    # (M - N).N^-1 + 1 after cancellation, and the associator satisfies
    # psi - 1 = M^-1.(N - M) and psi_inv - 1 = N^-1.(M - N).
    m, n, n_inv, m_inv = gen("M"), gen("N"), gen("N_inv"), gen("M_inv")
    lhs = normalize(compose(m, n_inv))
    rhs = normalize(
        morph_sum(
            (1, compose(morph_sum((1, m), (-1, n)), n_inv)),
            (1, compose(n, n_inv)),
        )
    )
    assert lhs == rhs
    assert normalize(morph_sum((1, gen("psi")), (-1, identity_on(3)))) == normalize(
        compose(m_inv, morph_sum((1, n), (-1, m)))
    )
    assert normalize(morph_sum((1, gen("psi_inv")), (-1, identity_on(3)))) == normalize(
        compose(n_inv, morph_sum((1, m), (-1, n)))
    )


def test_discharge_alternates_classical_and_structural_passes():
    from qjacobi.transport import reduce_modulo_classical

    # Three flips compose to one flip; the leftmost-first scan peels the
    # bracket with antisymmetry at every step.
    lhs = normalize(compose(gen("T_h"), gen("sigma_h"), gen("sigma_h"), gen("sigma_h")))
    rhs = normalize(scale(-1, gen("T_h")))
    reduced, steps, used = reduce_modulo_classical(lhs - rhs)
    assert reduced.is_zero
    assert used == {"3.1"} and len(steps) == 3
    # Pure flip powers do need involutivity plus the structural passes:
    # the image collapses to a scalar block, then the conjugators cancel.
    four = normalize(compose(*[gen("sigma_h")] * 4))
    reduced, _, used = reduce_modulo_classical(four - normalize(identity_on(2)))
    assert reduced.is_zero
    assert used == {"sigma_sq"}


# -- classical discharge ---------------------------------------------------------

def test_classical_antisymmetry_rule():
    poly = ClassicalPoly.word(("T", "sig"))
    reduced, steps, used = classical_normalize(poly)
    assert reduced == ClassicalPoly.word(("T",), Scalar.rational(-1))
    assert used == {"3.1"}
    assert steps[0][0] == "3.1"


def test_classical_steps_take_the_first_term_in_canonical_order():
    # T.sig sorts before T.sig.sig, so it is rewritten first; starting
    # at T.sig.sig would cancel both terms in one step.
    poly = ClassicalPoly.word(("T", "sig")) + ClassicalPoly.word(("T", "sig", "sig"))
    reduced, steps, _ = classical_normalize(poly)
    assert reduced.is_zero
    assert steps == [("3.1", "T.sig", 0), ("3.1", "T.sig.sig", 0), ("3.1", "T.sig", 0)]


def test_classical_braid_rule_oriented():
    lhs = ClassicalPoly.word(("sig12", "sig23", "sig12"))
    reduced, _, used = classical_normalize(lhs)
    assert reduced == ClassicalPoly.word(("sig23", "sig12", "sig23"))
    assert used == {"3.3"}
    # The right-hand side is already normal.
    rhs, steps, _ = classical_normalize(ClassicalPoly.word(("sig23", "sig12", "sig23")))
    assert rhs == ClassicalPoly.word(("sig23", "sig12", "sig23")) and not steps


def test_classical_jacobi_expansion():
    poly = ClassicalPoly.word(("T", "T1"))
    reduced, _, used = classical_normalize(poly)
    expected = ClassicalPoly.word(("T", "T2")) + ClassicalPoly.word(("T", "T2", "sig12"), Scalar.rational(-1))
    assert reduced == expected
    assert used == {"3.2"}


# Typed classical words by (domain, codomain), built from atom runs.
_ENDO3 = st.lists(st.sampled_from(["sig12", "sig23", "Om12", "Om23"]), max_size=2).map(tuple)
_ENDO2 = st.lists(st.sampled_from(["sig", "Om"]), max_size=2).map(tuple)
_BRACKET3 = st.sampled_from([("T1",), ("T2",)])
_TYPED_WORDS = {
    (3, 3): _ENDO3,
    (2, 2): _ENDO2,
    (3, 2): st.tuples(_ENDO2, _BRACKET3, _ENDO3).map(lambda parts: sum(parts, ())),
    (2, 1): _ENDO2.map(lambda w: ("T",) + w),
    (3, 1): st.tuples(_ENDO2, _BRACKET3, _ENDO3).map(lambda parts: ("T",) + sum(parts, ())),
}
_classical_scalars = st.builds(
    lambda p, q, e: Scalar.rational(p, q) * (Scalar.constant("ipi", e) if e else Scalar.one()),
    st.integers(-3, 3),
    st.integers(1, 3),
    st.integers(0, 2),
)


@st.composite
def _raw_classical(draw, dom, cod):
    return draw(st.lists(st.tuples(_TYPED_WORDS[(dom, cod)], _classical_scalars), max_size=4))


def _ref_classical(raw):
    merged = {}
    for word, coeff in raw:
        merged[word] = merged.get(word, Scalar.zero()) + coeff
    return {w: c for w, c in merged.items() if not c.is_zero}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_TYPED_WORDS)), st.sampled_from(sorted(_TYPED_WORDS)), st.data())
def test_classical_composition_matches_concatenation(left_type, right_type, data):
    (ldom, lcod), (rdom, rcod) = left_type, right_type
    raw_left = data.draw(_raw_classical(ldom, lcod))
    raw_right = data.draw(_raw_classical(rdom, rcod))
    left = ClassicalPoly(ldom, lcod, raw_left)
    right = ClassicalPoly(rdom, rcod, raw_right)
    assert dict(left.sorted_terms()) == _ref_classical(raw_left)
    if ldom != rcod:
        with pytest.raises(TransportError):
            left * right
        return
    product = left * right
    assert (product.dom, product.cod) == (rdom, lcod)
    concatenated = [(wl + wr, cl * cr) for wl, cl in raw_left for wr, cr in raw_right]
    assert dict(product.sorted_terms()) == _ref_classical(concatenated)
    reordered = ClassicalPoly(ldom, lcod, list(reversed(raw_left)))
    assert reordered == left and hash(reordered) == hash(left)


def test_classical_word_type_is_checked():
    with pytest.raises(TransportError):
        ClassicalPoly(3, 3, {("T1",): 1})
    with pytest.raises(TransportError):
        ClassicalPoly(3, 2, {(): 1})
    with pytest.raises(TransportError):
        ClassicalPoly.atom("sig") + ClassicalPoly.atom("sig12")
    with pytest.raises(TransportError, match="unknown classical atom 'bogus'"):
        ClassicalPoly.atom("bogus")


# -- the shipped identities -------------------------------------------------------

def test_identity_4_3a():
    report = verify_identity("4.3a")
    assert report.passed
    assert report.classical_rules_used == ("3.1",)
    assert report.lhs_text == "X(T.sig).Mvv"
    assert report.rhs_text == "- X(T).Mvv"


def test_identity_4_3b():
    report = verify_identity("4.3b")
    assert report.passed
    assert report.classical_rules_used == ("sigma_sq",)


def test_identity_4_4():
    report = verify_identity("4.4")
    assert report.passed
    assert report.classical_rules_used == ("3.2",)
    assert report.lhs_text == "X(T.T1).N"


def test_identity_4_5():
    report = verify_identity("4.5")
    assert report.passed
    assert report.classical_rules_used == ("3.3",)
    assert report.lhs_text == "M^-1.X(sig12.sig23.sig12).N"
    assert report.rhs_text == "M^-1.X(sig23.sig12.sig23).N"
    assert any("bracketing" in note for note in report.notes)


def test_no_identity_consumes_foreign_axioms():
    for name in ("4.3a", "4.3b", "4.4", "4.5"):
        report = verify_identity(name)
        assert set(report.classical_rules_used) <= {"3.1", "3.2", "3.3", "sigma_sq"}


def test_identity_5_1b_degree2():
    report = verify_identity("5.1b", table=builtin_table())
    assert report.passed
    assert all(item["passed"] for item in report.details)
    monomials = {item["monomial"] for item in report.details}
    assert monomials == {"A.B", "B.A", "<assembled>"}
    # Both sides of each check collapse to image blocks with no leftover
    # conjugators.
    for item in report.details:
        assert item["lhs"] == item["rhs"]
        assert "X(" in item["lhs"]
        assert "M" not in item["lhs"] and "N" not in item["lhs"]


def test_identity_5_1a_degree2():
    report = verify_identity("5.1a", table=builtin_table())
    assert report.passed
    assert report.lhs_text == report.rhs_text


def test_identity_reports_serialize():
    import json

    for name in ("4.3a", "4.4", "4.5", "5.1b"):
        doc = verify_identity(name).to_json()
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text)["identity"] == name


def test_a_report_json_is_built_fresh_on_every_call():
    # A caller's change to one to_json document must not reach the next.
    for name in ("4.5", "5.1a"):
        report = verify_identity(name)
        before = json.dumps(report.to_json(), sort_keys=True)
        report.to_json()["trace"]["lhs"].append({"term": 99})
        report.to_json()["trace"]["rhs"][0]["term"] = 99
        report.to_json()["details"].append({"passed": False})
        if report.details:
            report.to_json()["details"][0]["passed"] = False
        report.to_json()["notes"].clear()
        assert json.dumps(report.to_json(), sort_keys=True) == before


def test_a_kept_identity_report_cannot_change():
    import dataclasses

    for name in ("4.5", "5.1a"):
        report = verify_identity(name)
        assert verify_identity(name) is report
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.passed = False
        with pytest.raises(TypeError):
            report.rhs_trace[0]["term"] = 99
    with pytest.raises(TypeError):
        verify_identity("5.1a").details[0]["passed"] = False
    # A kept trace still replays.
    lhs_expr, _ = identity_expressions("4.5")
    report = verify_identity("4.5")
    assert replay_trace(lhs_expr, report.lhs_trace).to_text() == report.lhs_text


_VERIFY_ALL = ("4.3a", "4.3b", "4.4", "4.5", "5.1a", "5.1b", "sigma_h_def")


def test_a_report_is_kept_per_identity_and_what_it_reads():
    empty_report_cache()
    mixed = _mixed_table()
    # 4.3a-4.5 read neither the table nor the order.
    assert verify_identity("4.5") is verify_identity("4.5", table=mixed, order=7)
    # sigma_h_def reads the order alone.
    assert verify_identity("sigma_h_def", order=3) is verify_identity("sigma_h_def", table=mixed, order=3)
    assert verify_identity("sigma_h_def", order=3) is not verify_identity("sigma_h_def", order=4)
    # 5.1a and 5.1b read the table's content, not its source.
    copy = parse_table(builtin_table_text(), source="copy")
    assert verify_identity("5.1a", table=copy, order=7) is verify_identity("5.1a")
    assert verify_identity("5.1a", table=mixed) is not verify_identity("5.1a")
    assert verify_identity("5.1a", table=mixed).to_json() != verify_identity("5.1a").to_json()
    # Every kept report is the one a fresh call builds.
    calls = [(name, None, 4) for name in _VERIFY_ALL] + [
        (name, mixed, order) for name in ("5.1a", "5.1b", "sigma_h_def") for order in (3, 5)
    ]
    kept = [verify_identity(*call).to_json() for call in calls]
    for call, doc in zip(calls, kept):
        empty_report_cache()
        empty_term_cache()
        assert verify_identity(*call).to_json() == doc, call


def test_the_report_one_past_the_bound_forgets_the_one_used_longest_ago():
    # The bound holds one ``verify all`` and the 5.1 pair of each table
    # ``load_table`` keeps.
    empty_report_cache()
    docs = [{"entries": {"2": f"{i + 1}*A.B - {i + 1}*B.A"}} for i in range(CACHED_FILES + 1)]
    tables = [parse_table(json.dumps(doc)) for doc in docs]
    calls = [(name, None) for name in _VERIFY_ALL]
    calls += [(name, table) for table in tables[:-1] for name in ("5.1a", "5.1b")]
    assert len(calls) == transport.KEPT_REPORTS
    reports = [verify_identity(name, table) for name, table in calls]
    # Using the first again makes the second the one used longest ago.
    assert verify_identity(*calls[0]) is reports[0]
    verify_identity("5.1a", tables[-1])
    for i, (call, report) in enumerate(zip(calls, reports)):
        if i != 1:
            assert verify_identity(*call) is report
    again = verify_identity(*calls[1])
    assert again is not reports[1] and again.to_json() == reports[1].to_json()


def test_a_report_whose_check_raises_is_not_kept(monkeypatch):
    # The budget is read at call time and keys the report, so a lowered
    # budget rewrites, runs out and keeps nothing, and the restored one
    # reads the report kept for it.
    report = verify_identity("4.5")
    monkeypatch.setattr(transport, "STEP_BUDGET", 12)
    for _ in range(2):
        with pytest.raises(TransportError, match="budget"):
            verify_identity("4.5")
    assert ("4.5", None, 12) not in transport._reports
    monkeypatch.undo()
    assert verify_identity("4.5") is report


def test_a_failed_report_is_kept(monkeypatch):
    # A failed IdentityReport is falsy; it is kept all the same.
    built = []

    def failing(identity):
        built.append(identity)
        return IdentityReport(identity=identity, passed=False, lhs_text="0", rhs_text="1")

    empty_report_cache()
    monkeypatch.setattr(transport, "_verify_h_free", failing)
    try:
        report = verify_identity("4.5")
        assert not report and verify_identity("4.5") is report
        assert built == ["4.5"]
    finally:
        empty_report_cache()


def test_braiding_relation_series():
    report = verify_identity("sigma_h_def", order=4)
    assert report.passed


@pytest.mark.parametrize("order", range(1, 9))
def test_braiding_recurrence_matches_series_exponential(order):
    # The right side built as braiding * exp(-ipi h Omega_h), with the
    # exponential taken by HSeries.exp of the one-step series.
    from qjacobi.hseries import HSeries

    sigma_h = normalize(gen("sigma_h"))
    step = normalize(gen("Omega_h")).scale(-Scalar.constant("ipi"))
    exponent = [sigma_h.ring_zero()] * order
    if order > 1:
        exponent[1] = step
    braiding = []
    for m in range(order):
        factorial = Scalar.one()
        for k in range(2, m + 1):
            factorial = factorial / Scalar.rational(k)
        poly = ClassicalPoly.word(("sig",) + ("Om",) * m)
        factors = (("c", "Mvv", -1), ("X", poly), ("c", "Mvv", 1))
        coeff = Scalar.constant("ipi", m) * factorial if m else Scalar.one()
        braiding.append(TransportElement(q_obj(2), q_obj(2), [(coeff, factors)]))
    lhs = HSeries.constant(sigma_h, order)
    rhs = HSeries(braiding) * HSeries(exponent).exp()
    report = verify_identity("sigma_h_def", order=order)
    assert (report.passed, report.lhs_text, report.rhs_text) == (lhs == rhs, lhs.to_text(), rhs.to_text())
    assert report.passed


def test_unknown_identity():
    with pytest.raises(TransportError):
        verify_identity("9.9")


# -- soundness under evaluation ------------------------------------------------------

@pytest.fixture(scope="module")
def sl2_ops():
    return build_tensor_ops(build_algebra("sl2"))


@pytest.fixture(scope="module")
def models(sl2_ops):
    order = 4
    pair = compute_psi(builtin_table(), order)
    psi_matrix = eval_series(pair.psi, sl2_ops)
    return (
        TransportModel.trivial(sl2_ops, order),
        TransportModel.conjugated(sl2_ops, order, psi_matrix),
    )


def test_normalization_preserves_evaluation(sl2_ops, models):
    rng = random.Random(99)
    pool = ["psi", "psi_inv", "Omega_h_12", "Omega_h_23"]
    for model in models:
        for _ in range(12):
            depth = rng.randint(1, 5)
            expr = compose(*[gen(rng.choice(pool)) for _ in range(depth)])
            direct = model.evaluate(expr)
            via_nf = model.evaluate(normalize(expr))
            assert direct == via_nf


def test_evaluation_of_braid_identity_sides(models):
    s12 = lift("sigma_h", "left")
    s23 = lift("sigma_h", "right")
    lhs = compose(gen("psi"), s12, gen("psi_inv"), s23, gen("psi"), s12)
    rhs = compose(s23, gen("psi"), s12, gen("psi_inv"), s23, gen("psi"))
    for model in models:
        assert model.evaluate(lhs) == model.evaluate(rhs)


def test_model_builds_each_omega_lift_once(sl2_ops, monkeypatch):
    # Every atom matrix is a field of the tensor operators: the lifts of
    # Omega are built once, with the operators, and no model or
    # evaluation builds them again.
    import qjacobi.liealg
    import qjacobi.matrices

    calls = []
    original = qjacobi.matrices.kron

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    for module in (qjacobi.matrices, qjacobi.liealg):
        monkeypatch.setattr(module, "kron", counted)
    model = TransportModel.trivial(sl2_ops, 3)
    small = compose(gen("T_h"), lift("T_h", "left"))
    large = compose(small, *[gen(name) for name in ("psi", "Omega_h_12", "psi_inv", "Omega_h_23")])
    for expr in (small, large, large):
        model.evaluate(normalize(expr))
    assert calls == []
    assert model.atom_matrix("Om12") is sl2_ops.Omega12
    assert model.atom_matrix("Om23") is sl2_ops.Omega23
    d = sl2_ops.alg.dim
    eye = SparseMatrix.identity(d)
    assert TransportModel.trivial(sl2_ops, 3).atom_matrix("T1") == original(sl2_ops.T, eye)
    assert model.atom_matrix("T2") == original(eye, sl2_ops.T)


def test_scaled_sums_evaluate_linearly(models):
    expr = morph_sum((2, gen("psi")), (Scalar.rational(-1, 3), gen("psi_inv")))
    for model in models:
        direct = model.evaluate(expr)
        combo = model.evaluate(gen("psi")).scale(2) + model.evaluate(
            gen("psi_inv")
        ).scale(Scalar.rational(-1, 3))
        assert direct == combo
        assert model.evaluate(normalize(expr)) == direct


def test_series_claims_evaluate_equally_in_both_models(models):
    # Sums of image blocks and sums inside compositions, read directly in
    # the model, against the normal form of the conjugated side.
    for lhs, rhs in _series_sides():
        for model in models:
            direct = model.evaluate(lhs)
            assert model.evaluate(rhs) == direct
            assert model.evaluate(normalize(rhs)) == direct
