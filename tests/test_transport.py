"""Tests for the typed conjugation rewriter."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjacobi.deformation import builtin_table, parse_table
from qjacobi.liealg import build_algebra, build_tensor_ops, eval_series
from qjacobi.matrices import SparseMatrix
from qjacobi.ncalg import Scalar
from qjacobi.psiengine import compute_psi
from qjacobi.transport import (
    ClassicalPoly,
    TransportElement,
    TransportError,
    TransportModel,
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
    assert nf.is_identity()
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


def test_unknown_generator_rejected():
    with pytest.raises(TransportError):
        gen("R_h_totally_unknown")


def test_bare_bracket_lift_rejected():
    with pytest.raises(TransportError):
        normalize(lift("T_h", "left"))


def test_budget_exhaustion_is_an_error():
    expr = compose(*[gen("psi") for _ in range(8)])
    with pytest.raises(TransportError, match="budget"):
        normalize(expr, budget=3)


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


def test_each_rewrite_step_matches_its_rule_once(monkeypatch):
    # Every merge:X step multiplies its two image blocks exactly once.
    products = []
    original = ClassicalPoly.__mul__

    def counted(self, other):
        products.append(1)
        return original(self, other)

    monkeypatch.setattr(ClassicalPoly, "__mul__", counted)
    expr = compose(gen("sigma_h"), gen("Omega_h"), gen("sigma_h"))
    element, trace = normalize_traced(expr)
    merges = [step for step in trace if step["rule"] == "merge:X"]
    assert len(merges) == 2
    assert len(products) == len(merges)
    assert replay_trace(expr, trace) == element


def test_termination_on_random_well_typed_terms():
    rng = random.Random(20240813)
    pool = ["psi", "psi_inv", "sigma_h_12", "sigma_h_23", "Omega_h_12", "Omega_h_23"]
    for _ in range(100):
        depth = rng.randint(1, 6)
        parts = [gen(rng.choice(pool)) for _ in range(depth)]
        if rng.random() < 0.3:
            # End in a bracket composite so the fused rules fire too.
            expr = compose(gen("T_h"), lift("T_h", rng.choice(("left", "right"))), compose(*parts))
        else:
            expr = compose(*parts)
            if rng.random() < 0.4:
                expr = morph_sum((rng.randint(-3, 3), expr), (1, gen(rng.choice(pool))))
        nf = normalize(expr)
        for _, factors in nf.terms:
            assert all(f[0] in ("c", "X") for f in factors)


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
    report = verify_identity("5.1b", table=builtin_table(), degrees=[2])
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
    report = verify_identity("5.1a", table=builtin_table(), degrees=[2])
    assert report.passed
    assert report.lhs_text == report.rhs_text


def test_identity_reports_serialize():
    import json

    for name in ("4.3a", "4.4", "4.5", "5.1b"):
        doc = verify_identity(name).to_json()
        text = json.dumps(doc, sort_keys=True)
        assert json.loads(text)["identity"] == name


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
    # Every atom matrix but Om12 and Om23 is a field of the tensor
    # operators.  A model builds those two lifts of Omega on first use and
    # reuses them in every later evaluation.
    import qjacobi.liealg
    import qjacobi.matrices
    import qjacobi.transport

    calls = []
    original = qjacobi.matrices.kron

    def counted(a, b):
        calls.append(1)
        return original(a, b)

    for module in (qjacobi.matrices, qjacobi.liealg, qjacobi.transport):
        monkeypatch.setattr(module, "kron", counted)
    model = TransportModel.trivial(sl2_ops, 3)
    small = compose(gen("T_h"), lift("T_h", "left"))
    large = compose(small, *[gen(name) for name in ("psi", "Omega_h_12", "psi_inv", "Omega_h_23")])
    model.evaluate(normalize(small))
    assert calls == []
    for expr in (large, large):
        model.evaluate(normalize(expr))
    assert len(calls) == 2
    d = sl2_ops.alg.dim
    eye = SparseMatrix.identity(d)
    assert model.atom_matrix("Om12") == original(sl2_ops.Omega, eye)
    assert model.atom_matrix("Om23") == original(eye, sl2_ops.Omega)
    assert TransportModel.trivial(sl2_ops, 3).atom_matrix("T1") == original(sl2_ops.T, eye)
    assert model.atom_matrix("T2") == original(eye, sl2_ops.T)
    assert len(calls) == 2


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
