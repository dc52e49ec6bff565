"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion with its runtime.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from helpers import random_homogeneous_table

from qjacobi.deformation import (
    AB_ALPHABET,
    alpha,
    builtin_table,
    builtin_table_text,
    dump_table,
    parse_table,
)
from qjacobi.hseries import HSeries, parse_series
from qjacobi.liealg import (
    algebra_to_json,
    build_algebra,
    build_tensor_ops,
    spectral_report,
    structure_report,
    verify_classical,
    verify_sigma_rmatrix,
)
from qjacobi.matrices import SparseMatrix, kron
from qjacobi.ncalg import NCPoly, Scalar, commutator, parse_poly, substitute
from qjacobi.psiengine import PSI_ALPHABET, compute_psi
from qjacobi.transport import (
    identity_expressions,
    normalize_traced,
    replay_trace,
    series_degree_expressions,
    verify_identity,
)


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s (budget {budget_seconds}s)"
    print(f"criterion {number}: PASS ({elapsed:.2f}s) - {description}")


def test_criterion_1_base_case():
    with criterion(1, 1.0, "base case: the pair is 1 modulo h^2"):
        pair = compute_psi(builtin_table(), 2)
        unit = HSeries.unit(NCPoly.one(PSI_ALPHABET), 2)
        assert pair.psi.coeffs == unit.coeffs
        assert pair.psi_inv.coeffs == unit.coeffs


def test_criterion_2_order_two_coefficient():
    with criterion(2, 1.0, "order-2 coefficient is minus the commutator over 24"):
        pair = compute_psi(builtin_table(), 3)
        o12 = NCPoly.letter(PSI_ALPHABET, "O12")
        o23 = NCPoly.letter(PSI_ALPHABET, "O23")
        expected = commutator(o12, o23).scale(Scalar.rational(-1, 24))
        assert pair.psi.coeffs == (NCPoly.one(PSI_ALPHABET), NCPoly.zero(PSI_ALPHABET), expected)


def test_criterion_3_inverse_identity():
    with criterion(3, 60.0, "two-sided inverse identity and inverse-formula consistency"):
        unit10 = HSeries.unit(NCPoly.one(PSI_ALPHABET), 10)
        pair = compute_psi(builtin_table(), 10)
        assert pair.psi * pair.psi_inv == unit10
        assert pair.psi_inv * pair.psi == unit10
        for order in range(2, 11):
            opair = compute_psi(builtin_table(), order)
            assert opair.psi_inv == opair.psi.invert()
        rng = random.Random(42)
        unit7 = HSeries.unit(NCPoly.one(PSI_ALPHABET), 7)
        for _ in range(50):
            table = random_homogeneous_table(rng, max_degree=5)
            rpair = compute_psi(table, 7)
            assert rpair.psi * rpair.psi_inv == unit7
            assert rpair.psi_inv * rpair.psi == unit7
            assert rpair.psi_inv == rpair.psi.invert()


def test_criterion_4_classical_suite():
    with criterion(4, 30.0, "classical identities and structure invariants on sl2 and sl3"):
        for name in ("sl2", "sl3"):
            ops = build_tensor_ops(build_algebra(name))
            classical = verify_classical(ops)
            assert classical.ok, [c.name for c in classical.checks if not c.passed]
            structure = structure_report(ops)
            assert structure.ok, [c.name for c in structure.checks if not c.passed]


def test_criterion_5_rmatrix_relation():
    with criterion(5, 5.0, "braiding relation modulo h^4 on sl2 with formal ipi"):
        ops = build_tensor_ops(build_algebra("sl2"))
        report = verify_sigma_rmatrix(ops, 4)
        assert report.ok, [c.name for c in report.checks if not c.passed]


def test_criterion_6_spectral_oracle():
    with criterion(6, 5.0, "two-site Casimir spectrum on sl2 by exact rank"):
        alg = build_algebra("sl2")
        ops = build_tensor_ops(alg)
        # Independent brute-force oracle: assemble the operator from the
        # inverse Killing matrix and adjoint blocks, then rank-scan.
        kinv = alg.killing().inverse()
        oracle = SparseMatrix.zeros(9, 9)
        for i in range(3):
            for j in range(3):
                coeff = kinv.entry(i, j)
                if not coeff.is_zero:
                    oracle = oracle + kron(alg.ad(i), alg.ad(j)).scale(coeff)
        assert oracle == ops.Omega
        eye = SparseMatrix.identity(9)
        expected = {Fraction(-1): 1, Fraction(-1, 2): 3, Fraction(1, 2): 5}
        product = eye
        for lam, dim in expected.items():
            shifted = oracle - eye.scale(Scalar.rational(lam))
            assert 9 - shifted.rank() == dim
            product = product * shifted
        assert product.is_zero
        assert oracle.trace().is_zero
        # Main path agrees with the oracle values.
        report = spectral_report(ops.Omega)
        assert report.trace == 0
        assert report.factored_text() == "(x + 1)*(x + 1/2)*(x - 1/2)"
        assert [(r, d) for r, _, d in report.factors] == [
            (Fraction(-1), 1),
            (Fraction(-1, 2), 3),
            (Fraction(1, 2), 5),
        ]


def test_criterion_7_transport_suite():
    with criterion(7, 10.0, "deformed identities by rewriting, with replayable traces"):
        expected_rules = {
            "4.3a": ("3.1",),
            "4.3b": ("sigma_sq",),
            "4.4": ("3.2",),
            "4.5": ("3.3",),
        }
        for name, rules in expected_rules.items():
            report = verify_identity(name)
            assert report.passed, name
            assert report.classical_rules_used == rules
            assert set(report.classical_rules_used) <= {"3.1", "3.2", "3.3", "sigma_sq"}
            lhs_expr, rhs_expr = identity_expressions(name)
            lhs_el, lhs_trace = normalize_traced(lhs_expr)
            rhs_el, rhs_trace = normalize_traced(rhs_expr)
            assert report.lhs_trace == tuple(lhs_trace) and report.rhs_trace == tuple(rhs_trace)
            assert replay_trace(lhs_expr, report.lhs_trace) == lhs_el
            assert replay_trace(rhs_expr, report.rhs_trace) == rhs_el
            assert report.lhs_text == lhs_el.to_text()
            assert report.rhs_text == rhs_el.to_text()
        for name in ("5.1a", "5.1b"):
            report = verify_identity(name, table=builtin_table())
            assert report.passed, name
            monomials = {item["monomial"] for item in report.details}
            assert monomials == {"A.B", "B.A", "<assembled>"}
            assert all(item["passed"] for item in report.details)
            lhs_expr, rhs_expr = series_degree_expressions(name, builtin_table(), 2)
            assert replay_trace(lhs_expr, report.lhs_trace).to_text() == report.lhs_text
            assert replay_trace(rhs_expr, report.rhs_trace).to_text() == report.rhs_text


def test_criterion_8_alpha_conformance():
    with criterion(8, 5.0, "run-substitution conformance and specialization"):
        one = NCPoly.one(AB_ALPHABET)
        assert alpha(one).to_text() == "1"
        ab = NCPoly.word(AB_ALPHABET, ("A", "B"))
        assert alpha(ab).to_text() == "C.Zinv.D.Z"
        a_img = NCPoly.letter(AB_ALPHABET, "A")
        b_img = NCPoly.letter(AB_ALPHABET, "B")
        images = {"C": a_img, "D": b_img, "Z": one, "Zinv": one}
        for length in range(7):
            for word in itertools.product("AB", repeat=length):
                p = NCPoly.word(AB_ALPHABET, word)
                assert substitute(alpha(p), images) == p


def test_criterion_9_determinism_and_round_trips():
    with criterion(9, 30.0, "lossless round-trips and byte-identical CLI runs"):
        # Polynomials (with formal constants) and series.
        poly = parse_poly("1/2*A.B - 3*ipi^2*B.A + 7", AB_ALPHABET)
        assert parse_poly(poly.to_text(), AB_ALPHABET) == poly
        pair = compute_psi(builtin_table(), 6)
        assert parse_series(pair.psi.to_text(), PSI_ALPHABET) == pair.psi
        assert parse_series(pair.psi_inv.to_text(), PSI_ALPHABET) == pair.psi_inv
        # Tables: canonical dump parses back, and the shipped file is
        # byte-identical to the built-in table.
        table = builtin_table()
        assert parse_table(dump_table(table)).entries == table.entries
        assert dump_table(table) == builtin_table_text()
        shipped = Path(__file__).parent.parent / "src" / "qjacobi" / "data" / "builtin_table.json"
        assert shipped.read_text("utf-8") == dump_table(table)
        # Algebra files.
        for name in ("sl2", "sl3"):
            alg = build_algebra(name)
            doc = json.loads(json.dumps(algebra_to_json(alg)))
            again = build_algebra(doc)
            assert again.structure == alg.structure
            assert again.basis_names == alg.basis_names
        # Byte-identical CLI runs, across processes.
        for cmd in (
            [sys.executable, "-m", "qjacobi", "psi", "--order", "6", "--format", "json"],
            [sys.executable, "-m", "qjacobi", "verify", "transport", "--format", "json"],
        ):
            first = subprocess.run(cmd, capture_output=True, check=True)
            second = subprocess.run(cmd, capture_output=True, check=True)
            assert first.stdout == second.stdout and first.stdout
