"""Tests for the inductive series engine, checked against a brute-force oracle."""

import random

import pytest
from helpers import oracle_psi, random_homogeneous_table

from qjacobi.deformation import AB_ALPHABET, EkTable, builtin_table
from qjacobi.hseries import HSeries
from qjacobi.ncalg import NCPoly, Scalar, commutator
from qjacobi.psiengine import (
    PSI_ALPHABET,
    PsiPair,
    check_inverse_consistency,
    compute_psi,
)

O12 = NCPoly.letter(PSI_ALPHABET, "O12")
O23 = NCPoly.letter(PSI_ALPHABET, "O23")
ONE = NCPoly.one(PSI_ALPHABET)
ZERO = NCPoly.zero(PSI_ALPHABET)
Q = commutator(O12, O23)


def test_base_case_is_one():
    pair = compute_psi(builtin_table(), 2)
    assert pair.psi == HSeries.unit(ONE, 2)
    assert pair.psi_inv == HSeries.unit(ONE, 2)
    assert pair.psi.order == pair.psi_inv.order == 2


def test_order_three_matches_hand_iteration():
    # One update step from the unit pair: the degree-2 block is the
    # commutator over 24, entering with opposite signs.
    pair = compute_psi(builtin_table(), 3)
    c = Scalar.rational(1, 24)
    assert pair.psi.coeffs == (ONE, ZERO, Q.scale(-c))
    assert pair.psi_inv.coeffs == (ONE, ZERO, Q.scale(c))


def test_order_five_h4_coefficient_against_closed_form_and_oracle():
    pair = compute_psi(builtin_table(), 5)
    expected_h4 = (Q * Q + commutator(O12, commutator(O23, Q))).scale(Scalar.rational(1, 576))
    assert pair.psi.coeffs[4] == expected_h4
    assert pair.psi.coeffs[3] == ZERO
    oracle, oracle_inv = oracle_psi(builtin_table(), 5)
    assert pair.psi == oracle
    assert pair.psi_inv == oracle_inv


def test_oracle_agrees_on_random_tables():
    rng = random.Random(20240811)
    for _ in range(6):
        table = random_homogeneous_table(rng, max_degree=4)
        pair = compute_psi(table, 6)
        oracle, oracle_inv = oracle_psi(table, 6)
        assert pair.psi == oracle
        assert pair.psi_inv == oracle_inv


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
def test_engine_matches_oracle_at_every_order(seed):
    # Odd orders start the two-orders-per-step loop from the pair modulo
    # h^1, even orders from the pair modulo h^2.
    if seed is None:
        table = builtin_table()
    else:
        table = random_homogeneous_table(random.Random(seed), max_degree=5, max_terms=3)
    for order in range(2, 10):
        pair = compute_psi(table, order)
        oracle, oracle_inv = oracle_psi(table, order)
        assert pair.psi.order == pair.psi_inv.order == order
        assert pair.psi == oracle
        assert pair.psi_inv == oracle_inv


def test_inverse_identity_builtin():
    pair = compute_psi(builtin_table(), 10)
    unit = HSeries.unit(ONE, 10)
    assert pair.psi * pair.psi_inv == unit
    assert pair.psi_inv * pair.psi == unit


def test_inverse_consistency_builtin():
    for order in (2, 3, 5, 8):
        report = check_inverse_consistency(compute_psi(builtin_table(), order))
        assert report.ok and not report.mismatched_degrees


def test_inverse_consistency_detects_corruption():
    pair = compute_psi(builtin_table(), 4)
    corrupted = PsiPair(
        psi=pair.psi,
        psi_inv=HSeries(pair.psi_inv.coeffs[:2] + (-pair.psi_inv.coeffs[2], pair.psi_inv.coeffs[3])),
        order=4,
        table_id=pair.table_id,
    )
    report = check_inverse_consistency(corrupted)
    assert not report
    assert report.mismatched_degrees == [2]


def test_monotone_consistency():
    top = compute_psi(builtin_table(), 8)
    for n in range(2, 9):
        part = compute_psi(builtin_table(), n)
        assert top.psi.truncate(n) == part.psi
        assert top.psi_inv.truncate(n) == part.psi_inv


def test_monotone_consistency_random_table():
    table = random_homogeneous_table(random.Random(5), max_degree=4)
    top = compute_psi(table, 7)
    for n in range(2, 8):
        assert top.psi.truncate(n) == compute_psi(table, n).psi


def test_degree_bound():
    pair = compute_psi(builtin_table(), 8)
    for k, coeff in enumerate(pair.psi.coeffs):
        degree = coeff.degree()
        assert degree is None or degree <= k


def test_zero_table_gives_unit():
    table = EkTable(entries={}, source="empty")
    for order in (2, 5, 9):
        pair = compute_psi(table, order)
        assert pair.psi == HSeries.unit(ONE, order)
        assert pair.psi_inv == HSeries.unit(ONE, order)


def test_order_below_two_rejected():
    with pytest.raises(ValueError):
        compute_psi(builtin_table(), 1)


def test_malformed_table_rejected():
    from qjacobi.deformation import TableError

    bad = EkTable(entries={3: NCPoly.word(AB_ALPHABET, ("A", "B"))}, source="bad")
    with pytest.raises(TableError):
        compute_psi(bad, 4)


def test_pair_provenance():
    assert compute_psi(builtin_table(), 3).table_id == "builtin"
