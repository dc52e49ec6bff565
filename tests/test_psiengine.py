"""Tests for the inductive series engine, checked against a brute-force oracle."""

import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from helpers import (
    empty_psi_cache,
    fresh_psi,
    negate_psi_below_the_top,
    oracle_alpha_product,
    oracle_psi,
    random_homogeneous_table,
)

from qjacobi import cli, psiengine
from qjacobi.deformation import AB_ALPHABET, EkTable, alpha, builtin_table
from qjacobi.hseries import HSeries
from qjacobi.ncalg import LinearCombination, NCPoly, Scalar, WordEvaluator, commutator
from qjacobi.psiengine import CACHED_TABLES, PSI_ALPHABET, EngineError, PsiPair, compute_psi

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


# Random tables whose coefficients carry ipi, or ipi and a constant the
# table declares itself.
_CONSTANT_TABLES = {"ipi": ("ipi",), "user-constant": ("zeta", "ipi")}


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, *_CONSTANT_TABLES])
def test_engine_matches_oracle_at_every_order(seed):
    # The engine computes each coefficient once from the lower ones; the
    # oracle iterates the whole pair to its fixed point at full order.
    if seed is None:
        table = builtin_table()
    else:
        constants = _CONSTANT_TABLES.get(seed, ())
        table = random_homogeneous_table(random.Random(seed), max_degree=5, max_terms=3, constants=constants)
        carried = {name for poly in table.entries.values() for _, c in poly.sorted_terms() for name in c.constants()}
        assert carried == set(constants)
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
        pair = compute_psi(builtin_table(), order)
        assert pair.psi_inv == pair.psi.invert()


def test_inverse_consistency_detects_corruption():
    pair = compute_psi(builtin_table(), 4)
    corrupted = PsiPair(
        psi=pair.psi,
        psi_inv=HSeries(pair.psi_inv.coeffs[:2] + (-pair.psi_inv.coeffs[2], pair.psi_inv.coeffs[3])),
        order=4,
        table_id=pair.table_id,
    )
    assert corrupted.psi_inv != corrupted.psi.invert()
    with pytest.raises(EngineError, match="not mutually inverse"):
        corrupted.validate()


# -- the pair check: its rejection paths and its one product ---------------------

# Degrees 2 and 3 make every coefficient from h^2 to h^6 nonzero, so
# negating any one of them corrupts the pair.
FULL_TABLE = EkTable(
    entries={
        2: builtin_table().entry(2),
        3: NCPoly(AB_ALPHABET, [(("A", "A", "B"), Scalar.rational(1, 3)), (("B", "A", "B"), 2)]),
    },
    source="full",
)
FULL_ORDER = 7


@pytest.mark.parametrize("degree", range(2, FULL_ORDER))
def test_validate_rejects_a_negated_inverse_coefficient(degree):
    pair = compute_psi(FULL_TABLE, FULL_ORDER)
    coeffs = list(pair.psi_inv.coeffs)
    assert not coeffs[degree].is_zero
    coeffs[degree] = -coeffs[degree]
    with pytest.raises(EngineError, match="not mutually inverse"):
        replace(pair, psi_inv=HSeries(coeffs)).validate()


def test_validate_rejects_psi_not_starting_at_one():
    # The product is still 1, so only the start check can reject it.
    pair = compute_psi(FULL_TABLE, FULL_ORDER)
    bad = replace(pair, psi=pair.psi.scale(2), psi_inv=pair.psi_inv.scale(Scalar.rational(1, 2)))
    assert bad.psi * bad.psi_inv == HSeries.unit(ONE, FULL_ORDER)
    with pytest.raises(EngineError, match="does not start at 1"):
        bad.validate()


def test_validate_rejects_a_linear_term():
    # psi_inv is the ring inverse, so only the linear check can reject it.
    pair = compute_psi(FULL_TABLE, FULL_ORDER)
    psi = HSeries((ONE, O12) + pair.psi.coeffs[2:])
    bad = replace(pair, psi=psi, psi_inv=psi.invert())
    assert bad.psi * bad.psi_inv == HSeries.unit(ONE, FULL_ORDER)
    with pytest.raises(EngineError, match="nonzero linear coefficient"):
        bad.validate()


@pytest.mark.parametrize("order", [FULL_ORDER - 1, FULL_ORDER + 1])
def test_validate_rejects_an_inverse_of_the_wrong_order(order):
    pair = compute_psi(FULL_TABLE, FULL_ORDER)
    bad = replace(pair, psi_inv=compute_psi(FULL_TABLE, order).psi_inv)
    with pytest.raises(EngineError, match=f"psi_inv has order {order}, expected {FULL_ORDER}"):
        bad.validate()


def test_validate_makes_one_series_product(monkeypatch):
    pair = compute_psi(FULL_TABLE, FULL_ORDER)
    products = []
    original = HSeries.dot

    def counted(self, pairs):
        pairs = list(pairs)
        products.append(len(pairs))
        return original(self, pairs)

    monkeypatch.setattr(HSeries, "dot", counted)
    pair.validate()
    assert products == [1]


def test_monotone_consistency():
    # Each order from its own engine run: a warm cache would hand every
    # order the same stored coefficients.
    top = fresh_psi(builtin_table(), 8)
    for n in range(2, 9):
        part = fresh_psi(builtin_table(), n)
        assert top.psi.truncate(n) == part.psi
        assert top.psi_inv.truncate(n) == part.psi_inv


def test_monotone_consistency_random_table():
    table = random_homogeneous_table(random.Random(5), max_degree=4)
    top = fresh_psi(table, 7)
    for n in range(2, 8):
        assert top.psi.truncate(n) == fresh_psi(table, n).psi


# -- one engine per table content, kept across calls ----------------------------


@pytest.fixture
def cold_cache():
    """An empty cache, and none left behind: an engine a test corrupted
    must not serve a later test."""
    empty_psi_cache()
    yield
    empty_psi_cache()


# (table index, order) requests, each served by the cache as it stands.
_SEQUENCES = {
    "ascending": [(0, n) for n in range(2, 10)],
    "descending": [(0, n) for n in range(9, 1, -1)],
    "repeated": [(0, 5), (0, 5), (0, 7), (0, 7), (0, 5), (0, 2)],
    "interleaved": [(0, 4), (1, 6), (0, 8), (1, 3), (1, 9), (0, 6), (0, 9), (1, 2)],
}


@pytest.mark.parametrize("name", _SEQUENCES)
def test_resumed_pairs_match_fresh_engines_and_the_oracle(name, cold_cache):
    sequence = _SEQUENCES[name]
    tables = [
        random_homogeneous_table(random.Random(seed), max_degree=5, max_terms=3, constants=("zeta", "ipi"))
        for seed in (7, 8)
    ]
    top = max(order for _, order in sequence)
    oracles = [oracle_psi(table, top) for table in tables]
    expected = {(t, n): fresh_psi(tables[t], n) for t, n in set(sequence)}
    empty_psi_cache()
    for t, n in sequence:
        pair = compute_psi(tables[t], n)
        assert pair == expected[t, n]
        assert pair.psi == oracles[t][0].truncate(n)
        assert pair.psi_inv == oracles[t][1].truncate(n)


def _counted_checks(monkeypatch):
    """The orders of the pairs PsiPair.validate checks from now on."""
    orders = []
    original = PsiPair.validate

    def counted(pair):
        orders.append(pair.order)
        return original(pair)

    monkeypatch.setattr(PsiPair, "validate", counted)
    return orders


def test_the_pair_is_checked_each_time_it_grows_and_only_then(cold_cache, monkeypatch):
    checks = _counted_checks(monkeypatch)
    for order in (6, 4, 6, 8, 3, 8, 9):
        compute_psi(builtin_table(), order)
    assert checks == [6, 8, 9]


def test_a_cached_table_is_still_validated_and_logged(cold_cache, caplog):
    from qjacobi.deformation import TableError

    table = EkTable(entries={2: builtin_table().entry(2), 4: NCPoly.word(AB_ALPHABET, ("A", "B", "A", "B"))})
    with caplog.at_level("INFO", logger="qjacobi.psiengine"):
        compute_psi(table, 7)
        compute_psi(table, 7)
    assert caplog.messages == ["table custom has no entries for degrees 3, 5..6; treating them as zero"] * 2
    table.entries[3] = NCPoly.word(AB_ALPHABET, ("A", "B"))
    with pytest.raises(TableError, match="not homogeneous"):
        compute_psi(table, 6)


def test_a_failed_check_drops_the_engine(cold_cache, monkeypatch, capsys):
    expected = fresh_psi(builtin_table(), 6)
    empty_psi_cache()
    compute_psi(builtin_table(), 3)
    # The pass negates psi's h^4 coefficient, its last nonzero one below
    # h^6, so psi * psi_inv = 1 fails.
    negate_psi_below_the_top(monkeypatch)
    with pytest.raises(EngineError, match="not mutually inverse"):
        compute_psi(builtin_table(), 6)
    assert cli.main(["psi", "--order", "6"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal invariant failed: pair is not mutually inverse at the stated order\n"
    monkeypatch.undo()
    checks = _counted_checks(monkeypatch)
    assert compute_psi(builtin_table(), 6) == expected
    assert checks == [6]


def test_the_table_used_longest_ago_is_dropped(cold_cache, monkeypatch):
    tables = [random_homogeneous_table(random.Random(seed), max_degree=4) for seed in range(CACHED_TABLES + 1)]
    assert len({tuple(sorted(t.entries.items())) for t in tables}) == len(tables)
    expected = [fresh_psi(table, 6) for table in tables]
    empty_psi_cache()
    for table in tables[:CACHED_TABLES]:
        compute_psi(table, 6)
    compute_psi(tables[0], 6)
    compute_psi(tables[CACHED_TABLES], 6)
    # tables[1] is now the one used longest ago and was dropped; the rest
    # are served without new work.
    checks = _counted_checks(monkeypatch)
    for i in [0, *range(2, CACHED_TABLES + 1)]:
        assert compute_psi(tables[i], 6) == expected[i]
    assert checks == []
    assert compute_psi(tables[1], 6) == expected[1]
    assert checks == [6]


def test_equal_contents_share_an_engine_but_not_the_table_id(cold_cache, monkeypatch):
    builtin = builtin_table()
    copy = EkTable(entries=dict(builtin.entries), constants=("zeta", "ipi"), source="copy")
    first = compute_psi(builtin, 5)
    checks = _counted_checks(monkeypatch)
    second = compute_psi(copy, 5)
    assert checks == []
    assert (first.table_id, second.table_id) == ("builtin", "copy")
    assert replace(second, table_id="builtin") == first


_BLOCK_TABLES = {
    "builtin": builtin_table,
    "random": lambda: random_homogeneous_table(random.Random(21), max_degree=5, max_terms=3),
    "random-zeta": lambda: random_homogeneous_table(random.Random(22), max_degree=5, max_terms=3, constants=("zeta",)),
}


@pytest.mark.parametrize("name", _BLOCK_TABLES)
def test_blocks_extended_in_two_batches_match_the_word_by_word_oracle(name):
    # The relaxed evaluator against products of whole truncated series,
    # word by word over {A, B}, with no suffix trie and no alpha.
    table, order = _BLOCK_TABLES[name](), 9
    pair = fresh_psi(table, order)
    images = {"C": O12, "D": O23, "Z": list(pair.psi.coeffs), "Zinv": list(pair.psi_inv.coeffs)}
    c_img, d_img, unit = HSeries.constant(O12, order), HSeries.constant(O23, order), HSeries.unit(ONE, order)
    for k, entry in table.entries.items():
        expected = unit.lincomb([
            (coeff, oracle_alpha_product(word, pair.psi, pair.psi_inv, c_img, d_img, unit))
            for word, coeff in entry.sorted_terms()
        ])
        block = WordEvaluator(alpha(entry), images, ONE)
        for m1 in (k, order):
            for m in range(len(block.image), m1):
                block.extend(m)
            assert block.image == list(expected.coeffs[:m1]), (k, m1)


@pytest.mark.parametrize("name", _BLOCK_TABLES)
def test_each_engine_block_equals_the_alpha_block_over_the_finished_pair(name, cold_cache):
    # The engine evaluates E_k at A = O12, B = Y = psi_inv O23 psi, which
    # is alpha(E_k) at Z = psi, Zinv = psi_inv only because psi psi_inv
    # = 1.  The pair check cannot see a wrong Y: psi is the series
    # inverse of psi_inv whatever the blocks are.
    table, order = _BLOCK_TABLES[name](), 9
    pair = compute_psi(table, order)
    (engine,) = psiengine._engines.values()
    images = {"C": O12, "D": O23, "Z": list(pair.psi.coeffs), "Zinv": list(pair.psi_inv.coeffs)}
    assert [k for k, _ in engine.blocks] == table.degrees()
    for k, block in engine.blocks:
        expected = WordEvaluator(alpha(table.entries[k]), images, ONE)
        for m in range(order - k):
            expected.extend(m)
        assert block.image == expected.image, k


def test_the_engine_makes_75_products_on_the_builtin_table_at_order_14(cold_cache, monkeypatch):
    # Nonempty product pairs, the pair check's included.  Multiplying by
    # psi[0] = psi_inv[0] = 1 where the engine now adds the other factor,
    # the same call made 88 (1 * O23, left[n] * psi[0] in each Y[n] and
    # psi[0] * psi_inv[j] in each psi[j]).  With each block
    # evaluated over alpha's words, with psi and psi_inv put in for Z and
    # Zinv, the same call made 115; with one coefficient list per prefix
    # of each block's words, in place of the word evaluator's suffix
    # trie, it made 122.
    products = []
    original = LinearCombination.dot

    def counted(self, pairs):
        pairs = list(pairs)
        products.append(sum(1 for a, b in pairs if a._terms and b._terms))
        return original(self, pairs)

    monkeypatch.setattr(LinearCombination, "dot", counted)
    compute_psi(builtin_table(), 14)
    assert sum(products) == 75


def test_degree_bound():
    pair = compute_psi(builtin_table(), 8)
    for k, coeff in enumerate(pair.psi.coeffs):
        degree = coeff.degree()
        assert degree is None or degree <= k


# -- the built-in pair at orders the golden files do not pin --------------------

BUILTIN_ORDER = 12


@pytest.fixture(scope="module")
def builtin_pair():
    pair = compute_psi(builtin_table(), BUILTIN_ORDER)
    return pair.psi, pair.psi_inv


def test_builtin_odd_coefficients_vanish(builtin_pair):
    for series in builtin_pair:
        assert all(c.is_zero for c in series.coeffs[1::2])


def test_builtin_psi_has_central_binomial_word_counts(builtin_pair):
    # Only psi: psi_inv has 4, 12, 40 and 140 words at h^4 to h^10.
    psi, _ = builtin_pair
    counts = [len(c.sorted_terms()) for c in psi.coeffs[0:11:2]]
    assert counts == [comb(2 * m, m) for m in range(6)]


def test_builtin_words_are_balanced(builtin_pair):
    for series in builtin_pair:
        for c in series.coeffs:
            assert all(word.count("O12") == word.count("O23") for word, _ in c.sorted_terms())


def test_builtin_pair_is_invariant_under_swap_and_reversal(builtin_pair):
    swap = {"O12": "O23", "O23": "O12"}
    for series in builtin_pair:
        for c in series.coeffs:
            mirrored = [(tuple(swap[x] for x in reversed(word)), s) for word, s in c.sorted_terms()]
            assert NCPoly(PSI_ALPHABET, mirrored) == c


def test_builtin_coefficients_are_integral_after_powers_of_24(builtin_pair):
    for series in builtin_pair:
        for m, c in enumerate(series.coeffs[::2]):
            assert all((s.as_fraction() * 24**m).denominator == 1 for _, s in c.sorted_terms())


def test_zero_table_gives_unit():
    table = EkTable(entries={}, source="empty")
    for order in (2, 5, 9):
        pair = compute_psi(table, order)
        assert pair.psi == HSeries.unit(ONE, order)
        assert pair.psi_inv == HSeries.unit(ONE, order)


@pytest.mark.parametrize("order, gaps", [(4, "3"), (12, "3, 4, 6..11")])
def test_missing_degrees_are_logged_once_with_the_tail_as_a_span(caplog, order, gaps):
    table = EkTable(
        entries={2: builtin_table().entry(2), 5: NCPoly.word(AB_ALPHABET, ("A", "A", "B", "A", "B"))},
        source="gappy",
    )
    with caplog.at_level("INFO", logger="qjacobi.psiengine"):
        compute_psi(table, order)
    assert caplog.messages == [f"table gappy has no entries for degrees {gaps}; treating them as zero"]


@pytest.mark.parametrize("order, gaps", [(6, "3, 5"), (8, "3, 5..7")])
def test_a_one_degree_tail_is_logged_as_that_degree(caplog, order, gaps):
    table = EkTable(
        entries={2: builtin_table().entry(2), 4: NCPoly.word(AB_ALPHABET, ("A", "B", "A", "B"))},
        source="gappy",
    )
    with caplog.at_level("INFO", logger="qjacobi.psiengine"):
        compute_psi(table, order)
    assert caplog.messages == [f"table gappy has no entries for degrees {gaps}; treating them as zero"]


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


# -- the pair from its printed text, against a product written here -------------
#
# The oracle above runs on the same NCPoly kernel as the engine, so it
# cannot see a defect in that kernel.  This check reads the CLI's text
# with its own parser into plain dicts from factor tuples to Fractions
# (a term's key lists its ipi factors first, then its letters; ipi is
# central) and multiplies with its own loops.


def _plain_poly(text):
    out = {}
    if text == "0":
        return out
    sign, rest = (-1, text[2:]) if text.startswith("- ") else (1, text)
    for piece in re.split(r" ([+-]) ", rest):
        if piece in ("+", "-"):
            sign = 1 if piece == "+" else -1
            continue
        coeff, key = Fraction(sign), []
        for factor in piece.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coeff *= Fraction(factor)
            elif re.fullmatch(r"ipi(\^\d+)?", factor):
                key = ["ipi"] * int(factor.partition("^")[2] or 1) + key
            else:
                key += factor.split(".")
        key = tuple(key)
        assert key not in out
        out[key] = coeff
    return out


def _plain_pair(text):
    series = {}
    for line in text.splitlines():
        if line.endswith(":"):
            current = series.setdefault(line[:-1], [])
        else:
            head, _, body = line.partition(": ")
            assert head == f"h^{len(current)}"
            current.append(_plain_poly(body))
    return series["psi"], series["psi_inv"]


def _plain_series_mul(a, b, order):
    out = []
    for k in range(order):
        acc = {}
        for i in range(k + 1):
            for ka, ca in a[i].items():
                for kb, cb in b[k - i].items():
                    joined = ka + kb
                    key = tuple(x for x in joined if x == "ipi") + tuple(x for x in joined if x != "ipi")
                    acc[key] = acc.get(key, 0) + ca * cb
        out.append({key: c for key, c in acc.items() if c})
    return out


def _table_with_ipi(rng):
    """Two random terms in each degree 2..5; the degree-3 ones carry ipi."""
    entries = {}
    for k in range(2, 6):
        terms = []
        for _ in range(2):
            word = ".".join(rng.choice("AB") for _ in range(k))
            size = f"{rng.choice([1, 2, 3, 5])}/{rng.randint(1, 6)}"
            terms.append(rng.choice(["+ ", "- "]) + size + ("*ipi*" if k == 3 else "*") + word)
        entries[str(k)] = " ".join(terms).removeprefix("+ ")
    return {"constants": [], "entries": entries}


@pytest.mark.parametrize("table", ["builtin", "random-ipi"])
def test_printed_pair_is_inverse_under_a_plain_product(tmp_path, capsys, table):
    from qjacobi import cli

    argv = ["psi", "--order", "10"]
    if table != "builtin":
        path = tmp_path / "table.json"
        path.write_text(json.dumps(_table_with_ipi(random.Random(31))))
        argv += ["--table", str(path)]
    assert cli.main(argv) == 0
    psi, psi_inv = _plain_pair(capsys.readouterr().out)
    assert len(psi) == len(psi_inv) == 10
    if table != "builtin":
        assert any("ipi" in key for c in psi for key in c)
    unit = [{(): Fraction(1)}] + [{}] * 9
    assert _plain_series_mul(psi, psi_inv, 10) == unit
    assert _plain_series_mul(psi_inv, psi, 10) == unit
