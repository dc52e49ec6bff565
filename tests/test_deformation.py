"""Tests for the run-substitution map and coefficient tables."""

import dataclasses
import itertools
import json
import re
from pathlib import Path

import pytest
from helpers import counted_table_parses

from qjacobi.deformation import (
    AB_ALPHABET,
    CACHED_FILES,
    CDZ_ALPHABET,
    EkTable,
    TableError,
    alpha,
    builtin_table,
    builtin_table_text,
    dump_table,
    load_table,
    make_Gk,
    parse_table,
)
from qjacobi.hseries import HSeries, SeriesError
from qjacobi.ncalg import NCPoly, Scalar, commutator, parse_poly, substitute

A = NCPoly.letter(AB_ALPHABET, "A")
B = NCPoly.letter(AB_ALPHABET, "B")


def cdz(*letters):
    return NCPoly.word(CDZ_ALPHABET, letters)


# -- alpha ---------------------------------------------------------------------

def test_alpha_of_one():
    assert alpha(NCPoly.one(AB_ALPHABET)) == NCPoly.one(CDZ_ALPHABET)


def test_alpha_ab():
    assert alpha(A * B) == cdz("C", "Zinv", "D", "Z")


def test_alpha_single_a_collapses_conjugator():
    assert alpha(A) == cdz("C")


def test_alpha_single_b():
    assert alpha(B) == cdz("Zinv", "D", "Z")


def test_alpha_ba():
    # Runs parse as (n1, m1) = (0, 1), (n2, m2) = (1, 0).
    assert alpha(B * A) == cdz("Zinv", "D", "Z", "C")


def test_alpha_rejects_foreign_letters():
    with pytest.raises(TableError):
        alpha(cdz("C"))


def test_alpha_is_linear():
    p = A * B - B * A
    assert alpha(p) == alpha(A * B) - alpha(B * A)


def _all_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product("AB", repeat=n)


def test_alpha_template_shape_for_positive_runs():
    # With every run nonempty the image has the full alternating template.
    for n1, m1, n2, m2 in itertools.product((1, 2), repeat=4):
        word = ("A",) * n1 + ("B",) * m1 + ("A",) * n2 + ("B",) * m2
        expected = (
            ("C",) * n1 + ("Zinv",) + ("D",) * m1 + ("Z",)
            + ("C",) * n2 + ("Zinv",) + ("D",) * m2 + ("Z",)
        )
        assert alpha(NCPoly.word(AB_ALPHABET, word)) == NCPoly.word(CDZ_ALPHABET, expected)


def _template_then_cancelled(word):
    """The full template C^n Zinv D^m Z for every (A-run, B-run) pair of
    ``word``, either run possibly empty, with adjacent Z, Zinv pairs then
    cancelled by a stack scan."""
    runs = re.findall(r"(A*)(B*)", "".join(word))
    out = []
    for a_run, b_run in runs:
        if not a_run and not b_run:
            continue
        for letter in ("C",) * len(a_run) + ("Zinv",) + ("D",) * len(b_run) + ("Z",):
            if out and {out[-1], letter} == {"Z", "Zinv"}:
                out.pop()
            else:
                out.append(letter)
    return tuple(out)


def test_alpha_emits_the_cancelled_template():
    for word in _all_words(8):
        image = alpha(NCPoly.word(AB_ALPHABET, word))
        ((letters, coeff),) = image.sorted_terms()
        assert coeff == 1
        assert letters == _template_then_cancelled(word)
        assert all({x, y} != {"Z", "Zinv"} for x, y in zip(letters, letters[1:]))


def test_alpha_specialization_recovers_input():
    # Z, Zinv -> 1 and C, D -> A, B undoes the substitution.
    images = {
        "C": A,
        "D": B,
        "Z": NCPoly.one(AB_ALPHABET),
        "Zinv": NCPoly.one(AB_ALPHABET),
    }
    for word in _all_words(6):
        p = NCPoly.word(AB_ALPHABET, word)
        assert substitute(alpha(p), images) == p


def test_alpha_round_trips_through_text():
    for word in _all_words(6):
        image = alpha(NCPoly.word(AB_ALPHABET, word))
        assert parse_poly(image.to_text(), CDZ_ALPHABET) == image


# -- tables ----------------------------------------------------------------------

def test_builtin_table_value():
    table = builtin_table()
    assert table.degrees() == [2]
    assert table.entry(2) == commutator(A, B).scale(Scalar.rational(1, 24))


def test_builtin_table_matches_shipped_file():
    assert dump_table(builtin_table()) == builtin_table_text()


def test_table_round_trip():
    table = builtin_table()
    again = parse_table(dump_table(table))
    assert again.entries == table.entries


def test_non_homogeneous_entry_rejected():
    with pytest.raises(TableError):
        parse_table('{"entries": {"3": "A.B"}}')


def test_homogeneous_degree_4_accepted():
    nested = commutator(A, commutator(A, commutator(A, B))).scale(Scalar.rational(3, 7))
    text = dump_table(EkTable(entries={4: nested}, source="test"))
    table = parse_table(text)
    assert table.degrees() == [4]
    assert table.missing_below_max() == [2, 3]


def test_validate_reports_coverage_gaps():
    table = EkTable(entries={2: commutator(A, B), 5: NCPoly.word(AB_ALPHABET, ("A",) * 5)})
    assert table.missing_below_max() == [3, 4]


@pytest.mark.parametrize(
    "entries, message",
    [
        ({1: A}, "degree 1 below the minimum degree 2"),
        ({2: cdz("C", "D")}, "degree 2 entry is not over the letters A, B"),
        ({3: A * B}, "degree 3 entry is not homogeneous of word length 3: A.B"),
        (
            {3: A * B - B * A, 1: A * B, 2: cdz("C")},
            "degree 1 below the minimum degree 2; "
            "degree 1 entry is not homogeneous of word length 1: A.B; "
            "degree 2 entry is not over the letters A, B; "
            "degree 3 entry is not homogeneous of word length 3: A.B - B.A",
        ),
    ],
    ids=["below-two", "not-over-ab", "not-homogeneous", "all-three-by-degree"],
)
def test_a_table_is_checked_where_it_is_built(entries, message):
    with pytest.raises(TableError) as info:
        EkTable(entries=entries, source="bad")
    assert str(info.value) == message


def test_a_built_table_cannot_change():
    entries = {2: commutator(A, B)}
    provenance = {2: "note"}
    table = EkTable(entries=entries, provenance=provenance, source="frozen")
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.source = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.entries = {3: A * B}
    with pytest.raises(TypeError):
        table.entries[3] = A * B
    with pytest.raises(TypeError):
        table.provenance[2] = "other"
    # The table holds copies: the caller's dicts stay the caller's.
    entries[3] = A * B
    entries[2] = A * A
    provenance[2] = "other"
    assert dict(table.entries) == {2: commutator(A, B)}
    assert dict(table.provenance) == {2: "note"}
    assert table.missing_below_max() == []


def test_the_builtin_table_is_built_once_per_process():
    assert builtin_table() is builtin_table()
    assert load_table("builtin") is builtin_table()


def test_load_table_missing_file():
    with pytest.raises(TableError):
        load_table("/nonexistent/table.json")


def test_a_table_file_is_parsed_once_per_path_and_content(monkeypatch, tmp_path):
    calls = counted_table_parses(monkeypatch)
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": {"2": "A.B - B.A"}}))
    first = load_table(str(path))
    assert load_table(str(path)) is first
    assert calls == [str(path)]
    # New bytes at the same path are parsed, and the old bytes are still kept.
    path.write_text(json.dumps({"entries": {"2": "A.B - 2*B.A"}}))
    second = load_table(str(path))
    assert second.entry(2) == A * B - (B * A).scale(2)
    path.write_text(json.dumps({"entries": {"2": "A.B - B.A"}}))
    assert load_table(str(path)) is first
    assert calls == [str(path)] * 2


def test_the_ninth_table_file_forgets_the_one_used_longest_ago(monkeypatch, tmp_path):
    calls = counted_table_parses(monkeypatch)
    paths = []
    for i in range(CACHED_FILES + 1):
        paths.append(str(tmp_path / f"table{i}.json"))
        Path(paths[-1]).write_text(json.dumps({"entries": {"2": f"{i + 1}*A.B - {i + 1}*B.A"}}))
    tables = [load_table(path) for path in paths[:-1]]
    # Using the first again makes the second the one used longest ago.
    assert load_table(paths[0]) is tables[0]
    load_table(paths[-1])
    del calls[:]
    for i, (path, table) in enumerate(zip(paths, tables)):
        if i != 1:
            assert load_table(path) is table
    assert calls == []
    again = load_table(paths[1])
    assert again is not tables[1] and again.entries == tables[1].entries
    assert calls == [paths[1]]


def test_table_with_declared_constant():
    text = '{"constants": ["zeta3_ipi3"], "entries": {"3": "zeta3_ipi3*A.A.B - zeta3_ipi3*B.A.A"}}'
    table = parse_table(text)
    assert table.entry(3).coeff(("A", "A", "B")) == Scalar.constant("zeta3_ipi3")


def test_malformed_table_payloads_rejected():
    for text in (
        '{"entries": {"2": 5}}',
        '{"entries": {"2": "1/0*A.B"}}',
        '{"entries": {"x": "A.B"}}',
        '{"entries": {"2": "A.Q"}}',
    ):
        with pytest.raises(TableError):
            parse_table(text)


def test_degree_keys_must_be_canonical():
    # int() accepts every one of these keys, so "02" once replaced the
    # earlier "2": the first document loaded with degree-2 entry A.B.
    for text, message in (
        ('{"entries": {"2": "1/24*A.B - 1/24*B.A", "02": "A.B"}}', "bad degree key '02'"),
        ('{"entries": {" 2": "1/24*A.B - 1/24*B.A"}}', "bad degree key ' 2'"),
        ('{"entries": {"+2": "1/24*A.B - 1/24*B.A"}}', "bad degree key '+2'"),
        ('{"entries": {"2_0": "A.B"}}', "bad degree key '2_0'"),
        ('{"entries": {"2": "1/24*A.B - 1/24*B.A", "2": "A.B"}}', "duplicate key '2'"),
        ('{"entries": {"2": "1/24*A.B - 1/24*B.A"}, "provenance": {"2": "a", "2": "b"}}', "duplicate key"),
    ):
        with pytest.raises(TableError, match=re.escape(message)):
            parse_table(text)
    assert parse_table('{"entries": {"2": "1/24*A.B - 1/24*B.A"}}').entries == builtin_table().entries


# -- Gk / Fk ----------------------------------------------------------------------

PSI_AB = AB_ALPHABET  # any two-letter alphabet works for the images


def _one_series(order, alphabet=PSI_AB):
    return HSeries.unit(NCPoly.one(alphabet), order)


def test_make_Gk_trivial_conjugation():
    table = builtin_table()
    one = _one_series(3)
    got = make_Gk(table, 2, one, one, A, B)
    expected = HSeries.constant(commutator(A, B).scale(Scalar.rational(1, 24)), 3)
    assert got == expected


def test_make_Gk_conjugation_invisible_at_low_order():
    table = builtin_table()
    z = HSeries((NCPoly.one(PSI_AB), A))
    zinv = z.invert()
    got = make_Gk(table, 2, z.truncate(1), zinv.truncate(1), A, B)
    assert got == HSeries.constant(commutator(A, B).scale(Scalar.rational(1, 24)), 1)


def test_make_Gk_missing_degree():
    with pytest.raises(TableError):
        make_Gk(builtin_table(), 3, _one_series(2), _one_series(2), A, B)


def test_make_Gk_rejects_non_inverse_pair():
    z = HSeries((NCPoly.one(PSI_AB), A))
    with pytest.raises(SeriesError):
        make_Gk(builtin_table(), 2, z, z, A, B)
    # Inverse modulo h^2 but not modulo h^3.
    z = HSeries((NCPoly.one(PSI_AB), A, NCPoly.zero(PSI_AB)))
    zinv = HSeries((NCPoly.one(PSI_AB), -A, NCPoly.zero(PSI_AB)))
    make_Gk(builtin_table(), 2, z.truncate(2), zinv.truncate(2), A, B)
    with pytest.raises(SeriesError):
        make_Gk(builtin_table(), 2, z, zinv, A, B)
