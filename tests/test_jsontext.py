"""The JSON writer against ``json.dumps(indent=2, sort_keys=True)`` as oracle."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qjacobi.jsontext import dumps


def _oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Strings that the encoder escapes or that border on it: quotes,
# backslashes, control characters, non-ASCII (a surrogate pair and a lone
# surrogate) and "/", which JSON may but json.dumps does not escape.
_SPECIAL = ["", '"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\t", "é", "€", "😀", "\ud800", 'a"b\\c']
# Cells of the kind matrices and series emit; none needs escaping.
_CELLS = st.sampled_from(["0", "1", "-1", "1/24", "-7/3", "ipi", "1/2*ipi^2", "O12.O23", "A.B - B.A"])
_TEXT = st.one_of(st.sampled_from(_SPECIAL), st.text(max_size=8), _CELLS)


@st.composite
def _row_with_one_escape(draw):
    row = draw(st.lists(_CELLS, min_size=1, max_size=12))
    row.insert(draw(st.integers(0, len(row))), draw(st.sampled_from([s for s in _SPECIAL if s != "/" and s])))
    return row


_SCALARS = st.one_of(
    _TEXT,
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.none(),
    st.lists(_CELLS, max_size=12),
    _row_with_one_escape(),
)
_DOCS = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(_TEXT, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_DOCS)
@example(["0", "1/2", '"', "-1"])
@example({"rows": [["0", "\n"], ["1", "2"]], "mixed": ["0", 1, None, True, [], {}]})
@example({"": [], "a": {}, "b": [[["x"]]], "é": -(10**30), "/": False})
def test_writer_matches_json_dumps(doc):
    assert dumps(doc) == _oracle(doc)


def test_package_documents_match_json_dumps():
    from qjacobi.deformation import builtin_table
    from qjacobi.liealg import algebra_ops, eval_series, spectral_report
    from qjacobi.psiengine import compute_psi

    pair = compute_psi(builtin_table(), 5)
    ops = algebra_ops("sl2")
    doc = {
        "psi": pair.psi.to_json(),
        "coeffs": [m.to_json() for m in eval_series(pair.psi, ops).coeffs],
        "omega": spectral_report(ops.Omega).to_json(),
    }
    assert dumps(doc) == _oracle(doc)


@pytest.mark.parametrize("row", [["0", "1/2", "ipi"], ["0", 'a"b', "\n", "é"]], ids=["plain", "escaped"])
def test_writer_repeats_an_aliased_list(row):
    # One list object written at three indents, and more than once at each.
    doc = {"a": row, "b": [row, row], "c": {"d": [row, ["x"], row]}, "e": row}
    assert dumps(doc) == _oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [1.5, (1, 2), Fraction(1, 2), {1: "a"}, {"a": {None: 1}}, ["0", 0.0], ["0", ("1",)], {"a": [Fraction(1)]}],
    ids=["float", "tuple", "fraction", "int-key", "none-key", "float-in-row", "tuple-in-row", "nested-fraction"],
)
def test_writer_rejects_other_types(doc):
    with pytest.raises(TypeError):
        dumps(doc)


def test_a_numeral_past_the_default_digit_limit_is_refused_before_it_is_converted(monkeypatch):
    from qjacobi import jsontext

    limit = getattr(sys.int_info, "default_max_str_digits", 4300)
    assert jsontext.loads(f'{{"n": {"9" * limit}, "m": -{"9" * limit}}}') == {"n": 10**limit - 1, "m": 1 - 10**limit}

    def forbidden(text):
        raise AssertionError("converted")

    monkeypatch.setattr(jsontext, "int", forbidden, raising=False)
    for text in ("1" * (limit + 1), "-" + "1" * (limit + 1), "1" * 100_000):
        with pytest.raises(jsontext.DocumentError) as err:
            jsontext.integer(text)
        assert str(err.value) == f"numeral of {len(text.lstrip('-'))} digits, past the {limit}-digit limit"
        with pytest.raises(jsontext.DocumentError):
            jsontext.loads(f'{{"provenance": [{text}]}}')
