"""Tests for the exact Lie algebra models, with independent oracles."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import empty_psi_cache, fresh_psi, random_homogeneous_table

import qjacobi.matrices
from qjacobi.hseries import HSeries
from qjacobi.liealg import (
    AlgebraError,
    algebra_ops,
    algebra_to_json,
    build_algebra,
    build_tensor_ops,
    eval_series,
    omega_report,
    spectral_report,
    structure_report,
    verify_classical,
    verify_sigma_rmatrix,
)
from qjacobi.liealg import _divide_linear, _sl_n
from qjacobi.matrices import MatrixError, SparseMatrix, kron
from qjacobi.ncalg import NCPoly, Scalar
from qjacobi.psiengine import PSI_ALPHABET, compute_psi, compute_psi_in
from qjacobi.deformation import builtin_table

GOLDEN = Path(__file__).resolve().parent / "golden"


# Hand-written adjoint matrices for the basis (e, h, f):
# ad_e: h -> -2e, f -> h;  ad_h: e -> 2e, f -> -2f;  ad_f: e -> -h, h -> 2f.
AD_E = SparseMatrix.from_rows([[0, -2, 0], [0, 0, 1], [0, 0, 0]])
AD_H = SparseMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
AD_F = SparseMatrix.from_rows([[0, 0, 0], [-1, 0, 0], [0, 2, 0]])


@pytest.fixture(scope="module")
def sl2():
    return build_algebra("sl2")


@pytest.fixture(scope="module")
def sl2_ops(sl2):
    return build_tensor_ops(sl2)


@pytest.fixture(scope="module")
def sl3_ops():
    return build_tensor_ops(build_algebra("sl3"))


# -- building and validating ---------------------------------------------------

def test_sl2_adjoint_matrices_match_hand_oracle(sl2):
    assert sl2.ad(0) == AD_E
    assert sl2.ad(1) == AD_H
    assert sl2.ad(2) == AD_F


def test_sl2_killing_matches_trace_oracle(sl2):
    oracle = {}
    hand = {0: AD_E, 1: AD_H, 2: AD_F}
    for i in range(3):
        for j in range(3):
            oracle[(i, j)] = (hand[i] * hand[j]).trace().as_fraction()
    killing = sl2.killing()
    for i in range(3):
        for j in range(3):
            assert killing.entry(i, j).as_fraction() == oracle[(i, j)]
    assert killing.entry(1, 1) == Scalar.rational(8)
    assert killing.entry(0, 2) == Scalar.rational(4)
    assert killing.entry(2, 0) == Scalar.rational(4)
    assert killing.entry(0, 0).is_zero and killing.entry(0, 1).is_zero


# sl2 with e -> e/2 and h -> h/3: [h, e] = 2/3 e, [h, f] = -2/3 f, [e, f] = 3/2 h.
_SCALED_SL2 = {
    "dim": 3,
    "basis": ["e", "h", "f"],
    "brackets": [[1, 0, [[0, "2/3"]]], [1, 2, [[2, "-2/3"]]], [0, 2, [[1, "3/2"]]]],
}


def _killing_by_structure(alg):
    """K_ij = sum over k, l of c_il^k c_jk^l: tr(ad x_i ad x_j) written
    out in the structure constants, in plain Fractions."""
    d = alg.dim
    return SparseMatrix(d, d, [
        (i, j, sum((alg.bracket(i, l).get(k, 0) * alg.bracket(j, k).get(l, 0)
                    for k in range(d) for l in range(d)), Fraction(0)))
        for i in range(d) for j in range(d)
    ])


@pytest.mark.parametrize("alg", [
    pytest.param(lambda: build_algebra("sl2"), id="sl2"),
    pytest.param(lambda: build_algebra("sl3"), id="sl3"),
    pytest.param(lambda: _sl_n(4), id="sl4"),
    pytest.param(lambda: build_algebra(_SCALED_SL2), id="scaled-sl2"),
])
def test_killing_matches_trace_of_adjoint_products(alg):
    alg = alg()
    expected = _killing_by_structure(alg)
    assert alg.killing() == expected
    if alg.name == "custom":
        assert any(v.denominator > 1 for row in alg.structure.values() for v in row.values())
        assert expected.entry(1, 1) == Scalar.rational(8, 9)


def _sl_n_defining(n):
    """The basis of ``_sl_n(n)`` as nested-list Fraction matrices: E_ab
    off the diagonal, then E_ii - E_(i+1)(i+1)."""

    def unit(entries):
        m = [[Fraction(0)] * n for _ in range(n)]
        for a, b, v in entries:
            m[a][b] = Fraction(v)
        return m

    basis = [unit([(a, b, 1)]) for a in range(n) for b in range(n) if a != b]
    return basis + [unit([(i, i, 1), (i + 1, i + 1, -1)]) for i in range(n - 1)]


# sl2's basis (e, h, f) as 2 x 2 matrices, and the scaled basis of _SCALED_SL2.
_SL2_DEFINING = [[[0, 1], [0, 0]], [[1, 0], [0, -1]], [[0, 0], [1, 0]]]
_SCALED_SL2_DEFINING = [
    [[v * c for v in row] for row in x] for x, c in zip(_SL2_DEFINING, (Fraction(1, 2), Fraction(1, 3), 1))
]


@pytest.mark.parametrize("alg, basis", [
    pytest.param(lambda: build_algebra("sl2"), _SL2_DEFINING, id="sl2"),
    pytest.param(lambda: _sl_n(3), _sl_n_defining(3), id="sl3"),
    pytest.param(lambda: _sl_n(4), _sl_n_defining(4), id="sl4"),
    pytest.param(lambda: build_algebra(_SCALED_SL2), _SCALED_SL2_DEFINING, id="scaled-sl2"),
])
def test_killing_is_2n_times_the_defining_trace(alg, basis):
    # On sl(n), K(x, y) = 2n tr(xy) with x, y the defining n x n matrices.
    alg = alg()
    n = len(basis[0])

    def trace_of_product(x, y):
        return sum((x[a][b] * y[b][a] for a in range(n) for b in range(n)), Fraction(0))

    expected = SparseMatrix(alg.dim, alg.dim, [
        (i, j, 2 * n * trace_of_product(x, y)) for i, x in enumerate(basis) for j, y in enumerate(basis)
    ])
    assert alg.killing() == expected


def test_abelian_algebra_rejected():
    doc = {"dim": 2, "basis": ["x", "y"], "brackets": []}
    with pytest.raises(AlgebraError, match="Killing"):
        build_algebra(doc)


def test_antisymmetry_violation_rejected():
    doc = {
        "dim": 2,
        "basis": ["x", "y"],
        "brackets": [[0, 1, [[0, "1"]]], [1, 0, [[0, "1"]]]],
    }
    with pytest.raises(AlgebraError, match="antisymmetry"):
        build_algebra(doc)


def test_jacobi_violation_rejected():
    doc = {
        "dim": 3,
        "basis": ["x", "y", "z"],
        "brackets": [[0, 1, [[2, "1"]]], [1, 2, [[0, "1"]]], [2, 0, [[0, "1"]]]],
    }
    with pytest.raises(AlgebraError, match="Jacobi"):
        build_algebra(doc)


def test_malformed_algebra_documents_rejected():
    sl2_brackets = algebra_to_json(build_algebra("sl2"))["brackets"]
    bad_docs = [
        {"dim": 2, "basis": ["x"], "brackets": []},
        {"dim": 2, "basis": ["x", "y"], "brackets": [[0]]},
        {"dim": 2, "basis": ["x", "y"], "brackets": [[0, 1, [[0, "1/0"]]]]},
        {"dim": 2, "basis": ["x", "y"], "brackets": [[0, 1, [[0, 0.5]]]]},
        {"dim": 2, "basis": ["x", "y"], "brackets": [[0, 5, [[0, "1"]]]]},
        {"dim": 2, "basis": ["x", "y"], "brackets": 5},
        {"dim": 2, "basis": ["x", "y"], "brackets": None},
        {"dim": 2, "basis": ["x", "y"], "brackets": True},
        {"dim": 0, "basis": [], "brackets": []},
        {"dim": 2, "basis": ["x", "y"], "brackets": [{"0": 1}]},
    ]
    for doc in bad_docs:
        with pytest.raises(AlgebraError):
            build_algebra(doc)
    # Types are checked, not coerced; the error names the field.
    mistyped = [
        ("dim", {"dim": 3.9, "basis": "ehf", "brackets": sl2_brackets}),
        ("dim", {"dim": 3.9, "basis": ["e", "h", "f"], "brackets": sl2_brackets}),
        ("dim", {"dim": "3", "basis": ["e", "h", "f"], "brackets": sl2_brackets}),
        ("dim", {"dim": True, "basis": ["e"], "brackets": sl2_brackets}),
        ("basis", {"dim": 3, "basis": "ehf", "brackets": sl2_brackets}),
        ("basis", {"dim": 3, "basis": ("e", "h", "f"), "brackets": sl2_brackets}),
        ("basis", {"dim": 3, "basis": ["e", "h", 3], "brackets": sl2_brackets}),
    ]

    def sl2_with(index=lambda i: i, coeff=lambda c: c):
        brackets = [
            [index(i), index(j), [[index(k), coeff(c)] for k, c in row]] for i, j, row in sl2_brackets
        ]
        return {"dim": 3, "basis": ["e", "h", "f"], "brackets": brackets}

    # Bracket indices must be integers and coefficients strings or
    # integers; each of these once loaded as sl2.
    mistyped += [("bracket", sl2_with(index=str))]
    mistyped += [("bracket", sl2_with(index=lambda i: i + offset)) for offset in (0.25, 0.5, 0.75)]
    mistyped += [
        ("bracket", sl2_with(index=lambda i: True if i == 1 else i)),
        ("bracket", sl2_with(coeff=lambda c: True if c == "1" else c)),
    ]
    half_target = sl2_with()
    half_target["brackets"][0][2][0][0] = 0.5
    mistyped.append(("bracket", half_target))
    for field_name, doc in mistyped:
        with pytest.raises(AlgebraError, match=field_name):
            build_algebra(doc)
    # Coefficient strings are integers or p/q.  Each of these once loaded
    # through Fraction's wider grammar (the last as sl2 scaled by 10);
    # the error names the value.
    for spell in (lambda c: f" {c}.0 ", lambda c: f"{c}e0", lambda c: f"{c}_0"):
        doc = sl2_with(coeff=spell)
        with pytest.raises(AlgebraError, match=re.escape(repr(spell("-2")))):
            build_algebra(doc)


def test_repeated_brackets_rejected():
    # Each of these once loaded with the later copy in force: the first
    # as sl2 with [e, f] = 5h, the second with [e, f] = -6h.
    sl2_brackets = algebra_to_json(build_algebra("sl2"))["brackets"]
    repeated_pair = sl2_brackets + [[0, 2, [[1, "5"]]]]
    repeated_target = [
        [i, j, [[1, "7"], [1, "-6"]] if (i, j) == (0, 2) else row] for i, j, row in sl2_brackets
    ]
    for brackets, message in (
        (repeated_pair, re.escape("bracket (0, 2) is stated twice")),
        (repeated_target, "states a target index twice"),
    ):
        doc = {"dim": 3, "basis": ["e", "h", "f"], "brackets": brackets}
        with pytest.raises(AlgebraError, match=message):
            build_algebra(doc)
    # Both orders of one pair may be stated, as algebra_to_json writes
    # them, and antisymmetry checks that they agree.
    doc = {"dim": 3, "basis": ["e", "h", "f"], "brackets": sl2_brackets}
    assert build_algebra(doc).structure == build_algebra("sl2").structure
    doc["brackets"] = [[i, j, [[1, "7"]] if (i, j) == (2, 0) else row] for i, j, row in sl2_brackets]
    with pytest.raises(AlgebraError, match="antisymmetry fails"):
        build_algebra(doc)


def test_degenerate_killing_form_rejected():
    # [x, y] = y passes antisymmetry and Jacobi, but the algebra is
    # solvable: its Killing form has rank 1.
    doc = {"dim": 2, "basis": ["x", "y"], "brackets": [[0, 1, [[1, "1"]]]]}
    with pytest.raises(AlgebraError, match="Killing form is degenerate"):
        build_algebra(doc)


def _naive_sl_n(n):
    """sl(n) structure constants from nested-list Fraction matrices."""

    def product(x, y):
        return [[sum((x[a][c] * y[c][b] for c in range(n)), Fraction(0)) for b in range(n)] for a in range(n)]

    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    basis = _sl_n_defining(n)
    structure = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            xy, yx = product(x, y), product(y, x)
            comm = [[xy[a][b] - yx[a][b] for b in range(n)] for a in range(n)]
            # Off-diagonal entries are the E_ab coordinates; the diagonal
            # diag(c_1, ..., c_n), trace zero, is sum_i (c_1 + ... + c_i) h_i.
            coeffs = {idx: comm[a][b] for idx, (a, b) in enumerate(pairs) if comm[a][b]}
            for i_h in range(n - 1):
                partial = sum((comm[m][m] for m in range(i_h + 1)), Fraction(0))
                if partial:
                    coeffs[len(pairs) + i_h] = partial
            if coeffs:
                structure[(i, j)] = coeffs
    return structure


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl_n_matches_naive_matrix_reference(n):
    alg = _sl_n(n)
    assert alg.dim == n * n - 1
    assert alg.structure == _naive_sl_n(n)
    for row in alg.structure.values():
        assert all(type(v) is Fraction for v in row.values())


def _oracle_violations(dim, structure):
    """The first failing check of the loops, antisymmetry of every
    bracket and then the cyclic Jacobi sum of every triple, with every
    bracket or triple that fails it; (None, []) when both hold."""

    def bracket(i, j):
        return structure.get((i, j), {})

    failing = []
    for i in range(dim):
        for j in range(dim):
            left, right = bracket(i, j), bracket(j, i)
            for k in set(left) | set(right):
                if left.get(k, Fraction(0)) != -right.get(k, Fraction(0)):
                    failing.append((i, j))
                    break
    if failing:
        return "antisymmetry", failing
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                acc = {}
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cab in bracket(a, b).items():
                        for l, cmk in bracket(m, c).items():
                            acc[l] = acc.get(l, Fraction(0)) + cab * cmk
                if any(acc.values()):
                    failing.append((i, j, k))
    return ("Jacobi" if failing else None), failing


_SL2_BRACKETS = {(1, 0): {0: 2}, (1, 2): {2: -2}, (0, 2): {1: 1}}


@st.composite
def _structure_documents(draw):
    """Small random structure constants; each stated bracket has its
    mirror filled by the loader, stated correctly, or now and then
    stated wrongly.  Some documents start from sl2 so that valid
    algebras occur too."""
    dim = draw(st.integers(1, 4))
    coeff = st.integers(-2, 2)
    if dim == 3 and draw(st.booleans()):
        stated = {key: {k: Fraction(v) for k, v in row.items()} for key, row in _SL2_BRACKETS.items()}
        if draw(st.booleans()):
            key = draw(st.sampled_from(sorted(stated)))
            stated[key][draw(st.integers(0, 2))] = Fraction(draw(coeff))
    else:
        stated = {}
        for i in range(dim):
            for j in range(i + 1, dim):
                row = draw(st.dictionaries(st.integers(0, dim - 1), coeff, max_size=2))
                stated[(i, j)] = {k: Fraction(v) for k, v in row.items()}
        if draw(st.integers(0, 9)) == 0:
            i = draw(st.integers(0, dim - 1))
            stated[(i, i)] = {draw(st.integers(0, dim - 1)): Fraction(1)}
    structure = {key: {k: v for k, v in row.items() if v} for key, row in stated.items()}
    keys = sorted(structure)
    wrong = draw(st.sampled_from(keys)) if keys and draw(st.integers(0, 3)) == 0 else None
    for (i, j) in keys:
        if (j, i) in structure or (wrong != (i, j) and draw(st.booleans())):
            continue
        flipped = {k: -v for k, v in structure[(i, j)].items()}
        if wrong == (i, j):
            k = draw(st.integers(0, dim - 1))
            flipped[k] = flipped.get(k, Fraction(0)) + draw(st.sampled_from([-1, 1]))
        structure[(j, i)] = {k: v for k, v in flipped.items() if v}
    doc = {
        "dim": dim,
        "basis": [f"x{i}" for i in range(dim)],
        "brackets": [[i, j, [[k, str(v)] for k, v in row.items()]] for (i, j), row in structure.items()],
    }
    for (i, j), row in list(structure.items()):
        structure.setdefault((j, i), {k: -v for k, v in row.items()})
    return doc, structure


@settings(max_examples=200, deadline=None)
@given(_structure_documents())
def test_validation_matches_loop_oracle(case):
    doc, structure = case
    expected, failing = _oracle_violations(doc["dim"], structure)
    if expected is None:
        try:
            build_algebra(doc)
        except AlgebraError as exc:
            assert "Killing" in str(exc)
        return
    with pytest.raises(AlgebraError, match=expected) as caught:
        build_algebra(doc)
    # The reported bracket or triple is one that fails.
    named = tuple(int(label) for label in re.findall(r"x(\d+)", str(caught.value)))
    assert named in failing


def test_algebra_json_round_trip(sl2):
    doc = algebra_to_json(sl2)
    again = build_algebra(doc)
    assert again.dim == sl2.dim
    assert again.basis_names == sl2.basis_names
    assert again.structure == sl2.structure


def test_sl3_dimensions(sl3_ops):
    assert sl3_ops.alg.dim == 8
    assert sl3_ops.Omega.rows == 64
    assert kron(sl3_ops.Omega, SparseMatrix.identity(8)).rows == 512


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_algebra_ops_shares_each_preset(name):
    # A preset is built once per process; a document is built per call.
    assert algebra_ops(name) is algebra_ops(name)
    doc = algebra_to_json(build_algebra(name))
    assert algebra_ops(doc) is not algebra_ops(doc)


def test_tensor_ops_and_algebra_data_are_frozen(sl2_ops):
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        sl2_ops.Omega = sl2_ops.T
    with pytest.raises(dataclasses.FrozenInstanceError):
        sl2_ops.alg.name = "other"


def test_a_preset_keeps_each_report_per_order():
    # A report reads the operators alone, so a preset's is built once per
    # process and shared; a replaced instance starts with none.  A
    # braiding report is the prefix of the checks the preset keeps, so
    # one asked twice is equal, not the same object.
    import dataclasses

    ops = algebra_ops("sl2")
    for report in (verify_classical, structure_report, omega_report):
        assert report(ops) is report(ops)
    assert verify_sigma_rmatrix(ops, 3) == verify_sigma_rmatrix(ops, 3)
    assert verify_sigma_rmatrix(ops, order=3) == verify_sigma_rmatrix(ops, order=3)
    assert verify_sigma_rmatrix(ops, 3) != verify_sigma_rmatrix(ops, 4)
    assert [c.name for c in verify_sigma_rmatrix(ops, 4).checks] == ["h^0", "h^1", "h^2", "h^3"]
    # An order given by position or by keyword is one report, and a
    # keyword the function does not take still raises.
    fresh = dataclasses.replace(ops)
    assert verify_sigma_rmatrix(fresh, 3) == verify_sigma_rmatrix(fresh, order=3)
    assert len(fresh._reports) == 0 and len(fresh._braiding.checks) == 3
    for kwargs in ({"degree": 3}, {"order": 3, "degree": 3}):
        with pytest.raises(TypeError):
            verify_sigma_rmatrix(fresh, **kwargs)
    with pytest.raises(TypeError):
        verify_sigma_rmatrix(fresh, 3, order=3)
    assert omega_report(ops) == spectral_report(ops.Omega)
    # An order that raises keeps nothing and raises again.
    for _ in range(2):
        with pytest.raises(ValueError, match="order must be positive"):
            verify_sigma_rmatrix(ops, 0)
    bad = dataclasses.replace(ops, T=ops.T + SparseMatrix(3, 9, [(0, 0, 1)]))
    assert not verify_classical(bad).ok and verify_classical(ops).ok


def test_an_operators_reports_stay_within_their_bound():
    # Whatever orders are asked, an instance keeps the three reports that
    # take no argument and one braiding state: the checks found so far and
    # the last E_k alone.
    import dataclasses

    ops = dataclasses.replace(algebra_ops("sl2"))
    fields = {field.name for field in dataclasses.fields(ops)}
    first = verify_sigma_rmatrix(ops, 1)
    for report in (verify_classical, structure_report, omega_report):
        report(ops)
    for order in range(2, 21):
        verify_sigma_rmatrix(ops, order)
        assert len(ops._reports) == 3 and len(ops._braiding.checks) == order
    assert set(vars(ops)) - fields == {"_reports", "_braiding"}
    assert sorted(ops._reports) == ["omega_report", "structure_report", "verify_classical"]
    assert sorted(vars(ops._braiding)) == ["checks", "last"]
    assert isinstance(ops._braiding.last, SparseMatrix)
    assert verify_sigma_rmatrix(ops, 1) == first


def test_the_braiding_recurrence_resumes_past_the_order_reached(monkeypatch):
    # The check at h^k reads E_k alone, so orders 6, 4 and 9 asked of one
    # instance run the recurrence 9 times, not 6 + 4 + 9, and each report
    # is the one a new instance builds for its order.
    import dataclasses

    from qjacobi import liealg

    steps = []
    check = liealg._matrix_check
    monkeypatch.setattr(liealg, "_matrix_check", lambda name, *sides: steps.append(name) or check(name, *sides))
    ops = dataclasses.replace(algebra_ops("sl2"))
    reports = [(order, verify_sigma_rmatrix(ops, order)) for order in (6, 4, 9)]
    assert steps == [f"h^{k}" for k in range(9)] and len(ops._braiding.checks) == 9
    monkeypatch.undo()
    for order, report in reports:
        assert len(report.checks) == order
        assert report.to_json() == verify_sigma_rmatrix(dataclasses.replace(ops), order).to_json()
    assert verify_sigma_rmatrix(ops, order=3) == verify_sigma_rmatrix(ops, 3)


def test_an_order_below_one_leaves_the_braiding_state_as_it_was():
    import dataclasses

    ops = dataclasses.replace(algebra_ops("sl2"))
    for order in (None, 3):
        if order:
            verify_sigma_rmatrix(ops, order)
        checks, last = list(ops._braiding.checks), ops._braiding.last
        for _ in range(2):
            with pytest.raises(ValueError, match="order must be positive"):
                verify_sigma_rmatrix(ops, 0)
            assert ops._braiding.checks == checks and ops._braiding.last is last
    assert len(checks) == 3


def test_a_braiding_step_that_raises_keeps_the_checks_before_it(monkeypatch):
    import dataclasses

    from qjacobi import liealg

    check = liealg._matrix_check

    def failing(name, *sides):
        if name == "h^4":
            raise MatrixError("simulated")
        return check(name, *sides)

    ops = dataclasses.replace(algebra_ops("sl2"))
    verify_sigma_rmatrix(ops, 2)
    monkeypatch.setattr(liealg, "_matrix_check", failing)
    for _ in range(2):
        with pytest.raises(MatrixError, match="simulated"):
            verify_sigma_rmatrix(ops, 6)
        assert [c.name for c in ops._braiding.checks] == ["h^0", "h^1", "h^2", "h^3"]
    monkeypatch.undo()
    assert verify_sigma_rmatrix(ops, 6).to_json() == verify_sigma_rmatrix(dataclasses.replace(ops), 6).to_json()


def test_a_failed_report_is_kept():
    # A failed Report is falsy; it is kept all the same.
    import dataclasses

    ops = algebra_ops("sl2")
    bad = dataclasses.replace(ops, sigma=SparseMatrix.identity(9))
    report = verify_classical(bad)
    assert not report and verify_classical(bad) is report


def test_a_kept_report_cannot_change():
    import dataclasses

    from qjacobi.liealg import CheckResult, Report

    ops = algebra_ops("sl2")
    report = verify_classical(ops)
    assert isinstance(report.checks, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.checks = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.checks[0].passed = False
    spectral = omega_report(ops)
    assert isinstance(spectral.min_poly, tuple) and isinstance(spectral.factors, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spectral.annihilates = False
    # Every to_json is built fresh, and a list of checks is stored as a tuple.
    for kept, key in ((report, "checks"), (spectral, "eigenvalues")):
        before = kept.to_json()
        kept.to_json()[key].clear()
        assert kept.to_json() == before
    given = [CheckResult("3.1", False, "forced failure")]
    built = Report("custom", given)
    given.clear()
    assert built.checks == (CheckResult("3.1", False, "forced failure"),) and not built


def test_shared_algebra_structure_is_read_only():
    # Before the structure was read-only, a caller could pop a bracket
    # from the preset every later algebra_ops("sl2") call returns.
    import dataclasses
    import json

    alg = algebra_ops("sl2").alg
    with pytest.raises(TypeError):
        alg.structure[(0, 1)] = {0: Fraction(1)}
    with pytest.raises(TypeError):
        alg.structure[(0, 1)][0] = Fraction(1)
    with pytest.raises(TypeError):
        alg.bracket(0, 1)[2] = Fraction(1)
    assert alg == build_algebra("sl2")
    assert json.dumps(algebra_to_json(alg), sort_keys=True) == (
        '{"basis": ["e", "h", "f"], "brackets": [[0, 1, [[0, "-2"]]], [0, 2, [[1, "1"]]], '
        '[1, 0, [[0, "2"]]], [1, 2, [[2, "-2"]]], [2, 0, [[1, "-1"]]], [2, 1, [[2, "2"]]]], "dim": 3}'
    )
    # replace builds a new algebra from plain dicts, frozen alike, and the
    # shared preset keeps its brackets.
    scaled = {key: {k: 2 * v for k, v in row.items()} for key, row in alg.structure.items()}
    other = dataclasses.replace(alg, structure=scaled)
    assert other.structure[(0, 1)] == {0: Fraction(-4)}
    with pytest.raises(TypeError):
        other.structure[(0, 1)][0] = Fraction(1)
    scaled[(0, 1)][0] = Fraction(9)
    assert other.structure[(0, 1)] == {0: Fraction(-4)}
    assert alg.structure[(0, 1)] == {0: Fraction(-2)}
    assert algebra_ops("sl2").alg == build_algebra("sl2")


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_letter_images_are_the_lifts_of_omega(name):
    ops = algebra_ops(name)
    eye = SparseMatrix.identity(ops.alg.dim)
    assert ops.Omega12 == kron(ops.Omega, eye)
    assert ops.Omega23 == kron(eye, ops.Omega)


# -- tensor operators ------------------------------------------------------------

def test_sl2_omega_trace_zero(sl2_ops):
    # Oracle: trace(kron(a, b)) = trace(a) trace(b) and adjoint traces vanish,
    # so the Casimir sum is traceless term by term.
    assert sl2_ops.Omega.trace().is_zero
    for ad in sl2_ops.ad:
        assert ad.trace().is_zero


def test_omega_equals_casimir_sum_oracle():
    # Omega = sum K^-1_ij ad_i (x) ad_j, with K from the structure
    # constants; the scaled sl2 brackets give K^-1 other denominators.
    for spec in ("sl2", "sl3", str(GOLDEN / "algebra_sl2xsl2.json"), _SCALED_SL2):
        alg = build_algebra(spec)
        ops = build_tensor_ops(alg)
        d = alg.dim
        kinv = _killing_by_structure(alg).inverse()
        oracle = SparseMatrix.zeros(d * d, d * d)
        for i in range(d):
            for j in range(d):
                coeff = kinv.entry(i, j)
                if not coeff.is_zero:
                    oracle = oracle + kron(alg.ad(i), alg.ad(j)).scale(coeff)
        assert ops.Omega == oracle, spec
        assert ops.t_action == oracle, spec


def test_sl2_omega_spectrum_via_rank_oracle(sl2_ops):
    omega = sl2_ops.Omega
    eye = SparseMatrix.identity(9)
    expected = {Fraction(-1): 1, Fraction(-1, 2): 3, Fraction(1, 2): 5}
    for lam, dim in expected.items():
        shifted = omega - eye.scale(Scalar.rational(lam))
        assert 9 - shifted.rank() == dim
    product = eye
    for lam in expected:
        product = product * (omega - eye.scale(Scalar.rational(lam)))
    assert product.is_zero


def test_sl2_spectral_report(sl2_ops):
    report = spectral_report(sl2_ops.Omega)
    assert report.trace == 0
    assert report.factors == (
        (Fraction(-1), 1, 1),
        (Fraction(-1, 2), 1, 3),
        (Fraction(1, 2), 1, 5),
    )
    assert report.residual_degree == 0
    assert report.annihilates
    assert report.factored_text() == "(x + 1)*(x + 1/2)*(x - 1/2)"


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_spectral_report_forms_each_power_once(name, sl2_ops, sl3_ops, monkeypatch):
    # The annihilation check reuses the powers of the minimal polynomial
    # search, so the report makes one product per degree and no more.
    omega = {"sl2": sl2_ops, "sl3": sl3_ops}[name].Omega
    products = []
    original = SparseMatrix.__mul__

    def counted(a, b):
        products.append(1)
        return original(a, b)

    monkeypatch.setattr(SparseMatrix, "__mul__", counted)
    report = spectral_report(omega)
    monkeypatch.undo()
    assert report.annihilates
    assert len(products) == len(report.min_poly) - 1
    acc = SparseMatrix.zeros(omega.rows, omega.cols)
    power = SparseMatrix.identity(omega.rows)
    for c in report.min_poly:
        acc = acc + power.scale(c)
        power = power * omega
    assert acc.is_zero


@pytest.mark.parametrize(
    "rows, factors, text",
    [
        ([[0, 0, 0], [0, 0, 0], [0, 0, 1]], [(0, 1, 2), (1, 1, 1)], "x*(x - 1)"),
        ([[1, 1], [0, 1]], [(1, 2, 1)], "(x - 1)^2"),
        ([[0, 1, 0], [0, 0, 0], [0, 0, 0]], [(0, 2, 2)], "x^2"),
        ([[0, 1], [2, 0]], [], "<irreducible part of degree 2>"),
        ([[2, 0, 0], [0, 0, 1], [0, -1, 0]], [(2, 1, 1)], "(x - 2)*<irreducible part of degree 2>"),
    ],
    ids=["diag-001", "jordan-1", "nilpotent", "sqrt-2", "two-and-rotation"],
)
def test_spectral_report_of_small_matrices(rows, factors, text):
    # Each rational root once, with its multiplicity in the minimal
    # polynomial and its kernel dimension; the rest is the residual part.
    report = spectral_report(SparseMatrix.from_rows(rows))
    assert report.factors == tuple((Fraction(root), mult, dim) for root, mult, dim in factors)
    assert report.factored_text() == text
    assert report.annihilates


def test_dividing_by_a_linear_factor_leaves_the_value_at_its_root():
    # x^2 - 1 = (x - 1)(x + 1) + 0 = (x - 2)(x + 2) + 3: the remainder is
    # the value at the root, 0 only at a root.
    coeffs = [Fraction(-1), Fraction(0), Fraction(1)]
    assert _divide_linear(coeffs, Fraction(1)) == ([Fraction(1), Fraction(1)], 0)
    assert _divide_linear(coeffs, Fraction(2)) == ([Fraction(2), Fraction(1)], 3)


def test_sigma_is_involution(sl2_ops, sl3_ops):
    for ops in (sl2_ops, sl3_ops):
        d2 = ops.alg.dim ** 2
        assert ops.sigma * ops.sigma == SparseMatrix.identity(d2)


def test_structure_invariants(sl2_ops, sl3_ops):
    for ops in (sl2_ops, sl3_ops):
        report = structure_report(ops)
        assert report.ok, [c.name for c in report.checks if not c.passed]


# -- classical identities ---------------------------------------------------------

def test_classical_identities_sl2(sl2_ops):
    report = verify_classical(sl2_ops)
    assert report.ok
    assert [c.name for c in report.checks] == ["3.1", "3.2", "3.3"]


def test_classical_identities_sl3(sl3_ops):
    assert verify_classical(sl3_ops).ok


def test_symmetrizing_the_bracket_kills_it(sl2_ops):
    # Antisymmetry says exactly that the symmetrized composite vanishes.
    d2 = sl2_ops.alg.dim ** 2
    assert (sl2_ops.T * (SparseMatrix.identity(d2) + sl2_ops.sigma)).is_zero


def test_non_antisymmetric_bracket_fails_3_1(sl2_ops):
    import dataclasses

    # Perturb by a flip-symmetric piece: e_0 (x) e_0 is fixed by the flip,
    # so the perturbed map cannot satisfy antisymmetry.
    bad_T = sl2_ops.T + SparseMatrix(3, 9, [(0, 0, 1)])
    bad = dataclasses.replace(sl2_ops, T=bad_T)
    report = verify_classical(bad)
    assert not report.checks[0].passed  # 3.1
    assert "first difference" in report.checks[0].detail


def test_jacobi_rewritten_one_sided(sl2_ops, sl3_ops):
    for ops in (sl2_ops, sl3_ops):
        d = ops.alg.dim
        eye = SparseMatrix.identity(d)
        lhs = ops.T * kron(ops.T, eye) - ops.T * kron(eye, ops.T) + ops.T * kron(eye, ops.T) * ops.sigma12
        assert lhs.is_zero


# -- braiding relation -------------------------------------------------------------

def test_sigma_rmatrix_sl2_order4(sl2_ops):
    assert verify_sigma_rmatrix(sl2_ops, 4).ok


def test_sigma_rmatrix_trivial_at_order1(sl2_ops):
    assert verify_sigma_rmatrix(sl2_ops, 1).ok


def test_sigma_rmatrix_fails_for_perturbed_omega(sl2_ops):
    import dataclasses

    # A rank-one perturbation that does not commute with the diagonal action.
    noise = SparseMatrix(9, 9, [(0, 1, 1)])
    bad = dataclasses.replace(sl2_ops, Omega=sl2_ops.Omega + noise)
    assert not verify_sigma_rmatrix(bad, 3).ok


def rmatrix_oracle(ops, order):
    """The braiding report from sigma exp(ipi h t_action) exp(-ipi h Omega)
    built as generic series exponentials and series products, with the
    h^k coefficients of the right-hand side."""
    d2 = ops.alg.dim ** 2
    zero = SparseMatrix.zeros(d2, d2)
    ipi = Scalar.constant("ipi")

    def one_step(matrix, coeff):
        coeffs = [zero] * order
        if order > 1:
            coeffs[1] = matrix.scale(coeff)
        return HSeries(coeffs)

    sigma = HSeries.constant(ops.sigma, order)
    rhs = sigma * one_step(ops.t_action, ipi).exp() * one_step(ops.Omega, -ipi).exp()
    checks = []
    for k in range(order):
        diff = sigma.coeffs[k].first_difference(rhs.coeffs[k])
        detail = "" if diff is None else (
            f"first difference at ({diff[0]}, {diff[1]}): {diff[2].to_text()} vs {diff[3].to_text()}"
        )
        checks.append({"name": f"h^{k}", "passed": diff is None, "detail": detail})
    doc = {"algebra": ops.alg.name, "passed": all(c["passed"] for c in checks), "checks": checks}
    return doc, rhs.coeffs


@pytest.mark.parametrize(
    "name, order", [("sl2", n) for n in range(1, 11)] + [("sl3", n) for n in range(1, 6)]
)
def test_sigma_rmatrix_matches_series_product_oracle(sl2_ops, sl3_ops, name, order):
    ops = {"sl2": sl2_ops, "sl3": sl3_ops}[name]
    expected, _ = rmatrix_oracle(ops, order)
    assert expected["passed"]
    assert verify_sigma_rmatrix(ops, order).to_json() == expected


@pytest.mark.parametrize("field_names", [("Omega",), ("t_action",), ("Omega", "t_action")])
@pytest.mark.parametrize("name, order", [("sl2", n) for n in (1, 2, 3, 4, 6)] + [("sl3", n) for n in (2, 5)])
def test_sigma_rmatrix_matches_oracle_off_the_identity(sl2_ops, sl3_ops, name, order, field_names):
    # Perturbed operators leave every E_k nonzero, so each step of the
    # recurrence multiplies real matrices; one perturbation carries ipi.
    import dataclasses

    ops = {"sl2": sl2_ops, "sl3": sl3_ops}[name]
    d2 = ops.alg.dim ** 2
    noise = {
        "Omega": SparseMatrix(d2, d2, [(0, 1, 1), (d2 - 1, 2, Fraction(-1, 3))]),
        "t_action": SparseMatrix(d2, d2, [(1, 0, 2), (3, 3, 1)]).scale(Scalar.constant("ipi")),
    }
    bad = dataclasses.replace(ops, **{f: getattr(ops, f) + noise[f] for f in field_names})
    expected, rhs = rmatrix_oracle(bad, order)
    assert all(not c.is_zero for c in rhs[1:])
    assert verify_sigma_rmatrix(bad, order).to_json() == expected


# -- evaluation ---------------------------------------------------------------------

def test_eval_series_identity(sl2_ops):
    series = HSeries.unit(NCPoly.one(PSI_ALPHABET), 2)
    out = eval_series(series, sl2_ops)
    assert out.coeffs[0] == SparseMatrix.identity(27)
    assert out.coeffs[1].is_zero


def test_eval_psi_order3_matches_matrix_commutator(sl2_ops):
    pair = compute_psi(builtin_table(), 3)
    out = eval_series(pair.psi, sl2_ops)
    eye = SparseMatrix.identity(3)
    o12, o23 = kron(sl2_ops.Omega, eye), kron(eye, sl2_ops.Omega)
    direct = o12 * o23 - o23 * o12
    expected = direct.scale(Scalar.rational(-1, 24))
    assert out.coeffs[2] == expected
    assert not expected.is_zero


def test_eval_of_inverse_pair_is_identity_series(sl2_ops):
    pair = compute_psi(builtin_table(), 4)
    prod = eval_series(pair.psi, sl2_ops) * eval_series(pair.psi_inv, sl2_ops)
    assert prod == HSeries.unit(SparseMatrix.identity(27), 4)


def test_eval_series_is_multiplicative(sl2_ops):
    rng = random.Random(7)
    words = [(), ("O12",), ("O23",), ("O12", "O23"), ("O23", "O12")]

    def random_series():
        coeffs = []
        for _ in range(3):
            terms = [(rng.choice(words), rng.randint(-3, 3)) for _ in range(2)]
            coeffs.append(NCPoly(PSI_ALPHABET, terms))
        return HSeries(coeffs)

    for _ in range(5):
        a, b = random_series(), random_series()
        assert eval_series(a * b, sl2_ops) == eval_series(a, sl2_ops) * eval_series(b, sl2_ops)


def _eval_products(ops, order, monkeypatch):
    """(matrix products eval_series makes on the built-in Psi mod
    h^order, the count Horner's rule predicts)."""
    # Each distinct proper nonempty suffix of a coefficient's words costs
    # one product: its quotient times the image of the letter before it.
    # The built-in Psi is rational, so each product is one (left, right)
    # pair of integer row stores handed to the row-by-row kernel.
    psi = compute_psi(builtin_table(), order).psi
    expected = 0
    for coeff in psi.coeffs:
        words = [word for word, _ in coeff.sorted_terms()]
        expected += len({word[n:] for word in words for n in range(1, len(word))})
    calls = []
    kernel = qjacobi.matrices._rows_dot

    def counted(terms):
        calls.extend((a, b) for _, a, b in terms)
        return kernel(terms)

    monkeypatch.setattr(qjacobi.matrices, "_rows_dot", counted)
    eval_series(psi, ops)
    return len(calls), expected


def test_eval_series_makes_one_product_per_proper_suffix(sl2_ops, monkeypatch):
    assert _eval_products(sl2_ops, 10, monkeypatch) == (242, 242)


def test_eval_series_products_on_sl3(sl3_ops, monkeypatch):
    # Summing a node's constant quotients (one lincomb per node) makes no
    # product of its own.
    assert _eval_products(sl3_ops, 6, monkeypatch) == (14, 14)


def test_eval_series_alphabet_mismatch(sl2_ops):
    from qjacobi.ncalg import Alphabet

    other = Alphabet(("X", "Y"))
    series = HSeries.unit(NCPoly.one(other), 2)
    with pytest.raises(ValueError):
        eval_series(series, sl2_ops)


# -- the Psi engine on the algebra's letters against free-then-evaluate ----------

# Each random table carries ipi and the user constant zeta.
_ORACLE_TABLES = {
    "builtin": builtin_table,
    "random-1": lambda: random_homogeneous_table(random.Random(1), max_degree=5, max_terms=3, constants=("zeta", "ipi")),
    "random-4": lambda: random_homogeneous_table(random.Random(4), max_degree=5, max_terms=3, constants=("ipi", "zeta")),
}
_ORACLE_ORDERS = {"sl2": range(2, 13), "sl3": (4, 6)}


def _oracle_table(name):
    table = _ORACLE_TABLES[name]()
    if name != "builtin":
        found = {c for entry in table.entries.values() for _, coeff in entry.sorted_terms() for c in coeff.constants()}
        assert found == {"ipi", "zeta"}, found
    return table


@pytest.mark.parametrize("algebra", _ORACLE_ORDERS)
@pytest.mark.parametrize("name", _ORACLE_TABLES)
def test_the_pair_in_the_algebra_is_the_free_pair_evaluated(name, algebra):
    # Two independent routes: the free pair multiplied out word by word,
    # and the engine run on the matrices of O12 and O23, each from an
    # empty cache.
    table, ops = _oracle_table(name), algebra_ops(algebra)
    for order in _ORACLE_ORDERS[algebra]:
        free = fresh_psi(table, order)
        empty_psi_cache()
        pair = compute_psi_in(table, order, ops.Omega12, ops.Omega23)
        assert pair.psi == eval_series(free.psi, ops), order
        assert pair.psi_inv == eval_series(free.psi_inv, ops), order
    empty_psi_cache()


@pytest.mark.parametrize("algebra", _ORACLE_ORDERS)
@pytest.mark.parametrize("name", _ORACLE_TABLES)
def test_a_pair_in_the_algebra_resumed_over_ascending_orders_equals_a_fresh_one(name, algebra):
    table, ops = _oracle_table(name), algebra_ops(algebra)
    letters = (ops.Omega12, ops.Omega23)
    fresh = {}
    for order in _ORACLE_ORDERS[algebra]:
        empty_psi_cache()
        fresh[order] = compute_psi_in(table, order, *letters)
    empty_psi_cache()
    for order in _ORACLE_ORDERS[algebra]:
        assert compute_psi_in(table, order, *letters) == fresh[order], order
    empty_psi_cache()
