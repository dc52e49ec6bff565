"""Tests for the command-line interface and its exit-code contract."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import (
    counted_table_parses,
    empty_psi_cache,
    empty_report_cache,
    empty_term_cache,
    fresh_psi,
    negate_psi_below_the_top,
)

from qjacobi import cli, transport

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_psi_order_two(capsys):
    code, out = run_cli(capsys, "psi", "--order", "2")
    assert code == 0
    assert out.count("h^0: 1") == 2
    assert "psi:" in out and "psi_inv:" in out


def test_psi_order_three_text(capsys):
    code, out = run_cli(capsys, "psi", "--order", "3", "--format", "text")
    assert code == 0
    assert "- 1/24*O12.O23 + 1/24*O23.O12" in out


def test_psi_order_one_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["psi", "--order", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", [["psi"], ["eval"], ["verify", "rmatrix"]], ids=["psi", "eval", "verify"])
def test_a_non_integer_order_exits_2_with_a_plain_message(capsys, command):
    # argparse words a type function's ValueError with the function's
    # name, as in "invalid _order_at_least_two value: 'abc'".
    with pytest.raises(SystemExit) as err:
        cli.main([*command, "--order", "abc"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == f"qjacobi {command[0]}: error: argument --order/-n: order must be an integer"


def test_psi_golden_conflicts_with_json(capsys):
    code = cli.main(["psi", "--order", "2", "--golden", "--format", "json"])
    capsys.readouterr()
    assert code == 2


def test_psi_json_parses(capsys):
    code, out = run_cli(capsys, "psi", "--order", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 4
    assert doc["psi"]["coeffs"][0] == "1"


def test_psi_golden_file(capsys):
    code, out = run_cli(capsys, "psi", "--order", "6", "--golden")
    assert code == 0
    assert out == (GOLDEN / "psi_order6.txt").read_text()


def test_eval_json_golden(capsys):
    # Dense matrix rows are the bulk of every eval and omega JSON document.
    code, out = run_cli(capsys, "eval", "--algebra", "sl2", "--order", "4", "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "eval_sl2_o4.json").read_bytes()


def test_eval_text_golden(capsys):
    # The dense text form of every coefficient, from Horner's rule in the
    # word evaluator over Psi's words up to length 7.
    code, out = run_cli(capsys, "eval", "--algebra", "sl2", "--order", "8")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "eval_sl2_o8.txt").read_bytes()


def test_eval_constants_text_golden(capsys):
    # A table with ipi and a user constant zeta, so that matrix cells
    # carry several formal-constant terms, e.g. "- 1/8*ipi + 1/8*zeta".
    table = str(GOLDEN / "table_constants.json")
    code, out = run_cli(capsys, "eval", "--algebra", "sl2", "--order", "4", "--table", table)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "eval_sl2_o4_constants.txt").read_bytes()


# `eval --algebra algebra_sl2xsl2.json --order 4 --table table_constants.json`
SL2XSL2_EVAL_DIGEST = "15999e480a575590c8d04385a7071ab8ddd2955464ecaeef44f9f465f38ac710"


def test_eval_constants_on_algebra_file_digest(capsys):
    # A non-preset algebra with two formal constants: the h^3 coefficient
    # has ipi and zeta parts, so products join nonempty monomials.  The
    # output is 564112 bytes, so its SHA-256 is pinned in place of a file.
    table = str(GOLDEN / "table_constants.json")
    algebra = str(GOLDEN / "algebra_sl2xsl2.json")
    code, out = run_cli(capsys, "eval", "--algebra", algebra, "--order", "4", "--table", table)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SL2XSL2_EVAL_DIGEST


def test_verify_transport_json_golden(capsys):
    # Every identity's normal forms and replayable traces, so a change in
    # the term order of an expression (4.4 and the 5.1 claims compose
    # sums) changes the trace indices and fails here.
    code, out = run_cli(capsys, "verify", "transport", "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "verify_transport.json").read_bytes()


def test_verify_transport_constants_table_json_golden(capsys):
    # The 5.1 traces of a multi-term table whose words carry ipi and a
    # user constant: each monomial's claim and the assembled entry's.
    table = str(GOLDEN / "table_constants.json")
    code, out = run_cli(capsys, "verify", "transport", "--table", table, "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "verify_transport_constants.json").read_bytes()


def test_verify_sigma_h_def_order_8_json_golden(capsys):
    # The braiding relation to h^8: each series coefficient is a sum of
    # products of normal forms, rewritten once.
    argv = ["verify", "transport", "--identity", "sigma_h_def", "--order", "8", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "verify_sigma_h_def_o8.json").read_bytes()


# The golden transport commands, each with its golden file.
TRANSPORT_GOLDENS = [
    (["verify", "transport", "--format", "json"], "verify_transport.json"),
    (
        ["verify", "transport", "--table", str(GOLDEN / "table_constants.json"), "--format", "json"],
        "verify_transport_constants.json",
    ),
    (
        ["verify", "transport", "--identity", "sigma_h_def", "--order", "8", "--format", "json"],
        "verify_sigma_h_def_o8.json",
    ),
]


def test_transport_goldens_twice_in_one_process(capsys):
    # From an empty term cache the first calls rewrite and keep their
    # terms, and the later ones, interleaved, are served from them; every
    # output is its golden file's bytes.  Each call starts with no kept
    # report, so that it builds its reports from the terms.
    empty_term_cache()
    for i in (0, 1, 2, 1, 0, 2):
        argv, golden = TRANSPORT_GOLDENS[i]
        empty_report_cache()
        code, out = run_cli(capsys, *argv)
        assert (code, out.encode("utf-8")) == (0, (GOLDEN / golden).read_bytes()), argv


# Commands whose every report the process keeps after one call.
KEPT_REPORT_COMMANDS = [
    ["verify", "all"],
    ["verify", "rmatrix"],
    ["omega", "--algebra", "sl3", "--format", "json"],
    ["verify", "transport", "--table", str(GOLDEN / "table_constants.json")],
]


@pytest.mark.parametrize(
    "argv", KEPT_REPORT_COMMANDS, ids=["verify-all", "verify-rmatrix", "omega-sl3-json", "verify-transport-table"]
)
def test_a_repeated_report_command_reads_the_reports_it_kept(capsys, monkeypatch, argv):
    # The second call prints the first one's bytes and exit code, and
    # builds no report: it multiplies no matrix and normalizes no term.
    from qjacobi.matrices import SparseMatrix

    first = run_cli(capsys, *argv)
    assert first[0] == 0
    work = []
    for owner, name in ((SparseMatrix, "__mul__"), (transport, "_normalize_raw_terms")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            work.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    assert run_cli(capsys, *argv) == first
    assert work == []


def test_a_lowered_then_restored_step_budget_fails_then_passes(capsys, monkeypatch):
    # The budget keys each kept report: a lowered one fails as a fresh
    # process does (the next test compares it with one), and the restored
    # one prints the golden bytes again.
    argv = ["verify", "transport", "--format", "json"]
    golden = (GOLDEN / "verify_transport.json").read_text()
    assert run_cli(capsys, *argv) == (0, golden)
    monkeypatch.setattr(transport, "STEP_BUDGET", 12)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: rewrite step budget exhausted\n")
    monkeypatch.undo()
    assert run_cli(capsys, *argv) == (0, golden)


def test_a_lowered_step_budget_fails_a_warm_call_as_a_fresh_process(capsys, monkeypatch):
    # A budget of 12 steps lets the sides of 4.3a, 4.3b and 4.4 through
    # and stops the 13-step sides of 4.5, whose terms the first call kept.
    argv = ["verify", "transport", "--format", "json"]
    assert run_cli(capsys, *argv) == (0, (GOLDEN / "verify_transport.json").read_text())
    monkeypatch.setattr(transport, "STEP_BUDGET", 12)
    code = cli.main(argv)
    captured = capsys.readouterr()
    script = f"import sys; from qjacobi import cli, transport; transport.STEP_BUDGET = 12; sys.exit(cli.main({argv!r}))"
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert (code, captured.err) == (2, "error: rewrite step budget exhausted\n")


@pytest.mark.parametrize("entries", [{}, {"2": "0"}], ids=["no-entries", "zero-entry"])
def test_a_table_with_no_nonzero_entries_passes_the_series_claims_vacuously(capsys, tmp_path, entries):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"entries": entries}))
    table = str(path)
    code, out = run_cli(capsys, "verify", "transport", "--table", table)
    assert code == 0
    assert "PASS transport:5.1a\nPASS transport:5.1b\n" in out and out.endswith("OK\n")
    code, out = run_cli(capsys, "verify", "transport", "--identity", "5.1b", "--table", table, "--format", "json")
    assert code == 0
    assert json.loads(out)["reports"]["transport:5.1b"] == {
        "classical_rules_used": [],
        "details": [],
        "discharge_steps": [],
        "identity": "5.1b",
        "lhs_normal_form": "0",
        "notes": ["no degree to check: the table has no nonzero entries"],
        "passed": True,
        "rhs_normal_form": "0",
        "trace": {"lhs": [], "rhs": []},
    }
    code, out = run_cli(capsys, "verify", "all", "--table", table, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert {"classical", "structure", "rmatrix", "transport:5.1a", "transport:5.1b"} <= doc["reports"].keys()


@pytest.mark.parametrize(
    "algebra, golden",
    [("sl3", "omega_sl3.json"), (str(GOLDEN / "algebra_sl2xsl2.json"), "omega_sl2xsl2.json")],
    ids=["sl3", "sl2xsl2-file"],
)
def test_omega_json_golden(capsys, algebra, golden):
    # The minimal polynomial, the kernel dimensions by rank and, for the
    # algebra file, which is not a preset, the inverse Killing form behind
    # the Casimir tensor, computed anew on each call.
    code, out = run_cli(capsys, "omega", "--algebra", algebra, "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_psi_matches_spec_base_case(capsys):
    code, out = run_cli(capsys, "psi", "--order", "2", "--golden")
    assert code == 0
    assert out == "psi:\nh^0: 1\nh^1: 0\npsi_inv:\nh^0: 1\nh^1: 0\n"


def test_verify_classical_sl2(capsys):
    code, out = run_cli(capsys, "verify", "classical", "--algebra", "sl2")
    assert code == 0
    assert "PASS classical:3.1" in out
    assert out.rstrip().endswith("OK")


def test_verify_all_json(capsys):
    code, out = run_cli(capsys, "verify", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert "transport:4.5" in doc["reports"]
    report = doc["reports"]["transport:4.5"]
    assert report["lhs_normal_form"] == "M^-1.X(sig12.sig23.sig12).N"


def test_verify_transport_single_identity(capsys):
    code, out = run_cli(capsys, "verify", "transport", "--identity", "4.5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"]["transport:4.5"]["passed"] is True
    assert doc["reports"]["transport:4.5"]["trace"]["lhs"]


def test_verify_abelian_algebra_exits_3(capsys, tmp_path):
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({"dim": 2, "basis": ["x", "y"], "brackets": []}))
    code = cli.main(["verify", "classical", "--algebra", str(path)])
    capsys.readouterr()
    assert code == 3


def test_verify_failure_exits_1(capsys, monkeypatch):
    from qjacobi.liealg import Report, CheckResult

    def fake_verify(ops):
        return Report(ops.alg.name, [CheckResult("3.1", False, "forced failure")])

    monkeypatch.setattr(cli, "verify_classical", fake_verify)
    code, out = run_cli(capsys, "verify", "classical")
    assert code == 1
    assert "FAIL classical:3.1" in out
    assert out.rstrip().endswith("FAILED")


@pytest.mark.parametrize("command", [("psi", "--order", "4"), ("eval", "--algebra", "sl2", "--order", "3")])
@pytest.mark.parametrize(
    "error",
    ["qjacobi.psiengine.EngineError", "qjacobi.ncalg.ScalarError", "qjacobi.matrices.MatrixError"],
)
def test_internal_invariant_failure_exits_4(capsys, monkeypatch, command, error):
    import importlib

    module, _, name = error.rpartition(".")
    exc_type = getattr(importlib.import_module(module), name)

    def broken(table, order, *letters):
        raise exc_type("pair is not mutually inverse at the stated order")

    # psi computes the free pair, eval the pair in the algebra.
    monkeypatch.setattr(cli, "compute_psi_in" if command[0] == "eval" else "compute_psi", broken)
    code = cli.main(list(command))
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "mutually inverse" in lines[0]


def test_eval_identity_at_order_two(capsys):
    code, out = run_cli(capsys, "eval", "--algebra", "sl2", "--order", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    h0 = doc["coeffs"][0]
    assert h0["rows"] == h0["cols"] == 27
    assert h0["data"][0][0] == "1" and h0["data"][1][0] == "0"


def test_eval_order_three_matches_commutator(capsys):
    from qjacobi.liealg import build_algebra, build_tensor_ops
    from qjacobi.matrices import SparseMatrix, kron
    from qjacobi.ncalg import Scalar, parse_scalar

    code, out = run_cli(capsys, "eval", "--algebra", "sl2", "--order", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    ops = build_tensor_ops(build_algebra("sl2"))
    eye = SparseMatrix.identity(3)
    o12, o23 = kron(ops.Omega, eye), kron(eye, ops.Omega)
    expected = (o12 * o23 - o23 * o12).scale(
        Scalar.rational(-1, 24)
    )
    h2 = doc["coeffs"][2]
    for i in range(27):
        for j in range(27):
            assert parse_scalar(h2["data"][i][j]) == expected.entry(i, j)


def test_eval_bad_table_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = cli.main(["eval", "--algebra", "sl2", "--order", "2", "--table", str(path)])
    capsys.readouterr()
    assert code == 3


def test_eval_reads_the_algebra_before_computing_psi(capsys, monkeypatch, tmp_path):
    # A bad algebra file exits 3 without any work on Ψ; a bad table is
    # still read first, so its error wins.
    def forbidden(table, order, o12, o23):
        raise AssertionError("compute_psi_in ran before the algebra was read")

    monkeypatch.setattr(cli, "compute_psi_in", forbidden)
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps({"dim": 0, "basis": [], "brackets": []}))
    code = cli.main(["eval", "--order", "12", "--algebra", str(algebra)])
    err = capsys.readouterr().err
    assert code == 3 and err == "error: dim must be positive\n"
    table = tmp_path / "bad.json"
    table.write_text("{not json")
    code = cli.main(["eval", "--order", "12", "--algebra", str(algebra), "--table", str(table)])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("error: cannot parse table: ")


def test_table_validate_builtin_file(capsys):
    from qjacobi.deformation import builtin_table_text

    path = Path("src/qjacobi/data/builtin_table.json")
    code, out = run_cli(capsys, "table", "validate", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True and doc["degrees"] == [2]
    assert path.read_text() == builtin_table_text()


def test_table_validate_rejects_bad_file(capsys, tmp_path):
    path = tmp_path / "bad_table.json"
    path.write_text(json.dumps({"entries": {"3": "A.B"}}))
    code = cli.main(["table", "validate", str(path)])
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"entries": []}, "'entries' object"),
        ({"entries": {"2": "1/24*A.B - 1/24*B.A"}, "provenance": []}, "'provenance' must be an object"),
        ({"entries": {"2": "1/24*A.B - 1/24*B.A"}, "constants": [3]}, "list of constant names"),
        ({"entries": {"2": "1/24*A.B - 1/24*B.A"}, "constants": ["A"]}, "shadow letters"),
        ({"entries": {"0": "1"}}, "degree 0 below the minimum degree 2"),
        ({"entries": {"1": "A"}}, "degree 1 below the minimum degree 2"),
        ({"entries": {"2": ""}}, "empty expression"),
        ({"entries": {"2": "2**A.B"}}, "malformed term"),
        ({"entries": {"2": "A.B*ipi"}}, "word must be the last factor"),
    ],
    ids=[
        "entries-list",
        "provenance-list",
        "constant-number",
        "constant-shadows-letter",
        "degree-0",
        "degree-1",
        "empty-entry",
        "double-star",
        "word-before-constant",
    ],
)
def test_table_validate_rejects_malformed_document(tmp_path, doc, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    cmd = [sys.executable, "-m", "qjacobi", "table", "validate", str(path)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.parametrize(
    "command", [["psi", "--order", "3", "--table"], ["table", "validate"]], ids=["psi", "table-validate"]
)
@pytest.mark.parametrize(
    "text, message",
    [
        ('{"entries": {"2": "1/24*A.B - 1/24*B.A", "02": "A.B"}}', "bad degree key '02'"),
        ('{"entries": {" 2": "1/24*A.B - 1/24*B.A"}}', "bad degree key ' 2'"),
        ('{"entries": {"+2": "1/24*A.B - 1/24*B.A"}}', "bad degree key '+2'"),
        ('{"entries": {"2": "1/24*A.B - 1/24*B.A", "2": "A.B"}}', "duplicate key '2'"),
    ],
    ids=["leading-zero", "space", "plus-sign", "duplicate"],
)
def test_table_degree_key_must_be_canonical(tmp_path, command, text, message):
    # Each of these once loaded: int() reads " 2" and "+2" as degree 2,
    # and of two keys naming degree 2 the later replaced the earlier.
    path = tmp_path / "table.json"
    path.write_text(text)
    cmd = [sys.executable, "-m", "qjacobi", *command, str(path)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.parametrize(
    "command", [["psi", "--order", "3", "--table"], ["table", "validate"]], ids=["psi", "table-validate"]
)
@pytest.mark.parametrize(
    "doc",
    [
        {"entries": {"2": "\u0661/\u0662\u0664*A.B - 1/24*B.A"}},
        {"entries": {"2": "ipi^0*A.B - ipi^0*B.A"}},
        {"constants": ["zeta"], "entries": {"2": "1/24*zeta^0*A.B - 1/24*B.A"}},
    ],
    ids=["arabic-indic-digits", "ipi-zero-exponent", "zeta-zero-exponent"],
)
def test_table_coefficients_use_ascii_digits_and_positive_exponents(tmp_path, command, doc):
    # Before, the first loaded as 1/24*A.B - 1/24*B.A and exited 0, and a
    # zero exponent exited 4 as an internal invariant failure.
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    cmd = [sys.executable, "-m", "qjacobi", *command, str(path)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def _capped(*argv):
    """Run the CLI in a child whose address space is capped at 1.5 GB
    where the platform allows it, so that a request that would exhaust
    memory fails in the child instead of on the host."""
    try:
        import resource
    except ImportError:
        resource = None

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))

    cmd = [sys.executable, "-m", "qjacobi", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, preexec_fn=cap if resource else None)


@pytest.mark.parametrize(
    "command", [["psi", "--order", "3", "--table"], ["table", "validate"]], ids=["psi", "table-validate"]
)
def test_invalid_table_with_a_huge_degree_exits_3(tmp_path, command):
    # The coverage report once listed every degree below the largest key
    # before the homogeneity problem was reported: a list of 10^12 ints,
    # a MemoryError traceback and exit 1.
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": {"2": "1/24*A.B - 1/24*B.A", "999999999999": "A"}}))
    result = _capped(*command, str(path))
    assert result.returncode == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "degree 999999999999 entry is not homogeneous of word length 999999999999" in lines[0]


def _unlimited_digits(compute):
    """``compute()`` with the interpreter's int/str digit limit lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return compute()
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_coefficients_beyond_the_digit_limit(capsys, tmp_path):
    # Two 3,000-digit coefficients give 6,017-digit numerators at order 5,
    # past the interpreter's default limit of 4,300 digits: psi and eval
    # once exited 2 with "Exceeds the limit".
    from qjacobi.deformation import load_table
    from qjacobi.liealg import algebra_ops, eval_series
    from qjacobi.psiengine import compute_psi

    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": {"2": f"{'7' * 3000}*A.B - 1/{'3' * 3000}*B.A"}}))

    def expected():
        pair = compute_psi(load_table(str(path)), 5)
        psi_text = "\n".join(["psi:", pair.psi.to_text(), "psi_inv:", pair.psi_inv.to_text()]) + "\n"
        return psi_text, eval_series(pair.psi, algebra_ops("sl2")).to_text() + "\n"

    psi_text, eval_text = _unlimited_digits(expected)
    assert max(len(n) for n in re.findall(r"\d+", psi_text)) > 6000
    limit = sys.get_int_max_str_digits()
    assert run_cli(capsys, "psi", "--order", "5", "--table", str(path)) == (0, psi_text)
    assert run_cli(capsys, "eval", "--algebra", "sl2", "--order", "5", "--table", str(path)) == (0, eval_text)
    assert sys.get_int_max_str_digits() == limit


_SL2_BRACKETS = [[1, 0, [[0, "2"]]], [1, 2, [[2, "-2"]]], [0, 2, [[1, "1"]]]]


def _sl2_doc(*brackets):
    return {"dim": 3, "basis": ["e", "h", "f"], "brackets": list(brackets)}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize("spell", [int, str], ids=["json-integer", "string"])
def test_algebra_coefficients_beyond_the_digit_limit(capsys, tmp_path, spell):
    # sl2 with every structure constant times a 5,001-digit N: the basis
    # N*e, N*h, N*f, whose Omega is that of sl2.  Once exit 2 for a JSON
    # integer and exit 3 for a string coefficient.
    def document():
        n = int("9" + "8" * 5000)
        return json.dumps(_sl2_doc(*[[i, j, [[k, spell(int(c) * n)]]] for i, j, ((k, c),) in _SL2_BRACKETS]))

    path = tmp_path / "algebra.json"
    path.write_text(_unlimited_digits(document))
    code, out = run_cli(capsys, "omega", "--algebra", str(path))
    assert code == 0
    _, reference = run_cli(capsys, "omega", "--algebra", "sl2")
    assert out.splitlines()[1:] == reference.splitlines()[1:]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_a_library_call_refuses_an_algebra_integer_past_the_digit_limit_as_an_algebra_error(tmp_path):
    # main lifts the interpreter's limit and accepts such a file (the test
    # above); a library call keeps the limit and once raised a bare
    # ValueError from int.
    from qjacobi.liealg import AlgebraError, algebra_ops, build_algebra

    path = tmp_path / "algebra.json"
    doc = json.dumps(_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[1, "N"]]]))
    path.write_text(doc.replace('"N"', "1" + "0" * 5000))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for call in (build_algebra, algebra_ops):
            with pytest.raises(AlgebraError, match=re.escape("limit (4300 digits)")):
                call(str(path))
        # A malformed entry is named by its place in the list; echoing it
        # once converted its 5,001-digit integer and raised a bare ValueError.
        with pytest.raises(AlgebraError, match=re.escape("malformed brackets[0]: each target is a [k, c] pair")):
            build_algebra(_sl2_doc([10 ** 5000, 0, 5], *_SL2_BRACKETS[1:]))
    finally:
        sys.set_int_max_str_digits(limit)


def test_an_algebra_index_too_long_to_echo_is_named_by_its_size(capsys, tmp_path):
    # main reads a 100,000-digit index with the digit limit lifted, and
    # once echoed it whole in a 100,045-byte error line.
    huge = "1" * 100000
    bits = _unlimited_digits(lambda: int(huge).bit_length())
    path = tmp_path / "algebra.json"
    cases = [
        (_sl2_doc(["I", 0, [[0, "2"]]], *_SL2_BRACKETS[1:]), f"bracket (<index of {bits} bits>, 0) outside the basis range"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [["I", "1"]]]), f"bracket (0, 2) targets unknown basis index <index of {bits} bits>"),
        (_sl2_doc(["I", 0, [[0, "2"]]], ["I", 0, [[0, "2"]]]), f"bracket (<index of {bits} bits>, 0) is stated twice"),
        # An index of ordinary length keeps its digits.
        (_sl2_doc([18446744073709551615, 0, [[0, "2"]]]), "bracket (18446744073709551615, 0) outside the basis range"),
    ]
    for doc, message in cases:
        path.write_text(json.dumps(doc).replace('"I"', huge))
        code = cli.main(["omega", "--algebra", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


_SL2_HEAD = '{"dim": 3, "basis": ["e", "h", "f"], "brackets": '


@pytest.mark.parametrize(
    "command, document, message",
    [
        (["omega", "--algebra"], _SL2_HEAD + "[[N, 0, 5]]}", "malformed brackets[0]: each target is a [k, c] pair"),
        (["omega", "--algebra"], _SL2_HEAD + '[["N", 0, [[0, "2"]]]]}',
         "malformed brackets[0]: basis index <index of 100000 characters> is not an integer"),
        (["omega", "--algebra"], _SL2_HEAD + '[[1, 0, [[0, "Nx"]]]]}',
         "malformed brackets[0]: bad structure coefficient <coefficient of 100001 characters>: write an integer or p/q"),
        (["omega", "--algebra"], '{"dim": 2, "basis": ["N", "N"], "brackets": []}',
         "basis label <label of 100000 characters> is repeated"),
        (["table", "validate"], '{"entries": {"2": "Nx*A.B"}}', "degree 2: unknown factor <factor of 100001 characters>"),
        (["omega", "--algebra"], '{"dim": 3, "N": 1, "N": 2}', "duplicate key <key of 100000 characters> in algebra file"),
        (["table", "validate"], '{"entries": {"N": "A.B", "N": "B.A"}}',
         "duplicate key <key of 100000 characters> in table document"),
        (["table", "validate"], '{"entries": {"Nx": "A.B"}}',
         "bad degree key <key of 100001 characters>: degrees are written as plain decimal integers"),
    ],
    ids=["algebra-entry", "algebra-index", "algebra-coefficient", "algebra-label", "table-term",
         "algebra-duplicate-key", "table-duplicate-key", "table-degree-key"],
)
def test_an_input_too_long_to_echo_is_named_by_its_size(tmp_path, command, document, message):
    # N is a 100,000-digit numeral.  Each error line once echoed it whole:
    # 100,070 bytes for the algebra entry, 100,036 for the table term and
    # about 100,040 for a repeated key; the key "Nx", no numeral, was
    # called a "numeral of 100001 digits".
    path = tmp_path / "input.json"
    path.write_text(document.replace("N", "1" * 100000))
    result = subprocess.run([sys.executable, "-m", "qjacobi", *command, str(path)], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (3, "", f"error: {message}\n")
    assert len(result.stderr.encode()) < 200


@pytest.mark.parametrize("command", [["omega"], ["eval", "--order", "3"]], ids=["omega", "eval"])
@pytest.mark.parametrize(
    "doc, field_name",
    [
        ({"dim": 2, "basis": ["x", "y"], "brackets": 5}, "brackets"),
        ({"dim": 2, "basis": ["x", "y"], "brackets": None}, "brackets"),
        ({"dim": 2, "basis": ["x", "y"], "brackets": True}, "brackets"),
        ({"dim": 0, "basis": [], "brackets": []}, "dim"),
        ({"dim": 3.9, "basis": "ehf", "brackets": _SL2_BRACKETS}, "dim"),
        ({"dim": "3", "basis": ["e", "h", "f"], "brackets": _SL2_BRACKETS}, "dim"),
        ({"dim": True, "basis": ["e"], "brackets": _SL2_BRACKETS}, "dim"),
        ({"dim": 3, "basis": "ehf", "brackets": _SL2_BRACKETS}, "basis"),
        ({"dim": 3, "basis": ["e", "h", 3], "brackets": _SL2_BRACKETS}, "basis"),
        ({"dim": 3, "basis": ["e", "e", "f"], "brackets": _SL2_BRACKETS}, "basis label 'e' is repeated"),
        (_sl2_doc(["1", 0, [[0, "2"]]], *_SL2_BRACKETS[1:]), "bracket"),
        (_sl2_doc([1.5, 0, [[0, "2"]]], *_SL2_BRACKETS[1:]), "bracket"),
        (_sl2_doc([1, 0, [[0.5, "2"]]], *_SL2_BRACKETS[1:]), "bracket"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[True, "1"]]]), "bracket"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[1, True]]]), "bracket"),
        (_sl2_doc([1, 0, [[0, " 2.0 "]]], *_SL2_BRACKETS[1:]), "coefficient ' 2.0 '"),
        (_sl2_doc([1, 0, [[0, "2e0"]]], *_SL2_BRACKETS[1:]), "coefficient '2e0'"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[1, "1_0"]]]), "coefficient '1_0'"),
        (_sl2_doc(*_SL2_BRACKETS, {"0": 1}), "bracket"),
        (_sl2_doc([1, 0, [[0, "2"]], "extra"], *_SL2_BRACKETS[1:]), "bracket"),
        (_sl2_doc(*_SL2_BRACKETS, [0, 2, [[1, "5"]]]), "bracket (0, 2) is stated twice"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[1, "7"], [1, "-6"]]]), "target index twice"),
        ([], "an algebra document is a JSON object"),
        ("sl2", "an algebra document is a JSON object"),
        ({"dim": 3}, "no 'basis' field"),
        ({"dim": 3, "basis": ["e", "h", "f"]}, "no 'brackets' field"),
        ({"basis": ["e", "h", "f"], "brackets": _SL2_BRACKETS}, "no 'dim' field"),
        (_sl2_doc([1, 0, [[0, "1", 3]]], *_SL2_BRACKETS[1:]), "each target is a [k, c] pair"),
        (_sl2_doc([1, 0, [5]], *_SL2_BRACKETS[1:]), "each target is a [k, c] pair"),
        (_sl2_doc([1, 0, 5], *_SL2_BRACKETS[1:]), "each target is a [k, c] pair"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[3, "1"]]]), "targets unknown basis index 3"),
    ],
    ids=[
        "brackets-number",
        "brackets-null",
        "brackets-bool",
        "dim-zero",
        "dim-float",
        "dim-string",
        "dim-bool",
        "basis-string",
        "basis-number-label",
        "basis-repeated-label",
        "bracket-index-string",
        "bracket-index-float",
        "bracket-target-float",
        "bracket-target-bool",
        "bracket-coefficient-bool",
        "coefficient-decimal-point",
        "coefficient-exponent",
        "coefficient-underscore",
        "bracket-object",
        "bracket-extra-item",
        "bracket-repeated-pair",
        "bracket-repeated-target",
        "document-list",
        "document-string",
        "no-basis",
        "no-brackets",
        "no-dim",
        "bracket-target-triple",
        "bracket-target-number",
        "bracket-targets-number",
        "bracket-target-unknown-index",
    ],
)
def test_malformed_algebra_file_exits_3(tmp_path, command, doc, field_name):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    cmd = [sys.executable, "-m", "qjacobi", *command, "--algebra", str(path)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert field_name in result.stderr


def test_a_degree_key_past_80_characters_is_named_by_its_size(tmp_path):
    # Below the 4,300-digit limit a bad degree key was echoed whole: this
    # one gave a 4,072-byte error line.
    path = tmp_path / "table.json"
    path.write_text('{"entries": {"%s": "A.B"}}' % ("y" * 4000))
    cmd = [sys.executable, "-m", "qjacobi", "table", "validate", str(path)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    message = "bad degree key <key of 4000 characters>: degrees are written as plain decimal integers"
    assert (result.returncode, result.stdout, result.stderr) == (3, "", f"error: {message}\n")
    assert len(result.stderr.encode()) < 200


# The longest degree key the 4,300-digit limit converts, and its size.
_NINES = "9" * 4300
_NINES_DEGREE = f"<degree of {(10 ** 4300 - 1).bit_length()} bits>"


@pytest.mark.parametrize(
    "entries, message",
    [
        ({_NINES: "A.B"}, f"degree {_NINES_DEGREE} entry is not homogeneous of word length {_NINES_DEGREE}: A.B"),
        ({"-" + _NINES: "A.B"}, f"degree {_NINES_DEGREE} below the minimum degree 2; "
                                f"degree {_NINES_DEGREE} entry is not homogeneous of word length {_NINES_DEGREE}: A.B"),
        ({_NINES: 5}, f"degree {_NINES_DEGREE}: entry must be canonical polynomial text"),
        ({_NINES: "A.Q"}, f"degree {_NINES_DEGREE}: unknown factor 'A.Q'"),
        ({"2": "A.B + " + ".".join("A" * 60)},
         "degree 2 entry is not homogeneous of word length 2: <entry of 125 characters>"),
    ],
    ids=["degree", "negative-degree", "degree-not-text", "degree-bad-entry", "long-entry"],
)
def test_a_long_degree_or_entry_in_a_table_error_is_named_by_its_size(tmp_path, entries, message):
    # A degree under the digit limit was printed whole, once per mention:
    # the first key gave an 8,661-byte error line and its negative 13,000.
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": entries}))
    cmd = [sys.executable, "-m", "qjacobi", "table", "validate", str(path)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (3, "", f"error: {message}\n")
    assert len(result.stderr.encode()) < 200


@pytest.mark.parametrize("command", [["omega"], ["eval", "--order", "3"]], ids=["omega", "eval"])
def test_algebra_file_with_a_repeated_key_exits_3(tmp_path, command):
    # json.load alone keeps the later "dim", and this file once loaded as sl2.
    path = tmp_path / "algebra.json"
    brackets = json.dumps(_SL2_BRACKETS)
    path.write_text(f'{{"dim": 2, "dim": 3, "basis": ["e", "h", "f"], "brackets": {brackets}}}')
    cmd = [sys.executable, "-m", "qjacobi", *command, "--algebra", str(path)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 3
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "duplicate key 'dim'" in lines[0]


@pytest.mark.parametrize(
    "command",
    [["table", "validate"], ["psi", "--order", "3", "--table"], ["omega", "--algebra"],
     ["eval", "--order", "3", "--algebra"]],
    ids=["table-validate", "psi", "omega", "eval"],
)
@pytest.mark.parametrize(
    "data", [b"\xff\xfe{\x00}\x00", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"]
)
def test_unreadable_document_exits_3(capsys, tmp_path, command, data):
    # The first once exited 2 with the codec's message, the second 1
    # with a RecursionError traceback.
    path = tmp_path / "document.json"
    path.write_bytes(data)
    code = cli.main([*command, str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot parse ")


@pytest.mark.parametrize(
    "argv, rebuilt",
    [
        (["omega", "--algebra", "sl2"], False),
        (["eval", "--algebra", "sl3", "--order", "2"], False),
        (["verify", "classical"], False),
        (["verify", "rmatrix", "--order", "2"], False),
        (["omega", "--algebra", "FILE"], True),
    ],
    ids=["omega-sl2", "eval-sl3", "verify-classical", "verify-rmatrix", "omega-file"],
)
def test_bracket_maps_built_once_per_algebra_command(capsys, monkeypatch, tmp_path, argv, rebuilt):
    # Validation builds the bracket maps and the Killing form, and the
    # tensor operators reuse both.  A preset is built once per process;
    # an algebra file is read and built again on every call.
    from qjacobi import liealg

    liealg._preset_ops.cache_clear()
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(_sl2_doc(*_SL2_BRACKETS)))
    argv = [str(path) if arg == "FILE" else arg for arg in argv]
    calls = []
    original_maps = liealg._bracket_maps
    original_killing = liealg.LieAlgebraData.killing

    def counted_maps(alg):
        calls.append("maps")
        return original_maps(alg)

    def counted_killing(alg):
        calls.append("killing")
        return original_killing(alg)

    monkeypatch.setattr(liealg, "_bracket_maps", counted_maps)
    monkeypatch.setattr(liealg.LieAlgebraData, "killing", counted_killing)
    code, first = run_cli(capsys, *argv)
    assert code == 0
    assert sorted(calls) == ["killing", "maps"]
    calls.clear()
    code, second = run_cli(capsys, *argv)
    assert code == 0
    assert second == first
    assert sorted(calls) == (["killing", "maps"] if rebuilt else [])


def test_shared_preset_operators_survive_every_command_kind(capsys):
    # Every command kind runs on the operators one process shares; none
    # may alter them.
    import dataclasses

    from qjacobi.liealg import algebra_ops, build_algebra, build_tensor_ops

    shared = {name: algebra_ops(name) for name in ("sl2", "sl3")}
    commands = [
        ["psi", "--order", "3"],
        ["psi", "--order", "3", "--format", "json"],
        ["table", "validate", "src/qjacobi/data/builtin_table.json"],
        ["verify", "transport", "--identity", "4.5"],
    ]
    for name in shared:
        commands += [
            ["eval", "--algebra", name, "--order", "3"],
            ["eval", "--algebra", name, "--order", "2", "--format", "json"],
            ["omega", "--algebra", name],
            ["omega", "--algebra", name, "--format", "json"],
            ["verify", "classical", "--algebra", name],
            ["verify", "rmatrix", "--algebra", name, "--order", "3"],
            ["verify", "all", "--algebra", name, "--order", "2", "--format", "json"],
        ]
    for argv in commands:
        assert run_cli(capsys, *argv)[0] == 0, argv
    for name, ops in shared.items():
        assert algebra_ops(name) is ops
        fresh = build_tensor_ops(build_algebra(name))
        for field in dataclasses.fields(ops):
            assert getattr(ops, field.name) == getattr(fresh, field.name), (name, field.name)


def test_algebra_file_is_read_on_every_call(capsys, tmp_path):
    from qjacobi.liealg import algebra_to_json, build_algebra

    path = tmp_path / "algebra.json"

    def omega_from_file(doc):
        path.write_text(json.dumps(doc))
        code, out = run_cli(capsys, "omega", "--algebra", str(path))
        assert code == 0
        return out

    for name in ("sl2", "sl3", "sl2"):
        _, preset = run_cli(capsys, "omega", "--algebra", name)
        expected = preset.replace(f"algebra: {name}\n", f"algebra: {path}\n", 1)
        assert omega_from_file(algebra_to_json(build_algebra(name))) == expected
    path.write_text(json.dumps({"dim": 2, "basis": ["x", "y"], "brackets": []}))
    code = cli.main(["omega", "--algebra", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: Killing form is degenerate: the algebra is not semisimple\n"


def test_a_rewritten_algebra_file_is_verified_anew(capsys, tmp_path):
    # A file algebra is built on every call and keeps no report past it:
    # each call verifies the file as it is then, as omega reads it in the
    # test above.
    from qjacobi.liealg import algebra_to_json, build_algebra

    path = tmp_path / "algebra.json"
    argv = ["verify", "classical", "--format", "json"]
    for name in ("sl2", "sl3", "sl2"):
        _, preset = run_cli(capsys, *argv, "--algebra", name)
        path.write_text(json.dumps(algebra_to_json(build_algebra(name))))
        code, out = run_cli(capsys, *argv, "--algebra", str(path))
        assert code == 0
        assert out == preset.replace(f'"algebra": "{name}"', f'"algebra": "{path}"')
    path.write_text(json.dumps({"dim": 2, "basis": ["x", "y"], "brackets": []}))
    code = cli.main([*argv, "--algebra", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: Killing form is degenerate: the algebra is not semisimple\n"


def test_table_file_is_read_on_every_call(capsys, tmp_path):
    # The engine is kept by table content, not by path: a file rewritten
    # between calls gets the pair of its new entries.
    from qjacobi.deformation import load_table

    path = tmp_path / "table.json"
    docs = [{"entries": {"2": entry, "4": "A.B.B.A"}} for entry in ("A.B - B.A", "A.B - 2*B.A", "A.B - B.A")]
    expected = []
    for doc in docs:
        path.write_text(json.dumps(doc))
        pair = fresh_psi(load_table(str(path)), 6)
        expected.append("\n".join(["psi:", pair.psi.to_text(), "psi_inv:", pair.psi_inv.to_text()]) + "\n")
    empty_psi_cache()
    for doc, text in zip(docs, expected):
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, "psi", "--order", "6", "--table", str(path)) == (0, text)
    path.write_text(json.dumps({"entries": {"2": "A.B.A"}}))
    code = cli.main(["psi", "--order", "6", "--table", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("error: degree 2 entry is not homogeneous")


def test_a_table_file_deleted_after_a_kept_load_exits_3(capsys, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"entries": {"2": "A.B - B.A"}}))
    argv = ["psi", "--order", "4", "--table", str(path)]
    assert run_cli(capsys, *argv)[0] == 0
    path.unlink()
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("error: cannot read table file: ")


@pytest.mark.parametrize(
    "command", [["psi", "--order", "4", "--table"], ["table", "validate"]], ids=["psi", "table-validate"]
)
def test_a_bad_table_file_is_parsed_and_refused_on_every_call(capsys, monkeypatch, tmp_path, command):
    calls = counted_table_parses(monkeypatch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entries": {"2": "A.B.A", "3": "A.B"}}))
    errors = []
    for _ in range(2):
        code = cli.main([*command, str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: degree 2 entry is not homogeneous") and errors[0].count("\n") == 1
    assert calls == [str(path)] * 2


def test_an_algebra_file_rewritten_between_evals_gives_the_new_algebras_bytes(capsys, tmp_path):
    # The engine is kept by the letters' content, not by the file's path.
    from qjacobi.liealg import algebra_to_json, build_algebra

    path, table = tmp_path / "algebra.json", str(GOLDEN / "table_constants.json")
    argv = ["eval", "--algebra", str(path), "--order", "4", "--table", table]
    path.write_text(json.dumps(algebra_to_json(build_algebra("sl2"))))
    assert run_cli(capsys, *argv) == (0, (GOLDEN / "eval_sl2_o4_constants.txt").read_text())
    path.write_text((GOLDEN / "algebra_sl2xsl2.json").read_text())
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SL2XSL2_EVAL_DIGEST


def test_psi_and_eval_on_each_algebra_keep_separate_engines(capsys):
    from qjacobi import psiengine
    from qjacobi.liealg import algebra_ops

    empty_psi_cache()
    for argv in (["psi"], ["eval", "--algebra", "sl2"], ["eval", "--algebra", "sl3"]):
        code, _ = run_cli(capsys, *argv, "--order", "4")
        assert code == 0
    letters = [key[1:] for key in psiengine._engines]
    assert letters == [
        psiengine._FREE_LETTERS,
        (algebra_ops("sl2").Omega12, algebra_ops("sl2").Omega23),
        (algebra_ops("sl3").Omega12, algebra_ops("sl3").Omega23),
    ]
    assert len({key[0] for key in psiengine._engines}) == 1


def test_a_pair_in_the_algebra_that_fails_its_check_exits_4_and_is_not_kept(capsys, monkeypatch):
    from qjacobi import psiengine

    argv = ["eval", "--algebra", "sl2", "--order", "6"]
    empty_psi_cache()
    expected = run_cli(capsys, *argv)
    empty_psi_cache()
    negate_psi_below_the_top(monkeypatch)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: internal invariant failed: pair is not mutually inverse at the stated order\n"
    assert psiengine._engines == {}
    monkeypatch.undo()
    assert run_cli(capsys, *argv) == expected


def test_in_process_calls_match_fresh_processes(capsys, monkeypatch):
    # One process runs every call on the same parser, preset operators and
    # Psi engines, usage errors included; each call must print and exit
    # exactly as a process of its own does.  From an empty cache, the psi
    # calls at orders 6, 4 and 8 extend a table's pair, read it back and
    # extend it again.  COLUMNS fixes argparse's usage width.
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()
    empty_psi_cache()
    table = str(GOLDEN / "table_constants.json")
    calls = [
        ["psi", "--order", "3"],
        ["psi", "--order", "6", "--table", table, "--format", "json"],
        ["psi", "--order", "6"],
        ["psi", "--order", "4", "--table", table],
        ["psi", "--order", "1"],
        ["psi", "--order", "4"],
        ["psi", "--order", "8", "--table", table, "--format", "json"],
        ["psi", "--order", "8"],
        ["omega", "--algebra", "sl2"],
        ["verify", "rmatrix", "--order", "0"],
        ["eval", "--algebra", "sl2", "--order", "3", "--format", "json"],
        ["verify", "classical", "--algebra", "sl3"],
        ["eval", "--algebra", "sl2", "--order", "2", "--table", "no-such-table.json"],
        ["verify", "classical", "--algebra", "sl4"],
        ["psi", "--order", "1"],
        ["omega", "--algebra", "sl2"],
        ["eval", "--algebra", "sl2", "--order", "3", "--format", "json"],
    ]
    fresh = {}
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        key = tuple(argv)
        if key not in fresh:
            result = subprocess.run([sys.executable, "-m", "qjacobi", *argv], capture_output=True, text=True)
            fresh[key] = (result.returncode, result.stdout, result.stderr)
        assert (code, captured.out, captured.err) == fresh[key], argv
    assert sorted({code for code, _, _ in fresh.values()}) == [0, 2, 3]


def test_kept_coefficients_print_from_their_cached_texts_as_fresh_ones(capsys):
    # The order 10 call renders and keeps the text of every coefficient
    # of the built-in pair; the order 6 call prints the same coefficients
    # again from those texts, and eval then runs in the same process.
    empty_psi_cache()
    calls = [
        ["psi", "--order", "10"],
        ["psi", "--order", "6", "--format", "json"],
        ["eval", "--algebra", "sl2", "--order", "4", "--format", "json"],
    ]
    outputs = [run_cli(capsys, *argv) for argv in calls]
    for argv, (code, out) in zip(calls[:2], outputs):
        fresh = subprocess.run([sys.executable, "-m", "qjacobi", *argv], capture_output=True, text=True, check=True)
        assert (code, out) == (0, fresh.stdout), argv
    assert outputs[2] == (0, (GOLDEN / "eval_sl2_o4.json").read_text())


def test_each_path_of_one_table_content_names_itself(capsys, tmp_path):
    # The two files and the built-in table share one engine, and the two
    # files' bytes are equal; each call still reports the table it was given.
    from qjacobi.deformation import builtin_table, dump_table

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text(dump_table(builtin_table()))
    docs = {}
    for source in ["builtin", *map(str, paths), "builtin"]:
        code, out = run_cli(capsys, "psi", "--order", "5", "--format", "json", "--table", source)
        assert code == 0
        docs[source] = json.loads(out)
        assert docs[source].pop("table") == source
    assert len(docs) == 3
    assert all(doc == docs["builtin"] for doc in docs.values())
    for path in paths + paths:
        code, out = run_cli(capsys, "table", "validate", str(path))
        assert code == 0 and json.loads(out)["source"] == str(path)


def test_omega_report(capsys):
    code, out = run_cli(capsys, "omega", "--algebra", "sl2")
    assert code == 0
    assert "trace: 0" in out
    assert "annihilating: (x + 1)*(x + 1/2)*(x - 1/2)" in out
    assert "kernel dimension 5" in out


def test_omega_json(capsys):
    code, out = run_cli(capsys, "omega", "--algebra", "sl2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["annihilates"] is True
    assert doc["matrix"]["rows"] == 9


def test_repeated_runs_are_byte_identical():
    cmd = [sys.executable, "-m", "qjacobi", "psi", "--order", "5", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    cmd = [sys.executable, "-m", "qjacobi", "verify", "all", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "psi.txt"
    code, out = run_cli(capsys, "psi", "--order", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "1/24*O12.O23" in target.read_text()


@pytest.mark.parametrize(
    "command",
    [
        ["psi", "--order", "4"],
        ["eval", "--algebra", "sl2", "--order", "2"],
        ["verify", "rmatrix", "--order", "2"],
        ["omega", "--algebra", "sl2"],
        ["table", "validate", "TABLE"],
    ],
    ids=["psi", "eval", "verify", "omega", "table-validate"],
)
def test_out_to_an_unwritable_path_exits_2(tmp_path, command):
    # Exit 1 means a verified identity failed; a failed write is not that.
    from qjacobi.deformation import builtin_table_text

    table = tmp_path / "table.json"
    table.write_text(builtin_table_text())
    command = [str(table) if arg == "TABLE" else arg for arg in command]
    target = tmp_path / "missing" / "out.txt"
    cmd = [sys.executable, "-m", "qjacobi", *command, "--out", str(target)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output: ")
    assert not target.parent.exists()


@pytest.mark.parametrize("where", ["extend", "validate"])
def test_a_matrix_error_exits_4_wherever_the_engine_raises_it(capsys, monkeypatch, where):
    # The same simulated defect of matrix arithmetic, raised in the
    # engine's pass or in the pair check's series product: the error's
    # class alone gives the exit code.
    from qjacobi import psiengine
    from qjacobi.matrices import MatrixError, SparseMatrix

    owner = psiengine._Engine if where == "extend" else psiengine.PsiPair
    method, dot, inside = getattr(owner, where), SparseMatrix.dot, []

    def failing_dot(self, pairs):
        if inside:
            raise MatrixError("simulated defect")
        return dot(self, pairs)

    def watched(*args):
        inside.append(where)
        try:
            return method(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(SparseMatrix, "dot", failing_dot)
    monkeypatch.setattr(owner, where, watched)
    empty_psi_cache()
    code = cli.main(["eval", "--algebra", "sl2", "--order", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (4, "", "error: internal invariant failed: simulated defect\n")
    assert psiengine._engines == {}


def test_a_budget_error_inside_a_series_product_keeps_its_message(capsys, monkeypatch):
    # sigma_h_def normalizes the coefficients of a product of transport
    # series, so the budget runs out inside that product's dot.
    empty_term_cache()
    empty_report_cache()
    monkeypatch.setattr(transport, "STEP_BUDGET", 5)
    code = cli.main(["verify", "transport", "--identity", "sigma_h_def", "--order", "8"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", "error: rewrite step budget exhausted\n")


_LONG = "1" + "0" * 99_999


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"entries": {"2": "1/24*A.B - 1/24*B.A", _LONG: "0"}}),
        '{"entries": {"2": "1/24*A.B - 1/24*B.A"}, "provenance": {"2": ' + _LONG + "}}",
        '{"entries": {"2": "1/24*A.B - 1/24*B.A"}, "note": [-' + _LONG + "]}",
    ],
    ids=["degree-key", "provenance-integer", "other-integer"],
)
def test_a_table_numeral_past_the_default_digit_limit_exits_3_as_in_a_library_call(capsys, tmp_path, text):
    # main lifts the interpreter's digit limit, so such a numeral was
    # once converted in time quadratic in its length and accepted, while
    # load_table raised a bare ValueError or accepted it too.
    from qjacobi.deformation import TableError, load_table, parse_table

    path = tmp_path / "table.json"
    path.write_text(text)
    limit = getattr(sys.int_info, "default_max_str_digits", 4300)
    message = f"numeral of 100000 digits, past the {limit}-digit limit"
    code = cli.main(["table", "validate", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith("error: ") and captured.err.endswith(f": {message}\n")
    for read in (lambda: load_table(str(path)), lambda: parse_table(text)):
        with pytest.raises(TableError) as err:
            read()
        assert f"error: {err.value}\n" == captured.err


def _library_refusals():
    """(id, call, exception class) for each library refusal no command
    reaches; the class alone decides the exit code a caller through
    ``main`` would get."""
    from qjacobi.deformation import AB_ALPHABET, builtin_table
    from qjacobi.hseries import HSeries, SeriesError, parse_series
    from qjacobi.matrices import MatrixError, SparseMatrix
    from qjacobi.ncalg import Alphabet, NCPoly, Scalar, ScalarError, WordError, substitute
    from qjacobi.transport import (
        ClassicalPoly,
        TransportError,
        classical_normalize,
        compose,
        gen,
        lift,
        morph_sum,
        series_degree_expressions,
    )

    a = NCPoly.letter(AB_ALPHABET, "A")
    wide = SparseMatrix.zeros(2, 3)
    return [
        ("compose-nothing", lambda: compose(), TransportError),
        ("compose-mistyped", lambda: compose(gen("T_h"), gen("T_h")), TransportError),
        ("sum-nothing", lambda: morph_sum(), TransportError),
        ("sum-mistyped", lambda: morph_sum((1, gen("T_h")), (1, gen("sigma_h"))), TransportError),
        ("lift-side", lambda: lift("sigma_h", "middle"), TransportError),
        ("lift-generator", lambda: lift("psi", "left"), TransportError),
        ("classical-word", lambda: ClassicalPoly.word(("T", "T")), TransportError),
        ("classical-budget", lambda: classical_normalize(ClassicalPoly.word(("T", "sig"))), TransportError),
        ("degree-expressions", lambda: series_degree_expressions("4.5", builtin_table(), 2), TransportError),
        ("matrix-entry", lambda: SparseMatrix(2, 2, [(2, 0, 1)]), MatrixError),
        ("matrix-identity", lambda: SparseMatrix.identity(0), MatrixError),
        ("matrix-ragged", lambda: SparseMatrix.from_rows([[1, 2], [3]]), MatrixError),
        ("matrix-trace", lambda: wide.trace(), MatrixError),
        ("matrix-one", lambda: wide.ring_one(), MatrixError),
        ("scalar-name", lambda: Scalar.constant("1x"), ScalarError),
        ("scalar-exponent", lambda: Scalar.constant("ipi", 0), ScalarError),
        ("scalar-denominator", lambda: Scalar.rational(1, 0), ScalarError),
        ("alphabet-repeated", lambda: Alphabet(("A", "A")), WordError),
        ("alphabet-letter", lambda: Alphabet(("1A",)), WordError),
        ("substitute-image", lambda: substitute(a, {"A": 3}), WordError),
        ("series-empty", lambda: HSeries([]), SeriesError),
        ("series-order", lambda: HSeries.constant(a, 0), SeriesError),
        ("series-shift", lambda: HSeries.constant(a, 2).shift(-1), SeriesError),
        ("series-text", lambda: parse_series("", AB_ALPHABET), SeriesError),
    ]


_REFUSALS = _library_refusals()


@pytest.mark.parametrize("call, error", [case[1:] for case in _REFUSALS], ids=[case[0] for case in _REFUSALS])
def test_each_library_refusal_keeps_its_class(monkeypatch, call, error):
    # A budget of 0 steps stops the classical rewrite at its first step.
    monkeypatch.setattr(transport, "STEP_BUDGET", 0)
    with pytest.raises(Exception) as caught:
        call()
    assert type(caught.value) is error


def test_a_cli_process_loads_no_logging():
    # No handler can receive the engine's gap record unless the caller
    # loaded logging, so the CLI leaves it unloaded, even for a psi call
    # whose table has gaps to report.
    script = (
        "import contextlib, io, sys\n"
        "from qjacobi import cli\n"
        "cli.build_parser()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['psi', '--order', '6']), cli.main(['eval', '--algebra', 'sl2', '--order', '4'])]\n"
        "print(codes, 'logging' in sys.modules)\n"
    )
    env = {"PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    fresh = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (0, "[0, 0] False\n", "")
