"""Tests for the command-line interface and its exit-code contract."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from qjacobi import cli

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
    # The dense text form of every coefficient, from the prefix walk of
    # the word evaluator over Psi's words up to length 7.
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


def test_verify_transport_json_golden(capsys):
    # Every identity's normal forms and replayable traces, so a change in
    # the term order of an expression (4.4 and the 5.1 claims compose
    # sums) changes the trace indices and fails here.
    code, out = run_cli(capsys, "verify", "transport", "--format", "json")
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "verify_transport.json").read_bytes()


def test_verify_sigma_h_def_order_8_json_golden(capsys):
    # The braiding relation to h^8: each series coefficient is a sum of
    # products of normal forms, rewritten once.
    argv = ["verify", "transport", "--identity", "sigma_h_def", "--order", "8", "--format", "json"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / "verify_sigma_h_def_o8.json").read_bytes()


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

    def broken(table, order):
        raise exc_type("pair is not mutually inverse at the stated order")

    monkeypatch.setattr(cli, "compute_psi", broken)
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
    "doc",
    [
        {"entries": []},
        {"entries": {"2": "1/24*A.B - 1/24*B.A"}, "provenance": []},
        {"entries": {"2": "1/24*A.B - 1/24*B.A"}, "constants": [3]},
        {"entries": {"2": "1/24*A.B - 1/24*B.A"}, "constants": ["A"]},
    ],
    ids=["entries-list", "provenance-list", "constant-number", "constant-shadows-letter"],
)
def test_table_validate_rejects_malformed_document(tmp_path, doc):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    cmd = [sys.executable, "-m", "qjacobi", "table", "validate", str(path)]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ")


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


_SL2_BRACKETS = [[1, 0, [[0, "2"]]], [1, 2, [[2, "-2"]]], [0, 2, [[1, "1"]]]]


def _sl2_doc(*brackets):
    return {"dim": 3, "basis": ["e", "h", "f"], "brackets": list(brackets)}


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
        (_sl2_doc(["1", 0, [[0, "2"]]], *_SL2_BRACKETS[1:]), "bracket"),
        (_sl2_doc([1.5, 0, [[0, "2"]]], *_SL2_BRACKETS[1:]), "bracket"),
        (_sl2_doc([1, 0, [[0.5, "2"]]], *_SL2_BRACKETS[1:]), "bracket"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[True, "1"]]]), "bracket"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[1, True]]]), "bracket"),
        (_sl2_doc([1, 0, [[0, " 2.0 "]]], *_SL2_BRACKETS[1:]), "coefficient ' 2.0 '"),
        (_sl2_doc([1, 0, [[0, "2e0"]]], *_SL2_BRACKETS[1:]), "coefficient '2e0'"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[1, "1_0"]]]), "coefficient '1_0'"),
        (_sl2_doc(*_SL2_BRACKETS, {"0": 1}), "bracket"),
        (_sl2_doc(*_SL2_BRACKETS, [0, 2, [[1, "5"]]]), "bracket (0, 2) is stated twice"),
        (_sl2_doc(*_SL2_BRACKETS[:2], [0, 2, [[1, "7"], [1, "-6"]]]), "target index twice"),
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
        "bracket-index-string",
        "bracket-index-float",
        "bracket-target-float",
        "bracket-target-bool",
        "bracket-coefficient-bool",
        "coefficient-decimal-point",
        "coefficient-exponent",
        "coefficient-underscore",
        "bracket-object",
        "bracket-repeated-pair",
        "bracket-repeated-target",
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


def test_in_process_calls_match_fresh_processes(capsys, monkeypatch):
    # One process runs every call on the same parser and preset operators,
    # usage errors included; each call must print and exit exactly as a
    # process of its own does.  COLUMNS fixes argparse's usage width.
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["psi", "--order", "3"],
        ["psi", "--order", "1"],
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
