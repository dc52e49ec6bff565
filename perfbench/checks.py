"""Output checks that do not trust the timed code.

Every job gets an expectation before the timed loop starts, and every job
record is judged after it:

* jobs that do not depend on the seed are compared with SHA-256 digests
  recorded once (``digests.json``, made by ``record_digests.py``);
* ``psi`` jobs on generated tables are compared with the fixed-point
  oracle ``oracle_psi`` from ``tests/helpers.py``, run once per table at
  the highest order used and truncated;
* ``verify`` jobs must also report a passing verdict;
* ``table validate`` jobs must report exactly the generated degrees;
* error jobs must exit with their documented code and print nothing.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_oracle(root: Path):
    """``tests/helpers.py`` imported read-only, under a private name."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", root / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ek_table(table: dict, source: str):
    """The generated table as an ``EkTable``, built from ring primitives
    rather than through the program's table parser."""
    from qjacobi.deformation import AB_ALPHABET, EkTable
    from qjacobi.ncalg import NCPoly, Scalar

    entries = {k: NCPoly(AB_ALPHABET, [(tuple(word), Scalar.rational(c))]) for k, (word, c) in table.items()}
    return EkTable(entries=entries, source=source)


def psi_text(psi, psi_inv) -> str:
    return "\n".join(["psi:", psi.to_text(), "psi_inv:", psi_inv.to_text()]) + "\n"


def psi_json(psi, psi_inv, order: int, source: str) -> str:
    doc = {"order": order, "table": source, "psi": psi.to_json(), "psi_inv": psi_inv.to_json()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def expectations(root: Path, jobs: list[dict], tables: dict) -> list[dict]:
    """One expectation per job of the cycle."""
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]
    oracle = None
    expected_psi: dict[str, tuple] = {}
    out = []
    for job in jobs:
        argv = job["argv"]
        fmt_json = "--format" in argv and argv[argv.index("--format") + 1] == "json"
        if "error" in job:
            out.append({"code": job["error"], "empty_stdout": True})
        elif argv[:2] == ["table", "validate"]:
            degrees = sorted(tables[job["table"]])
            doc = {
                "source": job["table"],
                "valid": True,
                "degrees": degrees,
                "missing_below_max": [],
                "problems": [],
            }
            out.append({"code": 0, "json": doc})
        elif "table" in job and argv[0] == "psi":
            path = job["table"]
            if path not in expected_psi:
                oracle = oracle or load_oracle(root)
                top = max(j["order"] for j in jobs if j.get("table") == path and "order" in j)
                expected_psi[path] = oracle.oracle_psi(ek_table(tables[path], path), top)
            psi, psi_inv = (s.truncate(job["order"]) for s in expected_psi[path])
            text = psi_json(psi, psi_inv, job["order"], path) if fmt_json else psi_text(psi, psi_inv)
            out.append({"code": 0, "sha256": _sha(text)})
        elif "table" in job:
            out.append({"code": 0, "verdict": "json" if fmt_json else "text"})
        else:
            key = job_key(argv)
            if key not in digests:
                raise KeyError(f"no recorded digest for {key!r}; run perfbench/record_digests.py")
            expect = {"code": 0, "sha256": digests[key]}
            if argv[0] == "verify":
                expect["verdict"] = "json" if fmt_json else "text"
            out.append(expect)
    return out


def _verdict_problem(kind: str, out: str | None) -> str | None:
    if out is None:
        return "verdict output too large to keep"
    if kind == "json":
        try:
            passed = json.loads(out).get("passed")
        except (ValueError, AttributeError):
            return "verdict output is not a JSON object"
        return None if passed is True else "verdict is not passed"
    lines = out.splitlines()
    if not lines or lines[-1] != "OK" or any(line.startswith("FAIL") for line in lines):
        return "verdict is not OK"
    return None


def judge(expect: dict, rec: dict) -> str | None:
    """Why a job record fails its expectation, or None if it passes."""
    if rec["exc"] is not None:
        return f"exception escaped main: {rec['exc']}"
    if rec["code"] != expect["code"]:
        return f"exit code {rec['code']}, expected {expect['code']}"
    if expect.get("empty_stdout") and rec["bytes"]:
        return "error path printed to stdout"
    if "sha256" in expect and rec["sha256"] != expect["sha256"]:
        return "output digest differs"
    if "verdict" in expect:
        problem = _verdict_problem(expect["verdict"], rec["out"])
        if problem:
            return problem
    if "json" in expect:
        try:
            doc = json.loads(rec["out"] or "")
        except ValueError:
            return "output is not JSON"
        if doc != expect["json"]:
            return "table report differs"
    return None
