"""Record the SHA-256 digests of every job that does not depend on the seed.

Each output is cross-checked before its digest is written:

* ``psi`` on the built-in table against the fixed-point oracle of
  ``tests/helpers.py``, and the order-6 output against
  ``tests/golden/psi_order6.txt``;
* ``verify`` outputs by their ``OK`` / ``passed`` verdicts;
* ``eval`` coefficients against the plain-number evaluator in
  ``fraction_eval.py``, with Ψ taken from the oracle;
* ``omega`` by its matrix and trace, computed the same way.

Run from the repository root when the program's output is meant to
change (this takes a few minutes):

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import fraction_eval  # noqa: E402
import workloads  # noqa: E402
from worker import run_job  # noqa: E402


def _option(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _seed_free_argvs() -> list[list[str]]:
    scratch = ROOT / ".perfbench" / "record"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        seen = {}
        for workload in workloads.WORKLOADS:
            jobs, _ = workloads.build(workload, 0, scratch)
            for job in jobs:
                if "table" not in job and "error" not in job:
                    seen.setdefault(checks.job_key(job["argv"]), job["argv"])
        return [seen[key] for key in sorted(seen)]
    finally:
        shutil.rmtree(scratch)


class CrossCheck:
    def __init__(self):
        from qjacobi.deformation import builtin_table
        from qjacobi.liealg import build_algebra

        self.oracle = checks.load_oracle(ROOT).oracle_psi(builtin_table(), 14)
        self.algebras = {name: build_algebra(name) for name in ("sl2", "sl3")}
        self.golden = (ROOT / "tests" / "golden" / "psi_order6.txt").read_text(encoding="utf-8")

    def psi(self, order: int):
        return [series.truncate(order) for series in self.oracle]

    def problem(self, argv: list[str], out: str) -> str | None:
        fmt = _option(argv, "--format", "text")
        if argv[0] == "psi":
            order = int(_option(argv, "--order"))
            psi, psi_inv = self.psi(order)
            expected = (
                checks.psi_json(psi, psi_inv, order, "builtin")
                if fmt == "json"
                else checks.psi_text(psi, psi_inv)
            )
            if out != expected:
                return "differs from the fixed-point oracle"
            if order == 6 and fmt == "text" and out != self.golden:
                return "differs from tests/golden/psi_order6.txt"
            return None
        if argv[0] == "verify":
            return checks._verdict_problem(fmt, out)
        alg = self.algebras[_option(argv, "--algebra")]
        if argv[0] == "eval":
            return self._eval_problem(alg, int(_option(argv, "--order")), fmt, out)
        if argv[0] == "omega":
            return self._omega_problem(alg, fmt, out)
        return f"no cross-check for {argv[0]!r}"

    def _eval_problem(self, alg, order: int, fmt: str, out: str) -> str | None:
        psi, _ = self.psi(order)
        terms = [[(word, scal.as_fraction()) for word, scal in c.sorted_terms()] for c in psi.coeffs]
        coeffs = fraction_eval.evaluate(terms, alg.structure, alg.dim)
        n = alg.dim ** 3
        if fmt == "json":
            doc = {
                "algebra": alg.name,
                "order": order,
                "coeffs": [fraction_eval.matrix_json(m, n) for m in coeffs],
            }
            return None if json.loads(out) == doc else "differs from the plain-number evaluator"
        return None if out == fraction_eval.series_text(coeffs, n) else "differs from the plain-number evaluator"

    def _omega_problem(self, alg, fmt: str, out: str) -> str | None:
        omega = fraction_eval.casimir(alg.structure, alg.dim)
        n = alg.dim ** 2
        trace = str(sum((omega.get(i, {}).get(i, 0) for i in range(n)), Fraction(0)))
        if fmt == "json":
            doc = json.loads(out)
            kernels = sum(e["kernel_dim"] for e in doc["eigenvalues"])
            ok = doc["matrix"] == fraction_eval.matrix_json(omega, n) and doc["trace"] == trace
            ok = ok and doc["annihilates"] is True and kernels == n
            return None if ok else "omega report differs from the plain-number Casimir"
        lines = out.splitlines()
        ok = f"trace: {trace}" in lines and lines[-1] == fraction_eval.omega_matrix_line(alg.structure, alg.dim)
        return None if ok else "omega report differs from the plain-number Casimir"


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def main() -> int:
    from qjacobi import cli

    cross = CrossCheck()
    digests = {}
    problems = 0
    for argv in _seed_free_argvs():
        key = checks.job_key(argv)
        elapsed, code, out, _, escaped = run_job(cli.main, argv)
        problem = escaped or (f"exit code {code}" if code != 0 else cross.problem(argv, out))
        status = "ok" if problem is None else f"FAILED: {problem}"
        print(f"{elapsed:8.3f}s  {key}: {status}", flush=True)
        if problem is not None:
            problems += 1
            continue
        digests[key] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    if problems:
        print(f"{problems} cross-check(s) failed; digests not written", file=sys.stderr)
        return 1
    doc = {
        "commit": _commit(),
        "python": platform.python_version(),
        "digests": digests,
    }
    checks.DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {checks.DIGESTS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
