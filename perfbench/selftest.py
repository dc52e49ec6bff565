"""Self-test of the output checks: a corrupted output must count as failed.

Runs one cycle of ``readme-mix`` and the low-order generated-table jobs of
``psi-free`` in process, checks that every job passes, then corrupts the
output of every third job (one appended character) and checks that
exactly those jobs fail, so that ``failed_share`` rises above zero.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import record, run_job  # noqa: E402

MAX_RANDOM_ORDER = 6


def main() -> int:
    from qjacobi import cli

    workdir = ROOT / ".perfbench" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs, tables = workloads.build("readme-mix", 0, workdir)
        free_jobs, free_tables = workloads.build("psi-free", 0, workdir)
        jobs += [j for j in free_jobs if "table" in j and j.get("order", 0) <= MAX_RANDOM_ORDER]
        tables.update(free_tables)
        expects = checks.expectations(ROOT, jobs, tables)
        results = [run_job(cli.main, job["argv"]) for job in jobs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    clean = [checks.judge(e, record(i, *r)) for i, (e, r) in enumerate(zip(expects, results))]
    corrupted_jobs = set(range(0, len(jobs), 3))
    corrupted = []
    for i, (expect, (elapsed, code, out, err, exc)) in enumerate(zip(expects, results)):
        if i in corrupted_jobs:
            out += "#"
        corrupted.append(checks.judge(expect, record(i, elapsed, code, out, err, exc)))

    problems = [f"{jobs[i]['kind']}: {p}" for i, p in enumerate(clean) if p is not None]
    missed = [jobs[i]["kind"] for i in corrupted_jobs if corrupted[i] is None]
    flagged = [jobs[i]["kind"] for i, p in enumerate(corrupted) if p is not None and i not in corrupted_jobs]
    failed_share = sum(p is not None for p in corrupted) / len(jobs)
    print(f"{len(jobs)} jobs; clean failed_share {len(problems) / len(jobs):.3f}; "
          f"with {len(corrupted_jobs)} corrupted outputs failed_share {failed_share:.3f}")
    for line in problems:
        print(f"clean job failed: {line}")
    for kind in missed:
        print(f"corruption not detected: {kind}")
    for kind in flagged:
        print(f"uncorrupted job flagged: {kind}")
    return 1 if problems or missed or flagged or failed_share == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
