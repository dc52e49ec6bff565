"""Seeded workloads: the job cycles and the generated table files.

A workload is a cycle of jobs, each one README-style command line for
``qjacobi``.  The composition of a cycle is fixed; the seed picks only
the words and coefficients of the generated tables and the order of the
jobs, so every seed costs about the same.  A run repeats the cycle a
fixed number of times, so that two runs of one commit do the same work
however busy the host is.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("psi-free", "sl3-eval", "readme-mix")

# Generated tables have one term in every degree 2..6.  The number of
# (A-run, B-run) groups of each word is fixed too, because the cost of a
# table grows with the conjugator pairs its words carry; the seed picks
# the run lengths.
TABLE_GROUPS = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2}
RANDOM_TABLES_PSI_FREE = 3
RANDOM_ORDERS = range(4, 11)
BUILTIN_ORDERS = range(8, 15)

# Wall seconds one cycle took, with its calibration loops, at the commit
# that defined the benchmark (Python 3.11, 2-CPU host).  They turn
# ``--seconds`` into a fixed cycle count.
NOMINAL_CYCLE_S = {"psi-free": 7.5, "sl3-eval": 21.0, "readme-mix": 1.2}
MIN_CYCLES = 1


def cycles(workload: str, seconds: float) -> int:
    """Cycles in a run of about ``seconds`` at the defining commit."""
    return max(MIN_CYCLES, round(seconds / NOMINAL_CYCLE_S[workload]))


def _compose(rng: random.Random, total: int, parts: int) -> list[int]:
    """A random composition of ``total`` into ``parts`` positive parts."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0, *cuts, total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def random_table(rng: random.Random) -> dict[int, tuple[str, Fraction]]:
    """Degree -> (word over A, B, nonzero rational coefficient)."""
    table = {}
    for degree, groups in TABLE_GROUPS.items():
        runs = _compose(rng, degree, 2 * groups)
        word = "".join(("A" if i % 2 == 0 else "B") * run for i, run in enumerate(runs))
        numerator = rng.choice([n for n in range(-6, 7) if n])
        table[degree] = (word, Fraction(numerator, rng.randint(1, 6)))
    return table


def term_text(word: str, coeff: Fraction) -> str:
    """One term in the canonical polynomial text form, e.g. ``- 2/3*A.B``."""
    sign = "- " if coeff < 0 else ""
    size = abs(coeff)
    letters = ".".join(word)
    if size == 1:
        return sign + letters
    return f"{sign}{size.numerator}{'' if size.denominator == 1 else f'/{size.denominator}'}*{letters}"


def table_document(table: dict[int, tuple[str, Fraction]]) -> str:
    doc = {
        "constants": [],
        "entries": {str(k): term_text(*table[k]) for k in sorted(table)},
        "provenance": {str(k): "perfbench generated" for k in sorted(table)},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _job(kind: str, argv: list[str], **facts) -> dict:
    return {"kind": kind, "argv": argv, **facts}


def _psi_free(rng: random.Random, workdir: Path) -> tuple[list[dict], dict]:
    jobs = []
    for order in BUILTIN_ORDERS:
        jobs.append(_job(f"psi builtin o{order} text", ["psi", "--order", str(order)]))
        jobs.append(
            _job(f"psi builtin o{order} json", ["psi", "--order", str(order), "--format", "json"])
        )
    tables = {}
    for t in range(RANDOM_TABLES_PSI_FREE):
        path = str(workdir / f"table-{t}.json")
        tables[path] = random_table(rng)
        for order in RANDOM_ORDERS:
            fmt = "json" if order % 2 else "text"
            argv = ["psi", "--order", str(order), "--table", path, "--format", fmt]
            jobs.append(_job(f"psi random o{order} {fmt}", argv, table=path, order=order))
        for identity in ("5.1a", "5.1b"):
            argv = ["verify", "transport", "--identity", identity, "--table", path]
            jobs.append(_job(f"transport random {identity}", argv, table=path))
    return jobs, tables


def _sl3_eval(rng: random.Random, workdir: Path) -> tuple[list[dict], dict]:
    jobs = [
        _job("eval sl3 o6 text", ["eval", "--algebra", "sl3", "--order", "6"]),
        _job("eval sl3 o4 text", ["eval", "--algebra", "sl3", "--order", "4"]),
        _job("eval sl3 o4 json", ["eval", "--algebra", "sl3", "--order", "4", "--format", "json"]),
        _job("omega sl3 text", ["omega", "--algebra", "sl3"]),
        _job("omega sl3 json", ["omega", "--algebra", "sl3", "--format", "json"]),
        _job("verify classical sl3 text", ["verify", "classical", "--algebra", "sl3"]),
        _job(
            "verify classical sl3 json",
            ["verify", "classical", "--algebra", "sl3", "--format", "json"],
        ),
    ]
    for order in (4, 5, 6):
        argv = ["verify", "rmatrix", "--algebra", "sl3", "--order", str(order)]
        jobs.append(_job(f"verify rmatrix sl3 o{order}", argv))
    # The cheap sl2 jobs come three times each and ``verify rmatrix sl2
    # o9`` six times, so that the median call of the cycle lies inside one
    # block of alike calls, not at the 20% gap between two job kinds.
    for fmt, flags in (("text", []), ("json", ["--format", "json"])):
        cheap = [(f"omega sl2 {fmt}", ["omega", "--algebra", "sl2", *flags], 3)]
        argv = ["verify", "classical", "--algebra", "sl2", *flags]
        cheap.append((f"verify classical sl2 {fmt}", argv, 3))
        for order in range(6, 11):
            argv = ["verify", "rmatrix", "--algebra", "sl2", "--order", str(order), *flags]
            cheap.append((f"verify rmatrix sl2 o{order} {fmt}", argv, 6 if order == 9 else 3))
        argv = ["eval", "--algebra", "sl2", "--order", "6", *flags]
        cheap.append((f"eval sl2 o6 {fmt}", argv, 3))
        jobs += [_job(kind, argv) for kind, argv, times in cheap for _ in range(times)]
    for order in (7, 8, 10):
        jobs.append(_job(f"eval sl2 o{order} text", ["eval", "--algebra", "sl2", "--order", str(order)]))
    argv = ["eval", "--algebra", "sl2", "--order", "8", "--format", "json"]
    jobs.append(_job("eval sl2 o8 json", argv))
    return jobs, {}


def _readme_mix(rng: random.Random, workdir: Path) -> tuple[list[dict], dict]:
    path = str(workdir / "my_table.json")
    table = random_table(rng)
    lines = [
        ("psi o4 text", ["psi", "--order", "4"]),
        ("psi o4 json", ["psi", "--order", "4", "--format", "json"]),
        ("psi o4 golden", ["psi", "--order", "4", "--golden"]),
        ("psi o6 text", ["psi", "--order", "6"]),
        ("psi o6 json", ["psi", "--order", "6", "--format", "json"]),
        ("psi o6 golden", ["psi", "--order", "6", "--golden"]),
        ("verify all", ["verify", "all"]),
        ("verify classical", ["verify", "classical"]),
        ("verify rmatrix o4", ["verify", "rmatrix", "--order", "4"]),
        ("verify transport 4.5 json", ["verify", "transport", "--identity", "4.5", "--format", "json"]),
        ("eval sl2 o3", ["eval", "--algebra", "sl2", "--order", "3"]),
        ("omega sl2", ["omega", "--algebra", "sl2"]),
    ]
    jobs = [_job(kind, argv) for kind, argv in lines for _ in range(3)]
    jobs += [_job("table validate", ["table", "validate", path], table=path) for _ in range(3)]
    # About 5% of the cycle takes a documented error path.
    jobs.append(_job("error order<2", ["psi", "--order", "1"], error=2))
    missing = str(workdir / "missing.json")
    jobs.append(_job("error missing table", ["table", "validate", missing], error=3))
    return jobs, {path: table}


_CYCLE_MAKERS = {"psi-free": _psi_free, "sl3-eval": _sl3_eval, "readme-mix": _readme_mix}


def build(workload: str, seed: int, workdir: Path) -> tuple[list[dict], dict]:
    """The job cycle of a workload and the tables it reads, keyed by path.

    The table files are written into ``workdir``.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs, tables = _CYCLE_MAKERS[workload](rng, workdir)
    rng.shuffle(jobs)
    for path, table in tables.items():
        Path(path).write_text(table_document(table), encoding="utf-8")
    return jobs, tables
