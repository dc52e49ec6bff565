"""Run the benchmark over several seeds and summarise the spread.

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound, and the same for ``jobs_per_s`` scaled without the
in-job calibration samples (``calibrate.Sampler``), to show what they
save.  With ``--out`` it also writes the values, the median time of every
job kind, the commit, the Python version, the CPU count and the load
average read at the start.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/results/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

KIND_LINE = re.compile(r"^    (.+?)\s+([0-9.e+-]+) s  \(n=(\d+)\)$")
BRACKET_LINE = re.compile(r"jobs_per_s without in-job samples \(diagnostic\): ([0-9.e+-]+)")


def _spread(vals: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return {"values": vals, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _git(*args: str) -> str:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--", "src")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": _loadavg(),
        "seconds": seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        values = defaultdict(list)
        kinds = defaultdict(list)
        bracket = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("\n".join(lines[:-1]), file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed job(s)")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            for line in lines:
                match = KIND_LINE.match(line)
                if match:
                    kinds[match.group(1)].append(float(match.group(2)))
                match = BRACKET_LINE.search(line)
                if match:
                    bracket.append(float(match.group(1)))
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary = {}
        for name, vals in values.items():
            summary[name] = stats = _spread(vals)
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:<10} {name:<12} median {stats['median']:.5g}  "
                  f"spread {stats['spread']:.4f}  bound {bounds[name]}{flag}")
        # The same runs' jobs_per_s scaled without the in-job calibration
        # samples: the spread the samples save.
        unsampled = _spread(bracket)
        print(f"  {workload:<10} jobs_per_s without in-job samples (diagnostic): "
              f"median {unsampled['median']:.5g}  spread {unsampled['spread']:.4f}")
        doc["workloads"][workload] = {
            "metrics": summary,
            "jobs_per_s_without_in_job_samples": unsampled,
            "kind_median_s": {k: statistics.median(v) for k, v in sorted(kinds.items())},
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
