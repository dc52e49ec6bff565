"""The qjacobi benchmark: seeded CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload psi-free --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload run gets its own fresh worker process (``worker.py``), a
single closed-loop client that calls ``qjacobi.cli.main(argv)`` once per
job.  ``--seconds`` fixes the work: the job cycle is repeated as many
times as fit in that time at the commit that defined the benchmark.
Every job's output is checked (``checks.py``) outside the timed region.

Job times are wall seconds scaled to the host's quiet speed by a
calibration loop run between jobs and inside long ones (``calibrate.py``):
other tenants' load slows the host by up to 1.8× within seconds, and the
scaled times repeat where the raw ones do not.  Every call in the
run counts in the metrics; per-kind medians are printed as diagnostics.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs an untraced worker and then a traced one, each for
half the cycles, and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER = 4
PROBE_TIMEOUT_S = 60
# A worker may take this many times its nominal cycle time (plus a fixed
# allowance) before the run gives up, so a slower program still reports.
TIMEOUT_MARGIN = 10
TIMEOUT_FIXED_S = 30
TAIL_BEYOND = 10


class BenchmarkError(RuntimeError):
    """The benchmark could not run or could not judge the program."""


def _root() -> Path:
    root = Path.cwd()
    for needed in ("src/qjacobi/cli.py", "tests/helpers.py", "BENCHMARK.json"):
        if not (root / needed).is_file():
            raise BenchmarkError(f"{needed} not found; run from the repository root")
    return root


def _worker(root: Path, timeout: float, *extra: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root), *extra]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"worker exited with {done.returncode}:\n{done.stderr.strip()}")
    return done.stdout


def _probe(root: Path) -> float:
    return json.loads(_worker(root, PROBE_TIMEOUT_S, "--probe"))["setup_s"]


def _measure(
    root: Path, workload: str, workdir: Path, cycles: int, spans: Path | None = None
) -> dict:
    out = workdir / ("traced.json" if spans else "plain.json")
    extra = ["--jobs", str(workdir / "jobs.json"), "--cycles", str(cycles), "--out", str(out)]
    if spans:
        extra += ["--spans", str(spans)]
    timeout = TIMEOUT_FIXED_S + TIMEOUT_MARGIN * cycles * workloads.NOMINAL_CYCLE_S[workload]
    _worker(root, timeout, *extra)
    return json.loads(out.read_text(encoding="utf-8"))


class Judged:
    """The records of one worker run, judged, and the time of every call."""

    def __init__(self, jobs: list[dict], expects: list[dict], result: dict):
        self.result = result
        self.reasons = []
        self.times = []
        self.kinds = []
        for rec in result["records"]:
            job = jobs[rec["job"]]
            problem = checks.judge(expects[rec["job"]], rec)
            if problem is not None:
                self.reasons.append(f"{job['kind']}: {problem}")
            self.times.append(rec["t"])
            self.kinds.append(job["kind"])
        self.attempted = len(result["records"])
        self.failed = len(self.reasons)

    def jobs_per_s(self) -> float:
        """Calls that passed over the time of all calls in the run."""
        return (self.attempted - self.failed) / sum(self.times)


def _tail(times: list[float]) -> tuple[float, float, int]:
    """The time at the highest percentile with at least ten calls beyond it,
    that percentile and the number of calls beyond it."""
    ordered = sorted(times)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = Path(".perfbench") / f"{workload}-s{seed}-p{os.getpid()}"
    (root / workdir).mkdir(parents=True, exist_ok=True)
    cycles = workloads.cycles(workload, seconds)
    try:
        jobs, tables = workloads.build(workload, seed, workdir)
        expects = checks.expectations(root, jobs, tables)
        (workdir / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
        if not trace:
            probes = [_probe(root) for _ in range(SETUP_PROBES_BEFORE)]
            judged = Judged(jobs, expects, _measure(root, workload, workdir, cycles))
            probes += [_probe(root) for _ in range(SETUP_PROBES_AFTER)]
            return _end_to_end(workload, jobs, judged, probes)
        half = max(1, cycles // 2)
        plain = Judged(jobs, expects, _measure(root, workload, workdir, half))
        spans = Path(".perfbench") / f"trace-{workload}-s{seed}.json"
        traced = Judged(jobs, expects, _measure(root, workload, workdir, half, spans))
        return _per_layer(workload, plain, traced, spans)
    finally:
        shutil.rmtree(root / workdir, ignore_errors=True)


def _end_to_end(workload: str, jobs: list[dict], judged: Judged, probes: list[float]) -> dict:
    result = judged.result
    tail, percentile, beyond = _tail(judged.times)
    metrics = {
        "jobs_per_s": (judged.jobs_per_s(), "1/s"),
        "job_p50_s": (statistics.median(judged.times), "s"),
        "job_tail_s": (tail, "s"),
        "setup_s": (statistics.median(probes + [result["setup_s"]]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "failed_share": (judged.failed / judged.attempted, "share"),
    }
    lines = [
        f"workload {workload}: {len(jobs)} jobs per cycle, {result['cycles']} cycles, "
        f"{judged.attempted} calls in {result['busy_s']:.2f} s, one closed-loop client",
    ]
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "job_tail_s":
            note = f"  (p{percentile:.1f} of {judged.attempted} call times, {beyond} calls beyond)"
        lines.append(f"  {name:<14} {value:.6g} {unit}{note}")
    lines.append(f"  raw calls per busy second (diagnostic): {judged.attempted / result['busy_s']:.6g} 1/s")
    bracket = sum(rec["t_bracket"] for rec in result["records"])
    lines.append(
        "  jobs_per_s without in-job samples (diagnostic): "
        f"{(judged.attempted - judged.failed) / bracket:.6g} 1/s"
    )
    lines.append("  median scaled time per job kind (diagnostic):")
    by_kind = defaultdict(list)
    for kind, seconds in zip(judged.kinds, judged.times):
        by_kind[kind].append(seconds)
    for kind, times in sorted(by_kind.items()):
        lines.append(f"    {kind:<32} {statistics.median(times):.4f} s  (n={len(times)})")
    lines += [f"  FAILED {reason}" for reason in judged.reasons[:20]]
    return {"lines": lines, "attempted": judged.attempted, "failed": judged.failed, "metrics": metrics}


def _per_layer(workload: str, plain: Judged, traced: Judged, spans: Path) -> dict:
    result = traced.result
    layers = dict(result["layers"])
    layers["bench.trace_overhead"] = traced.jobs_per_s() / plain.jobs_per_s()
    layers["cli.render.bytes"] = sum(rec["bytes"] for rec in result["records"]) / result["cycles"]
    lines = [
        f"workload {workload} traced: {result['cycles']} cycle(s) untraced, then "
        f"{result['cycles']} traced; per-layer values are per cycle; spans in {spans}",
    ]
    for name, value in sorted(result["diagnostics"].items()):
        lines.append(f"  {name} (diagnostic): {value:.4f}")
    lines += [f"  FAILED {reason}" for reason in (plain.reasons + traced.reasons)[:20]]
    return {
        "lines": lines,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {name: (value, None) for name, value in layers.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        root = _root()
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = spec["per_layer" if args.trace else "end_to_end"]
        sys.path.insert(0, str(root / "src"))
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(root, w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, result in results.items():
        print("\n".join(result["lines"]))
        if args.trace:
            print(f"  per-layer metrics of {workload}:")
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if len(results) > 1 else ""
        for metric in declared:
            value = result["metrics"][metric["name"]][0]
            if args.trace:
                print(f"    {metric['name']:<34} {value:.6g} {metric['unit']}")
            summary["metrics"][prefix + metric["name"]] = {"value": value, "unit": metric["unit"]}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
