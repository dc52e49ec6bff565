"""One fresh, single-threaded worker process: a closed-loop client.

The worker imports ``qjacobi.cli`` (timed as set-up), then calls
``qjacobi.cli.main(argv)`` once per job, keeping stdout and stderr in
memory, and repeats the job cycle a given number of times.  Only the call
to ``main`` is timed, less the calibration samples taken inside it;
digests and a calibration loop (``calibrate.py``) run between jobs.  It
writes raw facts about every job to a JSON file; the parent process
judges them.

    python3 perfbench/worker.py --root . --probe
    python3 perfbench/worker.py --root . --jobs JOBS --cycles N --out OUT [--spans SPANS]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# Outputs up to this size are returned whole, for checks that read them.
KEEP_OUTPUT_BYTES = 16384


def run_job(main, argv: list[str]) -> tuple[float, int | None, str, str, str | None]:
    """Call ``main(argv)`` once; return (seconds, exit code, stdout, stderr,
    escaped exception)."""
    out, err = io.StringIO(), io.StringIO()
    code, escaped = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a job that crashes is a failed job, not a crashed client
            escaped = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue(), escaped


def record(index: int, elapsed: float, code, stdout: str, stderr: str, escaped) -> dict:
    data = stdout.encode("utf-8")
    return {
        "job": index,
        "wall_s": elapsed,
        "code": code,
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
        "out": stdout if len(data) <= KEEP_OUTPUT_BYTES else None,
        "err_bytes": len(stderr),
        "exc": escaped,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--probe", action="store_true", help="only time the set-up")
    parser.add_argument("--jobs")
    parser.add_argument("--cycles", type=int)
    parser.add_argument("--out")
    parser.add_argument("--spans", help="trace the run and write the spans here")
    args = parser.parse_args()

    sys.path.insert(0, str(Path(args.root, "src").resolve()))
    start = time.perf_counter()
    from qjacobi import cli

    cli.build_parser()
    setup_s = time.perf_counter() - start
    from calibrate import Sampler, calibrate, scaled

    setup_s = scaled(setup_s, [calibrate(), calibrate()])
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    jobs = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    busy = 0.0
    sampler = Sampler()
    before = calibrate()
    for _ in range(args.cycles):
        for index, job in enumerate(jobs):
            if tracer is not None:
                tracer.begin_job(len(records))
            with sampler:
                wall, *outcome = run_job(cli.main, job["argv"])
            if tracer is not None:
                tracer.end_job()
            wall -= sampler.spent
            busy += wall
            after = calibrate()
            rec = record(index, wall, *outcome)
            rec["t"] = scaled(wall, [before, *sampler.samples, after])
            # The same call scaled by the bracketing calibrations alone, to
            # show what the in-job samples add.
            rec["t_bracket"] = scaled(wall, [before, after])
            records.append(rec)
            before = after

    doc = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cycles": args.cycles,
        "busy_s": busy,
        "records": records,
    }
    if tracer is not None:
        tracer.uninstall()
        scale = [rec["t"] / rec["wall_s"] for rec in records]
        doc["layers"] = tracer.layer_metrics(args.cycles, scale)
        doc["diagnostics"] = tracer.diagnostics()
        tracer.dump(args.spans, [records[i]["job"] for i in range(len(records))])
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
