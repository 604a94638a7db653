"""One workload process: set up, run whole cycles of the task list, check
every output, and print one JSON result line.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 bench/worker.py WORKLOAD SEED (--setup-only | --cycles N)
        [--trace SPANS.tsv.gz]

The line "ready" is printed when set-up ends, so the parent can time
set-up from process start.  The first cycle starts with limitlab's
module-global caches empty, as a command-line run does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import limitlab  # noqa: E402

if Path(limitlab.__file__).resolve().parent != ROOT / "src" / "limitlab":
    sys.exit("error: limitlab imported from %s, not from this checkout"
             % limitlab.__file__)

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def _normal(view):
    """A view as it reads after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(view, sort_keys=True, default=str))


def _hash(view):
    text = json.dumps(view, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def run_cycles(workload, expected, cycles, tracer):
    tasks = workload.tasks
    records = []  # [task id, label, horizon, seconds, units, failed]
    failures = []
    first = {}  # task id -> hash of its first output
    outputs = {}  # task id -> digest view of the first cycle
    walls = []
    while len(walls) < cycles:
        cycle_start = time.perf_counter()
        for task in tasks:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    expect, digest, units = task.run()
                else:
                    with tracer.span("bench.task"):
                        expect, digest, units = task.run()
            except Exception:  # a task that raises has failed; keep going
                dt = time.perf_counter() - t0
                failures.append("%s raised:\n%s" % (task.id, traceback.format_exc()))
                records.append([task.id, task.label, task.horizon, dt, 0, True])
                continue
            dt = time.perf_counter() - t0
            problems = []
            h = _hash(digest)
            if task.id not in first:
                first[task.id] = h
                outputs[task.id] = _normal(digest)
            elif first[task.id] != h:
                problems.append("output differs from its first run")
            if task.id not in expected:
                problems.append("no recorded expectation")
            elif _normal(expect) != expected[task.id]:
                problems.append("expected %s, got %s" % (
                    json.dumps(expected[task.id]), json.dumps(_normal(expect))
                ))
            failures += ["%s: %s" % (task.id, m) for m in problems]
            records.append(
                [task.id, task.label, task.horizon, dt, units, bool(problems)]
            )
        walls.append(time.perf_counter() - cycle_start)
    digest = hashlib.sha256()
    for task in tasks:
        if task.id in first:
            digest.update(("%s %s\n" % (task.id, first[task.id])).encode())
    return records, failures, walls, outputs, digest.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=W.WORKLOADS)
    p.add_argument("seed", type=int)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--cycles", type=int)
    p.add_argument("--trace", default=None, help="spans output path")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    tracer = None
    if args.trace:
        tracer = T.Tracer()
        tracer.install()
        tracer.mark("start")
    workload = W.build(args.workload, args.seed)
    if tracer:
        tracer.wrap_steps(workload.steppers)
        tracer.mark("setup")
    setup_wall = time.perf_counter() - t0
    print("ready", flush=True)
    if args.setup_only:
        return 0

    expected = W.load_expectations(args.workload)
    records, failures, walls, outputs, digest = run_cycles(
        workload, expected, args.cycles, tracer
    )
    result = {
        "setup_wall": setup_wall,
        "cycle_walls": walls,
        "tasks": records,
        "failures": failures,
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.mark("cycle")
        tracer.uninstall()
        result["layers"] = T.layer_metrics(tracer, outputs)
        result["stage_check"] = T.stage_check(tracer, outputs)
        result["check_failures"] = [
            "%s: formula gives %d stages, traced count is %d" % (adv, f, t)
            for adv, (f, t) in result["stage_check"].items() if f != t
        ]
        result["predictions"] = T.check_predictions(
            args.workload,
            tracer.phase_self("start", "setup"),
            tracer.phase_self("setup", "cycle"),
            setup_wall,
            sum(walls),
        )
        kept, total = tracer.write_spans(args.trace)
        result["spans"] = {"kept": kept, "total": total}
    for line in failures + result.get("check_failures", []):
        print(line, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
