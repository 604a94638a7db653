"""limitlab benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload {matrix,age,duel} --seed N \\
        --seconds S --trace {0,1}

Load model: a closed loop from one client, one Python process with one
thread, one workload at a time.  Every cycle of the workload's task list
runs in a fresh process, because a command-line user starts every run
with limitlab's module-global caches (catalog._canonical_chains, each
structure's enumeration cache) empty.

--trace 0 measures the end-to-end metrics.  For --seconds it repeats:
SETUP_PROBES set-up-only processes, then one process that sets up and
runs one cold cycle; a started cycle always finishes.  Set-up is timed
from process start to the first task in every one of these processes,
and reported as the median.  The task metrics are taken over every task
run of every cycle.

--trace 1 runs two cycles untraced in one process and one cycle traced in
another, and reports the per-layer metrics of the traced cycle plus the
tracing overhead (traced wall time minus untraced wall time, set-up and
first cycle together).  The doubling ratios come from the untraced second
cycle, where both horizons of a member read a warm cache.  The spans are
written under .bench_out/.

Every output is checked against the expectation recorded beside the
workload in bench/config/; a task whose verdict, certificate kind, leq row
or reduction flag differs, or that raises, fails.  The last line printed
is the JSON result; a full report with the run context, the output digest
and every task time goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 2  # set-up-only processes before each measuring one
TAIL_BEYOND = 10  # task runs that lie beyond task_tail_s
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))

from tracer import doubling_ratios, metric_specs  # noqa: E402

E2E_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}


class WorkerError(RuntimeError):
    pass


def start_worker(args, deadline):
    """Run worker.py with args; return (seconds from start to its "ready"
    line, its JSON result or None for a set-up-only worker).

    Workers run with -S: limitlab and the benchmark need only the standard
    library, and the site-packages scan, which depends on what else the
    machine has installed, is no part of limitlab's set-up.
    """
    cmd = [sys.executable, "-S", str(HERE / "worker.py")]
    cmd += [str(a) for a in args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = None
        last = None
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise WorkerError("worker %s exited with code %s" % (args[:2], code))
    return ready, (json.loads(last) if last else None)


def run_context(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines,
    }


def git_commit():
    """HEAD's commit id read from .git, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(args, worker_args, deadline):
    """(metrics, printed lines, task records, run-level check failures,
    {"digest", "failures"} of the measuring workers, report notes)."""
    setup = []
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < args.seconds:
        for _ in range(SETUP_PROBES):
            setup.append(start_worker(worker_args + ["--setup-only"], deadline)[0])
        ready, result = start_worker(worker_args + ["--cycles", 1], deadline)
        setup.append(ready)
        results.append(result)
    records = [r for result in results for r in result["tasks"]]
    checks = []
    if len({result["digest"] for result in results}) != 1:
        checks.append("outputs differ between processes at one seed")
    runs = sorted(r[3] for r in records)
    rank = len(runs) - TAIL_BEYOND
    if rank < 1:
        checks.append("%d task runs, too few for a tail with %d beyond it"
                      % (len(runs), TAIL_BEYOND))
        rank = 1
    failed = sum(1 for r in records if r[5]) + len(checks)
    metrics = {
        "setup_s": statistics.median(setup),
        "units_per_s": sum(r[4] for r in records) / sum(runs),
        "task_p50_s": statistics.median(runs),
        "task_tail_s": runs[rank - 1],
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
        "pass_share": 1 - failed / len(records),
    }
    shown = [(k, v, E2E_UNITS[k]) for k, v in metrics.items()]
    shown.insert(5, ("fail_share", failed / len(records), "ratio"))
    notes = {
        "setup_samples_s": setup,
        "cycles": len(results),
        "task_runs": len(runs),
        "tail_percentile": 100 * rank / len(runs),
        "task_runs_beyond_tail": len(runs) - rank,
    }
    outputs = {
        "digest": results[0]["digest"],
        "failures": [f for result in results for f in result["failures"]],
    }
    return metrics, shown, records, checks, outputs, notes


def traced(args, worker_args, deadline):
    """As end_to_end, for the traced run."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
    _, plain = start_worker(worker_args + ["--cycles", 2], deadline)
    _, result = start_worker(
        worker_args + ["--cycles", 1, "--trace", spans], deadline
    )
    untraced_wall = plain["setup_wall"] + plain["cycle_walls"][0]
    traced_wall = result["setup_wall"] + result["cycle_walls"][0]
    values = dict(result["layers"])
    # in the first cycle a member's h run fills the caches its h/2 run
    # then reads, so the cold cost would fall on h alone
    warm = plain["tasks"][len(plain["tasks"]) // 2:]
    values.update(doubling_ratios(warm))
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced_wall
    metrics = {name: values[name] for name, _, _ in metric_specs()}
    units = {name: unit for name, unit, _ in metric_specs()}
    records = plain["tasks"] + result["tasks"]
    result["failures"] = plain["failures"] + result["failures"]
    checks = result["check_failures"]
    if result["digest"] != plain["digest"]:
        checks.append("traced outputs differ from untraced outputs")
    shown = [(k, v, units[k]) for k, v in metrics.items()]
    notes = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "predictions": result["predictions"],
        "stage_check": result["stage_check"],
        "spans": dict(result["spans"], path=str(spans.relative_to(ROOT))),
        "digest_untraced": plain["digest"],
    }
    for p in result["predictions"]:
        print("prediction %-40s %-12s %-14s share %6.2f%%  %s" % (
            p["layer"][:40], p["metric"], p["predicted"],
            100 * p["share"], p["outcome"],
        ))
    return metrics, shown, records, checks, result, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("matrix", "age", "duel"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "limitlab" / "__init__.py").is_file():
        print("error: %s holds no limitlab sources (src/limitlab)" % ROOT,
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    worker_args = [args.workload, args.seed]
    try:
        metrics, shown, records, checks, result, notes = (
            traced if args.trace else end_to_end
        )(args, worker_args, deadline)
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    for name, value, unit in shown:
        print("%-44s %14.6g %s" % (name, value, unit))
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "context": run_context(args.seed),
        "digest": result["digest"],
        "metrics": metrics,
        "notes": notes,
        "failures": result["failures"] + checks,
        "tasks": records,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / ("report-%s-seed%d-trace%d.json"
                  % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(report, indent=1))
    print("context %s" % json.dumps(report["context"]))
    print("digest %s" % result["digest"])
    print("report %s" % path.relative_to(ROOT))
    units = {name: unit for name, _, unit in shown}
    failed = sum(1 for r in records if r[5]) + len(checks)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
