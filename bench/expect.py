"""Record the expected output of every task of a workload.

    python3 bench/expect.py WORKLOAD --seeds 0-19 [--write]

Runs one cycle of the workload at each seed and keeps, per task, the view
the benchmark checks (verdict status and certificate kind, classification
level and leq matrix, leq row, certificate kind, reduction passed flag).
A task whose view differs between seeds is reported and the file is not
written: such a task cannot carry a seed-independent expectation, so the
workload config has to change instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from worker import _normal  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=W.WORKLOADS)
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-19"))
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    views = {}
    for seed in args.seeds:
        for task in W.build(args.workload, seed).tasks:
            expect, _, _ = task.run()
            views.setdefault(task.id, []).append(_normal(expect))
        print("seed %d done" % seed, file=sys.stderr)
    unstable = [
        tid for tid, vs in views.items() if any(v != vs[0] for v in vs)
    ]
    for tid in unstable:
        distinct = []
        for v in views[tid]:
            if v not in distinct:
                distinct.append(v)
        print("unstable %s: %s" % (tid, json.dumps(distinct)))
    if unstable:
        return 1
    text = "{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(tid), json.dumps(vs[0], sort_keys=True))
        for tid, vs in views.items()
    )
    if args.write:
        (W.CONFIG_DIR / ("%s.expect.json" % args.workload)).write_text(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
