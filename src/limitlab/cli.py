"""Command line front end.

Exit codes: 0 when every cell passed or was skipped, 1 when any cell
failed, 2 on a usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness as H
from .learners import ConfigurationError
from .reductions import verify_reduction, run_operator
from .catalog import Presentation
from .sigma1 import classify_family


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="limitlab",
        description="simulation lab for limit learning of countable structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-families", help="print the registered families")

    p = sub.add_parser("classify", help="classify a family's theory order")
    p.add_argument("family")

    p = sub.add_parser("run", help="run one learner/criterion cell")
    p.add_argument("family")
    p.add_argument("learner", choices=sorted(H.LEARNERS))
    p.add_argument("criterion", choices=H.CRITERIA)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--member", type=int, default=None)
    p.add_argument("--horizon", type=int, default=H.DEFAULT_HORIZON)
    p.add_argument("--tail", type=int, default=H.DEFAULT_TAIL)
    p.add_argument("--window", type=int, default=H.DEFAULT_WINDOW)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser(
        "duel", help="pit an adversary against a learner or operator"
    )
    p.add_argument("adversary", choices=H.ADVERSARIES)
    p.add_argument("learner")
    p.add_argument("--family", default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("reduce", help="run a reduction operator")
    p.add_argument("gamma", choices=sorted(H.GAMMAS))
    p.add_argument("family")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--member", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--horizon", type=int, default=100)

    p = sub.add_parser("matrix", help="run a grid of cells from a config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="JSON-lines log path")

    p = sub.add_parser("report", help="render a table from a runs log")
    p.add_argument("runs")

    return parser


def _cmd_list_families(args):
    for name in sorted(H.FAMILIES):
        family = H.get_family(name)
        keys = ", ".join(m.key() for m in family)
        print("%-14s %s" % (name, keys))
    return 0


def _cmd_classify(args):
    family = H.get_family(args.family)
    cls = classify_family(family)
    print(json.dumps(cls.to_json(), indent=2))
    return 0


def _cmd_run(args):
    family = H.get_family(args.family)
    spec = H.CriterionSpec(
        args.criterion,
        horizon=args.horizon,
        tail=args.tail,
        window=args.window,
        budget=args.budget,
    )
    learner = H.LEARNERS[args.learner](family)
    members = (
        [args.member] if args.member is not None else range(len(family))
    )
    failed = False
    for code in members:
        verdict = H.run_cell(family, learner, spec, code, args.seed)
        print(
            "member=%d seed=%d %s"
            % (code, args.seed, json.dumps(verdict.to_json()))
        )
        failed = failed or verdict.status == "FAIL"
    return 1 if failed else 0


def _cmd_duel(args):
    _, cert = H.run_duel(
        args.adversary, args.learner, family_name=args.family, seed=args.seed
    )
    print(json.dumps(cert.to_json(), indent=2))
    return 0


def _cmd_reduce(args):
    if args.horizon < 1:
        raise ValueError("need horizon > 0, got %d" % args.horizon)
    family = H.get_family(args.family)
    operator = H.GAMMAS[args.gamma](family)
    if args.verify:
        report = verify_reduction(operator, family, horizon=args.horizon)
        print(json.dumps(report, indent=2))
        return 0 if report["passed"] else 1
    presentation = Presentation(H.member_of(family, args.member), args.seed)
    prefix = run_operator(operator, presentation, args.horizon)
    print(json.dumps({"relation": operator.tag, "values": list(prefix.values)}))
    return 0


def _cmd_matrix(args):
    with open(args.config) as fh:
        config = json.load(fh)
    cells = config["cells"] if isinstance(config, dict) else config
    if not isinstance(cells, list):
        raise ValueError("the matrix cells are a list, not %r" % (cells,))
    rows = H.run_matrix(cells)
    if args.out:
        with open(args.out, "w") as fh:
            for row in rows:
                fh.write(json.dumps(H.row_to_json(row)) + "\n")
    print(H.render_table(rows))
    return H.matrix_exit_code(rows)


def _report_row(path, number, line):
    """A runs-log line as a row; ValueError, naming the line, unless it
    holds what `render_table` reads: the cell's name strings, member and
    seed ints or nulls, a status string and a certificate with a kind."""
    try:
        row = json.loads(line)
        cell, verdict = row["cell"], row["verdict"]
        names = [cell[k] for k in ("family", "learner", "criterion")]
        numbers = [row["member"], row["seed"]]
        certificate = verdict.get("certificate")
        if (
            all(isinstance(v, str) for v in names + [verdict["status"]])
            and all(v is None or H._is_a(v, int) for v in numbers)
            and (certificate is None or isinstance(certificate["kind"], str))
        ):
            return row
    except (ValueError, TypeError, KeyError, AttributeError):
        pass
    raise ValueError(
        "%s line %d is not a matrix row: its cell needs family, learner "
        "and criterion strings, its member and seed ints or nulls, its "
        "verdict a status string and a certificate that is null or has a "
        "kind string" % (path, number)
    )


def _cmd_report(args):
    with open(args.runs) as fh:
        rows = [
            _report_row(args.runs, number, line)
            for number, line in enumerate(fh, 1) if line.strip()
        ]
    print(H.render_table(rows))
    counts = {}
    for row in rows:
        status, _ = H._verdict_summary(row["verdict"])
        counts[status] = counts.get(status, 0) + 1
    print()
    print(" ".join("%s=%d" % kv for kv in sorted(counts.items())))
    return H.matrix_exit_code(rows)


_COMMANDS = {
    "list-families": _cmd_list_families,
    "classify": _cmd_classify,
    "run": _cmd_run,
    "duel": _cmd_duel,
    "reduce": _cmd_reduce,
    "matrix": _cmd_matrix,
    "report": _cmd_report,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigurationError, ValueError, KeyError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
