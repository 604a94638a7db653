"""The benchmark's three workloads, as lists of tasks built from a seed.

A workload's setup builds its families and registry objects once; a cycle
is its task list run in order.  Every task returns two views of its
output: the part checked against the recorded expectation, and the full
output that enters the run digest (transcripts, certificate kind,
details and excerpt, verification reports, leq rows).  Provenance fields
of certificates (adversary, opponent, seed, horizon) stay out of both.

limitlab is driven only through its public functions, always looked up
on their module at call time so that a tracer that rebinds them sees the
calls.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from limitlab import adversaries as A
from limitlab import catalog as C
from limitlab import harness as H
from limitlab import learners as L
from limitlab import reductions as R
from limitlab import sigma1 as S

CONFIG_DIR = Path(__file__).resolve().parent / "config"
WORKLOADS = ("matrix", "age", "duel")


@dataclass
class Task:
    id: str
    # () -> (expect view, digest view, units done); a unit is a learner
    # stage, a structure pair decided or a stream stage driven
    run: Callable
    label: str = ""  # learner cell, adversary or operator the task drives
    horizon: int = 0


@dataclass
class Workload:
    name: str
    tasks: list
    # (layer name, registry object) for every learner and operator the
    # tasks step, so a tracer can time their steps
    steppers: list


def load_config(name):
    with open(CONFIG_DIR / ("%s.json" % name)) as fh:
        return json.load(fh)


def load_expectations(name):
    with open(CONFIG_DIR / ("%s.expect.json" % name)) as fh:
        return json.load(fh)


def build(name, seed):
    """Set up a workload: families, registry objects and the task list."""
    return _BUILDERS[name](load_config(name), seed)


# ---------------------------------------------------------------------------
# certificates


def cert_view(cert):
    """The certificate fields that describe what happened, without the
    provenance fields (adversary, opponent, seed, horizon)."""
    if cert is None:
        return None
    return {
        "kind": cert.kind,
        "details": cert.details,
        "excerpt": [list(e) for e in cert.transcript_excerpt],
    }


# ---------------------------------------------------------------------------
# matrix


def _matrix(config, seed):
    rng = random.Random("matrix|%d" % seed)
    tasks = []
    steppers = []
    for cell in config["cells"]:
        family = H.get_family(cell["family"])
        learner = H.LEARNERS[cell["learner"]](family)
        steppers.append(("learners." + cell["id"], learner))
        for code in range(len(family)):
            # one presentation per member, so the h/2 run reads a prefix
            # of the stream the h run reads
            pseed = rng.randrange(2 ** 31)
            for scale in (1, 2):
                spec = H.CriterionSpec(
                    cell["criterion"],
                    horizon=cell["horizon"] // scale,
                    tail=cell["tail"] // scale,
                    window=cell["window"] // scale,
                )
                tasks.append(Task(
                    "%s/m%d/h%d" % (cell["id"], code, spec.horizon),
                    _cell_run(family, learner, spec, code, pseed),
                    cell["id"],
                    spec.horizon,
                ))
    return Workload("matrix", tasks, steppers)


def _cell_run(family, learner, spec, code, pseed):
    def run():
        presentation = C.Presentation(family.members[code], pseed)
        transcript = L.run(learner, presentation, spec.horizon)
        verdict = H.check(spec, transcript, code, family)
        cert = verdict.certificate
        expect = {
            "status": verdict.status,
            "kind": cert.kind if cert else None,
        }
        return expect, {
            "transcript": transcript,
            "status": verdict.status,
            "certificate": cert_view(cert),
        }, spec.horizon

    return run


# ---------------------------------------------------------------------------
# age


def _age(config, seed):
    k = config["max_size"]
    grid = [C.parse_structure(key) for key in config["grid"]]
    columns = list(grid)
    random.Random("age|%d" % seed).shuffle(columns)
    tasks = []
    for name in H.FAMILIES:
        family = H.get_family(name)
        tasks.append(Task("classify/%s" % name, _classify(family), name))
    for a in grid:
        tasks.append(Task("leq/%s" % a.key(), _leq_row(a, columns, k), a.key()))
    return Workload("age", tasks, [])


def _classify(family):
    def run():
        cls = S.classify_family(family)
        expect = {"level": cls.level, "leq": [list(r) for r in cls.leq]}
        return expect, cls.to_json(), len(family) ** 2

    return run


def _leq_row(a, columns, k):
    def run():
        row = {b.key(): S.sigma1_leq(a, b, max_size=k) for b in columns}
        return row, row, len(row)

    return run


# ---------------------------------------------------------------------------
# duel


def _duel(config, seed):
    tasks = []
    steppers = []
    for d in config["adversaries"]:
        family = H.get_family(d["family"])
        if d["opponent"] in H.LEARNERS:
            opponent = H.LEARNERS[d["opponent"]](family)
            layer = "learners." + d.get("label", d["opponent"])
        else:
            opponent = H.GAMMAS[d["opponent"]](family)
            layer = "reductions." + d["opponent"]
        steppers.append((layer, opponent))
        tasks.append(Task(
            d["id"], _adversary_run(d, opponent, family, seed), d["adversary"],
        ))
    rng = random.Random("duel|%d" % seed)
    for v in config["verify"]:
        family = H.get_family(v["family"])
        operator = H.GAMMAS[v["gamma"]](family)
        steppers.append(("reductions." + v["gamma"], operator))
        seeds = tuple(rng.randrange(2 ** 31) for _ in range(3))
        stages = sum(
            len(seeds) * (v["horizon"] if m.size() is None
                          else min(v["horizon"], m.size()))
            for m in family
        )
        tasks.append(Task(
            v["id"], _verify_run(operator, family, v, seeds, stages),
            v["gamma"],
        ))
    return Workload("duel", tasks, steppers)


def _adversary_args(name, opponent, family):
    pair = (family.members[0], family.members[1])
    return {
        "adv_vs_ex_rays": (opponent,),
        "adv_vs_nus_poset": (opponent,),
        "adv_vs_co_comparable": (opponent, pair),
        "adv_vs_fin": (opponent, pair),
        "adv_vs_total_id_operator": (opponent, family),
        "adv_vs_e3_operator_fstar": (opponent,),
    }[name]


def _adversary_run(d, opponent, family, seed):
    args = _adversary_args(d["adversary"], opponent, family)

    def run():
        adversary = getattr(A, d["adversary"])
        presentation, cert = adversary(
            *args, seed=seed, start=d["start"], cap=d["cap"]
        )
        total, useful = duel_stages(
            d["adversary"], presentation, cert, d["start"], d["cap"]
        )
        expect = {"kind": cert.kind}
        return expect, {
            "certificate": cert_view(cert),
            "shape_audit_ok": cert.shape_audit_ok,
            "stages": total,
            "useful_stages": useful,
        }, total

    return run


def _rounds(start, last):
    """Horizons of the doubling rounds start, 2*start, ... up to last."""
    out = []
    h = start
    while h <= last:
        out.append(h)
        h *= 2
    return out


def duel_stages(adversary, presentation, cert, start, cap):
    """(stream stages driven over every doubling round, stages of the
    round whose result was returned).

    Every round before the returned one runs its full horizon; the
    returned round's stream is the replayable presentation.  The E3
    adversary probes a second branch only after the first ran to the
    cap, and on Inconclusive returns an empty stream after two full
    probes.
    """
    try:
        final = presentation.builder(-1).size
    except IndexError:
        final = 0
    prior = sum(_rounds(start, cert.horizon // 2))
    if adversary == "adv_vs_e3_operator_fstar":
        if cert.kind == "Inconclusive":
            return 2 * sum(_rounds(start, cap)), cap
        if cert.details["branch"] != "tilde(omega)":
            prior += sum(_rounds(start, cap))
    return prior + final, final


def _verify_run(operator, family, v, seeds, stages):
    def run():
        report = R.verify_reduction(
            operator, family, horizon=v["horizon"], seeds=seeds
        )
        return {"passed": report["passed"]}, report, stages

    return run


_BUILDERS = {"matrix": _matrix, "age": _age, "duel": _duel}
