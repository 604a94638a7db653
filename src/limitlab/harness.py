"""Finite-horizon criterion checkers, registries and the experiment
matrix.

A criterion is its `CHECKS` row: safety scans, whose FAIL no longer
transcript undoes, then a horizon surrogate, whose FAIL a longer run may
undo.  The surrogates read "eventually" as tail stability, "infinitely
often" as window recurrence over the final half, and "finitely often" as
a plateau over the final half.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .catalog import Family, Presentation, parse_structure, split_top_level
from . import learners as L
from . import reductions as R
from . import adversaries as A
from .adversaries import FailureCertificate
from .learners import QUESTION, ConfigurationError

DEFAULT_HORIZON = 512
DEFAULT_TAIL = 64
DEFAULT_WINDOW = 50


@dataclass(frozen=True)
class CriterionSpec:
    kind: str
    horizon: int = DEFAULT_HORIZON
    tail: int = DEFAULT_TAIL
    window: int = DEFAULT_WINDOW
    budget: int | None = None

    def __post_init__(self):
        if self.kind not in CRITERIA:
            raise ValueError("unknown criterion: %r" % self.kind)
        if not (self.horizon > self.window > 0):
            raise ValueError("need horizon > window > 0")
        if not (0 < self.tail <= self.horizon):
            raise ValueError("need 0 < tail <= horizon")
        if self.kind == "AlphaFin" and self.budget is None:
            raise ValueError("AlphaFin needs a mind-change budget")
        if self.budget is not None and self.budget < 0:
            raise ValueError("need budget >= 0")


@dataclass(frozen=True)
class Verdict:
    status: str  # PASS | FAIL | INCONCLUSIVE | SKIPPED
    certificate: FailureCertificate | None = None
    reason: str = ""

    def __post_init__(self):
        if self.status == "FAIL" and self.certificate is None:
            raise ValueError("a FAIL verdict needs a certificate")

    def to_json(self):
        return {
            "status": self.status,
            "certificate": (
                self.certificate.to_json() if self.certificate else None
            ),
            "reason": self.reason,
        }


def _fail(spec, kind, details, excerpt=()):
    return Verdict(
        "FAIL",
        FailureCertificate(
            kind, "criterion:%s" % spec.kind, "", 0, spec.horizon,
            details, tuple(excerpt),
        ),
    )


def _ex(spec, transcript, truth, family):
    tail = transcript[-spec.tail:]
    if all(h == truth for h in tail):
        return None
    if all(h == tail[0] for h in tail):
        return (
            "StuckWrong", {"final_hypothesis": tail[0], "truth_code": truth},
            [(spec.horizon - 1, tail[-1])],
        )
    return (
        "InfinitelyManyMindChanges",
        {"tail_values": sorted(set(map(str, tail))), "truth_code": truth},
    )


def _distinct(values):
    """The distinct values by ==, never hashed: sorted when all are ints,
    else in order of appearance, so no two types are ordered."""
    out = []
    for v in values:
        if v not in out:
            out.append(v)
    return sorted(out) if all(isinstance(v, int) for v in out) else out


def _fin(spec, transcript, truth, family):
    distinct = _distinct(h for h in transcript if h != QUESTION)
    if len(distinct) > 1:
        return "CommitRevised", {"values": distinct, "truth_code": truth}
    if distinct and distinct[0] != truth:
        details = {"final_hypothesis": distinct[0], "truth_code": truth}
        return "StuckWrong", details


def _never_commits(spec, transcript, truth, family):
    if all(h == QUESTION for h in transcript):
        return "NeverCommits", {"truth_code": truth}


def _over_budget(spec, transcript, truth, family):
    values = [h for h in transcript if h != QUESTION]
    changes = sum(1 for a, b in zip(values, values[1:]) if b != a)
    if changes > spec.budget:
        details = {"changes": changes, "budget": spec.budget}
        return "MindChangeBudgetExceeded", details


def _truth_emitted(spec, transcript, truth, family):
    if truth in transcript:
        details = {"code": truth, "stage": transcript.index(truth)}
        return "CorrectCodeEmitted", details


def _missing_codes(spec, transcript, truth, family):
    seen = transcript + [truth]
    missing = [c for c in range(len(family)) if c not in seen]
    if missing:
        return "MissingCode", {"codes": missing}


def _pl(spec, transcript, truth, family):
    half = spec.horizon // 2
    for start in range(half, spec.horizon - spec.window + 1):
        if truth not in transcript[start:start + spec.window]:
            details = {"window_start": start, "truth_code": truth}
            return "RecurrenceGap", details
    late = [h for h in transcript[half:] if h != QUESTION and h != truth]
    if late:
        return "WrongCodeRecurs", {"codes": _distinct(late)}


def _abandoned_truth(spec, transcript, truth, family):
    if truth in transcript:
        first = transcript.index(truth)
        for s in range(first, spec.horizon):
            if transcript[s] != truth:
                return "AbandonedTruth", {"first": first, "abandoned_at": s}


def _abandon_return(spec, transcript, truth, family):
    """The first code conjectured again after another code replaced it."""
    last, abandoned = QUESTION, []  # (code replaced, stage), never hashed
    for s, h in enumerate(transcript):
        if h == QUESTION:
            continue
        for code, at in abandoned:
            if code == h:
                return "AbandonReturn", {"code": h, "stages": [at, s]}
        if last != QUESTION and h != last:
            abandoned.append((last, s))
        last = h


# each criterion's safety scans, then its horizon surrogate; a scan reads
# the transcript cut to the horizon and returns None or its FAIL as
# (kind, details[, excerpt])
CHECKS = {
    "Ex": (_ex,),
    "Fin": (_fin, _never_commits),
    "AlphaFin": (_over_budget, _ex),
    "Co": (_truth_emitted, _missing_codes),
    "PL": (_pl,),
    "NUs": (_abandoned_truth, _ex),
    "Dec": (_abandon_return, _ex),
}
CRITERIA = tuple(CHECKS)


def check(spec, transcript, truth, family):
    """The first FAIL of the criterion's `CHECKS` row, else PASS; total on
    any transcript of at least horizon length.  A checker error
    propagates: it is a bug, not an INCONCLUSIVE result."""
    if len(transcript) < spec.horizon:
        return Verdict("INCONCLUSIVE", reason="transcript shorter than horizon")
    transcript = list(transcript[: spec.horizon])
    for scan in CHECKS[spec.kind]:
        found = scan(spec, transcript, truth, family)
        if found is not None:
            return _fail(spec, *found)
    return Verdict("PASS")


# ---------------------------------------------------------------------------
# registries


# every registered family as its member keys; conjecture codes are
# positions in this order
FAMILIES = {
    "omega_pair": ("omega", "omega_star"),
    "cycles": ("du(cycle(3),iso_inf)", "du(cycle(4),iso_inf)"),
    "cyc_comp": tuple("cyc_comp(%d)" % n for n in range(3, 7)),
    "tilde_chains": ("tilde(chain(3))", "tilde(chain(4))"),
    "fstar": ("tilde(omega)", "tilde(omega_star)")
        + tuple("tilde(chain(%d))" % n for n in range(2, 7)),
    "padded_chains": tuple("tilde(chain(%d))" % n for n in range(2, 9))
        + ("tilde(omega)",),
    "rays": tuple("du(ray(%d),iso_inf)" % n for n in range(2, 9))
        + ("du(ray,iso_inf)",),
    "posets": tuple("tilde(poset_p(%d))" % k for k in range(5)),
}


def get_family(name):
    """A registered family, or else one given as a list of structure
    expressions separated by commas outside parentheses."""
    keys = FAMILIES[name] if name in FAMILIES else split_top_level(name)
    return Family(tuple(parse_structure(k) for k in keys))


# every registered learner and operator is built from the family alone
LEARNERS = {
    "ex_minmax": L.ExMinMaxLearner,
    "fin": L.FinLearner,
    "co": L.CoLearner,
    "nus": L.NusLearner,
    "dec_nus": lambda fam: L.DecisiveTransform(L.NusLearner(fam)),
    "pl_pairwise": L.PlFromPairwiseEx,
    "pl_fstar": L.PlFstarLearner,
    "ex_poset": L.ExPosetLearner,
    "dec_ex_poset": lambda fam: L.DecisiveTransform(L.ExPosetLearner(fam)),
    "ex_min_embed": L.ExMinEmbedLearner,
    "id_to_co": lambda fam: L.IdToCoLearner(fam, R.GammaFinToEqnat(fam)),
}


GAMMAS = {
    "gamma_fin_to_eqnat": R.GammaFinToEqnat,
    "gamma_fin_to_eqnat_total": R.GammaFinToEqnatTotal,
    "gamma_erange": R.GammaErange,
    "gamma_erange_to_e3": R.GammaErangeToE3,
}


def member_of(family, member_code):
    """The family member with this code; a code outside the family is a
    usage error, not a negative index."""
    if not 0 <= member_code < len(family):
        raise ValueError(
            "member %d out of range: the family has %d members"
            % (member_code, len(family))
        )
    return family.members[member_code]


def run_cell(family, learner, spec, member_code, seed):
    presentation = Presentation(member_of(family, member_code), seed)
    transcript = L.run(learner, presentation, spec.horizon)
    verdict = check(spec, transcript, member_code, family)
    if verdict.certificate is not None:
        # the certificate replays from this seed against this learner
        verdict = replace(verdict, certificate=replace(
            verdict.certificate, seed=seed, opponent=type(learner).__name__
        ))
    return verdict


# each matrix cell key and the type of its value (seeds: a list of ints)
CELL_KEYS = {
    "family": str, "learner": str, "criterion": str, "member": int,
    "seeds": list, "horizon": int, "tail": int, "window": int, "budget": int,
}


def _is_a(value, kind):
    """isinstance, except that a bool is not an int and a list holds
    ints."""
    if kind is list:
        return isinstance(value, list) and all(_is_a(v, int) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_cell(cell):
    """Raise ValueError unless `cell` is a dict of known keys, each value
    of its type, with a family, a criterion and a registered learner."""
    if not isinstance(cell, dict):
        raise ValueError("a matrix cell is an object, not %r" % (cell,))
    unknown = sorted(set(cell) - CELL_KEYS.keys())
    if unknown:
        raise ValueError(
            "unknown matrix cell key %r; the keys are %s"
            % (unknown[0], ", ".join(CELL_KEYS))
        )
    named = dict.fromkeys(("family", "learner", "criterion"))
    for key, value in (named | cell).items():
        kind = CELL_KEYS[key]
        if not _is_a(value, kind):
            kind = "list of ints" if kind is list else kind.__name__
            raise ValueError(
                "matrix cell key %r needs a value of type %s, not %r"
                % (key, kind, value)
            )
    if cell["learner"] not in LEARNERS:
        raise ValueError(
            "unknown learner %r; the learners are %s"
            % (cell["learner"], ", ".join(sorted(LEARNERS)))
        )


def run_matrix(cells):
    """cells: iterable of dicts with keys family, learner, criterion and
    optional member, seeds, horizon, tail, window, budget.  Every cell is
    checked (`_check_cell`), and its family, member and criterion built,
    before a cell runs, so a malformed cell is a usage error."""
    built = []
    for cell in cells:
        _check_cell(cell)
        spec = CriterionSpec(
            cell["criterion"],
            horizon=cell.get("horizon", DEFAULT_HORIZON),
            tail=cell.get("tail", DEFAULT_TAIL),
            window=cell.get("window", DEFAULT_WINDOW),
            budget=cell.get("budget"),
        )
        family = get_family(cell["family"])
        if "member" in cell:
            member_of(family, cell["member"])
        built.append((cell, family, spec))
    rows = []
    for cell, family, spec in built:
        try:
            learner = LEARNERS[cell["learner"]](family)
        except ConfigurationError as exc:
            rows.append(
                {
                    "cell": cell,
                    "member": None,
                    "seed": None,
                    "verdict": Verdict("SKIPPED", reason=str(exc)),
                }
            )
            continue
        members = (
            [cell["member"]]
            if "member" in cell
            else list(range(len(family)))
        )
        for code in members:
            for seed in cell.get("seeds", [1]):
                verdict = run_cell(family, learner, spec, code, seed)
                rows.append(
                    {
                        "cell": cell,
                        "member": code,
                        "seed": seed,
                        "verdict": verdict,
                    }
                )
    return rows


# adversary: (default family, the registry its opponent comes from, what
# it takes between the opponent and the seed: the family's first two
# members as a pair, the family, or nothing)
DUELS = {
    "adv_vs_ex_rays": ("rays", "learners", ()),
    "adv_vs_nus_poset": ("posets", "learners", ()),
    "adv_vs_co_comparable": ("tilde_chains", "learners", ("pair",)),
    "adv_vs_fin": ("cycles", "learners", ("pair",)),
    "adv_vs_total_id_operator": ("cycles", "operators", ("family",)),
    "adv_vs_e3_operator_fstar": ("tilde_chains", "operators", ()),
}
ADVERSARIES = tuple(DUELS)
OPPONENTS = {"learners": LEARNERS, "operators": GAMMAS}


def _builds(build, family):
    try:
        build(family)
    except ConfigurationError:
        return False
    return True


def run_duel(adversary, opponent, family_name=None, seed=0):
    """Pit a registered adversary against a registered learner or
    operator; returns (replayable presentation, certificate)."""
    if adversary not in DUELS:
        raise KeyError("unknown adversary: %r" % adversary)
    default_family, kind, extra = DUELS[adversary]
    family_name = family_name or default_family
    family = get_family(family_name)
    if "pair" in extra and len(family) < 2:
        raise ConfigurationError(
            "%s plays on a pair of members, and %s has %d"
            % (adversary, family_name, len(family))
        )
    registry = OPPONENTS[kind]
    try:
        if opponent not in registry:
            raise ConfigurationError(
                "%s plays against one of the %s, and %r is not one"
                % (adversary, kind, opponent)
            )
        obj = registry[opponent](family)
    except ConfigurationError as exc:
        valid = [n for n in sorted(registry) if _builds(registry[n], family)]
        raise ConfigurationError(
            "%s; %s that build on %s: %s"
            % (exc, kind, family_name, ", ".join(valid) or "none")
        ) from exc
    given = {"pair": family.members[:2], "family": family}
    args = [given[arg] for arg in extra]
    return getattr(A, adversary)(obj, *args, seed=seed)


def row_to_json(row):
    return {
        "cell": row["cell"],
        "member": row["member"],
        "seed": row["seed"],
        "verdict": row["verdict"].to_json(),
    }


def _verdict_summary(v):
    if isinstance(v, Verdict):
        v = v.to_json()
    extra = ""
    if v["status"] == "FAIL" and v.get("certificate"):
        extra = " (%s)" % v["certificate"]["kind"]
    elif v.get("reason"):
        extra = " (%s)" % v["reason"]
    return v["status"], extra


def render_table(rows):
    lines = []
    header = "%-14s %-14s %-8s %-7s %-5s %s" % (
        "family", "learner", "crit", "member", "seed", "verdict"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cell = row["cell"]
        status, extra = _verdict_summary(row["verdict"])
        lines.append(
            "%-14s %-14s %-8s %-7s %-5s %s%s" % (
                cell["family"], cell["learner"], cell["criterion"],
                "-" if row["member"] is None else row["member"],
                "-" if row["seed"] is None else row["seed"],
                status, extra,
            )
        )
    return "\n".join(lines)


def matrix_exit_code(rows):
    for row in rows:
        status, _ = _verdict_summary(row["verdict"])
        if status == "FAIL":
            return 1
    return 0
