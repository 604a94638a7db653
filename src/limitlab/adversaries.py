"""Stage-wise diagonalization builders.

Each adversary drives a learner (or operator) with a stream it constructs
on the fly, branching on the opponent's outputs, and returns the stream
plus a failure certificate.  Waits that the underlying argument makes
infinite are realized by horizon doubling: `_drive` plays every
adversary's rounds at horizons start, 2*start, ..., cap, where cap must
be start times a power of two; the round at the cap yields Inconclusive,
never a fabricated certificate.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from .structures import embed_map
from .catalog import (
    ConstructionError,
    ReplayPresentation,
    TokenChain,
    audit_shape,
    canonical_fragment,
    fragment_embeds,
    left_side,
    parse_structure,
    right_side,
    saturated_fragment,
)
from .sigma1 import sigma1_leq
from .learners import QUESTION, ConfigurationError, ladder_codes
from .reductions import OperatorRun, check_prefix, mismatched_rows

START_HORIZON = 512
HORIZON_CAP = 2 ** 14
AUDITED = 40  # the stages a stream's shape audit covers


@dataclass(frozen=True)
class FailureCertificate:
    kind: str
    adversary: str
    opponent: str
    seed: int
    horizon: int
    details: dict = field(default_factory=dict)
    transcript_excerpt: tuple = ()
    shape_audit_ok: bool = True

    def to_json(self):
        return asdict(self)


class StreamBuilder(TokenChain):
    """Builds a monotone fragment stream as a growing induced piece of a
    target structure, with the ability to re-root the piece inside a new
    target whenever it embeds there.  When shapes are given, audit_ok says
    whether each of the first AUDITED fragments embeds into one of them."""

    def __init__(self, target, shapes=()):
        super().__init__(target)
        self.shapes, self.audit_ok = shapes, True
        self._used = {}  # keys: the revealed canonical indices, in order
        # predicate -> an index below which every canonical index is
        # revealed or has a token the predicate rejects
        self._cursors = {}

    @property
    def indices(self):
        """The canonical index of each revealed element, in stream order."""
        return list(self._used)

    def add_index(self, idx):
        if idx in self._used:
            raise ValueError("canonical element %d already revealed" % idx)
        frag = self.push(self._token(idx))
        self._used[idx] = None
        if self.shapes and frag.size <= AUDITED and not audit_shape(
            frag, self.shapes
        ):
            self.audit_ok = False
        return frag

    def add_least_unused(self, predicate=None):
        """Reveal the least unrevealed canonical element whose token meets
        the predicate, and return the new fragment.  The scan resumes from
        the predicate's cursor, so each index is looked at once per
        predicate object until `retarget`: pass the same object for the
        same token class."""
        idx = self._cursors.get(predicate, 0)
        while idx in self._used or not (
            predicate is None or predicate(self._token(idx))
        ):
            idx += 1
        self._cursors[predicate] = idx + 1
        return self.add_index(idx)

    def _token(self, idx):
        """The target's canonical element idx; a stream that runs past a
        finite target cannot be built."""
        try:
            return self.target.element(idx)
        except IndexError:
            raise ConstructionError("%s has only %d elements" % (
                self.target.key(), self.target.size())) from None

    def retarget(self, new_target):
        """Re-root the current fragment inside a new target; True on
        success, False when no embedding is found at a saturated bound."""
        frag = self.fragments[-1]
        mapping = embed_map(frag, saturated_fragment(
            new_target, 2 * frag.size + new_target.param() + 8
        ))
        if mapping is None:
            return False
        self._used = dict.fromkeys(mapping[e] for e in range(frag.size))
        self._cursors = {}
        # the same elements, named by the new target's tokens and filed
        # again; the fragments stay, so the masks are not needed
        self.target, self.groups = new_target, {}
        self.tokens = [new_target.element(i) for i in self._used]
        for j, tok in enumerate(self.tokens):
            new_target.admit(self.groups, tok, j)
        return True

    def presentation(self):
        return ReplayPresentation(self.fragments[1:])


def _drive(name, opponent, seed, start, cap, play):
    """Play the rounds of horizon start, 2*start, ..., cap until one
    reaches a verdict, and return its replayable stream and certificate;
    None when the round at the cap, which is told it is the last, has none.

    play(horizon, last) replays its stream from scratch and returns None
    or (builder, kind, details[, transcript excerpt]); the certificate's
    shape audit is the builder's.
    """
    if not (1 <= start <= cap and cap % start == 0
            and (cap // start) & (cap // start - 1) == 0):
        raise ValueError(
            "need start >= 1 and cap = start * 2**k, got start %r, cap %r"
            % (start, cap)
        )
    horizon = start
    while True:
        last = horizon == cap
        verdict = play(horizon, last)
        if verdict is not None:
            builder, kind, details, *excerpt = verdict
            return builder.presentation(), FailureCertificate(
                kind, name, type(opponent).__name__, seed, horizon,
                details, *excerpt, shape_audit_ok=builder.audit_ok,
            )
        if last:
            return None
        horizon *= 2


def _excerpt(transcript, stages=None, width=12):
    marks = set(range(max(0, len(transcript) - width), len(transcript)))
    for s in stages or ():
        if s is not None:
            marks.update(range(max(0, s - 1), min(len(transcript), s + 2)))
    return tuple((s, transcript[s]) for s in sorted(marks))


def adv_vs_ex_rays(learner, seed=0, start=START_HORIZON, cap=HORIZON_CAP):
    """Extends the ray exactly when the learner conjectures the current
    finite ray; otherwise pads with isolated vertices."""
    family = learner.family
    ray_code = family.param_codes("du(ray(%d),iso_inf)")
    for code, m in enumerate(family):
        if code not in ray_code.values() and m.key() != "du(ray,iso_inf)":
            raise ConfigurationError(
                "unexpected member %s: the members must be rays "
                "du(ray(n),iso_inf) or du(ray,iso_inf)" % m.key()
            )

    def play(horizon, last):
        builder = StreamBuilder(
            parse_structure("du(ray,iso_inf)"), tuple(family)
        )
        state = learner.initial_state()
        transcript = []
        expansionary = []
        ray_len = 0
        for s in range(horizon):
            # the ray grows at stages 0 and 1, and at an even stage when
            # the hypothesis two stages back was the current finite ray
            grow = s < 2 or (
                s % 2 == 0 and transcript[s - 2] == ray_code.get(ray_len)
            )
            if grow and s >= 2:
                expansionary.append(s)
            if grow:
                frag = builder.add_least_unused(left_side)
                ray_len += 1
            else:
                frag = builder.add_least_unused(right_side)
            state, hyp = learner.step(state, frag)
            transcript.append(hyp)
        if len(expansionary) >= 10:
            return builder, "InfinitelyManyMindChanges", {
                "expansionary_stages": expansionary[-10:],
                "ray_length": ray_len,
            }, _excerpt(transcript, expansionary[-3:])
        if not expansionary or expansionary[-1] < horizon // 2:
            return builder, "StuckWrong", {
                "final_hypothesis": transcript[-1],
                "truth_code": ray_code.get(ray_len),
                "truth": "du(ray(%d),iso_inf)" % ray_len,
            }, _excerpt(transcript)
        if last:
            return builder, "Inconclusive", {}

    return _drive("adv_vs_ex_rays", learner, seed, start, cap, play)


def adv_vs_nus_poset(learner, seed=0, start=START_HORIZON, cap=HORIZON_CAP):
    """Builds the infinite ladder until conjectured, detours through a
    finite one, then returns, forcing an abandoned-and-resumed code."""
    family = learner.family
    codes = ladder_codes(family)
    p0 = family.members[codes[0]]

    def play(horizon, last):
        builder = StreamBuilder(p0, (p0,))
        state = learner.initial_state()
        transcript = []
        phase = 0
        detour_code = None
        stages = {}
        for s in range(horizon):
            frag = builder.add_least_unused()
            state, hyp = learner.step(state, frag)
            transcript.append(hyp)
            if phase == 0 and hyp == codes[0]:
                detour_code = next((
                    codes[k] for k in sorted(codes) if k > 0
                    and fragment_embeds(frag, family.members[codes[k]])
                ), None)
                if detour_code is None:
                    return builder, "Inconclusive", {
                        "reason": "fragment outgrew every finite member"
                    }
                builder.retarget(family.members[detour_code])
                stages["first"] = s
                phase = 1
            elif phase == 1 and hyp == detour_code:
                if not builder.retarget(p0):
                    return builder, "Inconclusive", {
                        "reason": "return embedding not found"
                    }
                stages["detour"] = s
                phase = 2
            elif phase == 2 and hyp == codes[0]:
                stages["return"] = s
                return builder, "AbandonReturn", {
                    "code": codes[0], "stages": stages
                }, _excerpt(
                    transcript, [stages["first"], stages["detour"], s]
                )
        # an unfinished wait: if the hypothesis has settled on something
        # other than the code the wait is for, the learner is stranded on
        # the stream's limit
        expected = {0: codes[0], 1: detour_code, 2: codes[0]}[phase]
        truth = detour_code if phase == 1 else codes[0]
        tail = transcript[horizon // 2:]
        if all(h == tail[0] for h in tail) and tail[0] != expected:
            return builder, "StuckWrong", {
                "final_hypothesis": transcript[-1],
                "truth_code": truth,
                "stages": stages,
            }, _excerpt(transcript, list(stages.values()))
        if last:
            return builder, "Inconclusive", {"phase": phase}

    return _drive("adv_vs_nus_poset", learner, seed, start, cap, play)


def adv_vs_co_comparable(
    learner, pair_members, seed=0, start=START_HORIZON, cap=HORIZON_CAP
):
    """For a comparable pair (A, B): presents A; the moment B's code shows
    up, completes the stream into B, making that emission fatal."""
    a, b = pair_members
    if not sigma1_leq(a, b) or sigma1_leq(b, a):
        raise ConfigurationError(
            "the pair must be strictly comparable (A strictly below B)"
        )
    code_b = learner.family.code_of(b)

    def play(horizon, last):
        builder = StreamBuilder(a)
        state = learner.initial_state()
        transcript = []
        switched_at = None
        for s in range(horizon):
            state, hyp = learner.step(state, builder.add_least_unused())
            transcript.append(hyp)
            if switched_at is None and hyp == code_b:
                if not builder.retarget(b):
                    return builder, "Inconclusive", {
                        "reason": "switch embedding not found"
                    }
                switched_at = s
        if switched_at is not None:
            return builder, "CorrectCodeEmitted", {
                "code": code_b, "stage": switched_at, "limit": b.key()
            }, _excerpt(transcript, [switched_at])
        if last:
            # the stream stayed a copy of A, and a code different from the
            # truth never appeared: the other face of the co-criterion
            return builder, "MissingCode", {
                "code": code_b, "limit": a.key()
            }, _excerpt(transcript)

    return _drive("adv_vs_co_comparable", learner, seed, start, cap, play)


def adv_vs_fin(
    learner, pair_members, seed=0, start=START_HORIZON, cap=HORIZON_CAP
):
    """Presents A until the learner commits, then (when the fragment still
    fits) completes the stream into B, stranding the commitment."""
    a, b = pair_members
    family = learner.family
    code_a = family.code_of(a)

    def play(horizon, last):
        builder = StreamBuilder(a)
        state = learner.initial_state()
        transcript = []
        commit = None
        limit = b
        for s in range(horizon):
            state, hyp = learner.step(state, builder.add_least_unused())
            transcript.append(hyp)
            if commit is None and hyp != QUESTION:
                commit = s
                if hyp != code_a:
                    # a wrong commitment on a faithful copy of A
                    limit = a
                elif not builder.retarget(b):
                    return builder, "Inconclusive", {
                        "reason": "committed fragment does not embed "
                        "into the second member",
                        "commit_stage": s,
                    }
        if commit is not None:
            return builder, "StuckWrong", {
                "commit_stage": commit,
                "final_hypothesis": transcript[-1],
                "truth_code": family.code_of(limit),
                "limit": limit.key(),
            }, _excerpt(transcript, [commit])
        if last:
            return builder, "NeverCommits", {
                "limit": a.key(), "truth_code": code_a
            }, _excerpt(transcript)

    return _drive("adv_vs_fin", learner, seed, start, cap, play)


def _plays(adversary, operator, rel):
    """ConfigurationError unless the operator reduces to relation `rel`."""
    if operator.tag != rel:
        raise ConfigurationError(
            "%s plays operators into %s, and %s reduces to %s"
            % (adversary, rel, type(operator).__name__, operator.tag)
        )


def _named(operator, fragments):
    """The operator's output prefix once it names its number, its first
    =N value, or once the fragments run out; and the last stage fed."""
    run = OperatorRun(operator)
    for s, fragment in enumerate(fragments):
        run.feed(fragment)
        if run.values:
            break
    return run.prefix(), s


def adv_vs_total_id_operator(
    operator, family, seed=0, start=START_HORIZON, cap=HORIZON_CAP
):
    """Feeds only isolated vertices until the operator's output names a
    number, then completes the stream into a member whose canonical
    output names a different one."""
    _plays("adv_vs_total_id_operator", operator, "eqnat")
    members = list(family)
    iso = parse_structure("iso_inf")

    def play(horizon, last):
        builder = StreamBuilder(iso)
        probe, s = _named(operator, (
            builder.add_least_unused() for _ in range(horizon)
        ))
        for member in members:
            verdict = check_prefix(operator.tag, probe, _named(operator, (
                canonical_fragment(member, t + 1) for t in range(horizon)
            ))[0])
            if verdict.kind == "DefinitelyDistinct":
                break
        else:
            member = None
        if member is not None and not builder.retarget(member):
            return builder, "Inconclusive", {
                "reason": "completion embedding not found"
            }
        for _ in range(s + 1, horizon):
            builder.add_least_unused()
        if member is not None:
            return builder, "PrefixDisagreement", {
                "position": verdict.position,
                "member": member.key(),
                "probe_stage": s,
            }
        if last:
            return builder, "Inconclusive", {
                "reason": "no output deviation on the isolated probe"
            }

    return _drive(
        "adv_vs_total_id_operator", operator, seed, start, cap, play
    )


def adv_vs_e3_operator_fstar(
    operator, seed=0, start=START_HORIZON, cap=HORIZON_CAP, needed=10
):
    """Grows a chain inside a padded infinite chain, extending it once per
    fresh column-0 disagreement with the operator's canonical run; probes
    the increasing branch first, then the decreasing one."""
    _plays("adv_vs_e3_operator_fstar", operator, "E3")
    for branch_key in ("tilde(omega)", "tilde(omega_star)"):
        target = parse_structure(branch_key)

        # each branch's rounds run before the loop moves on
        def play(horizon, last):
            ref = OperatorRun(operator, (
                canonical_fragment(target, s + 1) for s in range(horizon)
            )).runs(0)
            builder = StreamBuilder(target, (target,))
            run = OperatorRun(operator)
            disagreements = []
            chain_count = 0
            for s in range(horizon):
                # the chain (the right side) grows once per fresh
                # disagreement, padding (the left side) fills the rest
                want_chain = chain_count < len(disagreements) + 1
                frag = builder.add_least_unused(
                    right_side if want_chain else left_side
                )
                if want_chain:
                    chain_count += 1
                run.feed(frag)
                # output is append-only, so the rows that disagree stay so
                disagreements = [
                    r for lo, hi in mismatched_rows(run.runs(0), ref)
                    for r in range(lo, hi)
                ]
                if len(disagreements) >= needed:
                    return builder, "PrefixDisagreement", {
                        "branch": branch_key,
                        "column": 0,
                        "disagreement_rows": disagreements[:needed],
                    }
            if last and branch_key == "tilde(omega_star)":
                # no disagreement accumulated on either branch, and no
                # stream witnesses that: the certificate comes with none
                return StreamBuilder(target), "Inconclusive", {
                    "reason": "no accumulating column-0 disagreement on "
                    "either branch"
                }

        duel = _drive(
            "adv_vs_e3_operator_fstar", operator, seed, start, cap, play
        )
        if duel is not None:
            return duel
