"""Stage-wise diagonalization builders.

Each adversary drives a learner (or operator) with a stream it constructs
on the fly, branching on the opponent's outputs, and returns the stream
plus a failure certificate.  Waits that the underlying argument makes
infinite are realized by horizon doubling up to a cap; hitting the cap
yields Inconclusive, never a fabricated certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .structures import embed_map
from .catalog import (
    Family,
    ReplayPresentation,
    TokenChain,
    audit_shape,
    canonical_fragment,
    fragment_embeds,
    parse_structure,
)
from .sigma1 import sigma1_leq
from .learners import QUESTION, ConfigurationError
from .reductions import outputs

START_HORIZON = 512
HORIZON_CAP = 2 ** 14


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
        return {
            "kind": self.kind,
            "adversary": self.adversary,
            "opponent": self.opponent,
            "seed": self.seed,
            "horizon": self.horizon,
            "details": self.details,
            "transcript_excerpt": list(self.transcript_excerpt),
            "shape_audit_ok": self.shape_audit_ok,
        }


class StreamBuilder(TokenChain):
    """Builds a monotone fragment stream as a growing induced piece of a
    target structure, with the ability to re-root the piece inside a new
    target whenever it embeds there."""

    def __init__(self, target):
        super().__init__(target)
        self.indices = []  # canonical index of each revealed element
        self._used = set()  # the same indices, for lookups
        self._low = 0  # every canonical index below it is revealed

    def add_index(self, idx):
        if idx in self._used:
            raise ValueError("canonical element %d already revealed" % idx)
        frag = self.push(self.target.element(idx))
        self.indices.append(idx)
        self._used.add(idx)
        return frag

    def add_least_unused(self, predicate=None):
        """Reveal the least unrevealed canonical element whose token meets
        the predicate, and return the new fragment."""
        while self._low in self._used:
            self._low += 1
        idx = self._low
        while idx in self._used or not (
            predicate is None or predicate(self.target.element(idx))
        ):
            idx += 1
        return self.add_index(idx)

    def retarget(self, new_target):
        """Re-root the current fragment inside a new target; True on
        success, False when no embedding is found at a saturated bound."""
        frag = self.fragments[-1]
        top = 2 * frag.size + new_target.param() + 8
        size = new_target.size()
        if size is not None:
            top = min(top, size)
        # canonical restrictions are nested, so the saturated one decides
        mapping = embed_map(frag, canonical_fragment(new_target, top))
        if mapping is None:
            return False
        self.indices = [mapping[e] for e in range(frag.size)]
        self._used, self._low = set(self.indices), 0
        # the same elements, named by the new target's tokens
        self.target, self.tokens, self.groups = new_target, [], {}
        for i in self.indices:
            self._file(new_target.element(i))
        return True

    def presentation(self, label):
        return ReplayPresentation(self.fragments[1:], label)


def _inconclusive(adversary, opponent, seed, horizon, details=None):
    return FailureCertificate(
        "Inconclusive", adversary, opponent, seed, horizon, details or {}
    )


def _excerpt(transcript, stages=None, width=12):
    marks = set(range(max(0, len(transcript) - width), len(transcript)))
    for s in stages or ():
        if s is not None:
            marks.update(range(max(0, s - 1), min(len(transcript), s + 2)))
    return tuple((s, transcript[s]) for s in sorted(marks))


def rays_family(max_ray=8):
    members = tuple(
        parse_structure("du(ray(%d),iso_inf)" % n) for n in range(2, max_ray + 1)
    ) + (parse_structure("du(ray,iso_inf)"),)
    return Family(members, name="rays", truncated_from="all finite rays")


def adv_vs_ex_rays(learner, seed=0, start=START_HORIZON, cap=HORIZON_CAP):
    """Extends the ray exactly when the learner conjectures the current
    finite ray; otherwise pads with isolated vertices."""
    family = learner.family
    ray_code = {}
    infinite_code = None
    for i, m in enumerate(family):
        key = m.key()
        if key.startswith("du(ray(") :
            ray_code[int(key[len("du(ray("):key.index(")")])] = i
        elif key == "du(ray,iso_inf)":
            infinite_code = i
    horizon = start
    while True:
        builder = StreamBuilder(parse_structure("du(ray,iso_inf)"))
        state = learner.initial_state()
        transcript = []
        expansionary = []
        ray_len = 0
        audit_ok = True
        for s in range(horizon):
            if s == 0 or s == 1:
                grow = True
            elif s % 2 == 1:
                grow = False
            else:
                prev_even = transcript[s - 2]
                grow = prev_even == ray_code.get(ray_len)
                if grow:
                    expansionary.append(s)
            if grow:
                frag = builder.add_least_unused(lambda t: t[0] == "l")
                ray_len += 1
            else:
                frag = builder.add_least_unused(lambda t: t[0] == "r")
            if s < 40 and not audit_shape(frag, list(family)):
                audit_ok = False
            state, hyp = learner.step(state, frag)
            transcript.append(hyp)
        name = "adv_vs_ex_rays"
        opponent = type(learner).__name__
        if len(expansionary) >= 10:
            return builder.presentation(name), FailureCertificate(
                "InfinitelyManyMindChanges", name, opponent, seed, horizon,
                {
                    "expansionary_stages": expansionary[-10:],
                    "ray_length": ray_len,
                },
                _excerpt(transcript, expansionary[-3:]),
                audit_ok,
            )
        if not expansionary or expansionary[-1] < horizon // 2:
            truth = ray_code.get(ray_len)
            return builder.presentation(name), FailureCertificate(
                "StuckWrong", name, opponent, seed, horizon,
                {
                    "final_hypothesis": transcript[-1],
                    "truth_code": truth,
                    "truth": "du(ray(%d),iso_inf)" % ray_len,
                },
                _excerpt(transcript),
                audit_ok,
            )
        if horizon >= cap:
            return builder.presentation(name), _inconclusive(
                name, opponent, seed, horizon
            )
        horizon *= 2


def poset_family(max_k=4):
    members = tuple(
        parse_structure("tilde(poset_p(%d))" % k) for k in range(max_k + 1)
    )
    return Family(members, name="posets", truncated_from="all ladder posets")


def adv_vs_nus_poset(learner, seed=0, start=START_HORIZON, cap=HORIZON_CAP):
    """Builds the infinite ladder until conjectured, detours through a
    finite one, then returns, forcing an abandoned-and-resumed code."""
    family = learner.family
    codes = {}
    for i, m in enumerate(family):
        key = m.key()
        codes[int(key[len("tilde(poset_p("):-2])] = i
    p0 = family.members[codes[0]]
    name = "adv_vs_nus_poset"
    opponent = type(learner).__name__
    horizon = start
    while True:
        builder = StreamBuilder(p0)
        state = learner.initial_state()
        transcript = []
        phase = 0
        detour_code = None
        stages = {}
        audit_ok = True
        for s in range(horizon):
            frag = builder.add_least_unused()
            if s < 40 and not fragment_embeds(frag, p0):
                audit_ok = False
            state, hyp = learner.step(state, frag)
            transcript.append(hyp)
            if phase == 0 and hyp == codes[0]:
                ks = [k for k in sorted(codes) if k > 0]
                target = None
                for k in ks:
                    cand = family.members[codes[k]]
                    if fragment_embeds(frag, cand):
                        target = (k, cand)
                        break
                if target is None:
                    return builder.presentation(name), _inconclusive(
                        name, opponent, seed, horizon,
                        {"reason": "fragment outgrew every finite member"},
                    )
                builder.retarget(target[1])
                detour_code = codes[target[0]]
                stages["first"] = s
                phase = 1
            elif phase == 1 and hyp == detour_code:
                if not builder.retarget(p0):
                    return builder.presentation(name), _inconclusive(
                        name, opponent, seed, horizon,
                        {"reason": "return embedding not found"},
                    )
                stages["detour"] = s
                phase = 2
            elif phase == 2 and hyp == codes[0]:
                stages["return"] = s
                return builder.presentation(name), FailureCertificate(
                    "AbandonReturn", name, opponent, seed, horizon,
                    {"code": codes[0], "stages": stages},
                    _excerpt(
                        transcript,
                        [stages["first"], stages["detour"], s],
                    ),
                    audit_ok,
                )
        # an unfinished wait: if the hypothesis has settled on something
        # other than the code the wait is for, the learner is stranded on
        # the stream's limit
        expected = {0: codes[0], 1: detour_code, 2: codes[0]}[phase]
        truth = detour_code if phase == 1 else codes[0]
        tail = transcript[horizon // 2:]
        if all(h == tail[0] for h in tail) and tail[0] != expected:
            return builder.presentation(name), FailureCertificate(
                "StuckWrong", name, opponent, seed, horizon,
                {
                    "final_hypothesis": transcript[-1],
                    "truth_code": truth,
                    "stages": stages,
                },
                _excerpt(transcript, list(stages.values())),
                audit_ok,
            )
        if horizon >= cap:
            return builder.presentation(name), _inconclusive(
                name, opponent, seed, horizon, {"phase": phase}
            )
        horizon *= 2


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
    family = learner.family
    code_b = family.code_of(b)
    name = "adv_vs_co_comparable"
    opponent = type(learner).__name__
    horizon = start
    while True:
        builder = StreamBuilder(a)
        state = learner.initial_state()
        transcript = []
        switched_at = None
        for s in range(horizon):
            state, hyp = learner.step(state, builder.add_least_unused())
            transcript.append(hyp)
            if switched_at is None and hyp == code_b:
                if not builder.retarget(b):
                    return builder.presentation(name), _inconclusive(
                        name, opponent, seed, horizon,
                        {"reason": "switch embedding not found"},
                    )
                switched_at = s
        if switched_at is not None:
            return builder.presentation(name), FailureCertificate(
                "CorrectCodeEmitted", name, opponent, seed, horizon,
                {"code": code_b, "stage": switched_at, "limit": b.key()},
                _excerpt(transcript, [switched_at]),
            )
        if horizon >= cap:
            # the stream stayed a copy of A, and a code different from the
            # truth never appeared: the other face of the co-criterion
            return builder.presentation(name), FailureCertificate(
                "MissingCode", name, opponent, seed, horizon,
                {"code": code_b, "limit": a.key()},
                _excerpt(transcript),
            )
        horizon *= 2


def adv_vs_fin(
    learner, pair_members, seed=0, start=START_HORIZON, cap=HORIZON_CAP
):
    """Presents A until the learner commits, then (when the fragment still
    fits) completes the stream into B, stranding the commitment."""
    a, b = pair_members
    family = learner.family
    code_a = family.code_of(a)
    code_b = family.code_of(b)
    name = "adv_vs_fin"
    opponent = type(learner).__name__
    horizon = start
    while True:
        builder = StreamBuilder(a)
        state = learner.initial_state()
        transcript = []
        commit = None
        for s in range(horizon):
            state, hyp = learner.step(state, builder.add_least_unused())
            transcript.append(hyp)
            if commit is None and hyp != QUESTION:
                commit = (s, hyp)
                if hyp != code_a:
                    # wrong commitment on a faithful copy of A
                    for t in range(s + 1, horizon):
                        state, h2 = learner.step(
                            state, builder.add_least_unused()
                        )
                        transcript.append(h2)
                    return builder.presentation(name), FailureCertificate(
                        "StuckWrong", name, opponent, seed, horizon,
                        {
                            "commit_stage": s,
                            "final_hypothesis": transcript[-1],
                            "truth_code": code_a,
                            "limit": a.key(),
                        },
                        _excerpt(transcript, [s]),
                    )
                if not builder.retarget(b):
                    return builder.presentation(name), _inconclusive(
                        name, opponent, seed, horizon,
                        {
                            "reason": "committed fragment does not embed "
                            "into the second member",
                            "commit_stage": s,
                        },
                    )
        if commit is not None:
            return builder.presentation(name), FailureCertificate(
                "StuckWrong", name, opponent, seed, horizon,
                {
                    "commit_stage": commit[0],
                    "final_hypothesis": transcript[-1],
                    "truth_code": code_b,
                    "limit": b.key(),
                },
                _excerpt(transcript, [commit[0]]),
            )
        if horizon >= cap:
            return builder.presentation(name), FailureCertificate(
                "NeverCommits", name, opponent, seed, horizon,
                {"limit": a.key(), "truth_code": code_a},
                _excerpt(transcript),
            )
        horizon *= 2


def adv_vs_total_id_operator(
    operator, family, seed=0, start=START_HORIZON, cap=HORIZON_CAP
):
    """Feeds only isolated vertices until the operator's output takes a
    side, then completes the stream into the member it disagreed with."""
    members = list(family)
    name = "adv_vs_total_id_operator"
    opponent = type(operator).__name__
    iso = parse_structure("iso_inf")
    horizon = start
    while True:
        refs = [
            outputs(operator, (
                canonical_fragment(m, s + 1) for s in range(horizon)
            ))
            for m in members
        ]
        builder = StreamBuilder(iso)
        state, out = operator.initial(), []
        # outputs are append-only: positions below checked[i] agree with
        # reference i for good
        checked = [0] * len(refs)
        disagreement = None
        for s in range(horizon):
            state, new = operator.step(state, builder.add_least_unused())
            out.extend(new)
            for i, ref in enumerate(refs):
                k = min(len(out), len(ref))
                for p in range(checked[i], k):
                    if out[p] != ref[p]:
                        disagreement = (i, p, s)
                        break
                if disagreement:
                    break
                checked[i] = k
            if disagreement:
                break
        if disagreement is not None:
            i, p, s = disagreement
            if not builder.retarget(members[i]):
                return builder.presentation(name), _inconclusive(
                    name, opponent, seed, horizon,
                    {"reason": "completion embedding not found"},
                )
            for t in range(s + 1, horizon):
                state, new = operator.step(state, builder.add_least_unused())
                out.extend(new)
            return builder.presentation(name), FailureCertificate(
                "PrefixDisagreement", name, opponent, seed, horizon,
                {
                    "position": p,
                    "member": members[i].key(),
                    "probe_stage": s,
                },
            )
        if horizon >= cap:
            return builder.presentation(name), _inconclusive(
                name, opponent, seed, horizon,
                {"reason": "no output deviation on the isolated probe"},
            )
        horizon *= 2


def adv_vs_e3_operator_fstar(
    operator, seed=0, start=START_HORIZON, cap=HORIZON_CAP, needed=10
):
    """Grows a chain inside a padded infinite chain, extending it once per
    fresh column-0 disagreement with the operator's canonical run; probes
    the increasing branch first, then the decreasing one."""
    from .pairing import pair

    name = "adv_vs_e3_operator_fstar"
    opponent = type(operator).__name__
    for branch_key in ("tilde(omega)", "tilde(omega_star)"):
        target = parse_structure(branch_key)
        horizon = start
        while horizon <= cap:
            ref_out = outputs(operator, (
                canonical_fragment(target, s + 1) for s in range(horizon)
            ))
            builder = StreamBuilder(target)
            state, out = operator.initial(), []
            disagreements = []
            checked = 0
            audit_ok = True
            chain_count = 0
            for s in range(horizon):
                # inner-chain tokens are tagged "x", padding "p"; the chain
                # grows once per fresh disagreement, padding fills the rest
                want_chain = chain_count < len(disagreements) + 1
                frag = builder.add_least_unused(
                    lambda t: (t[0] == "x") == want_chain
                )
                if want_chain:
                    chain_count += 1
                if s < 40 and not fragment_embeds(frag, target):
                    audit_ok = False
                state, new = operator.step(state, frag)
                out.extend(new)
                r = checked
                while True:
                    flat = pair(0, r)
                    if flat >= len(out) or flat >= len(ref_out):
                        break
                    if out[flat] != ref_out[flat]:
                        disagreements.append(r)
                    r += 1
                checked = r
                if len(disagreements) >= needed:
                    return builder.presentation(name), FailureCertificate(
                        "PrefixDisagreement", name, opponent, seed, horizon,
                        {
                            "branch": branch_key,
                            "column": 0,
                            "disagreement_rows": disagreements[:needed],
                        },
                        shape_audit_ok=audit_ok,
                    )
            horizon *= 2
    return ReplayPresentation([], name), _inconclusive(
        name, opponent, seed, cap,
        {"reason": "no accumulating column-0 disagreement on either branch"},
    )
