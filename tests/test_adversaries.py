import itertools
import json
import pathlib
import random

import pytest

from limitlab.adversaries import (
    StreamBuilder,
    adv_vs_co_comparable,
    adv_vs_e3_operator_fstar,
    adv_vs_ex_rays,
    adv_vs_fin,
    adv_vs_nus_poset,
    adv_vs_total_id_operator,
)
from limitlab.catalog import Family, canonical_fragment, parse_structure
from limitlab.learners import QUESTION, ConfigurationError, Learner, run_on_stream
from limitlab import adversaries as A
from limitlab import harness as H
from limitlab import catalog, sigma1
from limitlab.reductions import GammaErange


def S(key):
    return parse_structure(key)


class ConstantLearner(Learner):
    def __init__(self, family, value):
        super().__init__(family)
        self.value = value

    def initial_state(self):
        return None

    def step(self, state, fragment):
        return None, self.value


class EmitAtStage(Learner):
    """Stays silent, then emits a fixed code from one stage onward."""

    def __init__(self, family, code, stage):
        super().__init__(family)
        self.code = code
        self.stage = stage

    def initial_state(self):
        return 0

    def step(self, state, fragment):
        hyp = self.code if state >= self.stage else QUESTION
        return state + 1, hyp


class TestExRaysAdversary:
    def test_defeats_min_embed(self):
        fam = H.get_family("rays")
        pres, cert = adv_vs_ex_rays(H.LEARNERS["ex_min_embed"](fam))
        assert cert.kind in ("InfinitelyManyMindChanges", "StuckWrong")
        assert cert.shape_audit_ok

    def test_shape_audit_flags_a_ray_beyond_the_family(self):
        # the stream's ray outgrows the one member within 40 stages
        fam = H.get_family("du(ray(2),iso_inf)")
        pres, cert = adv_vs_ex_rays(
            H.LEARNERS["ex_min_embed"](fam), start=16, cap=64
        )
        assert cert.shape_audit_ok is False

    def test_silent_learner_stuck(self):
        fam = H.get_family("rays")
        pres, cert = adv_vs_ex_rays(ConstantLearner(fam, QUESTION))
        assert cert.kind == "StuckWrong"

    def test_certificate_replays_on_stream(self):
        fam = H.get_family("rays")
        learner = H.LEARNERS["ex_min_embed"](fam)
        pres, cert = adv_vs_ex_rays(learner)
        replayed = run_on_stream(
            learner, [pres.restrict(s) for s in range(cert.horizon)]
        )
        for stage, hyp in cert.transcript_excerpt:
            assert replayed[stage] == hyp


class TestNusPosetAdversary:
    def test_abandon_return_vs_ex_poset(self):
        fam = H.get_family("posets")
        pres, cert = adv_vs_nus_poset(H.LEARNERS["ex_poset"](fam))
        assert cert.kind == "AbandonReturn"
        stages = cert.details["stages"]
        assert stages["first"] < stages["detour"] < stages["return"]

    def test_stuck_wrong_vs_decisive_transform(self):
        pres, cert = adv_vs_nus_poset(
            H.LEARNERS["dec_ex_poset"](H.get_family("posets"))
        )
        assert cert.kind == "StuckWrong"

    def test_deterministic(self):
        fam = H.get_family("posets")
        a = adv_vs_nus_poset(H.LEARNERS["ex_poset"](fam))[1]
        b = adv_vs_nus_poset(H.LEARNERS["ex_poset"](fam))[1]
        assert a == b


class TestCoComparableAdversary:
    def test_requires_strict_comparability(self):
        fam = H.get_family("cycles")
        with pytest.raises(ConfigurationError):
            adv_vs_co_comparable(
                ConstantLearner(fam, QUESTION),
                (fam.members[0], fam.members[1]),
            )

    def test_punishes_upper_code_emission(self):
        fam = H.get_family("tilde_chains")
        learner = EmitAtStage(fam, code=1, stage=6)
        pres, cert = adv_vs_co_comparable(
            learner, (fam.members[0], fam.members[1]), start=64, cap=128
        )
        assert cert.kind == "CorrectCodeEmitted"
        assert cert.details["code"] == 1

    def test_silence_becomes_missing_code(self):
        fam = H.get_family("tilde_chains")
        learner = ConstantLearner(fam, QUESTION)
        pres, cert = adv_vs_co_comparable(
            learner, (fam.members[0], fam.members[1]), start=32, cap=64
        )
        assert cert.kind == "MissingCode"


class TestFinAdversary:
    def test_wrong_commit_stuck(self):
        fam = H.get_family("tilde_chains")
        learner = ConstantLearner(fam, 1)
        pres, cert = adv_vs_fin(
            learner, (fam.members[0], fam.members[1]), start=64, cap=128
        )
        assert cert.kind == "StuckWrong"

    def test_never_committing_flagged(self):
        fam = H.get_family("tilde_chains")
        learner = ConstantLearner(fam, QUESTION)
        pres, cert = adv_vs_fin(
            learner, (fam.members[0], fam.members[1]), start=32, cap=64
        )
        assert cert.kind == "NeverCommits"

    def test_eager_commit_stranded(self):
        fam = H.get_family("tilde_chains")
        learner = EmitAtStage(fam, code=0, stage=0)
        pres, cert = adv_vs_fin(
            learner, (fam.members[0], fam.members[1]), start=64, cap=128
        )
        assert cert.kind == "StuckWrong"
        assert cert.details["truth_code"] == 1


class TestIdOperatorAdversary:
    def test_refutes_total_extension(self):
        fam = H.get_family("cycles")
        op = H.GAMMAS["gamma_fin_to_eqnat_total"](fam)
        pres, cert = adv_vs_total_id_operator(op, fam)
        assert cert.kind == "PrefixDisagreement"
        assert "position" in cert.details

    def test_deterministic(self):
        fam = H.get_family("cycles")
        op = H.GAMMAS["gamma_fin_to_eqnat_total"](fam)
        a = adv_vs_total_id_operator(op, fam)[1]
        b = adv_vs_total_id_operator(op, fam)[1]
        assert a == b


class ChainParityOperator:
    """An E3 operator whose column 0 leaks the current chain length
    parity, so its outputs depend on the revelation schedule and not just
    the limit structure."""

    tag = "E3"

    def initial(self):
        return None

    def step(self, state, fragment):
        from limitlab.learners import _EMPTY, _chain_ends, _order_summary
        from limitlab.pairing import pair

        emitted = 0 if state is None else state
        length = _chain_ends(_order_summary(_EMPTY, fragment))[0]
        top = pair(0, fragment.size)
        new = tuple(length % 2 for _ in range(emitted, top))
        return top, new


class TestE3OperatorAdversary:
    def test_gamma_e3_rejects_padded_omega_pair(self):
        with pytest.raises(ConfigurationError):
            H.GAMMAS["gamma_erange_to_e3"](H.get_family("fstar"))

    def test_schedule_dependent_operator_refuted(self):
        pres, cert = adv_vs_e3_operator_fstar(
            ChainParityOperator(), start=128, cap=256, needed=3
        )
        assert cert.kind == "PrefixDisagreement"
        assert len(cert.details["disagreement_rows"]) >= 3

    def test_sound_operator_not_falsely_accused(self):
        fam = H.get_family("tilde_chains")
        op = H.GAMMAS["gamma_erange_to_e3"](fam)
        pres, cert = adv_vs_e3_operator_fstar(op, start=128, cap=256, needed=3)
        assert cert.kind == "Inconclusive"


class TestStreamBuilder:
    @pytest.mark.parametrize("seed", range(30))
    def test_stream_is_induced_piece_of_current_target(self, seed):
        rng = random.Random(seed)
        targets = [S("tilde(poset_p(0))"), S("tilde(poset_p(2))")]
        # pads never run out, so each predicate always has a least index
        predicates = [
            None,
            lambda t: t[0] == "l",
            lambda t: t[0] == "l" or t[1] % 2 == 0,
        ]
        builder = StreamBuilder(targets[0])
        for _ in range(24):
            if rng.random() < 0.3:
                builder.retarget(rng.choice(targets))
            else:
                predicate = rng.choice(predicates)
                least = next(
                    i for i in itertools.count()
                    if i not in builder.indices
                    and (predicate is None
                         or predicate(builder.target.element(i)))
                )
                builder.add_least_unused(predicate)
                assert builder.indices[-1] == least
            if not builder.indices:
                continue
            frag = builder.fragments[-1]
            canon = canonical_fragment(
                builder.target, max(builder.indices) + 1
            )
            expected = canon.induced(builder.indices)
            assert frag.size == expected.size
            assert frag.tuple_set() == expected.tuple_set()


@pytest.mark.parametrize("duel,rel", [
    ("adv_vs_total_id_operator/gamma_erange", "eqnat"),
    ("adv_vs_total_id_operator/gamma_erange_to_e3", "eqnat"),
    ("adv_vs_e3_operator_fstar/gamma_erange", "E3"),
])
def test_operator_adversaries_play_only_their_relation(duel, rel):
    """An operator adversary refutes reductions to its own relation only:
    under E-range, say, a position where two runs differ refutes nothing.
    A direct call with another operator is a configuration error that
    names the adversary's relation, before any round is played."""
    with pytest.raises(ConfigurationError, match="into %s," % rel):
        _duel(duel, start=16, cap=64)


# every registered duel whose opponent builds on the adversary's default
# family: its certificate and stream length at seed 3, start 16, cap 64,
# recorded before every adversary's doubling rounds moved into `_drive`
PINS = json.loads(
    (pathlib.Path(__file__).parent / "duel_pins.json").read_text()
)
DEFAULT_FAMILY = {
    "adv_vs_ex_rays": "rays",
    "adv_vs_nus_poset": "posets",
    "adv_vs_co_comparable": "tilde_chains",
    "adv_vs_fin": "cycles",
    "adv_vs_total_id_operator": "cycles",
    "adv_vs_e3_operator_fstar": "tilde_chains",
}


def _stages(presentation):
    try:
        return presentation.builder(-1).size
    except IndexError:
        return 0


def _pinned_view(presentation, cert):
    return {
        "certificate": json.loads(json.dumps(cert.to_json())),
        "stages": _stages(presentation),
    }


def _duel(duel, **rounds):
    adversary, opponent = duel.split("/")
    family = H.get_family(DEFAULT_FAMILY[adversary])
    registry = H.LEARNERS if opponent in H.LEARNERS else H.GAMMAS
    args = {
        "adv_vs_co_comparable": (tuple(family.members[:2]),),
        "adv_vs_fin": (tuple(family.members[:2]),),
        "adv_vs_total_id_operator": (family,),
    }.get(adversary, ())
    return getattr(A, adversary)(
        registry[opponent](family), *args, seed=3, **rounds
    )


@pytest.mark.parametrize("duel", sorted(PINS))
def test_registered_duel_pinned(duel):
    presentation, cert = _duel(duel, start=16, cap=64)
    assert _pinned_view(presentation, cert) == PINS[duel]


@pytest.mark.parametrize("duel", sorted(PINS))
def test_run_duel_reads_the_duel_table(duel, monkeypatch):
    adversary, opponent = duel.split("/")
    play = getattr(A, adversary)
    monkeypatch.setattr(
        A, adversary,
        lambda *args, seed: play(*args, seed=seed, start=16, cap=64),
    )
    presentation, cert = H.run_duel(adversary, opponent, seed=3)
    assert _pinned_view(presentation, cert) == PINS[duel]


@pytest.mark.parametrize("adversary", H.ADVERSARIES)
@pytest.mark.parametrize(
    "start,cap", [(0, 64), (128, 64), (24, 64), (16, 48)]
)
def test_rounds_need_cap_at_start_times_power_of_two(adversary, start, cap):
    duel = next(d for d in sorted(PINS) if d.startswith(adversary + "/"))
    with pytest.raises(ValueError, match="cap = start"):
        _duel(duel, start=start, cap=cap)


def test_co_comparable_duel_against_nus_makes_no_rooted_search(monkeypatch):
    """A deterministic count of work: the bench duel of
    adv_vs_co_comparable against nus on tilde_chains presents
    tilde(chain(3)), whose padding elements are in no fact and whose chain
    elements have at most two neighbours, while every element of the
    learner's pending witness, a 4-chain, has three; so its stream watch
    makes no rooted embed_map call."""
    rooted = []
    real = sigma1.embed_map

    def counted(f, g, required=None):
        if required is not None:
            rooted.append(required)
        return real(f, g, required=required)

    monkeypatch.setattr(sigma1, "embed_map", counted)
    family = H.get_family("tilde_chains")
    _, cert = A.adv_vs_co_comparable(
        H.LEARNERS["nus"](family), family.members[:2],
        seed=1, start=128, cap=1024,
    )
    assert cert.kind == "MissingCode"
    assert rooted == []


@pytest.mark.parametrize("gamma", ["gamma_erange_to_e3"])
def test_default_e3_duel_never_steps_the_operator(gamma, monkeypatch):
    """A deterministic count of work: at its default start 512 and cap
    16,384 the E3 duel against gamma_erange_to_e3 reads column 0 of both
    runs from the operator's watch record, so it calls `step` not once
    and derives no output value: the first call fails the test, where a
    run that derived values at every stage would take time cubic in the
    cap.  Its canonical chains of 16,385 elements stay
    in a memo of their own, which goes with the test."""
    monkeypatch.setattr(catalog, "_canonical_chains", {})
    op = H.GAMMAS[gamma](H.get_family("tilde_chains"))

    def called(*args):
        raise AssertionError("the duel stepped or derived values")

    monkeypatch.setattr(GammaErange, "step", called)
    monkeypatch.setattr(op.record, "settled", staticmethod(called))
    _, cert = adv_vs_e3_operator_fstar(op)
    assert cert.kind == "Inconclusive"
