import copy
import itertools

import pytest

from limitlab.catalog import Family, Presentation, parse_structure
from limitlab.learners import (
    QUESTION,
    ConfigurationError,
    DecisiveTransform,
    ExMinEmbedLearner,
    ExMinMaxLearner,
    ExPosetLearner,
    PlFstarLearner,
    run,
    run_on_stream,
)
from limitlab.pairing import unpair
from limitlab import harness as H

from _decisive import decisive_stream


def S(key):
    return parse_structure(key)


def tail_value(transcript, tail=32):
    vals = set(transcript[-tail:])
    assert len(vals) == 1, "tail not settled: %s" % sorted(map(str, vals))
    return vals.pop()


def no_abandon_return(seq):
    abandoned = set()
    last = None
    for h in seq:
        if h == QUESTION:
            continue
        if h in abandoned:
            return False
        if last is not None and h != last:
            abandoned.add(last)
        last = h
    return True


class TestExMinMax:
    def test_converges_both_ways(self):
        fam = Family((S("omega"), S("omega_star")))
        learner = ExMinMaxLearner(fam)
        for code in (0, 1):
            transcript = run(learner, Presentation(fam.members[code], 9), 200)
            assert tail_value(transcript) == code

    def test_rejects_other_families(self):
        with pytest.raises(ConfigurationError):
            ExMinMaxLearner(Family((S("omega"), S("zeta"))))

    def test_deterministic(self):
        fam = Family((S("omega"), S("omega_star")))
        learner = ExMinMaxLearner(fam)
        a = run(learner, Presentation(S("omega"), 3), 100)
        b = run(learner, Presentation(S("omega"), 3), 100)
        assert a == b

    def test_summaries_reset_on_a_switched_copy(self):
        # stage 15 of the second copy is larger than stage 14 of the first
        # but does not extend it; the carried masks must be the current
        # fragment's, as a fresh learner reads them
        fam = Family((S("omega"), S("omega_star")))
        learner = ExMinMaxLearner(fam)
        up = Presentation(S("omega"), 3)
        down = Presentation(S("omega_star"), 5)
        stream = [up.restrict(s) for s in range(15)]
        stream += [down.restrict(s) for s in range(15, 30)]
        state = learner.initial_state()
        for fragment in stream:
            state, _ = learner.step(state, fragment)
            fresh, _ = learner.step(learner.initial_state(), fragment)
            assert state[3:] == fresh[3:]


class TestFin:
    def test_commits_once_correctly(self):
        fam = H.get_family("cycles")
        learner = H.LEARNERS["fin"](fam)
        for code in (0, 1):
            transcript = run(learner, Presentation(fam.members[code], 2), 150)
            committed = [h for h in transcript if h != QUESTION]
            assert committed
            assert set(committed) == {code}

    def test_refuses_comparable_family(self):
        with pytest.raises(ConfigurationError):
            H.LEARNERS["fin"](H.get_family("tilde_chains"))


class TestCo:
    def test_omits_exactly_the_truth(self):
        fam = H.get_family("cyc_comp")
        learner = H.LEARNERS["co"](fam)
        transcript = run(learner, Presentation(fam.members[1], 1), 400)
        emitted = set(h for h in transcript if h != QUESTION)
        assert emitted == {0, 2, 3}

    def test_refuses_comparable_family(self):
        with pytest.raises(ConfigurationError):
            H.LEARNERS["co"](H.get_family("tilde_chains"))


class TestNus:
    def test_never_abandons_truth(self):
        fam = H.get_family("tilde_chains")
        learner = H.LEARNERS["nus"](fam)
        for code in (0, 1):
            transcript = run(learner, Presentation(fam.members[code], 4), 200)
            assert tail_value(transcript) == code
            if code in transcript:
                first = transcript.index(code)
                assert all(h == code for h in transcript[first:])


class TestDecisive:
    def test_frozen_trace(self):
        assert decisive_stream(["a", "b", "a", "a"]) == ["a", "b", "b", "b"]

    def test_exhaustive_no_abandon_return(self):
        symbols = ["a", "b", "c"]
        for length in range(7):
            for seq in itertools.product(symbols, repeat=length):
                out = decisive_stream(list(seq))
                assert len(out) == length
                assert no_abandon_return(out)

    def test_random_streams(self):
        import random

        rng = random.Random(42)
        symbols = ["a", "b", "c", "d", QUESTION]
        for _ in range(1000):
            seq = [rng.choice(symbols) for _ in range(rng.randint(0, 30))]
            out = decisive_stream(seq)
            assert no_abandon_return(out)

    def test_preserves_stable_limits(self):
        seq = ["a", "b", "a", "c", "c", "c", "c", "c"]
        out = decisive_stream(seq)
        assert out[-3:] == [out[-1]] * 3
        assert no_abandon_return(out)

    def test_transform_matches_stream_function(self):
        fam = H.get_family("posets")
        inner = ExPosetLearner(fam)
        wrapped = DecisiveTransform(inner)
        pres = Presentation(fam.members[2], 1)
        raw = run(inner, pres, 80)
        cooked = run(wrapped, pres, 80)
        assert cooked == decisive_stream(raw)


class TestExPoset:
    def test_identifies_each_member(self):
        fam = H.get_family("posets")
        learner = ExPosetLearner(fam)
        for code in range(len(fam)):
            transcript = run(learner, Presentation(fam.members[code], 6), 150)
            assert tail_value(transcript) == code


class TestExMinEmbed:
    def test_converges_on_chain_family(self):
        fam = H.get_family("padded_chains")
        learner = ExMinEmbedLearner(fam)
        transcript = run(learner, Presentation(fam.members[3], 1), 150)
        assert tail_value(transcript) == 3

    def test_rejects_unordered_family(self):
        with pytest.raises(ConfigurationError):
            ExMinEmbedLearner(Family((S("omega"), S("omega_star"))))


class TestPlFstar:
    def test_truth_recurs(self):
        fam = H.get_family("fstar")
        learner = PlFstarLearner(fam)
        for code in (0, 1, 4):
            transcript = run(learner, Presentation(fam.members[code], 2), 300)
            window = 50
            for start in range(150, 300 - window + 1, 25):
                assert code in transcript[start:start + window]
            late_wrong = [
                h for h in transcript[150:] if h not in (code, QUESTION)
            ]
            assert late_wrong == []


class TestPlPairwise:
    def test_truth_recurs_on_omega_pair(self):
        fam = H.get_family("omega_pair")
        learner = H.LEARNERS["pl_pairwise"](fam)
        transcript = run(learner, Presentation(fam.members[0], 5), 600)
        for start in range(300, 551, 50):
            assert 0 in transcript[start:start + 50]
        assert all(h in (0, QUESTION) for h in transcript[300:])


def reference_pl_pairwise(family, fragments):
    """The pairwise PL rule, spelled out: every duel's full history of
    cumulative counts per code, and at slot (i, k) a search over k' = 1 ..
    k - 1 for a k' above the learner's own count of i such that the duel
    of i against every other member j <= k' has, by stage k, conjectured
    i more often than the learner has emitted it.  A count read beyond
    the stages run so far is the last one."""
    n = len(family)
    chains = sorted(m.key() for m in family) == ["omega", "omega_star"]
    duel_class = ExMinMaxLearner if chains else ExMinEmbedLearner
    duels, states, history = {}, {}, {}
    for i, j in itertools.combinations(range(n), 2):
        duels[i, j] = duel_class(
            Family((family.members[i], family.members[j]))
        )
        states[i, j] = duels[i, j].initial_state()
        history[i, j] = {i: [], j: []}
    own = [0] * n
    transcript = []
    for fragment in fragments:
        for key, duel in duels.items():
            states[key], h = duel.step(states[key], fragment)
            for local, code in enumerate(key):
                counts = history[key][code]
                counts.append((counts[-1] if counts else 0) + (h == local))

        def count(i, j, stage):
            counts = history[min(i, j), max(i, j)][i]
            return counts[min(stage, len(counts) - 1)]

        i, k = unpair(fragment.size - 1)
        hyp = QUESTION
        if i < n and k > 0 and n == 1:
            hyp = 0
        elif i < n and k > 0:
            for k_prime in range(1, k):
                rivals = [j for j in range(min(k_prime, n - 1) + 1) if j != i]
                if own[i] < k_prime and all(
                    own[i] < count(i, j, k) for j in rivals
                ):
                    hyp = i
                    break
        if hyp != QUESTION:
            own[hyp] += 1
        transcript.append(hyp)
    return transcript


#: stages of a stream that skips sizes: early jumps put the slot's stage
#: coordinate beyond the stages run so far
SKIPPING = [0, 9, 29] + list(range(30, 80)) + list(range(80, 200, 6))


@pytest.mark.parametrize("name", ["omega_pair", "rays", "tilde_chains", "omega"])
def test_pl_pairwise_matches_reference(name):
    fam = H.get_family(name)
    learner = H.LEARNERS["pl_pairwise"](fam)
    emitted = set()
    for code, member in enumerate(fam.members):
        for seed in (1, 2):
            pres = Presentation(member, seed)
            for stages in (range(80), SKIPPING):
                stream = [pres.restrict(s) for s in stages]
                transcript = run_on_stream(learner, stream)
                assert transcript == reference_pl_pairwise(fam, stream)
                emitted.update(transcript)
    # every member's code is emitted somewhere, so the rule was exercised
    assert emitted - {QUESTION} == set(range(len(fam)))


# a family each registered learner builds on
PURITY_FAMILIES = {
    "ex_minmax": "omega_pair",
    "fin": "cycles",
    "co": "cyc_comp",
    "nus": "tilde_chains",
    "dec_nus": "tilde_chains",
    "pl_pairwise": "omega_pair",
    "pl_fstar": "fstar",
    "ex_poset": "posets",
    "dec_ex_poset": "posets",
    "ex_min_embed": "padded_chains",
    "id_to_co": "cycles",
}


def test_purity_families_cover_every_learner():
    assert set(PURITY_FAMILIES) == set(H.LEARNERS)


@pytest.mark.parametrize("name", sorted(PURITY_FAMILIES))
def test_step_is_pure(name):
    fam = H.get_family(PURITY_FAMILIES[name])
    learner = H.LEARNERS[name](fam)
    presentation = Presentation(fam.members[0], 3)
    other = Presentation(fam.members[-1], 5)
    one_copy = [presentation.restrict(s) for s in range(30)]
    # switching copies partway: stage 15 does not extend stage 14, which
    # sends every learner down its reset path
    switched = one_copy[:15] + [other.restrict(s) for s in range(15, 30)]
    for stream in (one_copy, switched):
        state = learner.initial_state()
        for s, fragment in enumerate(stream):
            snapshot = copy.deepcopy(state)
            first = learner.step(state, fragment)
            assert learner.step(state, fragment) == first
            assert state == snapshot, "step mutated its input at stage %d" % s
            state = first[0]
