import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from limitlab.catalog import (
    Family,
    Presentation,
    ReplayPresentation,
    canonical_fragment,
    fragment_embeds,
    parse_structure,
    strict_order_relation,
)
from limitlab.learners import (
    QUESTION,
    ConfigurationError,
    DecisiveTransform,
    ExMinEmbedLearner,
    ExMinMaxLearner,
    ExPosetLearner,
    IdToCoLearner,
    PlFstarLearner,
    WitnessInconsistencyError,
    _EMPTY,
    _chain_ends,
    _order_summary,
    run,
    run_on_stream,
)
from limitlab.structures import FiniteFragment, iter_bits
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
        # a replayed stream whose last element closes a triangle and an
        # induced 3-path at once makes both separating formulas hold
        f1 = FiniteFragment(0).extended(0, 0)
        f2 = f1.extended(1, 1)
        f3 = f2.extended(0, 0)
        f4 = f3.extended(0b111, 0b111)
        replay = ReplayPresentation([f1, f2, f3, f4])
        with pytest.raises(WitnessInconsistencyError):
            run(learner, replay, 4)

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


    def test_keeps_its_conjecture_when_no_member_holds(self):
        # a 5-chain leaves the age of both padded chains; from then on no
        # code fits and the last conjecture stands
        fam = H.get_family("tilde_chains")
        pres = Presentation(S("tilde(chain(5))"), 1)
        stream = [pres.restrict(s) for s in range(60)]
        transcript = run_on_stream(H.LEARNERS["nus"](fam), stream)
        outside = [
            s for s, frag in enumerate(stream)
            if not any(fragment_embeds(frag, m) for m in fam)
        ]
        assert len(outside) == 52
        for s in outside:
            assert transcript[s] == transcript[s - 1]
        assert transcript[-1] == 1


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

    def test_chain_pair_duel_is_chosen_per_pair(self):
        """The two infinite chains have equal existential theories, so
        only their pair gets the min/max duel; a family that also holds
        a padded chain builds, and its truth recurs on every member."""
        fam = H.get_family("omega,omega_star,tilde(chain(3))")
        learner = H.LEARNERS["pl_pairwise"](fam)
        assert [type(d) for d in learner.duels] == [
            ExMinMaxLearner, ExMinEmbedLearner, ExMinEmbedLearner
        ]
        for code, member in enumerate(fam.members):
            transcript = run(learner, Presentation(member, 5), 600)
            for start in range(300, 551, 50):
                assert code in transcript[start:start + 50]
            assert all(h in (code, QUESTION) for h in transcript[300:])
        with pytest.raises(ConfigurationError, match="equal theories"):
            ExMinEmbedLearner(Family(fam.members[:2]))


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


def reference_levels(fragment):
    """The height levels of a strict order fragment's linked elements,
    from its full masks: levels[k] holds the elements whose longest chain
    has k + 1 elements."""
    succ, pred = strict_order_relation(fragment)
    levels = []
    for e in sorted(
        iter_bits(fragment.linked_mask()), key=lambda e: pred[e].bit_count()
    ):
        k = len(levels)
        while k and not pred[e] & levels[k - 1]:
            k -= 1
        if k == len(levels):
            levels.append(0)
        levels[k] |= 1 << e
    return tuple(levels)


def reference_longest_chain(fragment):
    """The chain summary as the learner computed it before it carried an
    order summary: from the fragment's full masks at every stage."""
    masks = strict_order_relation(fragment)
    if masks is None:
        return 0, None, None
    succ, pred = masks
    comp = list(iter_bits(fragment.linked_mask()))
    if not comp:
        return 0, None, None
    lo = min(e for e in comp if not pred[e])
    hi = min(e for e in comp if not succ[e])
    return len(reference_levels(fragment)), lo, hi


def reference_root(fragment):
    """Whether a strict order fragment has a root: an element b such that
    every other linked element is above b except one, which is below b."""
    masks = strict_order_relation(fragment)
    if masks is None:
        return False
    succ, pred = masks
    comp = fragment.linked_mask()
    for b in iter_bits(comp):
        rest = comp & ~succ[b] & ~(1 << b)
        if rest.bit_count() == 1 and succ[rest.bit_length() - 1] >> b & 1:
            return True
    return False


def reference_masks(fragment):
    """The summary's masks of a strict order fragment, from its full
    masks: linked, minimal, maximal, comparable to every other linked
    element, with several strict predecessors."""
    succ, pred = strict_order_relation(fragment)
    linked = fragment.linked_mask()
    elems = list(iter_bits(linked))

    def mask(holds):
        return sum(1 << e for e in elems if holds(e))

    return (
        linked,
        mask(lambda e: not pred[e]),
        mask(lambda e: not succ[e]),
        mask(lambda e: succ[e] | pred[e] | 1 << e == linked),
        mask(lambda e: pred[e].bit_count() > 1),
    )


def summary_streams(family, horizon=60):
    """Per member and seed, the streams on which a carried summary must
    answer as the stagewise references do: the full presentation, every
    third stage, a switch to another copy at the midpoint, a restart, and
    copies that own their masks."""
    mid = horizon // 2
    for code, member in enumerate(family.members):
        for seed in (1, 2):
            pres = Presentation(member, seed)
            other = Presentation(family.members[code - 1], seed + 2)
            full = [pres.restrict(s) for s in range(horizon)]
            yield full
            yield full[::3]
            yield full[:mid] + [
                other.restrict(s) for s in range(mid, horizon)
            ]
            yield full[:10] + full[5:]
            yield [FiniteFragment.from_tuples(f.size, f.tuples())
                   for f in full]


def reference_pl_fstar(learner, stream):
    """The PL rule of the padded chains on the reference chain summary."""
    prev_n, count_min, count_max, transcript = None, {}, {}, []
    for fragment in stream:
        n, lo, hi = reference_longest_chain(fragment)
        for count, end in ((count_min, lo), (count_max, hi)):
            if end is not None:
                count[end] = count.get(end, 0) + 1
        if prev_n is None:
            hyp = learner.code_up
        elif n == prev_n and n in learner.chain_codes:
            hyp = learner.chain_codes[n]
        elif count_min.get(lo, 0) >= count_max.get(hi, 0):
            hyp = learner.code_up
        else:
            hyp = learner.code_down
        prev_n = n
        transcript.append(hyp)
    return transcript


def reference_ex_poset(learner, stream):
    """The ladder rule on the reference root test."""
    watch, state, transcript = learner.watch, learner.watch.initial(), []
    for fragment in stream:
        state = watch.advance(state, fragment)
        code = learner.codes[0] if reference_root(fragment) else None
        if code is None:
            code, state = watch.first_inside(state, learner.finite)
        transcript.append(QUESTION if code is None else code)
    return transcript


@pytest.mark.parametrize("name", ["fstar", "posets", "cycles"])
def test_summary_learners_match_their_reference_rules(name):
    """Both learners that carry an order summary give the transcripts of
    their stagewise rules, also on streams of other families: the ladder
    posets reach the chain learner's rebuild of the levels."""
    pl_fstar = PlFstarLearner(H.get_family("fstar"))
    ex_poset = ExPosetLearner(H.get_family("posets"))
    for stream in summary_streams(H.get_family(name), horizon=40):
        assert run_on_stream(pl_fstar, stream) == reference_pl_fstar(
            pl_fstar, stream
        )
        assert run_on_stream(ex_poset, stream) == reference_ex_poset(
            ex_poset, stream
        )


def check_summary_stream(stream):
    """Step the order summary along the stream and check it against the
    full-mask references at every stage; the paths it took."""
    carried, seen = _EMPTY, set()
    for fragment in stream:
        carried = _order_summary(carried, fragment)
        summary = carried[1]
        order = summary or _EMPTY[1]
        root = order.comparable & ~(order.minimal | order.several_pred)
        assert bool(root) == reference_root(fragment)
        ends = _chain_ends(carried)
        assert ends == reference_longest_chain(fragment)
        assert ends == _chain_ends(_order_summary(_EMPTY, fragment))
        if summary is None:
            seen.add("no order")
            continue
        assert summary == reference_masks(fragment)
        if summary.comparable != summary.linked:
            # no chain, so `_chain_ends` walks the predecessor rows; the
            # caller asserts on this label
            seen.add("levels dropped")
    return seen


@pytest.mark.parametrize("name", ["fstar", "posets", "cycles"])
def test_carried_summary_matches_the_stagewise_reference(name):
    """The carried order summary answers what the full-mask reference
    answers at every stage: on chains, on the ladder posets (which are no
    chains, so the levels are rebuilt), and on graphs (no order at all)."""
    seen = set()
    for stream in summary_streams(H.get_family(name)):
        seen |= check_summary_stream(stream)
    # graphs stop being orders at their first edge; the ladder posets,
    # unlike the chains, have linked elements comparable to some others
    # only, which drops the levels
    assert ("no order" in seen) == (name == "cycles")
    assert ("levels dropped" in seen) == (name == "posets")


def reference_id_to_co(family, operator, stream):
    """The refutation rule re-slicing both outputs in full at every stage;
    the output on a finite member's canonical stream stops growing once
    the stream outgrows the member."""
    mine = (operator.initial(), [])
    refs = [(operator.initial(), []) for _ in family.members]
    emitted, transcript = set(), []
    for fragment in stream:
        state, new = operator.step(mine[0], fragment)
        mine = (state, mine[1] + list(new))
        for i, member in enumerate(family.members):
            if member.size() is None or fragment.size <= member.size():
                own = canonical_fragment(member, fragment.size)
                state, new = operator.step(refs[i][0], own)
                refs[i] = (state, refs[i][1] + list(new))
        hyp = QUESTION
        for i in range(len(family)):
            a, b = mine[1], refs[i][1]
            k = min(len(a), len(b))
            if i not in emitted and a[:k] != b[:k]:
                hyp = i
                emitted.add(i)
                break
        transcript.append(hyp)
    return transcript


class LinkedOperator:
    """Emits, for each element not yet covered, whether it is in some
    fact of the current fragment: outputs that disagree at scattered
    positions, several of them per stage on a stream that skips sizes."""

    def initial(self):
        return 0

    def step(self, emitted, fragment):
        linked = fragment.linked_mask()
        new = tuple(linked >> p & 1 for p in range(emitted, fragment.size))
        return max(emitted, fragment.size), new


def test_id_to_co_matches_the_reslicing_rule_past_a_finite_member():
    """Member 0 has four elements, so from stage 4 on its reference output
    is frozen; it is refuted on the other members' streams, which also
    switch copies and skip sizes.  The family's own operator emits
    constant sequences, so a second operator makes the outputs disagree
    at positions inside a stage's new ones."""
    fam = H.get_family("cycle(4),du(cycle(3),iso_inf),du(cycle(5),iso_inf)")
    late = 0
    for learner in (
        H.LEARNERS["id_to_co"](fam), IdToCoLearner(fam, LinkedOperator())
    ):
        for code in (1, 2):
            for seed in (1, 2, 3):
                pres = Presentation(fam.members[code], seed)
                other = Presentation(fam.members[3 - code], seed)
                full = [pres.restrict(s) for s in range(40)]
                switched = full[:20] + [
                    other.restrict(s) for s in range(20, 40)
                ]
                for stream in (full, switched, full[::3], full[1::4]):
                    transcript = run_on_stream(learner, stream)
                    assert transcript == reference_id_to_co(
                        fam, learner.operator, stream
                    )
                    if 0 in transcript:
                        stage = transcript.index(0)
                        late += stream[stage].size > fam.members[0].size()
    assert late > 0


def test_id_to_co_carries_a_bounded_output_tail():
    """id_to_co on each cycles member over 1,024 stages: every run in its
    state, the stream's own and each member's, carries at most 7 output
    positions, those a later comparison can still read, while the
    outputs grow by one position a stage."""
    family = H.get_family("cycles")
    learner = H.LEARNERS["id_to_co"](family)
    longest = 0
    for member in family:
        state, pres = learner.initial_state(), Presentation(member, 1)
        for s in range(1024):
            state, _ = learner.step(state, pres.restrict(s))
            runs = (state["mine"],) + state["refs"]
            longest = max(longest, *(len(run[-1]) for run in runs))
    assert longest == 7


@pytest.mark.parametrize("name, family, members", [
    ("ex_min_embed", "padded_chains", None),
    ("ex_min_embed", "rays", None),
    ("pl_pairwise", "rays", ["du(ray,iso_inf)"]),
])
def test_padded_ages_copy_nothing(monkeypatch, name, family, members):
    """1,024 stages of each named member (by default every member) make
    no `FiniteFragment.induced` call: a padded age, of `tilde(X)` or of
    `du(X, iso_inf)`, is decided on the fragment's linked elements in
    place, with no copy of them."""
    family = H.get_family(family)
    learner = H.LEARNERS[name](family)
    calls, induced = [], FiniteFragment.induced

    def counted(frag, elements):
        calls.append(frag.size)
        return induced(frag, elements)

    monkeypatch.setattr(FiniteFragment, "induced", counted)
    for member in family if members is None else map(parse_structure, members):
        run(learner, Presentation(member, 1), 1024)
        assert calls == [], member.key()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_carried_summary_on_random_orders(data):
    """Random strict orders revealed one element at a time, some elements
    isolated, so that a new element may link several isolated ones at
    once or sit anywhere between the levels; every prefix, and every
    third one, is checked against the references."""
    n = data.draw(st.integers(1, 10))
    rank = data.draw(st.permutations(range(n)))
    pairs = data.draw(st.sets(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    )))
    below = {(a, b) for a, b in pairs if rank[a] < rank[b]}
    for c in range(n):  # transitive closure
        below |= {(a, b) for a, m in below for m2, b in below if m == m2 == c}
    frag, stream = FiniteFragment(0), []
    for e in range(n):
        succ = sum(1 << j for j in range(e) if (e, j) in below)
        pred = sum(1 << j for j in range(e) if (j, e) in below)
        frag = frag.extended(succ, pred)
        stream.append(frag)
    check_summary_stream(stream)
    check_summary_stream(stream[::3])
