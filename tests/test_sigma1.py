import copy
import dataclasses
import functools
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from limitlab.catalog import (
    Family,
    Presentation,
    UnsupportedOracleError,
    _components,
    canonical_fragment,
    fragment_embeds,
    parse_structure,
)
from limitlab.structures import FiniteFragment, iter_bits
from limitlab.sigma1 import (
    WITNESS_SIZE_BOUND,
    FormulaWitness,
    StreamWatch,
    age_fragments,
    classify_family,
    sat_catalog,
    sat_fragment,
    sigma1_leq,
)
from limitlab import harness as H
from limitlab import learners as L
from limitlab import reductions as R
from limitlab import sigma1

from _formulas import embeds
from _oracles import brute_age_inclusion, brute_embeds_structure
from test_acceptance import GRID_KEYS


def S(key):
    return parse_structure(key)


class TestInclusionFacts:
    def test_omega_pair_equivalent(self):
        assert sigma1_leq(S("omega"), S("omega_star"))
        assert sigma1_leq(S("omega_star"), S("omega"))

    def test_padded_chains_strictly_increase(self):
        assert sigma1_leq(S("tilde(chain(3))"), S("tilde(chain(4))"))
        assert not sigma1_leq(S("tilde(chain(4))"), S("tilde(chain(3))"))

    def test_padded_chains_below_padded_omega(self):
        assert sigma1_leq(S("tilde(chain(5))"), S("tilde(omega)"))
        assert not sigma1_leq(S("tilde(omega)"), S("tilde(chain(5))"))

    def test_finite_posets_below_infinite_one(self):
        for k in range(1, 5):
            assert sigma1_leq(
                S("tilde(poset_p(%d))" % k), S("tilde(poset_p(0))")
            )
            assert not sigma1_leq(
                S("tilde(poset_p(0))"), S("tilde(poset_p(%d))" % k)
            )

    def test_cycle_complements_incomparable(self):
        assert not sigma1_leq(S("cyc_comp(3)"), S("cyc_comp(4)"))
        assert not sigma1_leq(S("cyc_comp(4)"), S("cyc_comp(3)"))

    def test_bounded_mode_agrees_with_brute_force(self):
        pairs = [
            ("omega", "omega_star"),
            ("chain(4)", "omega"),
            ("cyc_comp(3)", "cyc_comp(5)"),
            ("poset_p(2)", "poset_p(0)"),
            ("ray(4)", "ray"),
        ]
        for a_key, b_key in pairs:
            a, b = S(a_key), S(b_key)
            assert sigma1_leq(a, b, max_size=5) == brute_age_inclusion(
                a, b, 5
            )

    @pytest.mark.parametrize("max_size", [0, -2])
    def test_bounded_mode_rejects_max_size_below_one(self, max_size):
        with pytest.raises(ValueError):
            sigma1_leq(S("cycle(3)"), S("omega"), max_size=max_size)


@pytest.mark.parametrize("key", GRID_KEYS)
def test_age_fragments_are_the_induced_subsets_of_the_prefix(key):
    a = S(key)
    k = 3
    n = 2 * k + a.param() + 4
    if a.size() is not None:
        n = min(n, a.size())
    prefix = canonical_fragment(a, n)
    expected = set()
    for m in range(1, min(k, n) + 1):
        for subset in itertools.combinations(range(n), m):
            sub = prefix.induced(subset)
            expected.add((sub.size, sub.tuple_set()))
    age = age_fragments(a, k)
    pairs = [(f.size, f.tuple_set()) for f in age]
    assert set(pairs) == expected
    assert len(set(pairs)) == len(pairs)
    sizes = [f.size for f in age]
    assert sizes == sorted(sizes)
    assert age_fragments(a, k) is age


AGE_EXTRA_KEYS = (
    ["tilde(chain(%d))" % n for n in range(2, 7)]
    + ["tilde(omega)", "tilde(omega_star)", "du(ray,iso_inf)"]
    + ["du(cycle(%d),iso_inf)" % n for n in range(3, 7)]
    + ["du(ray(%d),iso_inf)" % n for n in range(2, 7)]
    + ["tilde(poset_p(%d))" % n for n in range(4)]
    + ["du(chain(2),chain(3))"]
)


def scanned_age(a, max_size):
    """Every subset of the prefix, size by size in lexicographic order,
    kept when its labelled facts are new."""
    n = 2 * max_size + a.param() + 4
    if a.size() is not None:
        n = min(n, a.size())
    prefix = canonical_fragment(a, n)
    out, seen = [], set()
    for m in range(1, min(max_size, prefix.size) + 1):
        for subset in itertools.combinations(range(prefix.size), m):
            sub = prefix.induced(subset)
            if (m, sub.tuple_set()) not in seen:
                seen.add((m, sub.tuple_set()))
                out.append((m, sub.tuples()))
    return out


@pytest.mark.parametrize("max_size", [1, 2, 3, 4, 5])
def test_age_fragments_equal_the_subset_scan(max_size, fresh_sigma1):
    for key in GRID_KEYS + AGE_EXTRA_KEYS:
        got = age_fragments(S(key), max_size)
        assert [(f.size, f.tuples()) for f in got] == scanned_age(
            S(key), max_size
        ), key


@pytest.mark.parametrize("max_size, calls", [(3, 22), (5, 183)])
def test_age_fragments_induce_each_pattern_once(
    max_size, calls, monkeypatch, fresh_sigma1
):
    induced = []
    real = FiniteFragment.induced

    def counted(self, elements):
        induced.append(self.size)
        return real(self, elements)

    monkeypatch.setattr(FiniteFragment, "induced", counted)
    ages = {key: age_fragments(S(key), max_size) for key in GRID_KEYS}
    assert len(induced) == calls == len(sigma1._fragments)
    # equal patterns from two structures are one object
    assert all(f is g for f, g in zip(ages["chain(3)"], ages["omega"]))
    assert ages["poset_p(2)"][0] is ages["cycle(3)"][0]


class TestFormulas:
    def test_parse_round_trip(self):
        phi = embeds("chain(4)") | embeds("cycle(3)")
        assert str(phi) == "embeds(chain(4)) | embeds(cycle(3))"
        # a disjunct without a label is named by its size
        unnamed = FormulaWitness((FiniteFragment(2),)) | embeds("chain(3)")
        assert str(unnamed) == "embeds(fragment[2]) | embeds(chain(3))"
        with pytest.raises(ValueError, match="at least one disjunct"):
            FormulaWitness(())

    def test_embeds_requires_finite(self):
        with pytest.raises(ValueError):
            embeds("omega")

    def test_catalog_truth(self):
        phi = embeds("cycle(3)")
        assert not sat_catalog(phi, S("cyc_comp(3)"))
        assert sat_catalog(phi, S("cyc_comp(4)"))
        assert sat_catalog(phi, S("du(cycle(3),iso_inf)"))
        assert not sat_catalog(phi, S("du(cycle(4),iso_inf)"))
        # the oracles answer about catalog structures only
        with pytest.raises(UnsupportedOracleError):
            sat_catalog(phi, "cyc_comp(4)")
        with pytest.raises(UnsupportedOracleError):
            sigma1_leq(S("cycle(3)"), "cyc_comp(4)")

    def test_fragment_truth_monotone(self):
        phi = embeds("chain(3)")
        seen_true = False
        presentation = Presentation(S("omega"), 4)
        for s in range(40):
            frag = presentation.restrict(s)
            now = sat_fragment(phi, frag)
            if seen_true:
                assert now
            seen_true = seen_true or now
        assert seen_true

    def test_chain_witness_false_in_shorter_padded_chain(self):
        phi = embeds("chain(4)")
        target = S("tilde(chain(3))")
        presentation = Presentation(target, 2)
        for s in range(0, 101, 10):
            assert not sat_fragment(phi, presentation.restrict(s))
        assert not sat_catalog(phi, target)
        assert sat_catalog(phi, S("tilde(chain(4))"))


# the catalog keys that generated families draw their members from
GENERATED_KEYS = (
    tuple("tilde(chain(%d))" % n for n in range(2, 7))
    + ("tilde(omega)", "tilde(omega_star)", "omega", "omega_star",
       "du(ray,iso_inf)")
    + tuple("du(cycle(%d),iso_inf)" % n for n in range(3, 7))
    + tuple("du(ray(%d),iso_inf)" % n for n in range(2, 7))
    + tuple("cyc_comp(%d)" % n for n in range(3, 7))
    + tuple("tilde(poset_p(%d))" % k for k in range(4))
)


class TestClassifier:
    def test_cycles_strong_antichain(self):
        fam = Family(
            (S("du(cycle(3),iso_inf)"), S("du(cycle(4),iso_inf)")),
        )
        cls = classify_family(fam)
        assert cls.level == "StrongAntichain"
        assert set(cls.strong_witnesses) == {0, 1}

    def test_cycle_complements_antichain(self):
        fam = Family(tuple(S("cyc_comp(%d)" % n) for n in range(3, 7)))
        cls = classify_family(fam)
        assert cls.is_antichain
        assert cls.level in ("Antichain", "StrongAntichain")

    def test_omega_pair_not_partial_order(self):
        cls = classify_family(Family((S("omega"), S("omega_star"))))
        assert cls.level == "NotPartialOrder"
        assert cls.solid == "n/a"

    def test_padded_chains_partial_order_solid_inconclusive(self):
        fam = Family(
            tuple(S("tilde(chain(%d))" % n) for n in range(2, 9))
            + (S("tilde(omega)"),)
        )
        cls = classify_family(fam)
        assert cls.level == "PartialOrder"
        assert cls.is_partial_order and not cls.is_antichain
        assert cls.solid == "inconclusive"

    def test_tilde_chain_pair_solid(self):
        fam = Family((S("tilde(chain(3))"), S("tilde(chain(4))")))
        cls = classify_family(fam)
        assert cls.is_partial_order
        assert cls.solid == "yes"
        assert cls.level == "SolidPartialOrder"

    @pytest.mark.parametrize("name", sorted(H.FAMILIES))
    def test_witnesses_separate_for_real(self, name):
        # learners and operators read these witnesses without checking
        # them again, so each one is checked here, its disjuncts against
        # the brute-force oracle too
        members = list(H.get_family(name))
        cls = classify_family(members)
        n = len(members)
        for (i, j), w in cls.witnesses.items():
            assert sat_catalog(w, members[i])
            assert not sat_catalog(w, members[j])
            for d in w.disjuncts:
                assert brute_embeds_structure(d, members[i])
                assert not brute_embeds_structure(d, members[j])
        for i, w in cls.strong_witnesses.items():
            assert sat_catalog(w, members[i])
            for d in w.disjuncts:
                assert brute_embeds_structure(d, members[i])
            for j in range(n):
                if j != i:
                    assert not sat_catalog(w, members[j])
                    for d in w.disjuncts:
                        assert not brute_embeds_structure(d, members[j])

    def test_declared_cycle_witnesses_valid(self):
        # the obvious witnesses for the cycle pair check out against the
        # brute-force oracle, whatever the search itself returns
        c3, c4 = S("du(cycle(3),iso_inf)"), S("du(cycle(4),iso_inf)")
        phi3, phi4 = embeds("cycle(3)"), embeds("cycle(4)")
        assert brute_embeds_structure(phi3.disjuncts[0], c3)
        assert not brute_embeds_structure(phi3.disjuncts[0], c4)
        assert brute_embeds_structure(phi4.disjuncts[0], c4)
        assert not brute_embeds_structure(phi4.disjuncts[0], c3)

    def test_solid_witnesses_helper(self):
        fam = Family((S("tilde(chain(3))"), S("tilde(chain(4))")))
        ws = classify_family(fam).solid_witnesses
        assert ws is not None
        assert sat_catalog(ws[1], S("tilde(chain(4))"))
        assert not sat_catalog(ws[1], S("tilde(chain(3))"))

    @pytest.mark.parametrize("name", sorted(H.FAMILIES))
    def test_solid_witnesses_miss_the_lower_cone(self, name):
        members = list(H.get_family(name))
        cls = classify_family(members)
        if cls.is_partial_order:
            assert (cls.solid == "yes") == (cls.solid_witnesses is not None)
        for i, w in (cls.solid_witnesses or {}).items():
            assert sat_catalog(w, members[i])
            for j, b in enumerate(members):
                if j != i and cls.leq[j][i] and not cls.leq[i][j]:
                    assert not sat_catalog(w, b)

    def test_order_computed_once_per_members_and_bound(
        self, monkeypatch, fresh_sigma1
    ):
        calls = {"classify": 0, "leq": 0}
        classify, leq = sigma1._classify, sigma1.sigma1_leq

        def counted(key, fn):
            def wrapped(*args):
                calls[key] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(sigma1, "_classify", counted("classify", classify))
        monkeypatch.setattr(sigma1, "sigma1_leq", counted("leq", leq))
        first = classify_family(H.get_family("cycles"))
        assert calls == {"classify": 1, "leq": 4}
        # a new Family object with the same members reads the same order
        again = Family(
            (S("du(cycle(3),iso_inf)"), S("du(cycle(4),iso_inf)"))
        )
        assert classify_family(again) is first
        assert sigma1.leq_matrix(again) is first.leq
        assert calls == {"classify": 1, "leq": 4}
        # another bound is another search, over the same matrix
        other = classify_family(again, bound=WITNESS_SIZE_BOUND + 1)
        assert other is not first and other.leq is first.leq
        assert calls == {"classify": 2, "leq": 4}
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.level = "Antichain"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.sampled_from(GENERATED_KEYS), min_size=2, max_size=3,
                 unique=True),
        st.sampled_from((6, 8, 10)),
    )
    def test_derived_fields_keep_the_implication_chain(self, keys, bound):
        # a classification holds only its evidence, so the flags read off
        # it keep the chain on every family, registered or not
        cls = classify_family([S(k) for k in keys], bound=bound)
        assert not cls.is_antichain or cls.is_partial_order
        assert cls.strong != "yes" or cls.is_antichain
        assert (cls.level == "StrongAntichain") == (cls.strong == "yes")
        assert (cls.solid == "n/a") == (not cls.is_partial_order)
        assert set(cls.inconclusive_pairs) <= set(cls.missing_pairs)
        assert [f.name for f in dataclasses.fields(cls)] == [
            "leq", "witnesses", "strong_witnesses", "solid_witnesses"
        ]


# classify_family(f, bound=b).to_json() of every registered family at
# bounds 8 and 10, keyed "family@bound"
CLASSIFICATION_PINS = json.loads(
    (Path(__file__).parent / "classification_pins.json").read_text()
)


@pytest.mark.parametrize("key", list(CLASSIFICATION_PINS))
def test_classification_is_pinned(key):
    name, bound = key.split("@")
    cls = classify_family(H.get_family(name), bound=int(bound))
    # key order too: `limitlab classify` prints this dict
    assert json.dumps(cls.to_json()) == json.dumps(CLASSIFICATION_PINS[key])


# what each construction's constructor says of each registered family:
# "ok", or the text of its ConfigurationError
PRECONDITIONS = {
    "cyc_comp": ("family is not a verified strong antichain (inconclusive)",
                 "ok", "ok", "ok"),
    "cycles": ("ok", "ok", "ok", "ok"),
    "fstar": ("family is not a verified strong antichain (no)",
              "missing witness for pair (0,1): comparable theories or "
              "exhausted search",
              "ok",
              "members 0 and 1 have equal existential theories"),
    "omega_pair": ("family is not a verified strong antichain (no)",
                   "missing witness for pair (0,1): comparable theories or "
                   "exhausted search",
                   "ok",
                   "members 0 and 1 have equal existential theories"),
    "padded_chains": ("family is not a verified strong antichain (no)",
                      "missing witness for pair (0,1): comparable theories "
                      "or exhausted search",
                      "solid witness search exhausted",
                      "missing witness for pair (7,6)"),
    "posets": ("family is not a verified strong antichain (no)",
               "missing witness for pair (0,4): comparable theories or "
               "exhausted search",
               "solid witness search exhausted",
               "missing witness for pair (0,4)"),
    "rays": ("family is not a verified strong antichain (no)",
             "missing witness for pair (0,1): comparable theories or "
             "exhausted search",
             "solid witness search exhausted",
             "missing witness for pair (7,6)"),
    "tilde_chains": ("family is not a verified strong antichain (no)",
                     "missing witness for pair (0,1): comparable theories "
                     "or exhausted search",
                     "ok", "ok"),
}
CONSTRUCTIONS = {
    "fin": L.FinLearner,
    "co": L.CoLearner,
    "nus": L.NusLearner,
    "gamma_erange": R.GammaErange,
}


@pytest.mark.parametrize("construction", list(CONSTRUCTIONS))
@pytest.mark.parametrize("name", sorted(PRECONDITIONS))
def test_precondition_is_pinned(name, construction):
    try:
        CONSTRUCTIONS[construction](H.get_family(name))
        said = "ok"
    except L.ConfigurationError as exc:
        said = str(exc)
    assert said == PRECONDITIONS[name][list(CONSTRUCTIONS).index(construction)]


WATCH_SOURCES = tuple(
    parse_structure(k)
    for k in ("omega", "tilde(chain(3))", "cycle(5)", "du(cycle(3),iso_inf)",
              "chain(4)")
)
WATCH_MEMBERS = tuple(
    parse_structure(k)
    for k in ("chain(4)", "omega", "tilde(chain(3))", "tilde(omega)",
              "cycle(5)", "du(cycle(3),iso_inf)", "cyc_comp(4)", "iso(3)")
)
WATCH_FORMULAS = {
    "chain(3)": embeds("chain(3)"),
    "iso(2)": embeds("iso(2)"),
    "iso(3)": embeds("iso(3)"),
    "ray(3)": embeds("ray(3)"),
    "cycle(3)|chain(4)": embeds("cycle(3)") | embeds("chain(4)"),
}


@functools.lru_cache(maxsize=None)
def _watch_presentation(source, seed):
    return Presentation(WATCH_SOURCES[source], seed)


def _continues(frag, prev):
    """frag equals prev or adds one element to it, compared fact by fact."""
    return frag.size - prev.size in (0, 1) and (
        frag.induced(range(prev.size)).tuple_set() == prev.tuple_set()
    )


WATCH_STEP = st.tuples(
    st.sampled_from(("next", "next", "next", "skip", "jump", "repeat")),
    st.integers(0, len(WATCH_SOURCES) - 1),
    st.integers(0, 2),
    # the members asked about after the step, in order
    st.lists(st.integers(0, len(WATCH_MEMBERS) - 1), max_size=4),
)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, len(WATCH_SOURCES) - 1),
    st.integers(0, 2),
    st.lists(WATCH_STEP, min_size=1, max_size=16),
)
def test_stream_watch_matches_replay(source, seed, steps):
    """Presentation chains that sometimes skip ahead, jump to another
    presentation's fragment or repeat a finite member's full fragment; a
    replay from scratch over the current run of one-element extensions
    gives the watch's first-hold stages and left members."""
    watch = StreamWatch(WATCH_FORMULAS, WATCH_MEMBERS)
    state = watch.initial()
    pres, stage = _watch_presentation(source, seed), 0
    run, asked = [], set()
    for n, (kind, other, other_seed, order) in enumerate(steps):
        if n:
            if kind == "jump":
                pres = _watch_presentation(other, other_seed)
            stage += {"next": 1, "skip": 3, "jump": 1, "repeat": 0}[kind]
        size = pres.target.size()
        if size is not None:
            stage = min(stage, size - 1)  # a finite member stays complete
        frag = pres.restrict(stage)
        if not (run and _continues(frag, run[-1])):
            run, asked = [], set()
        run.append(frag)

        snapshot = copy.deepcopy(state)
        new = watch.advance(state, frag)
        assert state == snapshot, "advance mutated its input"
        state = new
        expected = {}
        for key, w in WATCH_FORMULAS.items():
            stages = [f.size - 1 for f in run if sat_fragment(w, f)]
            if stages:
                expected[key] = min(stages)
        assert state[1] == expected

        snapshot = copy.deepcopy(state)
        hit, new = watch.first_inside(state, order)
        assert state == snapshot, "first_inside mutated its input"
        state = new
        inside = [
            i for i in order
            if all(fragment_embeds(f, WATCH_MEMBERS[i]) for f in run)
        ]
        want = inside[0] if inside else None
        assert hit == want
        asked.update(order if want is None else order[: order.index(want)])
        assert state[2] == sum(1 << i for i in asked)


SHARED_FORMULAS = {
    "chain(3)": embeds("chain(3)"),
    "iso(2)": embeds("iso(2)"),
    "chain(3)|iso(2)": embeds("chain(3)") | embeds("iso(2)"),
    "iso(2)|cycle(3)": embeds("iso(2)") | embeds("cycle(3)"),
}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, len(WATCH_SOURCES) - 1),
    st.integers(0, 2),
    st.lists(WATCH_STEP, min_size=1, max_size=16),
)
def test_stream_watch_searches_shared_disjuncts_once(source, seed, steps):
    """Formulas that share disjuncts, on the streams of the replay test:
    the watch records the replay's first-hold stages in the order they
    happened (formula order within a stage), and searches each distinct
    disjunct of the pending formulas at most once per stage; on a
    one-element extension, only a disjunct with an element whose shape
    the new element covers: the same self-loop bit and at most its out-
    and in-degree."""
    keys = list(SHARED_FORMULAS)
    watch = StreamWatch(SHARED_FORMULAS)
    state = watch.initial()
    pres, stage = _watch_presentation(source, seed), 0
    run, searched = [], []

    def counted(formula, fragment, required=None):
        searched.extend(formula.disjuncts)
        return sat_fragment(formula, fragment, required)

    for n, (kind, other, other_seed, _) in enumerate(steps):
        if n:
            if kind == "jump":
                pres = _watch_presentation(other, other_seed)
            stage += {"next": 1, "skip": 3, "jump": 1, "repeat": 0}[kind]
        size = pres.target.size()
        if size is not None:
            stage = min(stage, size - 1)
        frag = pres.restrict(stage)
        held = state[1]
        if not (run and _continues(frag, run[-1])):
            run, held = [], {}
        run.append(frag)
        pending = [
            d for key in keys if key not in held
            for d in SHARED_FORMULAS[key].disjuncts
        ]

        searched.clear()
        snapshot = copy.deepcopy(state)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sigma1, "sat_fragment", counted)
            new = watch.advance(state, frag)
        assert state == snapshot, "advance mutated its input"
        assert all(searched.count(d) == 1 for d in searched)
        assert all(d in pending for d in searched)
        if len(run) > 1 and frag.size > run[-2].size:
            e = frag.size - 1
            succ, pred = frag.row(e)
            assert all(_has_shape_covered_by(d, succ >> e & 1, succ, pred)
                       for d in searched)
        state = new

        expected = {}
        for key, w in SHARED_FORMULAS.items():
            stages = [f.size - 1 for f in run if sat_fragment(w, f)]
            if stages:
                expected[key] = min(stages)
        order = sorted(expected, key=lambda k: (expected[k], keys.index(k)))
        assert list(state[1].items()) == [(k, expected[k]) for k in order]


def _has_shape_covered_by(pattern, loop, succ, pred):
    out, inn = pattern.masks()
    return any(
        o >> u & 1 == loop
        and o.bit_count() <= succ.bit_count()
        and i.bit_count() <= pred.bit_count()
        for u, (o, i) in enumerate(zip(out, inn))
    )


def _counting_embeds(monkeypatch):
    """The (fragment size, member key) of every age question the watch
    asks from here on."""
    asked = []

    def counted(fragment, structure):
        asked.append((fragment.size, structure.key()))
        return fragment_embeds(fragment, structure)

    monkeypatch.setattr(sigma1, "fragment_embeds", counted)
    return asked


@pytest.mark.parametrize(
    "key", ["tilde(chain(3))", "tilde(omega)", "du(cycle(3),iso_inf)",
            "iso_inf"]
)
def test_stream_watch_carries_absorbing_member(key, monkeypatch):
    """On a member's own stream, an absorbing member found inside is not
    asked again after an extension by an element in no fact."""
    member = S(key)
    assert member.absorbs_isolated()
    watch = StreamWatch({}, (member,))
    asked = _counting_embeds(monkeypatch)
    state, pres, padding = watch.initial(), Presentation(member, 1), 0
    for s in range(40):
        frag = pres.restrict(s)
        state = watch.advance(state, frag)
        asked.clear()
        hit, state = watch.first_inside(state, [0])
        assert hit == 0
        if s and frag.row(s) == (0, 0):
            padding += 1
            assert asked == []
        else:
            assert asked == [(s + 1, key)]
    assert padding


@pytest.mark.parametrize("key", ["chain(4)", "iso(3)", "cycle(5)"])
def test_stream_watch_reasks_other_members(key, monkeypatch):
    """A member whose age need not absorb an isolated point is asked again
    after an extension by an element in no fact."""
    member = S(key)
    assert not member.absorbs_isolated()
    watch = StreamWatch({}, (member,))
    asked = _counting_embeds(monkeypatch)
    one = FiniteFragment(0).extended(0, 0)
    hit, state = watch.first_inside(watch.advance(watch.initial(), one), [0])
    assert hit == 0
    asked.clear()
    state = watch.advance(state, one.extended(0, 0))
    hit, state = watch.first_inside(state, [0])
    assert asked == [(2, key)]
    assert hit == (None if key == "chain(4)" else 0)


@pytest.mark.parametrize(
    "key", ["tilde(chain(3))", "du(cycle(3),iso_inf)", "iso_inf", "iso(3)"]
)
def test_stream_watch_reasks_after_non_extension(key, monkeypatch):
    """Every member is asked again on a fragment that is not the last one
    or its one-element extension, even when it has no fact."""
    watch = StreamWatch({}, (S(key),))
    asked = _counting_embeds(monkeypatch)
    state = watch.initial()
    # a shorter fragment, then one two elements larger
    for n in (2, 1, 3):
        state = watch.advance(state, FiniteFragment.from_tuples(n, []))
        asked.clear()
        hit, state = watch.first_inside(state, [0])
        assert hit == 0
        assert asked == [(n, key)]


def reference_candidates(a, bound):
    """The witness candidates rebuilt prefix by prefix: each canonical
    prefix, its linked part and each of its components, induced afresh at
    every prefix, kept if new and of 1..bound elements, then sorted
    stably by size and fact count."""
    top = 2 * bound + 4
    if a.size() is not None:
        top = min(top, a.size())
    out = []

    def add(frag):
        if 1 <= frag.size <= bound and frag not in out:
            out.append(frag)

    for m in range(1, top + 1):
        prefix = canonical_fragment(a, m)
        add(prefix)
        add(prefix.induced(iter_bits(prefix.linked_mask())))
        for comp in _components(*prefix.masks(), (1 << m) - 1):
            add(prefix.induced(iter_bits(comp)))
    out.sort(key=lambda f: (f.size, f.fact_count()))
    return out


@pytest.mark.parametrize("bound", [8, 9, 10])
def test_witness_candidates_match_reference(bound, fresh_sigma1):
    for name in sorted(H.FAMILIES):
        for a in H.get_family(name):
            got = sigma1._witness_candidates(a, bound)
            want = reference_candidates(a, bound)
            assert [(f.size, f.tuples()) for f in got] == [
                (f.size, f.tuples()) for f in want
            ]
            # shared by structure key: a new object reads the same list
            assert sigma1._witness_candidates(S(a.key()), bound) is got


def test_fresh_sigma1_empties_every_memo(fresh_sigma1):
    """A memo added to sigma1 later must join the fixture, or it would
    answer the call-counting tests from an earlier test's questions."""
    memos = {
        name for name, value in vars(sigma1).items()
        if name.startswith("_") and not name.startswith("__")
        and isinstance(value, dict)
    }
    assert set(fresh_sigma1) == memos


def test_age_fragments_shared_by_key(fresh_sigma1):
    got = age_fragments(S("tilde(chain(3))"), 3)
    # a new object with the same key reads the same list
    assert age_fragments(S("tilde(chain(3))"), 3) is got
    assert sigma1._ages == {("tilde(chain(3))", 3): got}


GRID_AGE_SIZE = 3


def _grid_pass():
    structs = [S(k) for k in GRID_KEYS]
    return [
        [sigma1_leq(a, b, max_size=GRID_AGE_SIZE) for b in structs]
        for a in structs
    ]


def _largest_memo_entry():
    return max(f.size for v in sigma1._verdicts.values() for f in v)


class TestVerdictMemo:
    def test_agrees_with_fresh_verdicts(self, fresh_sigma1):
        """Every (age fragment, grid structure) pair of acceptance
        criterion 10 at size 3, asked through the memo after its equal
        fragments from other structures filled it."""
        structs = [S(k) for k in GRID_KEYS]
        for a in structs:
            for sub in age_fragments(a, GRID_AGE_SIZE):
                for b in structs:
                    memo = sigma1._verdicts_of(b)(sub)
                    assert memo == fragment_embeds(sub, b)

    def test_second_grid_pass_asks_nothing(self, monkeypatch, fresh_sigma1):
        first = _grid_pass()
        asked = []

        def counted(fragment, structure):
            asked.append((fragment.size, structure.key()))
            return fragment_embeds(fragment, structure)

        monkeypatch.setattr(sigma1, "fragment_embeds", counted)
        assert _grid_pass() == first
        assert asked == []

    def test_entries_stay_within_the_bound(self, fresh_sigma1):
        _grid_pass()
        assert _largest_memo_entry() <= GRID_AGE_SIZE
        for name in sorted(H.FAMILIES):
            classify_family(H.get_family(name))
        assert _largest_memo_entry() <= WITNESS_SIZE_BOUND
        # default-mode comparisons and the stream watch ask about growing
        # fragments without the memo
        before = {k: dict(v) for k, v in sigma1._verdicts.items()}
        fstar = list(H.get_family("fstar"))
        for a in fstar:
            for b in fstar:
                sigma1_leq(a, b)
        watch = StreamWatch({}, fstar)
        state, pres = watch.initial(), Presentation(fstar[0], 1)
        for s in range(30):
            state = watch.advance(state, pres.restrict(s))
            _, state = watch.first_inside(state, range(len(fstar)))
        assert sigma1._verdicts == before
