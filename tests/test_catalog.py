import random

import pytest
from hypothesis import given, settings, strategies as st

from limitlab.adversaries import StreamBuilder
from limitlab.structures import FiniteFragment
from limitlab.catalog import (
    CatalogStructure,
    ConstructionError,
    Family,
    PosetP,
    Presentation,
    ReplayPresentation,
    canonical_fragment,
    fragment_embeds,
    parse_structure,
    saturated_fragment,
)

from _oracles import brute_embeds_structure, distinct_substructures

PARSE_KEYS = [
    "omega",
    "omega_star",
    "zeta",
    "ray",
    "iso_inf",
    "chain(4)",
    "ray(5)",
    "cycle(3)",
    "iso(2)",
    "poset_p(0)",
    "poset_p(2)",
    "cyc_comp(5)",
    "tilde(omega)",
    "tilde(chain(3))",
    "du(cycle(3),iso_inf)",
    "du(ray,iso_inf)",
]
#: the parse keys plus the other targets with their own relation hooks
HOOK_KEYS = PARSE_KEYS + ["tilde(omega_star)", "tilde(zeta)", "ray(3)",
                          "cyc_comp(3)"]


class TestParser:
    @pytest.mark.parametrize("key", HOOK_KEYS)
    def test_key_round_trip(self, key):
        s = parse_structure(key)
        assert s.key() == key
        assert parse_structure(s.key()) == s

    @pytest.mark.parametrize(
        "bad",
        ["", "chain", "chain(1)", "cycle(2)", "poset_p(-1)", "frob(3)",
         "ray(1)", "iso(-1)", "cyc_comp(2)", "omega()"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises((ConstructionError, ValueError)):
            parse_structure(bad)

    def test_repr_and_hash_follow_the_key(self):
        # a structure reads as its key, and equal keys hash alike, so
        # two parses of one key are one set entry
        a, b = parse_structure("du(ray(2),iso_inf)"), parse_structure(
            "du(ray(2),iso_inf)"
        )
        assert a is not b
        assert repr(a) == "du(ray(2),iso_inf)"
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a, parse_structure("omega")} == {b, parse_structure("omega")}

    def test_du_rejects_mixed_styles(self):
        with pytest.raises((ConstructionError, ValueError)):
            parse_structure("du(omega,cycle(3))")


class TestCanonicalFragments:
    def test_deterministic_and_nested(self):
        s = parse_structure("tilde(chain(3))")
        f5 = canonical_fragment(s, 5)
        f9 = canonical_fragment(s, 9)
        assert f9.induced(range(5)).tuple_set() == f5.tuple_set()
        assert canonical_fragment(s, 9).tuple_set() == f9.tuple_set()

    def test_finite_structure_caps(self):
        s = parse_structure("chain(3)")
        assert canonical_fragment(s, 3).size == 3
        with pytest.raises(ValueError, match="fewer than 5 elements"):
            canonical_fragment(s, 5)
        # the saturated prefix stops at the whole finite structure
        assert saturated_fragment(s, 5) is canonical_fragment(s, 3)
        omega = parse_structure("omega")
        assert saturated_fragment(omega, 5) is canonical_fragment(omega, 5)


class TestPresentations:
    def test_realize_deterministic(self):
        s = parse_structure("cyc_comp(4)")
        a = Presentation(s, 7).restrict(30)
        b = Presentation(s, 7).restrict(30)
        assert a.size == b.size and a.tuple_set() == b.tuple_set()

    def test_stage_sizes_and_monotone(self):
        p = Presentation(parse_structure("tilde(omega)"), 3)
        prev = None
        for s in range(25):
            frag = p.restrict(s)
            assert frag.size == s + 1
            if prev is not None:
                assert frag.extends(prev)
            prev = frag

    def test_seed_changes_schedule(self):
        s = parse_structure("du(ray,iso_inf)")
        a = Presentation(s, 1).restrict(40)
        b = Presentation(s, 2).restrict(40)
        assert a.tuple_set() != b.tuple_set()

    def test_fairness_covers_prefix(self):
        # the even steps force every canonical element in eventually, so
        # a deep stage contains the full relational pattern of a shallow
        # canonical fragment
        s = parse_structure("omega")
        for seed in (0, 1, 2):
            frag = Presentation(s, seed).restrict(40)
            assert fragment_embeds(canonical_fragment(s, 15), s)
            assert len(frag.tuples()) >= 15 * 14 // 2

    def test_finite_structure_exhausts(self):
        p = Presentation(parse_structure("chain(3)"), 0)
        p.restrict(2)
        with pytest.raises(ConstructionError):
            p.restrict(3)

    def test_replay_checks_monotonicity(self):
        p = Presentation(parse_structure("omega"), 5)
        frags = [p.restrict(s) for s in range(6)]
        replay = ReplayPresentation(frags)
        for s in range(6):
            assert replay.restrict(s).tuple_set() == frags[s].tuple_set()

    def test_replay_rejects_a_wrong_size_or_a_non_monotone_stage(self):
        one = FiniteFragment(1)
        up = FiniteFragment.from_tuples(2, [(0, (0, 1))])
        down = FiniteFragment.from_tuples(3, [(0, (1, 0))])
        with pytest.raises(ConstructionError, match="stage 1 .* size 3"):
            ReplayPresentation([one, down]).restrict(1)
        replay = ReplayPresentation([one, up, down])
        assert replay.restrict(1) is up
        # R(1, 0) at stage 2 contradicts R(0, 1) at stage 1
        with pytest.raises(ConstructionError, match="not monotone"):
            replay.restrict(2)


def _log_from_related(structure, tokens):
    """The relation log in the documented order: element e after every
    earlier element j, ascending, with (j, e) before (e, j)."""
    log = []
    for e, tok in enumerate(tokens):
        for j, other in enumerate(tokens[:e]):
            if structure.related(other, tok):
                log.append((0, (j, e)))
            if structure.related(tok, other):
                log.append((0, (e, j)))
    return log


class TestTokenChain:
    @pytest.mark.parametrize("key", PARSE_KEYS)
    def test_logs_follow_related_in_token_order(self, key):
        s = parse_structure(key)
        n = 14 if s.size() is None else s.size()
        canonical = [s.element(i) for i in range(n)]
        assert canonical_fragment(s, n).tuples() == _log_from_related(
            s, canonical
        )
        p = Presentation(s, 5)
        frag = p.restrict(n - 1)
        assert frag.tuples() == _log_from_related(s, p.tokens)


def _related_masks(structure, tokens, tok):
    """The masks any hook must build: related asked about every earlier
    token."""
    succ = pred = 0
    for j, other in enumerate(tokens):
        succ |= structure.related(tok, other) << j
        pred |= structure.related(other, tok) << j
    return succ, pred


def _tuples_from_has(frag):
    """The facts in the documented order, read back through has."""
    facts = []
    for e in range(frag.size):
        for j in range(e + 1):
            if frag.has(0, (j, e)):
                facts.append((0, (j, e)))
            if j < e and frag.has(0, (e, j)):
                facts.append((0, (e, j)))
    return facts


class _CheckedPush:
    """Checks every push: the target's hook gives the masks of the
    default related loop, which the new fragment reads back."""

    def push(self, tok):
        e = len(self.tokens)
        masks = _related_masks(self.target, self.tokens, tok)
        frag = super().push(tok)
        assert frag.row(e) == masks, (self.target.key(), e, tok)
        assert frag.tuples() == _tuples_from_has(frag)
        return frag


class _CheckedPresentation(_CheckedPush, Presentation):
    pass


class _CheckedStreamBuilder(_CheckedPush, StreamBuilder):
    pass


class TestRelationMasks:
    @pytest.mark.parametrize("key", HOOK_KEYS)
    def test_presentation_hook_matches_related(self, key):
        s = parse_structure(key)
        n = 24 if s.size() is None else s.size()
        for seed in range(3):
            _CheckedPresentation(s, seed).restrict(n - 1)

    @pytest.mark.parametrize("key", HOOK_KEYS)
    def test_stream_builder_hook_matches_related(self, key):
        targets = [parse_structure(k) for k in HOOK_KEYS]
        for seed in range(3):
            rng = random.Random(seed)
            builder = _CheckedStreamBuilder(parse_structure(key))
            for _ in range(20):
                size = builder.target.size()
                if rng.random() < 0.3:
                    builder.retarget(rng.choice(targets))
                elif size is None or len(builder.indices) < size:
                    builder.add_least_unused()

    @pytest.mark.parametrize("key", HOOK_KEYS)
    def test_stream_builder_out_of_order_hook_matches_related(self, key):
        # shuffled canonical indices file each token between earlier ones
        s = parse_structure(key)
        n = 24 if s.size() is None else s.size()
        for seed in range(3):
            order = list(range(n))
            random.Random(seed).shuffle(order)
            builder = _CheckedStreamBuilder(s)
            for idx in order:
                builder.add_index(idx)
            with pytest.raises(ValueError, match="already revealed"):
                builder.add_index(order[0])

    @pytest.mark.parametrize(
        "key", ["poset_p(%d)" % n for n in range(4)]
        + ["tilde(poset_p(%d))" % n for n in range(4)],
    )
    def test_poset_hook_matches_the_default_hook(self, key):
        # poset_p files its tokens in two ranks; the default asks related
        # about every earlier token
        s = parse_structure(key)
        n = 300 if s.size() is None else s.size()
        for seed in (1, 2, 3):
            p = Presentation(s, seed)
            p.restrict(n - 1)
            for j, tok in enumerate(p.tokens):
                want = _related_masks(s, p.tokens[:j], tok)
                assert p.fragments[j + 1].row(j) == want, (seed, j, tok)


#: each sparse graph's relation by its name, stated apart from the
#: catalog's neighbours
DISTANCE_RULES = {
    "ray": lambda s, x, y: abs(x - y) == 1,
    "cycle": lambda s, x, y: abs(x - y) in (1, s.n - 1),
    "cyc_comp": lambda s, x, y: x[0] == y[0]
    and abs(x[1] - y[1]) in (1, x[0] - 1),
}


class TestTokens:
    @pytest.mark.parametrize(
        "key", ["ray", "ray(5)", "cycle(3)", "cycle(6)", "cyc_comp(3)",
                "cyc_comp(5)"],
    )
    def test_sparse_relation_is_distance_one(self, key):
        s = parse_structure(key)
        rule = DISTANCE_RULES[s.name]
        n = 40 if s.size() is None else min(40, s.size())
        tokens = [s.element(i) for i in range(n)]
        for x in tokens:
            for y in tokens:
                assert s.related(x, y) == rule(s, x, y), (x, y)

    @pytest.mark.parametrize(
        "key, tokens",
        [
            # pads in the even slots, the chain in the odd ones, then pads
            ("tilde(chain(3))", [("l", 0), ("r", 0), ("l", 1), ("r", 1),
                                 ("l", 2), ("r", 2), ("l", 3), ("l", 4)]),
            ("du(chain(2),omega)", [("l", 0), ("r", 0), ("l", 1), ("r", 1),
                                    ("r", 2), ("r", 3)]),
        ],
    )
    def test_union_alternates_until_a_side_ends(self, key, tokens):
        s = parse_structure(key)
        assert [s.element(i) for i in range(len(tokens))] == tokens


class TestAgeDeciders:
    STRUCTS = [
        "omega",
        "omega_star",
        "zeta",
        "ray",
        "chain(4)",
        "ray(4)",
        "cycle(4)",
        "iso(3)",
        "iso_inf",
        "poset_p(0)",
        "poset_p(1)",
        "poset_p(2)",
        "cyc_comp(3)",
        "cyc_comp(5)",
        "tilde(chain(3))",
        "tilde(poset_p(0))",
        "du(cycle(3),iso_inf)",
        "du(iso_inf,cycle(3))",
        "du(ray,iso_inf)",
        "du(chain(2),chain(3))",
        # padded ages, decided on the linked elements in place
        "tilde(omega)",
        "tilde(omega_star)",
        "tilde(poset_p(2))",
        "du(ray(4),iso_inf)",
        "du(iso_inf,ray)",
        "du(cyc_comp(3),iso_inf)",
        # fact-free unions, whose isolated sides decide a partial part
        "du(iso(2),iso_inf)",
        "du(iso(2),iso(3))",
    ]

    @pytest.mark.parametrize("target_key", STRUCTS)
    def test_matches_brute_force(self, target_key):
        target = parse_structure(target_key)
        assert fragment_embeds(FiniteFragment(0), target)
        # the last three give fragments with isolated points among their
        # linked ones
        sources = ["chain(3)", "cycle(3)", "cycle(4)", "ray(3)", "iso(4)",
                   "poset_p(1)", "tilde(chain(3))", "du(ray(3),iso_inf)",
                   "du(cycle(3),iso_inf)",
                   # ladders with several rungs
                   "poset_p(2)", "poset_p(3)", "tilde(poset_p(1))"]
        for src_key in sources:
            src = parse_structure(src_key)
            for sub in distinct_substructures(src, 4):
                assert fragment_embeds(sub, target) == brute_embeds_structure(
                    sub, target
                ), (src_key, target_key, sorted(sub.tuples()))


    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.data())
    def test_ladder_age_matches_the_embedding_default(self, data):
        """PosetP decides its age in closed form; the default asks a
        saturated prefix for a copy of the part."""
        size = data.draw(st.integers(1, 8))
        pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
        below = {p for p in pairs if data.draw(st.booleans())}
        for k in range(size):  # close transitively
            below |= {(i, j) for i, m in below if m == k
                      for l, j in below if l == k}
        label = data.draw(st.permutations(range(size)))
        facts = [(0, (label[i], label[j])) for i, j in below]
        for n in range(7):
            target = PosetP(n)
            frag = FiniteFragment.from_tuples(size, facts)
            for part in ((1 << size) - 1, frag.linked_mask()):
                assert target.age_holds(frag, part) == (
                    CatalogStructure.age_holds(target, frag, part)
                ), (n, size, sorted(below), part)

    ABSORBING = [
        "iso_inf",
        "tilde(chain(3))",
        "tilde(omega)",
        "tilde(poset_p(1))",
        "du(cycle(3),iso_inf)",
        "du(iso(1),tilde(chain(2)))",
    ]

    @pytest.mark.parametrize("target_key", ABSORBING)
    def test_absorbing_age_takes_an_isolated_point(self, target_key):
        target = parse_structure(target_key)
        assert target.absorbs_isolated()
        sources = ["chain(3)", "cycle(3)", "ray(3)", "iso(4)", "poset_p(1)"]
        inside = 0
        for src_key in sources:
            for sub in distinct_substructures(parse_structure(src_key), 4):
                if brute_embeds_structure(sub, target):
                    inside += 1
                    padded = FiniteFragment.from_tuples(
                        sub.size + 1, sub.tuples()
                    )
                    assert brute_embeds_structure(padded, target), (
                        src_key, target_key, sorted(sub.tuples()))
        assert inside  # some of the age was checked


class TestFamily:
    def test_codes_are_positions(self):
        fam = Family(
            (parse_structure("omega"), parse_structure("omega_star"))
        )
        assert fam.code_of(parse_structure("omega_star")) == 1
        assert len(fam) == 2
        with pytest.raises(ValueError, match="zeta is not in the family"):
            fam.code_of(parse_structure("zeta"))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Family((parse_structure("omega"), parse_structure("omega")))
