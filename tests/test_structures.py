import gc
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from limitlab import harness as H, sigma1, structures
from limitlab.learners import run
from limitlab.catalog import (
    Presentation,
    canonical_fragment,
    parse_structure,
    saturated_fragment,
)
from limitlab.pairing import pair, unpair, triple
from limitlab.sigma1 import StreamWatch, embeds
from limitlab.structures import (
    FiniteFragment,
    embed_finite,
    embed_map,
    iter_bits,
)

from _oracles import brute_embed, brute_embed_all_injections, induced_copy


def random_fragment(rng, size, density=0.4):
    tuples = []
    for a in range(size):
        for b in range(size):
            if a != b and rng.random() < density:
                tuples.append((0, (a, b)))
    return FiniteFragment.from_tuples(size, tuples)


@st.composite
def grown_views(draw, max_size):
    """Every view of one extension chain of 1..max_size elements, each
    element added with random successor and predecessor masks, self-loops
    allowed."""
    frag, views = FiniteFragment(0), []
    for e in range(draw(st.integers(1, max_size))):
        below = st.integers(0, (1 << e) - 1)
        loop = draw(st.booleans()) << e
        frag = frag.extended(draw(below) | loop, draw(below) | loop)
        views.append(frag)
    return views


@st.composite
def orbit_patterns(draw):
    """A fresh pattern of up to 6 elements: a cycle, a chain with isolated
    points, a strict order, a graph or any relation, self-loops allowed
    in the last two."""
    kind = draw(st.sampled_from(["cycle", "chain", "order", "graph", "any"]))
    if kind == "cycle":
        n = draw(st.integers(3, 6))
        cycle = canonical_fragment(parse_structure("cycle(%d)" % n), n)
        return cycle.induced(range(n))
    n = draw(st.integers(1, 6))
    bits = draw(st.integers(0, (1 << n * n) - 1))
    pairs = itertools.product(range(n), repeat=2)
    facts = {(a, b) for a, b in pairs if bits >> a * n + b & 1}
    if kind == "chain":
        chain = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
        facts = set(itertools.combinations(chain, 2))
    elif kind == "order":
        rank = draw(st.permutations(range(n)))
        facts = {(a, b) for a, b in facts if rank[a] < rank[b]}
        for c in range(n):  # close transitively through each middle c
            below = [a for a, x in facts if x == c]
            facts |= {(a, b) for a in below for y, b in facts if y == c}
    elif kind == "graph":
        facts |= {(b, a) for a, b in facts}
    return FiniteFragment.from_tuples(n, [(0, p) for p in sorted(facts)])


def grown_around(f, data):
    """Every view of an extension chain holding a copy of f among up to 3
    more elements, all in a drawn order, with random facts elsewhere."""
    extra = data.draw(st.integers(0, 3))
    size = f.size + extra
    where = data.draw(st.permutations(range(size)))[: f.size]
    back = {x: u for u, x in enumerate(where)}
    bits = data.draw(st.integers(0, (1 << size * size) - 1))

    def related(x, y):
        if x in back and y in back:
            return f.has(0, (back[x], back[y]))
        return bits >> (x * size + y) & 1 == 1

    frag, views = FiniteFragment(0), []
    for e in range(size):
        succ = sum(1 << j for j in range(e + 1) if related(e, j))
        pred = sum(1 << j for j in range(e + 1) if related(j, e))
        frag = frag.extended(succ, pred)
        views.append(frag)
    return views


def every_root(f, g, required):
    """The rooted search that tries each root's plan in element order,
    after the per-root self-loop check and the check of its out- and
    in-degree, which `required`'s must each reach."""
    g.masks()
    g_out, g_in, g_full = g._out, g._in, (1 << g.size) - 1
    go, gi = g_out[required] & g_full, g_in[required] & g_full
    for plan in structures._search_plans(f, range(f.size)):
        u, _, loop, fo, fi = plan[0][:5]
        if loop != go >> required & 1 or (
            fo.bit_count() > go.bit_count() or fi.bit_count() > gi.bit_count()
        ):
            continue
        image = [0] * f.size
        image[u] = required
        if structures._search(
            plan, 1, g_out, g_in, g_full, image, 1 << required
        ):
            return {step[0]: image[step[0]] for step in plan}
    return None


class TestPairing:
    def test_known_values(self):
        assert pair(0, 0) == 0
        assert pair(1, 0) == 1
        assert pair(0, 1) == 2
        assert pair(2, 0) == 3
        assert pair(1, 1) == 4
        assert pair(0, 2) == 5

    @given(st.integers(0, 10_000))
    def test_unpair_round_trip(self, n):
        a, b = unpair(n)
        assert pair(a, b) == n

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_pair_round_trip(self, a, b):
        assert unpair(pair(a, b)) == (a, b)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50))
    def test_triple_round_trip(self, s, i, j):
        t, rest = unpair(triple(s, i, j))
        assert (t, *unpair(rest)) == (s, i, j)

    def test_unpair_at_triangular_boundaries(self):
        # T(w) = w(w+1)/2 starts diagonal w; T(w) - 1 ends diagonal w - 1
        for w in range(1, 10**5 + 1):
            t = w * (w + 1) // 2
            assert unpair(t - 1) == (0, w - 1)
            assert unpair(t) == (w, 0)
            assert unpair(t + 1) == (w - 1, 1)


class TestFragmentLaws:
    def test_extends_chain(self):
        f = FiniteFragment.from_tuples(2, [(0, (0, 1))])
        g = f.extended(0, 0b011)  # 0 and 1 below the new element 2
        assert g.extends(f)
        assert not f.extends(g)
        assert g.induced(range(2)).tuple_set() == f.tuple_set()

    def test_induced_relabels(self):
        f = FiniteFragment.from_tuples(4, [(0, (0, 2)), (0, (2, 3))])
        sub = f.induced([0, 2, 3])
        assert sub.size == 3
        assert sub.tuple_set() == {(0, (0, 1)), (0, (1, 2))}
        with pytest.raises(ValueError, match="repeated element"):
            f.induced([0, 2, 0])
        with pytest.raises(ValueError, match="out of domain"):
            f.induced([0, 4])

    def test_extended_rejects_tuple_inside_old_domain(self):
        # the masks name facts with the new element 2 only: a bit beyond
        # it, or a self-loop in one mask alone, is refused
        f = FiniteFragment.from_tuples(2, [])
        with pytest.raises(ValueError):
            f.extended(1 << 3, 0)
        with pytest.raises(ValueError):
            f.extended(0, 1 << 2)
        # a fact outside the domain, and a second extension of f once
        # the chain has grown past it, are refused too
        with pytest.raises(ValueError, match="no such fact"):
            FiniteFragment.from_tuples(2, [(0, (0, 2))])
        f.extended(0, 0)
        with pytest.raises(ValueError, match="newest fragment"):
            f.extended(0, 0)

    def test_repr_lists_the_facts(self):
        f = FiniteFragment.from_tuples(3, [(0, (1, 2)), (0, (0, 1))])
        assert repr(f) == (
            "FiniteFragment(size=3, tuples=[(0, (0, 1)), (0, (1, 2))])"
        )

    def test_restricted_drops_outside_tuples(self):
        f = FiniteFragment.from_tuples(3, [(0, (0, 1)), (0, (1, 2))])
        assert f.induced(range(2)).tuple_set() == {(0, (0, 1))}


class TestEmbedding:
    def test_matches_brute_force_random(self):
        rng = random.Random(11)
        for _ in range(150):
            f = random_fragment(rng, rng.randint(0, 4))
            g = random_fragment(rng, rng.randint(0, 5))
            expected = brute_embed_all_injections(f, g)
            assert embed_finite(f, g) == expected
            assert brute_embed(f, g) == expected

    def test_map_is_induced(self):
        rng = random.Random(3)
        for _ in range(60):
            f = random_fragment(rng, rng.randint(1, 4))
            g = random_fragment(rng, rng.randint(1, 5))
            m = embed_map(f, g)
            if m is None:
                continue
            assert len(set(m.values())) == f.size
            for a in range(f.size):
                for b in range(f.size):
                    if a != b:
                        assert f.has(0, (a, b)) == g.has(0, (m[a], m[b]))

    def test_long_stream_into_its_saturated_fragment(self):
        """The unrooted search a retargeted stream builder runs: 201
        stages of tilde(omega) into the 600-element saturated fragment,
        a long chain inside a padded one, where each candidate is tested
        by its two masked rows rather than one neighbour at a time."""
        target = parse_structure("tilde(omega)")
        f = Presentation(target, 1).restrict(200)
        g = saturated_fragment(target, 600)
        m = embed_map(f, g)
        assert m is not None
        assert induced_copy(f, g, tuple(m[u] for u in range(f.size)))

    def test_required_element_in_image(self):
        rng = random.Random(5)
        hits = 0
        for _ in range(80):
            f = random_fragment(rng, rng.randint(1, 3))
            g = random_fragment(rng, rng.randint(1, 5))
            for e in range(g.size):
                m = embed_map(f, g, required=e)
                if m is not None:
                    hits += 1
                    assert e in m.values()
            # no element of g lies at or beyond its size
            assert embed_map(f, g, required=g.size) is None
        assert hits > 0

    def test_required_complete(self):
        # a copy through e exists iff the brute search finds one using e
        rng = random.Random(9)
        for _ in range(60):
            f = random_fragment(rng, 2)
            g = random_fragment(rng, 4)
            for e in range(g.size):
                import itertools

                from _oracles import induced_copy

                brute = any(
                    e in mapping and induced_copy(f, g, mapping)
                    for mapping in itertools.permutations(range(4), 2)
                )
                assert (embed_map(f, g, required=e) is not None) == brute

    @settings(max_examples=300, deadline=None)
    @given(grown_views(3), grown_views(8), st.data())
    def test_required_matches_brute_force(self, f_views, g_views, data):
        """Rooted search against every injection, on targets that are
        older views of a grown chain, so the shared masks of `required`
        carry bits above the view's size; every plan built is for a root
        whose self-loop and degree `required` can match."""
        f = f_views[-1]
        g = data.draw(st.sampled_from(g_views[:6]))
        required = data.draw(st.integers(0, g.size - 1))
        g_facts = g.tuples()
        loop = (0, (required, required)) in g_facts
        # required's out-degree plus in-degree, a self-loop in both
        room = sum(args.count(required) for _, args in g_facts)
        roots = []
        real = structures._search

        def search(plan, pos, *rest):
            if pos == 1 and rest[0] is g._out:
                roots.append(plan[0][0])
            return real(plan, pos, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structures, "_search", search)
            m = embed_map(f, g, required=required)
        brute = any(
            required in mapping and induced_copy(f, g, mapping)
            for mapping in itertools.permutations(range(g.size), f.size)
        )
        assert (m is not None) == brute
        if m is not None:
            mapping = tuple(m[u] for u in range(f.size))
            assert required in mapping and induced_copy(f, g, mapping)
        for u in roots:
            facts = [args for _, args in f.tuples() if u in args]
            assert f.has(0, (u, u)) == loop
            assert len(facts) <= room

    @settings(max_examples=200, deadline=None)
    @given(grown_views(5), grown_views(9), st.data())
    def test_kept_plans_match_a_fresh_copy(self, f_views, g_views, data):
        """Two pattern views of one chain, searched rooted at each new
        element of a growing stream and rooted or unrooted against other
        targets, before and after their chain grows and folds new bits
        into the rows they share: every result, map included, is the
        search of a fresh copy.  A pattern's plans are built by its first
        rooted search that gets that far, and no later search builds or
        keeps any."""
        patterns = [data.draw(st.sampled_from(f_views)) for _ in range(2)]
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        others = [random_fragment(rng, rng.randint(0, 6)) for _ in range(2)]
        kept_builds = []
        real = structures._search_plans

        def counted(f, roots):
            roots = list(roots)
            if roots != [None]:
                kept_builds.append(f)
            return real(f, roots)

        def search(f, g, required):
            fresh = f.induced(range(f.size))
            kept, built = f._plans, len(kept_builds)
            got = embed_map(f, g, required=required)
            assert got == embed_map(fresh, g, required=required)
            builds = kept_builds[built:]
            if required is None:
                assert not builds
                assert f._plans is kept and fresh._plans is None
            elif kept is not None:
                assert f._plans is kept
            assert all(b is f or b is fresh for b in builds)
            assert sum(b is f for b in builds) <= (kept is None)

        def search_all():
            for g in g_views:
                for f in patterns:
                    search(f, g, g.size - 1)
            for g in others + g_views[:3]:
                required = rng.choice([None, *range(g.size)])
                for f in patterns:
                    search(f, g, required)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structures, "_search_plans", counted)
            search_all()
            top = f_views[-1]
            for e in range(top.size, top.size + data.draw(st.integers(1, 2))):
                below = st.integers(0, (1 << e) - 1)
                top = top.extended(data.draw(below), data.draw(below))
            top.masks()  # folds the new bits into the shared rows
            search_all()

    @settings(max_examples=150, deadline=None)
    @given(orbit_patterns(), st.data())
    def test_rooted_search_keeps_one_plan_per_orbit(self, f, data):
        """A rooted search at each new element of a grown target returns
        the map, insertion order included, of trying every root's plan in
        element order; the pattern keeps the plan of each automorphism
        orbit's first element, and tests two roots for one orbit only when
        their out- and in-degrees match."""
        n, facts = f.size, f.tuples()
        shape = [
            (sum(a == u for _, (a, b) in facts),
             sum(b == u for _, (a, b) in facts))
            for u in range(n)
        ]
        perms = itertools.permutations(range(n))
        autos = [p for p in perms if induced_copy(f, f, p)]
        firsts = [u for u in range(n) if all(p[u] >= u for p in autos)]
        target = grown_around(f, data)
        orbit_tests = []
        real = structures._search

        def search(plan, pos, g_out, g_in, g_full, image, used):
            if g_out is f._out:
                orbit_tests.append((plan[0][0], image[plan[0][0]]))
            return real(plan, pos, g_out, g_in, g_full, image, used)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structures, "_search", search)
            for g in target:
                got = embed_map(f, g, required=g.size - 1)
                assert repr(got) == repr(every_root(f, g, g.size - 1))
        assert [plan[0][0] for plan in f._plans] == firsts
        assert f._plans == tuple(
            structures._search_plans(f, [u])[0] for u in firsts
        )
        assert all(shape[u] == shape[v] for u, v in orbit_tests)

    def test_cycle_root_tried_once_per_rooted_call(self):
        """cycle(5) never occurs in cyc_comp(5), and a stream watch's
        rooted search through a new element tries one root of the cycle,
        whose elements form one orbit, instead of all five.  The watch
        searches only at the 13 of 47 extensions whose new element has
        two neighbours, the shape of every element of the cycle."""
        stream = Presentation(parse_structure("cyc_comp(5)"), 1)
        watch = StreamWatch({0: embeds("cycle(5)")})
        calls, tries = [], []
        real_map, real_search = sigma1.embed_map, structures._search

        def rooted(f, g, required=None):
            if required is not None:
                calls.append(len(tries))
            return real_map(f, g, required=required)

        def search(plan, pos, g_out, *rest):
            if pos == 1 and g_out is stream.restrict(1)._out:
                tries.append(plan[0][0])
            return real_search(plan, pos, g_out, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sigma1, "embed_map", rooted)
            mp.setattr(structures, "_search", search)
            state = watch.initial()
            for s in range(1, 49):
                state = watch.advance(state, stream.restrict(s))
        assert state[1] == {} and tries
        assert len(calls) == 13
        assert all(b - a <= 1 for a, b in zip(calls, calls[1:] + [len(tries)]))

    def test_orbit_tests_only_between_equal_degrees(self):
        """Planning a padded chain's rooted searches tests two elements for
        one orbit only when both their out- and in-degrees match: the top
        of the chain and an isolated point share an out-degree."""
        canonical = canonical_fragment(parse_structure("tilde(chain(4))"), 8)
        f = canonical.induced(range(8))
        out, inn = f.masks()
        degrees = [(o.bit_count(), i.bit_count()) for o, i in zip(out, inn)]
        tests = []
        real = structures._search

        def search(plan, pos, g_out, g_in, g_full, image, used):
            if g_out is f._out:
                tests.append((plan[0][0], image[plan[0][0]]))
            return real(plan, pos, g_out, g_in, g_full, image, used)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structures, "_search", search)
            embed_map(f, canonical, required=0)
        assert tests and f._plans is not None
        assert all(degrees[u] == degrees[v] for u, v in tests)

    def test_rooted_chain_search_stays_local(self):
        """A 7-element chain searched rooted at each element of a padded
        omega stream: the out- and in-degree filter rejects every image
        without room above or below it, so no stage through 64 makes more
        than 50 `_search` calls (a summed degree made 10,261 at stage
        32), and the map found at stage 51 is the one found before."""
        chain = canonical_fragment(parse_structure("chain(7)"), 7)
        chain = chain.induced(range(7))  # a pattern without kept plans
        pres = Presentation(parse_structure("tilde(omega)"), 1)
        calls, real = [], structures._search

        def search(*args):
            calls.append(args[1])
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structures, "_search", search)
            for s in range(1, 65):
                calls.clear()
                got = embed_map(chain, pres.restrict(s), required=s - 1)
                assert len(calls) <= 50, s
                if s == 51:
                    assert got == {
                        6: 50, 0: 2, 1: 3, 2: 5, 3: 9, 4: 13, 5: 15
                    }

    def test_search_leaves_no_reference_cycle(self):
        """Each call's recursive search is freed by reference counting,
        not left for the cyclic collector."""
        f = canonical_fragment(parse_structure("cycle(5)"), 5)
        g = canonical_fragment(parse_structure("cyc_comp(4)"), 30)
        gc.disable()
        try:
            gc.collect()
            for _ in range(10):
                embed_map(f, g)
            assert gc.collect() == 0
        finally:
            gc.enable()


def brute_strict_order(facts):
    pairs = {args for _, args in facts}
    return all(a != b and (b, a) not in pairs for a, b in pairs) and all(
        (a, d) in pairs for a, b in pairs for c, d in pairs if b == c
    )


@st.composite
def extension_chains(draw):
    """A relation on {0..n-1} revealed as an extension chain in random
    steps, some adding no element.  Order chains draw a random sub-order
    of a random linear order and close it transitively, so the whole
    chain is a strict order; perturbed ones then flip up to two pairs, so
    the chain stays an order for a while and then may stop being one; the
    others draw a relation of random density, self-loops included."""
    n = draw(st.integers(0, 9))
    density = draw(st.floats(0, 1))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["order", "perturbed", "random"]))
    if kind != "random":
        rank = list(range(n))
        rng.shuffle(rank)
        rel = {
            (a, b)
            for a in range(n)
            for b in range(n)
            if rank[a] < rank[b] and rng.random() < density
        }
        for c in range(n):
            rel |= {(a, b) for a, x in rel for y, b in rel if x == c == y}
        if kind == "perturbed" and n:
            for _ in range(draw(st.integers(1, 2))):
                rel ^= {(rng.randrange(n), rng.randrange(n))}
    else:
        rel = {
            (a, b)
            for a in range(n)
            for b in range(n)
            if rng.random() < density
        }
    sizes = [0]
    while sizes[-1] < n:
        sizes.append(min(n, sizes[-1] + draw(st.integers(0, 3))))
    asked = draw(st.lists(st.booleans(), min_size=len(sizes),
                          max_size=len(sizes)))
    return rel, sizes, asked, rng


class TestMaskCore:
    @settings(max_examples=300, deadline=None)
    @given(extension_chains())
    def test_extension_chain_views(self, chain):
        rel, sizes, asked, rng = chain
        frags = [FiniteFragment(0)]
        for old, new, ask in zip(sizes, sizes[1:], asked):
            # ask some fragments for the order flag while the chain grows,
            # so both the derived and the computed flag are exercised
            if ask:
                frags[-1].is_strict_order()
            frag = frags[-1]
            for x in range(old, new):
                frag = frag.extended(
                    sum(1 << b for a, b in rel if a == x and b <= x),
                    sum(1 << a for a, b in rel if b == x and a <= x),
                )
            frags.append(frag)

        for frag in frags:
            n = frag.size
            facts = frag.tuple_set()
            assert facts == {
                (0, (a, b)) for a, b in rel if a < n and b < n
            }
            for a in range(n + 1):
                for b in range(n + 1):
                    assert frag.has(0, (a, b)) == ((0, (a, b)) in facts)
            assert frag.is_strict_order() == brute_strict_order(facts)

            subset = [e for e in range(n) if rng.random() < 0.6]
            rng.shuffle(subset)
            relabel = {e: i for i, e in enumerate(subset)}
            expected = FiniteFragment.from_tuples(
                len(subset),
                [
                    (0, (relabel[a], relabel[b]))
                    for _, (a, b) in facts
                    if a in relabel and b in relabel
                ],
            )
            sub = frag.induced(subset)
            assert sub == expected
            assert sub.tuples() == expected.tuples()
            for a in range(sub.size):
                for b in range(sub.size):
                    assert sub.has(0, (a, b)) == expected.has(0, (a, b))
            assert sub.is_strict_order() == brute_strict_order(
                sub.tuple_set()
            )

    @settings(max_examples=200, deadline=None)
    @given(extension_chains(), st.sampled_from(["empty", "tuples", "induced"]))
    def test_reads_while_the_chain_grows(self, chain, root):
        """Random reads of every kind on random fragments of a chain, older
        ones and the newest, between its extensions; the chain starts from
        the empty fragment or from one that owns its masks.  Each read
        equals the brute-force answer on that fragment's own facts."""
        rel, sizes, _, rng = chain
        n = sizes[-1]

        def facts(m):
            return {(0, (a, b)) for a, b in rel if a < m and b < m}

        r = rng.randint(0, n) if root != "empty" else 0
        if root == "tuples":
            frag = FiniteFragment.from_tuples(r, facts(r))
        elif root == "induced":
            # the first r elements sit at shuffled places of a bigger
            # fragment, and come back in order
            place = list(range(n + 2))
            rng.shuffle(place)
            frag = FiniteFragment.from_tuples(
                n + 2, [(0, (place[a], place[b])) for _, (a, b) in facts(n)]
            ).induced(place[:r])
        else:
            frag = FiniteFragment(0)
        views = [frag]
        for x in range(r, n):
            frag = frag.extended(
                sum(1 << b for a, b in rel if a == x and b <= x),
                sum(1 << a for a, b in rel if b == x and a <= x),
            )
            views.append(frag)
            for _ in range(rng.randint(0, 3)):
                view = rng.choice(views[-2:] if rng.random() < 0.4 else views)
                self.check_read(view, facts(view.size), rng)
        for view in views:
            self.check_read(view, facts(view.size), rng)

    @staticmethod
    def check_read(view, facts, rng):
        n = view.size
        pairs = {args for _, args in facts}
        row = [
            (sum(1 << b for a, b in pairs if a == e),
             sum(1 << a for a, b in pairs if b == e))
            for e in range(n)
        ]
        same = FiniteFragment.from_tuples(n, facts)
        kind = rng.choice([
            "row", "masks", "has", "tuples", "count", "equal", "induced",
            "embed", "order",
        ])
        if kind == "row" and n:
            e = n - 1 if rng.random() < 0.5 else rng.randrange(n)
            assert view.row(e) == row[e]
        elif kind == "masks":
            assert view.masks() == ([s for s, _ in row], [p for _, p in row])
        elif kind == "has":
            for a in range(n + 1):
                for b in range(n + 1):
                    assert view.has(0, (a, b)) == ((a, b) in pairs)
        elif kind == "tuples":
            expected = []
            for e in range(n):
                for j in range(e + 1):
                    expected += [(0, (j, e))] * ((j, e) in pairs)
                    expected += [(0, (e, j))] * (j < e and (e, j) in pairs)
            assert view.tuples() == expected
        elif kind == "count":
            assert view.fact_count() == len(facts)
        elif kind == "equal":
            assert view == same and same == view
            assert hash(view) == hash(same)
            assert view.extends(same) and same.extends(view)
        elif kind == "induced":
            subset = [e for e in range(n) if rng.random() < 0.6]
            rng.shuffle(subset)
            relabel = {e: i for i, e in enumerate(subset)}
            assert view.induced(subset).tuple_set() == {
                (0, (relabel[a], relabel[b]))
                for a, b in pairs
                if a in relabel and b in relabel
            }
        elif kind == "embed":
            # into and out of the chain: a relabelled copy embeds both
            # ways, a random fragment as the brute search says
            perm = list(range(n))
            rng.shuffle(perm)
            copy = FiniteFragment.from_tuples(
                n, [(0, (perm[a], perm[b])) for a, b in pairs]
            )
            other = random_fragment(rng, rng.randint(0, 4))
            for f, g, found in ((copy, view, True), (view, copy, True),
                                (other, view, None), (view, other, None)):
                m = embed_map(f, g)
                if found is None:
                    found = brute_embed(f, g)
                assert (m is not None) == found
                if found:
                    mapping = tuple(m[u] for u in range(f.size))
                    assert induced_copy(f, g, mapping)
        elif kind == "order":
            assert view.is_strict_order() == brute_strict_order(facts)


def order_from_scratch(frag):
    """Irreflexive and transitive, read off every row: each successor's
    successors are successors too."""
    succ, _ = frag.masks()
    return not any(
        row >> a & 1 or any(succ[b] & ~row for b in iter_bits(row))
        for a, row in enumerate(succ)
    )


@pytest.mark.parametrize(
    "key", ["zeta", "poset_p(0)", "tilde(poset_p(2))", "cyc_comp(5)",
            "du(cycle(4),iso_inf)"]
)
def test_order_flag_resumes_along_a_prebuilt_stream(key, monkeypatch):
    """A stream built before it is read: building does no order work, each
    flag, asked in a shuffled order, equals a from-scratch check, and each
    element of the chain up to the first that breaks the order is looked
    at once, and no later one at all."""
    looked = []
    grows = FiniteFragment._order_grows_from

    def counted(frag, old):
        stop = grows(frag, old)
        looked.extend(range(old, min(stop + 1, frag.size)))
        return stop

    monkeypatch.setattr(FiniteFragment, "_order_grows_from", counted)
    for seed in (1, 2):
        pres = Presentation(parse_structure(key), seed)
        frags = [pres.restrict(s) for s in range(48)]
        assert looked == []
        random.Random(seed).shuffle(frags)
        flags = {}
        for frag in frags:
            flags[frag.size] = frag.is_strict_order()
            assert flags[frag.size] == order_from_scratch(frag)
        top = max(n for n, flag in flags.items() if flag)
        assert sorted(looked) == list(range(min(top + 1, 48)))
        looked.clear()


def test_min_max_learner_never_folds_its_stream():
    """The min/max learner reads only each new element's row and extends
    on one chain, so 1,024 stages of either member leave every element
    unfolded; one full read folds the chain and sees the same rows as a
    fragment that owns its masks."""
    family = H.get_family("omega_pair")
    learner = H.LEARNERS["ex_minmax"](family)
    for member in family:
        pres = Presentation(member, 1)
        run(learner, pres, 1024)
        frag = pres.restrict(1023)
        assert frag._fold == [0]
        owned = FiniteFragment.from_tuples(frag.size, frag.tuples())
        assert frag.masks() == owned.masks()
        assert frag._fold is None and pres.fragments[1]._fold == [1024]


@pytest.mark.parametrize("name, family", [
    ("pl_fstar", "fstar"), ("ex_poset", "posets"),
])
def test_summary_learners_read_no_full_masks(monkeypatch, name, family):
    """The chain and ladder learners carry their order summary, so after
    the first stage of a 1,024-stage presentation they add each new
    element's row and never ask for every element's masks."""
    calls = []
    masks = FiniteFragment.masks

    def counted(frag):
        calls.append(frag.size)
        return masks(frag)

    monkeypatch.setattr(FiniteFragment, "masks", counted)
    family = H.get_family(family)
    learner = H.LEARNERS[name](family)
    for member in family:
        pres = Presentation(member, 1)
        state, _ = learner.step(learner.initial_state(), pres.restrict(0))
        calls.clear()
        for s in range(1, 1024):
            state, _ = learner.step(state, pres.restrict(s))
        assert calls == [], member.key()


def test_order_check_folds_each_element_once(monkeypatch):
    """pl_fstar on each fstar member over 1,024 stages: the order check
    folds each new element in the walk that checks it, and `_settle`
    folds none that the check folded, so every element of the stream is
    folded exactly once (the first by the learner's first `extends`).
    Folded elements are read off the fold record."""
    settled, checked = [], []
    settle, grows = FiniteFragment._settle, FiniteFragment._order_grows_from

    def counted_settle(frag):
        if frag._fold is not None:
            settled.extend(range(frag._fold[0], len(frag._out)))
        settle(frag)

    def counted_grows(frag, old):
        fold = frag._fold
        start = None if fold is None else fold[0]
        stop = grows(frag, old)
        if fold is not None:
            checked.extend(range(start, fold[0]))
        return stop

    monkeypatch.setattr(FiniteFragment, "_settle", counted_settle)
    monkeypatch.setattr(FiniteFragment, "_order_grows_from", counted_grows)
    family = H.get_family("fstar")
    learner = H.LEARNERS["pl_fstar"](family)
    for member in family:
        settled.clear()
        checked.clear()
        run(learner, Presentation(member, 1), 1024)
        assert sorted(settled + checked) == list(range(1024)), member.key()
        assert len(checked) == 1023


def mentioned(frag):
    """The elements named by some fact, ascending, read off the facts."""
    return sorted({x for _, args in frag.tuples() for x in args})


class TestLinkedMask:
    @staticmethod
    def grow(data, frag):
        """frag extended by one element with random masks, each often
        empty, and sometimes a self-loop."""
        e = frag.size
        masks = st.one_of(st.just(0), st.integers(0, (1 << e) - 1))
        loop = data.draw(st.booleans()) << e
        return frag.extended(data.draw(masks) | loop, data.draw(masks) | loop)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_linked_is_every_element_in_a_fact(self, data):
        """The carried mask along a random extension chain, on its older
        views once the chain has grown, and the lazily computed one of
        `from_tuples` and `induced` fragments and of their extensions."""
        frag, views = FiniteFragment(0), []
        for _ in range(data.draw(st.integers(1, 10))):
            frag = self.grow(data, frag)
            assert list(iter_bits(frag.linked_mask())) == mentioned(frag)
            views.append(frag)
        for view in views:
            assert list(iter_bits(view.linked_mask())) == mentioned(view)
            assert view.linked_mask() == sum(1 << e for e in mentioned(view))

        view = data.draw(st.sampled_from(views))
        subset = data.draw(
            st.lists(st.integers(0, view.size - 1), unique=True)
        )
        rebuilt = FiniteFragment.from_tuples(view.size, view.tuples())
        for frag in (rebuilt, view.induced(subset)):
            # extending it computes its mask before the masks grow
            grown = self.grow(data, frag)
            assert list(iter_bits(frag.linked_mask())) == mentioned(frag)
            assert list(iter_bits(grown.linked_mask())) == mentioned(grown)
