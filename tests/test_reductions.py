import itertools

import pytest
from hypothesis import given, settings, strategies as st

from limitlab.catalog import Family, Presentation, parse_structure
from limitlab.learners import ConfigurationError
from limitlab.pairing import pair, triple, unpair
from limitlab.reductions import (
    GammaErange,
    GammaErangeToE3,
    GammaFinToEqnat,
    GammaFinToEqnatTotal,
    RELATIONS,
    OutputPrefix,
    check_prefix,
    run_operator,
    verify_reduction,
)
from limitlab.sigma1 import classify_family
from limitlab import harness as H, reductions, sigma1


def S(key):
    return parse_structure(key)


def outputs(operator, fragments):
    """The values an operator emits along a fragment stream, in order: its
    `initial()` state, then `step(state, fragment)` -> (state, new values);
    the reference every run path is checked against."""
    state, out = operator.initial(), []
    for frag in fragments:
        state, new = operator.step(state, frag)
        out.extend(new)
    return out


def columns(prefix):
    """Every E3 column of the prefix with a row, as the tuple of its
    values, expanded from its runs."""
    cols = []
    for runs in prefix.column_runs:
        col = []
        for x, end in runs:
            col += [x] * (end - len(col))
        cols.append(tuple(col))
    return cols


class TestCheckPrefix:
    def test_eqnat_settles_on_first_value(self):
        same = check_prefix("eqnat", OutputPrefix((4, 0)), OutputPrefix((4, 9)))
        assert same.kind == "EquivalentByRule"
        diff = check_prefix("eqnat", OutputPrefix((4,)), OutputPrefix((5,)))
        assert diff.kind == "DefinitelyDistinct" and diff.position == 0
        # an operator that has not committed yet leaves =N undecided
        open_ = check_prefix("eqnat", OutputPrefix(()), OutputPrefix((5,)))
        assert open_.kind == "ConsistentSoFar"
        assert not RELATIONS["eqnat"][2](open_)

    def test_erange_distinct_outside_closed_range(self):
        a = OutputPrefix((0, 7))
        b = OutputPrefix((0, 0))
        v = check_prefix("Erange", a, b, closed_range_a={0, 7},
                         closed_range_b={0})
        assert v.kind == "DefinitelyDistinct"
        # while every value lies in both closed ranges, which differ, the
        # pair stays undecided, and an empty delta is no separation
        v = check_prefix("Erange", OutputPrefix((0, 0)), OutputPrefix((0,)),
                         closed_range_a={0, 7}, closed_range_b={0})
        assert v.kind == "ConsistentSoFar"
        assert v.payload == {"delta": []}
        assert not RELATIONS["Erange"][2](v)

    def test_erange_distinct_at_first_value_outside(self):
        # the first value outside the other side's closed range sets the
        # position, on either side, wherever it lies
        a = OutputPrefix((0, 3, 0, 3))
        b = OutputPrefix((0, 3, 0, 5, 3, 5))
        v = check_prefix("Erange", a, b, closed_range_a={0, 3},
                         closed_range_b={0, 3, 5})
        assert (v.kind, v.position) == ("DefinitelyDistinct", 3)
        v = check_prefix("Erange", b, a, closed_range_a={0, 3, 5},
                         closed_range_b={0, 3})
        assert (v.kind, v.position) == ("DefinitelyDistinct", 3)
        # a side that stays inside is not scanned for a position
        v = check_prefix("Erange", a, b, closed_range_a={0, 3, 5},
                         closed_range_b={0, 3, 5})
        assert v.kind == "EquivalentByRule"

    def test_erange_equal_ranges_equivalent(self):
        a = OutputPrefix((0, 1))
        b = OutputPrefix((1, 0, 1))
        v = check_prefix("Erange", a, b, closed_range_a={0, 1},
                         closed_range_b={0, 1})
        assert v.kind == "EquivalentByRule"

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 1), max_size=60),
        st.lists(st.integers(0, 1), max_size=60),
    )
    def test_e3_columns_match_column_reference(self, xs, ys):
        a, b = OutputPrefix(tuple(xs)), OutputPrefix(tuple(ys))
        k = min(len(a), len(b))
        expected, m, ac, bc = {}, 0, columns(a), columns(b)
        while pair(m, 0) < k:
            ca, cb = ac[m], bc[m]
            diffs = [r for r in range(min(len(ca), len(cb))) if ca[r] != cb[r]]
            if diffs:
                expected[m] = {
                    "mismatches": len(diffs),
                    "last_mismatch": diffs[-1],
                }
            m += 1
        v = check_prefix("E3", a, b)
        assert v.kind == "ConsistentSoFar"
        assert v.payload == {"columns": expected}
        cols = v.payload["columns"]
        assert list(cols) == list(expected)
        assert all(list(cols[m]) == list(expected[m]) for m in expected)

    def test_columns_are_decoded_once(self):
        """At every length, partial last diagonals included, the kept
        column runs spell the pairing's columns read position by
        position."""
        for k in range(81):
            prefix = OutputPrefix(tuple(range(k)))  # each value its position
            expected, m = [], 0
            while pair(m, 0) < k:
                rows = itertools.takewhile(
                    lambda r: pair(m, r) < k, itertools.count()
                )
                expected.append(tuple(pair(m, r) for r in rows))
                m += 1
            runs = prefix.column_runs
            assert columns(prefix) == expected
            assert prefix.column_runs is runs

    def test_unknown_relation(self):
        # no registered operator targets Id, E0 or Eset
        for rel in ("E9", "Id", "E0", "Eset"):
            with pytest.raises(ValueError, match="unknown relation tag"):
                check_prefix(rel, OutputPrefix(()), OutputPrefix(()))


def _flips(positions, length=10):
    """A 0/1 prefix whose 1s are at the given flat positions."""
    return OutputPrefix(tuple(int(p in positions) for p in range(length)))


class TestRelations:
    def test_one_row_per_operator_tag(self):
        assert set(RELATIONS) == {cls.tag for cls in H.GAMMAS.values()}

    @pytest.mark.parametrize("rel, a, b, closed, separated", [
        # column 0 holds flat positions 0, 2, 5, column 1 positions 1, 4
        ("E3", _flips(()), _flips({0, 2}), (), False),
        ("E3", _flips(()), _flips({0, 2, 5}), (), True),
        ("E3", _flips(()), _flips({0, 2, 1, 4}), (), False),
        # values inside both closed ranges, which differ
        ("Erange", OutputPrefix((0, 3)), OutputPrefix((3, 0)),
         ({0, 3, 5}, {0, 3}), False),
        ("Erange", OutputPrefix((0, 3)), OutputPrefix((0,)),
         ({0, 3}, {0, 3, 5}), True),
        ("eqnat", OutputPrefix(()), OutputPrefix((5,)), (), False),
        ("eqnat", OutputPrefix((4, 4)), OutputPrefix(()), (), False),
    ], ids=["E3-2", "E3-3", "E3-2+2", "Erange-empty", "Erange-delta",
            "eqnat-open-a", "eqnat-open-b"])
    def test_separation_at_its_boundary(self, rel, a, b, closed, separated):
        """E3 separates on three mismatches in one column, not two, nor
        two in each of two columns; E-range on a non-empty delta; =N on
        no undecided pair."""
        verdict = check_prefix(rel, a, b, *closed)
        assert verdict.kind == "ConsistentSoFar"
        assert RELATIONS[rel][2](verdict) is separated


class TestGammaFinToEqnat:
    def test_constant_correct_code(self):
        fam = H.get_family("cycles")
        op = H.GAMMAS["gamma_fin_to_eqnat"](fam)
        for code in (0, 1):
            prefix = run_operator(op, Presentation(fam.members[code], 3), 80)
            assert prefix.values
            assert set(prefix.values) == {code}

    def test_total_variant_defaults(self):
        fam = H.get_family("cycles")
        op = GammaFinToEqnatTotal(fam, patience=10)
        # a stream of isolated points never commits; output defaults
        builder_fam = Family((S("iso_inf"),))
        prefix = run_operator(op, Presentation(S("iso_inf"), 1), 40)
        assert len(prefix) >= 1
        assert set(prefix.values) == {0}

    def test_verify_passes(self):
        fam = H.get_family("cycles")
        op = H.GAMMAS["gamma_fin_to_eqnat"](fam)
        report = verify_reduction(op, fam, horizon=60)
        assert report["passed"]


class TestGammaErange:
    def test_rejects_equal_theories(self):
        with pytest.raises(ConfigurationError):
            H.GAMMAS["gamma_erange"](H.get_family("omega_pair"))

    def test_separation_value_on_chain_pair(self):
        fam = H.get_family("tilde_chains")
        op = H.GAMMAS["gamma_erange"](fam)
        big = run_operator(op, Presentation(fam.members[1], 1), 100)
        small = run_operator(op, Presentation(fam.members[0], 1), 100)
        # member 1 strictly above member 0: the (1,0) marker value
        # appears only on member-1 streams
        marker = pair(1, 0)
        assert marker in big.range_set
        assert marker not in small.range_set
        assert big.range_set <= op.declared_range(1)
        assert small.range_set <= op.declared_range(0)

    def test_output_is_continuous(self):
        fam = H.get_family("tilde_chains")
        op = H.GAMMAS["gamma_erange"](fam)
        pres = Presentation(fam.members[1], 2)
        frags = [pres.restrict(s) for s in range(60)]
        short = outputs(op, frags[:30])
        full = outputs(op, frags)
        assert full[: len(short)] == short

    def test_verify_passes(self):
        fam = H.get_family("tilde_chains")
        op = H.GAMMAS["gamma_erange"](fam)
        report = verify_reduction(op, fam, horizon=100)
        assert report["passed"]

    def test_verify_asks_each_declared_range_once(self, monkeypatch):
        fam = H.get_family("cyc_comp")
        op = H.GAMMAS["gamma_erange"](fam)
        asked = []
        real = op.declared_range
        monkeypatch.setattr(
            op, "declared_range", lambda code: asked.append(code) or real(code)
        )
        verify_reduction(op, fam, horizon=30)
        assert sorted(asked) == list(range(len(fam.members)))


def reference_step(op, state, fragment):
    """An E-range operator's step decoded one flat position at a time:
    unpair of the position and of its second coordinate for GammaErange,
    of the position and of its column for GammaErangeToE3.  A position
    once emitted is never emitted again, also after a shorter fragment."""
    watched, emitted = state
    watched = op.watch.advance(watched, fragment)
    first_sat, new = watched[1], []
    if op.tag == "E3":
        top = max(emitted, pair(0, fragment.size))
        for q in range(emitted, top):
            col, row = unpair(q)
            t = first_sat.get(unpair(col))
            new.append(1 if t is not None and row >= t else 0)
    else:
        top = max(emitted, triple(fragment.size, 0, 0))
        for q in range(emitted, top):
            s, rest = unpair(q)
            i, j = unpair(rest)
            t = first_sat.get((i, j))
            new.append(pair(i, j) if t is not None and s >= t else 0)
    return (watched, top), tuple(new)


#: stages whose fragments are fed in turn: single steps, jumps of two and
#: three elements, repeated fragments, and a restart from a shorter one
SCHEDULE = (
    [0, 1, 2, 4, 7, 7, 9, 12, 14, 14, 17, 20, 22, 25, 28, 30, 33, 35, 35]
    + [38, 40, 43, 45, 48, 50, 10, 11, 13, 13, 16, 18, 21, 24, 26, 29, 31]
)


@pytest.mark.parametrize("gamma", [GammaErange, GammaErangeToE3])
@pytest.mark.parametrize("name", ["tilde_chains", "cyc_comp", "padded_chains"])
def test_erange_operators_match_per_position_reference(
    name, gamma, monkeypatch
):
    fam = H.get_family(name)
    # separating tilde(omega) from tilde(chain(8)) takes a 9-element chain
    monkeypatch.setattr(
        reductions, "classify_family",
        lambda family: classify_family(family, bound=9),
    )
    op = gamma(fam)
    nonzero = 0
    for member in fam.members:
        last = SCHEDULE[-1] if member.size() is None else member.size() - 1
        for seed in (1, 2):
            pres = Presentation(member, seed)
            state = ref = op.initial()
            for s in SCHEDULE:
                frag = pres.restrict(min(s, last))
                state, new = op.step(state, frag)
                ref, expected = reference_step(op, ref, frag)
                assert new == expected
                assert state == ref
                nonzero += sum(map(bool, new))
    assert nonzero  # some formula held, so the values were not all 0


@pytest.mark.parametrize("gamma", [GammaErange, GammaErangeToE3])
def test_erange_operators_never_reemit(gamma):
    """After a shorter fragment the settled length does not go down, so
    the output stays indexed by the pairing: no flat position twice."""
    fam = H.get_family("tilde_chains")
    op = gamma(fam)
    pres = Presentation(fam.members[1], 1)
    state, out = op.initial(), []
    for s in (50, 10, 11):
        emitted = state[1]
        state, new = op.step(state, pres.restrict(s))
        assert state[1] == emitted + len(new)
        out.extend(new)
    assert out == outputs(op, [pres.restrict(50)])


@pytest.mark.parametrize("gamma", [GammaFinToEqnat, GammaFinToEqnatTotal])
def test_eqnat_operators_never_reemit(gamma):
    """A shorter fragment after a commitment emits nothing and leaves the
    emitted length as it was, so the longer one after it adds no stage
    twice: both =N operators, the total one committing past `patience`."""
    fam = H.get_family("cycles")
    op = gamma(fam)
    if gamma is GammaFinToEqnatTotal:
        op.patience = 3
    pres = Presentation(fam.members[0], 1)
    state, out = op.initial(), []
    for size in (20, 2, 20):
        state, new = op.step(state, pres.restrict(size - 1))
        out.extend(new)
    assert state[2] == len(out) == 20
    assert out == outputs(op, [pres.restrict(19)])


class TestGammaErangeToE3:
    def test_column_flips_once(self):
        fam = H.get_family("tilde_chains")
        op = H.GAMMAS["gamma_erange_to_e3"](fam)
        prefix = run_operator(op, Presentation(fam.members[1], 1), 120)
        col = columns(prefix)[pair(1, 0)]
        assert 1 in col
        first = col.index(1)
        assert all(b == 1 for b in col[first:])
        assert all(b == 0 for b in col[:first])

    def test_verify_passes(self):
        fam = H.get_family("tilde_chains")
        op = H.GAMMAS["gamma_erange_to_e3"](fam)
        report = verify_reduction(op, fam, horizon=120)
        assert report["passed"]


def test_erange_to_e3_verify_on_cyc_comp_rooted_search_count(monkeypatch):
    """A deterministic count of work: verify_reduction of
    gamma_erange_to_e3 on cyc_comp at horizon 48 makes exactly 263 rooted
    embed_map calls, those whose new element can root a pending pair
    witness."""
    rooted = [0]
    real = sigma1.embed_map

    def counted(f, g, required=None):
        rooted[0] += required is not None
        return real(f, g, required=required)

    monkeypatch.setattr(sigma1, "embed_map", counted)
    fam = H.get_family("cyc_comp")
    op = H.GAMMAS["gamma_erange_to_e3"](fam)
    assert verify_reduction(op, fam, horizon=48)["passed"]
    assert rooted[0] == 263


def _erange_runs():
    """(operator, runs) for gamma_erange and gamma_erange_to_e3 on every
    member of tilde_chains and cyc_comp, at seeds 1-2 and horizons 0, 1,
    2, 17 and 48; each run is (member code, its fragments)."""
    for gamma in ("gamma_erange", "gamma_erange_to_e3"):
        for name in ("tilde_chains", "cyc_comp"):
            fam = H.get_family(name)
            op = H.GAMMAS[gamma](fam)
            runs = []
            for code, member in enumerate(fam.members):
                for seed in (1, 2):
                    pres = Presentation(member, seed)
                    for horizon in (0, 1, 2, 17, 48):
                        frags = [pres.restrict(s) for s in range(horizon)]
                        runs.append((code, pres, horizon, frags))
            yield op, runs


def test_record_prefixes_match_their_values():
    """An E-range or E3 run's record prefix derives the values `step`
    emits, and every comparison of two record prefixes, unequal horizons
    included, gives the verdict their values give."""
    compared = 0
    for op, runs in _erange_runs():
        rel = op.tag
        reads_ranges = RELATIONS[rel][1]
        ranges = [op.declared_range(i) for i in range(len(op.family.members))]
        records, plain = [], []
        for code, pres, horizon, frags in runs:
            prefix = run_operator(op, pres, horizon)
            assert isinstance(prefix, op.record)
            values = tuple(outputs(op, frags))
            assert prefix.values == values
            want = OutputPrefix(values)
            # the summaries themselves, one column past the last included
            assert (len(prefix), prefix.width, prefix.firsts) == (
                len(want), want.width, want.firsts
            )
            columns = range(want.width + 1)
            assert [prefix.runs(m) for m in columns] == [
                want.runs(m) for m in columns
            ]
            records.append((code, prefix))
            plain.append(want)
        for (i, a), pa in zip(records, plain):
            for (j, b), pb in zip(records, plain):
                for closed in ([(ranges[i], ranges[j])] if reads_ranges
                               else []) + [(None, None)]:
                    got = check_prefix(rel, a, b, *closed)
                    want = check_prefix(rel, pa, pb, *closed)
                    assert (got.kind, got.position, got.payload) == (
                        want.kind, want.position, want.payload
                    )
                    compared += 1
    # E-range pairs with and without closed ranges, E3 pairs without
    assert compared == 3 * (20 ** 2 + 40 ** 2)


@pytest.mark.parametrize("gamma,name", [
    ("gamma_erange", "tilde_chains"),
    ("gamma_erange_to_e3", "tilde_chains"),
    ("gamma_fin_to_eqnat", "cycles"),
])
def test_a_run_refuses_a_fragment_off_its_chain(gamma, name):
    """A run reads one presentation chain: a fragment that is neither the
    last one nor its one-element extension raises, on the record path
    (E-range, E3) and on the stepped one (=N), and the run goes on along
    its chain, a repeated fragment included."""
    fam = H.get_family(name)
    op = H.GAMMAS[gamma](fam)
    pres = Presentation(fam.members[1], 1)
    run = reductions.OperatorRun(op, [pres.restrict(s) for s in (0, 1, 1)])
    assert (run.record is None) == (op.tag == "eqnat")
    for s in (3, 0):
        with pytest.raises(ValueError, match="one presentation chain"):
            run.feed(pres.restrict(s))
    frags = [pres.restrict(s) for s in (0, 1, 1, 2, 3)]
    run.feed(frags[3])
    run.feed(frags[4])
    assert run.prefix().values == tuple(outputs(op, frags))


class FlippedE3(GammaErangeToE3):
    """A GammaErangeToE3 whose step flips every value it emits: still a
    reduction to E3, but not the operator its record describes."""

    def step(self, state, fragment):
        state, new = super().step(state, fragment)
        return state, tuple(1 - v for v in new)


def test_an_overridden_step_is_verified_on_its_values(monkeypatch):
    fam = H.get_family("tilde_chains")
    op = FlippedE3(fam)
    pres = Presentation(fam.members[1], 1)
    prefix = run_operator(op, pres, 48)
    assert not isinstance(prefix, reductions.RecordPrefix)
    assert prefix.values == tuple(
        outputs(op, [pres.restrict(s) for s in range(48)])
    )
    assert 0 in prefix.values and 1 in prefix.values
    seen = []
    real = reductions.check_prefix
    monkeypatch.setattr(
        reductions, "check_prefix",
        lambda rel, a, b, *ranges: seen.append(a) or real(rel, a, b, *ranges),
    )
    assert verify_reduction(op, fam, horizon=48)["passed"]
    # column 0, all 0 in the record, is all 1 in the flipped values
    assert seen and all(a.runs(0) == ((1, 48),) for a in seen)
