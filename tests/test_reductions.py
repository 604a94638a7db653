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
    outputs,
    run_operator,
    verify_reduction,
)
from limitlab.sigma1 import classify_family
from limitlab import harness as H, reductions, sigma1


def S(key):
    return parse_structure(key)


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
        expected, m = {}, 0
        while pair(m, 0) < k:
            ca, cb = a.columns[m], b.columns[m]
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
        columns are the pairing's columns read position by position."""
        for k in range(81):
            prefix = OutputPrefix(tuple(range(k)))  # each value its position
            expected, m = [], 0
            while pair(m, 0) < k:
                rows = itertools.takewhile(
                    lambda r: pair(m, r) < k, itertools.count()
                )
                expected.append(tuple(pair(m, r) for r in rows))
                m += 1
            cols = prefix.columns
            assert cols == expected
            assert prefix.columns is cols

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


class TestGammaErangeToE3:
    def test_column_flips_once(self):
        fam = H.get_family("tilde_chains")
        op = H.GAMMAS["gamma_erange_to_e3"](fam)
        prefix = run_operator(op, Presentation(fam.members[1], 1), 120)
        col = prefix.columns[pair(1, 0)]
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
