"""Continuous reduction operators and equivalence-relation prefix checkers.

Operators consume a fragment stream stage by stage and append values to an
output sequence; they never rewrite what they emitted, which is the whole
continuity contract.  E3 outputs live in the same flat sequence via the
Cantor pairing, column m row r at position pair(m, r).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, compress, count, zip_longest
from operator import ne

from .pairing import pair, unpair, triple
from .sigma1 import StreamWatch, classify_family, sat_catalog
from .learners import QUESTION, ConfigurationError, FinLearner


_GAP = object()  # a position beyond an E3 prefix, equal to no value


@dataclass(frozen=True)
class OutputPrefix:
    values: tuple

    def __len__(self):
        return len(self.values)

    @cached_property
    def columns(self):
        """Every E3 column with a row in the prefix, as tuples, computed
        on the first read and kept like the range set."""
        # diagonal w holds column m at row w - m, in descending m, so a
        # reversed diagonal lists columns 0..w; a partial last diagonal is
        # filled in front up to its missing columns, and each column then
        # reads one entry of every diagonal from its own on
        values, diagonals, base, w = self.values, [], 0, 0
        while base < len(values):
            diagonal = values[base:base + w + 1][::-1]
            diagonals.append((_GAP,) * (w + 1 - len(diagonal)) + diagonal)
            base, w = base + w + 1, w + 1
        cols = [col[m:] for m, col in enumerate(
            zip_longest(*diagonals, fillvalue=_GAP)
        )]
        if cols and cols[0][-1] is _GAP:
            # the partial last diagonal misses its low columns' last rows
            cols = [c[:-1] if c[-1] is _GAP else c for c in cols]
        return cols

    @cached_property
    def range_set(self):
        """The set of values, computed on the first read and kept: a
        prefix is compared with every other run of `verify_reduction`."""
        return frozenset(self.values)


@dataclass(frozen=True)
class PrefixVerdict:
    kind: str  # ConsistentSoFar | DefinitelyDistinct | EquivalentByRule
    position: int | None = None
    payload: dict = field(default_factory=dict)


def outputs(operator, fragments):
    """The values an operator emits along a fragment stream, in order: its
    `initial()` state, then `step(state, fragment)` -> (state, new values)."""
    state, out = operator.initial(), []
    for frag in fragments:
        state, new = operator.step(state, frag)
        out.extend(new)
    return out


class GammaFinToEqnat:
    """Empty output until the family's one-shot learner commits, then the
    constant sequence of the committed code."""

    tag = "eqnat"

    def __init__(self, family):
        self.family = family
        self.fin = FinLearner(family)

    def initial(self):
        return (self.fin.initial_state(), None, 0)

    def step(self, state, fragment):
        fin_state, committed, emitted = state
        fin_state, hyp = self.fin.step(fin_state, fragment)
        if committed is None and hyp != QUESTION:
            committed = hyp
        return self._catch_up(fin_state, committed, emitted, fragment)

    @staticmethod
    def _catch_up(fin_state, committed, emitted, fragment):
        """Once committed, emit the code at every stage not yet covered."""
        if committed is None:
            return (fin_state, None, emitted), ()
        new = (committed,) * (fragment.size - emitted)
        return (fin_state, committed, fragment.size), new


class GammaFinToEqnatTotal(GammaFinToEqnat):
    """Total extension: if the learner has not committed within the
    patience bound, the output defaults to the zero sequence forever."""

    def __init__(self, family, patience=64):
        super().__init__(family)
        self.patience = patience

    def step(self, state, fragment):
        fin_state, committed, emitted = state
        if committed is None and fragment.size > self.patience:
            committed = 0
        if committed is not None:
            # the inner learner is never stepped again once it has
            # committed or the default has fired
            return self._catch_up(fin_state, committed, emitted, fragment)
        return super().step(state, fragment)


def _pair_witnesses(family):
    """The separating formula of every ordered pair (i, j) whose theories
    are not included, from the family's classification.  Members with
    equal existential theories are rejected."""
    classification = classify_family(family)
    leq = classification.leq
    if not classification.is_partial_order:
        i, j = next(
            (i, j) for i in range(len(leq)) for j in range(i + 1, len(leq))
            if leq[i][j] and leq[j][i]
        )
        raise ConfigurationError(
            "members %d and %d have equal existential theories" % (i, j)
        )
    if classification.inconclusive_pairs:
        raise ConfigurationError(
            "missing witness for pair (%d,%d)"
            % classification.inconclusive_pairs[0]
        )
    return classification.witnesses


class GammaErange:
    """Position (s, i, j) carries the code pair(i, j) once the (i, j)
    separating formula holds at stage s, else 0; 0 is always in range."""

    tag = "Erange"

    def __init__(self, family):
        self.family = family
        self.watch = StreamWatch(_pair_witnesses(family))
        self.codes = {key: pair(*key) for key in self.watch.formulas}

    def initial(self):
        return (self.watch.initial(), 0)

    def step(self, state, fragment):
        watched, emitted = state
        watched = self.watch.advance(watched, fragment)
        held = [(self.codes[key], t) for key, t in watched[1].items()]
        # every flat position below (size, 0, 0) has stage coordinate below
        # the size, so its value is already settled; they fill diagonals
        # d = s + pair(i, j) of the pairing, where index b is stage d - b
        # and code b, and only a code whose formula held by then is not 0;
        # after a shorter fragment nothing is settled that was not emitted
        top = max(emitted, triple(fragment.size, 0, 0))
        new = []
        for d in range(unpair(emitted)[0], fragment.size):
            row = [0] * (d + 1)
            for b, t in held:
                if b <= d and d - b >= t:
                    row[b] = b
            new.extend(row)
        return (watched, top), tuple(new)

    def declared_range(self, code):
        member = self.family.members[code]
        out = {0}
        for key, w in self.watch.formulas.items():
            if sat_catalog(w, member):
                out.add(self.codes[key])
        return out


class GammaErangeToE3(GammaErange):
    """Column pair(i, j) flips 0 to 1 at the stage the (i, j) formula
    first holds; comparable or diagonal pairs stay all-0."""

    tag = "E3"

    def step(self, state, fragment):
        watched, emitted = state
        watched = self.watch.advance(watched, fragment)
        held = [(self.codes[key], t) for key, t in watched[1].items()]
        # every flat position below pair(0, size) has a row below the size,
        # so its value is already settled; [pair(0, d), pair(0, d + 1)) is
        # column 0 at row d, then column m at row d + 1 - m for
        # m = d + 1 .. 1.  Column 0 is the diagonal pair (0, 0), all 0.
        # After a shorter fragment nothing is settled that was not emitted.
        top = max(emitted, pair(0, fragment.size))
        new = []
        for d in range(unpair(emitted)[1], fragment.size):
            chunk = [0] * (d + 2)
            for m, t in held:
                if m <= d + 1 and d + 1 - m >= t:
                    chunk[d + 2 - m] = 1
            new.extend(chunk)
        return (watched, top), tuple(new)


def _eqnat(a, b, closed_a, closed_b):
    if len(a) and len(b):
        if a.values[0] != b.values[0]:
            return PrefixVerdict("DefinitelyDistinct", 0)
        return PrefixVerdict("EquivalentByRule")
    return PrefixVerdict("ConsistentSoFar", payload={"agreed": 0})


def _erange(a, b, closed_a, closed_b):
    ra, rb = a.range_set, b.range_set
    # a side is scanned for its first value outside the other side's
    # closed range only when its range set says there is one
    for mine, values, closed in (
        (ra, a.values, closed_b), (rb, b.values, closed_a)
    ):
        if closed is not None and not mine <= closed:
            return PrefixVerdict("DefinitelyDistinct", next(
                p for p, x in enumerate(values) if x not in closed
            ))
    if closed_a is not None and closed_a == closed_b:
        return PrefixVerdict("EquivalentByRule")
    return PrefixVerdict("ConsistentSoFar", payload={"delta": sorted(ra ^ rb)})


def _e3(a, b, closed_a, closed_b):
    # both sides reach row r of column m iff pair(m, r) < min(len(a),
    # len(b)), so the rows they share are a column's common prefix
    ac, bc, cols = a.columns, b.columns, {}
    for m in compress(count(), map(ne, ac, bc)):
        ca, cb = ac[m], bc[m]
        n = sum(map(ne, ca, cb))
        if n:
            r = min(len(ca), len(cb)) - 1
            while ca[r] == cb[r]:
                r -= 1
            cols[m] = {"mismatches": n, "last_mismatch": r}
    return PrefixVerdict("ConsistentSoFar", payload={"columns": cols})


#: each relation an operator may target, by its tag: (its prefix
#: comparison (a, b, closed range of a, closed range of b) -> PrefixVerdict,
#: whether that reads the operators' declared closed ranges, its
#: cross-member separation test on a ConsistentSoFar verdict).
#: DefinitelyDistinct comes only where no extension restores equivalence:
#: differing first values for =N, a value outside the other side's
#: declared closed range for E-range.  E3 is an almost-everywhere relation
#: that never settles at a finite stage; its verdict carries per-column
#: mismatch counts, and three mismatches in one column separate.
RELATIONS = {
    "eqnat": (_eqnat, False, lambda verdict: False),
    "Erange": (_erange, True, lambda verdict: bool(verdict.payload["delta"])),
    "E3": (_e3, False, lambda verdict: any(
        c["mismatches"] >= 3 for c in verdict.payload["columns"].values()
    )),
}


def _relation(rel):
    if rel not in RELATIONS:
        raise ValueError("unknown relation tag: %r" % rel)
    return RELATIONS[rel]


def check_prefix(rel, a, b, closed_range_a=None, closed_range_b=None):
    """Compare two output prefixes under the relation tagged `rel` in
    RELATIONS: =N, E-range or E3."""
    return _relation(rel)[0](a, b, closed_range_a, closed_range_b)


def run_operator(operator, presentation, horizon):
    """The operator's output prefix over the first `horizon` stages."""
    values = outputs(
        operator, (presentation.restrict(s) for s in range(horizon))
    )
    return OutputPrefix(tuple(values))


def verify_reduction(operator, family, horizon=100, seeds=(1, 2, 3)):
    """Sample same-member and cross-member copy pairs and score the
    operator's outputs under its target relation.

    Same-member pairs must never be definitely distinct; cross pairs must
    be definitely distinct or separated by the relation's rule by horizon.
    Every member must be infinite: a finite one's stream ends before the
    horizon, too soon to show separation.
    """
    from .catalog import Presentation

    rel = operator.tag
    members = list(family)
    finite = [m.key() for m in members if m.size() is not None]
    if finite:
        raise ValueError(
            "member %s is finite, and verify_reduction runs every member "
            "to the horizon" % finite[0]
        )
    _, reads_ranges, separated = _relation(rel)
    ranges = [
        operator.declared_range(i) if reads_ranges else None
        for i in range(len(members))
    ]
    runs = [
        (i, seed, run_operator(operator, Presentation(m, seed), horizon))
        for i, m in enumerate(members) for seed in seeds
    ]
    cells = []
    ok = True
    for (i, si, pa), (j, sj, pb) in combinations(runs, 2):
        verdict = check_prefix(rel, pa, pb, ranges[i], ranges[j])
        distinct = verdict.kind == "DefinitelyDistinct"
        passed = (distinct or separated(verdict)) if i != j else not distinct
        ok = ok and passed
        cells.append(
            {
                "pair": [i, j],
                "seeds": [si, sj],
                "verdict": verdict.kind,
                "position": verdict.position,
                "passed": passed,
            }
        )
    return {"relation": rel, "passed": ok, "cells": cells}
