"""Continuous reduction operators and equivalence-relation prefix checkers.

Operators consume a fragment stream stage by stage and append values to an
output sequence; they never rewrite what they emitted, which is the whole
continuity contract.  E3 outputs live in the same flat sequence via the
Cantor pairing, column m row r at position pair(m, r).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, compress, count
from operator import ne

from .pairing import pair, triple, unpair
from .sigma1 import StreamWatch, classify_family, sat_catalog
from .learners import QUESTION, ConfigurationError, FinLearner


class OutputPrefix:
    """An operator's output over a run, as the values it emitted, and the
    summaries a relation compares: `firsts` for E-range, `column_runs`
    for E3.  A values prefix decodes each summary from its values
    once, on the first read, and keeps it: a prefix is compared with every
    other run of `verify_reduction`."""

    def __init__(self, values):
        self.values = values

    def __len__(self):
        return len(self.values)

    @cached_property
    def firsts(self):
        """{value: its first flat position}."""
        values = self.values
        return dict(zip(values[::-1], range(len(values) - 1, -1, -1)))

    @cached_property
    def range_set(self):
        return frozenset(self.firsts)

    @property
    def width(self):
        """The number of E3 columns with a row: column m starts at
        pair(m, 0), so the last position's diagonal, plus one."""
        return sum(unpair(len(self) - 1)) + 1 if len(self) else 0

    @cached_property
    def column_runs(self):
        """The runs of every E3 column with a row."""
        return [self.runs(m) for m in range(self.width)]

    def runs(self, m):
        """E3 column m as its runs of equal values: a tuple of (value, end
        row) pairs, the last end being its row count.  Row r + 1 lies
        m + r + 2 flat positions after row r."""
        values, out = self.values, []
        p, gap, r = pair(m, 0), m + 2, 0
        while p < len(values):
            x = values[p]
            r += 1
            if out and out[-1][0] == x:
                out[-1] = (x, r)
            else:
                out.append((x, r))
            p, gap = p + gap, gap + 1
        return tuple(out)


class RecordPrefix(OutputPrefix):
    """The output of an E-range or E3 operator over a chain of fragments,
    each the last one or its one-element extension, kept as what decides
    it: the last fragment's size and {code: the stage its formula first
    held} from the operator's watch.

    A position is settled at the first size past its stage (E-range) or
    row (E3), by the stages recorded by then, and a stage recorded later
    is at least that size, too late to count; so the values, derived on
    the first read, are the ones `step` emitted, and the summary a
    relation compares is read off the record in O(codes).
    """

    def __init__(self, size, held):
        self.size, self.held = size, held

    def __len__(self):
        return self.length(self.size)

    @cached_property
    def values(self):
        return self.settled(self.held, 0, self.size)


class ErangeRecord(RecordPrefix):
    @staticmethod
    def length(size):
        """The positions below (size, 0, 0): stage coordinate below size."""
        return triple(size, 0, 0)

    @staticmethod
    def settled(held, lo, hi):
        """The values of diagonals lo .. hi - 1 of the pairing: index b of
        diagonal d is stage d - b and code b, which holds b once its
        formula held by that stage, else 0."""
        new = []
        for d in range(lo, hi):
            row = [0] * (d + 1)
            for b, t in held.items():
                if b <= d and d - b >= t:
                    row[b] = b
            new.extend(row)
        return tuple(new)

    @cached_property
    def firsts(self):
        # code b first shows at stage t, on diagonal t + b; 0 at position 0
        firsts = {0: 0} if self.size else {}
        for b, t in self.held.items():
            if t + b < self.size:
                firsts[b] = pair(t, b)
        return firsts


class E3Record(RecordPrefix):
    @staticmethod
    def length(size):
        """The positions below pair(0, size): row below size."""
        return pair(0, size)

    @staticmethod
    def settled(held, lo, hi):
        """The values of [pair(0, lo), pair(0, hi)): [pair(0, d),
        pair(0, d + 1)) is column 0 at row d, then column m at row
        d + 1 - m for m = d + 1 .. 1, and column m is 1 from the stage its
        formula first held on."""
        new = []
        for d in range(lo, hi):
            chunk = [0] * (d + 2)
            for m, t in held.items():
                if m <= d + 1 and d + 1 - m >= t:
                    chunk[d + 2 - m] = 1
            new.extend(chunk)
        return tuple(new)

    def runs(self, m):
        # column 0 has rows 0 .. size - 1, column m > 0 rows 0 .. size - m
        rows = max(0, self.size - m + (m > 0))
        t = min(self.held.get(m, rows), rows)
        return ((0, t),) * (t > 0) + ((1, rows),) * (t < rows)


@dataclass(frozen=True)
class PrefixVerdict:
    kind: str  # ConsistentSoFar | DefinitelyDistinct | EquivalentByRule
    position: int | None = None
    payload: dict = field(default_factory=dict)


class GammaFinToEqnat:
    """Empty output until the family's one-shot learner commits, then the
    constant sequence of the committed code; with a patience bound (None:
    none), a stream past it uncommitted commits to code 0.  The learner
    is not stepped after a commitment."""

    tag = "eqnat"
    patience = None

    def __init__(self, family):
        self.family = family
        self.fin = FinLearner(family)

    def initial(self):
        return (self.fin.initial_state(), None, 0)

    def step(self, state, fragment):
        fin_state, committed, emitted = state
        if committed is None:
            if self.patience is not None and fragment.size > self.patience:
                committed = 0
            else:
                fin_state, hyp = self.fin.step(fin_state, fragment)
                committed = None if hyp == QUESTION else hyp
        if committed is None:
            return (fin_state, None, emitted), ()
        new = (committed,) * (fragment.size - emitted)
        return (fin_state, committed, max(emitted, fragment.size)), new


class GammaFinToEqnatTotal(GammaFinToEqnat):
    """Total extension: if the learner has not committed within the
    patience bound, the output defaults to the zero sequence forever."""

    def __init__(self, family, patience=64):
        super().__init__(family)
        self.patience = patience


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

    record = ErangeRecord

    def initial(self):
        return (self.watch.initial(), 0)

    def step(self, state, fragment):
        watched, emitted = state
        watched = self.watch.advance(watched, fragment)
        # every position below the record's length at this size is settled,
        # and `emitted` is that length at the stages emitted so far, so its
        # unpair sums to their number; after a shorter fragment nothing is
        # settled that was not emitted
        top = max(emitted, self.record.length(fragment.size))
        new = self.record.settled(
            self.held(watched), sum(unpair(emitted)), fragment.size
        )
        return (watched, top), new

    def held(self, watched):
        """{code: the stage its formula first held} of a watch state."""
        return {self.codes[key]: t for key, t in watched[1].items()}

    def declared_range(self, code):
        member = self.family.members[code]
        out = {0}
        for key, w in self.watch.formulas.items():
            if sat_catalog(w, member):
                out.add(self.codes[key])
        return out


class GammaErangeToE3(GammaErange):
    """Column pair(i, j) flips 0 to 1 at the stage the (i, j) formula
    first holds; comparable or diagonal pairs stay all-0.  Column 0 is the
    diagonal pair (0, 0), all 0."""

    tag = "E3"
    record = E3Record


def _eqnat(a, b, closed_a, closed_b):
    if len(a) and len(b):
        if a.values[0] != b.values[0]:
            return PrefixVerdict("DefinitelyDistinct", 0)
        return PrefixVerdict("EquivalentByRule")
    return PrefixVerdict("ConsistentSoFar", payload={"agreed": 0})


def _erange(a, b, closed_a, closed_b):
    ra, rb = a.range_set, b.range_set
    # a side's first value outside the other side's closed range is looked
    # for only when its range set says there is one
    for mine, side, closed in ((ra, a, closed_b), (rb, b, closed_a)):
        if closed is not None and not mine <= closed:
            return PrefixVerdict("DefinitelyDistinct", min(
                p for x, p in side.firsts.items() if x not in closed
            ))
    if closed_a is not None and closed_a == closed_b:
        return PrefixVerdict("EquivalentByRule")
    return PrefixVerdict("ConsistentSoFar", payload={"delta": sorted(ra ^ rb)})


def mismatched_rows(ra, rb):
    """The spans [lo, hi) of the rows both columns have where their runs
    (OutputPrefix.runs) hold different values, in order."""
    spans, i, j, lo = [], 0, 0, 0
    while i < len(ra) and j < len(rb):
        (x, end_a), (y, end_b) = ra[i], rb[j]
        hi = min(end_a, end_b)
        if x != y:
            spans.append((lo, hi))
        lo, i, j = hi, i + (end_a == hi), j + (end_b == hi)
    return spans


def _e3(a, b, closed_a, closed_b):
    # both sides reach row r of column m iff pair(m, r) < min(len(a),
    # len(b)), so the rows they share are a column's common prefix
    ca, cb, cols = a.column_runs, b.column_runs, {}
    for m in compress(count(), map(ne, ca, cb)):
        spans = mismatched_rows(ca[m], cb[m])
        if spans:
            cols[m] = {
                "mismatches": sum(hi - lo for lo, hi in spans),
                "last_mismatch": spans[-1][1] - 1,
            }
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


def _record_class(operator):
    """The operator's record class, unless a class below the one naming
    it overrides `step`: that `step` is not the one the record describes,
    and the operator is run through it."""
    for cls in type(operator).__mro__:
        if "record" in vars(cls):
            return cls.record
        if "step" in vars(cls):
            return None


class OperatorRun:
    """An operator fed one presentation chain a stage at a time: each
    fragment is the last one or its one-element extension.

    The run keeps one path, chosen when it starts.  An operator whose
    `step` is the one its record class describes advances only its watch,
    and its prefix is a record; any other operator is stepped, and the
    run keeps the values it emits.
    """

    def __init__(self, operator, fragments=()):
        self.operator, self.record = operator, _record_class(operator)
        self.state = (operator.watch if self.record else operator).initial()
        self.last, self.values = None, []
        for frag in fragments:
            self.feed(frag)

    def feed(self, fragment):
        last = self.last
        if last is not None and not StreamWatch.continues(last, fragment):
            raise ValueError(
                "a run reads one presentation chain, each fragment the last "
                "one or its one-element extension: got %d elements after %d"
                % (fragment.size, last.size)
            )
        self.last = fragment
        if self.record is not None:
            self.state = self.operator.watch.advance(self.state, fragment)
        else:
            self.state, new = self.operator.step(self.state, fragment)
            self.values.extend(new)

    def prefix(self):
        """The output so far."""
        if self.record is None:
            return OutputPrefix(tuple(self.values))
        size = 0 if self.last is None else self.last.size
        return self.record(size, self.operator.held(self.state))

    def runs(self, m):
        """E3 column m of the output so far, as OutputPrefix.runs; a run
        that keeps values is read in place, not copied."""
        if self.record is None:
            return OutputPrefix(self.values).runs(m)
        return self.prefix().runs(m)


def run_operator(operator, presentation, horizon):
    """The operator's output prefix over the first `horizon` stages."""
    return OperatorRun(
        operator, (presentation.restrict(s) for s in range(horizon))
    ).prefix()


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
