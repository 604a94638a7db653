"""Learners over fragment streams.

Every learner exposes `initial_state()` and `step(state, fragment)`
returning `(state, hypothesis)`, where a hypothesis is either an integer
code into the active family or the question mark.  Steps are pure in
(state, fragment), so identical streams give identical transcripts.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .pairing import unpair
from .catalog import Family, canonical_fragment
from .sigma1 import StreamWatch, classify_family, leq_matrix
from .structures import FiniteFragment, iter_bits

QUESTION = "?"


class ConfigurationError(ValueError):
    pass


class WitnessInconsistencyError(RuntimeError):
    pass


class Learner:
    def __init__(self, family):
        self.family = family

    def initial_state(self):
        raise NotImplementedError

    def step(self, state, fragment):
        raise NotImplementedError


def run(learner, presentation, horizon):
    """The transcript of the learner on stages 0..horizon-1."""
    return run_on_stream(
        learner, (presentation.restrict(s) for s in range(horizon))
    )


def run_on_stream(learner, fragments):
    state = learner.initial_state()
    transcript = []
    for frag in fragments:
        state, hyp = learner.step(state, frag)
        transcript.append(hyp)
    return transcript


class ExMinMaxLearner(Learner):
    """Distinguishes the increasing from the decreasing infinite chain by
    comparing how long the current least and greatest elements have held
    their role."""

    def __init__(self, family):
        super().__init__(family)
        keys = [m.key() for m in family]
        if sorted(keys) != ["omega", "omega_star"]:
            raise ConfigurationError(
                "this learner is specific to the two infinite chains"
            )
        self.code_up = keys.index("omega")
        self.code_down = keys.index("omega_star")

    def initial_state(self):
        # per-element counts of being min / being max, the last fragment
        # read, and the masks of its elements with a predecessor / a
        # successor
        return ({}, {}, None, 0, 0)

    def step(self, state, fragment):
        count_min, count_max, last, has_in, has_out = state
        if last is not None and fragment.extends(last):
            done = last.size
        else:
            done = has_in = has_out = 0
        for e in range(done, fragment.size):
            succ, pred = fragment.row(e)
            has_in |= succ | bool(pred) << e
            has_out |= pred | bool(succ) << e
        done = fragment.size
        # the least element without a predecessor, resp. successor; 0 when
        # there is none
        lo, hi = (((m + 1) & ~m).bit_length() - 1 for m in (has_in, has_out))
        lo, hi = (e if e < done else 0 for e in (lo, hi))
        count_min = dict(count_min)
        count_max = dict(count_max)
        count_min[lo] = count_min.get(lo, 0) + 1
        count_max[hi] = count_max.get(hi, 0) + 1
        c_min, c_max = count_min[lo], count_max[hi]
        if c_min > c_max:
            hyp = self.code_up
        elif c_min < c_max:
            hyp = self.code_down
        else:
            hyp = QUESTION
        return (count_min, count_max, fragment, has_in, has_out), hyp


class FinLearner(Learner):
    """Waits for a stage where exactly one member's separating formula
    holds, then commits forever.  Reads the family's classification,
    which must be a verified strong antichain."""

    def __init__(self, family):
        super().__init__(family)
        classification = classify_family(family)
        if classification.strong != "yes":
            raise ConfigurationError(
                "family is not a verified strong antichain (%s)"
                % classification.strong
            )
        self.watch = StreamWatch(classification.strong_witnesses)

    def initial_state(self):
        return None, self.watch.initial()  # committed code, if any; watch

    def step(self, state, fragment):
        committed, watched = state
        if committed is not None:
            return state, committed
        watched = self.watch.advance(watched, fragment)
        hits = sorted(watched[1])
        if len(hits) > 1:
            raise WitnessInconsistencyError(
                "several separating formulas hold at once: %s" % hits
            )
        if hits:
            return (hits[0], watched), hits[0]
        return (None, watched), QUESTION


class CoLearner(Learner):
    """Output slot (i, t) carries code i exactly when member i was refuted
    by stage t (the fragment satisfies a formula true in some other member
    and false in member i).  On a member's own stream its code never
    appears and every other code does.  Reads the family's
    classification, which must be an antichain with a witness for every
    ordered pair."""

    def __init__(self, family):
        super().__init__(family)
        classification = classify_family(family)
        pairwise = classification.witnesses
        if classification.missing_pairs:
            raise ConfigurationError(
                "missing witness for pair (%d,%d): comparable theories or "
                "exhausted search" % classification.missing_pairs[0]
            )
        # code j is refuted once some member i's (i, j) witness holds
        refuters = {}
        for i, j in sorted(pairwise):
            w = pairwise[(i, j)]
            refuters[j] = refuters[j] | w if j in refuters else w
        self.watch = StreamWatch(sorted(refuters.items()))

    def initial_state(self):
        return self.watch.initial()

    def step(self, state, fragment):
        state = self.watch.advance(state, fragment)
        triggers = state[1]  # the stage each code was first refuted
        i, t = unpair(fragment.size - 1)
        hyp = QUESTION
        if i in triggers and t >= triggers[i]:
            hyp = i
        return state, hyp


class IdToCoLearner(Learner):
    """Refutes member i once the operator's output on the stream and its
    output on member i's canonical stream have both named their number,
    the first value as =N reads it, and the numbers differ; each refuted
    code is emitted once, least first.  A run is (operator state, its
    number or None) and is stepped only until it names its number, which
    no later stage changes; a finite member's run also stops once the
    stream outgrows the member."""

    def __init__(self, family, operator):
        super().__init__(family)
        if operator.tag != "eqnat":
            raise ConfigurationError(
                "id_to_co reads operators into eqnat, and %s reduces to %s"
                % (type(operator).__name__, operator.tag)
            )
        self.operator = operator

    def initial_state(self):
        start = (self.operator.initial(), None)
        refs = (start,) * len(self.family)
        return {"mine": start, "refs": refs, "refuted": frozenset()}

    def _advance(self, run, fragment):
        op_state, new = self.operator.step(run[0], fragment)
        return op_state, new[0] if new else None

    def step(self, state, fragment):
        s = fragment.size - 1
        mine, refuted = state["mine"], state["refuted"]
        if mine[1] is None:
            mine = self._advance(mine, fragment)
        refs = list(state["refs"])
        for i, member in enumerate(self.family):
            size = member.size()
            if refs[i][1] is None and (size is None or s < size):
                refs[i] = self._advance(
                    refs[i], canonical_fragment(member, s + 1)
                )
        hyp = next((
            i for i, (_, number) in enumerate(refs) if i not in refuted
            and None not in (mine[1], number) and number != mine[1]
        ), QUESTION)
        if hyp != QUESTION:
            refuted |= {hyp}
        state = {"mine": mine, "refs": tuple(refs), "refuted": refuted}
        return state, hyp


class NusLearner(Learner):
    """Keeps its conjecture while the stream's existential facts stay
    inside the conjectured theory; otherwise moves to the least candidate
    whose theory contains the fragment and whose own formula already
    holds.  The true code, once emitted, is never abandoned."""

    def __init__(self, family):
        super().__init__(family)
        witnesses = classify_family(family).solid_witnesses
        if witnesses is None:
            raise ConfigurationError("solid witness search exhausted")
        self.watch = StreamWatch(witnesses, family)

    def initial_state(self):
        return QUESTION, self.watch.initial()  # current hypothesis, watch

    def step(self, state, fragment):
        current, watched = state
        first = watched[0] is None
        watched = self.watch.advance(watched, fragment)
        if first:
            return (QUESTION, watched), QUESTION
        if current != QUESTION:
            hit, watched = self.watch.first_inside(watched, [current])
            if hit is not None:
                return (current, watched), current
        # the least code whose formula has held and whose age holds
        new, watched = self.watch.first_inside(watched, sorted(watched[1]))
        if new is None:
            new = current
        return (new, watched), new


def _decisive_step(h, prev_in, seen, prev_out, first):
    """One step of the abandon-return-free rewrite: pass a value through
    when it matches the current output, or when it is both a change of the
    input and brand new; otherwise hold the current output."""
    if first:
        return h
    if h == prev_out or (h != prev_in and h not in seen):
        return h
    return prev_out


class DecisiveTransform(Learner):
    """Wraps a learner so that no hypothesis is ever returned to after
    being abandoned, on any stream."""

    def __init__(self, inner):
        super().__init__(inner.family)
        self.inner = inner

    def initial_state(self):
        # (inner state, previous input, inputs seen, output, any steps yet)
        return (self.inner.initial_state(), None, frozenset(), None, True)

    def step(self, state, fragment):
        inner_state, prev_in, seen, prev_out, first = state
        inner_state, h = self.inner.step(inner_state, fragment)
        out = _decisive_step(h, prev_in, seen, prev_out, first)
        return (inner_state, h, seen | {h}, out, False), out


class PlFromPairwiseEx(Learner):
    """Round-robin slots (i, k): with c the number of times this learner
    has emitted i, code i is emitted when, for some c < k' < k, the duel
    of i against every other member j <= k' has conjectured i more than c
    times by stage k.  The duel of members i < j is an Ex learner on the
    family (member i, member j), so its codes 0 and 1 stand for i and j:
    `ExMinMaxLearner` for the two infinite chains, which have equal
    existential theories, and `ExMinEmbedLearner` for any other pair."""

    def __init__(self, family):
        super().__init__(family)
        members = family.members
        # (i, j) -> (duel index, state slot of the stage mask of code i)
        self.slots = {}
        self.duels = []
        for i, j in combinations(range(len(members)), 2):
            t = len(self.duels)
            self.slots[i, j], self.slots[j, i] = (t, 1), (t, 2)
            two = Family((members[i], members[j]))
            chains = {m.key() for m in two} == {"omega", "omega_star"}
            duel = ExMinMaxLearner if chains else ExMinEmbedLearner
            self.duels.append(duel(two))

    def initial_state(self):
        # per duel its state and, per code, the mask of the stages at
        # which it conjectured that code; this learner's own count per
        # code; the number of stages run
        duels = tuple((d.initial_state(), 0, 0) for d in self.duels)
        return duels, (0,) * len(self.family), 0

    def step(self, state, fragment):
        duels, own, stages = state
        bit = 1 << stages
        stepped = []
        for duel, (duel_state, first, second) in zip(self.duels, duels):
            duel_state, h = duel.step(duel_state, fragment)
            first |= bit if h == 0 else 0
            second |= bit if h == 1 else 0
            stepped.append((duel_state, first, second))
        n = len(self.family)
        i, k = unpair(fragment.size - 1)
        hyp = QUESTION
        if i < n and k > 0:
            c = own[i]
            # a larger k' adds competitors and reads the same stage k, so
            # k' = c + 1 is the one to test; a stream that skips sizes can
            # put k beyond the stages run, and the last one stands in
            upto = (2 << min(k, stages)) - 1
            masks = (
                stepped[t][slot] for t, slot in
                (self.slots[i, j] for j in range(min(c + 2, n)) if j != i)
            )
            if n == 1 or c + 1 < k and all(
                c < (mask & upto).bit_count() for mask in masks
            ):
                hyp = i
                own = own[:i] + (c + 1,) + own[i + 1:]
        return (tuple(stepped), own, stages + 1), hyp


#: a strict order's summary: the masks of the linked elements, the
#: minimal and the maximal ones, those comparable to every other linked
#: one and those with several strict predecessors
OrderSummary = namedtuple(
    "OrderSummary", "linked minimal maximal comparable several_pred"
)
#: the empty fragment and its summary, which every stream extends
_EMPTY = (FiniteFragment(0), OrderSummary(0, 0, 0, 0, 0))


def _add_element(summary, e, succ, pred):
    """The summary once element e joins with these successors and
    predecessors among the earlier elements, the order staying strict."""
    near = succ | pred
    if not near:
        return summary
    linked, minimal, maximal, comparable, several = summary
    bit, new = 1 << e, near & ~linked
    several |= succ & linked & ~minimal | (bit if pred & (pred - 1) else 0)
    # an element linked only now has e as its one neighbour
    minimal = (minimal | new) & ~succ | (0 if pred else bit)
    maximal = (maximal | new) & ~pred | (0 if succ else bit)
    if new:
        comparable = 0 if linked or new & (new - 1) else new
    comparable = comparable & near | (0 if linked & ~near else bit)
    return OrderSummary(
        linked | near | bit, minimal, maximal, comparable, several
    )


def _order_summary(carried, fragment):
    """(fragment, its order summary), the summary None when the fragment
    is not a strict order.  From `carried`, the previous stage's pair, a
    fragment that extends it by one element adds that element's row,
    which never folds; any other is summarized one element at a time."""
    last, summary = carried
    start = last.size
    if fragment.size != start + 1 or not fragment.extends(last):
        start, summary = 0, _EMPTY[1]
    if summary is None or not fragment.is_strict_order():
        return fragment, None
    for e in range(start, fragment.size):
        below = (1 << e) - 1
        succ, pred = fragment.row(e)
        summary = _add_element(summary, e, succ & below, pred & below)
    return fragment, summary


def _chain_ends(carried):
    """Length of the longest chain, and the endpoints of the comparable
    part (least/greatest under the strict order, least index on ties)."""
    fragment, summary = carried
    if summary is None or not summary.linked:
        return 0, None, None
    linked = summary.linked
    lo, hi = ((m & -m).bit_length() - 1 for m in summary[1:3])
    if summary.comparable == linked:
        # every linked element is comparable to every other: one chain
        return linked.bit_count(), lo, hi
    pred = {e: fragment.row(e)[1] for e in iter_bits(linked)}
    # since the relation is transitively closed, the longest chain ending
    # at e is one longer than the longest ending at a predecessor, and
    # predecessors have fewer predecessors; levels[k] holds the elements
    # whose longest chain has k + 1 elements
    levels = []
    for e in sorted(pred, key=lambda e: pred[e].bit_count()):
        k = len(levels)
        while k and not pred[e] & levels[k - 1]:
            k -= 1
        if k == len(levels):
            levels.append(0)
        levels[k] |= 1 << e
    return len(levels), lo, hi


class PlFstarLearner(Learner):
    """For the padded chains plus the two padded infinite chains: tracks
    the longest chain; while it is stable a finite code is conjectured,
    and across growth the endpoint stability counters arbitrate between
    the two infinite limits.  The chain and its endpoints are read off
    the order summary carried along the stream (`_order_summary`)."""

    def __init__(self, family):
        super().__init__(family)
        keys = [m.key() for m in family]
        if "tilde(omega)" not in keys or "tilde(omega_star)" not in keys:
            raise ConfigurationError("both padded infinite chains required")
        self.code_up = keys.index("tilde(omega)")
        self.code_down = keys.index("tilde(omega_star)")
        self.chain_codes = family.param_codes("tilde(chain(%d))")

    def initial_state(self):
        # previous chain length, min counts, max counts, order summary
        return (None, {}, {}, _EMPTY)

    def step(self, state, fragment):
        prev_n, count_min, count_max, carried = state
        carried = _order_summary(carried, fragment)
        n, lo, hi = _chain_ends(carried)
        count_min = dict(count_min)
        count_max = dict(count_max)
        if lo is not None:
            count_min[lo] = count_min.get(lo, 0) + 1
        if hi is not None:
            count_max[hi] = count_max.get(hi, 0) + 1
        if prev_n is None:
            return (n, count_min, count_max, carried), self.code_up
        if n == prev_n and n in self.chain_codes:
            hyp = self.chain_codes[n]
        else:
            c_min = count_min.get(lo, 0)
            c_max = count_max.get(hi, 0)
            hyp = self.code_up if c_min >= c_max else self.code_down
        return (n, count_min, count_max, carried), hyp


def ladder_codes(family):
    """{k: code} of a family of padded ladder posets tilde(poset_p(k)),
    which must include the infinite one, k = 0."""
    codes = family.param_codes("tilde(poset_p(%d))")
    for code, m in enumerate(family):
        if code not in codes.values():
            raise ConfigurationError(
                "unexpected member %s: the members must be ladder posets "
                "tilde(poset_p(k))" % m.key()
            )
    if 0 not in codes:
        raise ConfigurationError("the infinite member is required")
    return codes


class ExPosetLearner(Learner):
    """For the padded ladder posets: conjectures the infinite member while
    the fragment is a strict order with a root (comparable to every other
    linked element, with one strict predecessor: neither minimal nor above
    several), otherwise the least finite member the fragment embeds into.
    Roots are read off the order summary carried along the stream."""

    def __init__(self, family):
        super().__init__(family)
        self.codes = ladder_codes(family)
        self.finite = [self.codes[k] for k in sorted(self.codes) if k > 0]
        self.watch = StreamWatch({}, family)

    def initial_state(self):
        # the stream watch, and the last fragment with its order summary
        return self.watch.initial(), _EMPTY

    def step(self, state, fragment):
        watched, carried = state
        watched = self.watch.advance(watched, fragment)
        carried = _order_summary(carried, fragment)
        order = carried[1]
        if order and order.comparable & ~(order.minimal | order.several_pred):
            return (watched, carried), self.codes[0]
        code, watched = self.watch.first_inside(watched, self.finite)
        return (watched, carried), QUESTION if code is None else code


class ExMinEmbedLearner(Learner):
    """For a family ordered compatibly with theory inclusion: conjecture
    the least member the fragment embeds into.  Mind changes are bounded
    by the family size minus one."""

    def __init__(self, family):
        super().__init__(family)
        leq = leq_matrix(family)
        n = len(leq)
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise ConfigurationError(
                        "members %d and %d have equal theories" % (i, j)
                    )
                if leq[i][j] and i > j:
                    raise ConfigurationError(
                        "member order violates theory inclusion "
                        "(%d below %d)" % (i, j)
                    )
        self.watch = StreamWatch({}, family)

    def initial_state(self):
        return self.watch.initial()

    def step(self, state, fragment):
        state = self.watch.advance(state, fragment)
        code, state = self.watch.first_inside(state, range(len(self.family)))
        return state, QUESTION if code is None else code
