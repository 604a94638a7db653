"""Existential formulas over fragments, theory comparison, the family
classifier and the stream watch.

A formula here is a finite disjunction of "an induced copy of this finite
fragment occurs" statements.  Satisfaction is monotone under fragment
extension, and truth in a catalog structure reduces to age membership.
"""

from __future__ import annotations

from dataclasses import dataclass

from .structures import embed_map, iter_bits
from .catalog import (
    CatalogStructure,
    UnsupportedOracleError,
    canonical_fragment,
    fragment_embeds,
    saturated_fragment,
)

WITNESS_SIZE_BOUND = 8
# each age question asked once per process: member keys -> leq_matrix,
# (member keys, bound) -> classify_family, (structure key, max_size) ->
# age_fragments and (size, pattern) -> its one fragment, (structure key,
# bound) -> _witness_candidates, and structure key -> {fragment:
# fragment_embeds} for fragments of at most max_size or bound elements
_leq_matrices = {}
_classifications = {}
_ages = {}
_fragments = {}
_candidates = {}
_verdicts = {}


@dataclass(frozen=True)
class FormulaWitness:
    """A finite disjunction of induced-copy statements.

    Each disjunct is a finite fragment; labels keep the textual form
    readable when a disjunct came from a named finite structure.
    """

    disjuncts: tuple
    labels: tuple = ()

    def __post_init__(self):
        if not self.disjuncts:
            raise ValueError("a formula needs at least one disjunct")
        object.__setattr__(self, "disjuncts", tuple(self.disjuncts))
        labels = self.labels or tuple(
            "fragment[%d]" % d.size for d in self.disjuncts
        )
        object.__setattr__(self, "labels", tuple(labels))

    def __or__(self, other):
        return FormulaWitness(
            self.disjuncts + other.disjuncts, self.labels + other.labels
        )

    def __str__(self):
        return " | ".join("embeds(%s)" % l for l in self.labels)


def sat_fragment(formula, fragment, required=None):
    """True iff some disjunct occurs in the fragment; monotone in the
    fragment.

    `required` restricts the search to copies through one element of the
    fragment; `StreamWatch` uses it to re-check a growing stream only
    against the newest element.
    """
    for d in formula.disjuncts:
        if embed_map(d, fragment, required=required) is not None:
            return True
    return False


def sat_catalog(formula, structure):
    """True iff some disjunct is in the age of the catalog structure."""
    if not isinstance(structure, CatalogStructure):
        raise UnsupportedOracleError("not a catalog structure: %r" % structure)
    return any(fragment_embeds(d, structure) for d in formula.disjuncts)


class StreamWatch:
    """The first stage at which each formula held on a fragment stream, and
    the members whose age the stream has left.

    Both are monotone along an extension: a formula that held stays true,
    so a one-element extension only searches copies through its new
    element, and ages are closed under substructures, so a member once
    left stays left.  A fragment that is neither the last one nor its
    one-element extension starts the record afresh.

    Formulas often share disjuncts (a family's pair witnesses repeat one
    witness per member), so the watch searches each distinct disjunct at
    most once per stage, and only the pending ones, those of a formula
    that has not held; the formulas are walked only on a stage where a
    search holds.  A search through a new element is a rooted `embed_map`
    call, which maps to it an element of the disjunct whose shape
    (self-loop bit, out-degree, in-degree) it covers, with the same loop
    bit and at least both degrees (`embed_map`'s root check), so an
    extension searches only the pending disjuncts with such a shape, read
    off the shapes each records at set-up (an element in no fact covers
    only (0, 0, 0)).  Each disjunct keeps its rooted search plans from its
    first rooted search on; a fresh record's unrooted searches keep none.

    The members found to hold the last fragment are carried too.  An
    extension by an element in no fact keeps those whose age absorbs
    isolated points (see CatalogStructure.absorbs_isolated), so padding
    stages ask them nothing; any other change asks them afresh.

    A state is (last fragment, {key: first stage it held}, bitmask of the
    members left, bitmask of the members known to hold the last fragment,
    bitmask of the pending disjuncts); `advance` and `first_inside`
    return new states and never mutate the old one.
    """

    def __init__(self, formulas, members=()):
        self.formulas = dict(formulas)
        self.members = tuple(members)
        self._absorbing = sum(
            1 << i for i, m in enumerate(self.members) if m.absorbs_isolated()
        )
        # each formula as a mask of distinct disjuncts, and their shapes
        index, self._atoms, self._shapes, self._parts = {}, [], [], {}
        for key, w in self.formulas.items():
            for d, label in zip(w.disjuncts, w.labels):
                if d not in index:
                    index[d] = len(self._atoms)
                    self._atoms.append(FormulaWitness((d,), (label,)))
                    self._shapes.append({
                        (o >> u & 1, o.bit_count(), i.bit_count())
                        for u, (o, i) in enumerate(zip(*d.masks()))
                    })
            self._parts[key] = sum({1 << index[d] for d in w.disjuncts})
        self._all = (1 << len(self._atoms)) - 1
        self._free = sum(  # the disjuncts with an element in no fact
            1 << a for a, s in enumerate(self._shapes) if (0, 0, 0) in s
        )

    def initial(self):
        return (None, {}, 0, 0, self._all)

    @staticmethod
    def continues(last, fragment):
        """Whether `fragment` is `last` or its one-element extension: the
        chain along which a state keeps its record."""
        return 0 <= fragment.size - last.size <= 1 and fragment.extends(last)

    def advance(self, state, fragment):
        last, held, left, inside, pending = state
        if last is not None and self.continues(last, fragment):
            if fragment.size == last.size:
                return state
            if not pending | inside:  # nothing to search or to keep
                return (fragment, held, left, 0, 0)
            required = last.size
            succ, pred = fragment.row(required)
            if succ | pred:
                loop = succ >> required & 1
                n_out, n_in = succ.bit_count(), pred.bit_count()
                inside = asked = 0
                for a in iter_bits(pending):
                    for l, o, i in self._shapes[a]:
                        if l == loop and o <= n_out and i <= n_in:
                            asked |= 1 << a
                            break
            else:
                inside, asked = inside & self._absorbing, pending & self._free
        else:
            held, left, inside, pending = {}, 0, 0, self._all
            required, asked = None, pending
        hits = asked and sum(
            1 << a for a in iter_bits(asked)
            if sat_fragment(self._atoms[a], fragment, required)
        )
        if hits:
            s, held, pending = fragment.size - 1, dict(held), 0
            for key, parts in self._parts.items():
                if key not in held:
                    if parts & hits:
                        held[key] = s
                    else:
                        pending |= parts
        return (fragment, held, left, inside, pending)

    def first_inside(self, state, order):
        """The first member index in `order` whose age holds the last
        fragment, or None, with the state marking each member found left
        on the way and the hit found inside; members after the hit are not
        asked, and neither is a hit already known inside."""
        last, held, left, inside, pending = state
        for i in order:
            if inside >> i & 1:
                return i, (last, held, left, inside, pending)
            if not left >> i & 1:
                if fragment_embeds(last, self.members[i]):
                    return i, (last, held, left, inside | 1 << i, pending)
                left |= 1 << i
        return None, (last, held, left, inside, pending)


def sigma1_leq(a, b, max_size=None):
    """Existential-theory inclusion, decided as age inclusion.

    With max_size set, only substructures of `a` up to that many elements
    are required to embed into `b` (a matched-depth comparison for use
    against bounded brute-force oracles); the default checks a canonical
    prefix large enough to exhibit every distinguishing feature of the
    catalog pair.
    """
    if not isinstance(a, CatalogStructure) or not isinstance(b, CatalogStructure):
        raise UnsupportedOracleError("catalog structures required")
    if max_size is None:
        n = 2 * (a.param() + b.param()) + 8
        return fragment_embeds(saturated_fragment(a, n), b)
    verdicts = _verdicts.setdefault(b.key(), {})  # see _verdicts_of
    for sub in age_fragments(a, max_size):
        hit = verdicts.get(sub)
        if hit is None:
            hit = verdicts[sub] = fragment_embeds(sub, b)
        if not hit:
            return False
    return True


def _verdicts_of(structure):
    """`fragment_embeds(-, structure)`, asked once per process for each
    distinct fragment.  Only the bounded searches read it, whose fragments
    have at most max_size or bound elements; the stream watch and the
    default-mode comparison ask about growing fragments, which would only
    fill it, and call fragment_embeds directly."""
    verdicts = _verdicts.setdefault(structure.key(), {})

    def embeds(fragment):
        hit = verdicts.get(fragment)
        if hit is None:
            hit = verdicts[fragment] = fragment_embeds(fragment, structure)
        return hit

    return embeds


def age_fragments(a, max_size):
    """The labelled-distinct induced subfragments of `a` with at most
    max_size elements, smallest first, each from the lexicographically
    first subset with its pattern of a canonical prefix deep enough for
    the bounded comparison in `sigma1_leq`; computed once per (structure
    key, max_size) and shared, so callers must not mutate the list.

    Ascending subsets are walked depth first, each pattern an int grown
    from its parent's by two bits per earlier element and the loop bit.  A
    subset matching an earlier one in size, pattern, largest element m and
    every later element's facts with it is not extended: each extension
    repeats that one's by the same elements above m.  Kept fragments are
    interned in `_fragments` by (size, pattern), each induced once.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1, got %r" % (max_size,))
    key = (a.key(), max_size)
    age = _ages.get(key)
    if age is not None:
        return age
    prefix = saturated_fragment(a, 2 * max_size + a.param() + 4)
    n = prefix.size
    succ, pred = prefix.masks()
    kept, classes = {}, set()

    def grow(subset, pattern, rows):
        # rows[i]: the facts of element subset[-1] + 1 + i with the subset
        k = len(subset) + 1
        for i, x in enumerate(range(subset[-1] + 1 if subset else 0, n)):
            p = pattern << 2 * k - 1 | rows[i] << 1 | succ[x] >> x & 1
            if (k, p) not in _fragments:
                _fragments[k, p] = prefix.induced(subset + (x,))
            kept.setdefault((k, p), _fragments[k, p])
            if k < max_size:
                above = tuple(
                    r << 2 | (pred[x] >> y & 1) << 1 | succ[x] >> y & 1
                    for y, r in enumerate(rows[i + 1:], x + 1)
                )
                if (k, p, above) not in classes:
                    classes.add((k, p, above))
                    grow(subset + (x,), p, above)

    grow((), 0, (0,) * n)
    age = _ages[key] = sorted(kept.values(), key=lambda f: f.size)
    return age


def _witness_candidates(a, bound):
    """Small fragments from the age of `a`, smallest first: canonical
    prefixes, their comparable cores (the linked elements), and their
    connected components.  Computed once per (structure key, bound); the
    returned list is shared, so callers must not mutate it.

    The prefixes share one chain, so the fragment induced on a set of
    elements is the same from every prefix that holds it: each distinct
    set is induced once, at the first prefix that has it.  A prefix's
    components are the last one's, with the new element's merged into one,
    so only that one is new."""
    key = (a.key(), bound)
    out = _candidates.get(key)
    if out is not None:
        return out
    top = saturated_fragment(a, 2 * bound + 4).size
    out = []
    seen = set()
    induced = {}  # element mask -> its fragment, or None outside 1..bound

    def add(prefix, mask):
        if mask not in induced:
            small = 1 <= mask.bit_count() <= bound
            induced[mask] = prefix.induced(iter_bits(mask)) if small else None
        frag = induced[mask]
        if frag is not None and frag not in seen:
            seen.add(frag)
            out.append(frag)

    comps = []  # the prefix's connected components, as element masks
    for m in range(1, top + 1):
        prefix = canonical_fragment(a, m)
        full = (1 << m) - 1
        induced[full] = prefix if m <= bound else None
        add(prefix, full)
        add(prefix, prefix.linked_mask())
        succ, pred = prefix.row(m - 1)
        comp = 1 << (m - 1) | succ | pred
        rest = []
        for c in comps:
            if c & comp:
                comp |= c
            else:
                rest.append(c)
        comps = rest + [comp]
        add(prefix, comp)
    out.sort(key=lambda f: (f.size, f.fact_count()))
    _candidates[key] = out
    return out


def _find_separating_witness(a, candidates, others):
    """The first of `a`'s witness candidates embedding into none of
    `others`, or None when the bounded search exhausts."""
    others = [_verdicts_of(o) for o in others]
    for cand in candidates:
        if not any(verdict(cand) for verdict in others):
            label = "prefix(%s)[%d]" % (a.key(), cand.size)
            return FormulaWitness((cand,), (label,))
    return None


def leq_matrix(family):
    """The family's theory-inclusion matrix: entry [i][j] is
    `sigma1_leq(members[i], members[j])`; computed once per tuple of
    member keys, and shared."""
    members = list(family)
    keys = tuple(m.key() for m in members)
    leq = _leq_matrices.get(keys)
    if leq is None:
        leq = _leq_matrices[keys] = tuple(
            tuple(sigma1_leq(a, b) for b in members) for a in members
        )
    return leq


@dataclass(frozen=True)
class Sigma1Classification:
    """A family's theory order as the evidence found for it: the leq
    matrix and the witness formulas.  Flags and level are read off it.

    `witnesses[(i, j)]` holds in member i and fails in member j;
    `strong_witnesses[i]` fails in every other member, and is searched
    only on an antichain, in member order up to the first exhausted
    search; `solid_witnesses[i]` fails throughout i's strict lower cone,
    and the dict is None when a search exhausted.  One classification is
    shared by every reader of its family, so none may mutate it.
    """

    leq: tuple
    witnesses: dict
    strong_witnesses: dict
    solid_witnesses: dict | None

    def _pairs(self):
        n = len(self.leq)
        return [(i, j) for i in range(n) for j in range(n) if i != j]

    @property
    def is_partial_order(self):
        leq = self.leq
        return not any(leq[i][j] and leq[j][i] for i, j in self._pairs())

    @property
    def is_antichain(self):
        return not any(self.leq[i][j] for i, j in self._pairs())

    @property
    def missing_pairs(self):
        """Every ordered pair without a witness, in (i, j) order."""
        return [p for p in self._pairs() if p not in self.witnesses]

    @property
    def inconclusive_pairs(self):
        """The pairs whose witness search exhausted, in (i, j) order."""
        leq = self.leq
        return tuple((i, j) for i, j in self.missing_pairs if not leq[i][j])

    @property
    def strong(self):
        if not self.is_antichain:
            return "no"
        whole = len(self.strong_witnesses) == len(self.leq)
        return "yes" if whole else "inconclusive"

    @property
    def solid(self):
        if not self.is_partial_order:
            return "n/a"
        return "inconclusive" if self.solid_witnesses is None else "yes"

    @property
    def level(self):
        if not self.is_partial_order:
            return "NotPartialOrder"
        if self.strong == "yes":
            return "StrongAntichain"
        if self.is_antichain:
            return "Antichain"
        if self.solid == "yes":
            return "SolidPartialOrder"
        return "PartialOrder"

    def to_json(self):
        return {
            "level": self.level,
            "is_partial_order": self.is_partial_order,
            "is_antichain": self.is_antichain,
            "strong": self.strong,
            "solid": self.solid,
            "leq": [list(row) for row in self.leq],
            "witnesses": {
                "%d,%d" % k: str(w) for k, w in self.witnesses.items()
            },
            "strong_witnesses": {
                str(k): str(w) for k, w in self.strong_witnesses.items()
            },
            "inconclusive_pairs": [list(p) for p in self.inconclusive_pairs],
        }


def classify_family(family, bound=WITNESS_SIZE_BOUND):
    """The family's theory-inclusion matrix and the witnesses found for
    it within the size bound.  Definite verdicts come from the exact
    inclusion oracle; an exhausted search reads "inconclusive", never a
    negative claim.  Computed once per (member keys, bound), and shared.
    """
    members = list(family)
    key = (tuple(m.key() for m in members), bound)
    cls = _classifications.get(key)
    if cls is None:
        cls = _classifications[key] = _classify(members, bound)
    return cls


def _classify(members, bound):
    n = len(members)
    leq = leq_matrix(members)
    candidates = [_witness_candidates(a, bound) for a in members]

    def separate(i, others):
        return _find_separating_witness(members[i], candidates[i], others)

    witnesses = {}
    for i in range(n):
        for j in range(n):
            if i != j and not leq[i][j]:
                w = separate(i, [members[j]])
                if w is not None:
                    witnesses[(i, j)] = w

    strong_witnesses = {}
    if not any(leq[i][j] for i in range(n) for j in range(n) if i != j):
        for i in range(n):
            w = separate(i, [members[j] for j in range(n) if j != i])
            if w is None:
                break
            strong_witnesses[i] = w

    solid_witnesses = {}
    for i in range(n):
        cone = [b for j, b in enumerate(members)
                if j != i and leq[j][i] and not leq[i][j]]
        w = separate(i, cone)
        if w is None:
            solid_witnesses = None
            break
        solid_witnesses[i] = w

    return Sigma1Classification(
        leq, witnesses, strong_witnesses, solid_witnesses
    )
