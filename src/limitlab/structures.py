"""Relational signatures, finite fragments, the diagram bit codec and the
finite embedding engine.

A fragment is an initial segment of an atomic diagram: a domain {0..n-1}
plus the set of relation tuples that hold on it.  Absent tuples are false
(closed world), so a fragment fully decides every atomic sentence whose
arguments lie inside its domain.
"""

from __future__ import annotations

from dataclasses import dataclass


class MalformedFormulaError(ValueError):
    pass


class PartialDiagramError(ValueError):
    pass


class SignatureMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Signature:
    """A finite relational signature: an ordered list of (name, arity)."""

    relations: tuple

    def __post_init__(self):
        rels = tuple((str(n), int(a)) for n, a in self.relations)
        object.__setattr__(self, "relations", rels)
        names = [n for n, _ in rels]
        if not rels:
            raise ValueError("signature must contain at least one relation")
        if len(set(names)) != len(names):
            raise ValueError("relation names must be pairwise distinct")
        if any(a < 1 for _, a in rels):
            raise ValueError("arities must be >= 1")

    def arity(self, rel_index):
        return self.relations[rel_index][1]


#: the one signature used by the whole structure catalog: a single binary
#: relation.  Orders store strict (irreflexive, transitive) pairs, graphs
#: store both directions of every edge.
BINARY = Signature((("R", 2),))


def _decided_count(sig, n):
    """Number of atomic sentences fully decided by a domain of size n."""
    return sum(n ** a for _, a in sig.relations)


def _rank_lex(args, base):
    r = 0
    for a in args:
        r = r * base + a
    return r


def _count_below_with_bound(args, bound):
    """Count tuples lexicographically smaller than args with all entries
    < bound (args itself may have entries >= bound)."""
    total = 0
    width = len(args)
    for i, a in enumerate(args):
        total += min(a, bound) * bound ** (width - 1 - i)
        if a >= bound:
            break
    return total


def godel_index(rel_index, args, sig=BINARY):
    """Position of the atomic sentence rel(args) in the canonical order.

    The order is: primary key max(args), then relation index, then args
    lexicographically.  This makes the set of sentences decided by a domain
    of size n exactly the first _decided_count(sig, n) ones.
    """
    args = tuple(args)
    if rel_index < 0 or rel_index >= len(sig.relations):
        raise MalformedFormulaError("no such relation: %r" % (rel_index,))
    arity = sig.arity(rel_index)
    if len(args) != arity or any(a < 0 for a in args):
        raise MalformedFormulaError(
            "arity mismatch for relation %d: %r" % (rel_index, args)
        )
    m = max(args)
    index = _decided_count(sig, m)
    for r in range(rel_index):
        a = sig.arity(r)
        index += (m + 1) ** a - m ** a
    # rank of args among arity-tuples with max entry exactly m
    index += _rank_lex(args, m + 1) - _count_below_with_bound(args, m)
    return index


def godel_decode(index, sig=BINARY):
    """Inverse of godel_index."""
    if index < 0:
        raise MalformedFormulaError("negative index")
    m = 0
    while _decided_count(sig, m + 1) <= index:
        m += 1
    rest = index - _decided_count(sig, m)
    for rel_index, (_, arity) in enumerate(sig.relations):
        block = (m + 1) ** arity - m ** arity
        if rest < block:
            break
        rest -= block
    # invert the in-block rank digit by digit
    args = []
    have_m = False
    for pos in range(arity):
        rem = arity - pos - 1
        for digit in range(m + 1):
            # completions of this prefix whose max entry is exactly m
            if have_m or digit == m:
                count = (m + 1) ** rem
            else:
                count = (m + 1) ** rem - m ** rem
            if rest < count:
                args.append(digit)
                have_m = have_m or digit == m
                break
            rest -= count
    return rel_index, tuple(args)


class FiniteFragment:
    """An initial segment of an atomic diagram.

    Stores only the positive tuples; everything else over the domain is
    false.  Internally the tuples live in an append-only log that extended
    fragments share, so a presentation driven for h stages costs O(h^2)
    overall rather than copying the tuple set at every stage.
    """

    __slots__ = (
        "signature", "size", "_log", "_pos", "_count", "_by_elem", "_profile"
    )

    def __init__(self, signature, size, _log=None, _pos=None, _count=0):
        self.signature = signature
        self.size = size
        self._log = _log if _log is not None else []
        self._pos = _pos if _pos is not None else {}
        self._count = _count
        self._by_elem = None
        self._profile = None

    def degree_profile(self):
        if self._profile is None:
            profile = {e: 0 for e in range(self.size)}
            for _, args in self.tuples():
                for a in set(args):
                    profile[a] += 1
            self._profile = profile
        return self._profile

    @classmethod
    def from_tuples(cls, signature, size, tuples):
        frag = cls(signature, size)
        for rel, args in sorted(set((r, tuple(a)) for r, a in tuples)):
            frag._append(rel, args)
        frag._count = len(frag._log)
        return frag

    def _append(self, rel, args):
        arity = self.signature.arity(rel)
        if len(args) != arity:
            raise MalformedFormulaError("arity mismatch: %r" % ((rel, args),))
        if any(a < 0 or a >= self.size for a in args):
            raise ValueError("argument out of domain: %r" % ((rel, args),))
        key = (rel, args)
        if key in self._pos:
            raise ValueError("duplicate tuple: %r" % (key,))
        self._pos[key] = len(self._log)
        self._log.append(key)

    def extended(self, new_size, new_tuples):
        """A fragment extending this one, sharing the tuple log.

        Only valid on the newest fragment of a log chain; new tuples may
        mention the enlarged domain.
        """
        if self._count != len(self._log):
            raise ValueError("can only extend the newest fragment of a chain")
        if new_size < self.size:
            raise ValueError("extension cannot shrink the domain")
        child = FiniteFragment(
            self.signature, new_size, self._log, self._pos, self._count
        )
        for rel, args in new_tuples:
            args = tuple(args)
            child._append(rel, args)
        child._count = len(self._log)
        return child

    def has(self, rel, args):
        p = self._pos.get((rel, tuple(args)))
        return p is not None and p < self._count

    def tuples(self):
        return self._log[: self._count]

    def tuple_set(self):
        return frozenset(self.tuples())

    def tuples_of(self, element):
        """Tuples mentioning a given element (index computed lazily)."""
        if self._by_elem is None:
            index = {}
            for t in self.tuples():
                for a in set(t[1]):
                    index.setdefault(a, []).append(t)
            self._by_elem = index
        return self._by_elem.get(element, ())

    def extends(self, other):
        """The extension partial order: other's facts over other's domain are
        exactly this fragment's facts restricted to that domain."""
        if self.signature != other.signature or self.size < other.size:
            return False
        mine = {
            t for t in self.tuples() if all(a < other.size for a in t[1])
        }
        return mine == other.tuple_set()

    def restricted(self, k):
        """The induced fragment on domain {0..k-1}."""
        return FiniteFragment.from_tuples(
            self.signature,
            k,
            (t for t in self.tuples() if all(a < k for a in t[1])),
        )

    def induced(self, elements):
        """Induced substructure on an arbitrary subset, relabelled 0..k-1 in
        the given iteration order."""
        elems = list(elements)
        relabel = {e: i for i, e in enumerate(elems)}
        tuples = []
        for rel, args in self.tuples():
            if all(a in relabel for a in args):
                tuples.append((rel, tuple(relabel[a] for a in args)))
        return FiniteFragment.from_tuples(self.signature, len(elems), tuples)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteFragment)
            and self.signature == other.signature
            and self.size == other.size
            and self.tuple_set() == other.tuple_set()
        )

    def __hash__(self):
        return hash((self.signature, self.size, self.tuple_set()))

    def __repr__(self):
        return "FiniteFragment(size=%d, tuples=%s)" % (
            self.size,
            sorted(self.tuples()),
        )


@dataclass(frozen=True)
class DiagramPrefix:
    """A finite binary sequence under the canonical sentence numbering."""

    bits: tuple
    signature: Signature = BINARY

    def __str__(self):
        return "".join(str(b) for b in self.bits)

    def __len__(self):
        return len(self.bits)


def encode_fragment(fragment):
    sig = fragment.signature
    length = _decided_count(sig, fragment.size)
    bits = [0] * length
    for rel, args in fragment.tuples():
        bits[godel_index(rel, args, sig)] = 1
    return DiagramPrefix(tuple(bits), sig)


def decode_fragment(prefix, sig=None):
    sig = sig or prefix.signature
    n = 0
    while _decided_count(sig, n) < len(prefix.bits):
        n += 1
    if _decided_count(sig, n) != len(prefix.bits):
        raise PartialDiagramError(
            "length %d is not a fully decided prefix length" % len(prefix.bits)
        )
    tuples = [
        godel_decode(i, sig) for i, b in enumerate(prefix.bits) if b
    ]
    return FiniteFragment.from_tuples(sig, n, tuples)


def _degree_profiles(fragment):
    """Per-element count of tuple slots, used for candidate pruning."""
    return fragment.degree_profile()


def embed_map(f, g, required=None):
    """An injective map dom(f) -> dom(g) preserving and reflecting all
    relations (induced substructure embedding), or None.

    With `required` set, only embeddings whose image contains that element
    of g are considered (used to search monotone properties incrementally:
    a copy absent yesterday must pass through today's new element).

    Plain backtracking; candidates are tried most-constrained-first.
    Correctness is the contract, the sizes this is used on stay small.
    """
    if f.signature != g.signature:
        raise SignatureMismatchError("fragments over different signatures")
    if f.size > g.size:
        return None
    if required is not None:
        for u in range(f.size):
            m = _embed_map_fixed(f, g, {u: required})
            if m is not None:
                return m
        return None
    return _embed_map_fixed(f, g, {})


def _embed_map_fixed(f, g, fixed):
    fprof = _degree_profiles(f)
    gprof = _degree_profiles(g)

    # order f's elements by constraint, then by connectivity to already
    # placed elements so partial checks fire early
    order = sorted(
        (e for e in range(f.size) if e not in fixed), key=lambda e: -fprof[e]
    )
    neighbours = {e: set() for e in range(f.size)}
    for _, args in f.tuples():
        for a in args:
            neighbours[a].update(args)
    placed = set(fixed)
    placed_order = []
    remaining = list(order)
    while remaining:
        nxt = None
        for e in remaining:
            if any(n in placed for n in neighbours[e]):
                nxt = e
                break
        if nxt is None:
            nxt = remaining[0]
        remaining.remove(nxt)
        placed_order.append(nxt)
        placed.add(nxt)

    assignment = {}
    used = set()

    def consistent(u, v):
        for rel, args in f.tuples_of(u):
            if all(a == u or a in assignment for a in args):
                image = tuple(v if a == u else assignment[a] for a in args)
                if not g.has(rel, image):
                    return False
        for rel, args in g.tuples_of(v):
            if all(b == v or b in used for b in args):
                inverse = {w: k for k, w in assignment.items()}
                pre = tuple(u if b == v else inverse[b] for b in args)
                if not f.has(rel, pre):
                    return False
        return True

    for u, v in fixed.items():
        if v in used or v >= g.size or gprof.get(v, 0) < fprof[u]:
            return None
        if not consistent(u, v):
            return None
        assignment[u] = v
        used.add(v)

    def candidates(u):
        # a placed neighbour pins the image to the neighbourhood of its
        # own image, which keeps the search local on large targets
        for n in neighbours[u]:
            if n != u and n in assignment:
                near = set()
                for _, args in g.tuples_of(assignment[n]):
                    near.update(args)
                return sorted(near)
        return range(g.size)

    def search(pos):
        if pos == len(placed_order):
            return True
        u = placed_order[pos]
        for v in candidates(u):
            if v in used or gprof[v] < fprof[u]:
                continue
            if consistent(u, v):
                assignment[u] = v
                used.add(v)
                if search(pos + 1):
                    return True
                del assignment[u]
                used.remove(v)
        return False

    if search(0):
        return dict(assignment)
    return None


def embed_finite(f, g):
    """True iff f embeds into g as an induced substructure."""
    return embed_map(f, g) is not None


def restrict(presentation, s):
    """The stage-s fragment of a presentation (domain {0..s})."""
    return presentation.restrict(s)
