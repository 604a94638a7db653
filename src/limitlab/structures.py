"""Finite fragments of the one binary relation, the diagram bit codec and
the finite embedding engine.

A fragment is an initial segment of an atomic diagram: a domain {0..n-1}
plus the set of relation tuples that hold on it.  Absent tuples are false
(closed world), so a fragment fully decides every atomic sentence whose
arguments lie inside its domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class MalformedFormulaError(ValueError):
    pass


class PartialDiagramError(ValueError):
    pass


#: the one signature of the package: a single binary relation R, with
#: relation index 0.  Orders store strict (irreflexive, transitive) pairs,
#: graphs store both directions of every edge.
BINARY = (("R", 2),)


def godel_index(rel, args):
    """Position of the atomic sentence R(a, b) in the canonical order.

    The order is: primary key m = max(a, b), then (a, b) lexicographically.
    This makes the sentences decided by a domain of size n exactly the
    first n * n ones.
    """
    args = tuple(args)
    if rel != 0:
        raise MalformedFormulaError("no such relation: %r" % (rel,))
    if len(args) != 2 or min(args) < 0:
        raise MalformedFormulaError(
            "arity mismatch for relation %d: %r" % (rel, args)
        )
    a, b = args
    m = max(a, b)
    return m * m + (a if a < m else m + b)


def godel_decode(index):
    """Inverse of godel_index."""
    if index < 0:
        raise MalformedFormulaError("negative index")
    m = math.isqrt(index)
    r = index - m * m
    return 0, ((r, m) if r < m else (m, r - m))


def iter_bits(mask):
    """The positions of the set bits of a non-negative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteFragment:
    """An initial segment of an atomic diagram of the binary signature.

    Stores only the positive tuples; everything else over the domain is
    false.  The tuples live in an append-only log, and element e's
    successors and predecessors are the bits of two ints, `_out[e]` and
    `_in[e]`.  Extended fragments share the log and both mask lists, so a
    presentation driven for h stages costs O(h^2) overall rather than
    copying the relation at every stage.  An extension only adds tuples
    that mention a new element, so a fragment's facts and the mask bits
    below its size never change after it is built.
    """

    __slots__ = ("size", "_log", "_out", "_in", "_count", "_order", "_profile")

    def __init__(
        self, signature, size, _log=None, _out=None, _in=None, _count=0
    ):
        if signature != BINARY:
            raise ValueError("fragments support only the binary signature")
        self.size = size
        self._log = [] if _log is None else _log
        self._out = [0] * size if _out is None else _out
        self._in = [0] * size if _in is None else _in
        self._count = _count
        self._order = None  # is_strict_order(), once known
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
        if rel != 0 or len(args) != 2:
            raise MalformedFormulaError("arity mismatch: %r" % ((rel, args),))
        a, b = args
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise ValueError("argument out of domain: %r" % ((rel, args),))
        if self._out[a] >> b & 1:
            raise ValueError("duplicate tuple: %r" % ((rel, args),))
        self._out[a] |= 1 << b
        self._in[b] |= 1 << a
        self._log.append((rel, args))

    def extended(self, new_size, new_tuples):
        """A fragment extending this one, sharing the tuple log and masks.

        Only valid on the newest fragment of a chain; every new tuple must
        mention an element of the enlarged part of the domain.
        """
        old = self.size
        if self._count != len(self._log) or old != len(self._out):
            raise ValueError("can only extend the newest fragment of a chain")
        if new_size < old:
            raise ValueError("extension cannot shrink the domain")
        new = [(rel, tuple(args)) for rel, args in new_tuples]
        for t in new:
            if all(a < old for a in t[1]):
                raise ValueError("tuple %r mentions no new element" % (t,))
        grow = [0] * (new_size - old)
        self._out.extend(grow)
        self._in.extend(grow)
        child = FiniteFragment(
            BINARY, new_size, self._log, self._out, self._in, self._count
        )
        for rel, args in new:
            child._append(rel, args)
        child._count = len(self._log)
        if self._order is not None:
            child._order = self._order and child._order_grows_from(old)
        return child

    def has(self, rel, args):
        a, b = args
        return (
            rel == 0
            and 0 <= a < self.size
            and 0 <= b < self.size
            and self._out[a] >> b & 1 == 1
        )

    def tuples(self):
        return self._log[: self._count]

    def new_facts(self, since):
        """The log entries after the first `since` ones."""
        return self._log[since: self._count]

    def fact_count(self):
        return self._count

    def tuple_set(self):
        return frozenset(self.tuples())

    def tuples_of(self, element):
        """Tuples mentioning a given element, in log order.  Nothing in the
        package calls it; bench/tracer.py times it as a lookup."""
        return [t for t in self.tuples() if element in t[1]]

    def masks(self):
        """Per-element successor and predecessor bitmasks over this
        fragment's domain, as two lists indexed by element."""
        n, full = self.size, (1 << self.size) - 1
        return (
            [m & full for m in self._out[:n]],
            [m & full for m in self._in[:n]],
        )

    def is_strict_order(self):
        """Irreflexive and transitive (hence antisymmetric); computed once
        per fragment, and carried along extensions from the new elements'
        masks only."""
        if self._order is None:
            out, full = self._out, (1 << self.size) - 1
            self._order = all(
                a != b and not out[b] & full & ~out[a]
                for _, (a, b) in self.tuples()
            )
        return self._order

    def _order_grows_from(self, old):
        """With the facts among 0..old-1 a strict order, does each later
        element x keep it one?  With P and S its predecessors and successors
        among 0..x-1: no self-loop, P down-closed, S up-closed, and every
        element of P below all of S (so P and S are disjoint)."""
        out, inn = self._out, self._in
        for x in range(old, self.size):
            below = (1 << x) - 1
            pred, succ = inn[x] & below, out[x] & below
            if out[x] >> x & 1:
                return False
            for p in iter_bits(pred):
                if inn[p] & below & ~pred or succ & ~out[p]:
                    return False
            for s in iter_bits(succ):
                if out[s] & below & ~succ:
                    return False
        return True

    def extends(self, other):
        """The extension partial order: other's facts over other's domain are
        exactly this fragment's facts restricted to that domain."""
        if self.size < other.size:
            return False
        mine = {
            t for t in self.tuples() if all(a < other.size for a in t[1])
        }
        return mine == other.tuple_set()

    def restricted(self, k):
        """The induced fragment on domain {0..k-1}."""
        return self.induced(range(k))

    def induced(self, elements):
        """Induced substructure on a subset of the domain, relabelled
        0..k-1 in the given iteration order; built from the masks, with its
        log already sorted."""
        elems = list(elements)
        relabel = {e: i for i, e in enumerate(elems)}
        if len(relabel) != len(elems):
            raise ValueError("repeated element in %r" % (elems,))
        chosen = 0
        for e in elems:
            if not 0 <= e < self.size:
                raise ValueError("element %r out of domain" % (e,))
            chosen |= 1 << e
        frag = FiniteFragment(BINARY, len(elems))
        log, out, inn = frag._log, frag._out, frag._in
        for i, e in enumerate(elems):
            row = self._out[e] & chosen
            if row:
                for j in sorted(relabel[b] for b in iter_bits(row)):
                    log.append((0, (i, j)))
                    out[i] |= 1 << j
                    inn[j] |= 1 << i
        frag._count = len(log)
        if self._order:
            frag._order = True  # a restriction of a strict order is one
        return frag

    def __eq__(self, other):
        return (
            isinstance(other, FiniteFragment)
            and self.size == other.size
            and self.tuple_set() == other.tuple_set()
        )

    def __hash__(self):
        return hash((self.size, self.tuple_set()))

    def __repr__(self):
        return "FiniteFragment(size=%d, tuples=%s)" % (
            self.size,
            sorted(self.tuples()),
        )


@dataclass(frozen=True)
class DiagramPrefix:
    """A finite binary sequence under the canonical sentence numbering."""

    bits: tuple

    def __str__(self):
        return "".join(str(b) for b in self.bits)

    def __len__(self):
        return len(self.bits)


def encode_fragment(fragment):
    bits = [0] * (fragment.size * fragment.size)
    for rel, args in fragment.tuples():
        bits[godel_index(rel, args)] = 1
    return DiagramPrefix(tuple(bits))


def decode_fragment(prefix):
    n = math.isqrt(len(prefix.bits))
    if n * n != len(prefix.bits):
        raise PartialDiagramError(
            "length %d is not a fully decided prefix length" % len(prefix.bits)
        )
    tuples = [godel_decode(i) for i, b in enumerate(prefix.bits) if b]
    return FiniteFragment.from_tuples(BINARY, n, tuples)


def embed_map(f, g, required=None):
    """An injective map dom(f) -> dom(g) preserving and reflecting all
    relations (induced substructure embedding), or None.

    With `required` set, only embeddings whose image contains that element
    of g are considered (used to search monotone properties incrementally:
    a copy absent yesterday must pass through today's new element).

    Plain backtracking; candidates are tried most-constrained-first.
    Correctness is the contract, the sizes this is used on stay small.
    """
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
    fprof = f.degree_profile()
    gprof = g.degree_profile()

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

    f_out, f_in, g_out, g_in = f._out, f._in, g._out, g._in
    g_full = (1 << g.size) - 1
    assignment = {}
    # bitmasks of the assigned elements of f and of their images in g
    done = used = 0

    def consistent(u, v):
        # u's facts with the assigned elements must match v's facts with
        # their images bit for bit, and v may have no other fact with a
        # used element
        fo, fi, go, gi = f_out[u], f_in[u], g_out[v], g_in[v]
        if fo >> u & 1 != go >> v & 1:
            return False
        near = (fo | fi) & done
        for a in iter_bits(near):
            w = assignment[a]
            if fo >> a & 1 != go >> w & 1 or fi >> a & 1 != gi >> w & 1:
                return False
        return near.bit_count() == ((go | gi) & used).bit_count()

    for u, v in fixed.items():
        if v >= g.size or used >> v & 1 or gprof.get(v, 0) < fprof[u]:
            return None
        if not consistent(u, v):
            return None
        assignment[u] = v
        done |= 1 << u
        used |= 1 << v

    def candidates(u):
        # a placed neighbour pins the image to the neighbourhood of its
        # own image, which keeps the search local on large targets
        for n in neighbours[u]:
            if n != u and n in assignment:
                w = assignment[n]
                return iter_bits((g_out[w] | g_in[w]) & g_full)
        return range(g.size)

    def search(pos):
        nonlocal done, used
        if pos == len(placed_order):
            return True
        u = placed_order[pos]
        for v in candidates(u):
            if used >> v & 1 or gprof[v] < fprof[u]:
                continue
            if consistent(u, v):
                assignment[u] = v
                done |= 1 << u
                used |= 1 << v
                if search(pos + 1):
                    return True
                del assignment[u]
                done ^= 1 << u
                used ^= 1 << v
        return False

    if search(0):
        return dict(assignment)
    return None


def embed_finite(f, g):
    """True iff f embeds into g as an induced substructure."""
    return embed_map(f, g) is not None
