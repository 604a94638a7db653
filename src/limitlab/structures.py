"""Finite fragments of the one binary relation and the finite embedding
engine.

A fragment is an initial segment of an atomic diagram: a domain {0..n-1}
plus the set of relation tuples that hold on it.  Absent tuples are false
(closed world), so a fragment fully decides every atomic sentence whose
arguments lie inside its domain.
"""

from __future__ import annotations


def iter_bits(mask):
    """The positions of the set bits of a non-negative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteFragment:
    """An initial segment of an atomic diagram of the one binary relation
    R, whose facts R(a, b) are written (0, (a, b)): orders store strict
    pairs, graphs both directions of every edge.

    Element e's successors and predecessors are the bits of two ints,
    `_out[e]` and `_in[e]`; every other fact over the domain is false.
    Extended fragments share both mask lists, so a stream of h stages
    stores each fact once.  An extension stores only its new element's
    row, its facts with the earlier elements; the older rows take its
    bits on the first read that needs an older element's full row, and
    that read folds every pending element of the chain in one pass.  The
    chain shares one fold record, [number of its elements whose bits are
    in the older rows]; `_fold` is that record while this fragment may
    have elements to fold, and None once it has none or when it owns its
    masks (`from_tuples`, `induced`).  Folding element x sets only bit x
    of older rows and every read masks to the fragment's size, so no
    read ever sees a bit at or above its own size, and a fragment's facts
    never change after it is built.  The mask of elements in some fact
    is set as the facts are added and carried along extensions, and the
    hash is computed once.

    Whether the facts form a strict order is a threshold along a chain:
    true up to some size, false from the next one on.  The fragments of a
    chain share one record of it, [largest size known to be an order,
    whether the next size is known not to be], and `is_strict_order`
    resumes from that size, so each element of a chain is checked at most
    once, whichever fragment is asked first; the check folds each element
    it checks, so it folds nothing twice.

    A fragment searched as the pattern of a rooted `embed_map` keeps that
    search's plans, one per automorphism orbit of its elements, built by
    its first rooted search.  They read only its facts within its domain,
    which never change, so they never go stale; every new fragment starts
    with none.
    """

    __slots__ = (
        "size", "_out", "_in", "_order", "_fold", "_linked", "_hash", "_plans"
    )

    def __init__(self, size, _out=None, _in=None):
        self.size = size
        self._out = [0] * size if _out is None else _out
        self._in = [0] * size if _in is None else _in
        self._order = [0, False]  # the chain's order record, see above
        self._fold = None  # the chain's fold record while one is pending
        self._linked = 0  # the elements in some fact, set as facts are added
        self._hash = None  # __hash__(), once known
        self._plans = None  # embed_map's rooted search plans, once built

    @classmethod
    def from_tuples(cls, size, tuples):
        """The fragment whose facts are `tuples`, each (0, (a, b)) for
        R(a, b)."""
        frag = cls(size)
        out, inn = frag._out, frag._in
        for rel, args in tuples:
            a, b = args
            if rel != 0 or not (0 <= a < size and 0 <= b < size):
                raise ValueError(
                    "no such fact over %d elements: %r" % (size, (rel, args))
                )
            out[a] |= 1 << b
            inn[b] |= 1 << a
            frag._linked |= 1 << a | 1 << b
        return frag

    def extended(self, succ, pred):
        """The fragment with one more element e = size, sharing this one's
        masks: bit j of succ (of pred) says R(e, j) (R(j, e)), for j <= e.
        Only valid on the newest fragment of a chain.  It stores e's row;
        the older rows take e's bits when a reader needs them."""
        e = self.size
        out, inn = self._out, self._in
        if e != len(out):
            raise ValueError("can only extend the newest fragment of a chain")
        both = succ | pred
        if not 0 <= both < 2 << e or (succ ^ pred) >> e:
            raise ValueError("masks need bits 0..%d, a self-loop in both" % e)
        out.append(succ)
        inn.append(pred)
        # every slot set once, without __init__'s defaults
        child = FiniteFragment.__new__(FiniteFragment)
        child.size, child._out, child._in = e + 1, out, inn
        child._order = self._order
        # with no record pending, all e elements are in the older rows
        child._fold = [e] if self._fold is None else self._fold
        child._linked = self._linked | both | 1 << e if both else self._linked
        child._hash = child._plans = None
        return child

    def _settle(self):
        """Fold every element of the chain not yet folded into the older
        rows: bit x of R(j, x) goes into j's successors, of R(x, j) into
        j's predecessors; nothing when no record is pending.  An unfolded
        row has no bit above its element."""
        fold, out, inn = self._fold, self._out, self._in
        if fold is None:
            return
        top = len(out)
        for x in range(fold[0], top):
            bit = 1 << x
            m = inn[x]
            while m:
                low = m & -m
                out[low.bit_length() - 1] |= bit
                m ^= low
            m = out[x]
            while m:
                low = m & -m
                inn[low.bit_length() - 1] |= bit
                m ^= low
        fold[0] = top
        self._fold = None

    def has(self, rel, args):
        a, b = args
        if rel != 0 or not (0 <= a < self.size and 0 <= b < self.size):
            return False
        # the later element's row holds the fact, folded or not
        return (self._out[a] >> b if a >= b else self._in[b] >> a) & 1 == 1

    def tuples(self):
        """The facts in chain order: element e ascending, and with each
        j <= e ascending, (j, e) before (e, j); read off each element's
        row against the earlier ones, so nothing needs folding."""
        out, inn, facts = self._out, self._in, []
        for e in range(self.size):
            upto = (2 << e) - 1
            succ, pred = out[e] & upto, inn[e] & upto
            for j in iter_bits(succ | pred):
                if pred >> j & 1:
                    facts.append((0, (j, e)))
                if succ >> j & 1 and j < e:
                    facts.append((0, (e, j)))
        return facts

    def fact_count(self):
        self._settle()
        rows = map(((1 << self.size) - 1).__and__, self._out[: self.size])
        return sum(map(int.bit_count, rows))

    def tuple_set(self):
        return frozenset(self.tuples())

    def tuples_of(self, element):
        """Tuples mentioning a given element, in chain order.  Nothing in
        the package calls it; bench/tracer.py times it as a lookup."""
        return [t for t in self.tuples() if element in t[1]]

    def row(self, e):
        """Element e's successor and predecessor masks within the domain;
        the newest element's row needs no folding."""
        if e != self.size - 1:
            self._settle()
        full = (1 << self.size) - 1
        return self._out[e] & full, self._in[e] & full

    def linked_mask(self):
        """The bitmask of the elements in at least one fact; set as the
        facts are added, and carried along extensions."""
        return self._linked

    def masks(self):
        """Per-element successor and predecessor bitmasks over this
        fragment's domain, as two lists indexed by element."""
        self._settle()
        n, full = self.size, (1 << self.size) - 1
        out, inn = self._out[:n], self._in[:n]
        return [m & full for m in out], [m & full for m in inn]

    def is_strict_order(self):
        """Irreflexive and transitive (hence antisymmetric); resumed from
        the chain's record (see the class), so only elements no fragment of
        the chain has been asked about are checked."""
        record = self._order
        known, broken = record
        if self.size > known and not broken:
            grown = self._order_grows_from(known)
            record[0], record[1] = grown, grown < self.size
            known = grown
        return self.size <= known

    def _order_grows_from(self, old):
        """With the facts among 0..old-1 a strict order, the first later
        element x that does not keep it one, or the size.  With P and S
        x's predecessors and successors among 0..x-1, x keeps it one when
        it has no self-loop, P is down-closed, S up-closed, and every
        element of P lies below all of S (so P and S are disjoint).  The
        check reads only bits below x, so with every earlier element folded
        it folds x in the same walk; a return mid-walk leaves x folded in
        part, which the next fold completes, as folds only set bits."""
        fold, out, inn = self._fold, self._out, self._in
        done = self.size if fold is None else fold[0]
        for x in range(min(old, done), self.size):
            below, bit = (1 << x) - 1, 1 << x
            pred, succ = inn[x] & below, out[x] & below
            if out[x] & bit:
                return x
            folding = x >= done
            off_pred, off_succ = below ^ pred, below ^ succ
            for p in iter_bits(pred):
                if inn[p] & off_pred or out[p] & succ != succ:
                    return x
                if folding:
                    out[p] |= bit
            for s in iter_bits(succ):
                if out[s] & off_succ:
                    return x
                if folding:
                    inn[s] |= bit
            if folding:
                fold[0] = x + 1
        self._fold = None
        return self.size

    def extends(self, other):
        """The extension partial order: other's facts over other's domain are
        exactly this fragment's facts restricted to that domain.  Fragments
        of one chain share their masks, and so extend each other by size."""
        n, mine, theirs = other.size, self._out, other._out
        if self.size < n:
            return False
        if mine is not theirs:
            self._settle()
            other._settle()
            full = (1 << n) - 1
            for e in range(n):
                if (mine[e] ^ theirs[e]) & full:
                    return False
        return True

    def induced(self, elements):
        """Induced substructure on a subset of the domain, relabelled
        0..k-1 in the given iteration order; built from the masks."""
        elems = list(elements)
        relabel = {e: i for i, e in enumerate(elems)}
        if len(relabel) != len(elems):
            raise ValueError("repeated element in %r" % (elems,))
        chosen = 0
        for e in elems:
            if not 0 <= e < self.size:
                raise ValueError("element %r out of domain" % (e,))
            chosen |= 1 << e
        self._settle()
        frag = FiniteFragment(len(elems))
        out, inn = frag._out, frag._in
        for i, e in enumerate(elems):
            row = self._out[e] & chosen
            if row:
                for b in iter_bits(row):
                    j = relabel[b]
                    out[i] |= 1 << j
                    inn[j] |= 1 << i
                frag._linked |= 1 << i | out[i]
        if self.size <= self._order[0]:
            # a restriction of a strict order is one
            frag._order = [frag.size, False]
        return frag

    def __eq__(self, other):
        return (
            isinstance(other, FiniteFragment)
            and self.size == other.size
            and self.extends(other)
        )

    def __hash__(self):
        if self._hash is None:
            self._settle()
            full = (1 << self.size) - 1  # the size is the tuple's length
            self._hash = hash(tuple(m & full for m in self._out[: self.size]))
        return self._hash

    def __repr__(self):
        return "FiniteFragment(size=%d, tuples=%s)" % (
            self.size,
            sorted(self.tuples()),
        )


def embed_map(f, g, required=None):
    """An injective map dom(f) -> dom(g) preserving and reflecting all
    relations (induced substructure embedding), or None.

    With `required` set, only embeddings whose image contains that element
    of g are considered (used to search monotone properties incrementally:
    a copy absent yesterday must pass through today's new element).

    Plain backtracking along a search plan (see `_search_plans`): f's
    elements in a fixed placement order, candidates most-constrained-first.
    A rooted search tries the first element of each automorphism orbit of
    f as the preimage of `required` (see `_orbit_plans`), and keeps their
    plans on f, built on the first rooted search, because a stream
    re-searches the same pattern at every stage; f's facts never change,
    so the plans never go stale.  An unrooted
    search plans for the call and keeps nothing, so a one-off large
    pattern (a whole stream, say) leaves nothing behind.  Correctness is
    the contract, the sizes this is used on stay small.
    """
    if f.size > g.size:
        return None
    f._settle()
    g._settle()
    g_out, g_in, g_full = g._out, g._in, (1 << g.size) - 1
    image = [0] * f.size  # image[u]: the image of u, once u is placed
    if required is None:
        plan = _search_plans(f, (None,))[0]
        found = _search(plan, 0, g_out, g_in, g_full, image, 0)
        return {step[0]: image[step[0]] for step in plan} if found else None
    if required >= g.size:
        return None
    plans = f._plans
    if plans is None:
        plans = f._plans = _orbit_plans(f)
    # the checks the root's step would make on u -> required, made once
    # per root here
    go, gi = g_out[required], g_in[required]
    loop = go >> required & 1
    room_out, room_in = (go & g_full).bit_count(), (gi & g_full).bit_count()
    for plan in plans:
        u, need, u_loop = plan[0][:3]
        if u_loop != loop or need and (need[0] > room_out or need[1] > room_in):
            continue
        image[u] = required
        if _search(plan, 1, g_out, g_in, g_full, image, 1 << required):
            return {step[0]: image[step[0]] for step in plan}
    return None


def _orbit_plans(f):
    """The rooted plans of f, one per automorphism orbit of its elements:
    the plan of each orbit's first root, in element order.  Roots u < v
    share an orbit iff f embeds into itself with u -> v, searched along
    u's plan, and are tested only when their out- and in-degrees match.
    An automorphism taking u to v turns an embedding with v -> r into one
    with u -> r, so either both roots succeed or neither does, and the
    first root that succeeds, and with it the map, is the same as when
    every root is tried."""
    full, image, kept = (1 << f.size) - 1, [0] * f.size, []
    for plan in _search_plans(f, range(f.size)):
        v, shape = plan[0][:2]
        for u_shape, u_plan in kept:
            image[u_plan[0][0]] = v
            if u_shape == shape and _search(
                u_plan, 1, f._out, f._in, full, image, 1 << v
            ):
                break
        else:
            kept.append((shape, plan))
    return tuple(plan for _, plan in kept)


def _search_plans(f, roots):
    """One search plan of f per root (an element of f placed first, or
    None): a tuple with one step per position of the placement order,
    (u, need, self-loop bit, out row, in row, earlier neighbours) for
    the element u placed there.  The need is u's (out-degree, in-degree),
    which an image's must each reach, or None when u is in no fact; the
    rows are u's masks within f's domain, and the earlier neighbours are
    those of u placed before it.  The order is the root, then at each
    position the element in the most facts next to one already placed,
    or else the one in the most facts, so partial checks fire early.
    Each plan holds O(|f|) values."""
    full = (1 << f.size) - 1
    rows = [(f._out[u] & full, f._in[u] & full) for u in range(f.size)]
    near = [o | i for o, i in rows]
    degree = [
        o.bit_count() + i.bit_count() - (o >> u & 1)
        for u, (o, i) in enumerate(rows)
    ]
    ranked = sorted(range(f.size), key=lambda e: -degree[e])
    plans = []
    for root in roots:
        order = [] if root is None else [root]
        remaining = [e for e in ranked if e != root]
        placed = 0 if root is None else 1 << root
        while remaining:
            nxt = next((e for e in remaining if near[e] & placed), remaining[0])
            remaining.remove(nxt)
            order.append(nxt)
            placed |= 1 << nxt
        steps, placed = [], 0
        for u in order:
            o, i = rows[u]
            need = (o.bit_count(), i.bit_count()) if near[u] else None
            steps.append((u, need, o >> u & 1, o, i, near[u] & placed))
            placed |= 1 << u
        plans.append(tuple(steps))
    return tuple(plans)


def _search(plan, pos, g_out, g_in, g_full, image, used):
    """Place plan[pos:] given the images of plan[:pos] in `image` and
    their mask `used`; True once all are placed."""
    if pos == len(plan):
        return True
    u, need, loop, fo, fi, before = plan[pos]
    # the image lies next to the image of every placed neighbour, which
    # keeps the search local on large targets; its facts with the used
    # elements are exactly the images of u's facts with the placed ones
    cands, want_out, want_in = g_full & ~used, 0, 0
    m = before
    while m:
        low = m & -m
        a = low.bit_length() - 1
        w = image[a]
        cands &= g_out[w] | g_in[w]
        if fo >> a & 1:
            want_out |= 1 << w
        if fi >> a & 1:
            want_in |= 1 << w
        m ^= low
    while cands:
        low = cands & -cands
        v = low.bit_length() - 1
        cands ^= low
        go, gi = g_out[v], g_in[v]
        if need and (
            (go & g_full).bit_count() < need[0]
            or (gi & g_full).bit_count() < need[1]
        ):
            continue
        if go >> v & 1 != loop or go & used != want_out or gi & used != want_in:
            continue
        image[u] = v
        if _search(plan, pos + 1, g_out, g_in, g_full, image, used | low):
            return True
    return False


def embed_finite(f, g):
    """True iff f embeds into g as an induced substructure."""
    return embed_map(f, g) is not None
