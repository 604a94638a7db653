"""Symbolic catalog of target structures and their seeded presentations.

Every structure is a countable (finite or infinite) object with a single
binary relation: strict partial orders (transitively closed) or symmetric
graphs.  A structure exposes a canonical enumeration of its abstract
elements; presentations reveal those elements in a seeded fair order.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

from .structures import FiniteFragment, embed_finite, iter_bits

_SCHEDULE_WINDOW = 4


class ConstructionError(ValueError):
    pass


class UnsupportedOracleError(ValueError):
    pass


class CatalogStructure:
    """Base class; a subclass is one kind of structure and the one place
    that states it: its `name` (an atom's key, or the head of a
    parameterised key), the relation on its abstract tokens, its age in
    age_holds and, unless the tokens are the naturals below size(), their
    canonical enumeration."""

    name = None
    style = "order"  # "order" | "graph" | "any"
    _tokens = None  # the canonical enumeration so far, made on first use

    def _enumerate(self):
        size = self.size()
        return itertools.count() if size is None else iter(range(size))

    def key(self):
        return self.name

    def related(self, x, y):
        raise NotImplementedError

    def admit(self, groups, tok, j):
        """tok's successor and predecessor masks against the tokens at a
        chain's positions 0..j-1: bit i is related(tok, token i), resp.
        related(token i, tok); then record in groups, the chain's own
        record for this hook, that position j holds tok."""

    def age_holds(self, fragment, part):
        """Whether a nonempty fragment of this structure's style (see
        fragment_embeds), restricted to the mask `part` of elements that
        holds all its facts, embeds as an induced substructure.  By default
        a copy of the part that fits is asked of a saturated prefix."""
        n, size = part.bit_count(), self.size()
        if size is not None and n > size:
            return False
        if n < fragment.size:
            fragment = fragment.induced(iter_bits(part))
        return embed_finite(fragment, saturated_fragment(self, 2 * n + 8))

    def absorbs_isolated(self):
        """Whether the age stays closed under adding an element in no
        fact: what embeds here still does with one more isolated point."""
        return False

    def size(self):
        """Number of elements, or None when infinite."""
        return None

    def param(self):
        """Largest numeric parameter, used for saturation bounds."""
        return 3

    def element(self, i):
        """Token i of the canonical enumeration."""
        tokens = self._tokens
        if tokens is None:
            tokens = self._tokens = []
            self._more = self._enumerate()
        while len(tokens) <= i and self._more is not None:
            try:
                tokens.append(next(self._more))
            except StopIteration:
                self._more = None
        if i >= len(tokens):
            raise IndexError("structure %s has only %d elements" % (
                self.key(), len(tokens)))
        return tokens[i]

    def __repr__(self):
        return self.key()

    def __eq__(self, other):
        return isinstance(other, CatalogStructure) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class _Numbered(CatalogStructure):
    """A structure with one natural-number parameter n, at least `least`,
    keyed name(n); unless it says otherwise it has n elements."""

    least = 0

    def __init__(self, n):
        if n < self.least:
            raise ValueError(
                "%s(n) needs n >= %d, got %d" % (self.name, self.least, n)
            )
        self.n = n

    def key(self):
        return "%s(%d)" % (self.name, self.n)

    def size(self):
        return self.n

    def param(self):
        return self.n


class _Ranks:
    """A chain's tokens of one linear order, by value: the filed tokens in
    increasing order, and below[i], the mask of the chain positions of the
    i least of them."""

    __slots__ = ("tokens", "below")

    def __init__(self):
        self.tokens, self.below = [], [0]

    def add(self, tok, j):
        """File tok at chain position j, and return the positions of the
        earlier tokens below it, and above it."""
        # O(log n + the tokens above tok): streams mostly reveal a new
        # token near the top, so it seldom touches more than a few masks
        i = bisect.bisect(self.tokens, tok)
        self.tokens.insert(i, tok)
        below, bit = self.below, 1 << j
        lower = below[i]
        higher = below[-1] ^ lower
        below.insert(i + 1, lower)
        for k in range(i + 1, len(below)):
            below[k] |= bit
        return lower, higher

    def at_most(self, tok):
        """The positions of the filed tokens at most tok."""
        return self.below[bisect.bisect(self.tokens, tok)]


class _LinearOrder(CatalogStructure):
    """A linear order on numeric tokens, by value (reversed when reverse
    is set).  A chain files its tokens in a _Ranks, so admit is one
    binary search, not a related call per earlier token.  Its age is
    the total chains that fit: a strict order whose facts relate every
    two elements of the part."""

    reverse = False

    def related(self, x, y):
        return x > y if self.reverse else x < y

    def admit(self, groups, tok, j):
        if not groups:
            groups[0] = _Ranks()
        below, above = groups[0].add(tok, j)
        return (below, above) if self.reverse else (above, below)

    def age_holds(self, fragment, part):
        n, size = part.bit_count(), self.size()
        return (size is None or n <= size) and (
            fragment.fact_count() == n * (n - 1) // 2
        )


class OmegaOrder(_LinearOrder):
    name = "omega"


class OmegaStarOrder(_LinearOrder):
    """The reverse of omega; token i is the i-th element from the top."""

    name = "omega_star"
    # filed by token, not by -token: streams reveal tokens in nearly
    # increasing order, which appends to the ranks
    reverse = True


class ZetaOrder(_LinearOrder):
    """Integers; enumerated 0, 1, -1, 2, -2, ..."""

    name = "zeta"

    def _enumerate(self):
        yield 0
        i = 1
        while True:
            yield i
            yield -i
            i += 1


class FiniteChain(_Numbered, _LinearOrder):
    name, least = "chain", 2


class _SparseGraph(CatalogStructure):
    """A graph in which each token has at most two neighbours, named by
    neighbours(tok), which is the relation: admit looks the revealed
    neighbours up, and a chain files each token's position under it.  A
    fragment in its age has only paths and cycles as components, and fits
    decides whether the part's do."""

    style = "graph"

    def admit(self, groups, tok, j):
        near = 0
        for t in self.neighbours(tok):
            if t in groups:
                near |= 1 << groups[t]
        groups[tok] = j
        return near, near

    def related(self, x, y):
        return y in self.neighbours(x)

    def age_holds(self, fragment, part):
        # only the part's elements are in facts, so only their rows count
        out, ends = {}, 0
        for e in iter_bits(part):
            succ, pred = fragment.row(e)
            degree = succ.bit_count()
            if succ != pred or succ >> e & 1 or degree > 2:
                return False
            out[e], ends = succ, ends | (degree < 2) << e
        # a connected, loop-free symmetric graph of maximum degree 2 is a
        # path or a cycle, and a cycle when no element has under 2 neighbours
        count, cycles = 0, []
        for comp in _components(out, out, part):
            count += 1
            if not comp & ends:
                cycles.append(comp.bit_count())
        return self.fits(part.bit_count(), count, cycles)

    def fits(self, size, components, cycles):
        """Whether `size` elements in that many path or cycle components,
        the cycles of the listed sizes, embed."""
        raise NotImplementedError


class Ray(_SparseGraph):
    """The one-way infinite path, as an undirected graph."""

    name = "ray"

    def neighbours(self, tok):
        return tok - 1, tok + 1

    def fits(self, size, components, cycles):
        return not cycles


class FiniteRay(_Numbered, Ray):
    name, least = "ray", 2

    def fits(self, size, components, cycles):
        return not cycles and size + components - 1 <= self.n


class Cycle(_Numbered, _SparseGraph):
    name, least = "cycle", 3

    def neighbours(self, tok):
        return (tok + 1) % self.n, (tok - 1) % self.n

    def fits(self, size, components, cycles):
        if cycles:
            return components == 1 and size == self.n
        return size + components <= self.n


class _Isolated(CatalogStructure):
    """A structure with no fact: its age is the fact-free fragments whose
    part fits, and admit records nothing."""

    style = "any"

    def related(self, x, y):
        return False

    def admit(self, groups, tok, j):
        return 0, 0

    def age_holds(self, fragment, part):
        size = self.size()
        return not fragment.fact_count() and (
            size is None or part.bit_count() <= size
        )


class IsolatedInfinite(_Isolated):
    name = "iso_inf"

    def absorbs_isolated(self):
        return True


class IsolatedFinite(_Numbered, _Isolated):
    name = "iso"

    def param(self):
        return max(self.n, 1)


class PosetP(_Numbered):
    """The ladder-like posets: evens form a chain, odds sit on top.

    For n > 0 the domain is {0..2n+1} with 2i below 2i+2 (i < n) and 2i
    below 2i+1 (i <= n).  For n = 0 the domain is all of N with 2i below
    2i+2 and 2j below 2j-1 for j > 0.  Tokens are the domain elements and
    the relation is the strict order with the transitive closure
    materialized.  admit files the evens by index and the odds by their
    cover, the index of the top even below them, in two _Ranks.
    """

    name = "poset_p"

    def size(self):
        return 2 * self.n + 2 if self.n else None

    def param(self):
        return 2 * self.n + 2 if self.n else 4

    def related(self, x, y):
        # strictly below, after closing under transitivity
        if x == y or x % 2 == 1:
            return False
        return x < y if y % 2 == 0 else x // 2 <= self._cover(y)

    def _cover(self, odd):
        return (odd + 1) // 2 if self.n == 0 else odd // 2

    def admit(self, groups, tok, j):
        if not groups:
            groups[0] = _Ranks(), _Ranks()
        evens, odds = groups[0]
        if tok % 2:
            odds.add(self._cover(tok), j)
            return 0, evens.at_most(self._cover(tok))
        below, above = evens.add(tok // 2, j)
        # the odds whose cover is at least tok's index lie above it
        return above | odds.below[-1] ^ odds.at_most(tok // 2 - 1), below

    def age_holds(self, fragment, part):
        # non-maximal elements map onto evens, so form a chain C: their
        # predecessor counts differ.  A maximal one with d elements of C
        # below takes an odd between the d-th and (d+1)-th images; for n > 0
        # the n + 1 odds give d = 0 the first image's index, d >= 1 at least 1
        ranks, counts = 0, [0] * (part.bit_count() + 1)
        for e in iter_bits(part):
            succ, pred = fragment.row(e)
            d = pred.bit_count()
            if succ:
                if ranks >> d & 1:
                    return False
                ranks |= 1 << d
            else:
                counts[d] += 1
        top = ranks.bit_length()  # the size of C
        slots = counts[0] + sum(max(c, 1) for c in counts[1:top + 1])
        return not self.n or slots <= self.n + 1


class CycleComplement(_Numbered, _SparseGraph):
    """Disjoint union of every cycle except the named one; tokens are
    (cycle size, position), enumerated by increasing cycle size."""

    name, least = "cyc_comp", 3

    def _enumerate(self):
        m = 3
        while True:
            if m != self.n:
                for p in range(m):
                    yield (m, p)
            m += 1

    def size(self):
        return None

    def neighbours(self, tok):
        m, p = tok
        return (m, (p + 1) % m), (m, (p - 1) % m)

    def fits(self, size, components, cycles):
        # one copy of each cycle size but n is available; path components
        # always fit somewhere, as sizes are unbounded
        return len(set(cycles)) == len(cycles) and self.n not in cycles


class DisjointUnion(CatalogStructure):
    """The union of two structures side by side, no fact across them; a
    token is ("l", left token) or ("r", right token)."""

    def __init__(self, left, right):
        styles = {left.style, right.style} - {"any"}
        if len(styles) > 1:
            raise ValueError("cannot mix orders and graphs in a union")
        self.left = left
        self.right = right
        self.style = styles.pop() if styles else "any"

    def _enumerate(self):
        # the sides alternate, left first; once one ends the other goes on
        return (
            tok for both in itertools.zip_longest(
                zip(itertools.repeat("l"), self.left._enumerate()),
                zip(itertools.repeat("r"), self.right._enumerate()),
            ) for tok in both if tok is not None
        )

    def key(self):
        return "du(%s,%s)" % (self.left.key(), self.right.key())

    def size(self):
        ls, rs = self.left.size(), self.right.size()
        if ls is None or rs is None:
            return None
        return ls + rs

    def param(self):
        return max(self.left.param(), self.right.param())

    def related(self, x, y):
        return x[0] == y[0] and (
            self.left if x[0] == "l" else self.right
        ).related(x[1], y[1])

    def admit(self, groups, tok, j):
        # each side's hook serves its own tokens, on a record of its own,
        # made once (setdefault would build an empty dict per token)
        tag, t = tok
        record = groups.get(tag)
        if record is None:
            record = groups[tag] = {}
        return (self.left if tag == "l" else self.right).admit(record, t, j)

    def age_holds(self, fragment, part):
        # an infinite isolated side takes the elements in no fact, and the
        # other side, of this union's style, decides the linked ones
        linked = fragment.linked_mask()
        if isinstance(self.right, IsolatedInfinite):
            return self.left.age_holds(fragment, linked)
        if isinstance(self.left, IsolatedInfinite):
            return self.right.age_holds(fragment, linked)
        return super().age_holds(fragment, part)

    def absorbs_isolated(self):
        return self.left.absorbs_isolated() or self.right.absorbs_isolated()


# the two sides of a union's tokens, one predicate object each, so that a
# stream keeps one cursor per side (see StreamBuilder.add_least_unused)
def left_side(tok):
    return tok[0] == "l"


def right_side(tok):
    return tok[0] == "r"


class Tilde(DisjointUnion):
    """A partial order X padded with infinitely many isolated points: the
    union du(iso_inf, X), keyed tilde(X), whose saturation bounds are X's."""

    def __init__(self, inner):
        if inner.style == "graph":
            raise ValueError("tilde applies to partial orders")
        super().__init__(IsolatedInfinite(), inner)
        self.style = "order"

    def key(self):
        return "tilde(%s)" % self.right.key()

    def param(self):
        return self.right.param()


# ---------------------------------------------------------------------------
# textual syntax

#: the structures written as their name, and as name(n)
_ATOMS = {
    c.name: c
    for c in (OmegaOrder, OmegaStarOrder, ZetaOrder, Ray, IsolatedInfinite)
}
_NUMBERED = {
    c.name: c
    for c in (FiniteChain, FiniteRay, Cycle, IsolatedFinite, PosetP,
              CycleComplement)
}


def parse_structure(text):
    """Parse the CLI syntax, e.g. `tilde(chain(3))` or `du(cycle(4), iso_inf)`."""
    s = text.strip()
    if "(" not in s:
        if s not in _ATOMS:
            raise ValueError("unknown structure: %r" % s)
        return _ATOMS[s]()
    head, rest = s.split("(", 1)
    if not rest.endswith(")"):
        raise ValueError("unbalanced parentheses in %r" % s)
    head, body = head.strip(), rest[:-1]
    if head == "tilde":
        return Tilde(parse_structure(body))
    if head == "du":
        sides = split_top_level(body)
        if len(sides) != 2:
            raise ValueError("du needs two arguments: %r" % s)
        return DisjointUnion(*map(parse_structure, sides))
    if head not in _NUMBERED:
        raise ValueError("unknown structure: %r" % s)
    return _NUMBERED[head](int(body))


def split_top_level(text):
    """text split at its commas outside parentheses, e.g. a family given
    as `tilde(chain(3)),du(cycle(3),iso_inf)` into its two members."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


# ---------------------------------------------------------------------------
# fragment shape analysis helpers


def strict_order_relation(fragment):
    """The successor and predecessor masks of a strict partial order
    fragment (see FiniteFragment.masks), or None if the fragment is not
    one (irreflexive, antisymmetric, transitive)."""
    return fragment.masks() if fragment.is_strict_order() else None


def _components(out, inn, unseen):
    """The connected components of the undirected view of the successor
    and predecessor masks, as element masks, by least element, over the
    elements of the mask `unseen`, which holds all their neighbours."""
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for e in iter_bits(frontier):
                reach |= out[e] | inn[e]
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        yield comp


class TokenChain:
    """The one way a target's tokens become a fragment chain: element k of
    every fragment is tokens[k], and fragments[k] is the fragment on the
    first k tokens, starting from the empty one."""

    def __init__(self, target):
        self.target = target
        self.tokens = []
        self.groups = {}  # what target.admit records about the tokens
        self.fragments = [FiniteFragment(0)]

    def push(self, tok):
        """Reveal tok as the next element and return the extended fragment;
        the target's admit relates it to every earlier token."""
        succ, pred = self.target.admit(self.groups, tok, len(self.tokens))
        frag = self.fragments[-1].extended(succ, pred)
        self.tokens.append(tok)
        self.fragments.append(frag)
        return frag


def canonical_fragment(structure, n):
    """The induced fragment on the first n canonical elements."""
    chain = _canonical_chains.get(structure.key())
    if chain is None:
        chain = _canonical_chains[structure.key()] = TokenChain(structure)
    while len(chain.fragments) <= n:
        try:
            tok = chain.target.element(len(chain.tokens))
        except IndexError:
            raise ValueError(
                "structure %s has fewer than %d elements" % (structure.key(), n)
            )
        chain.push(tok)
    return chain.fragments[n]


_canonical_chains = {}  # structure key -> TokenChain of its canonical order


def saturated_fragment(structure, n):
    """The canonical fragment on n elements, or on all the elements of a
    finite structure that has fewer: canonical restrictions are nested,
    so a prefix deep enough for a question, or the whole structure,
    decides it."""
    size = structure.size()
    return canonical_fragment(structure, n if size is None else min(n, size))


def fragment_embeds(fragment, structure):
    """Age membership: does the fragment embed into the structure as an
    induced substructure?  After the checks of its style, the structure's
    age_holds decides."""
    if fragment.size == 0:
        return True
    if structure.style == "order" and not fragment.is_strict_order():
        return False
    return structure.age_holds(fragment, (1 << fragment.size) - 1)


# ---------------------------------------------------------------------------
# presentations


class Presentation(TokenChain):
    """A deterministic, seeded, fair stage-wise stream of fragments
    isomorphic (in the limit) to the target; stage s is fragments[s + 1].

    The schedule alternates "reveal the least unrevealed canonical element"
    (which guarantees fairness outright) with a seeded pick from the lowest
    few unrevealed ones: a window refilled by one token after each pick.
    """

    def __init__(self, target, seed):
        super().__init__(target)
        self.seed = seed
        self._size = target.size()
        self._rng = random.Random("%s|%d" % (target.key(), seed))
        self._source = target._enumerate()  # the canonical enumeration
        # its least unrevealed tokens, in order
        self._buffer = list(itertools.islice(self._source, _SCHEDULE_WINDOW))

    def restrict(self, s):
        if self._size is not None and s >= self._size:
            raise ConstructionError(
                "%s has only %d elements" % (self.target.key(), self._size)
            )
        tokens, buffer, source = self.tokens, self._buffer, self._source
        while len(tokens) <= s:
            if len(tokens) % 2 == 0:
                tok = buffer.pop(0)
            else:
                tok = buffer.pop(self._rng.randrange(len(buffer)))
            nxt = next(source, None)  # no token is None
            if nxt is not None:
                buffer.append(nxt)
            self.push(tok)
        return self.fragments[s + 1]


class ReplayPresentation:
    """Replays an explicit list of fragments, one per stage.  Fairness is
    not guaranteed by construction; each stage is checked as it is first
    read, for its size and for extending the stage before it."""

    def __init__(self, fragments):
        self.builder = fragments.__getitem__  # stage -> fragment
        self._fragments = []

    def restrict(self, s):
        while len(self._fragments) <= s:
            i = len(self._fragments)
            frag = self.builder(i)
            if frag.size != i + 1:
                raise ConstructionError(
                    "stage %d fragment has size %d" % (i, frag.size)
                )
            if self._fragments and not frag.extends(self._fragments[-1]):
                raise ConstructionError("builder step is not monotone")
            self._fragments.append(frag)
        return self._fragments[s]


def audit_shape(fragment, shapes):
    """True iff the fragment is isomorphic to a finite induced substructure
    of one of the listed templates."""
    return any(fragment_embeds(fragment, shape) for shape in shapes)


@dataclass(frozen=True)
class Family:
    """An ordered list of members; conjecture codes are list positions."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        keys = [m.key() for m in self.members]
        if len(set(keys)) != len(keys):
            raise ValueError("family members must be pairwise distinct")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def param_codes(self, shape):
        """{n: code} of the members whose key is `shape % n` for a natural
        number n, e.g. shape "tilde(chain(%d))"; other members are left
        out."""
        head, tail = shape.split("%d")
        codes = {}
        for code, m in enumerate(self.members):
            key = m.key()
            n = key[len(head):len(key) - len(tail)]
            if key.startswith(head) and key.endswith(tail) and n.isdigit():
                codes[int(n)] = code
        return codes

    def code_of(self, structure):
        for i, m in enumerate(self.members):
            if m == structure:
                return i
        raise ValueError("%s is not in the family" % structure.key())
