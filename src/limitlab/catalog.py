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

from .structures import BINARY, FiniteFragment, embed_finite, iter_bits

_SCHEDULE_WINDOW = 4
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class ConstructionError(ValueError):
    pass


class UnsupportedOracleError(ValueError):
    pass


class CatalogStructure:
    """Base class; subclasses define the relation on abstract tokens and,
    unless the tokens are the naturals below size(), their canonical
    element enumeration."""

    style = "order"  # "order" | "graph" | "any"

    def __init__(self):
        self._enum_cache = []
        self._age = {}  # max_size -> sigma1.age_fragments list
        self._enum_iter = None
        self._exhausted = False

    def _enumerate(self):
        size = self.size()
        return itertools.count() if size is None else iter(range(size))

    def key(self):
        raise NotImplementedError

    def related(self, x, y):
        raise NotImplementedError

    def file(self, groups, tok, j):
        """Record in a chain's groups, its own record for relation_masks,
        that its position j holds tok.  By default groups maps position to
        token, and isolated structures record nothing."""
        if self.style != "any":
            groups[j] = tok

    def relation_masks(self, tokens, groups, tok):
        """tok's successor and predecessor masks against the earlier
        tokens: bit j is related(tok, tokens[j]), resp. related(tokens[j],
        tok).  groups is what file recorded about the earlier tokens, and
        the default asks related about each of those."""
        if not groups:
            return 0, 0
        succ, pred = bytearray(len(tokens)), bytearray(len(tokens))
        for j, other in groups.items():
            succ[j] = self.related(tok, other)
            pred[j] = self.related(other, tok)
        # bit j of each mask is byte j of its flags
        return tuple(
            int(f[::-1].translate(_DIGITS) or b"0", 2) for f in (succ, pred)
        )

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
        while len(self._enum_cache) <= i and not self._exhausted:
            if self._enum_iter is None:
                self._enum_iter = self._enumerate()
            try:
                self._enum_cache.append(next(self._enum_iter))
            except StopIteration:
                self._exhausted = True
        if i >= len(self._enum_cache):
            raise IndexError("structure %s has only %d elements" % (
                self.key(), len(self._enum_cache)))
        return self._enum_cache[i]

    def __repr__(self):
        return self.key()

    def __eq__(self, other):
        return isinstance(other, CatalogStructure) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class _Ranks:
    """A chain's tokens of one linear order, by value: the filed tokens in
    increasing order, and below[i], the mask of the chain positions of the
    i least of them."""

    __slots__ = ("tokens", "below")

    def __init__(self):
        self.tokens, self.below = [], [0]

    def add(self, tok, j):
        # O(log n + the tokens above tok): streams mostly reveal a new
        # token near the top, so it seldom touches more than a few masks
        i = bisect.bisect(self.tokens, tok)
        self.tokens.insert(i, tok)
        below, bit = self.below, 1 << j
        below.insert(i + 1, below[i])
        for k in range(i + 1, len(below)):
            below[k] |= bit

    def split(self, tok):
        """The positions of the filed tokens below tok, and above it."""
        below = self.below[bisect.bisect(self.tokens, tok)]
        return below, self.below[-1] ^ below


class _LinearOrder(CatalogStructure):
    """A linear order on numeric tokens, by value (reversed when reverse
    is set).  A chain files its tokens in a _Ranks, so relation_masks is
    one binary search, not a related call per earlier token."""

    reverse = False

    def file(self, groups, tok, j):
        if not groups:
            groups[0] = _Ranks()
        groups[0].add(tok, j)

    def relation_masks(self, tokens, groups, tok):
        if not groups:
            return 0, 0
        below, above = groups[0].split(tok)
        return (below, above) if self.reverse else (above, below)


class OmegaOrder(_LinearOrder):
    def key(self):
        return "omega"

    def related(self, x, y):
        return x < y


class OmegaStarOrder(_LinearOrder):
    """The reverse of omega; token i is the i-th element from the top."""

    # filed by token, not by -token: streams reveal tokens in nearly
    # increasing order, which appends to the ranks
    reverse = True

    def key(self):
        return "omega_star"

    def related(self, x, y):
        return x > y


class ZetaOrder(_LinearOrder):
    """Integers; enumerated 0, 1, -1, 2, -2, ..."""

    def _enumerate(self):
        yield 0
        i = 1
        while True:
            yield i
            yield -i
            i += 1

    def key(self):
        return "zeta"

    def related(self, x, y):
        return x < y


class FiniteChain(_LinearOrder):
    def __init__(self, n):
        super().__init__()
        if n < 2:
            raise ValueError("chains need at least 2 elements")
        self.n = n

    def key(self):
        return "chain(%d)" % self.n

    def size(self):
        return self.n

    def param(self):
        return self.n

    def related(self, x, y):
        return x < y


class _SparseGraph(CatalogStructure):
    """A graph in which each token has at most two neighbours, named by
    neighbours(tok): a chain files each token's position under the token,
    and relation_masks looks the revealed neighbours up."""

    style = "graph"

    def file(self, groups, tok, j):
        groups[tok] = j

    def relation_masks(self, tokens, groups, tok):
        near = 0
        for t in self.neighbours(tok):
            if t in groups:
                near |= 1 << groups[t]
        return near, near


class Ray(_SparseGraph):
    """The one-way infinite path, as an undirected graph."""

    def key(self):
        return "ray"

    def related(self, x, y):
        return abs(x - y) == 1

    def neighbours(self, tok):
        return tok - 1, tok + 1


class FiniteRay(Ray):
    def __init__(self, n):
        super().__init__()
        if n < 2:
            raise ValueError("finite rays need at least 2 elements")
        self.n = n

    def key(self):
        return "ray(%d)" % self.n

    def size(self):
        return self.n

    def param(self):
        return self.n


class Cycle(_SparseGraph):
    def __init__(self, n):
        super().__init__()
        if n < 3:
            raise ValueError("cycles need at least 3 elements")
        self.n = n

    def key(self):
        return "cycle(%d)" % self.n

    def size(self):
        return self.n

    def param(self):
        return self.n

    def related(self, x, y):
        d = abs(x - y)
        return d == 1 or d == self.n - 1

    def neighbours(self, tok):
        return (tok + 1) % self.n, (tok - 1) % self.n


class IsolatedInfinite(CatalogStructure):
    style = "any"

    def key(self):
        return "iso_inf"

    def related(self, x, y):
        return False

    def absorbs_isolated(self):
        return True


class IsolatedFinite(CatalogStructure):
    style = "any"

    def __init__(self, n):
        super().__init__()
        if n < 0:
            raise ValueError("negative size")
        self.n = n

    def key(self):
        return "iso(%d)" % self.n

    def size(self):
        return self.n

    def param(self):
        return max(self.n, 1)

    def related(self, x, y):
        return False


class PosetP(CatalogStructure):
    """The ladder-like posets: evens form a chain, odds sit on top.

    For k > 0 the domain is {0..2k+1} with 2i below 2i+2 (i < k) and 2i
    below 2i+1 (i <= k).  For k = 0 the domain is all of N with 2i below
    2i+2 and 2j below 2j-1 for j > 0.  Tokens are the domain elements and
    the relation is the strict order with the transitive closure
    materialized.
    """

    def __init__(self, k):
        super().__init__()
        if k < 0:
            raise ValueError("negative parameter")
        self.k = k

    def key(self):
        return "poset_p(%d)" % self.k

    def size(self):
        return None if self.k == 0 else 2 * self.k + 2

    def param(self):
        return 2 * self.k + 2 if self.k else 4

    def related(self, x, y):
        # strictly below, after closing under transitivity
        if x == y:
            return False
        if self.k == 0:
            if x % 2 == 1:
                return False
            i = x // 2
            if y % 2 == 0:
                return i < y // 2
            return i <= (y + 1) // 2
        if x % 2 == 1:
            return False
        i = x // 2
        if y % 2 == 0:
            return i < y // 2
        return i <= y // 2


class CycleComplement(_SparseGraph):
    """Disjoint union of every cycle except the named one; tokens are
    (cycle size, position), enumerated by increasing cycle size."""

    def __init__(self, n):
        super().__init__()
        if n < 3:
            raise ValueError("cycle sizes start at 3")
        self.n = n

    def _enumerate(self):
        m = 3
        while True:
            if m != self.n:
                for p in range(m):
                    yield (m, p)
            m += 1

    def key(self):
        return "cyc_comp(%d)" % self.n

    def param(self):
        return self.n

    def related(self, x, y):
        (m, p), (m2, q) = x, y
        if m != m2:
            return False
        d = abs(p - q)
        return d == 1 or d == m - 1

    def neighbours(self, tok):
        m, p = tok
        return (m, (p + 1) % m), (m, (p - 1) % m)


class Tilde(CatalogStructure):
    """A partial order plus infinitely many pairwise incomparable fresh
    elements; odd enumeration slots carry the inner structure."""

    def __init__(self, inner):
        super().__init__()
        if inner.style == "graph":
            raise ValueError("tilde applies to partial orders")
        self.inner = inner

    def _enumerate(self):
        inner_iter = self.inner._enumerate()
        pad = 0
        j = 0
        while True:
            took = False
            if j % 2 == 1:
                try:
                    yield ("x", next(inner_iter))
                    took = True
                except StopIteration:
                    pass
            if not took:
                yield ("p", pad)
                pad += 1
            j += 1

    def key(self):
        return "tilde(%s)" % self.inner.key()

    def param(self):
        return self.inner.param()

    def related(self, x, y):
        if x[0] == "x" and y[0] == "x":
            return self.inner.related(x[1], y[1])
        return False

    # the fresh elements are related to nothing, so the inner structure's
    # hooks serve its own tokens, and a fresh one is filed nowhere

    def file(self, groups, tok, j):
        if tok[0] == "x":
            self.inner.file(groups, tok[1], j)

    def relation_masks(self, tokens, groups, tok):
        if tok[0] == "x":
            return self.inner.relation_masks(tokens, groups, tok[1])
        return 0, 0

    def absorbs_isolated(self):
        return True


class DisjointUnion(CatalogStructure):
    def __init__(self, left, right):
        super().__init__()
        styles = {left.style, right.style} - {"any"}
        if len(styles) > 1:
            raise ValueError("cannot mix orders and graphs in a union")
        self.left = left
        self.right = right
        self.style = styles.pop() if styles else "any"

    def _enumerate(self):
        iters = [self.left._enumerate(), self.right._enumerate()]
        tags = ["l", "r"]
        alive = [True, True]
        j = 0
        while any(alive):
            side = j % 2
            for attempt in (side, 1 - side):
                if alive[attempt]:
                    try:
                        yield (tags[attempt], next(iters[attempt]))
                        break
                    except StopIteration:
                        alive[attempt] = False
            j += 1

    def key(self):
        return "du(%s,%s)" % (self.left.key(), self.right.key())

    def size(self):
        ls, rs = self.left.size(), self.right.size()
        if ls is None or rs is None:
            return None
        return ls + rs

    def param(self):
        return max(self.left.param(), self.right.param())

    def _side(self, tok):
        return self.left if tok[0] == "l" else self.right

    def related(self, x, y):
        return x[0] == y[0] and self._side(x).related(x[1], y[1])

    # each side's hooks serve its own tokens, on a record of their own

    def file(self, groups, tok, j):
        self._side(tok).file(groups.setdefault(tok[0], {}), tok[1], j)

    def relation_masks(self, tokens, groups, tok):
        side, record = self._side(tok), groups.get(tok[0], {})
        return side.relation_masks(tokens, record, tok[1])

    def absorbs_isolated(self):
        return self.left.absorbs_isolated() or self.right.absorbs_isolated()


# ---------------------------------------------------------------------------
# textual syntax


def parse_structure(text):
    """Parse the CLI syntax, e.g. `tilde(chain(3))` or `du(cycle(4), iso_inf)`."""

    text = text.strip()

    def parse(s):
        s = s.strip()
        if "(" not in s:
            atom = {
                "omega": OmegaOrder,
                "omega_star": OmegaStarOrder,
                "zeta": ZetaOrder,
                "ray": Ray,
                "iso_inf": IsolatedInfinite,
            }.get(s)
            if atom is None:
                raise ValueError("unknown structure: %r" % s)
            return atom()
        head, rest = s.split("(", 1)
        if not rest.endswith(")"):
            raise ValueError("unbalanced parentheses in %r" % s)
        body = rest[:-1]
        head = head.strip()
        if head in ("tilde",):
            return Tilde(parse(body))
        if head == "du":
            sides = split_top_level(body)
            if len(sides) != 2:
                raise ValueError("du needs two arguments: %r" % s)
            return DisjointUnion(parse(sides[0]), parse(sides[1]))
        n = int(body)
        maker = {
            "chain": FiniteChain,
            "ray": FiniteRay,
            "cycle": Cycle,
            "iso": IsolatedFinite,
            "poset_p": PosetP,
            "cyc_comp": CycleComplement,
        }.get(head)
        if maker is None:
            raise ValueError("unknown structure: %r" % s)
        return maker(n)

    return parse(text)


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


def is_symmetric_graph(fragment):
    """Loop-free, and every fact comes with its reverse."""
    out, inn = fragment.masks()
    return out == inn and not any(m >> e & 1 for e, m in enumerate(out))


def graph_components(fragment):
    """Connected components of the undirected view, as ascending lists of
    elements, ordered by their least element."""
    out, inn = fragment.masks()
    unseen = (1 << fragment.size) - 1
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for e in iter_bits(frontier):
                reach |= out[e] | inn[e]
            frontier = reach & ~comp
            comp |= frontier
        unseen &= ~comp
        comps.append(list(iter_bits(comp)))
    return comps


def _component_path_or_cycle(fragment, comp):
    """Classify a component of a symmetric loop-free graph fragment:
    'path', 'cycle' or None."""
    degree = [fragment.row(e)[0].bit_count() for e in comp]
    if max(degree) > 2:
        return None
    edges = sum(degree) // 2
    if edges == len(comp) - 1:
        return "path"
    if edges == len(comp) and len(comp) >= 3 and min(degree) == 2:
        return "cycle"
    return None


def _is_total_chain(fragment):
    n = fragment.size
    return (
        fragment.is_strict_order()
        and fragment.fact_count() == n * (n - 1) // 2
    )


def _nonisolated_part(fragment):
    return fragment.induced(fragment.linked())


class TokenChain:
    """The one way a target's tokens become a fragment chain: element k of
    every fragment is tokens[k], and fragments[k] is the fragment on the
    first k tokens, starting from the empty one."""

    def __init__(self, target):
        self.target = target
        self.tokens = []
        self.groups = {}  # what target.file records, for relation_masks
        self.fragments = [FiniteFragment(BINARY, 0)]

    def push(self, tok):
        """Reveal tok as the next element and return the extended fragment;
        the target's relation_masks relate it to every earlier token."""
        succ, pred = self.target.relation_masks(self.tokens, self.groups, tok)
        frag = self.fragments[-1].extended(succ, pred)
        self._file(tok)
        self.fragments.append(frag)
        return frag

    def _file(self, tok):
        self.target.file(self.groups, tok, len(self.tokens))
        self.tokens.append(tok)


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


def fragment_embeds(fragment, structure):
    """Age membership: does the fragment embed into the structure as an
    induced substructure?  Decided structurally per catalog class, with a
    generic saturated-restriction fallback."""
    if fragment.size == 0:
        return True

    if structure.style == "any":
        # isolated structures embed exactly the tuple-free fragments that fit
        size = structure.size()
        return not fragment.fact_count() and (
            size is None or fragment.size <= size
        )
    if structure.style == "order" and not fragment.is_strict_order():
        return False
    if structure.style == "graph" and not is_symmetric_graph(fragment):
        return False

    if isinstance(structure, (OmegaOrder, OmegaStarOrder, ZetaOrder)):
        return _is_total_chain(fragment)
    if isinstance(structure, FiniteChain):
        return fragment.size <= structure.n and _is_total_chain(fragment)
    if isinstance(structure, (Cycle, Ray, CycleComplement)):
        comps = graph_components(fragment)
        kinds = [_component_path_or_cycle(fragment, c) for c in comps]
        cycles = [len(c) for c, k in zip(comps, kinds) if k == "cycle"]
        if None in kinds:
            return False
        if isinstance(structure, CycleComplement):
            # one copy of each cycle size but n is available; path
            # components always fit somewhere, as sizes are unbounded
            distinct = len(set(cycles)) == len(cycles)
            return distinct and structure.n not in cycles
        if isinstance(structure, Cycle):
            if cycles:
                return len(comps) == 1 and fragment.size == structure.n
            return fragment.size + len(comps) <= structure.n
        return not cycles and (
            not isinstance(structure, FiniteRay)
            or fragment.size + len(comps) - 1 <= structure.n
        )
    if isinstance(structure, PosetP) and structure.k == 0:
        # g embeds iff the non-maximal elements are totally ordered: evens
        # form a chain, odds are maximal with prefix down-sets that can be
        # spread arbitrarily far apart
        succ, _ = strict_order_relation(fragment)
        non_maximal = [e for e in range(fragment.size) if succ[e]]
        return _is_total_chain(fragment.induced(non_maximal))
    if isinstance(structure, Tilde):
        return fragment_embeds(_nonisolated_part(fragment), structure.inner)
    if isinstance(structure, DisjointUnion):
        left, right = structure.left, structure.right
        if isinstance(right, IsolatedInfinite):
            return fragment_embeds(_nonisolated_part(fragment), left)
        if isinstance(left, IsolatedInfinite):
            return fragment_embeds(_nonisolated_part(fragment), right)

    # generic fallback: embed into a saturated canonical restriction
    size = structure.size()
    bound = 2 * fragment.size + 8
    if size is not None:
        bound = min(bound, size)
    if size is not None and fragment.size > size:
        return False
    return embed_finite(fragment, canonical_fragment(structure, bound))


# ---------------------------------------------------------------------------
# presentations


class Presentation(TokenChain):
    """A deterministic, seeded, fair stage-wise stream of fragments
    isomorphic (in the limit) to the target; stage s is fragments[s + 1].

    The schedule alternates "reveal the least unrevealed canonical element"
    (which guarantees fairness outright) with a seeded pick from the lowest
    few unrevealed ones.
    """

    def __init__(self, target, seed):
        super().__init__(target)
        self.seed = seed
        self._rng = random.Random("%s|%d" % (target.key(), seed))
        self._buffer = []
        self._next_canonical = 0
        self._exhausted = False

    def _refill(self):
        while len(self._buffer) < _SCHEDULE_WINDOW and not self._exhausted:
            try:
                self._buffer.append(self.target.element(self._next_canonical))
                self._next_canonical += 1
            except IndexError:
                self._exhausted = True

    def restrict(self, s):
        size = self.target.size()
        if size is not None and s >= size:
            raise ConstructionError(
                "%s has only %d elements" % (self.target.key(), size)
            )
        while len(self.tokens) <= s:
            self._refill()
            if not self._buffer:
                raise ConstructionError("ran out of elements")
            if len(self.tokens) % 2 == 0:
                tok = self._buffer.pop(0)
            else:
                tok = self._buffer.pop(self._rng.randrange(len(self._buffer)))
            self.push(tok)
        return self.fragments[s + 1]


class AdversarialPresentation:
    """A presentation driven by a stage rule instead of a catalog target.

    Fairness is not guaranteed by construction; monotonicity is checked at
    every step.
    """

    def __init__(self, builder, label="adversarial"):
        self.builder = builder
        self.label = label
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


class ReplayPresentation(AdversarialPresentation):
    """Replays an explicit list of fragments (one per stage)."""

    def __init__(self, fragments, label="replay"):
        super().__init__(lambda s: fragments[s], label)


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
