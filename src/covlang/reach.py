"""Decision engines: backward coverability, the minimal words of the
language, Karp-Miller graph, simultaneous unboundedness, forward
coverability, membership oracles, and the bounded brute-force explorer used
as a test oracle.

Omega is ``math.inf`` (``OMEGA``) in every omega-marking, so a dominance
test is Python's own ``>=``.  One accelerated search over omega-markings
serves ``km_graph`` (the whole graph), ``simultaneously_unbounded``
(keeps only the cover set and stops at the first node that is omega on every
target place), ``forward_cover`` on nets that are not conservative (the
cover set again, stopping at the first node that covers the final marking)
and ``trace_inclusion.silent_closure`` (silent transitions only, from
several roots).  Its dominance tests rest on one fact: a marking
strictly below another has a strictly lower rank (omega count, then finite
token sum) and a support inside the other's.  Each node keeps its rank, its
support bitmask and a pointer to its nearest proper ancestor of lower rank,
so acceleration walks only ancestors that can lie below the successor.  The
cover set and the antichain of ``trace_inclusion._maximal`` are indexed by
support (``_SupportIndex``): one bitmask per place of the markings holding a
token or omega there.  On a conservative net, where the minimal-support
P-semiflows cover every place (``conservative``) and no acceleration fires,
``forward_cover`` is a breadth-first search over concrete markings instead.

Backward coverability (``coverable``, and ``member`` through it) saturates an
antichain of minimal markings from the final marking.  The antichain
(``UpwardClosedSet``) is indexed by support with the same ``_SupportIndex``,
so forward and backward dominance tests share one index.  It drops every
marking m with y . m > y . m0 for a minimal-support P-semiflow y of the net
(computed once per call by the Farkas algorithm), and it raises
BudgetExceeded past ``max_nodes`` inserted markings.

The minimal words of the language (``minimal_words``, which every upward
closure is built from) come from the same backward search over (marking,
word) pairs: one pre-image and semiflow arithmetic (``_backward_steps``,
``_pre_image``) serves both, and the pairs' antichain (``_PairBasis``)
indexes its markings with the same ``_SupportIndex``.  A pair's word is a
link to the word of the pair it came from, and a found word's run is the
chain of transitions back to the final marking, as with the witness of
``coverable``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress
from math import gcd, inf
from operator import ge, gt, not_

from .errors import AlphabetMismatch, BudgetExceeded, NotEnabled
from .nets import (
    EPSILON,
    Marking,
    NetInstance,
    PetriNet,
    Word,
    fire,
    sync_with_fsa,
)


#: Token count larger than every natural number: ``math.inf`` itself, so that
#: Python's own ``>=`` orders omega-markings.
OMEGA = inf

#: An omega-marking is a tuple over int | OMEGA aligned with the net's places.
OmegaMarking = tuple


def om_fire(m: OmegaMarking, pre, post) -> OmegaMarking | None:
    """Fire a transition's arcs from ``PetriNet.arcs`` with omega treated as
    infinity; None when not enabled.  Every omega-marking step goes through
    it.  Omega entries are left as they are: ``inf - w`` would convert the
    weight, an unbounded int, to a float."""
    for i, w in pre:
        if m[i] < w:
            return None
    counts = list(m)
    for i, w in pre:
        v = counts[i]
        if v != OMEGA:
            counts[i] = v - w
    for i, w in post:
        v = counts[i]
        if v != OMEGA:
            counts[i] = v + w
    return tuple(counts)


def _rank(m: OmegaMarking) -> tuple:
    """(omega count, finite token sum) of an omega-marking.

    A marking strictly below another has a strictly lower rank.  The sum
    skips omega rather than testing ``isfinite``, which would convert each
    count, an unbounded int, to a float."""
    omegas = m.count(OMEGA)
    if not omegas:
        return 0, sum(m)
    return omegas, sum(filter(OMEGA.__ne__, m))


class _Tree:
    """Nodes of an accelerated search over a net's places, each an
    omega-marking (``keys``) with the key it is compared by (its rank and
    its support bitmask), its parent, and ``lower``: its nearest proper
    ancestor of strictly lower rank.  -1 stands for no node.
    ``accelerated_rank`` is the rank of the marking ``om_accelerate``
    returned last, which ``add`` takes when handed it rather than computing
    it again."""

    __slots__ = ("bits", "keys", "ranks", "supports", "up", "lower", "accelerated_rank")

    def __init__(self, places: int):
        self.bits = tuple(1 << p for p in range(places))
        self.keys, self.ranks, self.supports, self.up, self.lower = [], [], [], [], []
        self.accelerated_rank = None

    def add(self, key: tuple, parent: int, rank: tuple | None = None) -> int:
        ranks, lower = self.ranks, self.lower
        if rank is None:
            rank = _rank(key)
        below = parent
        while below >= 0 and ranks[below] >= rank:
            below = lower[below]
        self.keys.append(key)
        ranks.append(rank)
        self.supports.append(sum(compress(self.bits, key)))
        self.up.append(parent)
        lower.append(below)
        return len(self.keys) - 1


def om_accelerate(candidate: tuple, node: int, tree: _Tree) -> tuple:
    """Set omega on places strictly increased over some dominated ancestor,
    for a successor of ``node``: the ancestors are ``node`` and its ancestors
    in ``tree``.

    An ancestor strictly below the candidate has a strictly lower rank and a
    support inside the candidate's.  So the walk jumps from an ancestor of no
    lower rank to its ``lower`` pointer, over ancestors that rank no lower
    either, and compares only ancestors whose support fits.  Acceleration only raises places, so
    the result does not depend on the ancestors' order; a lift raises the
    rank and keeps the support, so the walk is repeated until nothing
    changes.  The rank of the result is left in ``tree.accelerated_rank``.
    """
    ranks, lower = tree.ranks, tree.lower
    rank = tree.accelerated_rank = _rank(candidate)
    i = node
    while i >= 0 and ranks[i] >= rank:
        i = lower[i]
    if i < 0:
        return candidate
    keys, supports, up = tree.keys, tree.supports, tree.up
    outside = ~sum(compress(tree.bits, candidate))
    current = candidate
    while True:
        changed = False
        while i >= 0:
            if ranks[i] < rank:
                if not supports[i] & outside:
                    anc = keys[i]
                    if all(map(ge, current, anc)):
                        lifted = tuple(OMEGA if x > y else x for x, y in zip(current, anc))
                        if lifted != current:
                            current = lifted
                            changed = True
                i = up[i]
            else:
                i = lower[i]
        if not changed:
            return current
        rank = tree.accelerated_rank = _rank(current)
        i = node


def _bits(mask: int):
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _SupportIndex:
    """Dominance tests against a numbered list of omega-markings, indexed by
    support: for each place, a bitmask of the added markings holding a token
    or omega there.  A marking's dominators have supports containing its
    own, and the markings it dominates have supports inside it, so each test
    compares only those."""

    __slots__ = ("keys", "places", "holders")

    def __init__(self, keys: list, places: int):
        self.keys = keys
        self.places = range(places)
        self.holders = [0] * places

    def add(self, j: int) -> None:
        bit = 1 << j
        holders = self.holders
        for p in compress(self.places, self.keys[j]):
            holders[p] |= bit

    def covered(self, key: tuple, among: int) -> bool:
        """Some added marking of the bitmask ``among`` is >= the key."""
        holders, keys = self.holders, self.keys
        for p in compress(self.places, key):
            among &= holders[p]
        return any(all(map(ge, keys[j], key)) for j in _bits(among))

    def above(self, key: tuple, among: int):
        """The added markings of the bitmask ``among`` that are >= the key."""
        holders, keys = self.holders, self.keys
        for p in compress(self.places, key):
            among &= holders[p]
        return [j for j in _bits(among) if all(map(ge, keys[j], key))]

    def covers(self, key: tuple, among: int) -> bool:
        """Some added marking of the bitmask ``among`` is <= the key."""
        holders, keys = self.holders, self.keys
        for p in compress(self.places, map(not_, key)):
            among &= ~holders[p]
        return any(all(map(ge, key, keys[j])) for j in _bits(among))

    def below(self, key: tuple, among: int):
        """The added markings of the bitmask ``among`` that are <= the key."""
        holders, keys = self.holders, self.keys
        for p in compress(self.places, map(not_, key)):
            among &= ~holders[p]
        return [j for j in _bits(among) if all(map(ge, key, keys[j]))]


@dataclass(frozen=True)
class KmGraph:
    """Coverability graph: omega-markings as nodes, fired transitions as edges."""

    nodes: tuple
    edges: tuple  # (source-index, transition-name, target-index), grouped by source
    root: int
    complete: bool = True

    def covering_nodes(self, m: Marking):
        counts = m.counts
        return [i for i, node in enumerate(self.nodes) if all(map(ge, node, counts))]


@dataclass
class _Search:
    """Outcome of an accelerated search; node indices follow discovery order."""

    nodes: list  # omega-markings, roots first
    parents: list  # None for a root, else (parent-index, transition-name, accelerated)
    edges: list  # (source-index, transition-name, target-index)
    complete: bool = True
    found: bool = False  # stopped at a node satisfying the stop predicate
    ranks: list = field(default_factory=list)  # each node's ``_rank``


def _accelerated_search(
    net: PetriNet, roots, names, max_nodes: int, budget_kind: str, stop=None, partial=False
) -> _Search:
    """Breadth-first Karp-Miller search from the given omega-markings, firing
    the named transitions in order.

    Identical omega-markings are merged, and a dominance test is one
    ``all(map(ge, ...))``.  Each successor is accelerated against its chain
    of first-discovery ancestors (``om_accelerate``); the chain is never
    rebuilt: the walk follows parent pointers and each node's pointer to its
    nearest proper ancestor of lower rank (``_Tree``).  The search ends at
    the first node (a root included) satisfying ``stop``.  A new node beyond
    ``max_nodes`` raises BudgetExceeded, or with partial=True is dropped and
    the search flagged incomplete.

    Given ``stop``, which must be upward closed, the search keeps only the
    cover set (MinCov, Finkel-Haddad-Khmelnitsky 2020): a successor that an
    active node covers is not added, and a node that a later node strictly
    covers is deactivated and not expanded.  Every reachable marking stays
    covered by an expanded node, so the stop predicate is met exactly when
    the whole graph would meet it; the edges are then incomplete.  The
    active nodes are a bitmask over node indices, and a ``_SupportIndex``
    over the nodes tests only those whose support contains the successor's
    for covering it, and only those whose support lies inside it for being
    covered.

    A node fires only the transitions whose pre-places (arcs of weight > 0)
    all lie in its support: the others are disabled.  Those transitions, in
    the order given, are listed once per support.
    """
    tree = _Tree(len(net.places))
    search = _Search(tree.keys, [], [], ranks=tree.ranks)
    keys, parents, supports = tree.keys, search.parents, tree.supports
    steps = [(name, *net.arcs[name][1:]) for name in names]
    needs = [sum({1 << i for i, w in pre if w > 0}) for _name, pre, _post in steps]
    fireable = {}  # support -> the steps whose pre-places lie in it
    index = {}
    # with stop: the nodes that no other node strictly covers, as a bitmask
    active = 0
    cover_set = _SupportIndex(keys, len(net.places)) if stop is not None else None
    for root in roots:
        if root not in index:
            index[root] = tree.add(root, -1)
            parents.append(None)
            if stop is not None:
                if stop(root):
                    search.found = True
                    return search
                active |= 1 << index[root]
                cover_set.add(index[root])
    frontier = deque(range(len(keys)))
    while frontier:
        i = frontier.popleft()
        if stop is not None and not active >> i & 1:
            continue
        node = keys[i]
        support = supports[i]
        candidates = fireable.get(support)
        if candidates is None:
            candidates = fireable[support] = [
                step for step, need in zip(steps, needs) if not need & ~support
            ]
        for name, pre, post in candidates:
            succ = om_fire(node, pre, post)
            if succ is None:
                continue
            accel = om_accelerate(succ, i, tree)
            target = index.get(accel)
            if target is None:
                if stop is not None:
                    if cover_set.covered(accel, active):
                        continue
                    if stop(accel):
                        search.found = True
                        return search
                if len(keys) >= max_nodes:
                    if not partial:
                        raise BudgetExceeded(budget_kind, max_nodes)
                    search.complete = False
                    continue
                target = index[accel] = tree.add(accel, i, tree.accelerated_rank)
                parents.append((i, name, accel != succ))
                frontier.append(target)
                if stop is not None:
                    for j in cover_set.below(accel, active):
                        active &= ~(1 << j)
                    active |= 1 << target
                    cover_set.add(target)
            search.edges.append((i, name, target))
    return search


def km_graph(
    net: PetriNet, m0: Marking, max_nodes: int = 100_000, partial: bool = False
) -> KmGraph:
    """Classical Karp-Miller construction with ancestor acceleration and
    merging of identical omega-markings (FIFO frontier for reproducibility).

    With partial=True a budget overrun returns the explored prefix instead of
    raising; the result is then flagged incomplete.
    """
    names = [t.name for t in net.transitions]
    search = _accelerated_search(
        net, [tuple(m0.counts)], names, max_nodes, "karp-miller nodes", partial=partial
    )
    return KmGraph(tuple(search.nodes), tuple(search.edges), 0, search.complete)


def simultaneously_unbounded(
    net: PetriNet, m0: Marking, places, max_nodes: int = 100_000
) -> bool:
    """True iff one run can make every place of the set arbitrarily large.

    Decided on the coverability graph: some node must carry omega on all of
    them.  "Omega on every target" is upward closed, so the search keeps only
    the cover set and stops as soon as such a node appears.
    """
    targets = [net.place_index[p] for p in places]
    if not targets:
        return True

    def hit(node):
        return all(node[i] == OMEGA for i in targets)

    names = [t.name for t in net.transitions]
    return _accelerated_search(
        net, [tuple(m0.counts)], names, max_nodes, "karp-miller nodes", stop=hit
    ).found


# Backward coverability


class UpwardClosedSet:
    """Finite basis (an antichain of minimal elements) of an upward-closed set.

    Every inserted marking is numbered in insertion order and kept as a tuple
    (``keys``); ``alive`` is the bitmask of those still minimal, and
    ``basis`` lists them in insertion order.  A ``_SupportIndex`` over the
    keys serves both tests of an insertion: a basis marking below the new one
    has its support inside the new one's, and a basis marking above it has a
    support containing it.  ``coverable`` inserts tuples through ``add``.
    """

    __slots__ = ("keys", "alive", "index")

    def __init__(self, markings=()):
        self.keys = []
        self.alive = 0
        self.index = None  # built at the first insertion, which gives the place count
        for m in markings:
            self.insert(m)

    @property
    def basis(self) -> list:
        keys = self.keys
        return [Marking(keys[j]) for j in _bits(self.alive)]

    def contains(self, m: Marking) -> bool:
        return self.index is not None and self.index.covers(m.counts, self.alive)

    def insert(self, m: Marking) -> bool:
        """Add a new minimal element; returns False if m was already covered."""
        return self.add(m.counts) >= 0

    def add(self, key: tuple) -> int:
        """Insert a marking given as its counts; returns its number, or -1 if
        some basis marking lies below it."""
        index, alive = self.index, self.alive
        if index is None:
            index = self.index = _SupportIndex(self.keys, len(key))
        elif index.covers(key, alive):
            return -1
        else:
            for j in index.above(key, alive):
                alive &= ~(1 << j)
        j = len(self.keys)
        self.keys.append(key)
        index.add(j)
        self.alive = alive | 1 << j
        return j

    def is_antichain(self) -> bool:
        basis = self.basis
        return not any(
            i != j and a.covers(b) for i, a in enumerate(basis) for j, b in enumerate(basis)
        )


#: Farkas tables with more rows than this are abandoned; backward
#: coverability then runs without semiflow pruning.
SEMIFLOW_ROWS = 512


def _semiflows(net: PetriNet) -> list:
    """Minimal-support P-semiflows of the net, as sparse (place-index, weight)
    tuples: vectors y >= 0, y != 0, with y . (post(t) - pre(t)) = 0 for every
    transition t.

    Farkas algorithm in exact integers over the table [C | I], one transition
    column at a time, keeping only rows of minimal support (Martinez-Silva,
    1982).  Returns [] when the table would outgrow SEMIFLOW_ROWS.
    """
    idx = net.place_index
    n = len(net.places)
    effect = [[0] * len(net.transitions) for _ in range(n)]
    for j, t in enumerate(net.transitions):
        for p, w in t.pre:
            effect[idx[p]][j] -= w
        for p, w in t.post:
            effect[idx[p]][j] += w
    # row: (y . C, y, support bitmask of y); columns before j are zero
    rows = [(effect[i], [int(k == i) for k in range(n)], 1 << i) for i in range(n)]
    for j in range(len(net.transitions)):
        kept = [r for r in rows if r[0][j] == 0]
        pos = [r for r in rows if r[0][j] > 0]
        neg = [r for r in rows if r[0][j] < 0]
        if len(kept) + len(pos) * len(neg) > SEMIFLOW_ROWS:
            return []
        # one combination per support: rows of equal minimal support are
        # proportional, and the rest are dropped below
        fresh = {}
        for ca, ya, sa in pos:
            for cb, yb, sb in neg:
                support = sa | sb
                if support in fresh:
                    continue
                ka, kb = -cb[j], ca[j]
                y = [ka * u + kb * v for u, v in zip(ya, yb)]
                g = gcd(*y)
                fresh[support] = (
                    [(ka * u + kb * v) // g for u, v in zip(ca, cb)],
                    [v // g for v in y],
                    support,
                )
        supports = [s for _c, _y, s in kept] + list(fresh)
        rows = kept + [
            row
            for support, row in fresh.items()
            if not any(s != support and s & support == s for s in supports)
        ]
    return [tuple((i, v) for i, v in enumerate(y) if v) for _c, y, _s in rows]


def conservative(net: PetriNet) -> bool:
    """The minimal-support P-semiflows of the net cover every place.

    Their sum y is then positive on every place, and y . m is the same on
    every reachable marking, so no marking lies strictly above one it was
    reached from: no acceleration fires, and finitely many markings are
    reachable (Memmi-Roucairol 1980, Lautenbach 1987).  ``dc_fsa_pn`` and
    ``forward_cover`` explore such nets over concrete markings.
    """
    return len({i for y in _semiflows(net) for i, _v in y}) == len(net.places)


def covering(final: Marking):
    """The test that an omega-marking covers ``final``; it compares only the
    places where ``final`` is not zero."""
    need = [(i, c) for i, c in enumerate(final.counts) if c]

    def covers(m) -> bool:
        for i, c in need:
            if m[i] < c:
                return False
        return True

    return covers


def forward_cover(
    net: PetriNet, m0: Marking, final: Marking, names, max_nodes: int = 100_000
) -> bool:
    """Some firing sequence of the named transitions leads from m0 to a
    marking that covers ``final``; the search stops at the first such marking.

    On a conservative net (``conservative``) it is a breadth-first search
    over concrete markings with a visited set.  Elsewhere it is the
    accelerated search that keeps only the cover set (``_accelerated_search``
    with a stop predicate); its quadratic cover-set test would gain nothing
    on a conservative net, whose reachable markings can be pairwise
    incomparable.  A node beyond ``max_nodes`` raises
    BudgetExceeded("karp-miller nodes"); in the breadth-first search the
    covering marking counts as a node, so it needs as many nodes as
    ``dc_fsa_pn``'s reachability graph has when that marking comes last.
    """
    covers = covering(final)
    start = tuple(m0.counts)
    if covers(start):
        return True
    if not conservative(net):
        return _accelerated_search(
            net, [start], names, max_nodes, "karp-miller nodes", stop=covers
        ).found
    steps = [net.arcs[name][1:] for name in names]
    seen = {start}
    queue = deque([start])
    while queue:
        m = queue.popleft()
        for pre, post in steps:
            succ = om_fire(m, pre, post)
            if succ is None or succ in seen:
                continue
            if len(seen) >= max_nodes:
                raise BudgetExceeded("karp-miller nodes", max_nodes)
            if covers(succ):
                return True
            seen.add(succ)
            queue.append(succ)
    return False


def _backward_steps(net: PetriNet, m0: tuple, final: tuple):
    """The net's transitions as backward steps, and the P-semiflow sums of
    the final marking (None when a semiflow already rules it out).

    A marking m with y . m > y . m0 for some P-semiflow y cannot be covered
    from the initial marking m0, since y . m is the same on every reachable
    marking; nor can any of its pre-images, whose y-values are no smaller.
    Each step is (name, label, pre, post, pruning), where pruning holds, per
    minimal-support semiflow y: the weight t's pre-arcs put in y, t's merged
    post-arcs on y's support with y's weight there, and y . m0.
    """
    flows = [dict(y) for y in _semiflows(net)]
    bounds = [sum(v * m0[i] for i, v in y.items()) for y in flows]
    sums = [sum(v * final[i] for i, v in y.items()) for y in flows]
    steps = [
        (name, label, pre, post, [
            (
                sum(y.get(i, 0) * w for i, w in pre),
                [(i, w, y[i]) for i, w in _merged(post) if i in y],
                bound,
            )
            for y, bound in zip(flows, bounds)
        ])
        for name, (label, pre, post) in net.arcs.items()
    ]
    return steps, None if any(map(gt, sums, bounds)) else sums


def _merged(arcs: tuple) -> tuple:
    """Arcs with the weights on each place summed, in first-seen order, so
    that a place's post-arcs take min(b_i, w) tokens for their total w."""
    total = {}
    for i, w in arcs:
        total[i] = total.get(i, 0) + w
    return tuple(total.items())


def _pre_image(b: tuple, b_sums: list, pre, post, pruning):
    """(pre(b, t), its semiflow sums) for a step of ``_backward_steps``: the
    smallest marking from which firing t covers b, or None when a semiflow
    rules it out.  y . pre(b, t) is y . b plus the weight t's pre-arcs put in
    y, minus y_i . min(b_i, w) for each post-arc (i, w)."""
    pre_sums = []
    for (gain, losses, bound), total in zip(pruning, b_sums):
        total += gain
        for i, w, v in losses:
            total -= v * (b[i] if b[i] < w else w)
        if total > bound:
            return None
        pre_sums.append(total)
    counts = list(b)
    for i, w in post:
        v = counts[i] - w
        counts[i] = v if v > 0 else 0
    for i, w in pre:
        counts[i] += w
    return tuple(counts), pre_sums


def coverable(inst: NetInstance, max_nodes: int = 100_000):
    """Exact backward coverability; returns (answer, witness-or-None).

    The search saturates an ``UpwardClosedSet`` from the final marking, one
    layer of pre-markings at a time: the smallest marking from which firing
    a transition covers a marking of the previous layer.  After each layer
    it looks for a covered basis marking among those inserted since the last
    look, the first in insertion order; the older ones are not covered by
    the initial marking.  The witness is the transition sequence from that
    marking to the final one, whose replay from the initial marking covers
    the final marking.

    Markings that a P-semiflow rules out (``_backward_steps``) are dropped
    without changing the answer or the witness; each inserted marking keeps
    its semiflow sums, from which ``_pre_image`` derives those of its
    pre-images.  Inserting more than max_nodes markings raises
    BudgetExceeded.
    """
    m0 = inst.initial.counts
    final = inst.final.counts
    steps, final_sums = _backward_steps(inst.net, m0, final)
    if final_sums is None:
        return False, None
    sums = [final_sums]
    goal = UpwardClosedSet()
    goal.add(final)
    keys = goal.keys
    # chain[j] = (transition-name, number of the next marking toward the goal)
    chain = [None]
    frontier = [0]
    checked = 0  # the markings numbered below this are not covered by m0
    while frontier:
        new_frontier = []
        for j in frontier:
            b = keys[j]
            b_sums = sums[j]
            for name, _label, pre, post, pruning in steps:
                image = _pre_image(b, b_sums, pre, post, pruning)
                if image is None:
                    continue
                k = goal.add(image[0])
                if k < 0:
                    continue
                if k >= max_nodes:
                    raise BudgetExceeded("backward-coverability markings", max_nodes)
                sums.append(image[1])
                chain.append((name, j))
                new_frontier.append(k)
        frontier = new_frontier
        alive = goal.alive
        for k in range(checked, len(keys)):
            if alive >> k & 1 and all(map(ge, m0, keys[k])):
                return True, _run(chain, k)
        checked = len(keys)
    return False, None


def _run(chain: list, k: int) -> list:
    """The transition names along ``chain`` from entry k to the goal."""
    names = []
    step = chain[k]
    while step is not None:
        name, k = step
        names.append(name)
        step = chain[k]
    return names


class _PairBasis:
    """Antichain of (marking, word) pairs, minimal under b <= b' pointwise
    and w a subword of w', for ``minimal_words``.

    Words are hash-consed cells: cell 0 is the empty word, and cell c > 0 is
    the letter ``letters[c]`` followed by the word ``rest[c]``.  So a pair's
    word links to the word of the pair it was derived from, and equal words
    are equal cells.  Pairs are numbered in insertion order, with their
    markings in ``keys`` and their cells in ``words``; ``alive`` is the
    bitmask of those still minimal.  A marking strictly below another has a
    strictly smaller token sum and a support inside the other's, so a pair
    can lie below another only if its marking is the same (``by_marking``)
    or has a smaller sum (``by_total``) and passes the ``_SupportIndex``,
    and only if its word is no longer.  Words are compared only for the
    pairs that pass these filters.
    """

    __slots__ = ("letters", "rest", "lengths", "cells", "keys", "words", "index",
                 "by_marking", "by_total", "alive")

    def __init__(self, places: int):
        self.letters, self.rest, self.lengths, self.cells = [None], [0], [0], {}
        self.keys, self.words = [], []
        self.index = _SupportIndex(self.keys, places)
        self.by_marking = {}  # marking -> bitmask of the pairs with it
        self.by_total = {}  # token sum -> bitmask of the pairs with it
        self.alive = 0

    def cell(self, letter: str, word: int) -> int:
        """The cell of ``letter`` followed by the word of cell ``word``."""
        c = self.cells.get((letter, word))
        if c is None:
            c = self.cells[letter, word] = len(self.letters)
            self.letters.append(letter)
            self.rest.append(word)
            self.lengths.append(self.lengths[word] + 1)
        return c

    def embeds(self, u: int, v: int) -> bool:
        """The word of cell u is a subword of the word of cell v."""
        letters, rest, lengths = self.letters, self.rest, self.lengths
        while u:
            if u == v:
                return True
            if lengths[u] > lengths[v]:
                return False
            if letters[u] == letters[v]:
                u = rest[u]
            v = rest[v]
        return True

    def spell(self, c: int) -> tuple:
        letters, rest = self.letters, self.rest
        out = []
        while c:
            out.append(letters[c])
            c = rest[c]
        return tuple(out)

    def add(self, key: tuple, cell: int) -> int:
        """Insert a pair; returns its number, or -1 if some pair of the
        antichain lies below it.  The pairs above it leave the antichain."""
        words, lengths, embeds, alive = self.words, self.lengths, self.embeds, self.alive
        length = lengths[cell]
        total = sum(key)
        same = self.by_marking.get(key, 0) & alive
        lower = higher = 0
        for t, mask in self.by_total.items():
            if t < total:
                lower |= mask
            elif t > total:
                higher |= mask
        index = self.index
        if same or lower & alive:
            for i in index.below(key, same | lower & alive):
                if lengths[words[i]] <= length and embeds(words[i], cell):
                    return -1
        if same or higher & alive:
            for i in index.above(key, same | higher & alive):
                if lengths[words[i]] >= length and embeds(cell, words[i]):
                    alive &= ~(1 << i)
        k = len(self.keys)
        bit = 1 << k
        self.keys.append(key)
        words.append(cell)
        index.add(k)
        self.by_marking[key] = self.by_marking.get(key, 0) | bit
        self.by_total[total] = self.by_total.get(total, 0) | bit
        self.alive = alive | bit
        return k


def minimal_words(inst: NetInstance, max_nodes: int = 100_000) -> list:
    """The subword-minimal words of the coverability language L, each with a
    covering run that spells it: a list of (word, transition names), shortest
    words first.  uc(L) is the upward closure of these words (Higman).

    Backward saturation over (marking, word) pairs, the backward algorithm
    for well-structured systems (Abdulla, Cerans, Jonsson and Tsay 1996): a
    pair (b, w) says that a run from b covers the final marking M_f and
    spells w.  It starts from (M_f, ()), and the pre-image of (b, w) under t
    is (pre(b, t), label(t) . w).  Only the pairs minimal under b <= b'
    pointwise and w a subword of w' are kept (``_PairBasis``); Dickson's and
    Higman's lemmas make that order a well-quasi-order, so the saturation
    ends.  A pair with b <= m0 gives a word of L; it is not expanded, since
    the word of each of its pre-images contains it.  Pairs that a P-semiflow
    rules out (``_backward_steps``) are dropped, and so are pairs whose word
    contains a word already found.  Each pair links to the transition and
    the pair it was derived from, as in ``coverable``; the links from a
    found pair spell its run.  Inserting more than max_nodes pairs raises
    BudgetExceeded("backward pairs").
    """
    m0 = inst.initial.counts
    final = inst.final.counts
    steps, final_sums = _backward_steps(inst.net, m0, final)
    if final_sums is None:
        return []
    if all(map(ge, m0, final)):
        return [((), [])]
    basis = _PairBasis(len(final))
    basis.add(final, 0)
    words, keys, embeds = basis.words, basis.keys, basis.embeds
    sums = [final_sums]
    chain = [None]  # (transition name, number of the pair it was derived from)
    found = []  # the pairs below m0, their words an antichain
    frontier = [0]
    while frontier:
        new_frontier = []
        for j in frontier:
            word = words[j]
            if not basis.alive >> j & 1 or found and any(embeds(words[f], word) for f in found):
                continue
            b, b_sums = keys[j], sums[j]
            for name, label, pre, post, pruning in steps:
                image = _pre_image(b, b_sums, pre, post, pruning)
                if image is None:
                    continue
                cell = word if label == EPSILON else basis.cell(label, word)
                if found and any(embeds(words[f], cell) for f in found):
                    continue
                k = basis.add(image[0], cell)
                if k < 0:
                    continue
                if k >= max_nodes:
                    raise BudgetExceeded("backward pairs", max_nodes)
                sums.append(image[1])
                chain.append((name, j))
                if all(map(ge, m0, image[0])):
                    found = [f for f in found if not embeds(cell, words[f])] + [k]
                else:
                    new_frontier.append(k)
        frontier = new_frontier
    found = ((basis.spell(words[f]), _run(chain, f)) for f in found)
    return sorted(found, key=lambda pair: (len(pair[0]), pair[0]))


def is_coverable(inst: NetInstance) -> bool:
    return coverable(inst)[0]


# Membership oracles


def member(w: Word, inst: NetInstance, mode: str = "exact", max_nodes=100_000) -> bool:
    """Exact membership of a word in L, uc(L), or dc(L) of a coverability language.

    Implemented by composing the instance with a word automaton and deciding
    coverability of the composite, with max_nodes as its budget.
    """
    from .fsa import saturate_down, word_fsa

    if mode not in ("exact", "up", "down"):
        raise ValueError(f"unknown membership mode {mode!r}")
    unknown = set(w) - set(inst.net.alphabet)
    if unknown:
        raise AlphabetMismatch(f"word uses undeclared letters {sorted(unknown)}")
    target = word_fsa(inst.net.alphabet, tuple(w))
    if mode == "down":
        synced = sync_with_fsa(inst.net, target, "right")
    elif mode == "exact":
        synced = sync_with_fsa(inst.net, target, "full")
    else:  # up: some word of L embeds into w
        synced = sync_with_fsa(inst.net, saturate_down(target), "full")
    return coverable(synced.make_instance(inst), max_nodes)[0]


def brute_force_language(inst: NetInstance, k: int) -> set:
    """Exactly the words of covering runs of length at most k (test oracle).

    Memoizes on (marking, steps left); exact because the suffix language of a
    configuration depends only on the marking and the remaining budget.
    """
    net = inst.net
    final = inst.final
    memo = {}

    def explore(m: Marking, remaining: int) -> frozenset:
        key = (m, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        words = set()
        if m.covers(final):
            words.add(())
        if remaining > 0:
            for t in net.transitions:
                try:
                    nxt = fire(net, m, t.name)
                except NotEnabled:
                    continue
                suffixes = explore(nxt, remaining - 1)
                if t.label == EPSILON:
                    words |= suffixes
                else:
                    words |= {(t.label,) + s for s in suffixes}
        result = frozenset(words)
        memo[key] = result
        return result

    return set(explore(inst.initial, k))


def longest_run_length(net: PetriNet, m0: Marking, max_nodes: int = 200_000) -> int:
    """Length of the longest firing sequence of a terminating net.

    Raises ValueError when runs are unbounded, detected as a reachable cycle
    or a marking strictly dominating one of its DFS ancestors (a pump).
    """
    memo = {}
    on_path = {m0}
    # frame: [marking, successor list or None, next successor index, best depth]
    frames = [[m0, None, 0, 0]]
    while frames:
        frame = frames[-1]
        m = frame[0]
        if frame[1] is None:
            succs = []
            for t in net.transitions:
                try:
                    succs.append(fire(net, m, t.name))
                except NotEnabled:
                    continue
            frame[1] = succs
        if frame[2] < len(frame[1]):
            nxt = frame[1][frame[2]]
            frame[2] += 1
            if nxt in memo:
                frame[3] = max(frame[3], 1 + memo[nxt])
                continue
            if nxt in on_path:
                raise ValueError("reachable cycle: runs are unbounded")
            if any(nxt.covers(anc) for anc in on_path):
                raise ValueError("reachable pump: runs are unbounded")
            if len(memo) + len(on_path) > max_nodes:
                raise BudgetExceeded("reachable markings", max_nodes)
            on_path.add(nxt)
            frames.append([nxt, None, 0, 0])
        else:
            memo[m] = frame[3]
            on_path.discard(m)
            frames.pop()
            if frames:
                frames[-1][3] = max(frames[-1][3], 1 + frame[3])
    return memo[m0]
