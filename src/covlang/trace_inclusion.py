"""Trace inclusion of a finite automaton in a net, containment of a regular
language in a coverability language, and the is-the-language-closed deciders.

The exploration pairs determinized automaton states with antichains of maximal
omega-markings reachable on the same trace.  Omega is ``math.inf``
(``reach.OMEGA``) here as in every omega-marking, so the subsumption and
antichain tests compare markings with Python's own ``>=``.  Silent net
transitions are closed off with acceleration, so silent pumps become omega
and the tree stays finite; nodes dominating an ancestor with the same
automaton component are pruned.
The silent closure starts from every distinct marking one letter reaches and
fires silent transitions only.  On a conservative net it is the breadth-first
search over concrete markings of ``reach._reachable``, whose markings, all on
one level of the net's positive semiflow, are the antichain as they are.
Elsewhere it is the accelerated search of ``reach``, and its antichain is
computed in one pass: markings in descending order of rank
(omega count, then finite token sum), each compared only with kept markings
of strictly higher rank whose support contains its own, found through one
bitmask per place of the kept markings holding a token or omega there.
``traces_included`` and ``regular_included_in_lang`` share one search, on
the bitmask subset construction of ``fsa``.  For the latter it checks
acceptance itself: an accepting node must cover the final marking, and a
trace that the net cannot follow is extended to the shortest accepted word.
The paper's end-letter reduction (a fresh letter that the net fires by
consuming the final marking) gives the same answers and stays in the tests
as their reference.  In a plain trace inclusion, a successor from which no
letter steps is a dead end: it only needs its letter to be enabled, and no
closure is built.

``is_closed`` asks for upward closure by containment of ``uc_fsa``'s
automaton.  Downward closure first asks whether the empty word, the shortest
word of all, is in L: if not, L is downward closed iff L is empty, and
``reach.forward_cover`` decides both questions with no automaton.  Only
when the empty word is in L is ``dc_fsa_pn``'s automaton built and checked
for containment.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import ge, mul

from .closures import dc_fsa_pn, uc_fsa
from .errors import BudgetExceeded
from .fsa import Fsa, _coaccessible, _shortest_word, _subsets
from .nets import EPSILON, Marking, NetInstance, PetriNet
from .reach import (
    OMEGA,
    _accelerated_search,
    _positive_semiflow,
    _rank,
    _reachable,
    _SupportIndex,
    covering,
    forward_cover,
    om_fire,
)


def _maximal(markings, ranks=None) -> tuple:
    """Antichain of maximal elements under the omega-extended order, sorted
    by repr.  ``ranks``, when given, holds each marking's ``reach._rank``,
    in the order of the markings, which are then distinct.

    Distinct markings are visited by descending rank (``reach._rank``), so
    every strict dominator of a marking is visited, and kept or dominated
    itself, before it; a marking is dropped when some kept one covers it and
    never removed later.  The kept markings are indexed by support
    (``reach._SupportIndex``), and a marking is compared only with kept
    markings of strictly higher rank whose support contains its own.
    """
    if ranks is None:
        rank = {m: _rank(m) for m in markings}
    else:
        rank = dict(zip(markings, ranks))
    if len(rank) < 2:
        return tuple(rank)
    ordered = sorted(rank, key=rank.__getitem__, reverse=True)
    kept = []
    index = _SupportIndex(kept, len(ordered[0]))
    for _, same_rank in groupby(ordered, rank.__getitem__):
        higher = (1 << len(kept)) - 1  # kept markings of strictly higher rank
        for m in same_rank:
            if not index.covered(m, higher):
                kept.append(m)
                index.add(len(kept) - 1)
    return tuple(sorted(kept, key=repr))


def silent_closure(net: PetriNet, markings, max_nodes: int = 50_000) -> tuple:
    """The antichain of the maximal markings reachable through silent
    transitions from the given ones, with acceleration.

    Silent pumps preserve the trace, so a place they can grow without bound is
    exact as omega for trace matching.  A net without silent transitions
    closes nothing off: the antichain is that of the markings themselves.

    On a conservative net (``reach.conservative``), from concrete markings,
    no acceleration fires, and the closure is the breadth-first search over
    concrete markings (``reach._reachable``).  Every run keeps y . m for the
    positive semiflow y, and a marking strictly below another has a smaller
    y . m, so when the markings share one value of y . m, as on every trace
    from m0, the markings reached are the antichain, in set order.  From
    several values, ``_maximal`` still takes the antichain.  Elsewhere the
    closure is the accelerated search of ``reach``, and its antichain
    ``_maximal``.  More than ``max_nodes`` markings raise
    BudgetExceeded("silent-closure nodes").
    """
    silent = [t.name for t in net.transitions if t.label == EPSILON]
    if not silent:
        return _maximal(markings)
    y = _positive_semiflow(net)
    if y is not None:
        levels = {sum(map(mul, y, m)) for m in markings}
        if OMEGA not in levels:
            reached = _reachable(net, markings, silent, max_nodes, "silent-closure nodes")
            return tuple(reached) if len(levels) == 1 else _maximal(reached)
    search = _accelerated_search(net, markings, silent, max_nodes, "silent-closure nodes")
    return _maximal(search.nodes, search.ranks)


def _net_steps(net: PetriNet):
    """Each letter mapped to the (pre, post) arcs of its transitions."""
    by_label = {}
    for label, pre, post in net.arcs.values():
        if label != EPSILON:
            by_label.setdefault(label, []).append((pre, post))
    return by_label


def _letter_step(net: PetriNet, s, arcs, max_nodes: int) -> tuple:
    """Antichain after one letter: fire each of its transitions' ``arcs``
    from every marking of ``s`` and close the distinct results off silently."""
    moved = {}
    for m in s:
        for pre, post in arcs:
            succ = om_fire(m, pre, post)
            if succ is not None:
                moved[succ] = None
    return silent_closure(net, moved, max_nodes)


def _enabled(s, arcs) -> bool:
    """Some transition of ``arcs`` is enabled at some marking of ``s``."""
    return any(om_fire(m, pre, post) is not None for m in s for pre, post in arcs)


def traces_included(a: Fsa, net: PetriNet, m0: Marking, max_nodes: int = 50_000):
    """Every trace of the automaton is a trace of the net; exact.

    Returns (True, None) or (False, counterexample-trace); the counterexample
    is length-lexicographically minimal.  ``regular_included_in_lang`` runs the
    same search (``_search``) on the same subset construction.
    """
    _index, start, _accepting, step = _subsets(a)
    return _search(start, step, sorted(a.alphabet), net, m0, max_nodes)


def _search(
    start, step, letters, net: PetriNet, m0: Marking, max_nodes: int, trim=None, goal=None
):
    """Breadth-first trace tree of an automaton, given by its start
    macrostate, its ``step`` function and its ``letters`` in the order they
    are tried, against the net from m0; returns what ``traces_included``
    returns.

    Without ``goal``, a successor from which no letter steps is a dead end:
    it has no children, and no ancestor can subsume it, since an ancestor
    has children.  It only needs some transition of its letter to be
    enabled, so its silent closure is never built; it still counts against
    ``max_nodes``.

    ``goal``, an (accepting mask, final marking) pair, makes the search
    decide containment in the coverability language instead, for a ``step``
    whose every non-empty macrostate can reach acceptance.  A node whose
    macrostate is accepting fails with its own word unless some marking of
    its antichain covers the final marking, and counts one more node if one
    does; this is checked before its letters are tried.  A child that the net
    cannot follow fails with its word extended by the shortest word to
    acceptance.

    ``trim``, when given, maps a macrostate to the part that ``step`` keeps
    of it.  The root is stepped from as given, and trimmed only before the
    first subsumption test, which compares it with trimmed macrostates; a
    search that ends before it never trims it.
    """
    by_label = _net_steps(net)
    start_s = silent_closure(net, [tuple(m0.counts)], max_nodes)
    if goal is not None:
        accepting, final = goal
        covers = covering(final)
    # (qa, s, word, ancestors); ancestors only carry (qa, s) pairs
    root = (start, start_s)
    queue = deque([(start, start_s, (), (root,))])
    visited = 1
    while queue:
        qa, s, w, ancestors = queue.popleft()
        if goal is not None and qa & accepting:
            if not any(map(covers, s)):
                return False, w
            visited += 1
            if visited > max_nodes:
                raise BudgetExceeded("trace-tree nodes", max_nodes)
        for x in letters:
            qa2 = step(qa, x)
            if not qa2:
                continue
            arcs = by_label.get(x, ())
            dead_end = goal is None and not any(step(qa2, y) for y in letters)
            if dead_end:
                if not _enabled(s, arcs):
                    return False, w + (x,)
            else:
                s2 = _letter_step(net, s, arcs, max_nodes)
                if not s2:
                    if goal is None:
                        return False, w + (x,)
                    tail = _shortest_word(qa2, step, letters, lambda q: q & accepting)
                    return False, w + (x,) + tail
                if trim is not None:  # the first subsumption test, at the root
                    ancestors = ((trim(start), start_s),)
                    trim = None
                subsumed = any(
                    qa0 == qa2 and all(any(all(map(ge, m, m0_)) for m in s2) for m0_ in s0)
                    for qa0, s0 in ancestors
                )
                if subsumed:
                    continue
            visited += 1
            if visited > max_nodes:
                raise BudgetExceeded("trace-tree nodes", max_nodes)
            if not dead_end:
                node = (qa2, s2)
                queue.append((qa2, s2, w + (x,), ancestors + (node,)))
    return True, None


def net_has_trace(net: PetriNet, m0: Marking, w, max_nodes: int = 50_000) -> bool:
    """Exact check that some firing sequence is labeled by the given word."""
    by_label = _net_steps(net)
    s = silent_closure(net, [tuple(m0.counts)], max_nodes)
    for x in w:
        s = _letter_step(net, s, by_label.get(x, ()), max_nodes)
        if not s:
            return False
    return True


def regular_included_in_lang(a: Fsa, inst: NetInstance, max_nodes: int = 50_000):
    """L(a) inside the coverability language; returns (bool, counterexample word).

    The trace search of ``traces_included``, run on ``a`` trimmed so that
    acceptance stays reachable, checks acceptance itself (``_search`` with a
    goal): a word that ``a`` accepts must lead the net to a marking that
    covers the final one.  Verdicts, counterexamples and budget overruns are
    those of the paper's end-letter reduction, the test reference: both
    sides get a fresh end letter, the net fires it by consuming the final
    marking, the automaton reads it after accepting, and the question becomes
    an inclusion of prefix-closed trace languages.

    The co-accessible states are computed at the first letter step that
    reaches some state, or at once when the start macrostate holds no final
    state, which also decides whether L(a) is empty.  So an answer at the
    start, such as the counterexample () when the automaton accepts the
    empty word and the net does not, never computes them.
    """
    index, start, accepting, step_a = _subsets(a)
    alive = None

    def trim(qa: int) -> int:
        nonlocal alive
        if alive is None:
            alive = 0
            for q in _coaccessible(a):
                alive |= 1 << index[q]
        return qa & alive

    def step(qa: int, x: str) -> int:
        nxt = step_a(qa, x)
        return nxt and trim(nxt)

    if not start & accepting:
        start = trim(start)
        if not start:
            return True, None
    letters = sorted(set(a.alphabet))
    goal = (accepting, inst.final)
    return _search(start, step, letters, inst.net, inst.initial, max_nodes, trim, goal)


@dataclass(frozen=True)
class IsClosedResult:
    answer: str  # "yes" | "no" | "unknown"
    counterexample: tuple | None = None
    detail: str = ""


def is_closed(
    inst: NetInstance,
    direction: str,
    max_nodes: int = 50_000,
) -> IsClosedResult:
    """Is the coverability language equal to its upward or downward closure?

    One inclusion always holds, so the question reduces to containment of the
    exact closure automaton in the language.  The upward closure is exact on
    every net; the downward one (``dc_fsa_pn``) wherever the coverability
    graph completes.  Unknown, naming the budget, when max_nodes runs out.

    Downward, the empty word comes first.  It is a subword of every word, so
    it lies in dc(L) exactly when L is not empty, and no word is shorter.
    When it is not in L, L is downward closed iff L is empty, and the answer
    is "yes" or "no" with the counterexample ().  Two stop-early forward
    searches (``reach.forward_cover``) decide this, over the silent
    transitions and then over all of them; no automaton is built.  Their
    budget is the node budget of ``dc_fsa_pn``.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    try:
        if direction == "up":
            result = uc_fsa(inst, max_states=max_nodes)
        else:
            net, m0, final = inst.net, inst.initial, inst.final
            silent = [t.name for t in net.transitions if t.label == EPSILON]
            if not forward_cover(net, m0, final, silent, max_nodes):
                names = [t.name for t in net.transitions]
                if forward_cover(net, m0, final, names, max_nodes):
                    return IsClosedResult("no", counterexample=())
                return IsClosedResult("yes")
            result = dc_fsa_pn(inst, max_nodes)
            if not result.exact:
                raise BudgetExceeded("karp-miller nodes", max_nodes)
        ok, word = regular_included_in_lang(result.fsa, inst, max_nodes)
    except BudgetExceeded as err:
        return IsClosedResult("unknown", detail=str(err))
    if ok:
        return IsClosedResult("yes")
    return IsClosedResult("no", counterexample=word)
