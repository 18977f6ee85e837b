"""Trace inclusion of a finite automaton in a net, containment of a regular
language in a coverability language, and the is-the-language-closed deciders.

The exploration pairs determinized automaton states with antichains of maximal
omega-markings reachable on the same trace.  Silent net transitions are closed
off with acceleration, so silent pumps become omega and the tree stays finite;
nodes dominating an ancestor with the same automaton component are pruned.
The silent closure is the accelerated search of ``reach``, restricted to
silent transitions and started from every distinct marking one letter reaches.
Its antichain is computed in one pass: markings in descending order of omega
count and token sum, each compared only with kept markings whose support
contains its own.  A successor whose automaton states have no lettered
out-edge, such as the end-letter sink of ``regular_included_in_lang``, is a
dead end: it only needs its letter to be enabled, and no closure is built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .closures import dc_fsa, uc_fsa
from .errors import BudgetExceeded
from .fsa import Fsa, _step_fn, trim_coaccessible
from .nets import (
    EPSILON,
    Marking,
    NetInstance,
    PetriNet,
    append_final_letter,
)
from .reach import OMEGA, _accelerated_search, om_fire, om_geq


def _support(m) -> int:
    """Bitmask of the places holding a token or omega."""
    mask = 0
    for i, v in enumerate(m):
        if v is OMEGA or v:
            mask |= 1 << i
    return mask


def _rank(m) -> tuple:
    """(omega count, finite token sum): a strict dominator ranks higher."""
    omegas = total = 0
    for v in m:
        if v is OMEGA:
            omegas += 1
        else:
            total += v
    return omegas, total


def _maximal(markings) -> tuple:
    """Antichain of maximal elements under the omega-extended order, sorted
    by repr.

    Distinct markings are visited by descending rank, so every strict
    dominator of a marking is visited, and kept or dominated itself, before
    it; a marking is dropped when some kept one covers it and never removed
    later.  Kept markings are grouped by support, and only groups whose
    support contains the candidate's are compared.
    """
    groups = {}
    kept = []
    for m in sorted(set(markings), key=_rank, reverse=True):
        support = _support(m)
        if any(
            mask & support == support and any(om_geq(k, m) for k in group)
            for mask, group in groups.items()
        ):
            continue
        groups.setdefault(support, []).append(m)
        kept.append(m)
    return tuple(sorted(kept, key=repr))


def silent_closure(net: PetriNet, markings, max_nodes: int = 50_000):
    """All markings reachable through silent transitions, with acceleration.

    Silent pumps preserve the trace, so a place they can grow without bound is
    exact as omega for trace matching.  Returns (antichain, certificates);
    each certificate maps a closure marking to (source, fired-sequence,
    accelerated-flag of the last step) for replay in tests: fire the sequence
    from the source, accelerating each step against the markings replayed so
    far.
    """
    silent = [t.name for t in net.transitions if t.label == EPSILON]
    search = _accelerated_search(net, markings, silent, max_nodes, "silent-closure nodes")
    certificates = {}
    for node, step in zip(search.nodes, search.parents):
        if step is None:
            certificates[node] = (node, (), False)
        else:
            parent, name, accelerated = step
            source, fired, _ = certificates[search.nodes[parent]]
            certificates[node] = (source, fired + (name,), accelerated)
    return _maximal(search.nodes), certificates


def _net_steps(net: PetriNet):
    by_label = {}
    for t in net.transitions:
        if t.label != EPSILON:
            by_label.setdefault(t.label, []).append(t.name)
    return by_label


def _letter_step(net: PetriNet, s, names, max_nodes: int) -> tuple:
    """Antichain after one letter: fire each of its transitions ``names`` from
    every marking of ``s`` and close the distinct results off silently."""
    moved = {}
    for m in s:
        for name in names:
            succ = om_fire(net, m, name)
            if succ is not None:
                moved[succ] = None
    return silent_closure(net, moved, max_nodes)[0]


def _enabled(net: PetriNet, s, names) -> bool:
    """Some transition of ``names`` is enabled at some marking of ``s``."""
    return any(om_fire(net, m, name) is not None for m in s for name in names)


def traces_included(a: Fsa, net: PetriNet, m0: Marking, max_nodes: int = 50_000):
    """Every trace of the automaton is a trace of the net; exact.

    Returns (True, None) or (False, counterexample-trace); the counterexample
    is length-lexicographically minimal.

    A successor whose automaton states have no lettered out-edge is a dead
    end: it has no children, and no ancestor can subsume it, since an
    ancestor has children.  It only needs some transition of its letter to be
    enabled, so its silent closure is never built; it still counts against
    ``max_nodes``.
    """
    step_a, close_a = _step_fn(a)
    by_label = _net_steps(net)
    letters = sorted(a.alphabet)
    lettered = frozenset(q for q, x, _ in a.transitions if x != EPSILON)

    start_qa = close_a(frozenset([a.initial]))
    start_s, _ = silent_closure(net, [tuple(m0.counts)], max_nodes)
    # (qa, s, word, ancestors); ancestors only carry (qa, s) pairs
    root = (start_qa, start_s)
    queue = deque([(start_qa, start_s, (), (root,))])
    visited = 1
    while queue:
        qa, s, w, ancestors = queue.popleft()
        for x in letters:
            qa2 = step_a(qa, x)
            if not qa2:
                continue
            names = by_label.get(x, ())
            dead_end = lettered.isdisjoint(qa2)
            if dead_end:
                if not _enabled(net, s, names):
                    return False, w + (x,)
            else:
                s2 = _letter_step(net, s, names, max_nodes)
                if not s2:
                    return False, w + (x,)
                subsumed = any(
                    qa0 == qa2 and all(any(om_geq(m, m0_) for m in s2) for m0_ in s0)
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
    s, _ = silent_closure(net, [tuple(m0.counts)], max_nodes)
    for x in w:
        s = _letter_step(net, s, by_label.get(x, ()), max_nodes)
        if not s:
            return False
    return True


def _fresh_letter(used) -> str:
    candidate = "#"
    while candidate in used:
        candidate += "#"
    return candidate


def _append_accept_letter(a: Fsa, letter: str, alphabet) -> Fsa | None:
    """Automaton for L(a).letter, trimmed so its unique final state is
    reachable from every state; None when L(a) is empty."""
    trimmed = trim_coaccessible(a)
    if trimmed is None:
        return None
    sink = ("accept!", letter)
    states = set(trimmed.states) | {sink}
    transitions = set(trimmed.transitions)
    for q in trimmed.finals:
        transitions.add((q, letter, sink))
    return Fsa(
        tuple(alphabet),
        frozenset(states),
        frozenset(transitions),
        trimmed.initial,
        frozenset([sink]),
    )


def regular_included_in_lang(a: Fsa, inst: NetInstance, max_nodes: int = 50_000):
    """L(a) inside the coverability language; returns (bool, counterexample word).

    Both sides get a fresh end letter: the net fires it by consuming the final
    marking, the automaton appends it after accepting, and the question becomes
    an inclusion of prefix-closed trace languages.
    """
    fresh = _fresh_letter(set(inst.net.alphabet) | set(a.alphabet))
    alphabet = tuple(dict.fromkeys(tuple(a.alphabet) + inst.net.alphabet)) + (fresh,)
    ended = _append_accept_letter(a, fresh, alphabet)
    if ended is None:
        return True, None
    lifted_inst = append_final_letter(inst, fresh)
    ok, trace = traces_included(
        ended, lifted_inst.net, lifted_inst.initial, max_nodes
    )
    if ok:
        return True, None
    word = _extend_to_acceptance(ended, trace)
    if word[-1] != fresh:
        raise RuntimeError(f"counterexample {word!r} does not end with {fresh!r}")
    return False, word[:-1]


def _extend_to_acceptance(a: Fsa, trace):
    """Shortest accepted word extending the given trace (exists by trimming)."""
    step, close = _step_fn(a)
    current = close(frozenset([a.initial]))
    for x in trace:
        current = step(current, x)
    letters = sorted(a.alphabet)
    seen = {current}
    queue = deque([(current, tuple(trace))])
    while queue:
        states, w = queue.popleft()
        if states & a.finals:
            return w
        for x in letters:
            nxt = step(states, x)
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w + (x,)))
    raise AssertionError("a trimmed automaton must reach acceptance")


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
    every net; the downward one on communication-free nets and wherever the
    coverability graph completes.  Unknown when a budget of max_nodes runs
    out.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    try:
        if direction == "up":
            result = uc_fsa(inst, max_states=max_nodes)
        else:
            result = dc_fsa(inst, max_nodes)
            if not result.exact:
                return IsClosedResult("unknown", detail="coverability graph budget exceeded")
        ok, word = regular_included_in_lang(result.fsa, inst, max_nodes)
    except BudgetExceeded as err:
        return IsClosedResult("unknown", detail=str(err))
    if ok:
        return IsClosedResult("yes")
    return IsClosedResult("no", counterexample=word)
