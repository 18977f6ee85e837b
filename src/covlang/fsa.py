"""Finite automata with silent edges, closure saturation, and exact decisions.

Decision queries (emptiness, membership, inclusion, equivalence) run an
on-the-fly subset construction with memoized steps and epsilon closures.
Counterexamples are length-lexicographically minimal, which keeps test
failures reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import AlphabetMismatch
from .nets import EPSILON, Word


@dataclass(frozen=True)
class Fsa:
    alphabet: tuple[str, ...]
    states: frozenset
    transitions: frozenset  # triples (state, letter-or-EPSILON, state)
    initial: object
    finals: frozenset

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError("initial state not declared")
        if not self.finals <= self.states:
            raise ValueError("final states not declared")
        letters = set(self.alphabet)
        for q, a, q2 in self.transitions:
            if q not in self.states or q2 not in self.states:
                raise ValueError("transition endpoint not declared")
            if a != EPSILON and a not in letters:
                raise ValueError(f"undeclared letter {a!r}")

    def size(self) -> int:
        return len(self.states) + len(self.alphabet)

    def out_edges(self):
        table = self.__dict__.get("_out")
        if table is None:
            table = {}
            for q, a, q2 in self.transitions:
                table.setdefault(q, []).append((a, q2))
            object.__setattr__(self, "_out", table)
        return table


def make_fsa(alphabet, states, transitions, initial, finals) -> Fsa:
    return Fsa(
        tuple(alphabet),
        frozenset(states),
        frozenset(tuple(t) for t in transitions),
        initial,
        frozenset(finals),
    )


def word_fsa(alphabet, w: Word) -> Fsa:
    """Chain automaton accepting exactly the word w."""
    states = list(range(len(w) + 1))
    trans = [(i, a, i + 1) for i, a in enumerate(w)]
    return make_fsa(alphabet, states, trans, 0, {len(w)})


def empty_fsa(alphabet) -> Fsa:
    return make_fsa(alphabet, {0}, set(), 0, set())


def saturate_up(a: Fsa) -> Fsa:
    """Accept the upward closure: self-loop every state on every letter."""
    loops = {(q, x, q) for q in a.states for x in a.alphabet}
    return Fsa(a.alphabet, a.states, a.transitions | loops, a.initial, a.finals)


def saturate_down(a: Fsa) -> Fsa:
    """Accept the downward closure: add a silent copy of every edge."""
    skips = {(q, EPSILON, q2) for q, _, q2 in a.transitions}
    return Fsa(a.alphabet, a.states, a.transitions | skips, a.initial, a.finals)


def _closure_fn(a: Fsa):
    out = a.out_edges()
    cache = {}

    def close(states: frozenset) -> frozenset:
        if states in cache:
            return cache[states]
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for label, q2 in out.get(q, ()):
                if label == EPSILON and q2 not in seen:
                    seen.add(q2)
                    stack.append(q2)
        result = frozenset(seen)
        cache[states] = result
        return result

    return close


def _step_fn(a: Fsa):
    out = a.out_edges()
    close = _closure_fn(a)
    cache = {}

    def step(states: frozenset, letter: str) -> frozenset:
        key = (states, letter)
        result = cache.get(key)
        if result is None:
            nxt = {q2 for q in states for lab, q2 in out.get(q, ()) if lab == letter}
            result = cache[key] = close(frozenset(nxt))
        return result

    return step, close


def accepts(a: Fsa, w) -> bool:
    step, close = _step_fn(a)
    current = close(frozenset([a.initial]))
    for letter in w:
        current = step(current, letter)
        if not current:
            return False
    return bool(current & a.finals)


def is_empty(a: Fsa):
    """Return (True, None) or (False, shortest length-lex accepted word)."""
    step, close = _step_fn(a)
    start = close(frozenset([a.initial]))
    if start & a.finals:
        return False, ()
    letters = sorted(a.alphabet)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        states, w = queue.popleft()
        for x in letters:
            nxt = step(states, x)
            if not nxt or nxt in seen:
                continue
            if nxt & a.finals:
                return False, w + (x,)
            seen.add(nxt)
            queue.append((nxt, w + (x,)))
    return True, None


def included(a: Fsa, b: Fsa):
    """Decide L(a) <= L(b); returns (True, None) or (False, shortest witness)."""
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatch("inclusion query over different alphabets")
    step_a, close_a = _step_fn(a)
    step_b, close_b = _step_fn(b)
    letters = sorted(a.alphabet)
    start = (close_a(frozenset([a.initial])), close_b(frozenset([b.initial])))

    def bad(pair):
        sa, sb = pair
        return bool(sa & a.finals) and not (sb & b.finals)

    if bad(start):
        return False, ()
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (sa, sb), w = queue.popleft()
        for x in letters:
            na = step_a(sa, x)
            if not na:
                continue  # a rejects every extension
            pair = (na, step_b(sb, x))
            if pair in seen:
                continue
            if bad(pair):
                return False, w + (x,)
            seen.add(pair)
            queue.append((pair, w + (x,)))
    return True, None


def equivalent(a: Fsa, b: Fsa) -> bool:
    return included(a, b)[0] and included(b, a)[0]


def determinize(a: Fsa):
    """Complete DFA as (states, delta, initial, finals) over subset states."""
    step, close = _step_fn(a)
    letters = sorted(a.alphabet)
    start = close(frozenset([a.initial]))
    states = {start}
    delta = {}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for x in letters:
            nxt = step(s, x)  # frozenset() is the explicit sink
            delta[(s, x)] = nxt
            if nxt not in states:
                states.add(nxt)
                queue.append(nxt)
    if any(delta[(s, x)] == frozenset() for s in states for x in letters):
        states.add(frozenset())
        for x in letters:
            delta[(frozenset(), x)] = frozenset()
    finals = {s for s in states if s & a.finals}
    return states, delta, start, finals


def minimal_dfa_size(a: Fsa) -> int:
    """Number of states of the canonical minimal complete DFA (Moore refinement)."""
    states, delta, _start, finals = determinize(a)
    letters = sorted(a.alphabet)
    # iterative partition refinement
    block = {s: (s in finals) for s in states}
    while True:
        signature = {
            s: (block[s],) + tuple(block[delta[(s, x)]] for x in letters) for s in states
        }
        classes = {}
        for s in states:
            classes.setdefault(signature[s], len(classes))
        new_block = {s: classes[signature[s]] for s in states}
        if len(set(new_block.values())) == len(set(block.values())):
            return len(set(new_block.values()))
        block = new_block


def enumerate_words(a: Fsa, k: int) -> set:
    """The exact set of accepted words of length at most k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    step, close = _step_fn(a)
    found = set()
    letters = sorted(a.alphabet)
    start = close(frozenset([a.initial]))

    def walk(states, w):
        if states & a.finals:
            found.add(w)
        if len(w) == k:
            return
        for x in letters:
            nxt = step(states, x)
            if nxt:
                walk(nxt, w + (x,))

    walk(start, ())
    return found


def trim_coaccessible(a: Fsa) -> Fsa | None:
    """Restrict to states from which a final state is reachable.

    Returns None when the language is empty (the initial state would be cut).
    """
    rev = {}
    for q, _x, q2 in a.transitions:
        rev.setdefault(q2, set()).add(q)
    alive = set(a.finals)
    stack = list(a.finals)
    while stack:
        q = stack.pop()
        for q0 in rev.get(q, ()):
            if q0 not in alive:
                alive.add(q0)
                stack.append(q0)
    if a.initial not in alive:
        return None
    trans = {(q, x, q2) for q, x, q2 in a.transitions if q in alive and q2 in alive}
    return Fsa(a.alphabet, frozenset(alive), frozenset(trans), a.initial, a.finals)

