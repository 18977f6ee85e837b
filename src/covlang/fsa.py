"""Finite automata with silent edges, closure saturation, and exact decisions.

An automaton stores its edges once: a table from each state to the tuple of
its distinct (label, target) pairs (``Fsa.out_edges``), handed over by the
explorers of ``closures`` (``Fsa.from_out_edges``) or grouped from triples by
``make_fsa``.  Everything here reads the table; ``Fsa.transitions``, the
frozenset of triples, is a view built on first read.

One subset construction serves every query (``_subsets``): the states are
numbered, closed under silent edges once, and a macrostate is an int
bitmask that reads a letter eight states at a time, each (letter, byte)
join memoized.  Emptiness, membership, inclusion, equivalence, word
enumeration and the trace searches of ``trace_inclusion`` walk it on the
fly and visit few subsets; counterexamples are length-lexicographically
minimal, which keeps test failures reproducible.  ``determinize`` walks it
breadth-first to the whole DFA, and ``minimal_dfa_size`` refines that DFA's
partition with Hopcroft's algorithm.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from operator import attrgetter, itemgetter

from .errors import AlphabetMismatch
from .nets import EPSILON, Word


@dataclass(frozen=True, init=False, eq=False)
class Fsa:
    """A finite automaton whose edges carry a letter or EPSILON.

    Its states are the keys of the table ``out_edges()``, which maps each
    state to the tuple of its distinct (label, target) pairs, () for a state
    without out-edges.  ``from_out_edges`` is the one constructor.
    ``transitions``, the frozenset of (state, label, target) triples, is
    built on first read; equality and hashing read it, so the order of a
    row's pairs does not matter.
    """

    alphabet: tuple[str, ...]
    states: frozenset
    initial: object
    finals: frozenset
    _out: dict

    def __post_init__(self):
        if self.initial not in self.states:
            raise ValueError("initial state not declared")
        if not self.finals <= self.states:
            raise ValueError("final states not declared")
        # a table's sources are its keys, the states themselves
        rows = self._out.values()
        if not self.states.issuperset(map(itemgetter(1), chain.from_iterable(rows))):
            raise ValueError("transition endpoint not declared")
        labels = set(map(itemgetter(0), chain.from_iterable(rows)))
        undeclared = labels.difference([EPSILON], self.alphabet)
        if undeclared:
            raise ValueError(f"undeclared letter {min(undeclared)!r}")

    @classmethod
    def from_out_edges(cls, alphabet, table: dict, initial, finals) -> Fsa:
        """Automaton whose states are the keys of ``table``, a dict from each
        state to a tuple of its distinct (label, target) pairs, kept as is."""
        a = cls.__new__(cls)
        a.__dict__.update(
            alphabet=tuple(alphabet),
            states=frozenset(table),
            initial=initial,
            finals=frozenset(finals),
            _out=table,
        )
        a.__post_init__()
        return a

    def out_edges(self) -> dict:
        return self._out

    @cached_property
    def transitions(self) -> frozenset:
        """The (state, label, target) triples of the table."""
        return frozenset((q, x, q2) for q, edges in self._out.items() for x, q2 in edges)

    _key = property(attrgetter("alphabet", "states", "transitions", "initial", "finals"))

    def __eq__(self, other):
        return isinstance(other, Fsa) and self._key == other._key

    def __hash__(self):
        return hash(self._key)


def make_fsa(alphabet, states, transitions, initial, finals) -> Fsa:
    """The automaton of (state, label, target) triples; a repeated one counts once."""
    rows = {q: [] for q in states}
    for q, x, q2 in dict.fromkeys(map(tuple, transitions)):
        if q not in rows:
            raise ValueError("transition endpoint not declared")
        rows[q].append((x, q2))
    return Fsa.from_out_edges(alphabet, {q: tuple(e) for q, e in rows.items()}, initial, finals)


def word_fsa(alphabet, w: Word) -> Fsa:
    """Chain automaton accepting exactly the word w."""
    table = {i: ((x, i + 1),) for i, x in enumerate(w)}
    table[len(w)] = ()
    return Fsa.from_out_edges(alphabet, table, 0, [len(w)])


def empty_fsa(alphabet) -> Fsa:
    return make_fsa(alphabet, {0}, set(), 0, set())


def saturate_up(a: Fsa) -> Fsa:
    """Accept the upward closure: self-loop every state on every letter."""
    table = {}
    for q, row in a.out_edges().items():
        pairs = dict.fromkeys(row)
        for x in a.alphabet:
            pairs[x, q] = None
        table[q] = tuple(pairs)
    return Fsa.from_out_edges(a.alphabet, table, a.initial, a.finals)


def saturate_down(a: Fsa) -> Fsa:
    """Accept the downward closure: add a silent copy of every edge."""
    table = {}
    for q, row in a.out_edges().items():
        pairs = dict.fromkeys(row)
        for _x, q2 in row:
            pairs[EPSILON, q2] = None
        table[q] = tuple(pairs)
    return Fsa.from_out_edges(a.alphabet, table, a.initial, a.finals)


def _subsets(a: Fsa):
    """The subset construction of a, on int bitmasks.

    Returns (index, start, accepting, step).  Bit ``index[q]`` stands for
    state q, numbered in table order; start is the silent closure of the
    initial state and accepting the mask of the final states.
    ``step(mask, letter)`` reads one letter and closes the result: it ORs
    the closed letter successors of the mask's states eight states at a
    time, each (letter, byte position, byte value) joined once and memoized.
    A letter outside the alphabet and the empty mask both step to 0.
    """
    index = {q: i for i, q in enumerate(a.out_edges())}
    out = a.out_edges().values()
    silent = [[index[q2] for x, q2 in edges if x == EPSILON] for edges in out]
    closure = _silent_closures(silent)
    rows = {x: [0] * len(index) for x in a.alphabet}  # closed successor masks
    for i, edges in enumerate(out):
        for x, q2 in edges:
            if x != EPSILON:
                rows[x][i] |= closure[index[q2]]
    width = (len(index) + 7) // 8
    memos = {x: {} for x in rows}

    def step(mask: int, letter: str) -> int:
        row = rows.get(letter)
        if row is None:
            return 0
        memo = memos[letter]
        nxt = 0
        for pos, byte in enumerate(mask.to_bytes(width, "little")):
            if byte:
                key = pos << 8 | byte
                part = memo.get(key)
                if part is None:
                    part = memo[key] = _join_byte(row, pos, byte)
                nxt |= part
        return nxt

    accepting = 0
    for q in a.finals:
        accepting |= 1 << index[q]
    return index, closure[index[a.initial]], accepting, step


def accepts(a: Fsa, w) -> bool:
    _index, current, accepting, step = _subsets(a)
    for letter in w:
        current = step(current, letter)
        if not current:
            return False
    return bool(current & accepting)


def _shortest_word(start, step, letters, accepting):
    """Length-lexicographically least word that ``step`` leads from the
    macrostate start to one where ``accepting`` holds, breadth-first over
    non-empty macrostates; None when there is none."""
    if accepting(start):
        return ()
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        states, w = queue.popleft()
        for x in letters:
            nxt = step(states, x)
            if not nxt or nxt in seen:
                continue
            if accepting(nxt):
                return w + (x,)
            seen.add(nxt)
            queue.append((nxt, w + (x,)))
    return None


def is_empty(a: Fsa):
    """Return (True, None) or (False, shortest length-lex accepted word)."""
    _index, start, accepting, step = _subsets(a)
    w = _shortest_word(start, step, sorted(a.alphabet), lambda s: bool(s & accepting))
    return (True, None) if w is None else (False, w)


def included(a: Fsa, b: Fsa):
    """Decide L(a) <= L(b); returns (True, None) or (False, shortest witness)."""
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatch("inclusion query over different alphabets")
    _index, start_a, finals_a, step_a = _subsets(a)
    _index, start_b, finals_b, step_b = _subsets(b)
    start = (start_a, start_b)

    def step(pair, x):
        na = step_a(pair[0], x)
        return na and (na, step_b(pair[1], x))  # 0: a rejects every extension

    def bad(pair):
        sa, sb = pair
        return bool(sa & finals_a) and not sb & finals_b

    w = _shortest_word(start, step, sorted(a.alphabet), bad)
    return (True, None) if w is None else (False, w)


def equivalent(a: Fsa, b: Fsa) -> bool:
    return included(a, b)[0] and included(b, a)[0]


def components(successors) -> list[list[int]]:
    """Strongly connected components of the graph on vertices 0..n-1 with
    ``successors[i]`` the successors of vertex i, by iterative Tarjan.  Each
    component is a list of vertices and comes after every component it
    reaches.
    """
    n = len(successors)
    order = [0] * n  # discovery number, 0 while unvisited
    low = [0] * n
    done = [False] * n
    stack = []
    found = []
    counter = 0
    for root in range(n):
        if order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if not order[w]:
                    counter += 1
                    order[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(successors[w])))
                    break
                if not done[w]:  # on the stack: same component as v
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:
                    members = []
                    while not members or members[-1] != v:
                        m = stack.pop()
                        done[m] = True
                        members.append(m)
                    found.append(members)
    return found


def _silent_closures(silent) -> list[int]:
    """Each state's epsilon closure as a bitmask, in one pass over the
    strongly connected components of the silent edges.

    ``silent[i]`` lists the silent successors of state i.  A component comes
    after every component it reaches, so its closure is its own bits joined
    with the closures of those components.
    """
    closure = [0] * len(silent)
    for members in components(silent):
        mask = 0
        for m in members:
            mask |= 1 << m
            for w in silent[m]:
                mask |= closure[w]
        for m in members:
            closure[m] = mask
    return closure


def _join_byte(row, pos: int, byte: int) -> int:
    """The union of ``row[8 * pos + i]`` over the set bits i of byte."""
    out = 0
    base = pos * 8
    for i in range(8):
        if byte >> i & 1:
            out |= row[base + i]
    return out


def determinize(a: Fsa):
    """Complete DFA of a: a breadth-first walk over the masks of ``_subsets``.

    Returns (subsets, delta, initial, finals).  DFA state i is the int mask
    subsets[i], over the bits of ``_subsets``'s index; states are numbered
    breadth-first, so initial is 0.  delta[c][i] is the successor of state i
    on the c-th letter of sorted(a.alphabet), and finals is the set of
    accepting DFA states.  The empty mask 0 is the sink, present whenever
    some step reaches it.
    """
    letters = sorted(a.alphabet)
    _index, start, accepting, step = _subsets(a)
    subsets = [start]
    number = {start: 0}
    delta = [[] for _ in letters]
    for mask in subsets:  # grows while it is walked: breadth-first order
        for x, out in zip(letters, delta):
            nxt = step(mask, x)
            target = number.get(nxt)
            if target is None:
                target = number[nxt] = len(subsets)
                subsets.append(nxt)
            out.append(target)
    finals = {i for i, mask in enumerate(subsets) if mask & accepting}
    return subsets, delta, 0, finals


def minimal_dfa_size(a: Fsa) -> int:
    """Number of states of the canonical minimal complete DFA.

    Hopcroft's partition refinement (1971) on the DFA of ``determinize``:
    start from finals and non-finals, split blocks by the predecessors of a
    waiting splitter block, and of a split block that is not waiting queue
    only the smaller half.  O(k n log n) for k letters and n DFA states.
    """
    subsets, delta, _initial, finals = determinize(a)
    n = len(subsets)
    blocks = [members for members in (set(finals), set(range(n)) - finals) if members]
    if len(blocks) < 2:
        return len(blocks)
    inverse = []
    for targets in delta:
        sources = [[] for _ in range(n)]
        for i, j in enumerate(targets):
            sources[j].append(i)
        inverse.append(sources)
    block_of = [0] * n
    for i in blocks[1]:
        block_of[i] = 1
    smaller = 0 if len(blocks[0]) <= len(blocks[1]) else 1
    waiting = [smaller]
    queued = {smaller}
    while waiting:
        splitter = waiting.pop()
        queued.discard(splitter)
        inside = list(blocks[splitter])  # the splitter may split below
        for sources in inverse:
            touched = {}
            for j in inside:
                for i in sources[j]:
                    touched.setdefault(block_of[i], []).append(i)
            for b, members in touched.items():
                block = blocks[b]
                if len(members) == len(block):
                    continue
                new = len(blocks)
                moved = set(members)
                block -= moved
                blocks.append(moved)
                for i in members:
                    block_of[i] = new
                if b in queued or len(moved) <= len(block):
                    add = new
                else:
                    add = b
                queued.add(add)
                waiting.append(add)
    return len(blocks)


def enumerate_words(a: Fsa, k: int) -> set:
    """The exact set of accepted words of length at most k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _index, start, accepting, step = _subsets(a)
    letters = sorted(a.alphabet)
    level = [((), start)]  # the words of one length, with their masks
    found = set()
    for length in range(k + 1):
        if length:
            level = [(w + (x,), m) for w, mask in level for x in letters if (m := step(mask, x))]
        found.update(w for w, mask in level if mask & accepting)
    return found


def _coaccessible(a: Fsa) -> frozenset:
    """States from which a final state is reachable: one backward search
    over ``out_edges``, on the states' positions in the table.  In a table
    numbered 0..n-1 in order, as the explorers build it, a state is its own
    position."""
    out = a.out_edges()
    states = list(out)
    n = len(states)
    position = range(n) if states == list(range(n)) else {q: i for i, q in enumerate(states)}
    preds = [[] for _ in range(n)]
    for i, edges in enumerate(out.values()):
        for _x, q2 in edges:
            preds[position[q2]].append(i)
    alive = [False] * n
    stack = [position[q] for q in a.finals]
    for i in stack:
        alive[i] = True
    while stack:
        for i in preds[stack.pop()]:
            if not alive[i]:
                alive[i] = True
                stack.append(i)
    return frozenset(compress(states, alive))


def trim_coaccessible(a: Fsa) -> Fsa | None:
    """Restrict to states from which a final state is reachable.

    Returns None when the language is empty (the initial state would be cut).
    """
    alive = _coaccessible(a)
    if a.initial not in alive:
        return None
    out = a.out_edges()
    table = {q: tuple((x, q2) for x, q2 in out[q] if q2 in alive) for q in alive}
    return Fsa.from_out_edges(a.alphabet, table, a.initial, a.finals)
