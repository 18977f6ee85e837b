"""Closure automata for coverability languages.

Upward closures are exact on every net, by one construction: the
subword-minimal words of the language, found by the backward saturation over
(marking, word) pairs (``reach.minimal_words``), and the automaton of their
upward closure (``_basis_dfa``).  Saturating the k-bounded automaton gives an
under-approximation, exact once k reaches the classical run-length
recurrence over the number of places.  Downward closures (``dc_fsa_pn``)
come from the coverability graph on every net.

One explicit explorer builds ``k_bounded_fsa`` over (marking, steps) pairs,
the upward-closure automaton over the basis words' embedded prefixes,
``reachability_fsa`` over markings within k steps, and ``dc_fsa_pn`` over
reachable markings on conservative nets (``reach.conservative``); elsewhere
``dc_fsa_pn`` reads the accelerated search's graph (``km_graph``).  The
explorer numbers the states 0, 1, ... in the order it discovers them and
hands the automaton its numbered table of edges; the automaton keeps only
the numbers, not the markings, and no transition triples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

from .errors import BudgetExceeded, NotBpp
from .fsa import Fsa, saturate_up
from .nets import EPSILON, NetInstance, fire, is_bpp
from .reach import conservative, covering, km_graph, minimal_words, om_fire

#: Materializing integers beyond this many bits is pointless for desk work.
MAX_VALUE_BITS = 10**7


@dataclass(frozen=True)
class BoundReport:
    """An exploration bound with the data needed to recompute it.

    ``value`` is None when the exact integer is too large to materialize; the
    base-2 logarithm (itself exact) is then reported instead.
    """

    kind: str  # rackoff_f | rackoff_g | bpp_short | bpp_cutoff_c
    value: int | None
    inputs: dict
    log2: int | None = None

    def describe(self) -> str:
        args = ", ".join(f"{k}={v}" for k, v in sorted(self.inputs.items()))
        if self.value is not None:
            shown = str(self.value) if self.value < 10**40 else f"~2^{self.value.bit_length()}"
            return f"{self.kind}({args}) = {shown}"
        return f"{self.kind}({args}) = 2^{self.log2}"


def _instance_inputs(inst: NetInstance) -> dict:
    net = inst.net
    return {
        "n": inst.encoded_size(),
        "places": len(net.places),
        "transitions": len(net.transitions),
        "tokens_initial": inst.initial.token_count(),
        "tokens_final": inst.final.token_count(),
        "max_weight": net.max_arc_weight(),
    }


def minimal_word_length_bounds(n: int, ell: int) -> list:
    """The values f(0), ..., f(ell) of the minimal-word length recurrence:
    f(0) = 1 and f(i+1) = (2^n f(i))^(i+1) + f(i).

    The sequence is cut short (None) once values stop being materializable.
    """
    values = [1]
    for i in range(ell):
        f = values[-1]
        if f is None or ((n + f.bit_length()) * (i + 1)) > MAX_VALUE_BITS:
            values.append(None)
            continue
        values.append((2**n * f) ** (i + 1) + f)
    return values


def rackoff_f_sequence(inst: NetInstance) -> list:
    """Minimal-word length recurrence instantiated with the binary-encoded
    instance size and the place count."""
    return minimal_word_length_bounds(inst.encoded_size(), len(inst.net.places))


def rackoff_bound(inst: NetInstance) -> BoundReport:
    """Length bound f(places) for computations generating all minimal words."""
    value = rackoff_f_sequence(inst)[-1]
    return BoundReport("rackoff_f", value, _instance_inputs(inst))


def rackoff_g_bound(inst: NetInstance, i: int | None = None) -> BoundReport:
    """Closed-form majorant g(i) = 2^((3n)^(i+1)); i defaults to the place count."""
    n = inst.encoded_size()
    if i is None:
        i = len(inst.net.places)
    exponent = (3 * n) ** (i + 1)
    value = 2**exponent if exponent <= MAX_VALUE_BITS else None
    return BoundReport("rackoff_g", value, _instance_inputs(inst), log2=exponent)


def bpp_short_bound(inst: NetInstance) -> BoundReport:
    """Communication-free nets: minimal words appear within tokens(M_f)^2 * |T| steps.

    No construction uses it; ``covlang bound bpp-short`` reports it."""
    if not is_bpp(inst.net):
        raise NotBpp("short-run bound only holds for communication-free nets")
    value = inst.final.token_count() ** 2 * len(inst.net.transitions)
    return BoundReport("bpp_short", value, _instance_inputs(inst))


def bpp_cutoff_bound(inst: NetInstance) -> BoundReport:
    """Pumpability threshold tokens(M_0) * (|P| * max(F))^(|T|+1)."""
    if not is_bpp(inst.net):
        raise NotBpp("cutoff abstraction only holds for communication-free nets")
    net = inst.net
    value = inst.initial.token_count() * (
        len(net.places) * net.max_arc_weight()
    ) ** (len(net.transitions) + 1)
    return BoundReport("bpp_cutoff_c", value, _instance_inputs(inst))


def pump_threshold(inst: NetInstance) -> int:
    """Token threshold beyond which a place of a communication-free net is
    pumpable: the cutoff bound, raised above the marking maxima to guard nets
    with degenerate flow.  It is the threshold of the staged-witness formula
    of ``sre_inclusion.p_witness_system``; no closure automaton uses it."""
    return max(
        bpp_cutoff_bound(inst).value,
        max(inst.initial.counts, default=0) + 1,
        max(inst.final.counts, default=0) + 1,
        1,
    )


def _explore(alphabet, start, successors, accepting, max_states, budget_kind, partial=False):
    """Breadth-first automaton of the states reachable from start.

    ``successors(q)`` yields (label, target) pairs; each distinct pair becomes
    an edge.  The automaton keeps only the states' numbers in discovery
    order, start being 0, and gets the table of each state's distinct pairs
    as its ``out_edges``.  A new state beyond ``max_states`` raises
    BudgetExceeded(budget_kind), or with partial=True is dropped with its
    edges; the result is then the pair (automaton, whether none was dropped).
    """
    number = {start: 0}
    table = []  # state i's distinct (label, number) pairs: a tuple, untracked by gc
    finals = []
    complete = True
    queue = deque([start])  # discovered, not yet expanded: states len(table), ...
    while queue:
        q = queue.popleft()
        if accepting(q):
            finals.append(len(table))
        edges = {}
        for label, target in successors(q):
            j = number.get(target)
            if j is None:
                if len(number) >= max_states:
                    if not partial:
                        raise BudgetExceeded(budget_kind, max_states)
                    complete = False
                    continue
                j = number[target] = len(number)
                queue.append(target)
            edges[label, j] = None
        table.append(tuple(edges))
    del number  # free the markings before the automaton is built
    fsa = Fsa.from_out_edges(alphabet, dict(enumerate(table)), 0, finals)
    return (fsa, complete) if partial else fsa


def _fired(net, m):
    """(label, successor marking) for every transition enabled at m."""
    for t in net.transitions:
        try:
            nxt = fire(net, m, t.name)
        except Exception:
            continue
        yield t.label, nxt


def k_bounded_fsa(inst: NetInstance, k: int, max_states: int = 2_000_000) -> Fsa:
    """Automaton for the words of covering runs of length at most k.

    It explores the reachable (marking, steps-so-far) pairs, built lazily.
    """
    if k < 0:
        raise ValueError("k must be non-negative")

    def successors(state):
        m, i = state
        if i < k:
            for label, nxt in _fired(inst.net, m):
                yield label, (nxt, i + 1)

    return _explore(
        inst.net.alphabet,
        (inst.initial, 0),
        successors,
        lambda state: state[0].covers(inst.final),
        max_states,
        "bounded-run states",
    )


def reachability_fsa(inst: NetInstance, k: int, max_states: int = 200_000) -> Fsa:
    """Breadth-first automaton of the markings reachable within k steps.

    Only markings first reached in fewer than k steps get out-edges, so the
    language holds the words of the covering runs of length at most k and
    lies inside the coverability language.  No decision calls it; it stays
    for the benchmark (``perfbench/``), which traces it by name.
    """
    depth = {inst.initial: 0}

    def successors(m):
        d = depth[m]
        if d < k:
            for label, nxt in _fired(inst.net, m):
                depth.setdefault(nxt, d + 1)
                yield label, nxt

    return _explore(
        inst.net.alphabet,
        inst.initial,
        successors,
        lambda m: m.covers(inst.final),
        max_states,
        "reachable states",
    )


@dataclass(frozen=True)
class ClosureResult:
    fsa: Fsa
    exactness: str  # "exact" | "under" | "partial"

    @property
    def exact(self) -> bool:
        return self.exactness == "exact"


def _basis_dfa(alphabet, basis, max_states) -> Fsa:
    """Complete DFA of uc(basis).

    A state holds, for each word of the basis, the length of its longest
    prefix embedded in the input so far.  Once some word is embedded whole,
    the input lies in uc(basis) and the state is the accepting sink None.
    """

    def settle(q):
        return None if any(j == len(w) for j, w in zip(q, basis)) else q

    def successors(q):
        for x in alphabet:
            if q is None:
                yield x, None
            else:
                yield x, settle(tuple(j + (w[j] == x) for j, w in zip(q, basis)))

    return _explore(
        alphabet,
        settle((0,) * len(basis)),
        successors,
        lambda q: q is None,
        max_states,
        "upward-closure automaton states",
    )


def uc_fsa(
    inst: NetInstance,
    mode: str = "exact",
    k: int | None = None,
    max_states: int = 200_000,
) -> ClosureResult:
    """Upward-closure automaton.

    mode="exact": the exact closure on every net, the automaton of the
    upward closure of the language's subword-minimal words, which the
    backward saturation over (marking, word) pairs finds
    (``reach.minimal_words``).  ``max_states`` bounds both the pairs and
    the automaton's states.
    mode="user_k": saturate the k-bounded automaton; exact iff k reaches the
    run-length bound ``rackoff_bound``, an under-approximation otherwise.
    """
    if mode == "user_k":
        if k is None:
            raise ValueError("user_k mode needs k")
        bound = rackoff_bound(inst).value
        fsa = saturate_up(k_bounded_fsa(inst, k, max_states))
        return ClosureResult(fsa, "exact" if bound is not None and k >= bound else "under")
    if mode != "exact":
        raise ValueError(f"unknown mode {mode!r}")
    words = [w for w, _run in minimal_words(inst, max_states)]
    return ClosureResult(_basis_dfa(inst.net.alphabet, words, max_states), "exact")


def uc_fsa_bpp(inst: NetInstance, max_states: int = 200_000) -> Fsa:
    """``uc_fsa``'s automaton of a communication-free net; NotBpp on other
    nets.  No decision calls it; it stays for the benchmark's power-family
    queries (``perfbench/``)."""
    if not is_bpp(inst.net):
        raise NotBpp("uc_fsa_bpp takes communication-free nets only")
    return uc_fsa(inst, max_states=max_states).fsa


def dc_fsa_bpp(inst: NetInstance, max_states: int = 500_000) -> Fsa:
    """``dc_fsa_pn``'s automaton of a communication-free net; NotBpp on other
    nets, and BudgetExceeded when the graph outgrows ``max_states`` nodes."""
    if not is_bpp(inst.net):
        raise NotBpp("dc_fsa_bpp takes communication-free nets only")
    result = dc_fsa_pn(inst, max_states)
    if not result.exact:
        raise BudgetExceeded("karp-miller nodes", max_states)
    return result.fsa


def dc_fsa_pn(inst: NetInstance, max_nodes: int = 100_000) -> ClosureResult:
    """Downward closure from the coverability graph, on every net: nodes
    become states, and covering nodes accept.  Each edge gets a silent twin,
    so the language is downward closed as read and ``sre_in_dc_pn`` checks
    every product of an expression on this one automaton.  Exact when the
    graph completes within ``max_nodes`` nodes; past that, new nodes are
    dropped, which under-approximates.  On a conservative net
    (``reach.conservative``: the minimal-support P-semiflows cover every
    place) no acceleration fires, so the graph is the reachability graph,
    which the explicit explorer builds.
    """
    net, arcs = inst.net, inst.net.arcs
    if conservative(net):

        def successors(m):
            for label, pre, post in arcs.values():
                target = om_fire(m, pre, post)
                if target is not None:
                    yield label, target
                    yield EPSILON, target

        fsa, complete = _explore(
            net.alphabet,
            tuple(inst.initial.counts),
            successors,
            covering(inst.final),
            max_nodes,
            "karp-miller nodes",
            partial=True,
        )
    else:
        graph = km_graph(net, inst.initial, max_nodes=max_nodes, partial=True)
        table = dict.fromkeys(range(len(graph.nodes)), ())
        for src, edges in groupby(graph.edges, itemgetter(0)):
            pairs = {}
            for _src, name, dst in edges:
                pairs[arcs[name][0], dst] = pairs[EPSILON, dst] = None
            table[src] = tuple(pairs)
        finals = graph.covering_nodes(inst.final)
        fsa = Fsa.from_out_edges(net.alphabet, table, graph.root, finals)
        complete = graph.complete
    return ClosureResult(fsa, "exact" if complete else "partial")
