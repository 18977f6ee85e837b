"""Closure automata for coverability languages.

Upward closures come from length-bounded under-approximations saturated with
letter self-loops; the certified length bound follows the classical recurrence
over the number of places.  Downward closures use the cutoff abstraction for
communication-free nets and the coverability graph in general.

One explicit explorer builds ``k_bounded_fsa`` over (marking, steps) pairs,
``reachability_fsa`` over markings and ``dc_fsa_bpp`` over cutoff-abstracted
markings; ``dc_fsa_pn`` reads the accelerated search's graph (``km_graph``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceeded, CertifiedBoundTooLarge, NotBpp
from .fsa import Fsa, included, saturate_up
from .nets import EPSILON, NetInstance, fire, is_bpp
from .reach import OMEGA, km_graph, om_covers_marking, om_fire

#: Materializing integers beyond this many bits is pointless for desk work.
MAX_VALUE_BITS = 10**7
#: Consecutive doublings of k with an unchanged language after which
#: ``uc_fsa(mode="adaptive")`` stops.
STABLE_ROUNDS = 3


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
    """Communication-free nets: minimal words appear within tokens(M_f)^2 * |T| steps."""
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
    pumpable.  Any threshold at or above the cutoff bound keeps the cutoff
    abstraction exact; raising it above the marking maxima guards nets with
    degenerate flow."""
    return max(
        bpp_cutoff_bound(inst).value,
        max(inst.initial.counts, default=0) + 1,
        max(inst.final.counts, default=0) + 1,
        1,
    )


def _explore(alphabet, start, successors, accepting, max_states, budget_kind) -> Fsa:
    """Breadth-first automaton of the states reachable from start.

    ``successors(q)`` yields (label, target) pairs; every one becomes an edge.
    A new state beyond ``max_states`` raises BudgetExceeded(budget_kind).
    """
    states = {start}
    transitions = set()
    finals = set()
    queue = deque([start])
    while queue:
        q = queue.popleft()
        if accepting(q):
            finals.add(q)
        for label, target in successors(q):
            transitions.add((q, label, target))
            if target not in states:
                if len(states) >= max_states:
                    raise BudgetExceeded(budget_kind, max_states)
                states.add(target)
                queue.append(target)
    return Fsa(alphabet, frozenset(states), frozenset(transitions), start, frozenset(finals))


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

    States are the reachable (marking, steps-so-far) pairs, built lazily.
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


def reachability_fsa(inst: NetInstance, max_states: int = 200_000) -> Fsa | None:
    """Automaton of the full reachability graph, or None if it exceeds the budget.

    When it exists, its language is exactly the coverability language.
    """
    try:
        return _explore(
            inst.net.alphabet,
            inst.initial,
            lambda m: _fired(inst.net, m),
            lambda m: m.covers(inst.final),
            max_states,
            "reachable states",
        )
    except BudgetExceeded:
        return None


@dataclass(frozen=True)
class ClosureResult:
    fsa: Fsa
    exactness: str  # "exact" | "under" | "heuristic" | "partial"
    k_used: int | None = None
    bound: BoundReport | None = None

    @property
    def exact(self) -> bool:
        return self.exactness == "exact"


def uc_fsa(
    inst: NetInstance,
    mode: str = "adaptive",
    k: int | None = None,
    ceiling: int = 10**6,
    k_cap: int = 64,
    max_states: int = 2_000_000,
) -> ClosureResult:
    """Upward-closure automaton.

    mode="certified": run length f(places), exact but only feasible for tiny
    instances (refuses above the ceiling).  mode="user_k": saturate the
    k-bounded automaton; exact iff k reaches the certified bound.
    mode="adaptive": double k until the language is stable for a few rounds;
    flagged heuristic.
    """
    if mode == "certified":
        report = rackoff_bound(inst)
        if report.value is None or report.value > ceiling:
            raise CertifiedBoundTooLarge(report, ceiling)
        fsa = saturate_up(k_bounded_fsa(inst, report.value, max_states))
        return ClosureResult(fsa, "exact", k_used=report.value, bound=report)
    if mode == "user_k":
        if k is None:
            raise ValueError("user_k mode needs k")
        report = rackoff_bound(inst)
        fsa = saturate_up(k_bounded_fsa(inst, k, max_states))
        exactness = "exact" if report.value is not None and k >= report.value else "under"
        return ClosureResult(fsa, exactness, k_used=k, bound=report)
    if mode == "adaptive":
        current = saturate_up(k_bounded_fsa(inst, 1, max_states))
        k_used = 1
        stable = 0
        step = 2
        while step <= k_cap:
            nxt = saturate_up(k_bounded_fsa(inst, step, max_states))
            # saturate_up(k_bounded_fsa(inst, k)) only grows with k, so
            # current <= nxt holds and one inclusion decides equivalence
            if included(nxt, current)[0]:
                stable += 1
            else:
                stable = 0
            current = nxt
            k_used = step
            if stable >= STABLE_ROUNDS:
                break
            step *= 2
        return ClosureResult(current, "heuristic", k_used=k_used)
    raise ValueError(f"unknown mode {mode!r}")


def uc_fsa_bpp(inst: NetInstance, max_states: int = 200_000) -> Fsa:
    """Exact upward closure for communication-free nets.

    Saturating any automaton whose language sits between the short-run
    under-approximation and the full language yields the upward closure; the
    full reachability graph is used when it is finite, the short-run bound
    otherwise.
    """
    if not is_bpp(inst.net):
        raise NotBpp("exact upward closure shortcut needs a communication-free net")
    full = reachability_fsa(inst, max_states)
    if full is not None:
        return saturate_up(full)
    k = bpp_short_bound(inst).value
    return saturate_up(k_bounded_fsa(inst, k, max_states))


def dc_fsa_bpp(inst: NetInstance, max_states: int = 500_000) -> Fsa:
    """Exact downward closure for communication-free nets via the cutoff
    abstraction: token counts at or beyond the pumpability threshold collapse
    to omega, and every transition also gets a silent variant.
    """
    net = inst.net
    threshold = pump_threshold(inst)

    def successors(q):
        for t in net.transitions:
            fired = om_fire(net, q, t.name)
            if fired is not None:
                target = tuple(
                    OMEGA if v is not OMEGA and v >= threshold else v for v in fired
                )
                yield t.label, target
                yield EPSILON, target

    return _explore(
        net.alphabet,
        tuple(inst.initial.counts),
        successors,
        lambda q: om_covers_marking(q, inst.final),
        max_states,
        "cutoff abstraction states",
    )


def dc_fsa_pn(inst: NetInstance, max_nodes: int = 100_000) -> ClosureResult:
    """Downward closure from the coverability graph: nodes become states, each
    edge gets a silent twin, covering nodes accept.  Exact when the graph
    construction completes within budget; a partial graph still yields a sound
    under-approximation.
    """
    graph = km_graph(inst.net, inst.initial, max_nodes=max_nodes, partial=True)
    exactness = "exact" if graph.complete else "partial"
    states = frozenset(range(len(graph.nodes)))
    transitions = set()
    for src, name, dst in graph.edges:
        label = inst.net.transition(name).label
        transitions.add((src, label, dst))
        transitions.add((src, EPSILON, dst))
    finals = frozenset(graph.covering_nodes(inst.final))
    fsa = Fsa(inst.net.alphabet, states, frozenset(transitions), graph.root, finals)
    return ClosureResult(fsa, exactness)
