"""Deciders for inclusion of a simple regular expression in the upward or
downward closure of a coverability language.

Upward closure, on every net: the expression is included iff the minimal word
of each of its products is in the closure, which backward coverability
decides (``reach.member``).  Downward closure, on every net: the Karp-Miller
closure automaton (``closures.dc_fsa_pn``) is built once per query, and each
product, an ideal, is checked on it by one polynomial path search
(``ideal_inclusion``; Abdulla, Collomb-Annichini, Bouajjani and Jonsson, FMSD
2004).  The communication-free routes decide the same way and only check that
the net is communication-free.  ``product_in_dc_pn`` decides one product
through simultaneous unboundedness of counting places in a synchronized
product net; it is the reference the tests compare against, off the decision
path.  For communication-free nets the staged-witness (``p_witness_system``)
and staged-cover (``staged_cover_system``) formulas state the two questions
in existential arithmetic, for export.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closures import dc_fsa_pn, pump_threshold
from .errors import AlphabetMismatch, BudgetExceeded, NotBpp
from .fsa import Fsa, components
from .nets import (
    EPSILON,
    Marking,
    NetInstance,
    PetriNet,
    Transition,
    fire_sequence,
    is_bpp,
    right_product,
    subword,
)
from .presburger import (
    Const,
    Leq,
    Var,
    bpp_reach_formula,
    conj,
    equals,
    implies,
    lt,
)
from .presburger import solve_bounded  # noqa: F401 - perfbench/tracing.py looks it up here
from .reach import member, simultaneously_unbounded
from .sre import (
    AlphabetOrder,
    Product,
    Sre,
    Star,
    default_order,
    lin_to_net,
    linearize,
    min_word,
    normalized_slots,
)


@dataclass(frozen=True)
class Verdict:
    answer: str  # "holds" | "fails" | "unknown"
    failing_product: Product | None = None
    witness: object = None
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.answer == "holds"


HOLDS = Verdict("holds")


def _check_alphabet(s: Sre, inst: NetInstance):
    extra = s.letters_used() - set(inst.net.alphabet)
    if extra:
        raise AlphabetMismatch(
            f"expression uses letters {sorted(extra)} the net does not declare"
        )


# Downward closure: products checked on the closure automaton


def ideal_inclusion(a: Fsa):
    """Decider for inclusion of a product in L(a), where L(a) is downward
    closed.

    A product lies in L(a) iff a has an accepting path that, in the order of
    the product's atoms, takes an edge labelled x for each atom x or (x+eps),
    and passes through a strongly connected component whose internal edges
    carry every letter of G for each atom G*.  Extra letters between these
    steps do no harm, since L(a) is downward closed.  The check runs on the
    components: the set of components reachable so far is narrowed atom by
    atom, and the product is included iff a final state's component remains.
    """
    out = a.out_edges()
    states = list(a.states)
    number = {q: i for i, q in enumerate(states)}
    edges = [[(x, number[r]) for x, r in out.get(q, ())] for q in states]
    found = components([[r for _x, r in row] for row in edges])
    comp = [0] * len(states)
    for c, members in enumerate(found):
        for q in members:
            comp[q] = c
    internal = [set() for _ in found]  # letters on internal edges
    after = [{} for _ in found]  # letter -> components its edges enter
    succ = [set() for _ in found]  # other components one edge enters
    for q, row in enumerate(edges):
        c = comp[q]
        for x, r in row:
            d = comp[r]
            if x != EPSILON:
                after[c].setdefault(x, set()).add(d)
                if d == c:
                    internal[c].add(x)
            if d != c:
                succ[c].add(d)
    final = {comp[number[q]] for q in a.finals}

    def reach(starts) -> set:
        seen = set(starts)
        stack = list(seen)
        while stack:
            for d in succ[stack.pop()]:
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
        return seen

    start = reach([comp[number[a.initial]]])

    def included(p: Product) -> bool:
        live = start
        for atom in p.atoms:
            if isinstance(atom, Star):
                if atom.letters:
                    live = reach(c for c in live if atom.letters <= internal[c])
            else:
                live = reach(d for c in live for d in after[c].get(atom.letter, ()))
            if not live:
                return False
        return not final.isdisjoint(live)

    return included


def sre_in_dc_pn(s: Sre, inst: NetInstance, max_nodes: int = 100_000) -> Verdict:
    """Inclusion of the expression in the downward closure (any net).

    Every product is checked on one Karp-Miller closure automaton.  A graph
    cut short by ``max_nodes`` under-approximates the closure, so ``holds``
    stays sound on it, and a product that fails there is ``unknown``.
    """
    _check_alphabet(s, inst)
    closure = dc_fsa_pn(inst, max_nodes)
    included = ideal_inclusion(closure.fsa)
    for p in s.products:
        if not included(p):
            if closure.exact:
                return Verdict("fails", failing_product=p)
            detail = str(BudgetExceeded("karp-miller nodes", max_nodes))
            return Verdict("unknown", failing_product=p, detail=detail)
    return HOLDS


# Reference decision: reduction to simultaneous unboundedness


def dc_unboundedness_system(p: Product, inst: NetInstance, order: AlphabetOrder):
    """Synchronized product plus goal place whose simultaneous unboundedness
    together with the iteration counters captures inclusion of the product in
    the downward closure.

    The goal-feeding transition also requires the control chain to have read a
    complete word of the linearized product, which enforces trailing mandatory
    letters.
    """
    net = inst.net
    lin = lin_to_net(linearize(p, order), net.alphabet)
    prod = right_product(net, lin.net)
    goal = "goal"
    t_cover_pre = {f"left.{pl}": w for pl, w in inst.final.as_dict(net).items()}
    t_cover_pre[f"right.{lin.exit_place}"] = 1
    t_cover = Transition.make(
        "t_cover", EPSILON, t_cover_pre, {f"right.{lin.exit_place}": 1, goal: 1}
    )
    t_pump = Transition.make("t_pump", EPSILON, {goal: 1}, {goal: 2})
    augmented = PetriNet(
        prod.alphabet,
        prod.places + (goal,),
        prod.transitions + (t_cover, t_pump),
    )
    start = {f"left.{pl}": w for pl, w in inst.initial.as_dict(net).items()}
    start[f"right.{lin.entry_place}"] = 1
    m0 = Marking.of(augmented, start)
    targets = [f"right.{c}" for c in lin.counting_places] + [goal]
    return augmented, m0, targets


def product_in_dc_pn(
    p: Product,
    inst: NetInstance,
    order: AlphabetOrder | None = None,
    max_nodes: int = 100_000,
) -> bool:
    """Inclusion of one product in the downward closure, decided by
    simultaneous unboundedness on ``dc_unboundedness_system``; raises
    BudgetExceeded past ``max_nodes``.  The reference for ``sre_in_dc_pn``:
    no decision path calls it.
    """
    order = order or default_order(inst.net.alphabet)
    net, m0, targets = dc_unboundedness_system(p, inst, order)
    return simultaneously_unbounded(net, m0, targets, max_nodes=max_nodes)


def sre_in_uc_pn(s: Sre, inst: NetInstance, max_nodes: int = 100_000) -> Verdict:
    """Inclusion in the upward closure: the minimal word of every product must
    be in it."""
    _check_alphabet(s, inst)
    for p in s.products:
        w = min_word(p)
        try:
            if not member(w, inst, "up", max_nodes=max_nodes):
                return Verdict("fails", failing_product=p, witness=w)
        except BudgetExceeded as err:
            return Verdict("unknown", failing_product=p, detail=str(err))
    return HOLDS


# Communication-free nets: staged-witness systems in existential arithmetic


@dataclass(frozen=True)
class PWitnessSpec:
    """Staged-computation certificate for product inclusion in the downward
    closure: markings M_1, M_1', ..., M_n, M_n' chained by letter runs and
    repeatable pump runs."""

    instance: NetInstance
    letters: tuple  # n slots; None marks an absent mandatory letter
    blocks: tuple  # n-1 letter sets, ordered per the alphabet order
    order: AlphabetOrder
    threshold: int

    def deq(self, m1: Marking, m2: Marking) -> bool:
        """m1 related to m2: wherever m2 stays below the threshold it must
        dominate m1 (so the run from m1 to m2 can be repeated)."""
        return all(
            b >= self.threshold or a <= b for a, b in zip(m1.counts, m2.counts)
        )

    def check(self, markings, runs) -> bool:
        """Verify conditions of the certificate against concrete runs."""
        inst = self.instance
        n = len(self.letters)
        if len(markings) != 2 * n or len(runs) != 2 * n - 1:
            return False
        if markings[0] != inst.initial:
            return False
        for i, sigma in enumerate(runs):
            if fire_sequence(inst.net, markings[i], sigma) != markings[i + 1]:
                return False
        labels = lambda sigma: tuple(
            inst.net.transition(t).label
            for t in sigma
            if inst.net.transition(t).label != EPSILON
        )
        for j, letter in enumerate(self.letters):
            if letter is not None and not subword((letter,), labels(runs[2 * j])):
                return False
        for j, block in enumerate(self.blocks):
            need = self.order.project(block)
            if not subword(need, labels(runs[2 * j + 1])):
                return False
            if not self.deq(markings[2 * j + 1], markings[2 * j + 2]):
                return False
        return self.deq(inst.final, markings[-1])


def p_witness_system(
    p: Product, inst: NetInstance, order: AlphabetOrder | None = None
):
    """Replica net and formula whose satisfiable reachable markings are exactly
    the staged witnesses for the product."""
    if not is_bpp(inst.net):
        raise NotBpp("staged witnesses need a communication-free net")
    order = order or default_order(inst.net.alphabet)
    letters, blocks = normalized_slots(p)
    n = len(letters)
    c = pump_threshold(inst)
    spec = PWitnessSpec(inst, letters, blocks, order, c)

    net = inst.net
    places = []
    transitions = []
    replicas = 2 * n - 1

    def e(r, pl):
        return f"e{r}.{pl}"

    def b(r, pl):
        return f"b{r}.{pl}"

    for r in range(1, replicas + 1):
        for pl in net.places:
            places += [e(r, pl), b(r, pl)]
            transitions.append(
                Transition.make(
                    f"tc{r}.{pl}", EPSILON, {}, {e(r, pl): 1, b(r, pl): 1}
                )
            )
        # counting places exist even when no transition can feed them, so the
        # occurrence constraints below stay grounded in the replica net
        if r % 2 == 1:
            if letters[(r - 1) // 2] is not None:
                places.append(f"l{r}")
        else:
            places.extend(f"l{r}.{a}" for a in sorted(blocks[r // 2 - 1]))
        for t in net.transitions:
            pre = {e(r, pl): w for pl, w in t.pre}
            post = {e(r, pl): w for pl, w in t.post}
            if r % 2 == 1:
                letter = letters[(r - 1) // 2]
                if letter is not None and t.label == letter:
                    post[f"l{r}"] = post.get(f"l{r}", 0) + 1
            else:
                block = blocks[r // 2 - 1]
                if t.label != EPSILON and t.label in block:
                    counter = f"l{r}.{t.label}"
                    post[counter] = post.get(counter, 0) + 1
            transitions.append(Transition.make(f"te{r}.{t.name}", EPSILON, pre, post))

    nprime = PetriNet((), tuple(places), tuple(transitions))

    parts = []
    for r in range(1, replicas):
        for pl in net.places:
            parts.append(equals(Var(e(r, pl)), Var(b(r + 1, pl))))
    for j in range(1, n):  # even replicas 2j are the repeatable pump runs
        r = 2 * j
        for pl in net.places:
            parts.append(
                implies(
                    lt(Var(e(r, pl)), Const(c)), Leq(Var(b(r, pl)), Var(e(r, pl)))
                )
            )
    for j, letter in enumerate(spec.letters):
        if letter is not None:
            parts.append(Leq(Const(1), Var(f"l{2 * j + 1}")))
    for j, block in enumerate(spec.blocks):
        for a in sorted(block):
            parts.append(Leq(Const(1), Var(f"l{2 * j + 2}.{a}")))
    for pl in net.places:
        parts.append(equals(Var(b(1, pl)), Const(inst.initial.get(net, pl))))
    for pl in net.places:
        parts.append(
            implies(
                lt(Var(e(replicas, pl)), Const(c)),
                Leq(Const(inst.final.get(net, pl)), Var(e(replicas, pl))),
            )
        )
    formula = conj(bpp_reach_formula(nprime, Marking.zero(nprime)), *parts)
    return nprime, formula, spec


def sre_in_dc_bpp(s: Sre, inst: NetInstance, max_nodes: int = 100_000) -> Verdict:
    """Downward-closure inclusion on the communication-free route.

    Decides each product exactly as ``sre_in_dc_pn`` does, on the Karp-Miller
    closure automaton; the route only adds the guard that the net is
    communication-free.  The staged-witness formula of the same question
    (``p_witness_system``) is exported by ``covlang export --smt2 --dir
    down``, not solved here.
    """
    _check_alphabet(s, inst)
    if not is_bpp(inst.net):
        raise NotBpp("use sre_in_dc_pn for nets with synchronization")
    return sre_in_dc_pn(s, inst, max_nodes)


def staged_cover_system(w, inst: NetInstance):
    """Replica net and formula for membership of a word in the upward closure:
    stage i may fire silent transitions and at most one transition labeled with
    the i-th letter, and the last stage must cover the final marking."""
    if not is_bpp(inst.net):
        raise NotBpp("staged covering needs a communication-free net")
    net = inst.net
    stages = max(len(w), 1)
    places = []
    transitions = []

    def e(r, pl):
        return f"e{r}.{pl}"

    def b(r, pl):
        return f"b{r}.{pl}"

    for r in range(1, stages + 1):
        letter = w[r - 1] if r <= len(w) else None
        for pl in net.places:
            places += [e(r, pl), b(r, pl)]
            transitions.append(
                Transition.make(
                    f"tc{r}.{pl}", EPSILON, {}, {e(r, pl): 1, b(r, pl): 1}
                )
            )
        if letter is not None:
            places.append(f"l{r}")
        for t in net.transitions:
            if t.label != EPSILON and t.label != letter:
                continue
            pre = {e(r, pl): ww for pl, ww in t.pre}
            post = {e(r, pl): ww for pl, ww in t.post}
            if letter is not None and t.label == letter:
                post[f"l{r}"] = post.get(f"l{r}", 0) + 1
            transitions.append(Transition.make(f"te{r}.{t.name}", EPSILON, pre, post))

    nprime = PetriNet((), tuple(places), tuple(transitions))
    parts = []
    for pl in net.places:
        parts.append(equals(Var(b(1, pl)), Const(inst.initial.get(net, pl))))
    for r in range(1, stages):
        for pl in net.places:
            parts.append(equals(Var(e(r, pl)), Var(b(r + 1, pl))))
    for pl in net.places:
        parts.append(Leq(Const(inst.final.get(net, pl)), Var(e(stages, pl))))
    for r in range(1, len(w) + 1):
        parts.append(Leq(Var(f"l{r}"), Const(1)))
    formula = conj(bpp_reach_formula(nprime, Marking.zero(nprime)), *parts)
    return nprime, formula


def sre_in_uc_bpp(s: Sre, inst: NetInstance, max_nodes: int = 100_000) -> Verdict:
    """Upward-closure inclusion on the communication-free route.

    Decides each product exactly as ``sre_in_uc_pn`` does, by backward
    coverability of its minimal word; the route only adds the guard that the
    net is communication-free.  The staged-cover formula of the same question
    (``staged_cover_system``) is exported by ``covlang export --smt2 --dir
    up``, not solved here.
    """
    _check_alphabet(s, inst)
    if not is_bpp(inst.net):
        raise NotBpp("use sre_in_uc_pn for nets with synchronization")
    return sre_in_uc_pn(s, inst, max_nodes)
