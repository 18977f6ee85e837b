import itertools
import random
from collections import deque

import pytest

from corpus import random_net
from covlang import closures
from covlang.closures import (
    bpp_cutoff_bound,
    bpp_short_bound,
    dc_fsa_bpp,
    dc_fsa_pn,
    k_bounded_fsa,
    minimal_word_length_bounds,
    rackoff_bound,
    rackoff_f_sequence,
    rackoff_g_bound,
    reachability_fsa,
    uc_fsa,
    uc_fsa_bpp,
)
from covlang.errors import BudgetExceeded, NotBpp
from covlang.families import bpp_power_instance, rackoff_counterexample
from covlang.fsa import (
    Fsa,
    _subsets,
    accepts,
    components,
    enumerate_words,
    equivalent,
    included,
    is_empty,
    make_fsa,
    minimal_dfa_size,
    saturate_down,
    saturate_up,
    trim_coaccessible,
)
from covlang.nets import EPSILON, Marking, NetInstance, PetriNet, Transition, is_bpp
from covlang.reach import OMEGA, _semiflows, brute_force_language, km_graph, member
from covlang.sre import OptionalLetter, Product, Star
from covlang.sre_inclusion import ideal_inclusion
from covlang.textio import print_fsa
from covlang.trace_inclusion import is_closed


def chain_fsa(limit, at_least=False):
    """{a^i | i <= limit} or, with at_least, {a^i | i >= limit}."""
    if at_least:
        return make_fsa(
            ("a",),
            range(limit + 1),
            [(i, "a", min(i + 1, limit)) for i in range(limit + 1)],
            0,
            {limit},
        )
    return make_fsa(
        ("a",),
        range(limit + 1),
        [(i, "a", i + 1) for i in range(limit)],
        0,
        set(range(limit + 1)),
    )


class TestKBounded:
    def test_counterexample_k2(self, rackoff_ce):
        fsa = k_bounded_fsa(rackoff_ce, 2)
        assert enumerate_words(fsa, 2) == {("a", "b"), ("a", "c"), ("c",)}

    def test_k0(self, rackoff_ce):
        assert is_empty(k_bounded_fsa(rackoff_ce, 0))[0]
        zero_final = NetInstance(
            rackoff_ce.net, rackoff_ce.initial, Marking.zero(rackoff_ce.net)
        )
        assert enumerate_words(k_bounded_fsa(zero_final, 0), 0) == {()}

    def test_power_run_length_is_sharp(self, power2):
        assert enumerate_words(k_bounded_fsa(power2, 5), 5) == {("a",) * 4}
        assert is_empty(k_bounded_fsa(power2, 4))[0]

    def test_agrees_with_brute_force_on_random_nets(self):
        rng = random.Random(61)
        for _ in range(30):
            inst = random_net(rng)
            for k in (0, 1, 3, 5):
                assert enumerate_words(
                    k_bounded_fsa(inst, k), k
                ) == brute_force_language(inst, k)


class TestRackoffBound:
    def test_base_case(self):
        assert minimal_word_length_bounds(4, 0) == [1]

    def test_one_place(self):
        assert minimal_word_length_bounds(4, 1) == [1, 17]

    def test_recurrence_recomputes(self, rackoff_ce):
        n = rackoff_ce.encoded_size()
        seq = rackoff_f_sequence(rackoff_ce)
        assert seq[0] == 1
        for i in range(len(seq) - 1):
            if seq[i + 1] is None:
                continue
            assert seq[i + 1] == (2**n * seq[i]) ** (i + 1) + seq[i]
        assert rackoff_bound(rackoff_ce).value == seq[-1]

    def test_g_base_case(self, power2):
        report = rackoff_g_bound(power2, i=0)
        n = power2.encoded_size()
        assert report.log2 == (3 * n) ** 1
        if report.value is not None:
            assert report.value == 2 ** (3 * n)

    def test_g_too_large_reports_exponent(self, power2):
        report = rackoff_g_bound(power2)
        assert report.log2 == (3 * power2.encoded_size()) ** 4
        assert report.value is None


class TestBppBounds:
    def test_power_short_bound(self, power2):
        assert bpp_short_bound(power2).value == 32

    def test_zero_final(self, power2):
        inst = NetInstance(power2.net, power2.initial, Marking.zero(power2.net))
        assert bpp_short_bound(inst).value == 0

    def test_linear_arithmetic(self):
        net = PetriNet(
            ("a",),
            ("p",),
            tuple(
                Transition.make(f"t{i}", "a", {"p": 1}, {"p": 1}) for i in range(7)
            ),
        )
        inst = NetInstance(net, Marking.of(net, {"p": 1}), Marking.of(net, {"p": 1}))
        assert bpp_short_bound(inst).value == 7

    def test_power_cutoff(self, power2):
        assert bpp_cutoff_bound(power2).value == 1728

    def test_rejects_synchronizing_nets(self, rackoff_ce):
        with pytest.raises(NotBpp):
            bpp_short_bound(rackoff_ce)


class TestUcFsa:
    def test_counterexample_small_k_hits_both_minimal_words(self, rackoff_ce):
        from covlang.sre import Letter, Sre, product, star, to_fsa

        result = uc_fsa(rackoff_ce, mode="user_k", k=2)
        expected = to_fsa(
            Sre(
                (
                    product(
                        star("abc"), Letter("a"), star("abc"), Letter("b"), star("abc")
                    ),
                    product(star("abc"), Letter("c"), star("abc")),
                )
            ),
            ("a", "b", "c"),
        )
        assert equivalent(result.fsa, expected)

    def test_empty_language(self, power2):
        dead = NetInstance(
            power2.net, power2.initial, Marking.of(power2.net, {"pf": 5})
        )
        result = uc_fsa(dead)
        assert is_empty(result.fsa)[0]

    def test_power_user_k(self, power2):
        result = uc_fsa(power2, mode="user_k", k=5)
        assert equivalent(result.fsa, chain_fsa(4, at_least=True))
        assert result.exactness == "under"

    def test_exact_on_rackoff_ce(self, rackoff_ce):
        result = uc_fsa(rackoff_ce)
        assert result.exactness == "exact"
        assert equivalent(result.fsa, uc_fsa(rackoff_ce, mode="user_k", k=2).fsa)

    def test_exact_on_trivial_net(self):
        net = PetriNet(("a",), ("p",), (Transition.make("t", "a", {"p": 1}, {}),))
        inst = NetInstance(net, Marking.of(net, {"p": 1}), Marking.zero(net))
        result = uc_fsa(inst)
        assert result.exactness == "exact"
        # language is {eps, a}; upward closure is everything
        assert equivalent(result.fsa, chain_fsa(0, at_least=True))

    @pytest.mark.parametrize("bpp, size", [(False, 4), (True, 3)])
    def test_exact_agrees_with_membership(self, bpp, size):
        """On synchronizing and on communication-free nets the exact closure
        accepts a word iff backward coverability puts it in uc(L).  The
        communication-free nets have the sre-corpus shape: with four places
        and four transitions the short-run bound reaches up to 256 steps, and
        some explorations that deep outgrow the default budget."""
        rng = random.Random(2027)
        nets = 0
        while nets < 500:
            inst = random_net(
                rng, max_places=size, max_transitions=size, max_weight=2, bpp=bpp
            )
            if is_bpp(inst.net) != bpp:
                continue
            nets += 1
            closure = uc_fsa(inst).fsa
            for n in range(4):
                for w in itertools.product(inst.net.alphabet, repeat=n):
                    assert accepts(closure, w) == member(w, inst, "up"), (nets, w)

    def test_exact_budget(self, rackoff_ce):
        with pytest.raises(BudgetExceeded):
            uc_fsa(rackoff_ce, max_states=1)

    def test_monotone_in_k(self, rackoff_ce):
        results = [uc_fsa(rackoff_ce, mode="user_k", k=k).fsa for k in (1, 2, 3)]
        for small, big in zip(results, results[1:]):
            assert included(small, big)[0]
        for fsa in results:
            for w in enumerate_words(fsa, 3):
                assert member(w, rackoff_ce, "up")


class TestUcFsaBpp:
    def test_power_language(self, power2):
        assert equivalent(uc_fsa_bpp(power2), chain_fsa(4, at_least=True))

    def test_power_three_needs_exponential_dfa(self):
        inst = bpp_power_instance(3)
        assert minimal_dfa_size(uc_fsa_bpp(inst)) >= 2**3

    def test_uncoverable_gives_empty(self, power2):
        dead = NetInstance(
            power2.net, power2.initial, Marking.of(power2.net, {"pf": 5})
        )
        assert is_empty(uc_fsa_bpp(dead))[0]

    def test_rejects_synchronizing_nets(self, rackoff_ce):
        with pytest.raises(NotBpp):
            uc_fsa_bpp(rackoff_ce)

    def test_unbounded_net_fires_nothing_when_the_final_marking_is_empty(
        self, monkeypatch
    ):
        """The short-run bound of an empty final marking is 0 steps, so the
        exploration stops at the initial marking however far the net grows."""
        net = PetriNet(("a",), ("p",), (Transition.make("t", "a", {"p": 1}, {"p": 2}),))
        inst = NetInstance(net, Marking.of(net, {"p": 1}), Marking.zero(net))
        calls = []
        real_fire = closures.fire

        def fire(*args):
            calls.append(args)
            return real_fire(*args)

        monkeypatch.setattr(closures, "fire", fire)
        closure = uc_fsa_bpp(inst)
        assert equivalent(closure, chain_fsa(0, at_least=True))
        assert calls == []


class TestDcFsaBpp:
    def test_power_language(self, power2):
        assert equivalent(dc_fsa_bpp(power2), chain_fsa(4))

    def test_ackermann_level_one(self, ackermann11):
        # the staged counting nets synchronize (two-token consumers), so the
        # cutoff route refuses them; the graph-based construction covers them
        with pytest.raises(NotBpp):
            dc_fsa_bpp(ackermann11)
        assert equivalent(dc_fsa_pn(ackermann11).fsa, chain_fsa(3))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_power_budget_boundary(self, n):
        """bpp-power(n) has 2^n + 2 Karp-Miller nodes: that budget builds them
        all, one less raises."""
        inst = bpp_power_instance(n)
        assert len(dc_fsa_bpp(inst, 2**n + 2).states) == 2**n + 2
        with pytest.raises(BudgetExceeded) as err:
            dc_fsa_bpp(inst, 2**n + 1)
        assert (err.value.kind, err.value.budget) == ("karp-miller nodes", 2**n + 1)

    def test_soundness_and_completeness_on_random_bpps(self):
        rng = random.Random(63)
        for _ in range(15):
            inst = random_net(rng, max_places=3, max_transitions=3, bpp=True)
            dc = dc_fsa_bpp(inst)
            accepted = enumerate_words(dc, 4)
            for w in accepted:
                assert member(w, inst, "down")
            words8 = brute_force_language(inst, 8)
            for v in words8:
                for w in _subwords(v):
                    if len(w) <= 4:
                        assert w in accepted


def _subwords(v):
    out = {()}
    for letter in v:
        out |= {w + (letter,) for w in out}
    return out


class TestDcFsaPn:
    def test_counterexample_closed_form(self, rackoff_ce):
        result = dc_fsa_pn(rackoff_ce)
        assert result.exact
        got = enumerate_words(result.fsa, 4)
        expected = set()
        for k in range(4):
            expected.add(("a",) * k)
            if k <= 3:
                expected.add(("a",) * k + ("b",))
                expected.add(("a",) * k + ("c",))
        expected = {w for w in expected if len(w) <= 4} | {("a",) * 4}
        assert got == expected

    def test_agrees_with_cutoff_on_bpp(self, power2):
        assert equivalent(dc_fsa_pn(power2).fsa, _reference_dc_fsa_bpp(power2, 500_000))

    def test_all_silent_coverable(self):
        net = PetriNet(
            (), ("p", "q"), (Transition.make("t", EPSILON, {"p": 1}, {"q": 1}),)
        )
        inst = NetInstance(net, Marking.of(net, {"p": 1}), Marking.of(net, {"q": 1}))
        result = dc_fsa_pn(inst)
        assert enumerate_words(result.fsa, 2) == {()}

    def test_partial_under_budget(self, rackoff_ce):
        result = dc_fsa_pn(rackoff_ce, max_nodes=1)
        assert result.exactness == "partial"

    def test_agrees_with_cutoff_on_random_bpps(self):
        rng = random.Random(65)
        for _ in range(15):
            inst = random_net(rng, max_places=3, max_transitions=3, bpp=True)
            assert equivalent(dc_fsa_pn(inst).fsa, _reference_dc_fsa_bpp(inst, 500_000))

    def test_matches_the_cutoff_reference_on_seeded_bpps(self):
        """The differential gate against the cutoff explorer that this
        construction replaced: exact within 3,000 nodes on every draw, also
        where the reference overruns its 3,000 states, and the same language
        wherever the reference finishes."""
        rng = random.Random(2027)
        built = with_omega = overruns = 0
        for i in range(1_500):
            inst = random_net(
                rng, max_places=4, max_transitions=4, max_weight=2, bpp=True
            )
            result = dc_fsa_pn(inst, 3_000)
            assert result.exact, i
            try:
                ref = _reference_dc_fsa_bpp(inst, 3_000)
            except BudgetExceeded:
                overruns += 1
                continue
            assert _same_downward_closed_language(result.fsa, ref), i
            built += 1
            with_omega += any(OMEGA in q for q in ref.states)
        assert built >= 1_100 and with_omega >= 300 and overruns >= 300

    def test_language_check_agrees_with_equivalent(self):
        """The gate's language check answers as ``fsa.equivalent`` does, in
        both roles, on the closures of small seeded nets against copies that
        lack one letter edge, whose languages may be smaller."""
        rng = random.Random(2029)
        verdicts = []
        for _ in range(200):
            inst = random_net(rng, bpp=True)
            try:
                ref = _reference_dc_fsa_bpp(inst, 60)
            except BudgetExceeded:
                continue
            a = dc_fsa_pn(inst, 60).fsa
            table = a.out_edges()
            for q, edges in table.items():
                for cut in (e for e in edges if e[0] != EPSILON):
                    kept = {**table, q: tuple(e for e in edges if e != cut)}
                    b = Fsa.from_out_edges(a.alphabet, kept, a.initial, a.finals)
                    for pair in ((b, ref), (ref, b)):
                        verdict = equivalent(*pair)
                        assert _same_downward_closed_language(*pair) == verdict
                        verdicts.append(verdict)
        assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100

    def test_bounded_nets_skip_the_accelerated_search(self, monkeypatch):
        """Where the semiflows cover every place, the explicit explorer's
        table, finals and exactness are those of the automaton read off
        ``km_graph``'s partial graph; other nets still take ``km_graph``."""
        rng = random.Random(64)
        covered = [0, 0]
        for i in range(3_000):
            inst = random_net(rng, bpp=i % 2 == 0)
            net = inst.net
            if len({p for y in _semiflows(net) for p, _w in y}) < len(net.places):
                continue
            covered[i % 2] += 1
            for budget in (5, 2_000):
                graph = km_graph(net, inst.initial, max_nodes=budget, partial=True)
                table = {q: {} for q in range(len(graph.nodes))}
                for src, name, dst in graph.edges:
                    table[src][net.arcs[name][0], dst] = table[src][EPSILON, dst] = None
                result = dc_fsa_pn(inst, budget)
                assert result.fsa.out_edges() == {q: tuple(e) for q, e in table.items()}
                assert result.fsa.finals == set(graph.covering_nodes(inst.final))
                assert result.exact == graph.complete, (i, budget)
        assert min(covered) >= 150, covered

        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            return km_graph(*args, **kwargs)

        monkeypatch.setattr(closures, "km_graph", recorded)
        dc_fsa_pn(bpp_power_instance(2))
        assert calls == []
        assert dc_fsa_pn(rackoff_counterexample()).exact and len(calls) == 1


class TestOutEdgesHandOver:
    """The explorers hand their adjacency table to the automaton; a stale or
    duplicated table would silently change every step over it."""

    def test_table_equals_the_one_rebuilt_from_transitions(self):
        rng = random.Random(61)
        explorers = (
            lambda inst: k_bounded_fsa(inst, 3, 2_000),
            lambda inst: reachability_fsa(inst, 3, 2_000),
            lambda inst: dc_fsa_pn(inst, 2_000).fsa,
            lambda inst: uc_fsa(inst, max_states=2_000).fsa,
        )
        checked = 0
        for i in range(80):
            inst = random_net(rng, bpp=i % 2 == 0)
            for explore in explorers:
                try:
                    a = explore(inst)
                except BudgetExceeded:
                    continue
                rebuilt = {}
                for q, x, q2 in a.transitions:
                    rebuilt.setdefault(q, set()).add((x, q2))
                table = a.out_edges()
                assert set(table) <= a.states
                for q in a.states:
                    edges = table.get(q, [])
                    assert len(edges) == len(set(edges)), (i, q, edges)
                    assert set(edges) == rebuilt.get(q, set()), (i, q)
                checked += 1
        assert checked >= 280


def _triples_unread(a):
    """The automaton has not built its frozenset of triples yet."""
    return "transitions" not in vars(a)


def _twin(a):
    """The automaton rebuilt by ``make_fsa`` from the triples of its table,
    without reading its ``transitions``."""
    triples = [(q, x, q2) for q, edges in a.out_edges().items() for x, q2 in edges]
    return make_fsa(a.alphabet, a.states, triples, a.initial, a.finals)


class TestTableBackedAutomaton:
    """An automaton built from an explorer's table builds its triples only
    when something reads them: its saturations and printing do not.  It
    answers every query as the automaton built from those triples does."""

    def test_agrees_with_its_twin_built_from_triples(self):
        rng = random.Random(62)
        builders = {
            "k_bounded_fsa": lambda inst: k_bounded_fsa(inst, 3, 2_000),
            "reachability_fsa": lambda inst: reachability_fsa(inst, 3, 2_000),
            "uc_fsa": lambda inst: uc_fsa(inst, max_states=2_000).fsa,
            "dc_fsa_pn": lambda inst: dc_fsa_pn(inst, 2_000).fsa,
            "dc_fsa_pn partial": lambda inst: dc_fsa_pn(inst, 5).fsa,
        }
        checked = dict.fromkeys(builders, 0)
        for i in range(60):
            inst = random_net(rng, bpp=i % 2 == 0)
            for name, build in builders.items():
                try:
                    a = build(inst)
                except BudgetExceeded:
                    continue
                twin = _twin(a)
                assert minimal_dfa_size(a) == minimal_dfa_size(twin), (i, name)
                assert included(a, twin) == (True, None) == included(twin, a), (i, name)
                trimmed, twin_trimmed = trim_coaccessible(a), trim_coaccessible(twin)
                saturated = [saturate_up(a), saturate_down(a)]
                assert all(map(_triples_unread, [a, *saturated])), (i, name)
                assert saturated == [saturate_up(twin), saturate_down(twin)], (i, name)
                assert trimmed == twin_trimmed, (i, name)
                assert print_fsa(a) == print_fsa(twin), (i, name)
                assert _triples_unread(a), (i, name)  # printing reads the table
                assert a == twin and hash(a) == hash(twin), (i, name)
                assert a.transitions == twin.transitions, (i, name)
                checked[name] += 1
        assert min(checked.values()) >= 25, checked

    def test_power_down_never_builds_the_triples(self, monkeypatch):
        built = []
        from_out_edges = Fsa.from_out_edges.__func__

        def recorded(cls, *args):
            built.append(from_out_edges(cls, *args))
            return built[-1]

        monkeypatch.setattr(Fsa, "from_out_edges", classmethod(recorded))
        result = is_closed(bpp_power_instance(12), "down")
        assert result.answer == "no" and result.counterexample == ()
        assert built == []


# The explorers before they numbered their states: transitions fired by name
# over place names, the whole marking clamped after each cutoff step, and
# the automaton's states the explored markings themselves.  The cutoff
# explorer (``_reference_dc_fsa_bpp``) is the reference downward closure of
# communication-free nets, which the library no longer builds this way.


def _reference_om_fire(net, m, name):
    t = net.transition(name)
    idx = net.place_index
    counts = list(m)
    for p, w in t.pre:
        v = counts[idx[p]]
        if v == OMEGA:
            continue
        if v < w:
            return None
        counts[idx[p]] = v - w
    for p, w in t.post:
        v = counts[idx[p]]
        if v != OMEGA:
            counts[idx[p]] = v + w
    return tuple(counts)


def _reference_explore(alphabet, start, successors, accepting, max_states, budget_kind):
    table = {start: None}
    finals = set()
    queue = deque([start])
    while queue:
        q = queue.popleft()
        if accepting(q):
            finals.add(q)
        edges = table[q] = list(dict.fromkeys(successors(q)))
        for _label, target in edges:
            if target not in table:
                if len(table) >= max_states:
                    raise BudgetExceeded(budget_kind, max_states)
                table[target] = None
                queue.append(target)
    return Fsa.from_out_edges(alphabet, table, start, finals)


def _covers(m, final):
    return all(v == OMEGA or v >= c for v, c in zip(m, final.counts))


def _reference_dc_fsa_bpp(inst, max_states):
    net = inst.net
    threshold = closures.pump_threshold(inst)

    def successors(q):
        for t in net.transitions:
            fired = _reference_om_fire(net, q, t.name)
            if fired is not None:
                target = tuple(
                    OMEGA if v != OMEGA and v >= threshold else v for v in fired
                )
                yield t.label, target
                yield EPSILON, target

    return _reference_explore(
        net.alphabet,
        tuple(inst.initial.counts),
        successors,
        lambda q: _covers(q, inst.final),
        max_states,
        "cutoff abstraction states",
    )


def _nfa_included(a, b):
    """L(a) <= L(b), searching a's states paired with b's macrostates, so
    that only b is determinized."""
    _index, start_b, finals_b, step = _subsets(b)
    out = a.out_edges()
    start = (a.initial, start_b)
    seen = {start}
    stack = [start]
    while stack:
        q, macro = stack.pop()
        if q in a.finals and not macro & finals_b:
            return False
        for x, q2 in out.get(q, ()):
            nxt = (q2, macro if x == EPSILON else step(macro, x))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def _ideals(a):
    """Products whose union is L(a), for an automaton whose every edge has a
    silent twin: one per path of strongly connected components from the
    initial state's to a final state's.  Each component contributes the star
    of the letters on its internal edges, each step between components
    (x + eps) for each letter it can read, or nothing if it reads none."""
    out = a.out_edges()
    number = {q: i for i, q in enumerate(a.states)}
    found = components([[number[q2] for _x, q2 in out.get(q, ())] for q in number])
    comp = [0] * len(number)
    for c, members in enumerate(found):
        for i in members:
            comp[i] = c
    internal = [set() for _ in found]
    steps = [{} for _ in found]  # component -> the letters its edges read
    for q, i in number.items():
        c = comp[i]
        for x, q2 in out.get(q, ()):
            d = comp[number[q2]]
            letters = internal[c] if d == c else steps[c].setdefault(d, set())
            if x != EPSILON:
                letters.add(x)
    finals = {comp[number[q]] for q in a.finals}

    def paths(c, atoms):
        atoms += (Star(frozenset(internal[c])),)
        if c in finals:
            yield Product(atoms)
        for d, letters in steps[c].items():
            for x in letters or [None]:
                yield from paths(d, atoms if x is None else atoms + (OptionalLetter(x),))

    return paths(comp[number[a.initial]], ())


def _same_downward_closed_language(small, big):
    """L(small) = L(big) for two automata whose every edge has a silent twin.

    ``fsa.equivalent`` determinizes both sides, which takes seconds on a
    reference automaton of 2,000 states.  Here only ``small`` is broken into
    products, each checked on ``big`` by ``ideal_inclusion``, and only
    ``small`` is determinized for the other inclusion."""
    for a in (small, big):
        for q, edges in a.out_edges().items():
            assert {(EPSILON, q2) for _x, q2 in edges} <= set(edges), q
    included = ideal_inclusion(big)
    return all(map(included, _ideals(small))) and _nfa_included(big, small)


def _reference_k_bounded_fsa(inst, k, max_states):
    def successors(state):
        m, i = state
        if i < k:
            for t in inst.net.transitions:
                nxt = _reference_om_fire(inst.net, m, t.name)
                if nxt is not None:
                    yield t.label, (nxt, i + 1)

    return _reference_explore(
        inst.net.alphabet,
        (tuple(inst.initial.counts), 0),
        successors,
        lambda state: _covers(state[0], inst.final),
        max_states,
        "bounded-run states",
    )


def _reference_reachability_fsa(inst, k, max_states):
    start = tuple(inst.initial.counts)
    depth = {start: 0}

    def successors(m):
        d = depth[m]
        if d < k:
            for t in inst.net.transitions:
                nxt = _reference_om_fire(inst.net, m, t.name)
                if nxt is not None:
                    depth.setdefault(nxt, d + 1)
                    yield t.label, nxt

    return _reference_explore(
        inst.net.alphabet,
        start,
        successors,
        lambda m: _covers(m, inst.final),
        max_states,
        "reachable states",
    )


def _same_up_to_numbering(build, reference):
    """Both raise the same BudgetExceeded, or ``build`` returns the reference
    automaton with each state renamed by its discovery index.  Returns the
    reference automaton, or None on an overrun."""
    try:
        ref = reference()
    except BudgetExceeded as err:
        with pytest.raises(BudgetExceeded) as got:
            build()
        assert (got.value.kind, got.value.budget) == (err.kind, err.budget)
        return None
    a = build()
    number = {q: i for i, q in enumerate(ref.out_edges())}
    assert a.states == frozenset(range(len(number)))
    assert a.initial == 0 == number[ref.initial]
    assert a.finals == {number[q] for q in ref.finals}
    assert a.transitions == {(number[q], x, number[q2]) for q, x, q2 in ref.transitions}
    assert a.out_edges() == {
        number[q]: tuple((x, number[q2]) for x, q2 in edges)
        for q, edges in ref.out_edges().items()
    }
    return ref


class TestNumberedExploration:
    """The explorers number their states in discovery order and fire
    index-compiled arcs; the automata they build are the marking-keyed
    reference automata renamed, and they overrun the same budgets."""

    def test_k_bounded_and_reachability_match_the_reference(self):
        rng = random.Random(2028)
        built = overruns = 0
        for i in range(300):
            inst = random_net(rng, bpp=i % 2 == 0)
            for k in (3, 10):
                for build, reference in (
                    (k_bounded_fsa, _reference_k_bounded_fsa),
                    (reachability_fsa, _reference_reachability_fsa),
                ):
                    ref = _same_up_to_numbering(
                        lambda: build(inst, k, 100),
                        lambda: reference(inst, k, 100),
                    )
                    built += ref is not None
                    overruns += ref is None
        assert built >= 1_000 and overruns >= 50
