import random
from collections import deque
from operator import ge, mul

import pytest

from corpus import random_fsa, random_net
from covlang.closures import dc_fsa_pn
from covlang.errors import BudgetExceeded
from covlang.families import ackermann_instance, ackermann_value, bpp_power_instance
from covlang.fsa import Fsa, _subsets, make_fsa, trim_coaccessible, word_fsa
from covlang.nets import (
    EPSILON,
    Marking,
    NetInstance,
    PetriNet,
    Transition,
    append_final_letter,
    fire,
)
from covlang import reach, trace_inclusion
from covlang.reach import (
    OMEGA,
    _accelerated_search,
    _positive_semiflow,
    _rank,
    _Tree,
    conservative,
    coverable,
    member,
    om_accelerate,
    om_fire,
)
from covlang.trace_inclusion import (
    IsClosedResult,
    _maximal,
    is_closed,
    net_has_trace,
    regular_included_in_lang,
    silent_closure,
    traces_included,
)


def fsa_traces(a, max_len):
    """All words readable from the initial state (regardless of acceptance)."""
    _index, start, _accepting, step = _subsets(a)
    out = set()
    frontier = {start: ()}
    out.add(())
    for _ in range(max_len):
        nxt = {}
        for states, w in frontier.items():
            for x in sorted(a.alphabet):
                s2 = step(states, x)
                if s2:
                    out.add(w + (x,))
                    nxt.setdefault(s2, w + (x,))
        frontier = nxt
    return out


def net_traces_by_runs(net, m0, max_len, run_depth):
    """Sound under-approximation: labels of runs up to run_depth."""
    traces = set()

    def walk(m, word, depth):
        traces.add(word)
        if depth == 0:
            return
        for t in net.transitions:
            try:
                nxt = fire(net, m, t.name)
            except Exception:
                continue
            extended = word if t.label == EPSILON else word + (t.label,)
            if len(extended) <= max_len:
                walk(nxt, extended, depth - 1)

    walk(m0, (), run_depth)
    return traces


class TestTracesIncluded:
    def test_single_silent_or_c(self, rackoff_ce):
        a = make_fsa(("a", "b", "c"), {0, 1}, {(0, "c", 1)}, 0, {1})
        assert traces_included(a, rackoff_ce.net, rackoff_ce.initial) == (True, None)

    def test_b_not_fireable_initially(self, rackoff_ce):
        a = make_fsa(("a", "b", "c"), {0, 1}, {(0, "b", 1)}, 0, {1})
        ok, ce = traces_included(a, rackoff_ce.net, rackoff_ce.initial)
        assert not ok and ce == ("b",)

    def test_pump_then_exit(self, rackoff_ce):
        # prefix closure of a+b: every a^k and a^k b with k >= 1 is a trace
        a = make_fsa(
            ("a", "b", "c"), {0, 1, 2}, {(0, "a", 1), (1, "a", 1), (1, "b", 2)}, 0, {2}
        )
        assert traces_included(a, rackoff_ce.net, rackoff_ce.initial) == (True, None)

    def test_fresh_letters_fail_immediately(self, rackoff_ce):
        a = make_fsa(("z",), {0, 1}, {(0, "z", 1)}, 0, {1})
        ok, ce = traces_included(a, rackoff_ce.net, rackoff_ce.initial)
        assert not ok and ce == ("z",)

    def test_budget(self, rackoff_ce):
        # a long chain automaton forces genuinely new nodes at every level
        a = word_fsa(("a",), ("a",) * 10)
        with pytest.raises(BudgetExceeded):
            traces_included(a, rackoff_ce.net, rackoff_ce.initial, max_nodes=2)

    def test_agrees_with_bounded_enumeration(self):
        rng = random.Random(91)
        for _ in range(30):
            inst = random_net(rng, max_places=3, max_transitions=3)
            a = random_fsa(rng, alphabet=inst.net.alphabet, max_states=4)
            ok, ce = traces_included(a, inst.net, inst.initial, max_nodes=20_000)
            if not ok:
                assert ce in fsa_traces(a, len(ce))
                assert not net_has_trace(inst.net, inst.initial, ce)
                assert ce not in net_traces_by_runs(
                    inst.net, inst.initial, len(ce), 12
                )
            else:
                realizable = net_traces_by_runs(inst.net, inst.initial, 6, 12)
                for w in fsa_traces(a, 6):
                    assert w in realizable or net_has_trace(
                        inst.net, inst.initial, w
                    )

    def test_counterexample_prefix_fails_at_reported_position(self):
        rng = random.Random(93)
        for _ in range(20):
            inst = random_net(rng, max_places=3, max_transitions=3)
            a = random_fsa(rng, alphabet=inst.net.alphabet, max_states=4)
            ok, ce = traces_included(a, inst.net, inst.initial, max_nodes=20_000)
            if ok:
                continue
            assert not net_has_trace(inst.net, inst.initial, ce)
            assert net_has_trace(inst.net, inst.initial, ce[:-1])


def _maximal_reference(markings):
    """Quadratic antichain: insert each marking, evicting what it dominates."""
    result = []
    for m in markings:
        if any(all(map(ge, other, m)) for other in result):
            continue
        result = [other for other in result if not all(map(ge, m, other))]
        result.append(m)
    return tuple(sorted(result, key=repr))


def _held(m):
    return {i for i, v in enumerate(m) if v}


class TestMaximal:
    def test_matches_quadratic_reference(self):
        rng = random.Random(17)
        values = (0, 0, 1, 2, 3, OMEGA)
        for _ in range(3_000):
            places = rng.randint(1, 4)
            pool = [
                tuple(rng.choice(values) for _ in range(places))
                for _ in range(rng.randint(1, 8))
            ]
            markings = [rng.choice(pool) for _ in range(rng.randint(0, 16))]
            assert _maximal(markings) == _maximal_reference(markings), markings

    def test_matches_quadratic_reference_on_ties_in_rank_and_support(self):
        # markings that permute one multiset of values tie in rank, and
        # markings that move tokens among the same places tie in support
        rng = random.Random(19)
        rank_ties = support_ties = 0
        for _ in range(2_000):
            places = rng.randint(2, 5)
            base = [rng.choice((0, 1, 1, 2, OMEGA)) for _ in range(places)]
            pool = []
            for _ in range(rng.randint(2, 10)):
                m = base[:]
                if rng.random() < 0.5:
                    rng.shuffle(m)
                else:
                    held = [i for i, v in enumerate(m) if v != OMEGA and v]
                    if len(held) > 1:
                        j, k = rng.sample(held, 2)
                        if m[j] > 1:  # one token moves: same rank and support
                            m[j] -= 1
                            m[k] += 1
                        else:
                            m[k] += 1
                pool.append(tuple(m))
            markings = [rng.choice(pool) for _ in range(rng.randint(1, 16))]
            distinct = set(markings)
            pairs = [(a, b) for a in distinct for b in distinct if a != b]
            rank_ties += sum(_rank(a) == _rank(b) for a, b in pairs)
            support_ties += sum(_held(a) == _held(b) for a, b in pairs)
            assert _maximal(markings) == _maximal_reference(markings), markings
        assert min(rank_ties, support_ties) > 3_000

    def test_result_is_a_sorted_antichain(self):
        result = _maximal([(1, OMEGA), (2, 3), (1, 3), (OMEGA, 0), (2, 3)])
        assert result == tuple(sorted(result, key=repr))
        assert set(result) == {(1, OMEGA), (2, 3), (OMEGA, 0)}


class TestSilentClosure:
    def test_acceleration_introduces_omega(self):
        net = PetriNet(
            ("b",),
            ("s", "q"),
            (
                Transition.make("gen", EPSILON, {"s": 1}, {"s": 1, "q": 1}),
                Transition.make("tb", "b", {"q": 3}, {}),
            ),
        )
        closure = silent_closure(net, [(1, 0)])
        assert closure == ((1, OMEGA),)

    def test_omegas_are_justified_by_concrete_pumps(self):
        rng = random.Random(95)
        for _ in range(20):
            inst = random_net(rng, max_places=3, max_transitions=3)
            net = inst.net
            start = tuple(inst.initial.counts)
            closure = silent_closure(net, [start])
            for target in closure:
                omegas = [i for i, v in enumerate(target) if v == OMEGA]
                if not omegas:
                    continue
                for demand in (2, 4, 16):
                    concrete = tuple(
                        demand if v == OMEGA else v for v in target
                    )
                    assert _silent_run_reaches(net, start, concrete), (
                        net,
                        start,
                        target,
                        demand,
                    )

    def test_certificates_replay_to_their_nodes(self):
        rng = random.Random(96)
        replayed = accelerated = chained = 0
        for _ in range(200):
            inst = random_net(rng, eps_ratio=0.6)
            roots = [tuple(inst.initial.counts), tuple(inst.final.counts)]
            certs = silent_certificates(inst.net, roots)
            assert set(silent_closure(inst.net, roots)) <= set(certs)
            for node, (source, fired, flag) in certs.items():
                assert source in roots
                path = _Tree(len(inst.net.places))
                at = path.add(source, -1)
                last = False
                for name in fired:
                    _label, pre, post = inst.net.arcs[name]
                    succ = om_fire(path.keys[at], pre, post)
                    assert succ is not None
                    at = path.add(om_accelerate(succ, at, path), at)
                    last = path.keys[at] != succ
                assert path.keys[at] == node
                assert last == flag
                replayed += 1
                accelerated += flag
                chained += len(fired) > 1
        assert replayed > 400 and accelerated > 50 and chained > 30


def silent_certificates(net, markings, max_nodes=50_000):
    """Each node of the accelerated silent search from ``markings`` (the one
    ``silent_closure`` runs on nets that are not conservative), mapped to
    (source, fired-sequence, accelerated-flag of the last step) for replay:
    fire the sequence from the source, accelerating each step against the
    markings replayed so far."""
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
    return certificates


def _silent_run_reaches(net, start, goal, max_states=60_000):
    """Concrete search: some silent run reaches a marking >= goal."""
    silent = [t.name for t in net.transitions if t.label == EPSILON]
    cap = tuple(g + 2 * net.max_arc_weight() + 2 for g in goal)
    seen = {start}
    stack = [start]
    while stack:
        m = stack.pop()
        if all(v >= g for v, g in zip(m, goal)):
            return True
        for name in silent:
            t = net.transition(name)
            counts = list(m)
            enabled = True
            for p, w in t.pre:
                i = net.place_index[p]
                if counts[i] < w:
                    enabled = False
                    break
                counts[i] -= w
            if not enabled:
                continue
            for p, w in t.post:
                counts[net.place_index[p]] += w
            nxt = tuple(min(v, c) for v, c in zip(counts, cap))
            if nxt not in seen:
                if len(seen) >= max_states:
                    return False
                seen.add(nxt)
                stack.append(nxt)
    return False


def _accelerated_closure(net, roots, max_nodes):
    """The silent closure as the accelerated search and ``_maximal`` take it
    on every net, as a set, or the budget it overran."""
    silent = [t.name for t in net.transitions if t.label == EPSILON]
    try:
        search = _accelerated_search(net, roots, silent, max_nodes, "silent-closure nodes")
    except BudgetExceeded as err:
        return str(err)
    return set(_maximal(search.nodes, search.ranks))


def _closure_outcome(net, roots, max_nodes):
    try:
        return set(silent_closure(net, roots, max_nodes))
    except BudgetExceeded as err:
        return str(err)


def _recorded_closures(monkeypatch) -> list:
    """The (net, roots, max_nodes) of every ``silent_closure`` call the trace
    searches make from now on."""
    calls = []
    closure = trace_inclusion.silent_closure

    def recorded(net, markings, max_nodes=50_000):
        calls.append((net, list(markings), max_nodes))
        return closure(net, markings, max_nodes)

    monkeypatch.setattr(trace_inclusion, "silent_closure", recorded)
    return calls


class TestConservativeClosure:
    """On a conservative net the silent closure is a breadth-first search over
    concrete markings; it must equal the accelerated search and its
    antichain."""

    def test_matches_the_accelerated_search(self, monkeypatch):
        rng = random.Random(2701)
        calls = _recorded_closures(monkeypatch)
        instances = 0
        while instances < 500:
            inst = random_net(rng, max_places=4, max_transitions=4, eps_ratio=0.5)
            net = inst.net
            if not conservative(net) or all(t.label != EPSILON for t in net.transitions):
                continue
            instances += 1
            budget = rng.choice((3, 20, 50_000))
            for a in (random_fsa(rng, alphabet=net.alphabet), random_fsa(rng, alphabet=net.alphabet)):
                for decide in (regular_included_in_lang, lambda a, i, b: traces_included(a, i.net, i.initial, b)):
                    try:
                        decide(a, inst, budget)
                    except BudgetExceeded:
                        pass
            extra = tuple(rng.randint(0, 3) for _ in net.places)
            for roots in ([inst.initial.counts, inst.final.counts], [inst.initial.counts, extra]):
                calls.append((net, [tuple(m) for m in roots], budget))
        for n, x in ((1, 2), (2, 0), (2, 1), (2, 2)):
            inst = ackermann_instance(n, x)
            value = ackermann_value(n, x)
            regular_included_in_lang(_chain_fsa(value + 1, True), inst)
            for budget in (50_000, 100):
                calls.append((inst.net, [inst.initial.counts, inst.final.counts], budget))
        seen = {"one level": 0, "several levels": 0, "over budget": 0}
        for net, roots, budget in calls:
            # and the budget that a closure overruns by any marking beyond its roots
            for max_nodes in (budget, len(set(roots))):
                expected = _accelerated_closure(net, roots, max_nodes)
                assert _closure_outcome(net, roots, max_nodes) == expected, (net, roots, max_nodes)
                seen["over budget"] += isinstance(expected, str)
            y = _positive_semiflow(net)
            levels = len({sum(map(mul, y, m)) for m in roots})
            seen["one level"] += levels == 1
            seen["several levels"] += levels > 1
        assert len(calls) > 3_000 and min(seen.values()) > 300, (len(calls), seen)

    def test_conservative_trace_searches_never_accelerate(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the accelerated search ran on a conservative net")

        monkeypatch.setattr(reach, "om_accelerate", forbidden)
        monkeypatch.setattr(trace_inclusion, "_accelerated_search", forbidden)
        inst = ackermann_instance(2, 1)
        value = ackermann_value(2, 1)
        assert regular_included_in_lang(_chain_fsa(value, True), inst) == (True, None)
        assert is_closed(inst, "up").counterexample == ("a",) * (value + 1)
        assert is_closed(inst, "down").answer == "yes"
        rng = random.Random(2702)
        searched = 0
        while searched < 50:
            inst = random_net(rng, eps_ratio=0.5)
            if conservative(inst.net):
                a = random_fsa(rng, alphabet=inst.net.alphabet)
                traces_included(a, inst.net, inst.initial)
                regular_included_in_lang(a, inst)
                searched += 1

    def test_other_nets_keep_the_accelerated_search(self, monkeypatch):
        searches = []
        search = trace_inclusion._accelerated_search

        def counted(*args, **kwargs):
            searches.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(trace_inclusion, "_accelerated_search", counted)
        inst = ackermann_instance(3, 0)
        assert not conservative(inst.net)
        assert regular_included_in_lang(_chain_fsa(5, True), inst) == (True, None)
        assert searches and all(net is inst.net for net in searches)

    def test_budget_boundary(self):
        """``silent-closure nodes`` is raised exactly when the closure has more
        than ``max_nodes`` markings, on both searches."""
        rng = random.Random(2703)
        ackermann = ackermann_instance(2, 1)
        cases = [(ackermann.net, tuple(ackermann.initial.counts))]
        while len(cases) < 60:
            inst = random_net(rng, eps_ratio=0.6)
            root = tuple(inst.initial.counts)
            if conservative(inst.net) and len(silent_closure(inst.net, [root])) > 1:
                cases.append((inst.net, root))
        for net, root in cases:
            size = len(silent_closure(net, [root]))
            assert _closure_outcome(net, [root], size) == _accelerated_closure(net, [root], size)
            assert len(silent_closure(net, [root], size)) == size
            overrun = f"silent-closure nodes budget of {size - 1} exceeded"
            assert _closure_outcome(net, [root], size - 1) == overrun
            assert _accelerated_closure(net, [root], size - 1) == overrun

    def test_omega_roots_keep_the_accelerated_search(self):
        # (omega, 0) -> (omega, 1) -> ... pumps q, and only acceleration ends it
        net = PetriNet(("a",), ("p", "q"), (Transition.make("move", EPSILON, {"p": 1}, {"q": 1}),))
        assert conservative(net)
        assert silent_closure(net, [(OMEGA, 0)], 10) == ((OMEGA, OMEGA),)
        assert silent_closure(net, [(2, 0), (OMEGA, 0)], 10) == ((OMEGA, OMEGA),)

    def test_no_silent_transition_needs_no_semiflows(self, monkeypatch):
        def forbidden(net):
            raise AssertionError("semiflows computed")

        monkeypatch.setattr(reach, "_farkas", forbidden)
        net = PetriNet(("a",), ("p", "q"), (Transition.make("t", "a", {"p": 1}, {"q": 1}),))
        assert silent_closure(net, [(1, 0), (0, 1), (1, 0), (0, 0)]) == ((0, 1), (1, 0))
        one_sided = PetriNet(
            ("a",), ("p", "q"),
            (Transition.make("t", "a", {"p": 1}, {"q": 1}), Transition.make("u", EPSILON, {"p": 1}, {})),
        )
        assert not conservative(one_sided)
        assert silent_closure(one_sided, [(2, 0)]) == ((2, 0),)


class TestRegularInclusion:
    def test_ab_inside(self, rackoff_ce):
        a = word_fsa(rackoff_ce.net.alphabet, ("a", "b"))
        assert regular_included_in_lang(a, rackoff_ce) == (True, None)

    def test_single_a_outside(self, rackoff_ce):
        a = word_fsa(rackoff_ce.net.alphabet, ("a",))
        ok, ce = regular_included_in_lang(a, rackoff_ce)
        assert not ok and ce == ("a",)

    def test_infinite_family_inside(self, rackoff_ce):
        aplusb = make_fsa(
            rackoff_ce.net.alphabet,
            {0, 1, 2},
            {(0, "a", 1), (1, "a", 1), (1, "b", 2)},
            0,
            {2},
        )
        assert regular_included_in_lang(aplusb, rackoff_ce) == (True, None)

    def test_builds_no_net(self, rackoff_ce, monkeypatch):
        # the end-letter reduction would build a lifted net on every call
        built = []
        post_init = PetriNet.__post_init__

        def counting(net):
            built.append(net)
            post_init(net)

        hand = make_fsa(("a", "b", "c"), {0, 1, 2}, {(0, "a", 1), (1, "a", 1), (1, "b", 2)}, 0, {2})
        closure = dc_fsa_pn(rackoff_ce).fsa
        monkeypatch.setattr(PetriNet, "__post_init__", counting)
        assert regular_included_in_lang(hand, rackoff_ce) == (True, None)
        assert regular_included_in_lang(closure, rackoff_ce)[0] is False
        assert built == []
        append_final_letter(rackoff_ce, "d")  # the counter sees a net built
        assert len(built) == 1

    def test_empty_language_trivially_inside(self, rackoff_ce):
        from covlang.fsa import empty_fsa

        assert regular_included_in_lang(
            empty_fsa(rackoff_ce.net.alphabet), rackoff_ce
        ) == (True, None)

    def test_matches_exact_membership_for_words(self):
        rng = random.Random(97)
        for _ in range(25):
            inst = random_net(rng, max_places=3, max_transitions=3)
            length = rng.randint(0, 5)
            w = tuple(rng.choice(inst.net.alphabet) for _ in range(length))
            a = word_fsa(inst.net.alphabet, w)
            ok, _ce = regular_included_in_lang(a, inst)
            assert ok == member(w, inst, "exact")


def _materialised_regular_inclusion(a, inst, max_nodes):
    """Reference for ``regular_included_in_lang``: the end-letter reduction
    on copies.  Trim ``a``, build a new automaton that appends the fresh
    letter after acceptance, search it with ``traces_included`` against the
    lifted net, then extend the trace breadth-first to acceptance.  The
    letters it is given sort after the fresh letter, so sorting tries the
    fresh letter first, as the library does on every alphabet."""
    fresh = "#"
    while fresh in set(a.alphabet) | set(inst.net.alphabet):
        fresh += "#"
    trimmed = trim_coaccessible(a)
    if trimmed is None:
        return True, None
    sink = ("accept!", fresh)
    alphabet = tuple(dict.fromkeys(a.alphabet + inst.net.alphabet)) + (fresh,)
    ended = make_fsa(
        alphabet,
        trimmed.states | {sink},
        trimmed.transitions | {(q, fresh, sink) for q in trimmed.finals},
        trimmed.initial,
        {sink},
    )
    lifted = append_final_letter(inst, fresh)
    ok, trace = traces_included(ended, lifted.net, lifted.initial, max_nodes)
    if ok:
        return True, None
    _index, current, accepting, step = _subsets(ended)
    for x in trace:
        current = step(current, x)
    seen = {current}
    queue = deque([(current, trace)])
    while queue:
        states, w = queue.popleft()
        if states & accepting:  # the sink, the one final state
            assert w[-1] == fresh
            return False, w[:-1]
        for x in sorted(alphabet):
            nxt = step(states, x)
            if nxt and nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w + (x,)))
    raise AssertionError("a trimmed automaton must reach acceptance")


def _outcome(decide, a, inst, max_nodes):
    try:
        return decide(a, inst, max_nodes)
    except BudgetExceeded as err:
        return "budget", str(err)


class TestEndLetterOnTheAutomaton:
    """The search that checks acceptance itself answers as the paper's
    end-letter reduction, materialised on copies of the net and automaton."""

    def test_matches_the_materialised_reduction(self):
        """Verdicts, counterexamples and budget overruns, on random automata
        and on the downward-closure automata of the same nets."""
        rng = random.Random(2026)
        compared = overruns = closures = 0
        for i in range(1_000):
            inst = random_net(rng, bpp=i % 2 == 0)
            automata = [random_fsa(rng, alphabet=inst.net.alphabet, max_states=4)]
            closure = dc_fsa_pn(inst, 200)
            if closure.exact:
                automata.append(closure.fsa)
                closures += 1
            for a in automata:
                for max_nodes in (4, 5_000):
                    got = _outcome(regular_included_in_lang, a, inst, max_nodes)
                    want = _outcome(_materialised_regular_inclusion, a, inst, max_nodes)
                    assert got == want, (i, max_nodes)
                    compared += 1
                    overruns += got[0] == "budget"
        assert closures >= 300 and compared >= 2_600 and overruns >= 40

    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_power_down_is_decided_before_trimming(self, n, monkeypatch):
        # the end letter is not enabled at the root: the answer needs no
        # co-accessible states
        def refuse(a):
            raise AssertionError("the automaton was trimmed")

        inst = bpp_power_instance(n)
        closure = dc_fsa_pn(inst).fsa
        monkeypatch.setattr(trace_inclusion, "_coaccessible", refuse)
        assert regular_included_in_lang(closure, inst) == (False, ())

    @pytest.mark.parametrize("letter", ["!", "b"])
    def test_the_end_letter_is_tried_first(self, letter):
        # L = {a}; the automaton accepts the empty word and the one-letter
        # word of a letter that the net never fires.  Acceptance is checked
        # at a node before its letters are tried, as the reduction tries its
        # end letter "#" first: whether the letter sorts before "#" ("!") or
        # after it ("b"), the empty word is the counterexample.
        net = PetriNet(("a", letter), ("p", "q"), (Transition.make("t", "a", {"p": 1}, {"q": 1}),))
        inst = NetInstance(net, Marking.of(net, {"p": 1}), Marking.of(net, {"q": 1}))
        a = make_fsa(("a", letter), (0, 1), {(0, letter, 1)}, 0, {0, 1})
        assert regular_included_in_lang(a, inst) == (False, ())


def _chain_fsa(length, all_final):
    """a^length, or every a^k with k <= length when all_final."""
    states = range(length + 1)
    finals = states if all_final else [length]
    return make_fsa(("a",), states, {(i, "a", i + 1) for i in range(length)}, 0, finals)


class TestAckermann:
    """The family's language is {a^k : k <= A_n(x)}: neither closed upward nor
    strictly more than its downward closure."""

    @pytest.mark.parametrize("n, x", [(2, 1), (3, 0)])
    def test_is_closed(self, n, x):
        inst = ackermann_instance(n, x)
        value = ackermann_value(n, x)
        up = is_closed(inst, "up")
        assert up.answer == "no" and up.counterexample == ("a",) * (value + 1)
        assert is_closed(inst, "down").answer == "yes"

    @pytest.mark.parametrize("n, x", [(2, 1), (3, 0)])
    def test_regular_inclusion(self, n, x):
        inst = ackermann_instance(n, x)
        value = ackermann_value(n, x)
        assert regular_included_in_lang(_chain_fsa(value, True), inst) == (True, None)
        beyond = _chain_fsa(value + 1, False)
        assert regular_included_in_lang(beyond, inst) == (False, ("a",) * (value + 1))

    @pytest.mark.parametrize("direction, enough", [("up", 579), ("down", 869)])
    def test_smallest_sufficient_budget(self, direction, enough):
        inst = ackermann_instance(2, 1)
        assert is_closed(inst, direction, max_nodes=enough - 1).answer == "unknown"
        assert is_closed(inst, direction, max_nodes=enough).answer != "unknown"


def _built_automata(monkeypatch) -> list:
    """Every ``Fsa`` built from now on, in order."""
    built = []
    post_init = Fsa.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Fsa, "__post_init__", counted)
    return built


def _closure_route_down(inst, max_nodes):
    """``is_closed(inst, "down")`` as it was decided before the empty-word
    lemma, kept as the reference: build the whole downward-closure automaton,
    then check its containment in the language."""
    try:
        result = dc_fsa_pn(inst, max_nodes)
        if not result.exact:
            raise BudgetExceeded("karp-miller nodes", max_nodes)
        ok, word = regular_included_in_lang(result.fsa, inst, max_nodes)
    except BudgetExceeded as err:
        return IsClosedResult("unknown", detail=str(err))
    return IsClosedResult("yes") if ok else IsClosedResult("no", counterexample=word)


def _with_pump(rng, inst):
    """The instance with one more transition that doubles a token on a
    place, one that the initial marking holds when there is one: that place
    is then unbounded."""
    net = inst.net
    marked = [p for p, c in zip(net.places, inst.initial.counts) if c] or list(net.places)
    place = rng.choice(marked)
    label = rng.choice((EPSILON, *net.alphabet))
    pump = Transition.make("pump", label, {place: 1}, {place: 2})
    pumped = PetriNet(net.alphabet, net.places, net.transitions + (pump,))
    return NetInstance(pumped, inst.initial, inst.final)


class TestDownwardByTheEmptyWord:
    def test_matches_the_closure_route(self):
        """The differential gate against ``_closure_route_down`` on 1,500
        seeded nets: the seed-2027 communication-free corpus, nets with
        synchronization, and nets with a pumped, unbounded place, each at a
        budget of 4, 40 or 4,000 nodes.  Wherever the reference answers, the
        verdict and the counterexample are the same; where it does not, an
        answer is checked by backward coverability."""
        draws = {
            "communication-free": random.Random(2027),
            "synchronizing": random.Random(2028),
            "pumped": random.Random(2029),
        }
        seen = dict.fromkeys(
            (
                "empty word in L", "empty word outside L", "L empty",
                "reference unknown", "answered past the reference",
                "empty word outside L, conservative", "empty word outside L, not conservative",
            ),
            0,
        )
        for i in range(1_500):
            kind = list(draws)[i % 3]
            rng = draws[kind]
            inst = random_net(
                rng, max_places=4, max_transitions=4, max_weight=2,
                bpp=kind == "communication-free",
            )
            if kind == "pumped":
                inst = _with_pump(rng, inst)
            max_nodes = (4, 40, 4_000)[i // 3 % 3]
            want = _closure_route_down(inst, max_nodes)
            got = is_closed(inst, "down", max_nodes)
            empty_word_in_l = member((), inst, "exact")
            if not empty_word_in_l:
                shape = "conservative" if conservative(inst.net) else "not conservative"
                seen[f"empty word outside L, {shape}"] += 1
            if want.answer != "unknown":
                assert got == want, (i, kind, max_nodes)
            else:
                seen["reference unknown"] += 1
                seen["answered past the reference"] += got.answer != "unknown"
            if got.answer == "unknown":
                continue
            if empty_word_in_l:
                seen["empty word in L"] += 1
            elif got.answer == "no":
                assert got.counterexample == () and coverable(inst)[0], (i, kind)
                seen["empty word outside L"] += 1
            else:
                assert not coverable(inst)[0], (i, kind)
                seen["L empty"] += 1
        assert min(seen.values()) >= 15, seen

    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_power_down_builds_no_automaton(self, n, monkeypatch):
        built = _built_automata(monkeypatch)
        result = is_closed(bpp_power_instance(n), "down")
        assert result.answer == "no" and result.counterexample == ()
        assert built == []

    def test_empty_word_in_language_builds_the_closure_automaton(self, monkeypatch):
        inst = ackermann_instance(2, 1)
        assert member((), inst, "exact")
        built = _built_automata(monkeypatch)
        assert is_closed(inst, "down").answer == "yes"
        assert len(built) == 1

    def test_power_17_stays_unknown_at_the_closure_budget(self):
        result = is_closed(bpp_power_instance(17), "down", 100_000)
        assert result == IsClosedResult(
            "unknown", detail="karp-miller nodes budget of 100000 exceeded"
        )


class TestIsClosed:
    def test_power_not_downward_closed(self):
        result = is_closed(bpp_power_instance(1), "down")
        assert result.answer == "no"
        w = result.counterexample
        inst = bpp_power_instance(1)
        assert member(w, inst, "down") and not member(w, inst, "exact")

    def test_loop_is_upward_closed(self):
        net = PetriNet(("a",), ("p",), (Transition.make("t", "a", {"p": 1}, {"p": 1}),))
        inst = NetInstance(net, Marking.of(net, {"p": 1}), Marking.zero(net))
        assert is_closed(inst, "up").answer == "yes"

    def test_silent_coverable_is_downward_closed(self):
        net = PetriNet(
            (), ("p", "q"), (Transition.make("t", EPSILON, {"p": 1}, {"q": 1}),)
        )
        inst = NetInstance(net, Marking.of(net, {"p": 1}), Marking.of(net, {"q": 1}))
        assert is_closed(inst, "down").answer == "yes"

    def test_rackoff_ce_is_not_upward_closed(self, rackoff_ce):
        result = is_closed(rackoff_ce, "up")
        assert result.answer == "no"
        w = result.counterexample
        assert member(w, rackoff_ce, "up") and not member(w, rackoff_ce, "exact")

    def test_counterexample_is_downward_gap(self, rackoff_ce):
        result = is_closed(rackoff_ce, "down")
        assert result.answer == "no"
        w = result.counterexample
        assert member(w, rackoff_ce, "down") and not member(w, rackoff_ce, "exact")
