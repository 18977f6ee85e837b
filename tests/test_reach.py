import hashlib
import random
import re
from collections import deque
from math import inf
from operator import ge

import pytest

from corpus import random_fsa, random_net, random_product
from covlang import reach
from covlang.closures import dc_fsa_pn
from covlang.errors import AlphabetMismatch, BudgetExceeded
from covlang.families import ackermann_instance, bpp_power_instance, rackoff_counterexample
from covlang.nets import (
    EPSILON,
    Marking,
    NetInstance,
    PetriNet,
    Transition,
    fire_sequence,
    subword,
    sync_with_fsa,
)
from covlang.sre import default_order
from covlang.sre_inclusion import dc_unboundedness_system, sre_in_dc_pn
from covlang.textio import parse_sre
from covlang.trace_inclusion import silent_closure
from covlang.reach import (
    OMEGA,
    UpwardClosedSet,
    _accelerated_search,
    _Search,
    _semiflows,
    _Tree,
    brute_force_language,
    conservative,
    coverable,
    forward_cover,
    km_graph,
    longest_run_length,
    member,
    minimal_words,
    om_accelerate,
    om_fire,
    simultaneously_unbounded,
)


class TestCoverable:
    def test_counterexample_single_step(self, rackoff_ce):
        ok, witness = coverable(rackoff_ce)
        assert ok
        end = fire_sequence(rackoff_ce.net, rackoff_ce.initial, witness)
        assert end.covers(rackoff_ce.final)
        assert witness == ["rt_a"]

    def test_zero_final_empty_witness(self, rackoff_ce):
        inst = NetInstance(
            rackoff_ce.net, rackoff_ce.initial, Marking.zero(rackoff_ce.net)
        )
        assert coverable(inst) == (True, [])

    def test_power_witness_length(self, power2):
        ok, witness = coverable(power2)
        assert ok and len(witness) == 5
        end = fire_sequence(power2.net, power2.initial, witness)
        assert end.covers(power2.final)

    def test_uncoverable(self, power2):
        inst = NetInstance(
            power2.net, power2.initial, Marking.of(power2.net, {"pf": 5})
        )
        assert coverable(inst) == (False, None)

    def test_agrees_with_brute_force_on_random_nets(self):
        rng = random.Random(41)
        for _ in range(40):
            inst = random_net(rng, max_places=3, max_transitions=3)
            ok, witness = coverable(inst)
            brute = brute_force_language(inst, 5)
            if brute:
                assert ok
            if ok:
                end = fire_sequence(inst.net, inst.initial, witness)
                assert end.covers(inst.final)


class TestSemiflowPruning:
    def test_semiflows_are_nonnegative_invariants(self):
        rng = random.Random(5)
        flows = 0
        for i in range(500):
            net = random_net(rng, max_weight=3, bpp=i % 2 == 0).net
            idx = net.place_index
            for y in _semiflows(net):
                weights = dict(y)
                assert weights and all(v > 0 for v in weights.values())
                for t in net.transitions:
                    effect = sum(weights.get(idx[p], 0) * w for p, w in t.post)
                    effect -= sum(weights.get(idx[p], 0) * w for p, w in t.pre)
                    assert effect == 0
                flows += 1
        assert flows >= 100

    def test_power_net_has_one_semiflow(self):
        flows = _semiflows(bpp_power_instance(3).net)
        assert [tuple(dict(y).get(i, 0) for i in range(3)) for y in flows] == [(8, 1, 1)]

    @staticmethod
    def _agrees_with_km_graph(inst):
        ok, witness = coverable(inst)
        graph = km_graph(inst.net, inst.initial, max_nodes=5_000, partial=True)
        assert graph.complete
        assert ok == bool(graph.covering_nodes(inst.final))
        if ok:
            end = fire_sequence(inst.net, inst.initial, witness)
            assert end.covers(inst.final)

    def test_agrees_with_km_graph_on_random_nets(self):
        rng = random.Random(61)
        for i in range(1_000):
            self._agrees_with_km_graph(
                random_net(rng, max_places=3, max_transitions=3, bpp=i % 2 == 0)
            )

    def test_agrees_with_km_graph_on_synchronized_nets(self):
        # every synchronized net has a semiflow: the one control token
        rng = random.Random(67)
        for i in range(1_000):
            base = random_net(rng, max_places=2, max_transitions=3)
            mode = ("full", "right")[i % 2]
            synced = sync_with_fsa(base.net, random_fsa(rng, max_states=3), mode)
            assert _semiflows(synced.net)
            self._agrees_with_km_graph(synced.make_instance(base))

    def test_power_cover_witness(self):
        ok, witness = coverable(bpp_power_instance(8))
        assert ok and witness == ["t"] + ["ta"] * 256

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("mode", ["exact", "up"])
    def test_power_member_exact_and_up(self, mode, n):
        inst = bpp_power_instance(n)
        assert member(("a",) * 2**n, inst, mode)
        assert not member(("a",) * (2**n - 1), inst, mode)

    def test_power_member_down(self):
        inst = bpp_power_instance(5)
        assert member(("a",) * 32, inst, "down")
        assert member(("a",) * 31, inst, "down")


class TestForwardCover:
    def test_agrees_with_backward_coverability(self):
        """Over all transitions it decides coverability; over the silent
        ones, whether the empty word is in L."""
        rng = random.Random(2031)
        seen = dict.fromkeys(
            ((shape, found) for shape in (True, False) for found in (True, False)), 0
        )
        for i in range(600):
            inst = random_net(
                rng, max_places=4, max_transitions=5, max_weight=2, bpp=i % 2 == 0,
                eps_ratio=0.5,
            )
            net, m0, final = inst.net, inst.initial, inst.final
            names = [t.name for t in net.transitions]
            silent = [t.name for t in net.transitions if t.label == EPSILON]
            found = forward_cover(net, m0, final, names)
            assert found == coverable(inst)[0], i
            assert forward_cover(net, m0, final, silent) == member((), inst, "exact"), i
            seen[conservative(net), found] += 1
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("n", [0, 1, 5, 10])
    def test_power_budget_boundary_is_the_closure_graph(self, n):
        # 2^n + 2 reachable markings, the covering one last
        inst = bpp_power_instance(n)
        net = inst.net
        names = [t.name for t in net.transitions]
        assert conservative(net)
        assert forward_cover(net, inst.initial, inst.final, names, 2**n + 2)
        with pytest.raises(BudgetExceeded, match=f"karp-miller nodes budget of {2**n + 1} "):
            forward_cover(net, inst.initial, inst.final, names, 2**n + 1)
        assert dc_fsa_pn(inst, 2**n + 2).exact and not dc_fsa_pn(inst, 2**n + 1).exact


class TestKmGraph:
    def test_power_net_stays_finite_without_omega(self, power2):
        graph = km_graph(power2.net, power2.initial)
        assert all(
            all(v != OMEGA for v in node) for node in graph.nodes
        )

    def test_spontaneous_producer_gets_omega(self):
        net = PetriNet(
            ("a",), ("p",), (Transition.make("t", "a", {}, {"p": 1}),)
        )
        graph = km_graph(net, Marking.zero(net))
        assert any(node[0] == OMEGA for node in graph.nodes)

    def test_counterexample_pump_place(self, rackoff_ce):
        graph = km_graph(rackoff_ce.net, rackoff_ce.initial)
        temp = rackoff_ce.net.place_index["temp"]
        assert any(node[temp] == OMEGA for node in graph.nodes)

    def test_budget(self, rackoff_ce):
        with pytest.raises(BudgetExceeded):
            km_graph(rackoff_ce.net, rackoff_ce.initial, max_nodes=1)

    def test_partial_graph_flagged(self, rackoff_ce):
        graph = km_graph(rackoff_ce.net, rackoff_ce.initial, max_nodes=1, partial=True)
        assert not graph.complete

    def test_every_bounded_reachable_marking_is_dominated(self):
        rng = random.Random(43)
        for _ in range(20):
            inst = random_net(rng, max_places=3, max_transitions=3)
            try:
                graph = km_graph(inst.net, inst.initial, max_nodes=3_000)
            except BudgetExceeded:
                continue
            reachable = {inst.initial}
            frontier = [inst.initial]
            for _depth in range(8):
                nxt = []
                for m in frontier:
                    for t in inst.net.transitions:
                        try:
                            from covlang.nets import fire

                            m2 = fire(inst.net, m, t.name)
                        except Exception:
                            continue
                        if m2 not in reachable:
                            reachable.add(m2)
                            nxt.append(m2)
                frontier = nxt
            for m in reachable:
                assert any(
                    all(map(ge, node, m.counts)) for node in graph.nodes
                )


def _seeded_nets(count=400):
    rng = random.Random(2024)
    return [random_net(rng, max_places=4, max_transitions=4) for _ in range(count)]


class TestKmGolden:
    # sha256 of these graphs as km_graph built them before it shared its
    # search loop with simultaneously_unbounded and silent_closure
    DIGEST = "b89d9008ae1e38fdb67febb35c53d542f3efadc9fafc63b662b8935f380a14e2"

    def test_graphs_match_golden_digest(self):
        runs = [(inst, 5_000) for inst in _seeded_nets()]
        runs += [
            (rackoff_counterexample(), 5_000),
            (bpp_power_instance(4), 5_000),
            (ackermann_instance(1, 2), 5_000),
            (ackermann_instance(2, 1), 300),  # stops partial
        ]
        digest = hashlib.sha256()
        for inst, budget in runs:
            graph = km_graph(inst.net, inst.initial, max_nodes=budget, partial=True)
            # the digest predates omega as inf, when it printed as OMEGA
            rendered = repr((graph.nodes, graph.edges, graph.complete))
            digest.update(re.sub(r"\binf\b", "OMEGA", rendered).encode())
        assert digest.hexdigest() == self.DIGEST


class TestOmegaIsInf:
    """Omega is ``math.inf`` in every omega-marking; finite coordinates stay
    exact ints, however large."""

    HUGE = 10**400  # too large for a float

    def test_omega_is_math_inf(self):
        assert OMEGA is inf

    def test_coordinates_are_ints_or_omega(self):
        runs = [(inst, 5_000) for inst in _seeded_nets()]
        runs += [(rackoff_counterexample(), 5_000), (ackermann_instance(2, 1), 300)]
        with_omega = {"km_graph": 0, "silent_closure": 0}
        for inst, budget in runs:
            graph = km_graph(inst.net, inst.initial, max_nodes=budget, partial=True)
            roots = [tuple(inst.initial.counts), tuple(inst.final.counts)]
            closure, certificates = silent_closure(inst.net, roots, 5_000)
            for engine, markings in (
                ("km_graph", graph.nodes), ("silent_closure", (*closure, *certificates))
            ):
                for m in markings:
                    assert all(type(v) is int or v == OMEGA for v in m), (inst, m)
                    with_omega[engine] += OMEGA in m
        assert min(with_omega.values()) >= 100, with_omega

    def _pump(self, label, init, post):
        net = PetriNet(
            ("a",), ("big", "pump"), (Transition.make("t", label, {"pump": 1}, post),)
        )
        return net, Marking.of(net, init)

    def test_huge_count_beside_an_omega(self):
        for label in ("a", EPSILON):
            net, m0 = self._pump(label, {"big": self.HUGE, "pump": 1}, {"pump": 2})
            graph = km_graph(net, m0)
            assert graph.nodes == ((self.HUGE, 1), (self.HUGE, OMEGA))
            closure, _ = silent_closure(net, [tuple(m0.counts)])
            assert closure == (((self.HUGE, OMEGA),) if label == EPSILON else ((self.HUGE, 1),))

    def test_huge_weight_onto_an_omega(self):
        for label in ("a", EPSILON):
            net, m0 = self._pump(label, {"pump": 1}, {"pump": 2, "big": self.HUGE})
            graph = km_graph(net, m0)
            assert graph.nodes == ((0, 1), (OMEGA, OMEGA))
            assert graph.edges == ((0, "t", 1), (1, "t", 1))
            closure, _ = silent_closure(net, [tuple(m0.counts)])
            assert closure == (((OMEGA, OMEGA),) if label == EPSILON else ((0, 1),))


def _om_accelerate_reference(candidate, ancestors):
    """Acceleration against every ancestor of the chain, until nothing changes."""
    current = candidate
    changed = True
    while changed:
        changed = False
        for anc in ancestors:
            if anc != current and all(map(ge, current, anc)):
                lifted = tuple(inf if x > y else x for x, y in zip(current, anc))
                if lifted != current:
                    current = lifted
                    changed = True
    return current


def _accelerated_search_reference(
    net, roots, names, max_nodes, budget_kind, stop=None, partial=False
):
    """The accelerated search with no index: each pop rebuilds its ancestor
    chain from parent pointers, every successor is compared with the whole
    chain, and the cover set is scanned in full."""
    search = _Search([], [], [])
    keys, parents = search.nodes, search.parents
    steps = [(name, *net.arcs[name][1:]) for name in names]
    index = {}
    for root in roots:
        if root not in index:
            index[root] = len(keys)
            keys.append(root)
            parents.append(None)
            if stop is not None and stop(root):
                search.found = True
                return search
    active = dict(enumerate(keys)) if stop is not None else {}
    frontier = deque(range(len(keys)))
    while frontier:
        i = frontier.popleft()
        if stop is not None and i not in active:
            continue
        node = keys[i]
        chain = [node]
        step = parents[i]
        while step is not None:
            chain.append(keys[step[0]])
            step = parents[step[0]]
        for name, pre, post in steps:
            succ = om_fire(node, pre, post)
            if succ is None:
                continue
            accel = _om_accelerate_reference(succ, chain)
            target = index.get(accel)
            if target is None:
                if stop is not None:
                    if any(all(map(ge, k, accel)) for k in active.values()):
                        continue
                    if stop(accel):
                        search.found = True
                        return search
                if len(keys) >= max_nodes:
                    if not partial:
                        raise BudgetExceeded(budget_kind, max_nodes)
                    search.complete = False
                    continue
                target = index[accel] = len(keys)
                keys.append(accel)
                parents.append((i, name, accel != succ))
                frontier.append(target)
                if stop is not None:
                    for j in [j for j, k in active.items() if all(map(ge, accel, k))]:
                        del active[j]
                    active[target] = accel
            search.edges.append((i, name, target))
    return search


def _outcome(search_fn, *args, **kwargs):
    try:
        search = search_fn(*args, **kwargs)
    except BudgetExceeded:
        return "budget"
    return search.nodes, search.parents, search.edges, search.complete, search.found


class TestIndexedSearch:
    """The rank/support-indexed search against the full chain walk."""

    def test_matches_the_chain_walk_on_seeded_nets(self):
        rng = random.Random(2029)
        seen = {
            "omega": 0, "found": 0, "unfound": 0, "budget": 0, "incomplete": 0,
            "several roots": 0, "ten nodes or more": 0,
        }
        for i in range(2_100):
            inst = random_net(
                rng, max_places=4, max_transitions=5, max_weight=3, bpp=i % 2 == 0,
                eps_ratio=0.5,
            )
            net = inst.net
            names = [t.name for t in net.transitions]
            roots = [tuple(rng.randint(0, 3) for _ in net.places)]
            stop = None
            mode = i % 3
            if mode == 1:  # silent transitions only, from several roots
                names = [t.name for t in net.transitions if t.label == EPSILON]
                roots.append(tuple(inst.final.counts))
                roots.append(tuple(rng.randint(0, 3) for _ in net.places))
            elif mode == 2:  # the cover set behind simultaneously_unbounded
                targets = rng.sample(range(len(net.places)), rng.randint(1, len(net.places)))

                def stop(node, targets=targets):
                    return all(node[t] == inf for t in targets)

            budget = rng.choice((4, 400, 400))
            partial = rng.random() < 0.5
            args = (net, roots, names, budget, "nodes")
            expected = _outcome(
                _accelerated_search_reference, *args, stop=stop, partial=partial
            )
            got = _outcome(_accelerated_search, *args, stop=stop, partial=partial)
            assert got == expected, (inst, mode)
            if expected == "budget":
                seen["budget"] += 1
                continue
            nodes, parents, _edges, complete, found = expected
            seen["incomplete"] += not complete
            seen["ten nodes or more"] += len(nodes) >= 10
            seen["omega"] += any(OMEGA in node for node in nodes)
            seen["several roots"] += parents.count(None) > 1
            if stop is not None:
                seen["found" if found else "unfound"] += 1
        assert min(seen.values()) >= 50, seen

    def test_a_lift_reopens_ancestors_of_the_lower_pre_lift_rank(self):
        # (0, 100) ranks above the successor (1, 5), so the walk skips it;
        # the lift against (1, 4) makes (1, omega), which (0, 100) lies below
        tree = _Tree(2)
        root = tree.add((0, 100), -1)
        node = tree.add((1, 4), root)
        assert tree.lower[node] == -1
        assert om_accelerate((1, 5), node, tree) == (inf, inf)
        assert _om_accelerate_reference((1, 5), [(1, 4), (0, 100)]) == (inf, inf)

        net = PetriNet(
            ("a",),
            ("x", "y"),
            (
                Transition.make("t1", "a", {"y": 96}, {"x": 1}),
                Transition.make("t2", "a", {"x": 1}, {"x": 1, "y": 1}),
            ),
        )
        graph = km_graph(net, Marking.of(net, {"y": 100}))
        assert graph.nodes == ((0, 100), (1, 4), (OMEGA, OMEGA))

    def test_bpp_power_compares_a_bounded_number_of_ancestors(self, monkeypatch):
        # the Karp-Miller graph of bpp-power(n) is one chain of 2^n + 2
        # nodes; the walk reads the rank of each ancestor it visits, once or
        # twice, and a walk over the whole chain would read 2^(n-1) on average
        visits = {"ranks": 0, "successors": 0}
        walking = [False]

        class CountedRanks(list):
            def __getitem__(self, i):
                visits["ranks"] += walking[0]
                return super().__getitem__(i)

        class CountedTree(_Tree):
            def __init__(self, places):
                super().__init__(places)
                self.ranks = CountedRanks()

        accelerate = reach.om_accelerate

        def counted_accelerate(candidate, node, tree):
            visits["successors"] += 1
            walking[0] = True
            try:
                return accelerate(candidate, node, tree)
            finally:
                walking[0] = False

        monkeypatch.setattr(reach, "_Tree", CountedTree)
        monkeypatch.setattr(reach, "om_accelerate", counted_accelerate)
        inst = bpp_power_instance(10)
        graph = km_graph(inst.net, inst.initial)
        assert len(graph.nodes) == 2**10 + 2
        assert visits["successors"] == 2**10 + 1
        assert visits["ranks"] <= 4 * visits["successors"]

    def test_bpp_power_12_star_fails(self):
        verdict = sre_in_dc_pn(parse_sre("{a}*"), bpp_power_instance(12))
        assert verdict.answer == "fails"


class TestFireableSteps:
    """A node fires only the transitions whose pre-places (arcs of weight
    > 0) all hold a token or omega there."""

    def test_km_graph_fires_only_transitions_with_marked_pre_places(self, monkeypatch):
        fired = []

        def recorded(m, pre, post):
            fired.append((m, pre))
            return om_fire(m, pre, post)

        inst = ackermann_instance(2, 1)
        expected = km_graph(inst.net, inst.initial)
        monkeypatch.setattr(reach, "om_fire", recorded)
        graph = km_graph(inst.net, inst.initial)
        assert graph == expected
        assert all(m[i] > 0 for m, pre in fired for i, w in pre if w > 0)
        assert len(fired) < len(graph.nodes) * len(inst.net.transitions)

    def _weight_zero_net(self, label):
        # built directly: Transition.make would drop the weight-0 arc
        grow = Transition("grow", label, (("empty", 0),), (("full", 1),))
        return PetriNet(("a",), ("empty", "full"), (grow,))

    def test_a_weight_zero_arc_on_an_empty_place_fires_in_km_graph(self):
        net = self._weight_zero_net("a")
        graph = km_graph(net, Marking.zero(net))
        assert graph.nodes == ((0, 0), (0, OMEGA))
        assert graph.edges == ((0, "grow", 1), (1, "grow", 1))

    def test_a_weight_zero_arc_on_an_empty_place_fires_in_silent_closure(self):
        net = self._weight_zero_net(EPSILON)
        closure, _certificates = silent_closure(net, [(0, 0)])
        assert closure == ((0, OMEGA),)


class TestSuppn:
    def test_vacuous(self, power2):
        assert simultaneously_unbounded(power2.net, power2.initial, [])

    def test_bounded_place(self, power2):
        assert not simultaneously_unbounded(power2.net, power2.initial, ["p1"])

    def test_pumpable_place(self, rackoff_ce):
        assert simultaneously_unbounded(rackoff_ce.net, rackoff_ce.initial, ["temp"])

    def test_agrees_with_omega_places_of_the_km_graph(self):
        pairs = unbounded = 0
        for inst in _seeded_nets():
            graph = km_graph(inst.net, inst.initial, max_nodes=5_000, partial=True)
            if not graph.complete:
                continue
            for i, p in enumerate(inst.net.places):
                expected = any(node[i] == OMEGA for node in graph.nodes)
                assert simultaneously_unbounded(inst.net, inst.initial, [p]) == expected
                pairs += 1
                unbounded += expected
        assert pairs >= 1_000
        assert 0 < unbounded < pairs

    def test_cover_set_pruning_agrees_with_the_km_graph_on_sre_products(self):
        # simultaneously_unbounded prunes covered nodes; the whole graph
        # must carry omega on every target exactly when it answers True
        rng = random.Random(83)
        checked = {True: 0, False: 0}
        unbounded = 0
        while sum(checked.values()) < 2_000:
            bpp = rng.random() < 0.5
            inst = random_net(rng, max_places=3, max_transitions=3, bpp=bpp)
            p = random_product(rng)
            order = default_order(inst.net.alphabet)
            net, m0, targets = dc_unboundedness_system(p, inst, order)
            graph = km_graph(net, m0, max_nodes=3_000, partial=True)
            if not graph.complete:
                continue
            idx = [net.place_index[t] for t in targets]
            expected = any(all(node[i] == OMEGA for i in idx) for node in graph.nodes)
            assert simultaneously_unbounded(net, m0, targets) == expected, (inst, p)
            checked[bpp] += 1
            unbounded += expected
        assert min(checked.values()) >= 800
        assert 0 < unbounded < 2_000


class TestMember:
    def test_exact_example(self, rackoff_ce):
        assert member(("a", "b"), rackoff_ce, "exact")

    def test_up_examples(self, rackoff_ce):
        assert not member(("b",), rackoff_ce, "up")
        assert member(("a", "a", "b"), rackoff_ce, "up")

    def test_down_examples(self, power2):
        assert member(("a",) * 3, power2, "down")
        assert not member(("a",) * 5, power2, "down")

    def test_budget(self, power2):
        with pytest.raises(BudgetExceeded):
            member(("a",) * 4, power2, "down", max_nodes=5)

    def test_undeclared_letter(self, power2):
        with pytest.raises(AlphabetMismatch):
            member(("z",), power2, "exact")

    def test_down_agrees_with_bounded_oracle_on_short_run_families(self):
        from covlang.families import ackermann_instance, bpp_power_instance

        instances = [
            bpp_power_instance(0),
            bpp_power_instance(1),
            bpp_power_instance(2),
            ackermann_instance(0, 0),
            ackermann_instance(0, 1),
            ackermann_instance(0, 2),
        ]
        for inst in instances:
            words = brute_force_language(inst, 8)
            alphabet = inst.net.alphabet
            candidates = [()] + [
                ("a",) * k for k in range(1, 5) if "a" in alphabet
            ]
            for w in candidates:
                expected = any(subword(w, v) for v in words)
                assert member(w, inst, "down") == expected


class TestBruteForce:
    def test_counterexample_k2(self, rackoff_ce):
        assert brute_force_language(rackoff_ce, 2) == {
            ("a", "b"),
            ("a", "c"),
            ("c",),
        }

    def test_zero_budget(self, rackoff_ce):
        inst = NetInstance(
            rackoff_ce.net, rackoff_ce.initial, Marking.zero(rackoff_ce.net)
        )
        assert brute_force_language(inst, 0) == {()}

    def test_power_unique_run(self, power2):
        assert brute_force_language(power2, 5) == {("a",) * 4}

    def test_counterexample_closed_form(self, rackoff_ce):
        words = {
            w for w in brute_force_language(rackoff_ce, 7) if len(w) <= 6
        }
        closed_form = {("a",) * k + ("b",) for k in range(1, 6)} | {
            ("a",) * k + ("c",) for k in range(0, 6)
        }
        assert words == {w for w in closed_form if len(w) <= 6}


class TestUpwardClosedSet:
    def test_insert_keeps_antichain(self):
        rng = random.Random(47)
        for _ in range(20):
            s = UpwardClosedSet()
            for _ in range(15):
                m = Marking(tuple(rng.randint(0, 3) for _ in range(3)))
                s.insert(m)
                assert s.is_antichain()

    def test_contains_monotone(self):
        s = UpwardClosedSet([Marking((1, 1))])
        assert s.contains(Marking((2, 1)))
        assert not s.contains(Marking((1, 0)))

    def test_matches_the_list_scan(self):
        rng = random.Random(53)
        for _ in range(300):
            places = rng.randint(1, 4)
            indexed, naive = UpwardClosedSet(), _UpwardClosedSetReference()
            for _ in range(rng.randint(1, 40)):
                m = Marking(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(places)))
                assert indexed.contains(m) == naive.contains(m)
                assert indexed.insert(m) == naive.insert(m)
                assert indexed.basis == naive.basis


class _UpwardClosedSetReference:
    """The basis as a list, scanned in full on every test."""

    def __init__(self):
        self.basis = []

    def contains(self, m):
        return any(m.covers(b) for b in self.basis)

    def insert(self, m):
        if self.contains(m):
            return False
        self.basis = [b for b in self.basis if not b.covers(m)]
        self.basis.append(m)
        return True


def _pre_marking_reference(net, target, t):
    """Smallest marking from which firing t yields a marking covering target."""
    _label, pre, post = net.arcs[t.name]
    counts = list(target.counts)
    for i, w in post:
        counts[i] = max(counts[i] - w, 0)
    for i, w in pre:
        counts[i] += w
    return Marking(tuple(counts))


def _coverable_reference(inst, max_nodes=100_000):
    """Backward coverability on the list-scanned basis, with every semiflow
    sum computed from scratch and every basis marking tested for a witness
    after each layer."""
    net = inst.net
    bounds = [
        (y, sum(v * inst.initial.counts[i] for i, v in y)) for y in _semiflows(net)
    ]

    def uncoverable(m):
        return any(sum(v * m.counts[i] for i, v in y) > bound for y, bound in bounds)

    if uncoverable(inst.final):
        return False, None
    goal = _UpwardClosedSetReference()
    goal.insert(inst.final)
    chain = {inst.final: None}

    def extract():
        start = next((b for b in goal.basis if inst.initial.covers(b)), None)
        if start is None:
            return None
        witness = []
        step = chain[start]
        while step is not None:
            name, nxt = step
            witness.append(name)
            step = chain[nxt]
        return witness

    frontier = [inst.final]
    inserted = 1
    while frontier:
        new_frontier = []
        for b in frontier:
            for t in net.transitions:
                pre = _pre_marking_reference(net, b, t)
                if uncoverable(pre) or not goal.insert(pre):
                    continue
                inserted += 1
                if inserted > max_nodes:
                    raise BudgetExceeded("backward-coverability markings", max_nodes)
                chain[pre] = (t.name, b)
                new_frontier.append(pre)
        frontier = new_frontier
        witness = extract()
        if witness is not None:
            return True, witness
    return False, None


def _coverable_outcome(coverable_fn, inst, max_nodes):
    try:
        return coverable_fn(inst, max_nodes)
    except BudgetExceeded:
        return "budget"


class TestIndexedCoverable:
    """The support-indexed backward search against the list scan."""

    def test_matches_the_list_scan_on_seeded_nets(self):
        rng = random.Random(2031)
        seen = {
            "yes": 0, "no": 0, "budget": 0, "no, with a semiflow": 0,
            "witness of two steps or more": 0,
        }
        for i in range(2_400):
            kind = i % 4
            if kind < 2:  # communication-free, then synchronizing, with a larger final
                inst = random_net(
                    rng, max_places=4, max_transitions=4, max_weight=3, bpp=kind == 0
                )
                final = Marking(tuple(rng.randint(0, 4) for _ in inst.net.places))
                inst = NetInstance(inst.net, inst.initial, final)
            else:  # a product with an automaton, in either mode
                base = random_net(rng, max_places=3, max_transitions=3)
                mode = ("full", "right")[kind - 2]
                synced = sync_with_fsa(base.net, random_fsa(rng, max_states=4), mode)
                inst = synced.make_instance(base)
            budget = rng.choice((3, 10, 200))
            expected = _coverable_outcome(_coverable_reference, inst, budget)
            assert _coverable_outcome(coverable, inst, budget) == expected, (inst, budget)
            if expected == "budget":
                seen["budget"] += 1
                continue
            ok, witness = expected
            seen["yes" if ok else "no"] += 1
            seen["witness of two steps or more"] += ok and len(witness) >= 2
            seen["no, with a semiflow"] += not ok and bool(_semiflows(inst.net))
        assert min(seen.values()) >= 150, seen

    def test_a_place_twice_in_the_post_arcs(self):
        # t takes min(b_p, 2) tokens of p for its two arcs of weight 1; the
        # semiflow 1*p + 2*q then prunes pre(final, t) = q:1 at y . m0 = 1
        t = Transition("t", "a", (("q", 1),), (("p", 1), ("p", 1)))
        net = PetriNet(("a",), ("p", "q"), (t,))
        inst = NetInstance(net, Marking((1, 0)), Marking((1, 0)))
        for budget in (1, 10):
            assert coverable(inst, budget) == _coverable_reference(inst, budget) == (True, [])

    @pytest.mark.parametrize(
        "query, inserted",
        [
            (lambda budget: coverable(bpp_power_instance(7), budget)[0], 130),
            (lambda budget: member(("a",) * 16, bpp_power_instance(4), "down", budget), 188),
        ],
        ids=["cover bpp-power(7)", "member down a^16 bpp-power(4)"],
    )
    def test_budget_counts_the_inserted_markings(self, query, inserted):
        # the counts of the list-scanned search
        assert query(inserted)
        with pytest.raises(BudgetExceeded):
            query(inserted - 1)


class TestMinimalWords:
    """The backward saturation over (marking, word) pairs."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_power_budget_counts_the_inserted_pairs(self, n):
        """bpp-power(n) inserts 2^n + 2 pairs: (M_f, ()), one per letter
        step back to p1:2^n, and the initial marking; a semiflow rules out
        every other pre-image of the silent step."""
        inst = bpp_power_instance(n)
        words = minimal_words(inst, 2**n + 2)
        assert words == [(("a",) * 2**n, ["t"] + ["ta"] * 2**n)]
        with pytest.raises(BudgetExceeded) as err:
            minimal_words(inst, 2**n + 1)
        assert (err.value.kind, err.value.budget) == ("backward pairs", 2**n + 1)

    def test_rackoff_counterexample(self, rackoff_ce):
        assert minimal_words(rackoff_ce) == [(("c",), ["rt_a"]), (("a", "b"), ["rt_help", "rt_b"])]

    def test_covered_final_marking_gives_the_empty_word(self, rackoff_ce):
        inst = NetInstance(rackoff_ce.net, rackoff_ce.initial, Marking.zero(rackoff_ce.net))
        assert minimal_words(inst, 0) == [((), [])]

    def test_semiflow_rules_out_the_final_marking(self, power2):
        inst = NetInstance(power2.net, power2.initial, Marking.of(power2.net, {"pf": 5}))
        assert minimal_words(inst) == []

    def test_a_smaller_marking_with_a_longer_word_keeps_the_larger_pair(self):
        """One layer back from q:1 holds (p:2, ()) through the silent step
        and then (p:1, x): incomparable, the second has the smaller marking
        and the longer word.  Only the first leads back to m0 = s:1 with
        the empty word, so L's one minimal word is ()."""
        net = PetriNet(
            ("x", "y"),
            ("s", "p", "q"),
            (
                Transition.make("ts", EPSILON, {"s": 1}, {"p": 2}),
                Transition.make("ty", "y", {"s": 1}, {"p": 1}),
                Transition.make("tsil", EPSILON, {"p": 2}, {"q": 1}),
                Transition.make("tx", "x", {"p": 1}, {"q": 1}),
            ),
        )
        inst = NetInstance(net, Marking.of(net, {"s": 1}), Marking.of(net, {"q": 1}))
        assert minimal_words(inst) == [((), ["ts", "tsil"])]

    def test_runs_replay_and_the_words_are_minimal(self):
        """Each word comes with the run that its pair chain spells: the run
        fires from m0, covers M_f and reads the word.  No word of L lies
        strictly below one of the words: deleting any one letter leaves a
        word outside uc(L), by backward coverability on the product net."""
        rng = random.Random(2033)
        seen = {"no word": 0, "two words or more": 0, "silent steps": 0, "long word": 0}
        for i in range(1_000):
            inst = random_net(
                rng, ("a", "b", "c"), max_places=4, max_transitions=6, bpp=i % 2 == 0
            )
            if i % 3 == 0:
                final = Marking(tuple(rng.randint(0, 3) for _ in inst.net.places))
                inst = NetInstance(inst.net, inst.initial, final)
            words = minimal_words(inst, 5_000)
            net = inst.net
            for w, run in words:
                assert fire_sequence(net, inst.initial, run).covers(inst.final), (i, w)
                labels = [net.transition(name).label for name in run]
                assert tuple(x for x in labels if x != EPSILON) == w, (i, run)
                seen["silent steps"] += EPSILON in labels
                seen["long word"] += len(w) >= 4
                for k in range(len(w)):
                    assert not member(w[:k] + w[k + 1:], inst, "up"), (i, w, k)
            assert len({w for w, _run in words}) == len(words)
            seen["no word"] += not words
            seen["two words or more"] += len(words) >= 2
        assert min(seen.values()) >= 30, seen


class TestLongestRun:
    def test_terminating_families(self):
        from covlang.families import ackermann_instance

        inst = ackermann_instance(0, 2)
        assert longest_run_length(inst.net, inst.initial) == 7

    def test_unbounded_runs_detected(self, rackoff_ce):
        with pytest.raises(ValueError):
            longest_run_length(rackoff_ce.net, rackoff_ce.initial)
