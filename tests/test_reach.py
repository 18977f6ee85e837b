import hashlib
import random

import pytest

from corpus import random_fsa, random_net, random_product
from covlang.errors import AlphabetMismatch, BudgetExceeded
from covlang.families import ackermann_instance, bpp_power_instance, rackoff_counterexample
from covlang.nets import (
    Marking,
    NetInstance,
    PetriNet,
    Transition,
    fire_sequence,
    subword,
    sync_with_fsa,
)
from covlang.sre import default_order
from covlang.sre_inclusion import dc_unboundedness_system
from covlang.reach import (
    OMEGA,
    UpwardClosedSet,
    _semiflows,
    brute_force_language,
    coverable,
    km_graph,
    longest_run_length,
    member,
    om_covers_marking,
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


class TestKmGraph:
    def test_power_net_stays_finite_without_omega(self, power2):
        graph = km_graph(power2.net, power2.initial)
        assert all(
            all(v is not OMEGA for v in node) for node in graph.nodes
        )

    def test_spontaneous_producer_gets_omega(self):
        net = PetriNet(
            ("a",), ("p",), (Transition.make("t", "a", {}, {"p": 1}),)
        )
        graph = km_graph(net, Marking.zero(net))
        assert any(node[0] is OMEGA for node in graph.nodes)

    def test_counterexample_pump_place(self, rackoff_ce):
        graph = km_graph(rackoff_ce.net, rackoff_ce.initial)
        temp = rackoff_ce.net.place_index["temp"]
        assert any(node[temp] is OMEGA for node in graph.nodes)

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
                    om_covers_marking(node, m) for node in graph.nodes
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
            digest.update(repr((graph.nodes, graph.edges, graph.complete)).encode())
        assert digest.hexdigest() == self.DIGEST


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
                expected = any(node[i] is OMEGA for node in graph.nodes)
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
            expected = any(all(node[i] is OMEGA for i in idx) for node in graph.nodes)
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


class TestLongestRun:
    def test_terminating_families(self):
        from covlang.families import ackermann_instance

        inst = ackermann_instance(0, 2)
        assert longest_run_length(inst.net, inst.initial) == 7

    def test_unbounded_runs_detected(self, rackoff_ce):
        with pytest.raises(ValueError):
            longest_run_length(rackoff_ce.net, rackoff_ce.initial)
