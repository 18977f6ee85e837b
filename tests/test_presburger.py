import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from corpus import random_net
from covlang.errors import NotBpp, SolverUnavailable, UnboundVariable
from covlang.families import bpp_power_instance
from covlang.nets import EPSILON, Marking, PetriNet, Transition, fire
from covlang.presburger import (
    Add,
    And,
    Const,
    Exists,
    Leq,
    Not,
    ONE,
    Or,
    Scale,
    Sub,
    Var,
    ZERO,
    bpp_reach_formula,
    conj,
    equals,
    evaluate,
    exists,
    flatten_exists,
    free_vars,
    implies,
    lt,
    parse_smtlib_script,
    smtlib_export,
    solve_bounded,
    solve_exhaustive,
)

x, y, z = Var("x"), Var("y"), Var("z")


class TestEvaluate:
    def test_reflexive_leq(self):
        for v in range(4):
            assert evaluate(Leq(x, x), {"x": v})

    def test_exists_within_window(self):
        assert evaluate(Exists("y", Leq(Add(x, ONE), y)), {"x": 5})

    def test_threshold_guard(self):
        # (e < c -> b <= e) holds whenever e is at the threshold
        c = Const(10)
        guard = implies(lt(Var("e"), c), Leq(Var("b"), Var("e")))
        assert evaluate(guard, {"e": 10, "b": 99})
        assert not evaluate(guard, {"e": 9, "b": 99})
        assert evaluate(guard, {"e": 9, "b": 9})

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate(Leq(x, y), {"x": 1})

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    )
    def test_de_morgan(self, a, b):
        asg = {"x": a, "y": b}
        left = Leq(x, Const(2))
        right = Leq(y, Const(3))
        assert evaluate(Not(Or(left, right)), asg) == evaluate(
            And(Not(left), Not(right)), asg
        )
        assert evaluate(Not(And(left, right)), asg) == evaluate(
            Or(Not(left), Not(right)), asg
        )


class TestSolveBounded:
    def test_simple_witness(self):
        f = Exists("x", conj(Leq(Add(x, x), Const(3)), Not(Leq(x, ZERO))))
        assert solve_bounded(f, 3) == {"x": 1}

    def test_unsat(self):
        assert solve_bounded(Leq(ONE, ZERO), 4) is None

    def test_none_means_outside_box(self):
        f = Leq(Const(5), x)
        assert solve_bounded(f, 3) is None
        model = solve_bounded(f, 8)
        assert model is not None and evaluate(f, model)

    def test_milp_agrees_with_enumeration(self):
        rng = random.Random(51)
        names = ["x", "y", "z"]
        for _ in range(40):
            f = _random_formula(rng, names, depth=3)
            by_enum = solve_exhaustive(f, 3)
            by_milp = _milp_only(f, 3)
            assert (by_enum is None) == (by_milp is None)
            if by_milp is not None:
                qf, _ = flatten_exists(f)
                assert evaluate(qf, {**{n: 0 for n in free_vars(qf)}, **by_milp})

    def test_nested_exists_flatten(self):
        f = Exists("x", And(Leq(ONE, x), Exists("x", Leq(x, ZERO))))
        model = solve_bounded(f, 5)
        assert model is not None

    def test_renaming_does_not_capture_inner_binders(self):
        # the bound x is renamed to x~0, which must not capture the inner x~0
        f = And(
            Leq(x, Const(5)),
            Exists("x", Exists("x~0", And(Leq(x, ZERO), Leq(ONE, Var("x~0"))))),
        )
        model = solve_bounded(f, 6)
        assert model is not None and evaluate(f, model)

    def test_flatten_keeps_unrenamed_body(self):
        body = conj(Leq(Var("u"), x), Not(Leq(x, ONE)))
        qf, renaming = flatten_exists(exists(["u"], body))
        assert qf is body and renaming == {"u": "u"}

    @pytest.mark.parametrize("status", [1, 4])
    def test_milp_without_answer_raises(self, monkeypatch, status):
        import scipy.optimize

        def no_answer(*args, **kwargs):
            return scipy.optimize.OptimizeResult(
                status=status, success=False, x=None, message="no answer"
            )

        monkeypatch.setattr(scipy.optimize, "milp", no_answer)
        with pytest.raises(SolverUnavailable):
            solve_bounded(Leq(Const(5), x), 10**6)

    def test_invalid_milp_model_raises(self, monkeypatch):
        import numpy as np
        import scipy.optimize

        def zeros(c, **kwargs):
            return scipy.optimize.OptimizeResult(
                status=0, success=True, x=np.zeros(len(c)), message="bogus"
            )

        monkeypatch.setattr(scipy.optimize, "milp", zeros)
        with pytest.raises(SolverUnavailable):
            solve_bounded(Leq(Const(5), x), 10**6)


def _milp_only(f, bound):
    from covlang.presburger import _solve_milp, flatten_exists, free_vars

    qf, _renaming = flatten_exists(f)
    model = _solve_milp(qf, sorted(free_vars(qf)), bound)
    if model is not None and not evaluate(qf, model):
        raise AssertionError("invalid model from relaxation")
    return model


def _random_formula(rng, names, depth):
    if depth == 0 or rng.random() < 0.4:
        t1 = _random_term(rng, names)
        t2 = _random_term(rng, names)
        return Leq(t1, t2)
    roll = rng.random()
    if roll < 0.35:
        return And(
            _random_formula(rng, names, depth - 1),
            _random_formula(rng, names, depth - 1),
        )
    if roll < 0.7:
        return Or(
            _random_formula(rng, names, depth - 1),
            _random_formula(rng, names, depth - 1),
        )
    if roll < 0.85:
        return Not(_random_formula(rng, names, depth - 1))
    return Exists(rng.choice(names), _random_formula(rng, names, depth - 1))


def _random_term(rng, names):
    roll = rng.random()
    if roll < 0.4:
        return Var(rng.choice(names))
    if roll < 0.6:
        return Const(rng.randint(-3, 4))
    left = _random_term(rng, names)
    right = _random_term(rng, names)
    return Add(left, right) if rng.random() < 0.6 else Sub(left, right)


class TestBppReachFormula:
    def _models(self, net, m0, limit=4):
        psi = bpp_reach_formula(net, m0)
        out = set()
        for values in itertools.product(range(limit + 1), repeat=len(net.places)):
            asg = dict(zip(net.places, values))
            f = conj(psi, *[equals(Var(p), Const(v)) for p, v in asg.items()])
            if solve_bounded(f, max(8, limit)) is not None:
                out.add(values)
        return out

    def test_power_one_models(self):
        net = PetriNet(
            ("a",),
            ("p0", "p1", "pf"),
            (
                Transition.make("t", EPSILON, {"p0": 1}, {"p1": 2}),
                Transition.make("ta", "a", {"p1": 1}, {"pf": 1}),
            ),
        )
        got = self._models(net, Marking.of(net, {"p0": 1}), limit=2)
        assert got == {(1, 0, 0), (0, 2, 0), (0, 1, 1), (0, 0, 2)}

    def test_no_transitions(self):
        net = PetriNet(("a",), ("p",), ())
        assert self._models(net, Marking.of(net, {"p": 1}), limit=2) == {(1,)}

    def test_single_silent_move(self):
        net = PetriNet(
            (), ("p", "q"), (Transition.make("t", EPSILON, {"p": 1}, {"q": 1}),)
        )
        got = self._models(net, Marking.of(net, {"p": 1}), limit=1)
        assert got == {(1, 0), (0, 1)}

    def test_arc_weight_is_one_coefficient(self):
        inst = bpp_power_instance(64)
        script = smtlib_export(bpp_reach_formula(inst.net, inst.initial))
        assert "(* 18446744073709551616 x.t)" in script

    def test_rejects_synchronizing_nets(self, rackoff_ce):
        with pytest.raises(NotBpp):
            bpp_reach_formula(rackoff_ce.net, rackoff_ce.initial)

    def test_agrees_with_brute_force_both_directions(self):
        rng = random.Random(53)
        for _ in range(10):
            inst = random_net(rng, max_places=3, max_transitions=3, bpp=True)
            net = inst.net
            reachable = _bounded_reachable(net, inst.initial, token_cap=12)
            small = {
                m for m in reachable if sum(m) <= 5
            }
            got = self._models(net, inst.initial, limit=5)
            got_small = {m for m in got if sum(m) <= 5}
            assert got_small == small


def _bounded_reachable(net, m0, token_cap):
    seen = {m0.counts}
    frontier = [m0]
    while frontier:
        m = frontier.pop()
        for t in net.transitions:
            try:
                nxt = fire(net, m, t.name)
            except Exception:
                continue
            if nxt.token_count() > token_cap or nxt.counts in seen:
                continue
            seen.add(nxt.counts)
            frontier.append(nxt)
    return seen


class TestSmtlib:
    def test_simple_script(self):
        script = smtlib_export(Leq(x, ONE))
        assert "(declare-fun x () Int)" in script
        assert "(assert (>= x 0))" in script
        assert "(check-sat)" in script

    def test_nested_exists_flattened(self):
        script = smtlib_export(Exists("x", And(Leq(ONE, x), Exists("x", Leq(x, ZERO)))))
        assert script.count("declare-fun") == 2

    def test_round_trip_evaluation(self):
        rng = random.Random(55)
        for _ in range(20):
            f = _random_formula(rng, ["x", "y"], depth=2)
            qf, _ = flatten_exists(f)
            names, back = parse_smtlib_script(smtlib_export(f))
            assert set(names) == free_vars(qf)
            for values in itertools.product(range(3), repeat=len(names)):
                asg = dict(zip(sorted(names), values))
                # the parsed formula also carries the >= 0 guards, true on naturals
                assert evaluate(back, asg) == evaluate(qf, asg)

    def test_scaled_terms_round_trip(self):
        f = Leq(Sub(Scale(3, x), Const(2)), Add(Scale(-2, y), Const(7)))
        names, back = parse_smtlib_script(smtlib_export(f))
        assert "(* (- 2) y)" in smtlib_export(f)
        for values in itertools.product(range(4), repeat=2):
            asg = dict(zip(sorted(names), values))
            assert evaluate(back, asg) == evaluate(f, asg)
