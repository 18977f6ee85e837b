import random

import pytest

from corpus import random_net, random_product, random_sre
from covlang.closures import dc_fsa_pn
from covlang.errors import AlphabetMismatch, NotBpp, SolverUnavailable
from covlang.families import ackermann_instance, bpp_power_instance
from covlang.fsa import accepts
from covlang.nets import Marking, NetInstance
from covlang.presburger import evaluate, parse_smtlib_script, smtlib_export
from covlang.reach import member
from covlang.sre import (
    Letter,
    OptionalLetter,
    Product,
    Sre,
    Star,
    min_word,
    product,
    star,
)
from covlang.sre_inclusion import (
    ideal_inclusion,
    p_witness_system,
    product_in_dc_pn,
    pump_threshold,
    solve_bounded,
    sre_in_dc_bpp,
    sre_in_dc_pn,
    sre_in_uc_bpp,
    sre_in_uc_pn,
    staged_cover_system,
)
from covlang.textio import parse_sre

A4 = Sre((product(*[Letter("a")] * 4),))
A5 = Sre((product(*[Letter("a")] * 5),))
ASTAR = Sre((product(star("a")),))
EMPTY_STAR = Sre((product(star("")),))


class TestDcPn:
    def test_empty_star_iff_coverable(self, rackoff_ce, power2):
        assert sre_in_dc_pn(EMPTY_STAR, rackoff_ce).holds
        dead = NetInstance(
            power2.net, power2.initial, Marking.of(power2.net, {"pf": 5})
        )
        assert sre_in_dc_pn(EMPTY_STAR, dead).answer == "fails"

    def test_star_fails_on_finite_language(self, power2):
        verdict = sre_in_dc_pn(ASTAR, power2)
        assert verdict.answer == "fails"
        assert verdict.failing_product == ASTAR.products[0]

    def test_exact_word_holds(self, power2):
        assert sre_in_dc_pn(A4, power2).holds

    def test_longer_word_fails(self, power2):
        assert sre_in_dc_pn(A5, power2).answer == "fails"

    def test_counterexample_with_blocks(self, rackoff_ce):
        # {a}* . b is inside dc(a+b | a*c); {a}* . b . b is not
        ok = Sre((product(star("a"), Letter("b")),))
        bad = Sre((product(star("a"), Letter("b"), Letter("b")),))
        assert sre_in_dc_pn(ok, rackoff_ce).holds
        assert sre_in_dc_pn(bad, rackoff_ce).answer == "fails"

    def test_trailing_letter_enforced(self, rackoff_ce):
        # the pump alone is included, but no word may follow c
        assert sre_in_dc_pn(Sre((product(star("a")),)), rackoff_ce).holds
        trailing = Sre((product(star("a"), Letter("c"), Letter("b")),))
        assert sre_in_dc_pn(trailing, rackoff_ce).answer == "fails"

    def test_alphabet_mismatch(self, power2):
        with pytest.raises(AlphabetMismatch):
            sre_in_dc_pn(Sre((product(Letter("z")),)), power2)


def _reference(s, inst):
    """The verdict of simultaneous unboundedness, product by product."""
    for p in s.products:
        if not product_in_dc_pn(p, inst):
            return "fails"
    return "holds"


def _words(p, alphabet, k):
    """Every word of the product of length at most k."""
    words = {()}
    for atom in p.atoms:
        if isinstance(atom, Letter):
            tails = [(atom.letter,)]
        elif isinstance(atom, OptionalLetter):
            tails = [(), (atom.letter,)]
        else:
            letters = [a for a in alphabet if a in atom.letters]
            tails = longest = [()]
            for _ in range(k):
                longest = [u + (a,) for u in longest for a in letters]
                tails = tails + longest
        words = {w + u for w in words for u in tails if len(w) + len(u) <= k}
    return words


def _pumped(p, alphabet, states):
    """The product's word with each G* written as G, in alphabet order,
    states + 1 times, and each optional letter as its letter."""
    w = []
    for atom in p.atoms:
        if isinstance(atom, Star):
            w += [a for a in alphabet if a in atom.letters] * (states + 1)
        else:
            w.append(atom.letter)
    return tuple(w)


class TestIdealCheck:
    """``ideal_inclusion`` against the automaton's words and against
    membership in the downward closure, not against components."""

    def test_included_words_are_accepted_and_pumped_words_are_not(self):
        rng = random.Random(85)
        seen = {True: 0, False: 0}
        for _ in range(300):
            inst = random_net(rng, max_places=3, max_transitions=3, bpp=rng.random() < 0.5)
            closure = dc_fsa_pn(inst, 2_000)
            assert closure.exact
            a = closure.fsa
            included = ideal_inclusion(a)
            for _ in range(3):
                p = random_product(rng)
                alphabet = inst.net.alphabet
                if included(p):
                    for w in _words(p, alphabet, 4):
                        assert accepts(a, w), (inst, p, w)
                else:
                    w = _pumped(p, alphabet, len(a.states))
                    assert not member(w, inst, "down"), (inst, p, w)
                seen[included(p)] += 1
        assert min(seen.values()) > 200

    def test_word_enumeration_and_pumping(self):
        p = product(Letter("b"), star("ba"), OptionalLetter("a"))
        assert _words(p, ("a", "b"), 2) == {("b",), ("b", "a"), ("b", "b")}
        assert _pumped(p, ("a", "b"), 1) == ("b", "a", "b", "a", "b", "a")

    def test_partial_graph_still_proves_inclusion(self, rackoff_ce):
        # rackoff-ce's graph has 4 nodes and Ackermann 2:1's 869; cut short,
        # they still reach a covering node
        cases = [(rackoff_ce, 3), (ackermann_instance(2, 1), 20)]
        for inst, budget in cases:
            assert not dc_fsa_pn(inst, budget).exact
            verdict = sre_in_dc_pn(EMPTY_STAR, inst, max_nodes=budget)
            assert verdict.holds
            assert sre_in_dc_pn(EMPTY_STAR, inst).holds

    def test_partial_graph_never_fails(self):
        rng = random.Random(87)
        held = unknown = 0
        for _ in range(300):
            inst = random_net(rng, max_places=3, max_transitions=3, bpp=rng.random() < 0.5)
            s = random_sre(rng)
            exact = sre_in_dc_pn(s, inst).answer
            for budget in (1, 2, 3):
                answer = sre_in_dc_pn(s, inst, max_nodes=budget).answer
                if dc_fsa_pn(inst, budget).exact:
                    assert answer == exact
                elif answer == "holds":
                    assert exact == "holds", (inst, s, budget)
                    held += 1
                else:
                    assert answer == "unknown"
                    unknown += 1
        assert held > 25 and unknown > 100


class TestAgainstUnboundedness:
    """``sre_in_dc_pn`` returns the verdict of simultaneous unboundedness on
    synchronized product nets (``product_in_dc_pn``)."""

    @pytest.mark.parametrize("bpp", [True, False])
    def test_random_draws(self, bpp):
        rng = random.Random(11)
        verdicts = {"holds": 0, "fails": 0}
        for _ in range(1_500):
            inst = random_net(rng, max_places=3, max_transitions=3, max_weight=2, bpp=bpp)
            s = random_sre(rng)
            answer = sre_in_dc_pn(s, inst).answer
            assert answer == _reference(s, inst), (inst, s)
            verdicts[answer] += 1
        assert min(verdicts.values()) > 300

    @pytest.mark.parametrize("a, b", [(2, 1), (3, 0)])
    def test_ackermann(self, a, b):
        inst = ackermann_instance(a, b)
        for text in ("{a}*", "a.a", "{a}*.a", "{}*"):
            s = parse_sre(text)
            assert sre_in_dc_pn(s, inst).answer == _reference(s, inst), text

    @pytest.mark.parametrize("n", range(1, 10))
    def test_power_family(self, n):
        inst = bpp_power_instance(n)
        for s in (ASTAR, EMPTY_STAR):
            assert sre_in_dc_pn(s, inst).answer == _reference(s, inst)


def test_decision_builds_one_graph_and_no_product_net(rackoff_ce, monkeypatch):
    import covlang

    calls = {"right_product": 0, "km_graph": 0}
    for name in calls:
        original = getattr(covlang.nets if name == "right_product" else covlang.reach, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in vars(covlang).values():
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    s = parse_sre("{a}*.b + a.{a}* + c.c")
    assert len(s.products) == 3
    assert sre_in_dc_pn(s, rackoff_ce).answer == "fails"
    assert calls == {"right_product": 0, "km_graph": 1}


class TestUcPn:
    def test_letter_word(self, power2):
        assert sre_in_uc_pn(A4, power2).holds

    def test_star_minimal_word_empty(self, power2):
        verdict = sre_in_uc_pn(ASTAR, power2)
        assert verdict.answer == "fails"
        assert verdict.witness == ()

    def test_counterexample_saturated_expression(self, rackoff_ce):
        s = Sre(
            (
                product(
                    star("abc"), Letter("a"), star("abc"), Letter("b"), star("abc")
                ),
            )
        )
        assert sre_in_uc_pn(s, rackoff_ce).holds

    def test_node_budget_is_unknown(self, power2):
        verdict = sre_in_uc_pn(A4, power2, max_nodes=3)
        assert verdict.answer == "unknown"
        assert "backward-coverability markings budget of 3" in verdict.detail

    def test_single_word_matches_membership(self):
        rng = random.Random(71)
        for _ in range(20):
            inst = random_net(rng, max_places=3, max_transitions=3)
            length = rng.randint(0, 3)
            letters = [rng.choice(inst.net.alphabet) for _ in range(length)]
            s = Sre((Product(tuple(Letter(a) for a in letters)),))
            assert sre_in_uc_pn(s, inst).holds == member(
                tuple(letters), inst, "up"
            )


class TestDcBpp:
    def test_spec_examples(self, power2):
        assert sre_in_dc_bpp(EMPTY_STAR, power2).holds
        padded = Sre(
            (
                product(
                    OptionalLetter("a"),
                    star(""),
                    OptionalLetter("a"),
                    star(""),
                    OptionalLetter("a"),
                    star(""),
                    OptionalLetter("a"),
                ),
            )
        )
        assert sre_in_dc_bpp(padded, power2).holds
        assert sre_in_dc_bpp(ASTAR, power2).answer == "fails"

    def test_rejects_synchronizing_nets(self, rackoff_ce):
        with pytest.raises(NotBpp):
            sre_in_dc_bpp(ASTAR, rackoff_ce)

    def test_agrees_with_unboundedness_route(self):
        rng = random.Random(73)
        checked = 0
        for _ in range(12):
            inst = random_net(rng, max_places=3, max_transitions=3, bpp=True)
            for _ in range(4):
                s = random_sre(rng)
                assert sre_in_dc_bpp(s, inst).answer == _reference(s, inst), (s, inst)
                checked += 1
        assert checked == 48

    def test_single_word_matches_membership(self):
        rng = random.Random(75)
        for _ in range(15):
            inst = random_net(rng, max_places=3, max_transitions=3, bpp=True)
            length = rng.randint(0, 3)
            letters = [rng.choice(inst.net.alphabet) for _ in range(length)]
            s = Sre((Product(tuple(Letter(a) for a in letters)),))
            assert sre_in_dc_bpp(s, inst).holds == member(
                tuple(letters), inst, "down"
            )

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_empty_star_holds_on_power_family(self, n):
        # L = {a^(2^n)} is not empty, so the empty star is included
        inst = bpp_power_instance(n)
        assert sre_in_dc_bpp(EMPTY_STAR, inst).holds
        assert sre_in_dc_pn(EMPTY_STAR, inst).holds

    def test_star_fails_on_power_family(self):
        for n in range(1, 10):
            inst = bpp_power_instance(n)
            assert sre_in_dc_bpp(ASTAR, inst).answer == "fails"
            assert sre_in_dc_pn(ASTAR, inst).answer == "fails"


class TestUcBpp:
    def test_power_examples(self, power2):
        assert sre_in_uc_bpp(A4, power2).holds
        assert sre_in_uc_bpp(A5, power2).holds  # a4 embeds into a5
        assert sre_in_uc_bpp(ASTAR, power2).answer == "fails"

    def test_uncoverable_final_fails_on_empty_word(self, power2):
        dead = NetInstance(
            power2.net, power2.initial, Marking.of(power2.net, {"pf": 5})
        )
        assert sre_in_uc_bpp(EMPTY_STAR, dead).answer == "fails"

    def test_node_budget_is_unknown(self, power2):
        verdict = sre_in_uc_bpp(A4, power2, max_nodes=3)
        assert verdict.answer == "unknown"
        assert verdict.failing_product == A4.products[0]
        assert "backward-coverability markings budget of 3" in verdict.detail

    def test_verdict_matches_bounded_oracle(self):
        from covlang.nets import subword
        from covlang.reach import brute_force_language

        rng = random.Random(77)
        for _ in range(15):
            inst = random_net(rng, max_places=3, max_transitions=3, bpp=True)
            p = random_product(rng)
            w = min_word(p)
            verdict = sre_in_uc_bpp(Sre((p,)), inst)
            oracle = any(
                subword(v, w) for v in brute_force_language(inst, 8)
            )
            # a run longer than 8 steps may still cover with a word that
            # embeds into w, so only a bounded witness pins the verdict
            if oracle:
                assert verdict.holds


class TestChoiceDecomposition:
    def test_conjunction_over_products(self, power2):
        rng = random.Random(79)
        for _ in range(10):
            products = tuple(random_product(rng, alphabet=("a",)) for _ in range(2))
            s = Sre(products)
            whole = sre_in_dc_pn(s, power2)
            parts = [sre_in_dc_pn(Sre((p,)), power2) for p in products]
            assert whole.holds == all(v.holds for v in parts)

    def test_weakening_preserves_inclusion(self, power2):
        rng = random.Random(81)
        for _ in range(10):
            p = random_product(rng, alphabet=("a",))
            weaker = Product(
                tuple(
                    OptionalLetter(atom.letter) if isinstance(atom, Letter) else atom
                    for atom in p.atoms
                )
            )
            if sre_in_dc_pn(Sre((p,)), power2).holds:
                assert sre_in_dc_pn(Sre((weaker,)), power2).holds


class TestPWitnessSpec:
    def test_concrete_witness_checks(self, power2):
        _net, _formula, spec = p_witness_system(
            Sre((product(Letter("a"),),)).products[0], power2
        )
        # slots: (a, None) is wrong; normalized slots for single letter are
        # letters=(a,), blocks=() -> n=1, markings M1, M1'
        assert spec.letters == ("a",)
        m0 = power2.initial
        m1 = Marking.of(power2.net, {"pf": 4})
        assert spec.check([m0, m1], [["t", "ta", "ta", "ta", "ta"]])

    def test_rejects_wrong_chain(self, power2):
        _net, _formula, spec = p_witness_system(
            Sre((product(Letter("a"),),)).products[0], power2
        )
        m0 = power2.initial
        assert not spec.check([m0, m0], [["t", "ta"]])

    def test_threshold_guard_on_degenerate_nets(self):
        from covlang.nets import PetriNet, Transition

        net = PetriNet(("a",), ("p",), (Transition.make("t", "a", {}, {}),))
        inst = NetInstance(net, Marking.of(net, {"p": 1}), Marking.of(net, {"p": 2}))
        assert pump_threshold(inst) >= 3
        # final marking is never coverable: everything must fail
        assert sre_in_dc_bpp(EMPTY_STAR, inst).answer == "fails"
        assert sre_in_dc_pn(EMPTY_STAR, inst).answer == "fails"


class TestBuiltInSolverLimits:
    """``solve_bounded`` on the staged-witness formula, which no decision
    procedure solves.  Raising SolverUnavailable is the solver's unknown."""

    @staticmethod
    def _star_formula(inst):
        _net, formula, _spec = p_witness_system(ASTAR.products[0], inst)
        return formula, 4 * (pump_threshold(inst) + 1)

    def test_large_arc_weight_is_decided(self):
        # the weight 2^10 is one coefficient, not a chain of 1024 terms
        formula, box = self._star_formula(bpp_power_instance(10))
        assert solve_bounded(formula, box) is None

    def test_beyond_exact_float_is_unknown(self):
        # at n=12 the big-M constant is about 3.0e16 > 2^53
        formula, box = self._star_formula(bpp_power_instance(12))
        with pytest.raises(SolverUnavailable, match="float64"):
            solve_bounded(formula, box)

    def test_time_limit_is_unknown(self, power2, monkeypatch):
        import scipy.optimize

        from covlang.presburger import SOLVER_SECONDS

        limits = []

        def timed_out(*args, options=None, **kwargs):
            limits.append(options["time_limit"])
            return scipy.optimize.OptimizeResult(
                status=1, success=False, x=None, message="Time limit reached."
            )

        monkeypatch.setattr(scipy.optimize, "milp", timed_out)
        formula, box = self._star_formula(power2)
        with pytest.raises(SolverUnavailable, match="Time limit"):
            solve_bounded(formula, box)
        assert limits == [SOLVER_SECONDS]


class TestSmtArtifacts:
    def test_emission(self, power2):
        # a model of the staged witness found in a box proves the product
        # included, and it satisfies the exported script read back
        p = EMPTY_STAR.products[0]
        _net, formula, _spec = p_witness_system(p, power2)
        text = smtlib_export(formula)
        assert "(check-sat)" in text and "(set-logic QF_LIA)" in text
        model = solve_bounded(formula, 4 * (pump_threshold(power2) + 1))
        assert model is not None and product_in_dc_pn(p, power2)
        names, parsed = parse_smtlib_script(text)
        assert evaluate(parsed, {name: model.get(name, 0) for name in names})

    def test_staged_system_shapes(self, power2):
        nprime, _formula = staged_cover_system(("a", "a"), power2)
        stages = {p.split(".")[0] for p in nprime.places if p.startswith("e")}
        assert stages == {"e1", "e2"}
