"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each.  Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import random
import time

from corpus import random_fsa, random_net, random_sre
from covlang.closures import (
    bpp_cutoff_bound,
    bpp_short_bound,
    dc_fsa_pn,
    k_bounded_fsa,
    minimal_word_length_bounds,
    pump_threshold,
    uc_fsa,
)
from covlang.families import (
    ackermann_instance,
    ackermann_value,
    bpp_power_instance,
    rackoff_counterexample,
)
from covlang.fsa import (
    enumerate_words,
    equivalent,
    make_fsa,
    minimal_dfa_size,
)
from covlang.nets import (
    EPSILON,
    Marking,
    NetInstance,
    PetriNet,
    Transition,
    fire,
    subword,
)
from covlang.presburger import Const, Var, bpp_reach_formula, conj, equals, solve_bounded
from covlang.reach import (
    brute_force_language,
    is_coverable,
    longest_run_length,
    member,
)
from covlang.sre import Letter, Sre, min_word, product, star, to_fsa
from covlang.sre_inclusion import (
    p_witness_system,
    product_in_dc_pn,
    sre_in_dc_pn,
    sre_in_uc_bpp,
    sre_in_uc_pn,
    staged_cover_system,
)
from covlang.trace_inclusion import is_closed, net_has_trace, traces_included


def report(n, text):
    print(f"criterion {n:2d}: PASS - {text}")


def chain(limit, at_least=False):
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


def test_criterion_1_rackoff_counterexample_upward_closure():
    inst = rackoff_counterexample()
    started = time.perf_counter()
    result = uc_fsa(inst)
    elapsed = time.perf_counter() - started
    expected = to_fsa(
        Sre(
            (
                product(star("abc"), Letter("a"), star("abc"), Letter("b"), star("abc")),
                product(star("abc"), Letter("c"), star("abc")),
            )
        ),
        ("a", "b", "c"),
    )
    assert equivalent(result.fsa, expected)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"uc(counterexample) = S*aS*bS* + S*cS* in {elapsed:.2f}s")


def test_criterion_2_power_family_closures():
    checked = []
    elapsed_at_6 = None
    for n in range(1, 7):
        inst = bpp_power_instance(n)
        started = time.perf_counter()
        dc = dc_fsa_pn(inst).fsa
        uc = uc_fsa(inst).fsa
        size = minimal_dfa_size(dc)
        elapsed = time.perf_counter() - started
        limit = 2**n
        assert equivalent(dc, chain(limit))
        assert equivalent(uc, chain(limit, at_least=True))
        assert size >= 2**n
        checked.append(n)
        if n == 6:
            elapsed_at_6 = elapsed
    assert elapsed_at_6 < 5.0, f"n=6 took {elapsed_at_6:.2f}s"
    report(2, f"power family exact closures for n in 1..6, n=6 in {elapsed_at_6:.2f}s")


def test_criterion_3_ackermann_family_languages():
    started = time.perf_counter()
    cases = [(0, x) for x in range(4)] + [(1, x) for x in range(3)] + [(2, 0), (2, 1)]
    for n, x in cases:
        inst = ackermann_instance(n, x)
        value = ackermann_value(n, x)
        depth = longest_run_length(inst.net, inst.initial)
        words = brute_force_language(inst, depth)
        assert words == {("a",) * k for k in range(value + 1)}, (n, x)
        result = dc_fsa_pn(inst)
        assert result.exact
        assert equivalent(result.fsa, chain(value)), (n, x)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    report(3, f"Ackermann languages a^(<=A_n(x)) for {len(cases)} cases in {elapsed:.2f}s")


def test_criterion_4_bounded_run_automaton_oracle():
    rng = random.Random(2024)
    count = 0
    for _ in range(50):
        inst = random_net(rng, max_places=4, max_transitions=4, max_weight=2)
        for k in range(6):
            assert enumerate_words(k_bounded_fsa(inst, k), k) == brute_force_language(
                inst, k
            )
        count += 1
    report(4, f"bounded-run automata set-equal to brute force on {count} nets, k <= 5")


def test_criterion_5_membership_oracles():
    instances = [
        bpp_power_instance(0),
        bpp_power_instance(1),
        bpp_power_instance(2),
        ackermann_instance(0, 0),
        ackermann_instance(0, 1),
        ackermann_instance(0, 2),
    ]
    checked = 0
    for inst in instances:
        words8 = brute_force_language(inst, 8)
        for k in range(5):
            w = ("a",) * k
            expected = any(subword(w, v) for v in words8)
            assert member(w, inst, "down") == expected
            checked += 1
    # counterexample family: runs are unbounded, but every subword of length
    # <= 4 embeds into a covering run of at most 8 steps when it embeds at all
    ce = rackoff_counterexample()
    words8 = brute_force_language(ce, 8)
    for w in itertools.chain.from_iterable(
        itertools.product(ce.net.alphabet, repeat=k) for k in range(5)
    ):
        expected = any(subword(w, v) for v in words8)
        assert member(w, ce, "down") == expected
        checked += 1
    report(5, f"member(w, down) matched the bounded subword oracle on {checked} words")


def p_witness_box(inst, nprime):
    """Box for solving the staged-witness formula: a heuristic with no cited
    bound, so a model found in it proves inclusion and an empty box proves
    nothing."""
    return max(
        4 * (pump_threshold(inst) + 1)
        + inst.initial.token_count()
        + inst.final.token_count()
        + 16,
        len(nprime.transitions) + 1,
    )


def test_criterion_6_dc_inclusion_cross_procedure_agreement():
    rng = random.Random(2025)
    pairs = included = models = 0
    for _ in range(30):
        inst = random_net(rng, max_places=3, max_transitions=3, bpp=True)
        for _ in range(10):
            s = random_sre(rng)
            assert sre_in_dc_pn(s, inst).answer in ("holds", "fails")
            # the staged-witness formula in its sound direction: a model
            # found in the box means the product is included
            for p in s.products:
                holds = product_in_dc_pn(p, inst)
                nprime, formula, _spec = p_witness_system(p, inst)
                if solve_bounded(formula, p_witness_box(inst, nprime)) is not None:
                    assert holds, (inst, p)
                    models += 1
                included += holds
            pairs += 1
        empty_star = Sre((product(star("")),))
        verdict = sre_in_dc_pn(empty_star, inst)
        assert verdict.holds == is_coverable(inst)
    assert models > 0
    report(
        6,
        f"{models} staged-witness models in the box on {pairs} (net, sre) "
        f"pairs, all among the {included} products simultaneous "
        "unboundedness includes",
    )


def staged_cover_box(inst, nprime):
    """Box for solving the staged-cover formula: a heuristic with no cited
    bound (short-run length times the largest arc weight, plus slack)."""
    steps = bpp_short_bound(inst).value + 2
    m = inst.net.max_arc_weight()
    return max(
        inst.initial.token_count() + (m + 1) * steps + 8,
        len(nprime.transitions) + 1,
    )


def test_criterion_7_uc_inclusion_minimal_words():
    rng = random.Random(2026)
    checked = 0
    words = 0
    for _ in range(20):
        inst = random_net(rng, max_places=3, max_transitions=3, bpp=True)
        for _ in range(5):
            s = random_sre(rng)
            verdict = sre_in_uc_pn(s, inst)
            expected = all(member(min_word(p), inst, "up") for p in s.products)
            assert verdict.holds == expected
            assert sre_in_uc_bpp(s, inst).answer == verdict.answer
            # the staged-cover formula, solved in its box, decides the same
            # membership as backward coverability
            for p in s.products:
                w = min_word(p)
                nprime, formula = staged_cover_system(w, inst)
                by_formula = solve_bounded(formula, staged_cover_box(inst, nprime))
                assert (by_formula is not None) == member(w, inst, "up"), (inst, w)
                words += 1
            checked += 1
    report(
        7,
        f"uc-inclusion = minimal-word membership on {checked} pairs; "
        f"staged formula = coverability on {words} minimal words",
    )


def _fsa_traces(a, max_len):
    from covlang.fsa import _subsets

    _index, start, _accepting, step = _subsets(a)
    out = set()
    frontier = {start}
    words = {start: ()}
    out.add(())
    for _ in range(max_len):
        nxt = {}
        for states in frontier:
            w = words[states]
            for x in sorted(a.alphabet):
                s2 = step(states, x)
                if s2:
                    out.add(w + (x,))
                    if s2 not in nxt:
                        nxt[s2] = w + (x,)
        frontier = set(nxt)
        words = nxt
    return out


def _net_traces(net, m0, max_len, run_depth):
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


def test_criterion_8_trace_inclusion_vs_bounded_enumeration():
    rng = random.Random(2027)
    pairs = 0
    for _ in range(30):
        inst = random_net(rng, max_places=3, max_transitions=3)
        a = random_fsa(rng, alphabet=inst.net.alphabet, max_states=4)
        ok, ce = traces_included(a, inst.net, inst.initial, max_nodes=20_000)
        if ok:
            realizable = _net_traces(inst.net, inst.initial, 6, 12)
            for w in _fsa_traces(a, 6):
                assert w in realizable or net_has_trace(inst.net, inst.initial, w)
        else:
            assert ce in _fsa_traces(a, len(ce))
            assert ce not in _net_traces(inst.net, inst.initial, len(ce), 12)
            assert not net_has_trace(inst.net, inst.initial, ce)
        pairs += 1
    report(8, f"trace inclusion matched bounded enumeration on {pairs} pairs")


def test_criterion_9_being_closed():
    power1 = bpp_power_instance(1)
    verdict = is_closed(power1, "down")
    assert verdict.answer == "no"
    w = verdict.counterexample
    # any word in dc(L) \ L certifies the answer; the length-lexicographic
    # minimum is the empty word since L = {a^2}
    assert member(w, power1, "down") and not member(w, power1, "exact")

    loop_net = PetriNet(
        ("a",), ("p",), (Transition.make("t", "a", {"p": 1}, {"p": 1}),)
    )
    loop = NetInstance(loop_net, Marking.of(loop_net, {"p": 1}), Marking.zero(loop_net))
    assert is_closed(loop, "up").answer == "yes"

    silent = PetriNet(
        (), ("p", "q"), (Transition.make("t", EPSILON, {"p": 1}, {"q": 1}),)
    )
    silent_inst = NetInstance(
        silent, Marking.of(silent, {"p": 1}), Marking.of(silent, {"q": 1})
    )
    assert is_closed(silent_inst, "down").answer == "yes"
    report(9, "is-closed verdicts and certificates on the three reference cases")


def test_criterion_10_reachability_formula_vs_brute_force():
    rng = random.Random(2028)
    nets = 0
    queries = 0
    for _ in range(20):
        inst = random_net(rng, max_places=4, max_transitions=3, bpp=True)
        net = inst.net
        psi = bpp_reach_formula(net, inst.initial)
        reachable = _bounded_reachable(net, inst.initial, token_cap=14)
        small_reachable = {m for m in reachable if sum(m) <= 5}
        for values in itertools.product(range(6), repeat=len(net.places)):
            if sum(values) > 5:
                continue
            query = conj(
                psi,
                *[
                    equals(Var(p), Const(v))
                    for p, v in zip(net.places, values)
                ],
            )
            got = solve_bounded(query, 24) is not None
            assert got == (values in small_reachable), (net, values)
            queries += 1
        nets += 1
    report(10, f"reachability formula exact on {queries} markings over {nets} nets")


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


def test_criterion_11_bound_formulas():
    assert minimal_word_length_bounds(4, 0) == [1]
    assert minimal_word_length_bounds(4, 1) == [1, 17]
    for n in (3, 5, 9):
        seq = minimal_word_length_bounds(n, 3)
        assert seq[0] == 1
        for i in range(3):
            assert seq[i + 1] == (2**n * seq[i]) ** (i + 1) + seq[i]
    power2 = bpp_power_instance(2)
    assert bpp_cutoff_bound(power2).value == 1728
    assert bpp_short_bound(power2).value == 32
    report(11, "recurrence exact; cutoff(power 2) = 1728; short(power 2) = 32")
