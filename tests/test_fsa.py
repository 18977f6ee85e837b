import itertools
import random

import pytest

from corpus import random_fsa
from covlang.errors import AlphabetMismatch
from covlang.fsa import (
    Fsa,
    _subsets,
    accepts,
    empty_fsa,
    enumerate_words,
    equivalent,
    included,
    is_empty,
    make_fsa,
    determinize,
    minimal_dfa_size,
    saturate_down,
    saturate_up,
    trim_coaccessible,
    word_fsa,
)
from covlang.closures import dc_fsa_pn, uc_fsa_bpp
from covlang.families import bpp_power_instance
from covlang.nets import EPSILON, subword


def brute_words(alphabet, k):
    for n in range(k + 1):
        yield from itertools.product(alphabet, repeat=n)


class TestSaturateUp:
    def test_single_word(self):
        up = saturate_up(word_fsa(("a", "b"), ("a", "b")))
        assert accepts(up, ("b", "a", "a", "b", "a"))
        assert not accepts(up, ("b", "a"))

    def test_empty_language_stays_empty(self):
        assert is_empty(saturate_up(empty_fsa(("a",))))[0]

    def test_matches_subword_semantics_on_random_automata(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_fsa(rng, max_states=3)
            up = saturate_up(a)
            short = enumerate_words(a, 5)
            for w in brute_words(a.alphabet, 5):
                expected = any(subword(u, w) for u in short if len(u) <= len(w))
                assert accepts(up, w) == expected


class TestSaturateDown:
    def test_single_word(self):
        down = saturate_down(word_fsa(("a", "b"), ("a", "b")))
        assert enumerate_words(down, 2) == {(), ("a",), ("b",), ("a", "b")}

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(10):
            a = random_fsa(rng)
            once = saturate_down(a)
            assert equivalent(once, saturate_down(once))

    def test_matches_superword_semantics_on_random_automata(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_fsa(rng, max_states=3)
            down = saturate_down(a)
            for w in brute_words(a.alphabet, 5):
                assert accepts(down, w) == _embeds_into_accepted_word(a, w)


def _embeds_into_accepted_word(a, w):
    """Exact oracle: does the automaton accept some superword of w?

    Search over (state, matched-prefix-length) pairs; matching greedily is
    complete for subword embedding.
    """
    alive = trim_coaccessible(a)
    if alive is None:
        return False
    out = {}
    for q, x, q2 in a.transitions:
        out.setdefault(q, []).append((x, q2))
    seen = {(a.initial, 0)}
    stack = [(a.initial, 0)]
    while stack:
        q, j = stack.pop()
        if j == len(w) and q in alive.states:
            return True
        for x, q2 in out.get(q, ()):
            j2 = j + 1 if (x != "" and j < len(w) and w[j] == x) else j
            for target in {(q2, j2), (q2, j)}:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
    return False


class TestDecide:
    def test_word_inside_its_upward_closure(self):
        a = word_fsa(("a", "b"), ("a", "b"))
        assert included(a, saturate_up(a))[0]

    def test_saturation_idempotence_via_equivalence(self):
        rng = random.Random(9)
        for _ in range(10):
            a = saturate_up(random_fsa(rng))
            assert equivalent(a, saturate_up(a))

    def test_membership_in_power_dc(self, power2):
        dc = dc_fsa_pn(power2).fsa
        assert accepts(dc, ("a",) * 4)
        assert not accepts(dc, ("a",) * 5)

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            included(empty_fsa(("a",)), empty_fsa(("b",)))

    def test_counterexample_is_length_lex_minimal(self):
        # L(a) = {a,b}*, L(b) = words without 'aa'
        a = make_fsa(("a", "b"), {0}, {(0, "a", 0), (0, "b", 0)}, 0, {0})
        b = make_fsa(
            ("a", "b"),
            {0, 1},
            {(0, "b", 0), (0, "a", 1), (1, "b", 0)},
            0,
            {0, 1},
        )
        ok, ce = included(a, b)
        assert not ok and ce == ("a", "a")

    def test_down_of_up_contains_both_closures(self):
        rng = random.Random(13)
        for _ in range(15):
            a = random_fsa(rng)
            both = saturate_down(saturate_up(a))
            assert included(saturate_up(a), both)[0]
            assert included(saturate_down(a), both)[0]

    def test_inclusion_agrees_with_enumeration(self):
        rng = random.Random(11)
        for _ in range(25):
            a, b = random_fsa(rng), random_fsa(rng)
            ok, ce = included(a, b)
            wa = enumerate_words(a, 6)
            wb = enumerate_words(b, 6)
            if ok:
                assert wa <= wb
            else:
                assert ce in wa and ce not in wb


class TestMinimalDfaSize:
    def test_bounded_chain(self):
        chain = make_fsa(
            ("a",), range(5), [(i, "a", i + 1) for i in range(4)], 0, set(range(5))
        )
        assert minimal_dfa_size(chain) == 6

    def test_empty_language(self):
        assert minimal_dfa_size(empty_fsa(("a",))) == 1

    def test_tail_language(self):
        tail = make_fsa(
            ("a",), range(5), [(i, "a", min(i + 1, 4)) for i in range(5)], 0, {4}
        )
        assert minimal_dfa_size(tail) == 5

    def test_agrees_with_moore_and_frozenset_subsets(self):
        rng = random.Random(2024)
        for _ in range(2500):
            a = _random_nfa(rng)
            states, _delta, _start, _finals = _oracle_determinize(a)
            assert len(determinize(a)[0]) == len(states)
            assert minimal_dfa_size(a) == _oracle_minimal_size(a)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_power_family_closed_forms(self, n):
        inst = bpp_power_instance(n)
        assert minimal_dfa_size(dc_fsa_pn(inst).fsa) == 2**n + 2
        assert minimal_dfa_size(uc_fsa_bpp(inst)) == 2**n + 1


_NAMES = [*range(10), -1, (0,), (1, "x"), ((), None), None, "q", ("q", 0)]


def _random_nfa(rng):
    """NFA with mixed state names, silent cycles and unreachable states; some
    have more than eight states, so their subsets span two bytes."""
    alphabet = rng.sample(("a", "b", "c"), rng.randint(0, 3))
    size = rng.randint(1, 7) if rng.random() < 0.7 else rng.randint(8, 14)
    states = rng.sample(_NAMES, size)
    labels = alphabet + [EPSILON]
    edges = {
        (rng.choice(states), rng.choice(labels), rng.choice(states))
        for _ in range(rng.randint(0, 3 * len(states)))
    }
    if rng.random() < 0.3:
        cycle = rng.sample(states, rng.randint(1, len(states)))
        edges |= {(q, EPSILON, q2) for q, q2 in zip(cycle, cycle[1:] + cycle[:1])}
    finals = {q for q in states if rng.random() < 0.3} if rng.random() < 0.8 else set()
    return make_fsa(alphabet, states, edges, rng.choice(states), finals)


def _oracle_determinize(a):
    """Complete DFA over frozenset subset states, by breadth-first search."""
    out = {}
    for q, x, q2 in a.transitions:
        out.setdefault((q, x), set()).add(q2)

    def close(states):
        seen = set(states)
        stack = list(states)
        while stack:
            for q2 in out.get((stack.pop(), EPSILON), ()):
                if q2 not in seen:
                    seen.add(q2)
                    stack.append(q2)
        return frozenset(seen)

    letters = sorted(a.alphabet)
    start = close({a.initial})
    states = {start}
    delta = {}
    queue = [start]
    for s in queue:
        for x in letters:
            nxt = close({q2 for q in s for q2 in out.get((q, x), ())})
            delta[(s, x)] = nxt
            if nxt not in states:
                states.add(nxt)
                queue.append(nxt)
    finals = {s for s in states if s & a.finals}
    return states, delta, start, finals


class TestSubsets:
    """The one subset construction that every query walks, against the
    frozenset oracle."""

    def test_agrees_with_the_oracle(self):
        rng = random.Random(2025)
        for _ in range(600):
            a = _random_nfa(rng)
            if a.alphabet and rng.random() < 0.5:  # a letter listed twice
                alphabet = a.alphabet + a.alphabet[:1]
                a = make_fsa(alphabet, a.states, a.transitions, a.initial, a.finals)
            states, delta, start, finals = _oracle_determinize(a)
            index, start_mask, accepting, step = _subsets(a)

            def as_set(mask):
                return frozenset(q for q, i in index.items() if mask >> i & 1)

            assert as_set(start_mask) == start
            assert as_set(accepting) == a.finals
            masks = [start_mask]
            for mask in masks:  # grows while it is walked
                assert bool(mask & accepting) == (as_set(mask) in finals)
                for x in a.alphabet:
                    nxt = step(mask, x)
                    assert as_set(nxt) == delta[as_set(mask), x]
                    if nxt not in masks:
                        masks.append(nxt)
                assert step(mask, "z") == 0
            assert len(masks) == len(states) and set(map(as_set, masks)) == states
            assert all(step(0, x) == 0 for x in a.alphabet)


def _oracle_minimal_size(a):
    """Moore refinement: recompute every signature until no class splits."""
    states, delta, _start, finals = _oracle_determinize(a)
    letters = sorted(a.alphabet)
    block = {s: (s in finals) for s in states}
    while True:
        signature = {
            s: (block[s],) + tuple(block[delta[(s, x)]] for x in letters) for s in states
        }
        classes = {}
        for s in states:
            classes.setdefault(signature[s], len(classes))
        new_block = {s: classes[signature[s]] for s in states}
        if len(set(new_block.values())) == len(set(block.values())):
            return len(set(new_block.values()))
        block = new_block


class TestEnumerate:
    def test_too_short_cutoff(self):
        assert enumerate_words(word_fsa(("a", "b"), ("a", "b")), 1) == set()

    def test_downward_closure_of_ab(self):
        down = saturate_down(word_fsa(("a", "b"), ("a", "b")))
        assert enumerate_words(down, 2) == {(), ("a",), ("b",), ("a", "b")}

    def test_long_words_need_no_recursion(self):
        star = make_fsa(("a",), {0}, {(0, "a", 0)}, 0, {0})
        words = enumerate_words(star, 1500)
        assert len(words) == 1501 and ("a",) * 1500 in words

    def test_bounded_language_of_counterexample(self, rackoff_ce):
        from covlang.closures import k_bounded_fsa

        kb = k_bounded_fsa(rackoff_ce, 2)
        assert enumerate_words(kb, 2) == {("a", "b"), ("a", "c"), ("c",)}


class TestTrim:
    def test_keeps_coaccessible_only(self):
        a = make_fsa(("a",), {0, 1, 2}, {(0, "a", 1), (0, "a", 2)}, 0, {1})
        trimmed = trim_coaccessible(a)
        assert trimmed.states == frozenset({0, 1})

    def test_empty_language_returns_none(self):
        assert trim_coaccessible(empty_fsa(("a",))) is None


class TestFromOutEdges:
    """A table is validated as the triples it stands for would be; it is the
    automaton's one stored edge form."""

    def test_undeclared_letter(self):
        with pytest.raises(ValueError, match="undeclared letter 'b'"):
            Fsa.from_out_edges(("a",), {0: (("a", 1), ("b", 1)), 1: ()}, 0, [1])

    def test_target_missing_from_the_table(self):
        with pytest.raises(ValueError, match="transition endpoint not declared"):
            Fsa.from_out_edges(("a",), {0: (("a", 1), ("a", 2)), 1: ()}, 0, [1])

    def test_undeclared_initial_and_final_states(self):
        with pytest.raises(ValueError, match="initial state not declared"):
            Fsa.from_out_edges(("a",), {0: ()}, 1, [])
        with pytest.raises(ValueError, match="final states not declared"):
            Fsa.from_out_edges(("a",), {0: ()}, 0, [1])

    def test_silent_edges_need_no_letter(self):
        a = Fsa.from_out_edges(("a",), {0: ((EPSILON, 1),), 1: (("a", 1),)}, 0, [1])
        assert a == make_fsa(("a",), {0, 1}, {(0, EPSILON, 1), (1, "a", 1)}, 0, {1})

    def test_make_fsa_groups_and_deduplicates_the_triples(self):
        triples = [(0, "a", 1), (0, EPSILON, 2), (0, "a", 1), [0, EPSILON, 2]]
        a = make_fsa(("a",), [0, 1, 2], triples, 0, [2])
        assert a.out_edges() == {0: (("a", 1), (EPSILON, 2)), 1: (), 2: ()}
        assert a.transitions == {(0, "a", 1), (0, EPSILON, 2)}
        with pytest.raises(ValueError, match="transition endpoint not declared"):
            make_fsa(("a",), [0], [(1, "a", 0)], 0, [])

    def test_row_order_does_not_matter(self):
        rows = ((("a", 1), (EPSILON, 0)), ((EPSILON, 0), ("a", 1)))
        a, b = (Fsa.from_out_edges(("a",), {0: row, 1: ()}, 0, [1]) for row in rows)
        assert a.out_edges() != b.out_edges()
        assert a == b and hash(a) == hash(b)
        assert a != Fsa.from_out_edges(("a",), {0: rows[0][:1], 1: ()}, 0, [1])
