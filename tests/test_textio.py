import random

import pytest

from corpus import random_fsa, random_net
from covlang.errors import ParseError
from covlang.families import bpp_power_instance, rackoff_counterexample
from covlang.fsa import equivalent
from covlang.sre import Sre, to_fsa
from covlang.textio import (
    fsa_to_dot,
    net_to_dot,
    parse_fsa,
    parse_net,
    parse_sre,
    parse_word,
    print_fsa,
    print_net,
    print_sre,
)


class TestNetDocuments:
    def test_round_trip_counterexample(self):
        inst = rackoff_counterexample()
        assert parse_net(print_net(inst)) == inst

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(25):
            inst = random_net(rng)
            assert parse_net(print_net(inst)) == inst

    def test_unknown_place_rejected(self):
        doc = "place p\ntrans t pre q:1\n"
        with pytest.raises(ParseError):
            parse_net(doc)

    def test_weights_are_arbitrary_precision(self):
        doc = (
            "alphabet a\nplace p\nplace q\n"
            f"trans t label a pre p:1 post q:{10**30}\ninit p:1\n"
        )
        inst = parse_net(doc)
        assert inst.net.transition("t").post_map["q"] == 10**30

    def test_malformed_flow(self):
        with pytest.raises(ParseError) as err:
            parse_net("place p\ninit p\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize("kind", ["init", "final"])
    def test_a_marking_is_one_token(self, kind):
        # with a space for the comma, "p:1 q:2" used to parse as p:1 alone
        with pytest.raises(ParseError) as err:
            parse_net(f"place p\nplace q\n{kind} p:1 q:2\n")
        assert err.value.line_no == 3
        inst = parse_net(f"place p\nplace q\n{kind} p:1,q:2\n")
        marking = inst.initial if kind == "init" else inst.final
        assert marking.as_dict(inst.net) == {"p": 1, "q": 2}

    def test_comments_and_blanks_ignored(self):
        doc = "# heading\n\nplace p  # trailing\ninit p:1\n"
        inst = parse_net(doc)
        assert inst.net.places == ("p",)


class TestFsaDocuments:
    def test_round_trip_language(self):
        rng = random.Random(103)
        for _ in range(20):
            a = random_fsa(rng)
            b = parse_fsa(print_fsa(a))
            assert equivalent(a, b)

    def test_requires_initial(self):
        with pytest.raises(ParseError):
            parse_fsa("state q0\n")

    def test_eps_token(self):
        a = parse_fsa("state q0 initial final\nedge q0 eps q0\n")
        assert ("q0", "", "q0") in a.transitions


class TestSreSyntax:
    CASES = [
        "a.a.a.a",
        "(a+eps)",
        "{a}*",
        "@*",
        "{a,b}*.a.{a,b}*.b.{a,b}*",
        "a + b",
        "(a+eps).{b}*",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip_language(self, text):
        s = parse_sre(text)
        assert isinstance(s, Sre)
        again = parse_sre(print_sre(s))
        letters = tuple(sorted(s.letters_used() | {"a", "b"}))
        assert equivalent(to_fsa(s, letters), to_fsa(again, letters))

    def test_bad_atom(self):
        with pytest.raises(ParseError):
            parse_sre("{a*")

    def test_multichar_letters(self):
        s = parse_sre("{req,ack}*.req")
        assert s.products[0].atoms[0].letters == frozenset({"req", "ack"})


class TestWords:
    def test_plain(self):
        assert parse_word("aab") == ("a", "a", "b")

    def test_comma_syntax(self):
        assert parse_word("req,ack") == ("req", "ack")

    def test_empty(self):
        assert parse_word("") == ()
        assert parse_word("eps") == ()


class TestDot:
    def test_fsa_dot_is_balanced(self):
        rng = random.Random(105)
        for _ in range(5):
            text = fsa_to_dot(random_fsa(rng))
            assert text.startswith("digraph")
            assert text.count("{") == text.count("}")
            assert "->" in text

    def test_net_dot_mentions_every_node(self):
        inst = bpp_power_instance(1)
        text = net_to_dot(inst)
        for p in inst.net.places:
            assert f"p_{p}" in text
        for t in inst.net.transitions:
            assert f"t_{t.name}" in text
