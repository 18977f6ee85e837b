import pytest

from covlang.closures import dc_fsa_pn
from covlang.errors import InfeasibleParams
from covlang.families import (
    FamilyParams,
    ackermann_instance,
    ackermann_value,
    bpp_power_instance,
    generate,
    rackoff_counterexample,
)
from covlang.fsa import equivalent, make_fsa, minimal_dfa_size
from covlang.nets import is_bpp, subword
from covlang.reach import (
    brute_force_language,
    is_coverable,
    longest_run_length,
)


class TestRackoffFamily:
    def test_bounded_language_matches_closed_form(self):
        inst = rackoff_counterexample()
        words = brute_force_language(inst, 4)
        closed = {("a",) * k + ("b",) for k in range(1, 4)} | {
            ("a",) * k + ("c",) for k in range(0, 4)
        }
        assert words == {w for w in closed if len(w) <= 4}

    def test_coverable_by_single_transition(self):
        inst = rackoff_counterexample()
        from covlang.reach import coverable

        assert coverable(inst) == (True, ["rt_a"])

    def test_minimal_upward_words(self):
        inst = rackoff_counterexample()
        words = brute_force_language(inst, 6)
        minimal = {
            w for w in words if not any(subword(v, w) and v != w for v in words)
        }
        assert minimal == {("a", "b"), ("c",)}


class TestPowerFamily:
    def test_unique_covering_word(self):
        assert brute_force_language(bpp_power_instance(2), 5) == {("a",) * 4}

    def test_is_communication_free(self):
        assert is_bpp(bpp_power_instance(2).net)

    def test_power_zero(self):
        assert brute_force_language(bpp_power_instance(0), 3) == {("a",)}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closure_sizes_grow_exponentially(self, n):
        inst = bpp_power_instance(n)
        dc = dc_fsa_pn(inst).fsa
        limit = 2**n
        expected = make_fsa(
            ("a",),
            range(limit + 1),
            [(i, "a", i + 1) for i in range(limit)],
            0,
            set(range(limit + 1)),
        )
        assert equivalent(dc, expected)
        assert minimal_dfa_size(dc) >= 2**n


class TestAckermannFamily:
    def test_values(self):
        assert ackermann_value(0, 5) == 6
        assert ackermann_value(1, 0) == 2
        assert ackermann_value(2, 2) == 7
        assert ackermann_value(3, 1) == 13

    def test_guard(self):
        with pytest.raises(InfeasibleParams):
            ackermann_value(3, 2)
        assert ackermann_value(3, 2, allow_large=True) == 29
        with pytest.raises(InfeasibleParams):
            ackermann_instance(4, 7)

    @pytest.mark.parametrize(
        "n,x",
        [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 0)],
    )
    def test_language_matches_value(self, n, x):
        inst = ackermann_instance(n, x)
        value = ackermann_value(n, x)
        depth = longest_run_length(inst.net, inst.initial)  # runs terminate
        words = brute_force_language(inst, depth)
        assert words == {("a",) * k for k in range(value + 1)}

    def test_level_zero_language(self):
        inst = ackermann_instance(0, 2)
        assert brute_force_language(inst, 7) == {("a",) * k for k in range(4)}

    def test_coverable_trivially(self):
        assert is_coverable(ackermann_instance(1, 1))


class TestGenerate:
    def test_dispatch(self):
        inst = generate(FamilyParams("bpp-power", n=1))
        assert brute_force_language(inst, 3) == {("a",) * 2}
        assert generate(FamilyParams("rackoff-ce")).net.places == (
            "run",
            "temp",
            "stop",
        )
        acker = generate(FamilyParams("ackermann", n=0, x=1))
        assert brute_force_language(acker, 5) == {(), ("a",), ("a", "a")}

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate(FamilyParams("nope"))
