#!/usr/bin/env python3
"""Desk-scale look at the weak-computation family behind the downward-closure
lower bound: nets of size linear in n whose longest word is Acker_n(x).

For each feasible (n, x) the script replays the whole state space, confirms
the language against the recursion, and reports how quickly run lengths and
automaton sizes outgrow the net.  It then asks whether the language is
upward and downward closed, and prints each verdict with its time.
"""

import argparse
import time

from covlang.closures import dc_fsa_pn
from covlang.families import ackermann_instance, ackermann_value
from covlang.fsa import minimal_dfa_size
from covlang.reach import brute_force_language, longest_run_length
from covlang.trace_inclusion import is_closed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--cases",
        default="0:0 0:1 0:2 0:3 1:0 1:1 1:2 2:0 2:1",
        help="space-separated n:x pairs",
    )
    args = parser.parse_args()
    cases = [tuple(map(int, chunk.split(":"))) for chunk in args.cases.split()]

    print(f"{'n':>2} {'x':>2} {'A_n(x)':>7} {'|places|':>8} {'longest run':>11} "
          f"{'words':>6} {'|dc dfa|':>9} {'seconds':>8} {'up':>7} {'up s':>7} "
          f"{'down':>7} {'down s':>7}")
    for n, x in cases:
        inst = ackermann_instance(n, x)
        value = ackermann_value(n, x)
        started = time.perf_counter()
        depth = longest_run_length(inst.net, inst.initial)
        words = brute_force_language(inst, depth)
        assert words == {("a",) * k for k in range(value + 1)}
        dfa = minimal_dfa_size(dc_fsa_pn(inst).fsa)
        elapsed = time.perf_counter() - started
        verdicts = []
        for direction in ("up", "down"):
            started = time.perf_counter()
            answer = is_closed(inst, direction).answer
            verdicts.append(f"{answer:>7} {time.perf_counter() - started:>7.3f}")
        print(f"{n:>2} {x:>2} {value:>7} {len(inst.net.places):>8} {depth:>11} "
              f"{len(words):>6} {dfa:>9} {elapsed:>8.3f} {' '.join(verdicts)}")


if __name__ == "__main__":
    main()
