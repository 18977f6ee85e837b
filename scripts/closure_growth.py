#!/usr/bin/env python3
"""Measure how the closure automata of the power family grow.

The family's language is the single word a^(2^n), so the minimal automata for
both closures need about 2^n states while the net stays polynomial in n.
Prints a table of minimal-DFA sizes, the seconds spent building both
closure automata, and the seconds spent minimizing them.
"""

import argparse
import time

from covlang.closures import bpp_cutoff_bound, dc_fsa_pn, uc_fsa
from covlang.families import bpp_power_instance
from covlang.fsa import minimal_dfa_size


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    print(f"{'n':>3} {'2^n':>6} {'|dc dfa|':>9} {'|uc dfa|':>9} "
          f"{'cutoff c':>14} {'build s':>8} {'min s':>8}")
    for n in range(1, args.max_n + 1):
        inst = bpp_power_instance(n)
        started = time.perf_counter()
        closures = (dc_fsa_pn(inst).fsa, uc_fsa(inst).fsa)
        built = time.perf_counter()
        dc_size, uc_size = (minimal_dfa_size(fsa) for fsa in closures)
        minimized = time.perf_counter()
        cutoff = bpp_cutoff_bound(inst).value
        print(f"{n:>3} {2**n:>6} {dc_size:>9} {uc_size:>9} {cutoff:>14} "
              f"{built - started:>8.3f} {minimized - built:>8.3f}")


if __name__ == "__main__":
    main()
