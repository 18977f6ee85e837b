#!/usr/bin/env python3
"""Measure the reference points ROADMAP.md cites, with the harness's own
in-process query runner, and write them to perfbench/seed_reference.json.

    python3 perfbench/reference_points.py

Each point runs once, without a deadline, in one process:

- the criterion-6 corpus split: 30 communication-free nets x 10 SREs drawn
  from Random(2025), decided by the general route (sre_in_dc_pn) and by the
  Presburger route (sre_in_dc_bpp);
- bpp-power(8) `sre-in --dir down -e {a}* --route pn`;
- bpp-power(7) `cover`;
- bpp-power(9) minimal-DFA size of the downward closure against the time to
  build the closure automaton;
- ackermann(2,2) `is-closed --dir down`.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_program()

from corpus import random_net, random_sre  # noqa: E402
from covlang import cli, closures, fsa, textio  # noqa: E402
from covlang.families import ackermann_instance, bpp_power_instance  # noqa: E402
from covlang.sre_inclusion import sre_in_dc_bpp, sre_in_dc_pn  # noqa: E402


def timed(fn):
    started = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - started


def cli_point(inst, argv, docs, name):
    doc = docs / f"{name}.net"
    doc.write_text(textio.print_net(inst))
    (code, out), seconds = timed(lambda: worker.call_cli(cli, ["-f", str(doc), *argv]))
    lines = out.splitlines()
    return {"seconds": seconds, "exit": code, "printed": lines[0][:80] if lines else ""}


def main():
    docs = HERE / "out" / "reference"
    docs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(2025)
    pairs = []
    for _ in range(30):
        inst = random_net(rng, max_places=3, max_transitions=3, bpp=True)
        pairs += [(random_sre(rng), inst) for _ in range(10)]
    _, general = timed(lambda: [sre_in_dc_pn(s, inst) for s, inst in pairs])
    _, presburger = timed(lambda: [sre_in_dc_bpp(s, inst) for s, inst in pairs])

    power9 = bpp_power_instance(9)
    automaton, build = timed(lambda: closures.dc_fsa_bpp(power9))
    size, minimize = timed(lambda: fsa.minimal_dfa_size(automaton))

    points = {
        "criterion_6_corpus": {
            "pairs": len(pairs),
            "general_route_s": general,
            "presburger_route_s": presburger,
        },
        "bpp_power_8_sre_in_pn": cli_point(
            bpp_power_instance(8),
            ["sre-in", "--dir", "down", "-e", "{a}*", "--route", "pn"], docs, "power8",
        ),
        "bpp_power_7_cover": cli_point(bpp_power_instance(7), ["cover"], docs, "power7"),
        "bpp_power_9_min_dfa": {"size": size, "minimal_dfa_size_s": minimize, "build_s": build},
        "ackermann_2_2_is_closed_down": cli_point(
            ackermann_instance(2, 2), ["is-closed", "--dir", "down"], docs, "ackermann22"
        ),
        "machine": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
        },
    }
    text = json.dumps(points, indent=2) + "\n"
    (HERE / "seed_reference.json").write_text(text)
    print(text, end="")


if __name__ == "__main__":
    main()
