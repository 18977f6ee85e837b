"""Command-line front end.

Exit codes: 0 = holds/yes/true, 1 = fails/no/false, 2 = unknown,
3 = runtime error, 64 = usage error.  The net document is read from stdin
unless -f is given; `gen` writes one, so commands pipe together.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import families
from .closures import (
    bpp_cutoff_bound,
    bpp_short_bound,
    dc_fsa_pn,
    rackoff_bound,
    rackoff_g_bound,
    uc_fsa,
)
from .errors import BudgetExceeded, CovlangError, ParseError
from .nets import is_bpp
from .presburger import smtlib_export
from .reach import OMEGA, coverable, km_graph, member, simultaneously_unbounded
from .sre import min_word
from .sre_inclusion import (
    p_witness_system,
    sre_in_dc_bpp,
    sre_in_dc_pn,
    sre_in_uc_bpp,
    sre_in_uc_pn,
    staged_cover_system,
)
from .textio import (
    fsa_to_dot,
    net_to_dot,
    parse_fsa,
    parse_net,
    parse_sre,
    parse_word,
    print_fsa,
    print_net,
)
from .trace_inclusion import is_closed, regular_included_in_lang

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _budget(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be non-negative: {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="covlang", description=__doc__)
    parser.add_argument(
        "-f", "--file", help="net document (default: stdin)", default=None
    )
    parser.add_argument(
        "--budget-nodes",
        type=_budget,
        default=100_000,
        help="node budget for state-space explorations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cover", help="is the final marking coverable?")

    p = sub.add_parser("member", help="word membership in L, uc(L), or dc(L)")
    p.add_argument("--mode", choices=["exact", "up", "down"], default="exact")
    p.add_argument("-w", "--word", required=True)

    p = sub.add_parser("closure", help="compute a closure automaton")
    p.add_argument("--dir", choices=["up", "down"], required=True)
    p.add_argument(
        "--mode",
        default=None,
        help="up-closure strategy: k=K saturates the runs of length at most K "
        "(default: the exact closure)",
    )
    p.add_argument("--dot", action="store_true", help="emit DOT instead of text")

    p = sub.add_parser("sre-in", help="expression inclusion in uc(L) or dc(L)")
    p.add_argument("--dir", choices=["up", "down"], required=True)
    p.add_argument("-e", "--expression", required=True)
    p.add_argument(
        "--route",
        choices=["auto", "pn", "bpp"],
        default="auto",
        help="force the general (pn) or the communication-free (bpp) route; "
        "both decide the same way (--dir up: minimal-word coverability, "
        "--dir down: the ideal check on the Karp-Miller closure automaton), "
        "and bpp accepts communication-free nets only",
    )

    p = sub.add_parser("is-closed", help="is the language equal to its closure?")
    p.add_argument("--dir", choices=["up", "down"], required=True)

    p = sub.add_parser("reg-in", help="regular language inclusion in L")
    p.add_argument("-a", "--automaton", required=True, help="automaton document")

    p = sub.add_parser("suppn", help="simultaneous unboundedness of places")
    p.add_argument("-X", "--places", required=True, help="comma-separated places")

    sub.add_parser("km", help="print the coverability graph")

    p = sub.add_parser("gen", help="emit a built-in net family instance")
    p.add_argument("family", choices=["rackoff-ce", "bpp-power", "ackermann"])
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("bound", help="print an exploration bound")
    p.add_argument("kind", choices=["rackoff", "bpp-short", "bpp-cutoff"])

    p = sub.add_parser("export", help="DOT or SMT-LIB export")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--dot", action="store_true")
    group.add_argument("--smt2", action="store_true")
    p.add_argument("-a", "--automaton", help="automaton document to render")
    p.add_argument("--dir", choices=["up", "down"], help="formula kind for --smt2")
    p.add_argument("-e", "--expression", help="expression for --smt2")
    p.add_argument("-o", "--out-dir", default=".", help="directory for .smt2 files")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; it reads no environment."""
    return build_parser()


def _load_instance(args):
    if args.file:
        with open(args.file) as handle:
            return parse_net(handle.read())
    return parse_net(sys.stdin.read())


def _verdict_exit(verdict) -> int:
    if verdict.answer == "holds":
        return EXIT_HOLDS
    if verdict.answer == "fails":
        return EXIT_FAILS
    return EXIT_UNKNOWN


def _cmd_cover(args) -> int:
    inst = _load_instance(args)
    ok, witness = coverable(inst, max_nodes=args.budget_nodes)
    if ok:
        print("coverable witness " + (" ".join(witness) if witness else "(empty)"))
        return EXIT_HOLDS
    print("not-coverable")
    return EXIT_FAILS


def _cmd_member(args) -> int:
    inst = _load_instance(args)
    w = parse_word(args.word)
    ok = member(w, inst, args.mode, max_nodes=args.budget_nodes)
    print("member" if ok else "not-member")
    return EXIT_HOLDS if ok else EXIT_FAILS


def _closure_result(args, inst):
    mode = args.mode
    if args.dir == "down":
        if mode is not None:
            raise ParseError(0, "no --mode with --dir down", mode)
        return dc_fsa_pn(inst, args.budget_nodes)
    if mode is None:
        return uc_fsa(inst, max_states=args.budget_nodes)
    if mode.startswith("k=") and mode[2:].isascii() and mode[2:].isdigit():
        return uc_fsa(
            inst, mode="user_k", k=int(mode[2:]), max_states=args.budget_nodes
        )
    raise ParseError(0, "k=K with K a non-negative integer", mode)


def _cmd_closure(args) -> int:
    inst = _load_instance(args)
    result = _closure_result(args, inst)
    out = fsa_to_dot(result.fsa) if args.dot else print_fsa(result.fsa)
    print(f"# exactness: {result.exactness}")
    sys.stdout.write(out)
    return EXIT_HOLDS


def _cmd_sre_in(args) -> int:
    inst = _load_instance(args)
    s = parse_sre(args.expression)
    route = args.route
    if route == "auto":
        route = "bpp" if is_bpp(inst.net) else "pn"
    if args.dir == "down":
        if route == "bpp":
            verdict = sre_in_dc_bpp(s, inst, max_nodes=args.budget_nodes)
        else:
            verdict = sre_in_dc_pn(s, inst, max_nodes=args.budget_nodes)
    else:
        if route == "bpp":
            verdict = sre_in_uc_bpp(s, inst, max_nodes=args.budget_nodes)
        else:
            verdict = sre_in_uc_pn(s, inst, max_nodes=args.budget_nodes)
    print(verdict.answer + (f" ({verdict.detail})" if verdict.detail else ""))
    return _verdict_exit(verdict)


def _cmd_is_closed(args) -> int:
    inst = _load_instance(args)
    result = is_closed(inst, args.dir, max_nodes=args.budget_nodes)
    if result.answer == "yes":
        print("closed")
        return EXIT_HOLDS
    if result.answer == "no":
        word = ",".join(result.counterexample) if result.counterexample else "eps"
        print(f"not-closed counterexample {word}")
        return EXIT_FAILS
    print(f"unknown ({result.detail})")
    return EXIT_UNKNOWN


def _cmd_reg_in(args) -> int:
    inst = _load_instance(args)
    with open(args.automaton) as handle:
        automaton = parse_fsa(handle.read())
    ok, word = regular_included_in_lang(automaton, inst, max_nodes=args.budget_nodes)
    if ok:
        print("included")
        return EXIT_HOLDS
    print("not-included counterexample " + (",".join(word) if word else "eps"))
    return EXIT_FAILS


def _cmd_suppn(args) -> int:
    inst = _load_instance(args)
    places = [p for p in args.places.split(",") if p]
    unknown_places = set(places) - set(inst.net.places)
    if unknown_places:
        raise ParseError(0, "declared places", ",".join(sorted(unknown_places)))
    ok = simultaneously_unbounded(
        inst.net, inst.initial, places, max_nodes=args.budget_nodes
    )
    print("simultaneously-unbounded" if ok else "not-simultaneously-unbounded")
    return EXIT_HOLDS if ok else EXIT_FAILS


def _cmd_km(args) -> int:
    inst = _load_instance(args)
    graph = km_graph(inst.net, inst.initial, max_nodes=args.budget_nodes)
    for i, node in enumerate(graph.nodes):
        rendered = ",".join(
            f"{p}:{'w' if v == OMEGA else v}"
            for p, v in zip(inst.net.places, node)
            if v
        )
        print(f"node {i} {rendered or '-'}")
    for src, name, dst in graph.edges:
        print(f"edge {src} {name} {dst}")
    return EXIT_HOLDS


def _cmd_gen(args) -> int:
    params = families.FamilyParams(
        args.family,
        n=args.params[0] if args.params else 0,
        x=args.params[1] if len(args.params) > 1 else 0,
        allow_large=args.allow_large,
    )
    sys.stdout.write(print_net(families.generate(params)))
    return EXIT_HOLDS


def _cmd_bound(args) -> int:
    inst = _load_instance(args)
    if args.kind == "rackoff":
        print(rackoff_bound(inst).describe())
        print(rackoff_g_bound(inst).describe())
    elif args.kind == "bpp-short":
        print(bpp_short_bound(inst).describe())
    else:
        print(bpp_cutoff_bound(inst).describe())
    return EXIT_HOLDS


def _cmd_export(args) -> int:
    if args.dot:
        if args.automaton:
            with open(args.automaton) as handle:
                sys.stdout.write(fsa_to_dot(parse_fsa(handle.read())))
        else:
            sys.stdout.write(net_to_dot(_load_instance(args)))
        return EXIT_HOLDS
    if not args.expression or not args.dir:
        raise ParseError(0, "--smt2 with --dir and -e", "missing arguments")
    inst = _load_instance(args)
    s = parse_sre(args.expression)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, p in enumerate(s.products, 1):
        if args.dir == "down":
            _net, formula, _spec = p_witness_system(p, inst)
            target = out_dir / f"p-witness-{i}.smt2"
        else:
            _net, formula = staged_cover_system(min_word(p), inst)
            target = out_dir / f"staged-cover-{i}.smt2"
        target.write_text(smtlib_export(formula))
        print(target)
    return EXIT_HOLDS


_COMMANDS = {
    "cover": _cmd_cover,
    "member": _cmd_member,
    "closure": _cmd_closure,
    "sre-in": _cmd_sre_in,
    "is-closed": _cmd_is_closed,
    "reg-in": _cmd_reg_in,
    "suppn": _cmd_suppn,
    "km": _cmd_km,
    "gen": _cmd_gen,
    "bound": _cmd_bound,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as err:
        print(f"covlang: parse error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except BudgetExceeded as err:
        print(f"covlang: {err}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (CovlangError, OSError) as err:
        print(f"covlang: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
