"""The benchmark's workloads: the queries, the documents they read, and the
independent checks of their answers.

A query is a CLI verb run in-process through ``covlang.cli.main``, or, for the
minimal-DFA size, which has no verb, the library call that
``scripts/closure_growth.py`` makes.  Every query has a wall-clock deadline,
set per verb.  Each deadline sits in a gap of the seed commit's times for
that verb, at least about 1.4x (mostly 2x) from the answers on either side,
so that which queries time out repeats from run to run.

A check returns None when the answer is right and a message when it is wrong.
Checks run after each query, outside its timing and with tracing off.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from corpus import random_fsa, random_net, random_sre
from covlang import closures, fsa, reach, sre_inclusion, textio
from covlang.families import (
    ackermann_instance,
    ackermann_value,
    bpp_power_instance,
    rackoff_counterexample,
)
from covlang.nets import EPSILON, fire_sequence, is_bpp

#: Words of covering runs up to this many steps form the bounded reference
#: language of a random net; longer words fall back to backward coverability.
BRUTE_FORCE_STEPS = 6
#: Longest word the bounded checks of yes/included/closure answers look at.
CHECK_LENGTH = 3


@dataclass
class Query:
    kind: str  # verb family, e.g. "cover" or "is-closed up"
    label: str  # kind plus the input, e.g. "cover n=6"
    deadline: float  # seconds
    argv: list | None = None  # CLI arguments
    call: object = None  # zero-argument library call, for verbs without a CLI form
    check: object = None  # check(result) -> None or a message


def _write(directory, name, text):
    path = directory / name
    path.write_text(text)
    return str(path)


def _verdict_line(result):
    _code, out = result
    lines = out.splitlines()
    return lines[0] if lines else ""


def _counterexample(result):
    line = _verdict_line(result)
    return textio.parse_word(line.rsplit(" ", 1)[-1])


def unary_lengths(a, bound: int) -> int:
    """Bitmask of the lengths <= bound of the words a one-letter automaton
    accepts (bit i set: a^i accepted).  Independent of how the automaton is
    built; a letter self-loop extends a length set to everything above it."""
    mask = (1 << (bound + 1)) - 1
    out = {}
    for q, x, q2 in a.transitions:
        out.setdefault(q, []).append((x, q2))
    lengths = {a.initial: 1}
    work = deque([a.initial])
    while work:
        q = work.popleft()
        current = lengths[q]
        for x, q2 in out.get(q, ()):
            if x == EPSILON:
                new = current
            elif q2 == q:
                new = mask & ~((current & -current) - 1)
            else:
                new = (current << 1) & mask
            old = lengths.get(q2, 0)
            if new | old != old:
                lengths[q2] = old | new
                work.append(q2)
    accepted = 0
    for q in a.finals:
        accepted |= lengths.get(q, 0)
    return accepted


def _expect_exit(result, code, first_line=None):
    if result[0] != code:
        return f"exit {result[0]}, expected {code}"
    if first_line is not None and _verdict_line(result) != first_line:
        return f"printed {_verdict_line(result)!r}, expected {first_line!r}"
    return None


# sre-corpus


#: sre-corpus nets per (places, transitions) cell.  Query cost grows two- to
#: threefold with either count, so fixed quotas keep the mix, and with it the
#: pass time, from swinging with the seed.
SRE_NETS_PER_SHAPE = 24


def sre_corpus(seed: int, docs):
    """Communication-free nets (at most 3 places and 3 transitions, weights at
    most 2, as in acceptance criteria 6 and 7) with one SRE each, asked both
    directions on the auto route (the Presburger route).  Reference: the
    general route's verdict."""
    rng = random.Random(seed)
    quota = {(p, t): SRE_NETS_PER_SHAPE for p in (1, 2, 3) for t in (1, 2, 3)}
    queries = []
    while any(quota.values()):
        inst = random_net(rng, max_places=3, max_transitions=3, max_weight=2, bpp=True)
        expression = textio.print_sre(random_sre(rng))
        shape = (len(inst.net.places), len(inst.net.transitions))
        if not quota[shape]:
            continue
        quota[shape] -= 1
        i = len(queries) // 2
        doc = _write(docs, f"sre{i}.net", textio.print_net(inst))
        for direction in ("down", "up"):
            queries.append(
                Query(
                    f"sre-in {direction}",
                    f"sre-in {direction} net={i} e={expression}",
                    2.0,
                    argv=["-f", doc, "sre-in", "--dir", direction, "-e", expression],
                    check=_sre_check(inst, expression, direction),
                )
            )
    return queries, None


def _sre_check(inst, expression, direction):
    def check(result):
        s = textio.parse_sre(expression)
        if direction == "down":
            reference = sre_inclusion.sre_in_dc_pn(s, inst)
        else:
            reference = sre_inclusion.sre_in_uc_pn(s, inst)
        if reference.answer not in ("holds", "fails"):
            raise Unverified(f"general route said {reference.answer}")
        code = 0 if reference.answer == "holds" else 1
        if result[0] != code or _verdict_line(result).split(" ", 1)[0] != reference.answer:
            return f"printed {_verdict_line(result)!r}, general route {reference.answer}"
        return None

    return check


class Unverified(Exception):
    """The reference could not be computed, so the answer stays unchecked."""


# power-family

#: verb -> (deadline seconds, largest n).  A range of n ends one step past
#: the largest n the seed commit answers within the deadline, or at the first
#: n whose node budget makes the answer `unknown` (is-closed): the times of
#: verbs that double with n leave no gap wide enough for a stable deadline.
#: The CLI closure verbs share the range of the minimal-DFA size, their pair
#: in scripts/closure_growth.py.  The communication-free route of sre-in
#: stops at n=9: at n=10 the seed raises RecursionError while building the
#: formula, an error rather than a slow answer.  is-closed never times out:
#: n=16 answers in 2.3 to 3.3 s as the host's speed drifts, and n=17 ends in
#: `unknown` within 0.8 s.
POWER_VERBS = {
    "closure down": (1.05, 10),
    "closure up": (1.05, 10),
    "min-dfa down": (1.05, 10),
    "min-dfa up": (1.05, 10),
    "sre-in pn": (2.5, 8),
    "sre-in bpp": (2.0, 9),
    "cover": (0.95, 7),
    "member exact": (1.05, 3),
    "member up": (1.0, 3),
    "member down": (1.0, 4),
    "is-closed down": (6.0, 17),
}

#: member mode -> expected answers on a^(2^n) and a^(2^n - 1)
MEMBER_EXPECTED = {"exact": (True, False), "up": (True, False), "down": (True, True)}


def power_family(seed: int, docs):
    """bpp-power(n) over a range of n per verb; language {a^(2^n)}, so every
    answer has a closed form.  The seed only orders the queries."""
    queries = []
    insts = {}
    docs_by_n = {}
    largest = max(n for _d, n in POWER_VERBS.values())
    for n in range(1, largest + 1):
        insts[n] = bpp_power_instance(n)
        docs_by_n[n] = _write(docs, f"power{n}.net", textio.print_net(insts[n]))
    for kind, (deadline, top) in POWER_VERBS.items():
        for n in range(1, top + 1):
            queries.extend(_power_queries(kind, n, deadline, insts[n], docs_by_n[n]))
    warmup = [q for q in queries if q.label.endswith(" n=1") or " n=1 " in q.label]
    rng = random.Random(seed)
    rng.shuffle(queries)
    return queries, warmup


def _power_queries(kind, n, deadline, inst, doc):
    m = 2**n
    label = f"{kind} n={n}"
    if kind.startswith("closure"):
        direction = kind.split()[1]
        return [
            Query(
                kind,
                label,
                deadline,
                argv=["-f", doc, "closure", "--dir", direction],
                check=_power_closure_check(direction, m),
            )
        ]
    if kind.startswith("min-dfa"):
        direction = kind.split()[1]
        expected = m + 2 if direction == "down" else m + 1

        def call():
            build = closures.dc_fsa_bpp if direction == "down" else closures.uc_fsa_bpp
            return fsa.minimal_dfa_size(build(inst))

        def check(size):
            return None if size == expected else f"size {size}, expected {expected}"

        return [Query(kind, label, deadline, call=call, check=check)]
    if kind.startswith("sre-in"):
        route = kind.split()[1]
        argv = ["-f", doc, "sre-in", "--dir", "down", "-e", "{a}*", "--route", route]
        return [
            Query(
                kind,
                label,
                deadline,
                argv=argv,
                check=lambda r: _expect_exit(r, 1)
                or (None if _verdict_line(r).startswith("fails") else "expected fails"),
            )
        ]
    if kind == "cover":
        return [Query(kind, label, deadline, argv=["-f", doc, "cover"], check=_cover_check(inst))]
    if kind.startswith("member"):
        mode = kind.split()[1]
        out = []
        for word, expected in zip(("a" * m, "a" * (m - 1)), MEMBER_EXPECTED[mode]):
            out.append(
                Query(
                    kind,
                    f"{label} |w|={len(word)}",
                    deadline,
                    argv=["-f", doc, "member", "--mode", mode, "-w", word],
                    check=lambda r, e=expected: _expect_exit(
                        r, 0 if e else 1, "member" if e else "not-member"
                    ),
                )
            )
        return out
    if kind == "is-closed down":

        def check(result):
            wrong = _expect_exit(result, 1)
            if wrong:
                return wrong
            w = _counterexample(result)
            # dc(L) \ L = {a^j : j < 2^n}
            if set(w) - {"a"} or len(w) >= m:
                return f"counterexample {''.join(w)!r} is not in dc(L) minus L"
            return None

        return [Query(kind, label, deadline, argv=["-f", doc, "is-closed", "--dir", "down"], check=check)]
    raise ValueError(kind)


def _power_closure_check(direction, m):
    bound = m + 2
    mask = (1 << (bound + 1)) - 1
    # down: {a^i : i <= m}; up: {a^i : i >= m}
    expected = (1 << (m + 1)) - 1 if direction == "down" else mask & ~((1 << m) - 1)

    def check(result):
        wrong = _expect_exit(result, 0, "# exactness: exact")
        if wrong:
            return wrong
        got = unary_lengths(textio.parse_fsa(result[1]), bound)
        if got != expected:
            return f"accepted lengths up to {bound} differ from the closed form"
        return None

    return check


def _cover_check(inst):
    def check(result):
        wrong = _expect_exit(result, 0)
        if wrong:
            return wrong
        line = _verdict_line(result)
        names = [] if line.endswith("(empty)") else line.split()[2:]
        if not fire_sequence(inst.net, inst.initial, names).covers(inst.final):
            return "witness does not cover the final marking"
        return None

    return check


# general-nets

ACKERMANN = ((1, 2), (2, 0), (2, 1), (2, 2), (3, 0))
#: verb -> deadline seconds, each in a gap of the seed commit's times:
#: is-closed down between ackermann(1,2) (0.04 s) and ackermann(2,1) (0.55 s
#: or more); is-closed up between ackermann(3,0) (0.17 to 0.35 s as the host's
#: speed drifts) and ackermann(1,2) (0.67 to 0.97 s), both of which end in
#: `unknown` when they finish; reg-in between the small instances (0.03 s)
#: and ackermann(2,1) (0.19 s or more); closure up between rackoff-ce (0.6 s)
#: and the two slow nets of its fixed corpus (see CLOSURE_CORPUS_SEED).
GENERAL_DEADLINES = {
    "is-closed down": 0.25,
    "is-closed up": 0.5,
    "reg-in": 0.1,
    "closure up": 1.5,
}
RANDOM_NETS = 128
#: Share of the generator's synchronizing nets (at most 4 places and 4
#: transitions, weight at most 2) whose certified run-length bound is within
#: the certified-mode ceiling, so that `is-closed --dir up` searches up to that
#: bound (k = 262,145 on some 1-place nets) and mostly times out: a known
#: defect the workload keeps.  Measured on the seed commit over the first 200
#: non-communication-free draws of generator seeds 0..19: 576 of 4000.
CERTIFIED_SHARE = 0.144
CERTIFIED_CEILING = 10**6
#: The certified nets keep their natural share of the mix, but come from a
#: fixed generator seed rather than from --seed, so that the number of these
#: time-outs, which decides where the tail percentile falls, is the same in
#: every run; the seeded nets are drawn outside this class.
CERTIFIED_SEARCHES = round(RANDOM_NETS * CERTIFIED_SHARE / (1 - CERTIFIED_SHARE))
CERTIFIED_CORPUS_SEED = 0
#: The adaptive upward closure's time on random nets is spread continuously
#: up to seconds: on the seed commit, 8 of the first 640 draws of generator
#: seeds 100..104 (1.25%) take longer than its 1.5 s deadline, and answers
#: fall between 0.5 s and 1.2 s.  On seeded nets some answer would land near
#: the deadline and the time-outs would swing the pass time, so the verb keeps
#: its natural one query per seeded net but runs on a fixed corpus of as many
#: nets.  The corpus is the stream of seed 104, the one of those five whose
#: first 128 nets hold the natural count of slow nets (2, both past 3.5 s)
#: with no answer within 1.7x of the deadline (the slowest takes 0.85 s).
CLOSURE_NETS = RANDOM_NETS
CLOSURE_CORPUS_SEED = 104


def _draw_nets(rng, count, certified):
    """Seeded random nets with synchronization, each with a random automaton,
    inside or outside the certified-search class."""
    drawn = []
    while len(drawn) < count:
        inst = random_net(rng, max_places=4, max_transitions=4, max_weight=2)
        automaton = random_fsa(rng, alphabet=inst.net.alphabet)
        if is_bpp(inst.net):
            continue
        value = closures.rackoff_bound(inst).value
        if (value is not None and value <= CERTIFIED_CEILING) == certified:
            drawn.append((inst, automaton))
    return drawn


def general_nets(seed: int, docs):
    """Nets with synchronization: the Ackermann family, the rackoff
    counterexample, a fixed corpus of certified-search nets and seeded random
    nets, asked is-closed both ways, reg-in and the adaptive upward closure."""
    queries = []
    for i, (inst, automaton) in enumerate(_draw_nets(random.Random(seed), RANDOM_NETS, False)):
        queries.extend(
            _general_queries(f"random{i}", inst, [automaton], docs, RandomNetChecks(inst), closure=False)
        )
    warmup = queries[:3]
    certified = _draw_nets(random.Random(CERTIFIED_CORPUS_SEED), CERTIFIED_SEARCHES, True)
    for i, (inst, automaton) in enumerate(certified):
        queries.extend(_general_queries(f"certified{i}", inst, [automaton], docs, RandomNetChecks(inst)))
    for i, (inst, _automaton) in enumerate(_draw_nets(random.Random(CLOSURE_CORPUS_SEED), CLOSURE_NETS, False)):
        doc = _write(docs, f"closure{i}.net", textio.print_net(inst))
        queries.append(_closure_up_query(f"closure{i}", doc, RandomNetChecks(inst)))
    warmup.append(queries[-1])
    for n, x in ACKERMANN:
        inst = ackermann_instance(n, x)
        value = ackermann_value(n, x)
        upto = fsa.make_fsa(("a",), range(value + 1), [(k, "a", k + 1) for k in range(value)], 0, range(value + 1))
        beyond = fsa.make_fsa(("a",), range(value + 2), [(k, "a", k + 1) for k in range(value + 1)], 0, [value + 1])
        queries.extend(_general_queries(f"ackermann({n},{x})", inst, [upto, beyond], docs, AckermannChecks(value)))
    rackoff = rackoff_counterexample()
    alphabet = rackoff.net.alphabet
    inside = fsa.make_fsa(alphabet, range(4), [(0, "a", 1), (1, "b", 2), (1, "a", 1), (0, "c", 2), (1, "c", 3)], 0, [2, 3])
    outside = fsa.make_fsa(alphabet, range(2), [(0, "b", 1)], 0, [1])
    queries.extend(_general_queries("rackoff-ce", rackoff, [inside, outside], docs, RackoffChecks()))
    random.Random(seed).shuffle(queries)
    return queries, warmup


def _closure_up_query(name, doc, checks):
    return Query(
        "closure up",
        f"closure up {name}",
        GENERAL_DEADLINES["closure up"],
        argv=["-f", doc, "closure", "--dir", "up"],
        check=checks.closure_up,
    )


def _general_queries(name, inst, automata, docs, checks, closure=True):
    doc = _write(docs, f"{name}.net", textio.print_net(inst))
    out = []
    for direction in ("down", "up"):
        kind = f"is-closed {direction}"
        out.append(
            Query(
                kind,
                f"{kind} {name}",
                GENERAL_DEADLINES[kind],
                argv=["-f", doc, "is-closed", "--dir", direction],
                check=lambda r, d=direction: checks.is_closed(r, d),
            )
        )
    for j, automaton in enumerate(automata):
        fsa_doc = _write(docs, f"{name}-{j}.fsa", textio.print_fsa(automaton))
        out.append(
            Query(
                "reg-in",
                f"reg-in {name} automaton={j}",
                GENERAL_DEADLINES["reg-in"],
                argv=["-f", doc, "reg-in", "-a", fsa_doc],
                check=lambda r, a=automaton: checks.reg_in(r, a),
            )
        )
    if closure:
        out.append(_closure_up_query(name, doc, checks))
    return out


class RandomNetChecks:
    """Bounded reference for a random net: words of covering runs up to
    BRUTE_FORCE_STEPS steps, then exact membership by backward coverability."""

    def __init__(self, inst):
        self.inst = inst
        self._words = None

    def words(self):
        if self._words is None:
            self._words = reach.brute_force_language(self.inst, BRUTE_FORCE_STEPS)
        return self._words

    def in_lang(self, w):
        return w in self.words() or reach.member(w, self.inst, "exact")

    def short_words(self, length):
        return sorted(w for w in self.words() if len(w) <= length)

    def is_closed(self, result, direction):
        if result[0] == 1:
            w = _counterexample(result)
            if not reach.member(w, self.inst, direction):
                return f"counterexample {w} is not in the {direction}ward closure"
            if reach.member(w, self.inst, "exact"):
                return f"counterexample {w} is in the language"
            return None
        wrong = _expect_exit(result, 0, "closed")
        if wrong:
            return wrong
        letters = self.inst.net.alphabet
        for w in self.short_words(CHECK_LENGTH):
            if direction == "down":
                nearby = [w[:i] + w[i + 1 :] for i in range(len(w))]
            else:
                nearby = [w[:i] + (x,) + w[i:] for i in range(len(w) + 1) for x in letters]
            for v in nearby:
                if not self.in_lang(v):
                    return f"{v} is in the {direction}ward closure but not in L"
        return None

    def reg_in(self, result, automaton):
        if result[0] == 1:
            w = _counterexample(result)
            if not fsa.accepts(automaton, w):
                return f"counterexample {w} is not accepted by the automaton"
            if reach.member(w, self.inst, "exact"):
                return f"counterexample {w} is in the language"
            return None
        wrong = _expect_exit(result, 0, "included")
        if wrong:
            return wrong
        for w in sorted(fsa.enumerate_words(automaton, CHECK_LENGTH)):
            if not self.in_lang(w):
                return f"{w} is accepted by the automaton but not in L"
        return None

    def closure_up(self, result):
        wrong = _expect_exit(result, 0)
        if wrong:
            return wrong
        closure = textio.parse_fsa(result[1])
        for w in self.short_words(CHECK_LENGTH):
            if not fsa.accepts(closure, w):
                return f"{w} is in L but not in the printed closure"
        for w in sorted(fsa.enumerate_words(closure, 2)):
            if not reach.member(w, self.inst, "up"):
                return f"{w} is in the printed closure but not in uc(L)"
        return None


class AckermannChecks:
    """Closed form: L = {a^k : k <= A_n(x)}, downward closed, uc(L) = a*."""

    def __init__(self, value):
        self.value = value

    def is_closed(self, result, direction):
        if direction == "down":
            return _expect_exit(result, 0, "closed")
        wrong = _expect_exit(result, 1)
        if wrong:
            return wrong
        w = _counterexample(result)
        if set(w) - {"a"} or len(w) <= self.value:
            return f"counterexample {''.join(w)!r} is not in uc(L) minus L"
        return None

    def reg_in(self, result, automaton):
        if fsa.accepts(automaton, ("a",) * (self.value + 1)):
            wrong = _expect_exit(result, 1)
            if not wrong and _counterexample(result) != ("a",) * (self.value + 1):
                wrong = f"counterexample {_verdict_line(result)!r}"
            return wrong
        return _expect_exit(result, 0, "included")

    def closure_up(self, result):
        wrong = _expect_exit(result, 0)
        if wrong:
            return wrong
        bound = 8
        if unary_lengths(textio.parse_fsa(result[1]), bound) != (1 << (bound + 1)) - 1:
            return "printed closure is not a*"
        return None


def _in_rackoff(w):
    # L = {a^i b : i >= 1} + {a^i c : i >= 0}
    if not w or set(w[:-1]) - {"a"}:
        return False
    return w[-1] == "c" or (w[-1] == "b" and len(w) >= 2)


def _in_rackoff_up(w):
    # uc(L) = words with a c, or with an a before a b
    text = "".join(w)
    return "c" in text or ("a" in text and "b" in text[text.index("a") :])


def _in_rackoff_down(w):
    text = "".join(w)
    return not set(text[:-1]) - {"a"} if text else True


class RackoffChecks:
    """Closed form: L = a+b | a*c."""

    predicates = {"up": _in_rackoff_up, "down": _in_rackoff_down}

    def is_closed(self, result, direction):
        wrong = _expect_exit(result, 1)
        if wrong:
            return wrong
        w = _counterexample(result)
        if not self.predicates[direction](w) or _in_rackoff(w):
            return f"counterexample {w} is not in the {direction}ward closure minus L"
        return None

    def reg_in(self, result, automaton):
        words = fsa.enumerate_words(automaton, 4)
        outside = sorted(w for w in words if not _in_rackoff(w))
        if not outside:
            return _expect_exit(result, 0, "included")
        wrong = _expect_exit(result, 1)
        if not wrong and _counterexample(result) not in outside:
            wrong = f"counterexample {_verdict_line(result)!r} is in L"
        return wrong

    def closure_up(self, result):
        wrong = _expect_exit(result, 0)
        if wrong:
            return wrong
        closure = textio.parse_fsa(result[1])
        words = frontier = [()]
        for _ in range(4):
            frontier = [w + (x,) for w in frontier for x in "abc"]
            words = words + frontier
        for w in words:
            if fsa.accepts(closure, w) != _in_rackoff_up(w):
                return f"printed closure disagrees with uc(L) on {''.join(w)!r}"
        return None


WORKLOADS = {
    "sre-corpus": sre_corpus,
    "power-family": power_family,
    "general-nets": general_nets,
}


def build(name: str, seed: int, docs):
    """Queries of one pass and the warm-up queries run during set-up."""
    queries, warmup = WORKLOADS[name](seed, docs)
    if warmup is None:
        warmup = [next(q for q in queries if q.kind == kind) for kind in dict.fromkeys(q.kind for q in queries)]
    return queries, warmup
