"""Labeled Petri nets with weighted flow, firing semantics, and product constructions.

Markings are immutable count vectors aligned with the net's place order, so they
hash cheaply and can be thrown into sets by the exploration engines.  Token
counts and arc weights are plain Python integers and may grow without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Iterable, Mapping

from .errors import AlphabetMismatch, LetterCollision, NotEnabled

#: Label of an unobservable transition (and of silent automaton edges).
EPSILON = ""

Word = tuple  # tuple of letters; letters are non-empty strings


def word(text: str) -> Word:
    """Split a string into a word, one letter per character."""
    return tuple(text)


def subword(u: Iterable[str], v: Iterable[str]) -> bool:
    """True iff u can be obtained from v by deleting letters."""
    u = tuple(u)
    v = tuple(v)
    i = 0
    for letter in v:
        if i < len(u) and u[i] == letter:
            i += 1
    return i == len(u)


@dataclass(frozen=True)
class Transition:
    """A transition with a label (EPSILON if silent) and weighted pre/post flow."""

    name: str
    label: str
    pre: tuple[tuple[str, int], ...]
    post: tuple[tuple[str, int], ...]

    @staticmethod
    def make(name, label, pre: Mapping[str, int], post: Mapping[str, int]) -> "Transition":
        canon = lambda flow: tuple(sorted((p, w) for p, w in flow.items() if w))
        return Transition(name, label, canon(pre), canon(post))

    @property
    def pre_map(self) -> dict:
        return dict(self.pre)

    @property
    def post_map(self) -> dict:
        return dict(self.post)

    def consumed(self) -> int:
        """Total number of tokens the transition consumes."""
        return sum(w for _, w in self.pre)


@dataclass(frozen=True)
class PetriNet:
    alphabet: tuple[str, ...]
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        letters = set(self.alphabet)
        if EPSILON in letters:
            raise ValueError("alphabet must not contain the empty letter")
        if len(self.places) != len(set(self.places)):
            raise ValueError("duplicate place names")
        names = [t.name for t in self.transitions]
        if len(names) != len(set(names)):
            raise ValueError("duplicate transition names")
        place_set = set(self.places)
        for t in self.transitions:
            if t.label != EPSILON and t.label not in letters:
                raise ValueError(f"transition {t.name!r} has undeclared label {t.label!r}")
            for p, w in t.pre + t.post:
                if p not in place_set:
                    raise ValueError(f"transition {t.name!r} touches undeclared place {p!r}")
                if w < 0:
                    raise ValueError(f"negative arc weight on {t.name!r}")

    @property
    def place_index(self) -> dict:
        idx = self.__dict__.get("_place_index")
        if idx is None:
            idx = {p: i for i, p in enumerate(self.places)}
            object.__setattr__(self, "_place_index", idx)
        return idx

    def transition(self, name: str) -> Transition:
        table = self.__dict__.get("_by_name")
        if table is None:
            table = {t.name: t for t in self.transitions}
            object.__setattr__(self, "_by_name", table)
        return table[name]

    @property
    def arcs(self) -> dict:
        """Each transition's name mapped to (label, pre, post), in transition
        order; pre and post are tuples of (place-index, weight)."""
        arcs = self.__dict__.get("_arcs")
        if arcs is None:
            idx = self.place_index
            at = lambda flow: tuple((idx[p], w) for p, w in flow)
            arcs = {t.name: (t.label, at(t.pre), at(t.post)) for t in self.transitions}
            object.__setattr__(self, "_arcs", arcs)
        return arcs

    def max_arc_weight(self) -> int:
        """max(F): the largest weight appearing in the flow function."""
        weights = [w for t in self.transitions for _, w in t.pre + t.post]
        return max(weights, default=0)

    def encoded_size(self) -> int:
        """Binary-encoding size |Sigma| + |P|*|T|*(1 + ceil(log2(1 + max(F))))."""
        return len(self.alphabet) + len(self.places) * len(self.transitions) * (
            1 + _bits(self.max_arc_weight())
        )


def _bits(value: int) -> int:
    """ceil(log2(1 + value)), with 0 needing one bit."""
    return value.bit_length() if value > 0 else 1


@dataclass(frozen=True)
class Marking:
    """Token counts aligned with the owning net's place order."""

    counts: tuple[int, ...]

    @staticmethod
    def of(net: PetriNet, tokens: Mapping[str, int] | None = None) -> "Marking":
        tokens = tokens or {}
        unknown = set(tokens) - set(net.places)
        if unknown:
            raise ValueError(f"marking mentions undeclared places {sorted(unknown)}")
        if any(v < 0 for v in tokens.values()):
            raise ValueError("negative token count")
        return Marking(tuple(tokens.get(p, 0) for p in net.places))

    @staticmethod
    def zero(net: PetriNet) -> "Marking":
        return Marking((0,) * len(net.places))

    def token_count(self) -> int:
        return sum(self.counts)

    def covers(self, other: "Marking") -> bool:
        return all(map(ge, self.counts, other.counts))

    def get(self, net: PetriNet, place: str) -> int:
        return self.counts[net.place_index[place]]

    def as_dict(self, net: PetriNet) -> dict:
        return {p: c for p, c in zip(net.places, self.counts) if c}

    def encoded_size(self, net: PetriNet) -> int:
        return len(net.places) * (1 + _bits(max(self.counts, default=0)))

    def __ge__(self, other):
        return self.covers(other)

    def __le__(self, other):
        return other.covers(self)


@dataclass(frozen=True)
class NetInstance:
    """A net together with its initial and final (to-be-covered) markings."""

    net: PetriNet
    initial: Marking
    final: Marking

    def __post_init__(self):
        n = len(self.net.places)
        if len(self.initial.counts) != n or len(self.final.counts) != n:
            raise ValueError("marking dimension does not match the net")

    def encoded_size(self) -> int:
        return (
            self.net.encoded_size()
            + self.initial.encoded_size(self.net)
            + self.final.encoded_size(self.net)
        )


def fire(net: PetriNet, m: Marking, name: str) -> Marking:
    """Fire one transition; raises NotEnabled on a token deficit."""
    _label, pre, post = net.arcs[name]
    counts = list(m.counts)
    for i, w in pre:
        if counts[i] < w:
            raise NotEnabled(name, net.places[i], w - counts[i])
        counts[i] -= w
    for i, w in post:
        counts[i] += w
    return Marking(tuple(counts))


def fire_sequence(net: PetriNet, m: Marking, names: Iterable[str]) -> Marking:
    """Fold fire over a transition sequence, reporting the failing index."""
    for i, name in enumerate(names):
        try:
            m = fire(net, m, name)
        except NotEnabled as err:
            raise NotEnabled(err.transition, err.place, err.deficit, index=i) from None
    return m


def is_bpp(net: PetriNet) -> bool:
    """True iff every transition consumes at most one token in total."""
    return all(t.consumed() <= 1 for t in net.transitions)


def right_product(n1: PetriNet, n2: PetriNet) -> PetriNet:
    """Compose two nets so that n1 runs freely and n2 only moves synchronously.

    Transitions of n1 are kept; for every pair of equally-labeled (non-silent)
    transitions a merged transition with the component-wise flow is added.
    Place and transition names are mangled deterministically (``left.x``,
    ``right.x``, ``merge.t1.t2``).
    """
    if set(n1.alphabet) != set(n2.alphabet):
        raise AlphabetMismatch(
            f"alphabets differ: {sorted(n1.alphabet)} vs {sorted(n2.alphabet)}"
        )
    places = tuple(f"left.{p}" for p in n1.places) + tuple(f"right.{p}" for p in n2.places)
    transitions = [
        Transition.make(
            f"left.{t.name}",
            t.label,
            {f"left.{p}": w for p, w in t.pre},
            {f"left.{p}": w for p, w in t.post},
        )
        for t in n1.transitions
    ]
    for t1 in n1.transitions:
        if t1.label == EPSILON:
            continue
        for t2 in n2.transitions:
            if t2.label != t1.label:
                continue
            pre = {f"left.{p}": w for p, w in t1.pre}
            pre.update({f"right.{p}": w for p, w in t2.pre})
            post = {f"left.{p}": w for p, w in t1.post}
            post.update({f"right.{p}": w for p, w in t2.post})
            transitions.append(
                Transition.make(f"merge.{t1.name}.{t2.name}", t1.label, pre, post)
            )
    return PetriNet(n1.alphabet, places, tuple(transitions))


@dataclass(frozen=True)
class SyncedNet:
    """A net composed with a one-token encoding of a finite automaton.

    Covering ``final_extra`` on top of the base net's final marking certifies
    that the automaton accepted; see ``make_instance``.
    """

    net: PetriNet
    state_place: dict
    accept_place: str
    initial_extra: tuple[tuple[str, int], ...]

    def lift(self, m: Marking, base: PetriNet, extra: Mapping[str, int]) -> Marking:
        tokens = {f"net.{p}": c for p, c in zip(base.places, m.counts) if c}
        for p, w in extra.items():
            tokens[p] = tokens.get(p, 0) + w
        return Marking.of(self.net, tokens)

    def make_instance(self, inst: NetInstance) -> NetInstance:
        base = inst.net
        m0 = self.lift(inst.initial, base, dict(self.initial_extra))
        mf = self.lift(inst.final, base, {self.accept_place: 1})
        return NetInstance(self.net, m0, mf)


def sync_with_fsa(net: PetriNet, automaton, mode: str) -> SyncedNet:
    """Encode an automaton as a one-token state net and compose it with ``net``.

    mode="right": net transitions stay free, automaton edges fire only merged
    with an equally-labeled net transition.  mode="full": additionally every
    non-silent net transition must synchronize, so the composite emits exactly
    the words the automaton reads.  Silent automaton edges move the control
    token freely in both modes.
    """
    if mode not in ("right", "full"):
        raise ValueError(f"unknown sync mode {mode!r}")
    if not set(automaton.alphabet) <= set(net.alphabet):
        raise AlphabetMismatch("automaton uses letters the net does not declare")

    state_place = {q: f"st.{i}" for i, q in enumerate(sorted(automaton.states, key=repr))}
    accept = "acc"
    places = tuple(f"net.{p}" for p in net.places) + tuple(
        state_place[q] for q in sorted(automaton.states, key=repr)
    ) + (accept,)

    transitions = []
    for t in net.transitions:
        free = t.label == EPSILON or mode == "right"
        if free:
            transitions.append(
                Transition.make(
                    f"net.{t.name}",
                    t.label,
                    {f"net.{p}": w for p, w in t.pre},
                    {f"net.{p}": w for p, w in t.post},
                )
            )
    edges = sorted(automaton.transitions, key=repr)
    for i, (q, letter, q2) in enumerate(edges):
        if letter == EPSILON:
            transitions.append(
                Transition.make(
                    f"move.{i}", EPSILON, {state_place[q]: 1}, {state_place[q2]: 1}
                )
            )
            continue
        for t in net.transitions:
            if t.label != letter:
                continue
            pre = {f"net.{p}": w for p, w in t.pre}
            pre[state_place[q]] = pre.get(state_place[q], 0) + 1
            post = {f"net.{p}": w for p, w in t.post}
            post[state_place[q2]] = post.get(state_place[q2], 0) + 1
            transitions.append(Transition.make(f"sync.{t.name}.{i}", t.label, pre, post))
    for j, q in enumerate(sorted(automaton.finals, key=repr)):
        transitions.append(
            Transition.make(f"finish.{j}", EPSILON, {state_place[q]: 1}, {accept: 1})
        )

    composed = PetriNet(net.alphabet, places, tuple(transitions))
    return SyncedNet(
        composed,
        state_place,
        accept,
        ((state_place[automaton.initial], 1),),
    )


def append_final_letter(inst: NetInstance, letter: str) -> NetInstance:
    """Add a fresh-letter transition consuming the final marking; new final is zero.

    Every trace of the result that ends in the fresh letter corresponds to a
    covering run of the original instance.
    """
    net = inst.net
    if letter in net.alphabet:
        raise LetterCollision(f"letter {letter!r} already in the alphabet")
    existing = {t.name for t in net.transitions}
    name = "t_final"
    k = 0
    while name in existing:
        k += 1
        name = f"t_final_{k}"
    t_final = Transition.make(name, letter, inst.final.as_dict(net), {})
    extended = PetriNet(
        net.alphabet + (letter,), net.places, net.transitions + (t_final,)
    )
    return NetInstance(extended, inst.initial, Marking.zero(extended))
