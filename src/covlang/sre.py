"""Simple regular expressions: products of letters, optional letters, and
letter-set iterations.  The linearization (``linearize``, ``lin_fsa``,
``lin_to_net``) is on no decision path: it serves ``dc_unboundedness_system``
and ``product_in_dc_pn``, the reference the tests compare the deciders against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fsa import Fsa, make_fsa
from .nets import EPSILON, PetriNet, Transition, Word


@dataclass(frozen=True)
class Letter:
    letter: str


@dataclass(frozen=True)
class OptionalLetter:
    letter: str


@dataclass(frozen=True)
class Star:
    letters: frozenset


Atom = object  # Letter | OptionalLetter | Star


@dataclass(frozen=True)
class Product:
    atoms: tuple

    def letters_used(self) -> set:
        used = set()
        for atom in self.atoms:
            if isinstance(atom, Star):
                used |= atom.letters
            else:
                used.add(atom.letter)
        return used


@dataclass(frozen=True)
class Sre:
    products: tuple

    def __post_init__(self):
        if not self.products:
            raise ValueError("an SRE is a non-empty choice of products")

    def letters_used(self) -> set:
        used = set()
        for p in self.products:
            used |= p.letters_used()
        return used


def product(*atoms) -> Product:
    return Product(tuple(atoms))


def star(letters) -> Star:
    return Star(frozenset(letters))


@dataclass(frozen=True)
class AlphabetOrder:
    """A total order on the alphabet, given as a word listing each letter once."""

    order: tuple

    def __post_init__(self):
        if len(set(self.order)) != len(self.order):
            raise ValueError("alphabet order repeats a letter")

    def project(self, letters) -> tuple:
        return tuple(a for a in self.order if a in letters)


def default_order(alphabet) -> AlphabetOrder:
    return AlphabetOrder(tuple(alphabet))


def min_word(p: Product) -> Word:
    """The unique subword-minimal word of the product's language.

    Mandatory letters stay; optional letters and iterations contribute nothing.
    """
    return tuple(a.letter for a in p.atoms if isinstance(a, Letter))


# Linearized products: mandatory letters interleaved with fixed cyclic blocks.


@dataclass(frozen=True)
class LinBlock:
    cycle: tuple  # projection of the alphabet order onto the block's letters


@dataclass(frozen=True)
class LinearProduct:
    items: tuple  # Letter | LinBlock


def linearize(p: Product, order: AlphabetOrder) -> LinearProduct:
    """Remove choice from a product: optional letters become mandatory and each
    iteration over a letter set becomes iteration of one fixed word."""
    items = []
    for atom in p.atoms:
        if isinstance(atom, (Letter, OptionalLetter)):
            items.append(Letter(atom.letter))
        else:
            items.append(LinBlock(order.project(atom.letters)))
    return LinearProduct(tuple(items))


def lin_fsa(linp: LinearProduct, alphabet) -> Fsa:
    """Automaton for the linearized product's language."""
    states = [0]
    trans = []
    current = 0

    def fresh():
        states.append(states[-1] + 1)
        return states[-1]

    for item in linp.items:
        if isinstance(item, Letter):
            nxt = fresh()
            trans.append((current, item.letter, nxt))
            current = nxt
        else:
            if not item.cycle:
                continue
            hub = current
            prev = hub
            for a in item.cycle[:-1]:
                nxt = fresh()
                trans.append((prev, a, nxt))
                prev = nxt
            trans.append((prev, item.cycle[-1], hub))
    return make_fsa(alphabet, states, trans, 0, {current})


@dataclass(frozen=True)
class LinNet:
    """One-token control chain for a linearized product.

    ``counting_places`` holds one place per non-empty block; it receives a
    token each time the block's cycle word completes.  ``exit_place`` carries
    the control token once a full word of the product has been read.
    """

    net: PetriNet
    entry_place: str
    exit_place: str
    counting_places: tuple


def lin_to_net(linp: LinearProduct, alphabet) -> LinNet:
    places = ["lin.0"]
    transitions = []
    counting = []
    current = "lin.0"
    serial = 0

    def fresh_place(kind):
        nonlocal serial
        serial += 1
        name = f"lin.{kind}{serial}"
        places.append(name)
        return name

    for item in linp.items:
        if isinstance(item, Letter):
            nxt = fresh_place("q")
            transitions.append(
                Transition.make(f"lin.t{serial}", item.letter, {current: 1}, {nxt: 1})
            )
            current = nxt
        else:
            if not item.cycle:
                continue  # an empty iteration contributes only the empty word
            counter = fresh_place("cnt")
            counting.append(counter)
            hub = current
            prev = hub
            for a in item.cycle[:-1]:
                nxt = fresh_place("q")
                transitions.append(
                    Transition.make(f"lin.t{serial}", a, {prev: 1}, {nxt: 1})
                )
                prev = nxt
            serial += 1
            transitions.append(
                Transition.make(
                    f"lin.t{serial}",
                    item.cycle[-1],
                    {prev: 1},
                    {hub: 1, counter: 1},
                )
            )
    net = PetriNet(tuple(alphabet), tuple(places), tuple(transitions))
    return LinNet(net, "lin.0", current, tuple(counting))


def normalize_product(p: Product) -> Product:
    """Rewrite into the alternating optional-letter / iteration shape.

    Language equivalence is not preserved (mandatory letters weaken to
    optional ones), but inclusion in any downward-closed language is.
    """
    letters, blocks = normalized_slots(p)
    atoms = []
    for i, a in enumerate(letters):
        if a is not None:
            atoms.append(OptionalLetter(a))
        if i < len(blocks):
            atoms.append(Star(blocks[i]))
    return Product(tuple(atoms))


def normalized_slots(p: Product):
    """Uniform view of the normalized shape: n letter slots (None = absent)
    separated by n-1 letter sets."""
    letters = []
    blocks = []
    for atom in p.atoms:
        if isinstance(atom, (Letter, OptionalLetter)):
            if len(letters) > len(blocks):
                blocks.append(frozenset())
            letters.append(atom.letter)
        else:
            if len(letters) == len(blocks):
                letters.append(None)
            blocks.append(atom.letters)
    if len(letters) == len(blocks):
        letters.append(None)
    return tuple(letters), tuple(blocks)


def to_fsa(s: Sre, alphabet) -> Fsa:
    """Thompson-style automaton for the whole expression."""
    states = ["i"]
    trans = []
    finals = set()
    for pi, p in enumerate(s.products):
        current = "i"
        for ai, atom in enumerate(p.atoms):
            if isinstance(atom, Letter):
                nxt = ("p", pi, ai)
                states.append(nxt)
                trans.append((current, atom.letter, nxt))
                current = nxt
            elif isinstance(atom, OptionalLetter):
                nxt = ("p", pi, ai)
                states.append(nxt)
                trans.append((current, atom.letter, nxt))
                trans.append((current, EPSILON, nxt))
                current = nxt
            else:
                nxt = ("p", pi, ai)
                states.append(nxt)
                trans.append((current, EPSILON, nxt))
                for a in sorted(atom.letters):
                    trans.append((nxt, a, nxt))
                current = nxt
        finals.add(current)
    return make_fsa(alphabet, states, trans, "i", finals)


def product_fsa(p: Product, alphabet) -> Fsa:
    return to_fsa(Sre((p,)), alphabet)
