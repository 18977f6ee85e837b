"""Line-oriented text formats for nets and automata, the expression syntax,
and DOT export.  All writers order their output deterministically so fixtures
diff cleanly and parse(print(x)) returns x structurally."""

from __future__ import annotations

from .errors import ParseError
from .fsa import Fsa, make_fsa
from .nets import EPSILON, Marking, NetInstance, PetriNet, Transition
from .sre import Letter, OptionalLetter, Product, Sre, Star

EPS_TOKEN = "eps"


# Net documents
#
#   alphabet a b c
#   place run
#   trans rt_help label a pre run:1 post run:1,temp:1
#   init run:1
#   final stop:1


def _parse_flow(text: str, line_no: int) -> dict:
    flow = {}
    if not text:
        return flow
    for part in text.split(","):
        if ":" not in part:
            raise ParseError(line_no, "PLACE:WEIGHT", part)
        name, _, weight = part.partition(":")
        if not weight.isdigit():
            raise ParseError(line_no, "a decimal weight", weight)
        flow[name] = flow.get(name, 0) + int(weight)
    return flow


def _letter(token: str, line_no: int) -> str:
    if token == EPS_TOKEN:  # the silent edge, and the empty word
        raise ParseError(line_no, f"a letter other than {EPS_TOKEN}", token)
    return token


def _print_flow(flow: dict) -> str:
    return ",".join(f"{p}:{w}" for p, w in sorted(flow.items()))


def parse_net(text: str) -> NetInstance:
    alphabet = []
    places = []
    transitions = []
    init = {}
    final = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "alphabet":
            alphabet.extend(_letter(x, line_no) for x in tokens[1:])
        elif kind == "place":
            if len(tokens) != 2:
                raise ParseError(line_no, "place NAME", line)
            places.append(tokens[1])
        elif kind == "trans":
            if len(tokens) < 2:
                raise ParseError(line_no, "trans NAME ...", line)
            name = tokens[1]
            label = EPSILON
            pre = {}
            post = {}
            rest = tokens[2:]
            i = 0
            while i < len(rest):
                key = rest[i]
                if key == "label":
                    if i + 1 >= len(rest):
                        raise ParseError(line_no, "label LETTER", line)
                    label = _letter(rest[i + 1], line_no)
                    i += 2
                elif key in ("pre", "post"):
                    if i + 1 >= len(rest):
                        raise ParseError(line_no, f"{key} P:W,...", line)
                    flow = _parse_flow(rest[i + 1], line_no)
                    if key == "pre":
                        pre = flow
                    else:
                        post = flow
                    i += 2
                else:
                    raise ParseError(line_no, "label/pre/post", key)
            transitions.append(Transition.make(name, label, pre, post))
        elif kind in ("init", "final"):
            if len(tokens) > 2:  # a flow is one comma-separated token
                raise ParseError(line_no, f"{kind} P:W,...", line)
            flow = _parse_flow(tokens[1], line_no) if len(tokens) > 1 else {}
            if kind == "init":
                init = flow
            else:
                final = flow
        else:
            raise ParseError(line_no, "alphabet/place/trans/init/final", kind)
    try:
        net = PetriNet(tuple(alphabet), tuple(places), tuple(transitions))
        return NetInstance(net, Marking.of(net, init), Marking.of(net, final))
    except ValueError as err:
        raise ParseError(0, "a well-formed net document", str(err)) from None


def print_net(inst: NetInstance) -> str:
    net = inst.net
    lines = []
    if net.alphabet:
        lines.append("alphabet " + " ".join(net.alphabet))
    for p in net.places:
        lines.append(f"place {p}")
    for t in net.transitions:
        parts = [f"trans {t.name}"]
        if t.label != EPSILON:
            parts.append(f"label {t.label}")
        if t.pre:
            parts.append("pre " + _print_flow(dict(t.pre)))
        if t.post:
            parts.append("post " + _print_flow(dict(t.post)))
        lines.append(" ".join(parts))
    if any(inst.initial.counts):
        lines.append("init " + _print_flow(inst.initial.as_dict(net)))
    if any(inst.final.counts):
        lines.append("final " + _print_flow(inst.final.as_dict(net)))
    return "\n".join(lines) + "\n"


# Automaton documents
#
#   alphabet a b
#   state S0 initial
#   state S1 final
#   edge S0 a S1
#   edge S0 eps S1


def parse_fsa(text: str) -> Fsa:
    alphabet = []
    states = []
    initial = None
    finals = set()
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "alphabet":
            alphabet.extend(_letter(x, line_no) for x in tokens[1:])
        elif kind == "state":
            if len(tokens) < 2:
                raise ParseError(line_no, "state NAME [initial] [final]", line)
            states.append(tokens[1])
            for flag in tokens[2:]:
                if flag == "initial":
                    if initial is not None:
                        raise ParseError(line_no, "a single initial state", flag)
                    initial = tokens[1]
                elif flag == "final":
                    finals.add(tokens[1])
                else:
                    raise ParseError(line_no, "initial/final", flag)
        elif kind == "edge":
            if len(tokens) != 4:
                raise ParseError(line_no, "edge SRC LABEL DST", line)
            label = EPSILON if tokens[2] == EPS_TOKEN else tokens[2]
            edges.append((tokens[1], label, tokens[3]))
        else:
            raise ParseError(line_no, "alphabet/state/edge", kind)
    if initial is None:
        raise ParseError(0, "an initial state")
    try:
        return make_fsa(alphabet, states, edges, initial, finals)
    except ValueError as err:
        raise ParseError(0, "a well-formed automaton", str(err)) from None


def _state_names(a: Fsa) -> dict:
    ordered = sorted(a.states, key=repr)
    ordered.remove(a.initial)
    ordered.insert(0, a.initial)
    return {q: f"S{i}" for i, q in enumerate(ordered)}


def _named_edges(a: Fsa, names: dict) -> list:
    """The edges as (source name, label, target name) triples, sorted."""
    return sorted((names[q], x, names[q2]) for q, row in a.out_edges().items() for x, q2 in row)


def print_fsa(a: Fsa) -> str:
    names = _state_names(a)
    lines = []
    if a.alphabet:
        lines.append("alphabet " + " ".join(a.alphabet))
    for q in sorted(names, key=lambda q: int(names[q][1:])):
        flags = []
        if q == a.initial:
            flags.append("initial")
        if q in a.finals:
            flags.append("final")
        lines.append(" ".join(["state", names[q], *flags]))
    for q, x, q2 in _named_edges(a, names):
        lines.append(f"edge {q} {x if x != EPSILON else EPS_TOKEN} {q2}")
    return "\n".join(lines) + "\n"


# Expression syntax:  sre := prod ('+' prod)*;  prod := atom ('.' atom)*
#   atom := LETTER | '(' LETTER '+eps' ')' | '{' letters '}' '*' | '@*'


def parse_sre(text: str) -> Sre:
    products = []
    for chunk in _split_top(text, "+"):
        atoms = []
        for atom_text in _split_top(chunk, "."):
            atom_text = atom_text.strip()
            if not atom_text:
                raise ParseError(0, "an atom", chunk)
            atoms.append(_parse_atom(atom_text))
        products.append(Product(tuple(atoms)))
    if not products:
        raise ParseError(0, "a non-empty expression")
    return Sre(tuple(products))


def _split_top(text: str, sep: str):
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in (s.strip() for s in parts) if p != ""]


def _parse_atom(text: str):
    if text == "@*":
        return Star(frozenset())
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].replace(" ", "")
        if not inner.endswith("+eps"):
            raise ParseError(0, "( LETTER +eps )", text)
        letter = inner[: -len("+eps")]
        if not letter:
            raise ParseError(0, "a letter before +eps", text)
        return OptionalLetter(letter)
    if text.startswith("{"):
        if not text.endswith("}*"):
            raise ParseError(0, "{ letters }*", text)
        inner = text[1:-2].strip()
        if "," in inner:
            letters = [s.strip() for s in inner.split(",") if s.strip()]
        else:
            letters = list(inner)
        return Star(frozenset(letters))
    if any(ch in text for ch in "(){}*+"):
        raise ParseError(0, "a plain letter", text)
    return Letter(text)


def print_sre(s: Sre) -> str:
    chunks = []
    for p in s.products:
        if not p.atoms:
            chunks.append("@*")
            continue
        atoms = []
        for atom in p.atoms:
            if isinstance(atom, Letter):
                atoms.append(atom.letter)
            elif isinstance(atom, OptionalLetter):
                atoms.append(f"({atom.letter}+eps)")
            elif not atom.letters:
                atoms.append("@*")
            else:
                atoms.append("{" + ",".join(sorted(atom.letters)) + "}*")
        chunks.append(".".join(atoms))
    return " + ".join(chunks)


def parse_word(text: str) -> tuple:
    """Single-character letters by default; comma syntax for longer letters."""
    if text in ("", "eps"):
        return ()
    if "," in text:
        return tuple(s for s in text.split(",") if s)
    return tuple(text)


# DOT export


def _dot_quote(label: str) -> str:
    escaped = (
        str(label)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )
    return '"' + escaped + '"'


def fsa_to_dot(a: Fsa, name: str = "fsa") -> str:
    names = _state_names(a)
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=point, style=invis];']
    for q in sorted(names, key=lambda q: int(names[q][1:])):
        shape = "doublecircle" if q in a.finals else "circle"
        lines.append(f"  {names[q]} [shape={shape}, label={_dot_quote(names[q])}];")
    lines.append(f"  hidden -> {names[a.initial]};")
    for q, x, q2 in _named_edges(a, names):
        label = x if x != EPSILON else "ε"
        lines.append(f"  {q} -> {q2} [label={_dot_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def net_to_dot(inst: NetInstance, name: str = "net") -> str:
    net = inst.net
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for p in net.places:
        tokens = inst.initial.get(net, p)
        label = f"{p}\n{tokens}" if tokens else p
        lines.append(f"  p_{_mangle(p)} [shape=circle, label={_dot_quote(label)}];")
    for t in net.transitions:
        label = t.name if t.label == EPSILON else f"{t.name}\n{t.label}"
        lines.append(f"  t_{_mangle(t.name)} [shape=box, label={_dot_quote(label)}];")
        for p, w in t.pre:
            extra = f' [label="{w}"]' if w != 1 else ""
            lines.append(f"  p_{_mangle(p)} -> t_{_mangle(t.name)}{extra};")
        for p, w in t.post:
            extra = f' [label="{w}"]' if w != 1 else ""
            lines.append(f"  t_{_mangle(t.name)} -> p_{_mangle(p)}{extra};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _mangle(name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in name)
