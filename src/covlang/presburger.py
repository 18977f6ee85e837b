"""Existential Presburger arithmetic over natural-valued variables.

Terms live in the integers, variables in the naturals.  A term is one linear
form, a constant plus a sorted tuple of (variable, coefficient) pairs, so its
size does not depend on the size of its coefficients; ``Var``, ``Const``,
``Add``, ``Sub`` and ``Scale`` build it.  The formulas of the
communication-free procedures are built here and exported as SMT-LIB 2; no
decision procedure of the package solves them.  The bounded solver
``solve_bounded`` is a library call and the tests' oracle.  It is sound
within its box: tiny problems go through exhaustive enumeration, everything
else through a big-M integer program (scipy/HiGHS, imported on first use)
whose models are re-checked symbolically before being returned.  When HiGHS
cannot answer (time limit, failure, numbers beyond exact float64, a model
that fails the re-check) it raises SolverUnavailable instead of reporting no
model.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import NotBpp, SolverUnavailable, UnboundVariable
from .nets import Marking, PetriNet
from . import nets as _nets

#: Seconds HiGHS may spend on one query of ``solve_bounded``.
SOLVER_SECONDS = 60.0
#: Largest integer float64 holds exactly; beyond it the integer program's
#: rows no longer state the formula.
EXACT_FLOAT_LIMIT = 2**53

# Terms


@dataclass(frozen=True)
class Term:
    """The linear form sum(k * v for v, k in coeffs) + const.

    ``coeffs`` is sorted by variable name and holds no zero coefficient, so two
    terms are equal exactly when they denote the same form.
    """

    coeffs: tuple = ()
    const: int = 0


def _form(coeffs: dict, const: int) -> Term:
    return Term(tuple(sorted((v, k) for v, k in coeffs.items() if k)), const)


def Var(name: str) -> Term:
    return Term(((name, 1),))


def Const(value: int) -> Term:
    return Term((), value)


def Scale(k: int, t: Term) -> Term:
    return _form({v: k * c for v, c in t.coeffs}, k * t.const)


def Add(left: Term, right: Term) -> Term:
    coeffs = dict(left.coeffs)
    for v, k in right.coeffs:
        coeffs[v] = coeffs.get(v, 0) + k
    return _form(coeffs, left.const + right.const)


def Sub(left: Term, right: Term) -> Term:
    return Add(left, Scale(-1, right))


ZERO = Const(0)
ONE = Const(1)


# Formulas


@dataclass(frozen=True)
class Leq:
    left: object
    right: object


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


TRUE = Leq(ZERO, ZERO)
FALSE = Leq(ONE, ZERO)


def _balanced(op, formulas):
    """op over the formulas, in order, as a balanced tree: its depth grows
    with the logarithm of their number, so long products stay within the
    recursion limit of the walks below."""
    if len(formulas) == 1:
        return formulas[0]
    half = len(formulas) // 2
    return op(_balanced(op, formulas[:half]), _balanced(op, formulas[half:]))


def conj(*formulas):
    formulas = [f for f in formulas if f != TRUE]
    return _balanced(And, formulas) if formulas else TRUE


def disj(*formulas):
    return _balanced(Or, formulas) if formulas else FALSE


def implies(a, b):
    return Or(Not(a), b)


def equals(a, b):
    return And(Leq(a, b), Leq(b, a))


def lt(a, b):
    return Leq(Add(a, ONE), b)


def exists(names, body):
    for name in reversed(list(names)):
        body = Exists(name, body)
    return body


def term_vars(t) -> set:
    return {v for v, _k in t.coeffs}


def free_vars(f) -> set:
    bound = set()
    while isinstance(f, Exists):  # a chain of binders, walked in a loop
        bound.add(f.var)
        f = f.body
    if isinstance(f, Leq):
        found = term_vars(f.left) | term_vars(f.right)
    elif isinstance(f, Not):
        found = free_vars(f.body)
    elif isinstance(f, (Or, And)):
        found = free_vars(f.left) | free_vars(f.right)
    else:
        raise TypeError(f"not a formula: {f!r}")
    return found - bound


def eval_term(t, asg) -> int:
    try:
        return t.const + sum(k * asg[v] for v, k in t.coeffs)
    except KeyError as err:
        raise UnboundVariable(err.args[0]) from None


def evaluate(f, asg) -> bool:
    """Standard semantics; existential quantifiers search [0..window].

    The window grows with the constants and coefficients of the formula and
    the values of the assignment.  It is a heuristic, not a decision procedure:
    the solvers evaluate only flattened, quantifier-free formulas, where it
    plays no part and is never computed.
    """
    if any(v < 0 for v in asg.values()):
        raise ValueError("variables range over naturals")
    exists_window = functools.cache(
        lambda: 2 * (_max_const(f) + max([0, *map(abs, asg.values())])) + 8
    )

    def go(f, asg):
        if isinstance(f, Leq):
            return eval_term(f.left, asg) <= eval_term(f.right, asg)
        if isinstance(f, Not):
            return not go(f.body, asg)
        if isinstance(f, Or):
            return go(f.left, asg) or go(f.right, asg)
        if isinstance(f, And):
            return go(f.left, asg) and go(f.right, asg)
        if isinstance(f, Exists):
            return any(
                go(f.body, {**asg, f.var: v}) for v in range(exists_window() + 1)
            )
        raise TypeError(f"not a formula: {f!r}")

    return go(f, asg)


def _max_const(f) -> int:
    def term_max(t):
        return max([abs(t.const), *(abs(k) for _v, k in t.coeffs)])

    if isinstance(f, Leq):
        return max(term_max(f.left), term_max(f.right))
    if isinstance(f, Not):
        return _max_const(f.body)
    if isinstance(f, (Or, And)):
        return max(_max_const(f.left), _max_const(f.right))
    if isinstance(f, Exists):
        return _max_const(f.body)
    return 0


def flatten_exists(f):
    """Rename existential variables apart and strip the quantifiers.

    Returns (quantifier-free formula, renaming {fresh: original}).  Fails on
    quantifiers under negation: the fragment here is purely existential.
    One descent carries the binders in scope that got a new name; subformulas
    under no such binder come back unchanged, not rebuilt.
    """
    renaming = {}
    used = set(free_vars(f))
    counter = itertools.count()

    def fresh(base):
        name = base
        while name in used:
            name = f"{base}~{next(counter)}"
        used.add(name)
        return name

    def rename(t, scope):
        return _form({scope.get(v, v): k for v, k in t.coeffs}, t.const)

    def go(f, positive, scope):
        while isinstance(f, Exists):  # a chain of binders, walked in a loop
            if not positive:
                raise ValueError("existential quantifier under negation")
            name = fresh(f.var)
            renaming[name] = f.var
            if name != f.var:
                scope = {**scope, f.var: name}
            f = f.body
        if isinstance(f, Leq):
            return Leq(rename(f.left, scope), rename(f.right, scope)) if scope else f
        if isinstance(f, Not):
            body = go(f.body, not positive, scope)
            return f if body is f.body else Not(body)
        if isinstance(f, (Or, And)):
            left, right = go(f.left, positive, scope), go(f.right, positive, scope)
            return f if left is f.left and right is f.right else type(f)(left, right)
        raise TypeError(f"not a formula: {f!r}")

    return go(f, True, {}), renaming


def _to_nnf(f):
    if isinstance(f, Leq):
        return f
    if isinstance(f, Not):
        inner = f.body
        if isinstance(inner, Leq):
            return Leq(Add(inner.right, ONE), inner.left)
        if isinstance(inner, Not):
            return _to_nnf(inner.body)
        if isinstance(inner, Or):
            return And(_to_nnf(Not(inner.left)), _to_nnf(Not(inner.right)))
        if isinstance(inner, And):
            return Or(_to_nnf(Not(inner.left)), _to_nnf(Not(inner.right)))
        raise ValueError("quantifier under negation")
    if isinstance(f, (Or, And)):
        return type(f)(_to_nnf(f.left), _to_nnf(f.right))
    raise TypeError(f"not quantifier-free: {f!r}")


def solve_exhaustive(f, bound: int):
    """Reference solver: enumerate the whole box (only viable for tiny formulas)."""
    qf, renaming = flatten_exists(f)
    asg = _enumerate(qf, sorted(free_vars(qf)), bound)
    return None if asg is None else _present_model(asg, renaming, free_vars(f))


def _enumerate(qf, names, bound: int):
    """First assignment of [0..bound]^names, in lexicographic order, that
    satisfies the quantifier-free formula, or None."""
    for values in itertools.product(range(bound + 1), repeat=len(names)):
        asg = dict(zip(names, values))
        if evaluate(qf, asg):
            return asg
    return None


def _present_model(asg, renaming, original_free):
    """Expose witnesses under their source names where unambiguous."""
    result = {}
    for name, value in asg.items():
        source = renaming.get(name, name)
        if source in result or (source in original_free and source != name):
            result[name] = value
        else:
            result[source] = value
    return result


def solve_bounded(f, bound: int):
    """Find an assignment in [0..bound]^vars satisfying f, or None.

    None means no solution inside the box, not unsatisfiability.  Raises
    SolverUnavailable when the integer program cannot answer: HiGHS hit its
    time limit or failed, a number is too large for exact floating point, or
    its model does not satisfy f.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    qf, renaming = flatten_exists(f)
    names = sorted(free_vars(qf))
    if (bound + 1) ** len(names) <= 50_000:
        asg = _enumerate(qf, names, bound)
    else:
        asg = _solve_milp(qf, names, bound)
        if asg is not None and not evaluate(qf, asg):
            raise SolverUnavailable("the integer program returned a model that fails the formula")
    if asg is None:
        return None
    return _present_model(asg, renaming, free_vars(f))


def _solve_milp(qf, names, bound: int):
    """A model of qf in [0..bound]^names, or None when HiGHS proves there is none."""
    try:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
    except ImportError as err:  # pragma: no cover - scipy is a hard dependency
        raise SolverUnavailable("scipy is required for the built-in solver") from err

    nnf = _to_nnf(qf)
    var_index = {name: i for i, name in enumerate(names)}
    n_int = len(names)
    gates = []  # (gate, coefficients, big-M, constant) per atom
    links = []  # (gate, children): gate <= child for And, gate <= sum for Or
    n_bin = 0

    def emit(f):
        """Return the binary index gating this subformula (monotone encoding)."""
        nonlocal n_bin
        g = n_int + n_bin
        n_bin += 1
        if isinstance(f, Leq):
            # sum + const <= 0 must hold when the gate is 1:
            # sum + M*g <= M - const, with M an upper bound of sum + const
            diff = Sub(f.left, f.right)
            m_val = sum(c * bound for _v, c in diff.coeffs if c > 0) + diff.const
            gates.append((g, diff.coeffs, max(m_val, 0), diff.const))
        elif isinstance(f, And):
            gl, gr = emit(f.left), emit(f.right)
            links.extend([(g, [gl]), (g, [gr])])
        elif isinstance(f, Or):
            gl, gr = emit(f.left), emit(f.right)
            links.append((g, [gl, gr]))
        else:
            raise TypeError(f"unexpected node after NNF: {f!r}")
        return g

    root = emit(nnf)
    largest = max(
        bound,
        *(
            abs(v)
            for _g, coeffs, big_m, const in gates
            for v in (big_m, big_m - const, *(c for _v, c in coeffs))
        ),
    )
    if largest > EXACT_FLOAT_LIMIT:
        raise SolverUnavailable(
            f"a constant of the integer program ({largest}) "
            "is too large for exact float64 arithmetic"
        )
    total = n_int + n_bin

    a_rows = []
    ubs = []
    for g, coeffs, big_m, const in gates:
        vec = np.zeros(total)
        for v, c in coeffs:
            vec[var_index[v]] = c
        vec[g] = big_m
        a_rows.append(vec)
        ubs.append(big_m - const)
    for g, children in links:
        vec = np.zeros(total)
        vec[g] = 1.0
        for c in children:
            vec[c] = -1.0
        a_rows.append(vec)
        ubs.append(0.0)
    # force the root gate
    vec = np.zeros(total)
    vec[root] = -1.0
    a_rows.append(vec)
    ubs.append(-1.0)

    lower = np.zeros(total)
    upper = np.concatenate([np.full(n_int, float(bound)), np.ones(n_bin)])
    constraints = LinearConstraint(
        np.vstack(a_rows), -np.inf * np.ones(len(ubs)), np.array(ubs)
    )
    result = milp(
        c=np.zeros(total),
        constraints=constraints,
        integrality=np.ones(total),
        bounds=Bounds(lower, upper),
        options={"time_limit": SOLVER_SECONDS},
    )
    if result.status == 2:
        return None
    if result.status != 0 or result.x is None:
        raise SolverUnavailable(f"HiGHS gave no answer: {result.message}")
    values = [int(round(v)) for v in result.x[:n_int]]
    return dict(zip(names, values))


def bpp_reach_formula(net: PetriNet, m0: Marking):
    """Existential formula whose natural models over the place variables are
    exactly the markings reachable from m0 (communication-free nets only).

    Marking equation plus a support condition: a used transition needs its
    pre-place to be initially marked or fed by a used transition of strictly
    smaller depth.
    """
    if not _nets.is_bpp(net):
        raise NotBpp("reachability characterization needs a communication-free net")
    count_of = {t.name: Var(f"x.{t.name}") for t in net.transitions}
    depth_of = {t.name: Var(f"z.{t.name}") for t in net.transitions}
    totals = {p: Const(c) for p, c in zip(net.places, m0.counts)}
    producers_of = {p: [] for p in net.places}  # in transition order
    for t in net.transitions:
        pre, post = t.pre_map, t.post_map
        for p in {**pre, **post}:
            delta = post.get(p, 0) - pre.get(p, 0)
            if delta:
                totals[p] = Add(totals[p], Scale(delta, count_of[t.name]))
        for p in post:
            producers_of[p].append(t)
    parts = [equals(Var(p), totals[p]) for p in net.places]
    max_depth = Const(len(net.transitions))
    for t in net.transitions:
        parts.append(Leq(depth_of[t.name], max_depth))
        pre = [p for p, w in t.pre for _ in range(w)]
        if not pre:
            continue
        q = pre[0]
        if m0.get(net, q) >= 1:
            continue
        producers = [u for u in producers_of[q] if u.name != t.name]
        feeders = [
            And(
                Leq(ONE, count_of[u.name]),
                lt(depth_of[u.name], depth_of[t.name]),
            )
            for u in producers
        ]
        parts.append(disj(Leq(count_of[t.name], ZERO), *feeders))
    body = conj(*parts)
    bound_names = [f"x.{t.name}" for t in net.transitions] + [
        f"z.{t.name}" for t in net.transitions
    ]
    return exists(bound_names, body)


# SMT-LIB 2 export


def _int_smt(k: int) -> str:
    return str(k) if k >= 0 else f"(- {-k})"


def _term_smt(t) -> str:
    parts = [v if k == 1 else f"(* {_int_smt(k)} {v})" for v, k in t.coeffs]
    if t.const or not parts:
        parts.append(_int_smt(t.const))
    return parts[0] if len(parts) == 1 else f"(+ {' '.join(parts)})"


def _formula_smt(f) -> str:
    if isinstance(f, Leq):
        return f"(<= {_term_smt(f.left)} {_term_smt(f.right)})"
    if isinstance(f, Not):
        return f"(not {_formula_smt(f.body)})"
    if isinstance(f, Or):
        return f"(or {_formula_smt(f.left)} {_formula_smt(f.right)})"
    if isinstance(f, And):
        return f"(and {_formula_smt(f.left)} {_formula_smt(f.right)})"
    raise TypeError(f"not quantifier-free: {f!r}")


def smtlib_export(f) -> str:
    """QF_LIA script: naturals as non-negative Ints, quantifiers flattened."""
    qf, _renaming = flatten_exists(f)
    lines = ["(set-logic QF_LIA)"]
    for name in sorted(free_vars(qf)):
        lines.append(f"(declare-fun {name} () Int)")
        lines.append(f"(assert (>= {name} 0))")
    lines.append(f"(assert {_formula_smt(qf)})")
    lines.append("(check-sat)")
    lines.append("(get-model)")
    return "\n".join(lines) + "\n"


def _tokenize_sexpr(text: str):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read_sexprs(tokens):
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    return stack[0]


def parse_smtlib_script(text: str):
    """Read back a script produced by smtlib_export: (variables, formula)."""
    exprs = _read_sexprs(_tokenize_sexpr(text))
    names = []
    asserts = []
    for e in exprs:
        if not isinstance(e, list) or not e:
            continue
        if e[0] == "declare-fun":
            names.append(e[1])
        elif e[0] == "assert":
            asserts.append(_sexpr_formula(e[1]))
    return names, conj(*asserts)


def _sexpr_term(e):
    if isinstance(e, str):
        if e.lstrip("-").isdigit():
            return Const(int(e))
        return Var(e)
    op, *args = e
    terms = [_sexpr_term(a) for a in args]
    if op == "*":  # smtlib_export writes only (* constant term)
        k, t = terms
        return Scale(k.const, t)
    if op == "-" and len(terms) == 1:
        return Scale(-1, terms[0])
    result = terms[0]
    for t in terms[1:]:
        result = Add(result, t) if op == "+" else Sub(result, t)
    return result


def _sexpr_formula(e):
    op, *args = e
    if op == "<=":
        return Leq(_sexpr_term(args[0]), _sexpr_term(args[1]))
    if op == ">=":
        return Leq(_sexpr_term(args[1]), _sexpr_term(args[0]))
    if op == "not":
        return Not(_sexpr_formula(args[0]))
    if op == "or":
        return disj(*[_sexpr_formula(a) for a in args])
    if op == "and":
        return conj(*[_sexpr_formula(a) for a in args])
    raise ValueError(f"unsupported operator {op!r}")
