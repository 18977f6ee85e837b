"""Spans and counters around calls into covlang's layers.

The package's modules import each other with ``from .x import f``, so a call
from ``closures`` to ``reach.km_graph`` looks the name up in ``closures``'s own
namespace.  ``Tracer.install`` therefore replaces a function in every covlang
module namespace that holds it, and ``Tracer.uninstall`` puts the originals
back, so untraced passes run the program exactly as shipped.  Nothing under
``src/`` changes.

A span is (query id, name, start, end, parent index).  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the durations of its direct children; the spans of one query nest, so
the self times of a query sum to the duration of its root span.

Counts are kept per query, and only when the query finished before its
deadline: how far an interrupted search got depends on the machine, and
counts must repeat exactly from run to run.  run.py sums them over the
queries that finished in every pass of a run.  Deadline hits are always kept
and are charged to the module of the innermost open span.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

#: Modules whose public functions get a span, with the functions to wrap.
SPANNED = {
    "presburger": (
        "flatten_exists",
        "solve_bounded",
        "solve_exhaustive",
        "bpp_reach_formula",
    ),
    "sre_inclusion": (
        "sre_in_dc_bpp",
        "sre_in_uc_bpp",
        "sre_in_dc_pn",
        "sre_in_uc_pn",
        "p_witness_system",
        "staged_cover_system",
        "dc_unboundedness_system",
    ),
    "reach": ("km_graph", "simultaneously_unbounded", "coverable", "member"),
    "closures": (
        "k_bounded_fsa",
        "reachability_fsa",
        "uc_fsa",
        "uc_fsa_bpp",
        "dc_fsa_bpp",
        "dc_fsa_pn",
    ),
    "nets": ("sync_with_fsa", "right_product"),
    "fsa": ("determinize", "minimal_dfa_size", "included"),
    "trace_inclusion": (
        "silent_closure",
        "traces_included",
        "regular_included_in_lang",
        "is_closed",
    ),
    "textio": ("parse_net", "parse_fsa", "parse_sre", "print_fsa"),
    "cli": ("main",),
}

#: Functions that only get a call counter: for the hot ones a span per call
#: would cost more than the call itself; HiGHS time stays in its caller's span.
COUNTED = {"nets": ("fire",), "reach": ("om_accelerate",), "presburger": ("_solve_milp",)}

#: Calls made from sre_inclusion that decide one product (procedures), and the
#: calls that start one product (products).  A product of an up query on the
#: communication-free route runs two procedures: the formula and ``member``.
PROCEDURES = ("solve_bounded", "member", "simultaneously_unbounded")
PRODUCT_STARTS = ("p_witness_system", "dc_unboundedness_system", "min_word")

#: The span that encloses one whole query; its self time is harness overhead.
ROOT = "bench.query"


#: Count read off a call's arguments and result, by function: (key, amount).
EXTRACT = {
    "reach.km_graph": ("reach.km_graph.nodes", lambda args, result: len(result.nodes)),
    "closures.k_bounded_fsa": ("closures.k_bounded_fsa.states", lambda args, result: len(result.states)),
    "closures.reachability_fsa": (
        "closures.reachability_fsa.states",
        lambda args, result: 0 if result is None else len(result.states),
    ),
    "fsa.determinize": ("fsa.determinize.states", lambda args, result: len(result[0])),
    "presburger._solve_milp": ("presburger.vars", lambda args, result: len(args[1])),
    "presburger.solve_bounded": ("presburger.solve_bounded.sat", lambda args, result: int(result is not None)),
}


class Tracer:
    """Records spans and counts while installed; inert otherwise."""

    def __init__(self, modules, budget_error, clock=time.perf_counter):
        self.modules = modules  # name -> covlang module object
        self.budget_error = budget_error
        self.clock = clock
        self.spans = []  # (qid, name, start, end, parent)
        self.stack = []
        self.counts = Counter()  # current query
        self.kept = {}  # query id -> counts, finished queries of the current pass
        self.deadline_hits = Counter()
        self.qid = None
        self._patches = None
        self._installed = False

    # recording

    def enter(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.qid, name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def leave(self, index):
        self.spans[index][3] = self.clock()
        # an exception may unwind several wrappers at once; pop down to index
        while self.stack and self.stack[-1] >= index:
            self.stack.pop()

    def innermost_module(self):
        if not self.stack:
            return "bench"
        return self.spans[self.stack[-1]][1].split(".", 1)[0]

    def note_deadline(self):
        self.deadline_hits[self.innermost_module() + ".deadline_hits"] += 1

    def begin_query(self, qid):
        self.qid = qid
        self.counts = Counter()
        return self.enter(ROOT)

    def end_query(self, root, finished):
        """Close the query's root span, and with it every span the deadline
        left open: the alarm can fire between a span's creation and its end."""
        self.leave(root)
        end = self.spans[root][3]
        for span in self.spans[root + 1 :]:
            if span[3] is None:
                span[3] = end
        self.stack.clear()
        if finished:
            self.kept[self.qid] = self.counts

    def take_pass(self):
        """Counts per finished query, deadline hits and spans of the pass just
        run; resets all three."""
        taken = self.kept, self.deadline_hits, self.spans
        self.kept = {}
        self.deadline_hits = Counter()
        self.spans = []
        return taken

    # wrappers

    def _spanned(self, name, fn):
        extract = EXTRACT.get(name)
        module = name.split(".", 1)[0]
        budget_error = self.budget_error

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except budget_error as err:
                if not getattr(err, "_bench_counted", False):
                    err._bench_counted = True
                    self.counts[module + ".budget_exceeded"] += 1
                raise
            finally:
                self.leave(index)
            self.counts[name + ".calls"] += 1
            if extract is not None:
                self.counts[extract[0]] += extract[1](args, result)
            return result

        return wrapper

    def _counted(self, key, fn, extract=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # self.counts is rebound per query, so look it up at call time
            self.counts[key] += 1
            result = fn(*args, **kwargs)
            if extract is not None:
                self.counts[extract[0]] += extract[1](args, result)
            return result

        return wrapper

    def _plan(self):
        """(module, attribute, original, wrapper) for every name to replace."""
        wrappers = {}
        for module_name, names in SPANNED.items():
            for fn_name in names:
                original = getattr(self.modules[module_name], fn_name)
                wrappers[original] = self._spanned(f"{module_name}.{fn_name}", original)
        for module_name, names in COUNTED.items():
            for fn_name in names:
                original = getattr(self.modules[module_name], fn_name)
                name = f"{module_name}.{fn_name}"
                wrappers[original] = self._counted(name + ".calls", original, EXTRACT.get(name))
        plan = [
            (module, attr, value, wrappers[value])
            for module in self.modules.values()
            for attr, value in vars(module).items()
            if callable(value) and value in wrappers
        ]
        # sre_inclusion's own view of the calls that start or decide a product
        ns = self.modules["sre_inclusion"]
        for fn_name in PROCEDURES + PRODUCT_STARTS:
            key = "sre_inclusion.procedures" if fn_name in PROCEDURES else "sre_inclusion.products"
            original = getattr(ns, fn_name)
            inner = wrappers.get(original, original)
            plan = [entry for entry in plan if entry[:2] != (ns, fn_name)]
            plan.append((ns, fn_name, original, self._counted(key, inner)))
        return plan

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._patches is None:
            self._patches = self._plan()
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._installed = True

    def uninstall(self):
        for module, attr, original, _wrapper in self._patches or ():
            setattr(module, attr, original)
        self._installed = False


def self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    own = [end - start for _qid, _name, start, end, _parent in spans]
    for _qid, _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_summary(spans, query_counts, deadline_hits):
    """Per-layer totals of one pass: self seconds by span name, counts by
    query (keyed by str(query id), as in JSON), deadline hits, and the largest
    gap between a query's summed self times and its duration."""
    own = self_times(spans)
    self_s = Counter()
    per_query = Counter()
    root_duration = {}
    for (qid, name, start, end, _parent), s in zip(spans, own):
        self_s[name] += s
        per_query[qid] += s
        if name == ROOT:
            root_duration[qid] = end - start
    residual = max(
        (abs(per_query[q] - d) for q, d in root_duration.items()), default=0.0
    )
    return {
        "self_s": dict(self_s),
        "query_counts": {str(q): dict(c) for q, c in query_counts.items()},
        "deadline_hits": dict(deadline_hits),
        "residual_s": residual,
    }
