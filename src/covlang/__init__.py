"""Finite-automaton representations of the upward and downward closures of
Petri net coverability languages, inclusion checks for simple regular
expressions, and deciders for a language being closed."""

from .closures import (
    BoundReport,
    ClosureResult,
    bpp_cutoff_bound,
    bpp_short_bound,
    dc_fsa_bpp,
    dc_fsa_pn,
    k_bounded_fsa,
    rackoff_bound,
    rackoff_g_bound,
    uc_fsa,
    uc_fsa_bpp,
)
from .families import (
    FamilyParams,
    ackermann_instance,
    ackermann_value,
    bpp_power_instance,
    rackoff_counterexample,
)
from .fsa import Fsa, enumerate_words, make_fsa, minimal_dfa_size, saturate_down, saturate_up
from .nets import (
    EPSILON,
    Marking,
    NetInstance,
    PetriNet,
    Transition,
    append_final_letter,
    fire,
    fire_sequence,
    is_bpp,
    right_product,
    subword,
    sync_with_fsa,
    word,
)
from .presburger import bpp_reach_formula, evaluate, smtlib_export, solve_bounded
from .reach import (
    KmGraph,
    OMEGA,
    UpwardClosedSet,
    brute_force_language,
    coverable,
    km_graph,
    member,
    minimal_words,
    simultaneously_unbounded,
)
from .sre import AlphabetOrder, Letter, OptionalLetter, Product, Sre, Star, linearize, min_word, normalize_product, to_fsa
from .sre_inclusion import (
    Verdict,
    sre_in_dc_bpp,
    sre_in_dc_pn,
    sre_in_uc_bpp,
    sre_in_uc_pn,
)
from .trace_inclusion import is_closed, regular_included_in_lang, traces_included

__version__ = "0.1.0"
