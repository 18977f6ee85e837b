"""The benchmark's own answer checks hold on covlang as it is.

``perfbench/workloads.py`` checks every answer of the benchmark's queries
independently, reading covlang's automata, closures and minimal-DFA sizes
on its own.  A change that breaks one of those checks would otherwise show
only when the benchmark runs.  This test loads the module without changing
it, builds the three query lists at seed 1, and runs and checks a few cheap
queries of every verb: those at n <= 3 on the power family, the first two of
each verb elsewhere.  A query is run under its own deadline, as the
benchmark runs it; one that outlives it is not checked, and the next query
of its verb is taken instead.
"""

import contextlib
import importlib.util
import io
import re
import signal
import sys
from pathlib import Path

import pytest

from covlang import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
#: Answered queries checked per verb outside the power family.
PER_VERB = 2
#: Queries tried per verb before the verb counts as unanswerable.
TRIES = 8


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline


def _run(query):
    """The query's result, or None when it outlives its deadline."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, query.deadline)
        try:
            if query.argv is None:
                return query.call()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(query.argv)
            return code, out.getvalue()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except _Deadline:
        return None
    finally:
        signal.signal(signal.SIGALRM, previous)


def _small_power(query):
    return int(re.search(r" n=(\d+)", query.label).group(1)) <= 3


@pytest.mark.parametrize("name", ["sre-corpus", "power-family", "general-nets"])
def test_cheap_queries_pass_the_benchmark_checks(name, tmp_path):
    workloads = _workloads()
    queries, _warmup = workloads.build(name, 1, tmp_path)
    by_kind = {}
    for query in queries:
        by_kind.setdefault(query.kind, []).append(query)
    for kind, candidates in sorted(by_kind.items()):
        if name == "power-family":
            chosen, wanted = [q for q in candidates if _small_power(q)], None
        else:
            chosen, wanted = candidates[:TRIES], PER_VERB
        answered = 0
        for query in chosen:
            result = _run(query)
            if result is None:
                continue
            try:
                note = query.check(result)
            except workloads.Unverified:
                continue
            assert note is None, (query.label, note)
            answered += 1
            if answered == wanted:
                break
        assert answered == (wanted or len(chosen)) and answered, (kind, answered)
