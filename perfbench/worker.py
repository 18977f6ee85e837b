"""Benchmark worker: one process that sets a workload up and runs its queries
back to back, one at a time, on commands from ``run.py``.

Protocol: commands arrive on stdin, one per line; messages leave on the
original stdout as JSON lines.

  command ``pass TRACE START``  run queries START.. of the list, traced if TRACE is 1
  command ``exit``              write the spans out and stop

  {"ready": N, "calibration_s": C, "calibrating_s": T}
                                               set-up finished; N queries a pass
  {"busy": SECONDS, "phase": "query", "index": I}  a query starts; it ends within SECONDS
  {"ran": I, "latency": S}                     the query returned (before its check)
  {"busy": SECONDS, "phase": "check", "index": I}
  {"done": I, "latency": S, "outcome": O, "note": N, "label": L, "deadline": D}
  {"pass_end": true, "calibration_s": C, "layers": {...} | null, "peak_threads": T,
   "peak_rss_mb": M}

M is the peak resident memory of set-up and of every query that did not time
out, sampled every RSS_EVERY_S of CPU time while a query runs and once when it
returns.  A timed-out search is left out: how much it allocated depends on
how far it got, so a faster search would read as a memory regression.  Before
each query the worker collects garbage and hands free heap memory back to the
system, so a query's reading does not carry what earlier queries left behind.

C is the median time of the calibration routine, run three times after set-up
and every CALIBRATE_EVERY_S of a pass, outside any query's timing.

Outcomes: ok, wrong, unknown (exit 2), deadline, error (exit 3, usage error or
an exception), unverified (the reference could not be computed).

The deadline is a SIGALRM whose handler raises ``QueryDeadline``, a
``BaseException``: k_bounded_fsa, reachability_fsa and brute_force_language
catch every ``Exception`` around ``fire``.  A signal cannot interrupt native
code, so ``run.py`` also kills the worker when a query outlives its deadline
by more than the stated margin.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seconds a reference check may take before its answer counts as unverified.
CHECK_LIMIT = 30.0
#: CPU seconds between two samples of resident memory during a query.
RSS_EVERY_S = 0.01
#: Seconds of query time between two runs of the calibration routine.
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds a fixed piece of pure-Python work (tuples, dicts, a frozenset,
    a sort: what covlang's explorers do) takes now.  A shared 2-vCPU Xeon
    host at 2.1 GHz changes speed by up to 40% from minute to minute as the
    other hyperthread of its core gets busy; run.py scales answered queries to
    a reference speed with these readings."""
    started = time.perf_counter()
    seen = {}
    for i in range(20000):
        key = (i % 97, i % 89, i & 15)
        seen[key] = seen.get(key, 0) + 1
    frozenset(seen)
    sorted(seen.items())
    return time.perf_counter() - started


class QueryDeadline(BaseException):
    """Raised by the SIGALRM handler when a query runs past its deadline."""


def import_program():
    """Import covlang and the test corpus from this checkout, never from
    elsewhere on the path."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "covlang" / "__init__.py").is_file() or not (tests / "corpus.py").is_file():
        raise SystemExit(f"perfbench: no covlang sources under {ROOT}")
    sys.path[:0] = [str(src), str(tests)]
    import covlang

    if Path(covlang.__file__).resolve().parent != src / "covlang":
        raise SystemExit(f"perfbench: imported covlang from {covlang.__file__}")


def call_cli(cli, argv):
    """Run one CLI verb in-process: (exit code, captured stdout)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, stdout.getvalue()


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return lambda pad: 0


malloc_trim = _malloc_trim()


def rss_mb_now() -> float:
    """Resident memory of this process now, in MB."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() / 2**20


def peak_threads_now() -> int:
    """OS threads of this process now (HiGHS starts its own)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Worker:
    def __init__(self, workload: str, seed: int, out):
        from covlang import cli, closures, fsa, nets, presburger, reach
        from covlang import sre, sre_inclusion, textio, trace_inclusion
        from covlang.errors import BudgetExceeded
        import workloads
        from tracing import Tracer, layer_summary

        self.layer_summary = layer_summary

        self.cli = cli
        self.out = out
        self.workloads = workloads
        docs = ROOT / "perfbench" / "out" / f"{workload}-{seed}"
        docs.mkdir(parents=True, exist_ok=True)
        self.trace_file = docs.parent / f"trace-{workload}-{seed}.jsonl"
        self.queries, warmup = workloads.build(workload, seed, docs)
        modules = {
            m.__name__.rsplit(".", 1)[-1]: m
            for m in (cli, closures, fsa, nets, presburger, reach, sre, sre_inclusion, textio, trace_inclusion)
        }
        self.tracer = Tracer(modules, BudgetExceeded)
        self.tracing = False
        self.spans = []
        self.checked = {}  # index -> (result, outcome, note)
        self.peak_threads = peak_threads_now()
        self.query_rss_mb = self.peak_rss_mb = 0.0
        signal.signal(signal.SIGALRM, self._alarm)
        signal.signal(signal.SIGPROF, self._sample_rss)
        for query in warmup:
            self._execute(query)
        self.peak_rss_mb = max(self.peak_rss_mb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        gc.collect()
        gc.freeze()

    def _sample_rss(self, signum, frame):
        self.query_rss_mb = max(self.query_rss_mb, rss_mb_now())

    def _alarm(self, signum, frame):
        if self.tracing:
            self.tracer.note_deadline()
        raise QueryDeadline()

    def send(self, **message):
        self.out.write(json.dumps(message) + "\n")
        self.out.flush()

    def _call(self, query):
        if query.argv is None:
            return query.call()
        return call_cli(self.cli, query.argv)

    def _execute(self, query):
        """Run one query under its deadline: (result, raw outcome, note, seconds)."""
        result, note = None, ""
        self.query_rss_mb = 0.0
        started = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_PROF, RSS_EVERY_S, RSS_EVERY_S)
            signal.setitimer(signal.ITIMER_REAL, query.deadline)
            try:
                result = self._call(query)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.setitimer(signal.ITIMER_PROF, 0)
            outcome = "answered"
        except QueryDeadline:
            outcome = "deadline"
        except Exception as err:
            outcome, note = "error", repr(err)[:200]
        latency = time.perf_counter() - started
        if outcome == "answered":
            self.peak_rss_mb = max(self.peak_rss_mb, self.query_rss_mb, rss_mb_now())
        if outcome == "answered" and query.argv is not None:
            if result[0] == 2:
                outcome = "unknown"
            elif result[0] not in (0, 1):
                outcome, note = "error", f"exit {result[0]}"
        return result, outcome, note, latency

    def _check(self, index, query, result):
        cached = self.checked.get(index)
        if cached is not None and cached[0] == result:
            return cached[1], cached[2]
        try:
            signal.setitimer(signal.ITIMER_REAL, CHECK_LIMIT)
            try:
                note = query.check(result)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            outcome = "ok" if note is None else "wrong"
        except (QueryDeadline, self.workloads.Unverified) as err:
            outcome, note = "unverified", repr(err)[:200]
        except Exception as err:
            outcome, note = "wrong", f"check raised {err!r}"[:200]
        self.checked[index] = (result, outcome, note)
        return outcome, note or ""

    def run_pass(self, traced: bool, start: int):
        readings = []
        last = 0.0
        for index in range(start, len(self.queries)):
            query = self.queries[index]
            gc.collect()
            malloc_trim(0)
            if time.perf_counter() - last >= CALIBRATE_EVERY_S:
                readings.append(calibrate())
                last = time.perf_counter()
            self.send(busy=query.deadline, phase="query", index=index)
            if traced:
                self.tracer.install()
                self.tracing = True
                root = self.tracer.begin_query(index)
            try:
                result, outcome, note, latency = self._execute(query)
            finally:
                if traced:
                    self.tracer.end_query(root, finished=outcome != "deadline")
                    self.tracing = False
                    self.tracer.uninstall()
            self.peak_threads = max(self.peak_threads, peak_threads_now())
            if outcome == "answered":
                self.send(ran=index, latency=latency)
                self.send(busy=CHECK_LIMIT, phase="check", index=index)
                outcome, note = self._check(index, query, result)
            self.send(
                done=index,
                latency=latency,
                outcome=outcome,
                note=note,
                label=query.label,
                deadline=query.deadline,
            )
        layers = None
        if traced:
            query_counts, deadline_hits, spans = self.tracer.take_pass()
            layers = self.layer_summary(spans, query_counts, deadline_hits)
            self.spans.append(spans)
        self.send(
            pass_end=True,
            calibration_s=statistics.median(readings),
            layers=layers,
            peak_threads=self.peak_threads,
            peak_rss_mb=self.peak_rss_mb,
        )

    def write_spans(self):
        if not self.spans:
            return
        with open(self.trace_file, "w") as handle:
            for number, spans in enumerate(self.spans):
                for qid, name, start, end, parent in spans:
                    handle.write(json.dumps([number, qid, name, start, end, parent]) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    out = sys.stdout
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import_program()
    worker = Worker(args.workload, args.seed, out)
    started = time.perf_counter()
    readings = [calibrate() for _ in range(3)]
    worker.send(
        ready=len(worker.queries),
        calibration_s=statistics.median(readings),
        calibrating_s=time.perf_counter() - started,
    )
    for line in sys.stdin:
        command = line.split()
        if not command:
            continue
        if command[0] == "pass":
            worker.run_pass(command[1] == "1", int(command[2]))
        elif command[0] == "exit":
            worker.write_spans()
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
