"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/test_perfbench.py -q

They cover the tail-percentile rule, the self-time arithmetic of the tracer
(also when a deadline interrupts it), the deadline exception escaping covlang's
``except Exception`` explorers, the supervisor's kill of a worker that ignores
its deadline and its stop when traced passes never complete, the traced-pass
consistency checks, the measured mix of general-nets, and the agreement of
BENCHMARK.json with what run.py and the tracer can report.
"""

import json
import random
import signal
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from covlang import closures  # noqa: E402
from covlang.errors import BudgetExceeded  # noqa: E402
from covlang.families import rackoff_counterexample  # noqa: E402
from covlang.fsa import make_fsa  # noqa: E402
from corpus import random_fsa, random_net  # noqa: E402
from covlang.nets import EPSILON, is_bpp  # noqa: E402


# tail percentile


@pytest.mark.parametrize("per_pass,passes", [(11, 1), (101, 1), (101, 2), (600, 3)])
def test_tail_rank_leaves_ten_queries_of_each_pass_beyond(per_pass, passes):
    samples = per_pass * passes
    rank = run.tail_rank(per_pass, passes)
    assert samples - 1 - rank == run.TAIL_BEYOND * passes
    assert run.tail_percentile(per_pass) == pytest.approx(100 * (rank + 1) / samples)


def test_tail_rank_of_short_list_is_the_maximum():
    assert run.tail_rank(10, 2) == 19
    assert run.tail_percentile(10) == 100.0


def test_end_to_end_tail_value():
    records = {i: {"ref_latency": float(i), "outcome": "ok"} for i in range(101)}
    metrics = run.end_to_end([records], [1.0, 3.0, 2.0], 50.0)
    # 90 is the highest latency with ten (91..100) above it
    assert metrics["query_tail_ms"] == 90_000.0
    assert metrics["query_p50_ms"] == 50_000.0
    assert metrics["wall_s"] == sum(range(101))
    assert metrics["setup_s"] == 2.0
    assert metrics["answered_share"] == 1.0


# self times


def test_self_times_subtract_direct_children_only():
    spans = [
        [0, "bench.query", 0.0, 10.0, -1],
        [0, "a.f", 1.0, 4.0, 0],
        [0, "b.g", 2.0, 3.0, 1],
        [0, "a.f", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    summary = tracing.layer_summary(spans, {}, {})
    assert summary["self_s"] == {"bench.query": 3.0, "a.f": 6.0, "b.g": 1.0}
    assert summary["residual_s"] == 0.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _fake_modules():
    """Two modules where `outer` calls `inner` through its own namespace, as
    covlang's modules call each other after `from .x import f`."""
    low = types.ModuleType("low")
    high = types.ModuleType("high")

    def inner(x):
        if x < 0:
            raise BudgetExceeded("nodes", 1)
        return x + 1

    def outer(x):
        return high.inner(x) + high.inner(x)

    low.inner = inner
    high.inner = inner
    high.outer = outer
    return {"low": low, "high": high}


def test_tracer_nests_spans_and_sums_self_time(monkeypatch):
    modules = _fake_modules()
    monkeypatch.setattr(tracing, "SPANNED", {"low": ("inner",), "high": ("outer",)})
    monkeypatch.setattr(tracing, "COUNTED", {})
    monkeypatch.setattr(tracing, "PROCEDURES", ())
    monkeypatch.setattr(tracing, "PRODUCT_STARTS", ())
    modules["sre_inclusion"] = types.ModuleType("sre_inclusion")
    tracer = tracing.Tracer(modules, BudgetExceeded, clock=FakeClock())
    original = modules["high"].inner
    tracer.install()
    root = tracer.begin_query(7)
    assert modules["high"].outer(1) == 4
    tracer.end_query(root, finished=True)
    tracer.uninstall()
    assert modules["high"].inner is original
    query_counts, hits, spans = tracer.take_pass()
    assert query_counts[7] == {"low.inner.calls": 2, "high.outer.calls": 1}
    assert [name for _q, name, *_ in spans] == ["bench.query", "high.outer", "low.inner", "low.inner"]
    summary = tracing.layer_summary(spans, query_counts, hits)
    assert summary["query_counts"] == {"7": {"low.inner.calls": 2, "high.outer.calls": 1}}
    root_span = spans[0]
    assert sum(summary["self_s"].values()) == root_span[3] - root_span[2]
    assert summary["residual_s"] == 0.0


def test_tracer_counts_budget_overrun_once_and_drops_counts_of_unfinished_queries(monkeypatch):
    modules = _fake_modules()
    monkeypatch.setattr(tracing, "SPANNED", {"low": ("inner",), "high": ("outer",)})
    monkeypatch.setattr(tracing, "COUNTED", {})
    monkeypatch.setattr(tracing, "PROCEDURES", ())
    monkeypatch.setattr(tracing, "PRODUCT_STARTS", ())
    modules["sre_inclusion"] = types.ModuleType("sre_inclusion")
    tracer = tracing.Tracer(modules, BudgetExceeded, clock=FakeClock())
    tracer.install()
    root = tracer.begin_query(0)
    with pytest.raises(BudgetExceeded):
        modules["high"].outer(-1)
    tracer.end_query(root, finished=True)
    root = tracer.begin_query(1)
    modules["high"].outer(1)
    tracer.note_deadline()  # charged to the innermost open span: the root
    tracer.end_query(root, finished=False)
    tracer.uninstall()
    query_counts, hits, spans = tracer.take_pass()
    assert query_counts[0]["low.budget_exceeded"] == 1
    assert "high.budget_exceeded" not in query_counts[0]
    assert hits == {"bench.deadline_hits": 1}
    assert 1 not in query_counts
    assert tracer.stack == []
    assert tracing.layer_summary(spans, query_counts, hits)["residual_s"] == 0.0


class InterruptingClock(FakeClock):
    """Raises QueryDeadline on its `at`-th reading, as the SIGALRM handler can
    between any two bytecodes."""

    def __init__(self, at):
        super().__init__()
        self.readings = 0
        self.at = at

    def __call__(self):
        self.readings += 1
        if self.readings == self.at:
            raise worker.QueryDeadline()
        return super().__call__()


@pytest.mark.parametrize("at", [4, 5])
def test_deadline_between_enter_and_leave_leaves_no_open_span(monkeypatch, at):
    # readings: 1 root enter, 2 outer enter, 3 inner enter, 4 inner leave,
    # 5 second inner enter
    modules = _fake_modules()
    monkeypatch.setattr(tracing, "SPANNED", {"low": ("inner",), "high": ("outer",)})
    monkeypatch.setattr(tracing, "COUNTED", {})
    monkeypatch.setattr(tracing, "PROCEDURES", ())
    monkeypatch.setattr(tracing, "PRODUCT_STARTS", ())
    modules["sre_inclusion"] = types.ModuleType("sre_inclusion")
    tracer = tracing.Tracer(modules, BudgetExceeded, clock=InterruptingClock(at))
    tracer.install()
    root = tracer.begin_query(0)
    with pytest.raises(worker.QueryDeadline):
        modules["high"].outer(1)
    tracer.enter("low.inner")  # interrupted right after the span was created
    tracer.end_query(root, finished=False)
    tracer.uninstall()
    query_counts, hits, spans = tracer.take_pass()
    assert all(end is not None for _q, _n, _s, end, _p in spans)
    summary = tracing.layer_summary(spans, query_counts, hits)
    assert summary["residual_s"] == 0.0
    assert tracer.stack == []


# the deadline exception


def _pumping_instance():
    # rt_help pumps forever, so k-bounded exploration grows with k
    return rackoff_counterexample()


def test_deadline_exception_escapes_k_bounded_fsa(monkeypatch):
    real_fire = closures.fire
    calls = []

    def fire(net, m, name):
        calls.append(name)
        if len(calls) == 50:
            raise worker.QueryDeadline()
        return real_fire(net, m, name)

    monkeypatch.setattr(closures, "fire", fire)
    with pytest.raises(worker.QueryDeadline):
        closures.k_bounded_fsa(_pumping_instance(), 10_000)
    assert len(calls) == 50


def test_exception_raised_inside_fire_is_swallowed_by_k_bounded_fsa(monkeypatch):
    # the reason QueryDeadline derives from BaseException
    real_fire = closures.fire

    def fire(net, m, name):
        if name == "rt_help":
            raise RuntimeError("an Exception-based deadline")
        return real_fire(net, m, name)

    monkeypatch.setattr(closures, "fire", fire)
    closures.k_bounded_fsa(_pumping_instance(), 8)


def test_sigalrm_deadline_stops_a_long_query():
    bare = worker.Worker.__new__(worker.Worker)
    bare.tracing = False
    bare.peak_rss_mb = 0.0
    query = workloads.Query(
        "closure up", "uc k=10^6", 0.2, call=lambda: closures.uc_fsa(_pumping_instance(), mode="user_k", k=10**6)
    )
    previous = signal.signal(signal.SIGALRM, bare._alarm), signal.signal(signal.SIGPROF, bare._sample_rss)
    try:
        _result, outcome, _note, latency = bare._execute(query)
        assert outcome == "deadline"
        assert latency < 0.2 + run.MARGIN_S
        # the memory of a timed-out search is left out of the peak
        assert bare.query_rss_mb > 0 and bare.peak_rss_mb == 0.0
        small = workloads.Query(
            "closure up", "uc k=2", 5.0, call=lambda: closures.uc_fsa(_pumping_instance(), mode="user_k", k=2)
        )
        _result, outcome, _note, _latency = bare._execute(small)
        assert outcome == "answered" and bare.peak_rss_mb > 0
    finally:
        signal.signal(signal.SIGALRM, previous[0])
        signal.signal(signal.SIGPROF, previous[1])


# supervisor


def test_supervisor_kills_a_worker_past_its_deadline():
    script = (
        "import json, time; "
        "print(json.dumps({'busy': 0.1, 'phase': 'query', 'index': 0}), flush=True); "
        "time.sleep(60)"
    )
    process = run.WorkerProcess([sys.executable, "-c", script])
    process.receive()
    started = time.perf_counter()
    with pytest.raises(run.WorkerGone):
        process.receive()
    assert time.perf_counter() - started < 0.1 + run.MARGIN_S + 1.0
    assert process.proc.poll() is not None
    process.proc.stdin.close()
    process.proc.stdout.close()


# checks


def test_unary_lengths_handles_silent_edges_and_letter_loops():
    down = make_fsa(("a",), range(3), [(0, "a", 1), (1, "a", 2), (0, EPSILON, 1), (1, EPSILON, 2)], 0, [2])
    assert workloads.unary_lengths(down, 4) == 0b111
    up = make_fsa(("a",), range(2), [(0, "a", 1), (1, "a", 1)], 0, [1])
    assert workloads.unary_lengths(up, 4) == 0b11110


# traced passes and the run's time limit


def _records(timed_out, count=4):
    return {
        i: {"outcome": "deadline" if i in timed_out else "ok", "label": f"q{i}"} for i in range(count)
    }


def test_timeout_flips_names_queries_whose_time_out_differs_between_passes():
    assert run.timeout_flips([_records({1}), _records({1})]) == []
    assert run.timeout_flips([_records({1}), _records({1, 2}), _records({1})]) == ["q2"]


def test_layer_counts_leave_out_queries_whose_time_out_differs():
    def layer(*indices, hits=0):
        return {
            "query_counts": {str(i): {"a.calls": 1, f"q{i}.calls": 1} for i in indices},
            "deadline_hits": {"reach.deadline_hits": hits} if hits else {},
        }

    untraced = [_records({3})]
    # traced: query 2 timed out only when traced, query 3 finished only when traced
    counts, agree = run.layer_counts(untraced + [_records({2})], [layer(0, 1, 3, hits=1)])
    assert agree and counts == {"a.calls": 2, "q0.calls": 1, "q1.calls": 1, "reach.deadline_hits": 1}
    counts, agree = run.layer_counts(untraced + [_records({3})] * 2, [layer(0, 1, 2), layer(0, 1)])
    assert not agree


def test_measure_stops_when_no_traced_pass_delivers_layer_data(monkeypatch):
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.2)

    class LosingRun:
        passes = 0

        def run_pass(self, traced):
            self.passes += 1
            time.sleep(0.01)
            return {0: {"latency": 0.01, "ref_latency": 0.01, "outcome": "deadline"}}, None

    fake = LosingRun()
    untraced, traced, layers = run.measure(fake, 0.001, trace=True)
    assert layers == [] and traced and untraced
    assert fake.passes < 30


@pytest.mark.parametrize(
    "first_pass_s,per_pass,passes", [(6.4, 432, 3), (7.1, 432, 3), (18.5, 630, 1), (30.0, 630, 1), (19.8, 101, 2)]
)
def test_measure_runs_seconds_over_the_first_pass_rounded(first_pass_s, per_pass, passes):
    class SteadyRun:
        def run_pass(self, traced):
            record = {"latency": 0.0, "ref_latency": first_pass_s / per_pass, "outcome": "ok"}
            return dict.fromkeys(range(per_pass), record), ({"counts": {}} if traced else None)

    untraced, traced, layers = run.measure(SteadyRun(), 20, trace=False)
    assert len(untraced) == passes and traced == layers == []
    untraced, traced, layers = run.measure(SteadyRun(), 20, trace=True)
    assert len(untraced) == len(traced) == len(layers) == passes


# general-nets mix


def test_certified_share_is_the_generators_natural_share():
    certified = drawn = 0
    for seed in range(20):
        rng = random.Random(seed)
        for _ in range(200):
            while True:
                inst = random_net(rng, max_places=4, max_transitions=4, max_weight=2)
                random_fsa(rng, alphabet=inst.net.alphabet)
                if not is_bpp(inst.net):
                    break
            value = closures.rackoff_bound(inst).value
            certified += value is not None and value <= workloads.CERTIFIED_CEILING
            drawn += 1
    assert round(certified / drawn, 3) == workloads.CERTIFIED_SHARE
    share = workloads.CERTIFIED_SEARCHES / (workloads.CERTIFIED_SEARCHES + workloads.RANDOM_NETS)
    assert abs(share - workloads.CERTIFIED_SHARE) < 0.5 / workloads.RANDOM_NETS


# BENCHMARK.json


def _count_keys():
    """Every count the tracer can report."""
    keys = {"sre_inclusion.procedures", "sre_inclusion.products", "bench.deadline_hits"}
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module, names in table.items():
            keys.update(f"{module}.{name}.calls" for name in names)
            keys.update({f"{module}.budget_exceeded", f"{module}.deadline_hits"})
    keys.update(key for key, _amount in tracing.EXTRACT.values())
    return keys


def test_benchmark_json_lists_metrics_run_py_can_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = {0: {"ref_latency": 1.0, "outcome": "ok"}}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end([records], [1.0], 1.0))
    spans = {f"{module}.{name}" for module, names in tracing.SPANNED.items() for name in names}
    counts = _count_keys()
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in run.HARNESS:
            continue
        if name in run.RATIOS:
            assert set(run.RATIOS[name]) <= counts, name
        elif name.endswith(".self_s"):
            assert name[: -len(".self_s")] in spans, name
        else:
            assert name in counts, name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
