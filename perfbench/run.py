#!/usr/bin/env python3
"""Decision benchmark for covlang.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see workloads.py):

  sre-corpus    communication-free nets x SREs, sre-in both directions on the
                auto (Presburger) route; checked against the general route
  power-family  bpp-power(n) over a range of n per verb; closed-form answers
  general-nets  Ackermann family, rackoff-ce and random nets with
                synchronization; is-closed both ways, reg-in, closure up

One closed-loop client: a single worker process (worker.py) runs the query
list back to back, each query starting when the previous one returns.  This
process only supervises: it starts the worker, times its set-up, and kills it
when a query outlives its deadline by more than MARGIN_S, in which case the
query counts as a deadline hit and a fresh worker resumes after it.

Passes over the query list repeat until they make up --seconds at a
reference host speed (see REFERENCE_CALIBRATION_S).  Times of answered
queries and of set-up are reported at that speed; time-outs at wall time.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1, untraced and traced passes alternate and the JSON
carries the per-layer metrics, from spans recorded around calls into each
covlang module (tracing.py).  Metric names and units come from BENCHMARK.json.

Exit codes: 1 a wrong answer; 2 no covlang checkout; 3 a worker failed during
set-up, or no traced pass delivered its layer data; 4 two traced passes
disagree on the counts of the same queries.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("sre-corpus", "power-family", "general-nets")

#: Set-ups per run; setup_s is their median.
SETUPS = 5
#: How long past its deadline a query may run before the worker is killed.
MARGIN_S = 2.0
#: Bound on a run: a set-up that takes longer fails the run, and measuring
#: stops after half of it.
RUN_LIMIT_S = 170.0
#: Queries of one pass that must lie beyond the tail percentile.
TAIL_BEYOND = 10
#: Query latencies a run must collect at the least: one pass of power-family's
#: 101 queries leaves its p50 spread 15-19% over ten seeds, two passes 7%.
MIN_SAMPLES = 200
#: Seconds the worker's calibration routine takes at the reference speed: a
#: 2-core Xeon at 2.1 GHz running Python 3.11 with the other hyperthread idle.
#: The host speed drifts by up to 40% over minutes; answered queries and
#: set-up are reported at the reference speed, scaled by this over the
#: calibration time measured in the same pass.  Time-outs keep their wall time:
#: a deadline is a wall-clock budget.
REFERENCE_CALIBRATION_S = 0.020

#: The metric names and units, from the benchmark's description.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics that are a ratio of two counts.  Every other per-layer
#: metric is the self time of the span its name ends in (".self_s"), a figure
#: of the harness (HARNESS), or the count of the same name.
RATIOS = {
    "presburger.sat_share": ("presburger.solve_bounded.sat", "presburger.solve_bounded.calls"),
    "sre_inclusion.procedures_per_product": ("sre_inclusion.procedures", "sre_inclusion.products"),
}
HARNESS = ("bench.trace_overhead_s", "bench.self_time_residual_s", "worker.peak_threads")


class WorkerGone(Exception):
    """The worker died, or was killed for outliving a deadline (killed=True)."""

    def __init__(self, reason, killed=False):
        super().__init__(reason)
        self.killed = killed


class WorkerProcess:
    """One worker process and the line protocol to it."""

    def __init__(self, command):
        self.started = time.perf_counter()
        # a fixed hash seed keeps set iteration order, and so every count, the
        # same from run to run
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
        )
        self.buffer = b""
        self.kill_at = None

    def send(self, line):
        self.proc.stdin.write((line + "\n").encode())
        self.proc.stdin.flush()

    def receive(self):
        """Next message; kills the worker when its current promise expires."""
        while b"\n" not in self.buffer:
            timeout = None if self.kill_at is None else max(0.0, self.kill_at - time.perf_counter())
            ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
            if not ready:
                self.kill()
                raise WorkerGone(f"outlived its deadline by {MARGIN_S} s", killed=True)
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            if not chunk:
                self.proc.wait()
                raise WorkerGone(f"exit {self.proc.returncode}")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        message = json.loads(line)
        if "busy" in message:
            self.kill_at = time.perf_counter() + message["busy"] + MARGIN_S
        elif "done" in message or "pass_end" in message:
            self.kill_at = None
        return message

    def wait_ready(self):
        """Set-up seconds at the reference speed, from process start to the
        first query, and the number of queries in a pass."""
        self.kill_at = self.started + RUN_LIMIT_S
        message = self.receive()
        self.kill_at = None
        if "ready" not in message:
            raise WorkerGone(f"unexpected {message}")
        seconds = time.perf_counter() - self.started - message["calibrating_s"]
        return seconds * REFERENCE_CALIBRATION_S / message["calibration_s"], message["ready"]

    def close(self):
        if self.proc.poll() is None:
            try:
                self.send("exit")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()


class Run:
    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.setups = []
        self.worker = None
        self.queries = None
        self.restarts = 0
        self.peak_threads = 0
        self.peak_rss_mb = 0.0

    def start_worker(self):
        worker = WorkerProcess(
            [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed)]
        )
        try:
            seconds, self.queries = worker.wait_ready()
        except WorkerGone:
            worker.kill()
            raise
        return worker, seconds

    def set_up(self):
        for number in range(SETUPS):
            worker, seconds = self.start_worker()
            self.setups.append(seconds)
            if number < SETUPS - 1:
                worker.close()
            else:
                self.worker = worker

    def run_pass(self, traced):
        """One pass over the query list: ({index: record}, layer data or None).

        A query whose worker is killed counts as a deadline hit (unverified
        when the kill came during its check), one whose worker dies as an
        error; a fresh worker resumes after it, untraced, and the pass carries
        no layer data."""
        records = {}
        start = 0
        while start < self.queries:
            self.worker.send(f"pass {int(traced)} {start}")
            index, busy_since = start, time.perf_counter()
            try:
                while True:
                    message = self.worker.receive()
                    if "busy" in message:
                        index, busy_since = message["index"], time.perf_counter()
                        if message["phase"] == "query":
                            records[index] = {"latency": None, "outcome": "deadline",
                                              "deadline": message["busy"], "label": "", "note": ""}
                    elif "ran" in message:
                        records[message["ran"]].update(latency=message["latency"], outcome="unverified")
                    elif "done" in message:
                        records[message["done"]] = message
                    elif "pass_end" in message:
                        scale = REFERENCE_CALIBRATION_S / message["calibration_s"]
                        for record in records.values():
                            timed_out = record["outcome"] == "deadline"
                            record["ref_latency"] = record["latency"] * (1.0 if timed_out else scale)
                        self.peak_threads = max(self.peak_threads, message["peak_threads"])
                        self.peak_rss_mb = max(self.peak_rss_mb, message["peak_rss_mb"])
                        return records, message["layers"] if traced else None
            except WorkerGone as gone:
                record = records.setdefault(
                    index, {"latency": None, "deadline": 0.0, "label": "", "outcome": "error"}
                )
                if record["latency"] is None:
                    record["latency"] = time.perf_counter() - busy_since
                if not gone.killed:
                    record["outcome"] = "error"
                record["note"] = f"worker {gone}"
                self.restarts += 1
                self.worker, _seconds = self.start_worker()
                start, traced = index + 1, False
        for record in records.values():  # killed on the last query: no calibration
            record.setdefault("ref_latency", record["latency"])
        return records, None

    def close(self):
        if self.worker is not None:
            self.worker.close()


def tail_rank(per_pass: int, passes: int) -> int:
    """0-based rank of the tail latency among per_pass * passes sorted
    samples: the highest rank with TAIL_BEYOND queries of each pass beyond it."""
    if per_pass <= TAIL_BEYOND:
        return per_pass * passes - 1
    return (per_pass - TAIL_BEYOND) * passes - 1


def tail_percentile(per_pass: int) -> float:
    if per_pass <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (per_pass - TAIL_BEYOND) / per_pass


def pass_wall(records, key="ref_latency") -> float:
    """Seconds to run the whole query list: the sum of its query latencies,
    at the reference speed unless key is "latency"."""
    return sum(r[key] for r in records.values())


def end_to_end(passes, setups, peak_rss_mb):
    latencies = sorted(r["ref_latency"] for records in passes for r in records.values())
    answered = sum(r["outcome"] == "ok" for records in passes for r in records.values())
    return {
        "wall_s": statistics.median(pass_wall(records) for records in passes),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_tail_ms": 1000 * latencies[tail_rank(len(passes[0]), len(passes))],
        "answered_share": answered / len(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(names, layers, counts, harness):
    """Per-layer metrics: self times are medians over the traced passes."""
    values = {}
    for name in names:
        if name in harness:
            values[name] = harness[name]
        elif name in RATIOS:
            numerator, denominator = (counts.get(key, 0) for key in RATIOS[name])
            values[name] = numerator / denominator if denominator else 0.0
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            values[name] = statistics.median(layer["self_s"].get(span, 0.0) for layer in layers)
        else:
            values[name] = counts.get(name, 0)
    return values


def timeouts(records):
    return {index for index, record in records.items() if record["outcome"] == "deadline"}


def timeout_flips(passes):
    """Labels of the queries that timed out in some passes but not in all."""
    sets = [timeouts(records) for records in passes]
    flipped = set().union(*sets) - set.intersection(*sets)
    return sorted(passes[0][i]["label"] or str(i) for i in flipped)


def layer_counts(passes, layers):
    """Counts of the queries that finished in every pass, untraced or traced,
    plus the first traced pass's deadline hits; and whether every traced pass
    agrees on them.  A query whose time-out differs between passes is left
    out, so counts repeat exactly even when tracing tips a query over its
    deadline."""
    common = set(passes[0]) - set().union(*map(timeouts, passes))
    sums = []
    for layer in layers:
        total = Counter()
        for index in common:
            total.update(layer["query_counts"].get(str(index), {}))
        sums.append(total)
    return sums[0] + Counter(layers[0]["deadline_hits"]), all(s == sums[0] for s in sums[1:])


def measure(run, seconds, trace):
    """Untraced passes that make up `seconds` at the reference speed: their
    number is `seconds` over the first pass's time, rounded, so it does not
    change with the host's speed, but at least enough passes to collect
    MIN_SAMPLES latencies.  With tracing, a traced pass follows each untraced
    one, until at least one has delivered its layer data.  Stops after
    RUN_LIMIT_S / 2 in any case."""
    untraced, traced, layers = [], [], []
    passes = 1
    began = time.perf_counter()
    while True:
        want_trace = trace and len(traced) < len(untraced)
        records, layer_data = run.run_pass(want_trace)
        (traced if want_trace else untraced).append(records)
        if layer_data is not None:
            layers.append(layer_data)
        if len(untraced) == 1 and not want_trace:
            passes = max(-(-MIN_SAMPLES // len(records)), round(seconds / pass_wall(records)))
        enough = len(untraced) >= passes and (not trace or (len(traced) == len(untraced) and layers))
        if enough or time.perf_counter() - began > RUN_LIMIT_S / 2:
            return untraced, traced, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "covlang").is_dir() or not (ROOT / "tests" / "corpus.py").is_file():
        print(f"perfbench: {ROOT} holds no covlang checkout (src/covlang, tests/corpus.py)", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    try:
        run.set_up()
        untraced, traced, layers = measure(run, args.seconds, args.trace == 1)
    except WorkerGone as gone:
        print(f"perfbench: worker failed: {gone}", file=sys.stderr)
        return 3
    finally:
        run.close()
    if args.trace == 1 and not layers:
        print("perfbench: no traced pass completed", file=sys.stderr)
        return 3

    records = [r for records in untraced + traced for r in records.values()]
    wrong = [r for r in records if r["outcome"] == "wrong"]
    errors = [r for r in records if r["outcome"] == "error"]
    e2e = end_to_end(untraced, run.setups, run.peak_rss_mb)
    report(args, untraced, traced, e2e, run, wrong + errors)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if args.trace == 1 else "end_to_end"]}
    if args.trace == 1:
        counts, agree = layer_counts(untraced + traced, layers)
        if not agree:
            print("perfbench: traced passes disagree on the counts of the same queries", file=sys.stderr)
            return 4
        harness = {
            "bench.trace_overhead_s": statistics.median(pass_wall(r) for r in traced) - e2e["wall_s"],
            "bench.self_time_residual_s": max(layer["residual_s"] for layer in layers),
            "worker.peak_threads": run.peak_threads,
        }
        values = per_layer(units, layers, counts, harness)
    else:
        values = e2e
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(wrong) + len(errors),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 1 if wrong else 0


def deadline_report(kind, records):
    overruns = [r["latency"] - r["deadline"] for r in records if r["outcome"] == "deadline"]
    near = sorted({f"{r['label']} ({r['latency'] / r['deadline']:.2f}x)" for r in records
                   if r["outcome"] != "deadline" and r["latency"] > r["deadline"] / 1.3})
    hits = sorted({r["label"] for r in records if r["outcome"] == "deadline"})
    print(f"  {kind}: deadline overrun max {max(overruns, default=0.0):.3f} s (margin {MARGIN_S} s); "
          f"answers within 1.3x of their deadline: {near}")
    print(f"  {kind} deadline hits: {hits}")


def report(args, untraced, traced, e2e, run, bad):
    """Human-readable summary ahead of the JSON line."""
    per_pass = len(untraced[0])
    records = [r for records in untraced for r in records.values()]
    outcomes = {}
    for r in records:
        outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced pass(es) of "
          f"{per_pass} queries, {len(traced)} traced, {run.restarts} worker restart(s)")
    print(f"  outcomes {json.dumps(outcomes, sort_keys=True)}; "
          f"failed_share {1 - outcomes.get('ok', 0) / len(records):.4f}")
    print(f"  query_tail_ms is the {tail_percentile(per_pass):.2f}th percentile of {len(records)} samples")
    deadline_report("untraced", records)
    if traced:
        deadline_report("traced", [r for records in traced for r in records.values()])
    print(f"  time-outs that differ between passes (left out of the counts): {timeout_flips(untraced + traced)}")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(f"  setups {[round(s, 3) for s in run.setups]}; pass walls "
          f"{[round(pass_wall(r), 3) for r in untraced]} at the reference speed, "
          f"{[round(pass_wall(r, 'latency'), 3) for r in untraced]} measured; peak threads {run.peak_threads}")
    for r in bad[:20]:
        print(f"  {r['outcome'].upper()} {r['label']}: {r['note']}")


if __name__ == "__main__":
    sys.exit(main())
