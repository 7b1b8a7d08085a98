"""Run one workload's timed loop in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE

run.py starts it from the checkout root with PYTHONPATH set to `src`,
and reads the JSON object it prints.  With TRACE=1 every layer is
wrapped by bench/tracer.py and the spans are written to bench/results/.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
import traceback

ROOT = os.getcwd()
RESULTS = os.path.join(ROOT, "bench", "results")


def run_loop(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Run whole rounds of ops until `seconds` have passed.

    Every op is timed from the call into the program to its return; the
    oracle check runs after the timing.  An exception from the program
    or the oracle counts the op as failed; it is never dropped.  The
    benchmark's own steps (making, checking and collecting an op) are
    timed apart, so a traced run can account for its loop time.  Peak
    memory is read after the first round, so it does not grow with the
    number of rounds that fit in `seconds`.
    """
    # One warm-up op from another seed, so no memo holds a timed input.
    warm_op = workload.make(random.Random(f"warm-up {seed}"), 1)
    try:
        workload.check(warm_op, workload.run(warm_op))
    except Exception:  # the timed ops that fail the same way are counted
        pass
    rng = random.Random(seed)
    latencies, kinds, errors = [], [], []
    method_s, method_n = {}, {}
    failed = 0
    i = 0
    bench_s = 0.0
    peak_rss_mb = None
    collect = getattr(workload, "collect", None)
    methods_of = getattr(workload, "methods_of", None)
    rss_of = getattr(workload, "rss_of", resource.RUSAGE_SELF)
    start = time.perf_counter()
    while True:
        for _ in range(workload.round_len):
            b0 = time.perf_counter()
            op = workload.make(rng, i)
            error = None
            b1 = time.perf_counter()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:
                out, error = None, exc
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            b2 = time.perf_counter()
            if collect is not None:
                collect()
            if out is not None:
                for method, _, sec in methods_of(out) if methods_of else ():
                    method_s[method] = method_s.get(method, 0.0) + sec
                    method_n[method] = method_n.get(method, 0) + 1
                try:
                    workload.check(op, out)
                except Exception as exc:
                    error = exc
            if error is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append("".join(traceback.format_exception_only(
                        type(error), error)).strip())
            latencies.append(dt * 1000.0)
            kinds.append(workload.kind(op, i))
            i += 1
            bench_s += (b1 - b0) + (time.perf_counter() - b2)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(rss_of).ru_maxrss / 1024.0
        if time.perf_counter() - start >= seconds:
            break
    return {
        "loop_s": time.perf_counter() - start,
        "bench_s": bench_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": latencies,
        "kinds": kinds,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors,
        "method_s": method_s,
        "method_n": method_n,
    }


class TracedCli:
    """cli-cold under the tracer: each process runs bench/tracedcli.py,
    and its spans are adopted under a `proc` span of the worker."""

    def __init__(self, workload, tracer, span_file: str):
        self.workload = workload
        self.tracer = tracer
        self.span_file = span_file
        self.memo = [0, 0, 0]
        workload.launcher = [sys.executable, os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "tracedcli.py"),
            span_file]

    def __getattr__(self, name):
        return getattr(self.workload, name)

    def run(self, op):
        if not self.tracer.active:  # the warm-up op: its spans are dropped
            try:
                return self.workload.run(op)
            finally:
                if os.path.exists(self.span_file):
                    os.remove(self.span_file)
        self._proc = self.tracer.open("proc")
        try:
            return self.workload.run(op)
        finally:
            self.tracer.close(self._proc)
            self._adopt = True

    def collect(self) -> None:
        if not self.__dict__.pop("_adopt", False):
            return
        if not os.path.exists(self.span_file):
            return
        with open(self.span_file, encoding="utf-8") as fh:
            child = json.load(fh)
        os.remove(self.span_file)
        self.tracer.adopt(child["spans"], child["names"], child["results"],
                          self._proc)
        if child["memo"] is not None:
            hits, misses, entries = child["memo"]
            self.memo[0] += hits
            self.memo[1] += misses
            self.memo[2] = max(self.memo[2], entries)


def trace_counts(tracer, memo) -> dict:
    results = tracer.results
    hives = results.get("hive.hive_count", [])
    systems = results.get("hive.build_system", [])
    members = results.get("lr3.membership", [])
    return {
        "hives": sum(hives),
        "build_system_distinct_k": len(set(systems)),
        "build_system_calls": len(systems),
        "membership_true": sum(members),
        "membership_calls": len(members),
        "memo_hits": memo[0],
        "memo_misses": memo[1],
        "memo_entries": memo[2],
    }


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    workload = workloads.WORKLOADS[name]()
    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        os.makedirs(RESULTS, exist_ok=True)
        if name == "cli-cold":
            workload = TracedCli(workload, tracer, os.path.join(
                RESULTS, f"child-spans-{os.getpid()}.json"))
        memo0 = tracing.memo_info() or (0, 0, 0)
    result = run_loop(workload, seed, seconds, tracer)
    if tracer is not None:
        if name == "cli-cold":
            memo = workload.memo
        else:
            memo1 = tracing.memo_info() or (0, 0, 0)
            memo = [memo1[0] - memo0[0], memo1[1] - memo0[1], memo1[2]]
        result["trace"] = tracing.summarize(tracer)
        result["trace"]["counts"] = trace_counts(tracer, memo)
        tracer.dump(os.path.join(RESULTS, f"spans-{name}-s{seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
